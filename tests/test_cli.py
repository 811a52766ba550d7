import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from quasikernel.cli import main, run
from quasikernel.functors import to_extpoly_nf, to_poly_nf
from quasikernel.surface import extract_functor, nf_to_sig, parse, parse_functor

LIST_SRC = "free type List ::= nil | cons(Nat; List)\n"
PROC_SRC = "cotype Proc ::= (out:? Bool; next:? Proc) | (spawnl, spawnr: Proc)\n"
TWO_COTYPES_SRC = "cotype A ::= (a:? Bool; an:? A)\ncotype B ::= (b:? Nat; bn:? B)\n"
CORPUS = Path(__file__).resolve().parents[1] / "corpus"


@pytest.fixture
def list_file(tmp_path):
    p = tmp_path / "list.qk"
    p.write_text(LIST_SRC)
    return str(p)


@pytest.fixture
def both_file(tmp_path):
    p = tmp_path / "both.qk"
    p.write_text(LIST_SRC + PROC_SRC)
    return str(p)


class TestElaborate:
    @pytest.mark.parametrize(
        "corpus_file, name, printed",
        [
            ("lists", "List", "Unit + Nat * X"),
            ("mixed", "Shape", "(Unit + Unit) + Unit * X * X"),
            ("mixed", "Tagged", "Bool + Nat * X * X"),
            ("naturals", "Nat2", "Unit + Unit * X"),
            ("processes", "Proc", "Bool * (Unit -> X) + Unit * (Unit + Unit -> X)"),
        ],
        ids=["List", "Shape", "Tagged", "Nat2", "Proc"],
    )
    def test_prints_normal_forms(self, corpus_file, name, printed):
        report, code = run(["elaborate", str(CORPUS / f"{corpus_file}.qk")])
        assert code == 0
        (entry,) = [c for c in report["checks"] if c["name"] == f"elaborate.{name}"]
        assert entry["status"] == "pass"
        assert entry["detail"] == printed

    def test_printed_normal_forms_reparse(self, both_file):
        report, _ = run(["elaborate", both_file])
        (decl_l,) = [d for d in parse(LIST_SRC)]
        (decl_p,) = [d for d in parse(PROC_SRC)]
        expected = {
            "elaborate.List": nf_to_sig(to_poly_nf(extract_functor(decl_l))),
            "elaborate.Proc": nf_to_sig(to_extpoly_nf(extract_functor(decl_p))),
        }
        for c in report["checks"]:
            if c["name"] in expected:
                assert parse_functor(c["detail"]) == expected[c["name"]]

    def test_reparse_with_collected_constants_and_composite_params(self, tmp_path):
        # several nullary constructors and a product-typed parameter force
        # parenthesized constants in the printed normal form
        src = (
            "free type Shape ::= circle | square | glue(Shape; Shape)\n"
            "free type W ::= stop | step(Nat * Bool; W)\n"
        )
        p = tmp_path / "shapes.qk"
        p.write_text(src)
        report, code = run(["elaborate", str(p)])
        assert code == 0
        for d in parse(src):
            nf = nf_to_sig(to_poly_nf(extract_functor(d)))
            (entry,) = [c for c in report["checks"] if c["name"] == f"elaborate.{d.name}"]
            assert parse_functor(entry["detail"]) == nf

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.qk"
        p.write_text("")
        report, code = run(["elaborate", str(p)])
        assert code == 0
        assert report["checks"] == []

    def test_illegal_declaration_fails(self, tmp_path):
        p = tmp_path / "bad.qk"
        p.write_text("free type L ::= abs(L -> L)\n")
        report, code = run(["elaborate", str(p)])
        assert code == 1
        (entry,) = [c for c in report["checks"] if c["name"] == "elaborate.L"]
        assert entry["status"] == "fail"
        assert "argument" in entry["detail"]


class TestElaborateReportsWhatItInstalls:
    """Each declaration gets exactly one check, under its own name, and it
    fails exactly when installing the declaration fails."""

    @pytest.mark.parametrize(
        "src, expected",
        [
            (
                "cotype D ::= (next: D * Nat)\n",
                [("elaborate.D", "fail", "D: selector next has an unsupported codomain")],
            ),
            (
                "cotype F ::= (next: (Nat -> F) + Nat)\n",
                [("elaborate.F", "fail", "F: selector next has an unsupported codomain")],
            ),
            (
                "cotype S ::= (next: Nat -> S)\n",
                [("elaborate.S", "fail", "S: selector next has an exponent that is not finite: Nat")],
            ),
            (
                "free type A ::= a\nfree type B ::= b\nlet ok = fold a (\\x. \\y. b x y) a\n",
                [
                    ("elaborate.A", "pass", "Unit"),
                    ("elaborate.B", "pass", "Unit"),
                    (
                        "elaborate.let.ok",
                        "fail",
                        "'fold' is ambiguous with 2 free types installed: write A.fold or B.fold",
                    ),
                ],
            ),
            (
                "free type A ::= a | s(A)\nfree type A ::= b\n",
                [
                    ("elaborate.A", "pass", "Unit + Unit * X"),
                    ("elaborate.A", "fail", "duplicate declaration 'A'"),
                ],
            ),
            (
                "free type A ::= a | a\nfree type B ::= b\n",
                [
                    ("elaborate.A", "fail", "duplicate constructor 'a' in A"),
                    ("elaborate.B", "pass", "Unit"),
                ],
            ),
            (
                "cotype K ::= (a, a: K) | (a: Nat)\n",
                [("elaborate.K", "fail", "duplicate selector 'a' in K")],
            ),
        ],
        ids=[
            "product-codomain", "sum-codomain", "nat-exponent", "let-after-ambiguous-fold",
            "duplicate", "duplicate-constructor", "duplicate-selector",
        ],
    )
    def test_defective_declaration_fails_under_its_name(self, tmp_path, src, expected):
        p = tmp_path / "defect.qk"
        p.write_text(src)
        report, code = run(["elaborate", str(p)])
        assert code == 1
        checks = [(c["name"], c["status"], c["detail"]) for c in report["checks"]]
        assert checks == expected
        assert len(checks) == len(parse(src))
        report, code = run(["check", str(p), "--suite", "initial", "--obs-depth", "1"])
        assert code == 1
        assert [c["name"] for c in report["checks"]] == ["check.elaborate"]


def _free_decl(name: str, rec: str, args: list[str]) -> str:
    alts = [f"{name.lower()}0"]
    alts += [f"{name.lower()}{i + 1}({a.replace('@', rec)})" for i, a in enumerate(args)]
    return f"free type {name} ::= {' | '.join(alts)}"


def _cotype_decl(name: str, codomains: list[str]) -> str:
    sels = [f"{name.lower()}{i}: {t.replace('@', name)}" for i, t in enumerate(codomains)]
    return f"cotype {name} ::= ({'; '.join(sels)})"


# '@' stands for the declared type; the last entries of each list are defective
_FREE_ARGS = ["Nat", "Bool; @", "@; @", "Nat * Bool; @", "Nat -> @", "@ -> Nat"]
_CO_CODOMAINS = ["Bool", "Nat", "@", "Bool -> @", "Unit + Bool -> @", "Nat -> @", "@ * Nat", "(Bool -> @) + Nat"]
_LETS = ["suc 0", "fold 0", "plus 1 2", "nowhere", r"(\x. x) true"]

_decl_lines = st.one_of(
    st.builds(
        _free_decl,
        st.sampled_from(["A", "B"]),
        st.sampled_from(["A", "B", "C"]),
        st.lists(st.sampled_from(_FREE_ARGS), max_size=2),
    ),
    st.builds(
        _cotype_decl,
        st.sampled_from(["B", "P", "Q"]),
        st.lists(st.sampled_from(_CO_CODOMAINS), min_size=1, max_size=2),
    ),
    st.builds("let {} = {}".format, st.sampled_from(["x", "y"]), st.sampled_from(_LETS)),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_decl_lines, max_size=4))
def test_elaborate_passes_exactly_when_check_can_elaborate(tmp_path, lines):
    # free types, cotypes and lets, some defective; run must report, not raise
    p = tmp_path / "generated.qk"
    p.write_text("\n".join(lines) + "\n")
    elab, elab_code = run(["elaborate", str(p)])
    assert elab["command"] == "elaborate"
    assert len(elab["checks"]) == len(lines)
    assert "elaborate.install" not in {c["name"] for c in elab["checks"]}
    checked, _ = run(["check", str(p), "--suite", "initial", "--obs-depth", "1"])
    assert checked["command"] == "check"
    elaborated = "check.elaborate" not in {c["name"] for c in checked["checks"]}
    assert (elab_code == 0) == elaborated


class TestEval:
    def test_fold_sum(self, list_file):
        report, code = run(["eval", list_file, "-e", "fold 0 plus [1,2,3]"])
        assert code == 0
        assert report["checks"][0]["detail"] == "6"

    def test_failure_is_structured(self, list_file):
        report, code = run(["eval", list_file, "-e", "missing_name"])
        assert code == 1
        assert report["checks"][0]["status"] == "fail"
        assert report["checks"][0]["detail"] == "unbound name: 'missing_name'"

    def test_failed_application_prints_the_value(self, tmp_path):
        p = tmp_path / "rebound.qk"
        p.write_text("free type A ::= a | s(A)\nlet s = 3\n")
        report, code = run(["eval", str(p), "-e", "s a"])
        assert code == 1
        assert report["checks"] == [
            {"name": "eval", "status": "fail", "detail": "cannot apply non-function 3"}
        ]

    def test_failed_projection_prints_the_value(self):
        report, code = run(["eval", str(CORPUS / "processes.qk"), "-e", r"out (unfold (\z. 7) 0)"])
        assert code == 1
        assert report["checks"] == [
            {"name": "eval", "status": "fail", "detail": "not a 2-ary injection: 7"}
        ]

    @pytest.mark.parametrize(
        "expr, detail",
        [
            ("suc true", "suc expects a natural, got true"),
            ("pred (1, 2)", "pred expects a natural, got (1, 2)"),
            (
                "plus nil 1",
                "plus expects a natural, got "
                "({true -> inl false, inr (0, true) -> inl true}, ({true -> 1, inr (0, true) -> 0}, ()))",
            ),
            ("times 2 false", "times expects a natural, got false"),
        ],
    )
    def test_nat_builtins_reject_non_naturals(self, list_file, expr, detail):
        report, code = run(["eval", list_file, "-e", expr])
        assert code == 1
        assert report["checks"] == [{"name": "eval", "status": "fail", "detail": detail}]

    def test_schemes_are_qualified_with_two_free_types(self):
        expr = r"fold 1 1 (\a. \b. plus a b) (glue circle square)"
        mixed = str(CORPUS / "mixed.qk")
        report, code = run(["eval", mixed, "-e", expr])
        assert code == 1
        assert report["checks"] == [
            {
                "name": "eval",
                "status": "fail",
                "detail": "'fold' is ambiguous with 2 free types installed: "
                "write Shape.fold or Tagged.fold",
            }
        ]
        report, code = run(["eval", mixed, "-e", "Shape." + expr])
        assert code == 0 and report["checks"][0]["detail"] == "2"

    def test_shared_constructor_is_qualified(self, tmp_path):
        p = tmp_path / "shared.qk"
        p.write_text("free type A ::= a | s(A)\nfree type B ::= a | t(B)\n")
        report, code = run(["eval", str(p), "-e", "s a"])
        assert code == 1
        assert report["checks"] == [
            {
                "name": "eval",
                "status": "fail",
                "detail": "'a' is ambiguous with 2 free types declaring it: write A.a or B.a",
            }
        ]
        report, code = run(["eval", str(p), "-e", "A.s A.a"])
        assert code == 0 and report["checks"][0]["status"] == "pass"

    def test_unfold_is_qualified_with_two_cotypes(self, tmp_path):
        p = tmp_path / "two.qk"
        p.write_text(TWO_COTYPES_SRC)
        report, code = run(["eval", str(p), "-e", r"a (unfold (\z. (true, \u. z)) 0)"])
        assert code == 1
        assert report["checks"] == [
            {
                "name": "eval",
                "status": "fail",
                "detail": "'unfold' is ambiguous with 2 cotypes installed: "
                "write A.unfold or B.unfold",
            }
        ]
        report, code = run(["eval", str(p), "-e", r"b (bn (B.unfold (\z. (z, \u. suc z)) 3))"])
        assert code == 0 and report["checks"][0]["detail"] == "4"

    @pytest.mark.parametrize(
        "expr",
        ["fst (bot ())", "snd (bot ())", "inl (bot ())", "inr (bot ())", "(bot (), 1)", r"(\x. 0) (bot ())", "fst 3"],
    )
    def test_projections_injections_pairs_and_application_are_strict(self, expr):
        # the projections are builtins: a non-pair has no first component
        report, code = run(["eval", str(CORPUS / "lists.qk"), "-e", expr])
        assert code == 0
        assert report["checks"] == [{"name": "eval", "status": "pass", "detail": "undefined"}]

    def test_long_list_literal_prints(self):
        # its path keys nest two levels per element, past the recursion limit
        digits = ",".join(str(i % 10) for i in range(640))
        report, code = run(["eval", str(CORPUS / "lists.qk"), "-e", f"[{digits}]"])
        assert code == 0
        detail = report["checks"][0]["detail"]
        assert detail.startswith("({true -> inr false, inr (0, true) -> inr inl 0, ")

    @pytest.mark.parametrize(
        "probe, built",
        [
            (r"Shape.case 1 2 (\l. \r. r) (glue circle square)", "square"),
            (r"Tagged.case (\b. 0) (\n. \l. \r. r) (node 0 (leaf true) (leaf false))", "leaf false"),
        ],
    )
    def test_case_gives_back_the_subtree_it_was_built_from(self, probe, built):
        # the second subtree is anchored at its own leftmost leaf, not at
        # the first subtree's, so it prints as the tree written out
        mixed = str(CORPUS / "mixed.qk")
        (got, code), (want, _) = run(["eval", mixed, "-e", probe]), run(["eval", mixed, "-e", built])
        assert code == 0
        assert got["checks"] == want["checks"]
        assert got["checks"][0]["detail"].endswith(", false))")

    def test_a_fold_over_shared_subtrees_combines_each_once(self):
        # glue doubles its argument 25 times: 2^25 paths, but equal subtrees
        # are one object, so the fold combines 26 distinct nodes
        doubled = "d (" * 24 + "d circle" + ")" * 24
        expr = rf"Shape.fold 1 1 plus ((\d. {doubled}) (\t. glue t t))"
        report, code = run(["eval", str(CORPUS / "mixed.qk"), "-e", expr])
        assert code == 0
        assert report["checks"] == [{"name": "eval", "status": "pass", "detail": "33554432"}]

    @pytest.mark.parametrize(
        "expr, detail",
        [
            ("leaf 3", "leaf expects a value of Bool, got 3"),
            ("node true circle circle", "node expects a value of Nat, got true"),
            ("Tagged.node (1, 2) circle circle", "node expects a value of Nat, got (1, 2)"),
        ],
    )
    def test_constructors_check_their_constant_arguments(self, expr, detail):
        report, code = run(["eval", str(CORPUS / "mixed.qk"), "-e", expr])
        assert code == 1
        assert report["checks"] == [{"name": "eval", "status": "fail", "detail": detail}]

    @pytest.mark.parametrize(
        "expr, detail",
        [
            ("a (1, true)", None),
            ("a (true, 1)", "a expects a value of Nat * Bool, got (true, 1)"),
            ("b (inl 3)", None),
            ("b (inr ())", None),
            ("b (inr 3)", "b expects a value of Nat + Unit, got inr 3"),
            (r"c (\x. 3)", None),
            ("c 3", "c expects a value of Bool -> Nat, got 3"),
            ("d ()", None),
            ("d false", "d expects a value of Unit, got false"),
        ],
    )
    def test_constant_arguments_are_checked_by_shape(self, tmp_path, expr, detail):
        p = tmp_path / "consts.qk"
        p.write_text("free type A ::= a(Nat * Bool) | b(Nat + Unit) | c(Bool -> Nat) | d(Unit) | s(A)\n")
        report, code = run(["eval", str(p), "-e", expr])
        assert code == (0 if detail is None else 1)
        if detail is not None:
            assert report["checks"] == [{"name": "eval", "status": "fail", "detail": detail}]

    @pytest.mark.parametrize(
        "path, expr, detail",
        [
            ("lists.qk", "cons 1 2", "cons expects a value of List, got 2"),
            ("mixed.qk", "glue circle true", "glue expects a value of Shape, got true"),
            ("mixed.qk", "node 0 (leaf true) (0, 1)", "node expects a value of Tagged, got (0, 1)"),
        ],
    )
    def test_constructors_check_their_recursive_arguments_are_trees(self, path, expr, detail):
        report, code = run(["eval", str(CORPUS / path), "-e", expr])
        assert code == 1
        assert report["checks"] == [{"name": "eval", "status": "fail", "detail": detail}]


class TestCheck:
    def test_all_suites_pass(self, both_file):
        report, code = run(["check", both_file])
        assert code == 0
        names = [c["name"] for c in report["checks"]]
        assert any(n.startswith("initial.List") for n in names)
        assert any(n.startswith("final.Proc") for n in names)
        assert any(n.startswith("cpo.") for n in names)
        assert names == sorted(names)

    def test_suite_selector(self, both_file):
        report, _ = run(["check", both_file, "--suite", "initial"])
        assert all(c["name"].startswith("initial.") for c in report["checks"])

    def test_template_only_file_runs_cpo_checks(self, tmp_path):
        p = tmp_path / "tmpl.qk"
        p.write_text("free type List a ::= nil | cons(a; List a)\n")
        report, code = run(["check", str(p)])
        assert code == 0
        names = [c["name"] for c in report["checks"]]
        assert names and all(n.startswith("cpo.") for n in names)

    def test_unstabilised_lfp_keeps_the_minimality_check(self):
        # at chain bound 1 the factorial iteration cannot settle, so there is
        # no fixed point whose minimality could be tested
        argv = ["check", str(CORPUS / "naturals.qk"), "--suite", "cpo"]
        names = [c["name"] for c in run(argv)[0]["checks"]]
        report, code = run([*argv, "--chain-bound", "1"])
        assert code == 1
        checks = {c["name"]: (c["status"], c["detail"]) for c in report["checks"]}
        assert sorted(checks) == names
        assert checks["cpo.lfp-factorial"] == ("fail", "no fixed point within 1 iterations")
        assert checks["cpo.lfp-minimality"] == (
            "skip", "no fixed point to test: no fixed point within 1 iterations"
        )


class TestLab:
    def test_spap_regularity_counterexample(self):
        report, code = run(["lab", "spap"])
        assert code == 0
        entry = {c["name"]: c for c in report["checks"]}[
            "lab.spap.zero-to-one-not-regular"
        ]
        assert entry["status"] == "pass"
        assert "family=[[]]" in entry["detail"]

    def test_mtypes(self):
        report, code = run(["lab", "mtypes"])
        assert code == 0
        entry = {c["name"]: c for c in report["checks"]}["lab.mtypes.counterexample"]
        assert "|P_q(1_0)|=0" in entry["detail"]

    def test_rere(self):
        report, code = run(["lab", "rere"])
        assert code == 0


class TestReportShape:
    def test_deterministic_given_flags(self, both_file):
        r1, _ = run(["check", both_file, "--seed", "3"])
        r2, _ = run(["check", both_file, "--seed", "3"])
        r1.pop("elapsed_ms")
        r2.pop("elapsed_ms")
        assert r1 == r2

    def test_config_echoed(self, list_file):
        report, _ = run(
            ["eval", list_file, "-e", "fold 0 plus []", "--fuel", "777", "--seed", "9"]
        )
        assert report["command"] == "eval"
        assert report["config"]["fuel"] == 777
        assert report["config"]["seed"] == 9

    def test_json_rendering(self, list_file, capsys):
        code = main(["eval", list_file, "-e", "fold 0 plus [2]", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"][0]["detail"] == "2"

    def test_module_entry_point(self, list_file):
        proc = subprocess.run(
            [sys.executable, "-m", "quasikernel.cli", "eval", list_file, "-e", "suc 4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "5" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr


class TestParser:
    def test_built_once_per_process(self, list_file, monkeypatch):
        run(["eval", list_file, "-e", "suc 1"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        run(["eval", list_file, "-e", "suc 1"])
        run(["lab", "mtypes"])
        assert built == []

    def test_no_state_carries_over(self, list_file):
        report, _ = run(
            ["check", list_file, "--suite", "cpo", "--seed", "5", "--obs-depth", "2",
             "--chain-bound", "8", "--fuel", "99", "--format", "json"]
        )
        assert report["config"] == {
            "fuel": 99, "obs_depth": 2, "chain_bound": 8, "seed": 5, "format": "json"
        }
        assert all(c["name"].startswith("cpo.") for c in report["checks"])
        report, _ = run(["eval", list_file, "-e", "suc 1"])
        assert report["config"] == {
            "fuel": 10000, "obs_depth": 4, "chain_bound": 32, "seed": 0, "format": "text"
        }
        report, code = run(["check", list_file])
        assert code == 0
        prefixes = {c["name"].split(".")[0] for c in report["checks"]}
        assert prefixes == {"initial", "cpo"}

    @pytest.mark.parametrize(
        "flag, depth",
        [("--obs-depth", "0"), ("--obs-depth", "-1"), ("--chain-bound", "0"), ("--chain-bound", "-2")],
        ids=["0", "-1", "chain-bound-0", "chain-bound--2"],
    )
    def test_obs_depth_below_one_is_rejected(self, list_file, flag, depth, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["check", list_file, flag, depth, "--suite", "initial"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"{flag}: must be at least 1" in err

    def test_bad_argument_then_valid_call(self):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                run(["lab", "nope"])
            assert exc.value.code == 2
        report, code = run(["lab", "mtypes"])
        assert code == 0
        assert report["config"]["seed"] == 0


# Runs one command in a fresh interpreter and prints the modules it loaded.
FOOTPRINT_SCRIPT = """
import json, sys
from quasikernel import cli
cli.run(json.loads(sys.argv[1]))
print(json.dumps(sorted(sys.modules)))
"""

PACKAGE_SCRIPT = """
import sys
import quasikernel
assert "quasikernel.cpo" not in sys.modules
assert quasikernel.cpo.flat_cpo
assert {"cpo", "kernel", "surface"} <= set(dir(quasikernel))
ns = {}
exec("from quasikernel import *", ns)
assert all(ns[name] is sys.modules["quasikernel." + name] for name in quasikernel.__all__)
assert not hasattr(quasikernel, "nope")
print("ok")
"""


def run_fresh(script: str, *args: str) -> str:
    """Standard output of ``script`` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env={"PYTHONPATH": src}
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestImportFootprint:
    """Each command loads only the modules it runs."""

    SUITES = {"quasikernel.checks", "quasikernel.cpo", "quasikernel.lab"}

    def loaded(self, *argv: str) -> set[str]:
        return set(json.loads(run_fresh(FOOTPRINT_SCRIPT, json.dumps(argv))))

    @pytest.mark.parametrize(
        "argv",
        [["eval", str(CORPUS / "lists.qk"), "-e", "fold 0 plus [2,3]"], ["elaborate", str(CORPUS / "mixed.qk")]],
        ids=["eval", "elaborate"],
    )
    def test_file_commands_load_no_suites_and_no_dataclasses(self, argv):
        loaded = self.loaded(*argv)
        assert "quasikernel.surface" in loaded
        assert not loaded & self.SUITES
        assert "dataclasses" not in loaded and "inspect" not in loaded

    def test_lab_does_not_load_surface(self):
        # the lab certifies its own sweeps: no suite, functor or tree module
        loaded = self.loaded("lab", "rere")
        assert "quasikernel.lab" in loaded
        assert not loaded & {"quasikernel.checks", "quasikernel.functors", "quasikernel.initial"}
        assert "quasikernel.surface" not in loaded
        assert "dataclasses" not in loaded and "inspect" not in loaded

    def test_check_loads_the_suites_it_runs(self):
        loaded = self.loaded("check", str(CORPUS / "naturals.qk"), "--suite", "all")
        assert {"quasikernel.surface", "quasikernel.checks", "quasikernel.cpo"} <= loaded
        assert "dataclasses" not in loaded and "inspect" not in loaded
        loaded = self.loaded("check", str(CORPUS / "naturals.qk"), "--suite", "initial")
        assert "quasikernel.checks" in loaded and "quasikernel.cpo" not in loaded

    def test_package_loads_modules_on_first_access(self):
        assert run_fresh(PACKAGE_SCRIPT) == "ok\n"
