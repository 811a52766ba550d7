"""The mutant table: one-function mutants of the tree handle, each a
monkeypatch, and the exact set of checks that ``check --suite initial``
fails under each, on the corpus files at obs-depth 2 and 3.

A check that fails under no mutant that another check misses adds nothing
to the verdict; a mutant that no check fails is a gap in the suite.  The
sets are pinned exactly, so a change to the suite that loses or gains a
killed mutant shows here.  Mutation analysis follows DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer, 1978.
"""

import inspect
import os
import re
import textwrap

import pytest

from quasikernel import initial
from quasikernel.cli import run
from quasikernel.initial import InitialAlgebra, tree_anchor
from quasikernel.kernel import PairV, enumerate_ty

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")

_destruct, _sel, _f = InitialAlgebra.destruct, InitialAlgebra.sel, InitialAlgebra._f


def _reversed_f(self, trees, algebra):
    """A walk that hands each algebra its results reversed."""
    return _f(self, trees, [lambda w, rs, a=a: a(w, rs[::-1]) for a in algebra])


def _dropped_param_f(self, trees, algebra):
    """A walk that hands each algebra its summand's first parameter, not
    the node's."""
    firsts = [enumerate_ty(a, 2)[0] for a, _ in self.nf.summands]
    return _f(self, trees, [lambda w, rs, a=a, w0=w0: a(w0, rs) for a, w0 in zip(algebra, firsts)])


def _sel_keeps_anchor(self, j, t):
    """A selector that gives every subtree the tree's anchor, not the
    parameter of its own leftmost leaf."""
    sub = _sel(self, j, t)
    return PairV(sub.fst, PairV(sub.snd.fst, tree_anchor(t)))


def _memo_blind_f():
    """The walk with its memo keyed by a node's label table less the
    parameter slot, made from the source of ``_f`` itself: nodes that
    differ only in their parameter share a result."""
    source = textwrap.dedent(inspect.getsource(_f))
    line = "key = t.fst"
    assert source.count(line) == 1
    scope: dict = {}
    blind = source.replace(line, "key = (t.fst.root, t.fst.children[1:])")
    exec(compile(blind, initial.__file__, "exec"), vars(initial), scope)
    return scope["_f"]


MUTANTS = {
    "f-reversed": ("_f", _reversed_f),
    "f-dropped-param": ("_f", _dropped_param_f),
    "destruct-reversed": (
        "destruct",
        lambda self, t: (lambda i, w, cs: (i, w, cs[::-1]))(*_destruct(self, t)),
    ),
    "sel-1": ("sel", lambda self, j, t: _sel(self, 1, t)),
    "sel-keeps-anchor": ("sel", _sel_keeps_anchor),
    "memo-blind": ("_f", _memo_blind_f()),
}

_READ_CHILDREN = ("fold-equation", "lambek", "membership")


def _both(*checks):
    return {f"initial.{name}.{c}" for name in ("Shape", "Tagged") for c in checks}


# (file, obs-depth) -> mutant -> the checks that fail; a mutant left out
# fails none
FAILED = {
    ("lists", 2): {
        "f-dropped-param": {"initial.List.fold-equation"},
        "memo-blind": {"initial.List.fold-equation"},
    },
    ("mixed", 2): {
        "f-reversed": _both("fold-equation"),
        "f-dropped-param": _both("fold-equation"),
        "destruct-reversed": _both(*_READ_CHILDREN),
        "sel-1": _both(*_READ_CHILDREN),
        # a second subtree is not the tree it was built from
        "sel-keeps-anchor": _both("fold-uniqueness"),
        "memo-blind": _both("fold-equation"),
    },
}
FAILED["lists", 3] = FAILED["lists", 2]
FAILED["mixed", 3] = {**FAILED["mixed", 2], "sel-1": _both(*_READ_CHILDREN, "depth-law")}


def _failed(path, depth):
    report, code = run(["check", path, "--suite", "initial", "--obs-depth", str(depth)])
    failed = {c["name"] for c in report["checks"] if c["status"] == "fail"}
    assert code == (1 if failed else 0)
    return failed, report


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("name", ["lists", "mixed"])
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_fails_exactly_its_checks(monkeypatch, mutant, name, depth):
    monkeypatch.setattr(InitialAlgebra, *MUTANTS[mutant])
    failed, report = _failed(os.path.join(CORPUS, f"{name}.qk"), depth)
    assert failed == FAILED[name, depth].get(mutant, set()), report["checks"]


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("name", ["lists", "mixed"])
def test_unmutated_passes(name, depth):
    assert _failed(os.path.join(CORPUS, f"{name}.qk"), depth)[0] == set()


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_failed_check_names_its_first_tree(monkeypatch, mutant):
    # a failed check names the first tree that fails, shallowest first, by
    # its summand and depth; a passing check has no detail
    monkeypatch.setattr(InitialAlgebra, *MUTANTS[mutant])
    failed, report = _failed(os.path.join(CORPUS, "mixed.qk"), 3)
    for c in report["checks"]:
        if c["name"] in failed:
            assert re.fullmatch(r"summand \d+ at depth \d+: .+", c["detail"]), c
        elif c["status"] == "pass":
            assert c["detail"] == "", c


def test_the_details_under_reversed_children(monkeypatch):
    monkeypatch.setattr(InitialAlgebra, *MUTANTS["destruct-reversed"])
    _, report = _failed(os.path.join(CORPUS, "mixed.qk"), 3)
    details = {c["name"]: c["detail"] for c in report["checks"]}
    assert details["initial.Shape.fold-equation"] == (
        "summand 1 at depth 2: its fold into the constructors is another tree"
    )
    assert details["initial.Shape.lambek"] == (
        "summand 1 at depth 2: the structure map of its inverse is another tree"
    )
    assert details["initial.Shape.membership"] == "summand 1 at depth 2: construct on its parts is another tree"

