"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import math
import os
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from quasikernel import cli, surface  # noqa: E402
from tracing import Tracer  # noqa: E402

SCRATCH = ROOT / ".perfbench" / "test"


def setUpModule():
    os.chdir(ROOT)  # operations name corpus files relative to the root


class ReferenceAnswers(unittest.TestCase):
    def test_wrong_eval_answer_is_flagged(self):
        right = wl.Op("fold-sum", ["eval", "corpus/lists.qk", "-e", "fold 0 plus [1,2,3]"], "6")
        wrong = wl.Op("fold-sum", right.argv, "7")
        self.assertIsNone(run.run_op(cli, right))
        failure = run.run_op(cli, wrong)
        self.assertIsNone(failure.exc)
        self.assertIn("expected", failure.reason)
        passes = [run.run_pass(cli, [right, wrong]) for _ in range(3)]
        self.assertEqual(run.latencies(passes)[1], math.inf)
        self.assertTrue(math.isfinite(run.latencies(passes)[0]))

    def test_failed_or_missing_check_is_flagged(self):
        op = wl.laboratory_ops(0)[0]
        report, _ = cli.run(op.argv)
        self.assertEqual(wl.judge(op, report), "")
        failed = dict(report, checks=[dict(c, status="fail") for c in report["checks"]])
        self.assertIn("not pass", wl.judge(op, failed))
        missing = dict(report, checks=report["checks"][1:])
        self.assertIn("missing", wl.judge(op, missing))

    def test_exception_is_recorded_with_its_class(self):
        op = wl.Op("deep-probe", ["eval", "corpus/lists.qk", "-e", wl.nested_suc(5)], "5")
        broken = wl.Op("bad", ["eval", "corpus/no-such-file.qk", "-e", "0"], "0")
        self.assertIsNone(run.run_op(cli, op))
        self.assertEqual(run.run_op(cli, broken).exc, "FileNotFoundError")

    def test_eval_references_match_on_short_lists(self):
        short = [op for op in wl.evaluate_ops(3) if op.kind != "deep-probe" and len(op.argv[3]) < 90]
        self.assertEqual({op.kind for op in short}, set(wl.EVAL_FAMILIES))
        for op in short:
            with self.subTest(expr=op.argv[3]):
                self.assertIsNone(run.run_op(cli, op))


class TreeCountRecurrence(unittest.TestCase):
    def test_matches_enumeration_on_corpus(self):
        for path in sorted((ROOT / "corpus").glob("*.qk")):
            source = path.read_text(encoding="utf-8")
            env = surface.elaborate(surface.parse(source))
            for decl in wl.read_decls(source):
                if not isinstance(decl, wl.FreeType):
                    continue
                handle = env.freetypes[decl.name].handle
                for depth in range(1, 4):
                    with self.subTest(file=path.name, type=decl.name, depth=depth):
                        self.assertEqual(
                            wl.tree_count(decl, depth), len(handle.enumerate_trees(depth))
                        )

    def test_known_counts(self):
        decls = {
            d.name: d
            for f in ("lists.qk", "mixed.qk")
            for d in wl.read_decls((ROOT / "corpus" / f).read_text(encoding="utf-8"))
        }
        self.assertEqual(wl.tree_count(decls["List"], 6), 63)
        self.assertEqual(wl.tree_count(decls["Tagged"], 3), 202)
        self.assertEqual(wl.tree_count(decls["Shape"], 4), 1446)


class Generator(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def _certify(self, seed: int, sub: str):
        gen = SCRATCH / sub
        ops = wl.certify_ops(seed, ROOT, gen)
        files = {p.name: p.read_text(encoding="utf-8") for p in sorted(gen.glob("*.qk"))}
        return [op.argv[2:] for op in ops], files

    def test_deterministic_for_a_seed(self):
        self.assertEqual(self._certify(5, "a"), self._certify(5, "b"))
        self.assertNotEqual(self._certify(5, "a"), self._certify(6, "a"))
        for make in (wl.evaluate_ops, wl.laboratory_ops):
            self.assertEqual([o.argv for o in make(5)], [o.argv for o in make(5)])
            self.assertNotEqual([o.argv for o in make(5)], [o.argv for o in make(6)])

    def test_generated_declarations_round_trip_and_elaborate(self):
        ops = wl.certify_ops(1, ROOT, SCRATCH / "a")
        for path in sorted((SCRATCH / "a").glob("*.qk")):
            source = path.read_text(encoding="utf-8")
            (decl,) = wl.read_decls(source)
            self.assertEqual(decl.text() + "\n", source)
            env = surface.elaborate(surface.parse(source))
            installed = env.freetypes if isinstance(decl, wl.FreeType) else env.cotypes
            self.assertIn(decl.name, installed)
        capped = [op for op in ops if op.note]
        self.assertTrue(capped)
        for op in capped:
            self.assertIn("capped", op.note)


class Tracing(unittest.TestCase):
    def test_counts_spans_and_restores_originals(self):
        from quasikernel import checks, initial, kernel

        before = (kernel.eq_strong, checks.eq_strong, vars(initial.InitialAlgebra)["destruct"])
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(checks.eq_strong, before[1])
            report, _ = cli.run(["check", "corpus/lists.qk", "--obs-depth", "3"])
        finally:
            tracer.uninstall()
        self.assertEqual(
            before, (kernel.eq_strong, checks.eq_strong, vars(initial.InitialAlgebra)["destruct"])
        )
        self.assertEqual(tracer.counts["initial.trees_enumerated"], 7)
        self.assertEqual(tracer.stat("cli.run")[0], 1)
        self.assertGreater(tracer.stat("initial.destruct")[0], 0)
        self.assertGreater(tracer.destruct_misses, 0)
        self.assertEqual(tracer.stat("lab.is_coarse"), (0, 0.0))


if __name__ == "__main__":
    unittest.main()
