"""Benchmark for quasikernel: one closed-loop client, in-process.

    python3 perfbench/run.py --workload certify|evaluate|laboratory \\
        --seed N --seconds S --trace 0|1

Each operation is one call to ``quasikernel.cli.run(argv)`` on an argv
generated from the seed (see workloads.py); the next starts when the
previous returns.  Every answer is checked against the benchmark's own
reference.  The timed phase repeats whole passes over the workload's
operation list until ``--seconds`` have elapsed; each op's time is its
fastest over the passes (see ``per_op``).  perfbench/README.md defines
every metric and says why each workload was chosen.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a run that alternates untraced and traced passes; the metric
names and units come from BENCHMARK.json.  Human-readable lines come first;
the last line of standard output is one JSON object.  Spans of the traced
run are written to .perfbench/spans-<workload>.tsv.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_SAMPLES = 7  # one after each of the first passes, the rest at the end
TAIL_BEYOND = 10  # samples beyond the reported tail percentile

# Times are scaled to a reference host speed: the speed at which the loop
# below, run between ops, takes REF_LOOP_S (a fast pass median on the 2-vCPU
# host the benchmark was written on).  That host slowed down by
# up to 1.5x for minutes at a time; over 150 s, the 10 s minima of one
# `check` op varied by 15% (coefficient of variation) and the same minima
# divided by the loop's time by 6%.  Raw times are printed beside.
REF_LOOP = 100_000
REF_LOOP_S = 0.0081



def reference_loop() -> float:
    """Seconds the reference loop takes now; the host speed is REF_LOOP_S / this."""
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_LOOP):
        x += i * i % 7
    return time.perf_counter() - t0


# Runs in a fresh interpreter: import quasikernel, run the warm-up command,
# then time the reference loop.
SETUP_CHILD = r"""
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
from quasikernel import cli
report, _ = cli.run(json.loads(sys.argv[1]))
elapsed = time.perf_counter() - t0
sys.path.insert(0, "perfbench")
from run import reference_loop
print(json.dumps({"elapsed": elapsed, "loop": reference_loop(), "report": report}))
"""


def make_ops(workload: str, seed: int) -> list[wl.Op]:
    if workload == "certify":
        return wl.certify_ops(seed, ROOT, OUT / "gen")
    if workload == "evaluate":
        return wl.evaluate_ops(seed)
    return wl.laboratory_ops(seed)


@dataclass
class Failure:
    op: wl.Op
    reason: str
    exc: str | None  # exception class, or None for a wrong answer


@dataclass
class Pass:
    wall: float
    elapsed: list[float] = field(default_factory=list)  # per op, seconds
    cpu: list[float] = field(default_factory=list)  # per op, user + system seconds
    ok: list[bool] = field(default_factory=list)
    failures: list[Failure] = field(default_factory=list)
    loop: list[float] = field(default_factory=list)  # reference loop before each op

    @property
    def speed(self) -> float:
        """Host speed during the pass, relative to the reference speed."""
        return REF_LOOP_S / statistics.median(self.loop)

    def scaled(self, column: str) -> list[float]:
        return [x * self.speed for x in getattr(self, column)]


def run_op(cli, op: wl.Op) -> Failure | None:
    try:
        report, _code = cli.run(op.argv)
    except Exception as e:  # a crash fails this op; the run goes on
        return Failure(op, f"{type(e).__name__}: {str(e)[:120]}", type(e).__name__)
    wrong = wl.judge(op, report)
    return Failure(op, wrong, None) if wrong else None


def run_pass(cli, ops: list[wl.Op], tracer: Tracer | None = None) -> Pass:
    result = Pass(0.0)
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.request += 1
        # Each op starts from a collected heap, as a CLI command starts in a
        # fresh process; otherwise the previous ops' garbage, which depends
        # on the seeded order, moves peak_rss_mb and the GC pauses.
        gc.collect()
        result.loop.append(reference_loop())
        w0, c0 = time.perf_counter(), time.process_time()
        failure = run_op(cli, op)
        result.elapsed.append(time.perf_counter() - w0)
        result.cpu.append(time.process_time() - c0)
        result.ok.append(failure is None)
        if failure is not None:
            result.failures.append(failure)
    result.wall = time.perf_counter() - start
    return result


def setup_sample(op: wl.Op) -> tuple[float, str]:
    """Fresh-process time to import quasikernel and finish the warm-up op."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, json.dumps(op.argv)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-400:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["elapsed"] * REF_LOOP_S / out["loop"], wl.judge(op, out["report"])


def per_op(passes: list[Pass], column: str) -> list[float]:
    """Each op's fastest scaled time over the run's passes.

    The host has slow spells of seconds (a fixed pure-Python loop was
    measured at 0.129-0.203 s within one minute) and other tenants'
    load that comes and goes.  Over eight 30 s certify runs, two of them
    beside another run, a pass rebuilt from per-op minima spread 9%
    (quartile distance over median) where per-op medians and the median
    pass spread 18-19%.
    """
    return [min(col) for col in zip(*(p.scaled(column) for p in passes))]


def latencies(passes: list[Pass]) -> list[float]:
    """Per-op latency in seconds (see per_op); an op that failed counts as infinite."""
    return [
        min(elapsed) if all(ok) else math.inf
        for elapsed, ok in zip(zip(*(p.scaled("elapsed") for p in passes)), zip(*(p.ok for p in passes)))
    ]


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, tuple[float, str]]:
    """metric -> (value, sample-count note)."""
    n_ops, n_passes = len(passes[0].elapsed), len(passes)
    samples = f"{n_ops} ops x {n_passes} passes"
    wall = sum(per_op(passes, "elapsed"))
    lat = sorted(latencies(passes))
    attempted = n_ops * n_passes
    failed = sum(len(p.failures) for p in passes)
    level = 100.0 * (n_ops - TAIL_BEYOND) / n_ops
    return {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh processes"),
        "wall_s": (wall, f"one pass: sum of per-op minima, {samples}"),
        "cpu_s": (sum(per_op(passes, "cpu")), f"one pass: sum of per-op minima, {samples}"),
        "ops_per_s": ((attempted - failed) / n_passes / wall, f"correct ops per pass / wall_s, {samples}"),
        "op_p50_ms": (1000 * statistics.median(lat), f"median over ops, {samples}"),
        "op_tail_ms": (
            1000 * lat[n_ops - TAIL_BEYOND - 1],
            f"p{level:.1f} over ops ({TAIL_BEYOND} ops beyond), {samples}",
        ),
        "fail_share": (failed / attempted, f"{failed} of {attempted} ops"),
        "raw_wall_s": (
            sum(min(col) for col in zip(*(p.elapsed for p in passes))),
            "wall_s before scaling",
        ),
        "host_speed": (
            statistics.median(p.speed for p in passes),
            f"median over passes of {REF_LOOP_S * 1000:g} ms / reference-loop time",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ru_maxrss of this process",
        ),
    }


def per_layer(tracer: Tracer, traced: list[Pass], plain: list[Pass]) -> dict[str, tuple[float, str]]:
    """metric -> (value per traced pass, note)."""
    n = len(traced)
    note = f"per pass, mean of {n} traced passes"
    out: dict[str, tuple[float, str]] = {}
    overhead = sum(per_op(traced, "elapsed")) - sum(per_op(plain, "elapsed"))
    out["trace.overhead_s"] = (overhead, f"traced minus untraced wall_s, {n}+{len(plain)} passes")
    destructs = tracer.stat("initial.destruct")[0]
    out["initial.destruct.miss_ratio"] = (
        tracer.destruct_misses / destructs if destructs else 0.0,
        f"{tracer.destruct_misses} of {destructs} destruct spans have a sel child",
    )
    for name, total in tracer.counts.items():
        out[name] = (total / n, note)
    for span in tracer.names:
        calls, self_s = tracer.stat(span)
        out[f"{span}.calls"] = (calls / n, note)
        out[f"{span}.self_s"] = (self_s / n, note)
    return out


def timed_run(cli, ops: list[wl.Op], warmup: wl.Op, seconds: float):
    """Passes until their time reaches ``seconds``; set-up samples between them."""
    passes, setup, wrong = [], [], []

    def sample_setup():
        elapsed, reason = setup_sample(warmup)
        setup.append(elapsed)
        if reason:
            wrong.append(Failure(warmup, reason, None))

    while not passes or sum(p.wall for p in passes) < seconds:
        passes.append(run_pass(cli, ops))
        if len(setup) < SETUP_SAMPLES:
            sample_setup()
    while len(setup) < SETUP_SAMPLES:
        sample_setup()
    return passes, setup, wrong


def traced_run(cli, ops: list[wl.Op], seconds: float) -> tuple[Tracer, list[Pass], list[Pass]]:
    """Untraced and traced passes, alternating, until ``seconds`` have elapsed."""
    tracer = Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(run_pass(cli, ops))
        tracer.install()
        try:
            traced.append(run_pass(cli, ops, tracer))
        finally:
            tracer.uninstall()
    return tracer, plain, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["certify", "evaluate", "laboratory"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "quasikernel" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"perfbench: no quasikernel sources under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from quasikernel import cli

    ops = make_ops(args.workload, args.seed)
    warmup = wl.warmup_op(args.workload, ROOT)
    warm_failure = run_op(cli, warmup)
    failures = [warm_failure] if warm_failure else []

    print(f"workload {args.workload}  seed {args.seed}  {len(ops)} ops per pass  "
          f"kinds {dict(sorted(Counter(op.kind for op in ops).items()))}")
    for op in ops:
        if op.note:
            print(f"  obs-depth cap  {op.argv[1]}: {op.note}")

    trees_ok = True
    if args.trace:
        tracer, plain, passes = traced_run(cli, ops, args.seconds)
        values = per_layer(tracer, passes, plain)
        expected = sum(op.trees for op in ops)
        got = values["initial.trees_enumerated"][0]
        trees_ok = got == expected
        print(f"  trees enumerated per pass {got:g}, recurrence T(d) gives {expected}"
              f"  {'ok' if trees_ok else 'MISMATCH'}")
        kept = tracer.write_spans(OUT / f"spans-{args.workload}.tsv")
        print(f"  spans kept {kept}, dropped over cap {tracer.dropped}")
    else:
        passes, setup, setup_wrong = timed_run(cli, ops, warmup, args.seconds)
        failures += setup_wrong
        values = end_to_end(passes, setup)

    failures += [f for p in passes for f in p.failures]
    attempted = sum(len(p.ok) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    by_class: dict[tuple[str, str], list[Failure]] = {}
    for f in failures:
        by_class.setdefault((f.op.kind, f.exc or "wrong answer"), []).append(f)
    for (kind, what), group in sorted(by_class.items()):
        print(f"  failed {len(group):5d} x {kind}: {what}, e.g. "
              f"{' '.join(group[0].op.argv)[:60]}... -> {group[0].reason[:100]}")
    wrong = [f for f in failures if f.exc is None]

    metrics = {}
    for m in wanted:
        value, note = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<42} {value:>14.6g} {m['unit']:<6} {note}")
    for name, (value, note) in values.items():
        if name not in metrics:
            print(f"  {name:<42} {value:>14.6g} {'':<6} {note}  (not in BENCHMARK.json)")
    print(json.dumps({
        "correct": not wrong and trees_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
