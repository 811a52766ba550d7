"""Run perfbench/run.py on two commits in pairs and record every run.

    python3 scripts/bench_pairs.py --parent REV --change REV \\
        --workload laboratory --seeds 901-910 --out BENCH_7.json --round final

Each commit is exported with ``git archive`` into .bench_build/<sha>, so a
run sees only committed files.  Pair i runs the parent first when i is even
and the change first when it is odd.  Every run's JSON line is appended to
the round named by ``--round`` in ``--out`` with its argv, seed and commit,
and the round's summary for the workload is recomputed from all its runs:
per metric, each side's median and quartiles, the change in percent and how
many pairs the change won.  Other rounds and top-level fields are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"


def rev_parse(rev: str) -> str:
    return subprocess.run(
        ["git", "rev-parse", rev], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def checkout(sha: str) -> Path:
    """A fresh export of the commit's tree, made once."""
    target = BUILD / sha
    if not target.is_dir():
        target.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", str(target)], input=archive.stdout, check=True)
    return target


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(tree: Path, argv: list[str]) -> dict:
    out = subprocess.run(argv, cwd=tree, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return q1, statistics.median(xs), q3


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    sides = {s: {r["seed"]: r["result"] for r in runs if r["side"] == s} for s in ("parent", "change")}
    seeds = sorted(set(sides["parent"]) & set(sides["change"]))
    metrics = {}
    for name in sides["parent"][seeds[0]]["metrics"]:
        value = {s: [sides[s][k]["metrics"][name]["value"] for k in seeds] for s in sides}
        p1, pm, p3 = quartiles(value["parent"])
        c1, cm, c3 = quartiles(value["change"])
        lower = better.get(name, "lower") == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(value["parent"], value["change"]))
        metrics[name] = {
            "parent_median": round(pm, 5), "parent_q1": round(p1, 5), "parent_q3": round(p3, 5),
            "change_median": round(cm, 5), "change_q1": round(c1, 5), "change_q3": round(c3, 5),
            "change_pct": round(100 * (cm - pm) / pm, 1) if pm else None,
            "change_wins": f"{wins}/{len(seeds)}",
        }
    return {
        "pairs": len(seeds),
        "seeds": seeds,
        "metrics": metrics,
        "failed_attempted_correct": {
            s: [[k, sides[s][k].get("failed"), sides[s][k].get("attempted"), sides[s][k].get("correct")]
                for k in seeds]
            for s in sides
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="N or LO-HI")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out", required=True)
    ap.add_argument("--round", default="final")
    args = ap.parse_args(argv)

    commits = {"parent": rev_parse(args.parent), "change": rev_parse(args.change)}
    trees = {side: checkout(sha) for side, sha in commits.items()}
    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc.setdefault("parent_commit", commits["parent"])
    doc.setdefault("change_commit", commits["change"])
    rounds = doc.setdefault("rounds", [])
    rnd = next((r for r in rounds if r["name"] == args.round), None)
    if rnd is None:
        rnd = {"name": args.round, "change_commit": commits["change"], "summary": {}, "runs": []}
        rounds.append(rnd)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    for i, seed in enumerate(seeds_of(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            cmd = ["python3", "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            result = run_once(trees[side], cmd)
            rnd["runs"].append({
                "side": side, "commit": commits[side], "argv": cmd, "seed": seed,
                "order": " ".join(order), "result": result,
            })
            wall = result["metrics"].get("wall_s", {}).get("value")
            print(f"{args.workload} seed {seed} {side}: wall_s {wall}", file=sys.stderr, flush=True)
        key = args.workload if args.trace == "0" else f"{args.workload} traced"
        runs = [r for r in rnd["runs"] if r["argv"][3] == args.workload and r["argv"][-1] == args.trace]
        rnd["summary"][key] = summarize(runs, better)
        out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
