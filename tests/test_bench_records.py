"""Every committed ``BENCH_*.json`` has the shape ``scripts/bench_pairs.py``
writes, so that one reader serves all of them.

A record names the parent and change commits and holds rounds; a round
has a name, its change commit, its runs and a summary per workload; a run
says which side it timed, at which seed, and what ``perfbench/run.py``
printed.  Older records may carry more fields (``claim``, ``rows_moved``),
and a round of a revision that history does not keep has a ``note`` in
place of its change commit.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(re.sub(r"\D", "", p.stem)))
COMMIT = re.compile(r"[0-9a-f]{40}")


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_has_the_bench_pairs_shape(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert COMMIT.fullmatch(doc["parent_commit"]), doc["parent_commit"]
    assert COMMIT.fullmatch(doc["change_commit"]), doc["change_commit"]
    assert isinstance(doc["rounds"], list) and doc["rounds"]
    names = [r["name"] for r in doc["rounds"]]
    assert len(set(names)) == len(names), names
    for rnd in doc["rounds"]:
        assert isinstance(rnd["name"], str) and rnd["name"]
        # a revision that history does not keep has no commit, and says so
        if rnd["change_commit"] is None:
            assert rnd["note"]
        else:
            assert COMMIT.fullmatch(rnd["change_commit"]), rnd["change_commit"]
        assert isinstance(rnd["summary"], dict)
        assert isinstance(rnd["runs"], list) and rnd["runs"]
        for run in rnd["runs"]:
            assert run["side"] in ("parent", "change"), run["side"]
            assert isinstance(run["seed"], int)
            assert isinstance(run["result"], dict) and "metrics" in run["result"]
