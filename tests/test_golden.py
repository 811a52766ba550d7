"""CLI reports on the corpus, replayed against a recorded copy.

``tests/golden/cli.json`` holds, for each command below, the ``cli.run``
report without its ``elapsed_ms`` field and the exit code. A refactor that
is meant to keep behaviour must leave every entry unchanged. To record the
file again after an intended change of output, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import os
from pathlib import Path

import pytest

from quasikernel.cli import run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli.json"


def _commands() -> list[list[str]]:
    cmds = [["elaborate", f"corpus/{f}.qk"] for f in ("lists", "mixed", "naturals", "processes")]
    for f in ("lists", "naturals", "processes"):
        for depth in range(2, 6):
            for seed in (0, 1):
                cmds.append(["check", f"corpus/{f}.qk", "--obs-depth", str(depth), "--seed", str(seed)])
    for depth in (2, 3):
        cmds.append(["check", "corpus/mixed.qk", "--obs-depth", str(depth)])
    cmds.append(["check", "corpus/naturals.qk", "--suite", "cpo"])
    cmds.extend(["lab", which] for which in ("rere", "spap", "mtypes"))
    for expr in ("nine", "doubled", "fold 0 plus [1,2,3]", "[1,2]", "zork"):
        cmds.append(["eval", "corpus/lists.qk", "-e", expr])
    return cmds


def _replay(argv: list[str]) -> dict:
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        report, code = run(argv)
    finally:
        os.chdir(cwd)
    del report["elapsed_ms"]
    return {"argv": argv, "code": code, "report": report}


def _recorded() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return {" ".join(e["argv"]): e for e in json.load(fh)}


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_report_matches_recording(argv):
    assert _replay(argv) == _recorded()[" ".join(argv)]


def test_recording_covers_exactly_the_commands():
    assert sorted(_recorded()) == sorted(" ".join(a) for a in _commands())


if __name__ == "__main__":
    entries = [_replay(argv) for argv in _commands()]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} reports to {GOLDEN.relative_to(ROOT)}")
