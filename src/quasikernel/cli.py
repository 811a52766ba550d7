"""Command-line front end: elaborate, evaluate, check, and run the lab.

Each command imports what it runs: the file commands import ``surface``,
``check`` imports the suites (and with ``--suite cpo``/``all`` the cpo
module), and ``lab`` imports the lab, which certifies its own sweeps,
but neither ``surface`` nor the suites.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import kernel
from .kernel import Fuel, QuasiError, show_pval
from .report import CheckResult, check


def _at_least_1(text: str) -> int:
    """An ``--obs-depth`` or ``--chain-bound`` value: below 1 no tree is
    enumerated and no chain iterated, so no check would test anything."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--fuel", type=int, default=10000)
    p.add_argument("--obs-depth", type=_at_least_1, default=4)
    p.add_argument("--chain-bound", type=_at_least_1, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "text"], default="text")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's one parser, built on first use and shared by every later call.

    Sharing is safe because ``parse_args`` keeps nothing between calls: each
    returns a fresh ``Namespace`` filled from the immutable defaults below.
    """
    ap = argparse.ArgumentParser(prog="quasikernel")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("elaborate", help="install each declaration, print normal forms")
    p.add_argument("file")
    _common_flags(p)

    p = sub.add_parser("eval", help="evaluate an expression against a file")
    p.add_argument("file")
    p.add_argument("-e", "--expr", required=True)
    _common_flags(p)

    p = sub.add_parser("check", help="run bounded invariant suites for declared types")
    p.add_argument("file")
    p.add_argument(
        "--suite", choices=["initial", "final", "cpo", "all"], default="all"
    )
    _common_flags(p)

    p = sub.add_parser("lab", help="finite-category laboratory certifications")
    p.add_argument("which", choices=["rere", "spap", "mtypes"])
    _common_flags(p)
    return ap


def cmd_elaborate(args) -> list[CheckResult]:
    """One check per declaration, each declared as ``check`` and ``eval`` do;
    a failed declaration is left out and the rest are still declared."""
    from .surface import ElabEnv, LetDef, parse

    with open(args.file, encoding="utf-8") as fh:
        source = fh.read()
    try:
        decls = parse(source)
    except QuasiError as e:
        return [CheckResult("elaborate.parse", "fail", str(e))]
    env = ElabEnv(fuel_steps=args.fuel)
    out = []
    for d in decls:
        name = f"elaborate.let.{d.name}" if isinstance(d, LetDef) else f"elaborate.{d.name}"
        try:
            out.append(check(name, True, env.declare(d)))
        except QuasiError as e:
            out.append(CheckResult(name, "fail", str(e)))
    return out


def cmd_eval(args) -> list[CheckResult]:
    from .surface import elaborate, parse, parse_expr

    with open(args.file, encoding="utf-8") as fh:
        source = fh.read()
    try:
        env = elaborate(parse(source), fuel_steps=args.fuel)
        term = parse_expr(args.expr, [*env.freetypes, *env.cotypes])
        value = kernel.eval_term(term, env.terms, Fuel(args.fuel))
        return [check("eval", True, show_pval(value))]
    except QuasiError as e:
        return [CheckResult("eval", "fail", str(e))]


def cmd_check(args) -> list[CheckResult]:
    from .checks import CheckConfig, suite_cpo, suite_final, suite_initial
    from .surface import elaborate, parse

    with open(args.file, encoding="utf-8") as fh:
        source = fh.read()
    cfg = CheckConfig(obs_depth=args.obs_depth, chain_bound=args.chain_bound, seed=args.seed)
    try:
        env = elaborate(parse(source), fuel_steps=args.fuel)
    except QuasiError as e:
        return [CheckResult("check.elaborate", "fail", str(e))]
    out = []
    if args.suite in ("initial", "all"):
        for info in env.freetypes.values():
            out.extend(suite_initial(info, cfg))
    if args.suite in ("final", "all"):
        for info in env.cotypes.values():
            out.extend(suite_final(info, cfg))
    if args.suite in ("cpo", "all"):
        out.extend(suite_cpo(cfg))
    return out


def cmd_lab(args) -> list[CheckResult]:
    from .lab import certify

    return certify(args.which)


def run(argv=None) -> tuple[dict, int]:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    handler = {
        "elaborate": cmd_elaborate,
        "eval": cmd_eval,
        "check": cmd_check,
        "lab": cmd_lab,
    }[args.command]
    checks = sorted(handler(args), key=lambda c: c.name)
    elapsed = int((time.monotonic() - started) * 1000)
    report = {
        "command": args.command,
        "config": {
            "fuel": args.fuel,
            "obs_depth": args.obs_depth,
            "chain_bound": args.chain_bound,
            "seed": args.seed,
            "format": args.format,
        },
        "checks": [
            {"name": c.name, "status": c.status, "detail": c.detail} for c in checks
        ],
        "elapsed_ms": elapsed,
    }
    code = 0 if all(c.ok for c in checks) else 1
    return report, code


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2)
    lines = [f"{report['command']}  (elapsed {report['elapsed_ms']} ms)"]
    for c in report["checks"]:
        mark = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[c["status"]]
        detail = f"  {c['detail']}" if c["detail"] else ""
        lines.append(f"  {mark}  {c['name']}{detail}")
    return "\n".join(lines)


def main(argv=None) -> int:
    report, code = run(argv)
    print(render(report, report["config"]["format"]))
    return code


if __name__ == "__main__":
    sys.exit(main())
