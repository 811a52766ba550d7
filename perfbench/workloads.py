"""Seeded operations and reference answers for the benchmark workloads.

Every operation is one argv for ``quasikernel.cli.run`` plus the answer the
benchmark expects, computed here without the library: plain-Python
arithmetic for ``eval``, and for ``check`` and ``lab`` the set of check
names derived from the input, each expected to ``pass`` because each is
one of the paper's claims.

A *pass* is one workload's fixed list of operations; the timed phase
repeats whole passes.  Within a pass the seed changes values, generated
declarations and order, but not the list lengths or corpus obs-depths that
set most of the cost, so different seeds measure the same amount of work.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

# Cardinalities under ``enumerate_ty(..., nat_bound=2)``, the bound
# ``InitialAlgebra.enumerate_trees`` uses for constructor parameters.
ATOM_CARD = {"Unit": 1, "Bool": 2, "Nat": 2}

# Check names the cpo suite emits; fixed by the suite, not by the input.
CPO_CHECKS = (
    "cpo.lfp-factorial",
    "cpo.lfp-minimality",
    "cpo.order-axioms.(Bool() -/-> Nat)",
    "cpo.order-axioms.(vert + Nat)",
    "cpo.order-axioms.Bool",
    "cpo.order-axioms.Nat",
    "cpo.partial-chain-lemma",
    "cpo.sum-stability",
)
INITIAL_CHECKS = ("depth-law", "fold-equation", "fold-uniqueness", "lambek", "membership")
FINAL_CHECKS = ("bounded-uniqueness", "membership", "unfold-equation")
LAB_CHECKS = {
    "rere": (
        "lab.rere.coarse-iff-indiscrete",
        "lab.rere.nno-bounded-initiality",
        "lab.rere.nno-discrete-not-coarse",
        "lab.rere.nno-indiscrete-fails",
        "lab.rere.zero-to-one-regular",
    ),
    "spap": ("lab.spap.coproduct-not-disjoint", "lab.spap.zero-to-one-not-regular"),
    "mtypes": ("lab.mtypes.counterexample", "lab.mtypes.disjoint-fibers-agree"),
}

# Generated declarations are capped so that one op stays near 0.1 s: at
# most this many trees per free type, observation paths per cotype.
TREE_CAP = 40
PATH_CAP = 400


# ---------------------------------------------------------------------------
# Declarations, read and written independently of quasikernel.surface


@dataclass(frozen=True)
class Ctor:
    name: str
    params: tuple[str, ...]  # non-recursive argument types (atoms)
    k: int  # number of recursive arguments


@dataclass(frozen=True)
class FreeType:
    name: str
    ctors: tuple[Ctor, ...]

    def text(self) -> str:
        alts = []
        for c in self.ctors:
            args = list(c.params) + [self.name] * c.k
            alts.append(f"{c.name}({'; '.join(args)})" if args else c.name)
        return f"free type {self.name} ::= {' | '.join(alts)}"


@dataclass(frozen=True)
class Cotype:
    name: str
    # per coalternative: (constant selector types, recursive selector count)
    coalts: tuple[tuple[tuple[str, ...], int], ...]

    def text(self) -> str:
        parts = []
        for j, (consts, rec) in enumerate(self.coalts):
            groups = [f"o{j}{i}:? {ty}" for i, ty in enumerate(consts)]
            names = [f"r{j}{i}" for i in range(rec)]
            if rec == 1:
                groups.append(f"{names[0]}:? {self.name}")
            elif rec > 1:
                groups.append(f"{', '.join(names)}: {self.name}")
            parts.append(f"({'; '.join(groups)})")
        return f"cotype {self.name} ::= {' | '.join(parts)}"

    @property
    def branching(self) -> int:
        """Number of path labels: one per recursive selector."""
        return sum(rec for _, rec in self.coalts)


_DECL = re.compile(r"^(free type|cotype)\s+(\w+)\s*::=\s*(.*)$")
_ALT = re.compile(r"^(\w+)\s*(?:\((.*)\))?\s*(.*)$")


def read_decls(source: str) -> list[FreeType | Cotype]:
    """Parse the declaration forms the corpus uses (no templates)."""
    out: list[FreeType | Cotype] = []
    for line in source.splitlines():
        m = _DECL.match(line.strip())
        if not m:
            continue
        kind, name, body = m.groups()
        alts = [a.strip() for a in body.split("|")]
        if kind == "cotype":
            coalts = []
            for alt in alts:
                consts: list[str] = []
                rec = 0
                for group in alt.strip("()").split(";"):
                    names, ty = re.split(r":\??", group, maxsplit=1)
                    count = len(names.split(","))
                    if ty.strip() == name:
                        rec += count
                    else:
                        consts.extend([ty.strip()] * count)
                coalts.append((tuple(consts), rec))
            out.append(Cotype(name, tuple(coalts)))
            continue
        ctors = []
        for alt in alts:
            cname, inner, loose = _ALT.match(alt).groups()
            args = [a.strip() for a in inner.split(";")] if inner else loose.split()
            params = tuple(a for a in args if a != name)
            ctors.append(Ctor(cname, params, len(args) - len(params)))
        out.append(FreeType(name, tuple(ctors)))
    return out


def tree_count(ft: FreeType, depth: int) -> int:
    """T(d) = |A_0| + sum_i |A_i| * T(d-1)^k_i: carrier trees of depth <= d."""
    t = 0
    for _ in range(depth):
        t = sum(math.prod(ATOM_CARD[p] for p in c.params) * t**c.k for c in ft.ctors)
    return t


def path_count(ct: Cotype, depth: int) -> int:
    """Observation paths of length <= depth: sum of branching^i."""
    return sum(ct.branching**i for i in range(depth + 1))


def expected_check_names(decls: list[FreeType | Cotype]) -> set[str]:
    """The checks `check FILE` (suite all) reports for these declarations."""
    names = set(CPO_CHECKS)
    for d in decls:
        if isinstance(d, FreeType):
            names.update(f"initial.{d.name}.{c}" for c in INITIAL_CHECKS)
        else:
            names.update(f"final.{d.name}.{c}" for c in FINAL_CHECKS)
    return names


def depth_cap(decl: FreeType | Cotype, wanted: int) -> tuple[int, str]:
    """Largest obs-depth <= wanted (and >= 2) whose enumeration stays under the cap."""
    if isinstance(decl, FreeType):
        label, size, cap = "T", lambda d: tree_count(decl, d), TREE_CAP
    else:
        label, size, cap = "paths", lambda d: path_count(decl, d), PATH_CAP
    depth = wanted
    while depth > 2 and size(depth) > cap:
        depth -= 1
    if depth == wanted:
        return depth, ""
    return depth, f"capped {wanted}->{depth}: {label}_{decl.name}({depth + 1})={size(depth + 1)}>{cap}"


# ---------------------------------------------------------------------------
# Seeded declaration generator for `certify`

_CTOR_NAMES = ("nil", "leaf", "tip", "stop", "cons", "node", "glue", "fork", "wrap", "pair")

# Shapes of generated declarations.  A free type is a list of constructors
# (parameter types, recursive argument count); a cotype a list of
# coalternatives (constant selector types, recursive selector count).  The
# shapes run from list-like to binary branching and fix the work: a Bool
# parameter costs about 2.7x a Nat one, and the coalternative order decides
# which summand each coalgebra seed starts in.  The seed draws free-type
# constructor names and order, the requested obs-depth and each command
# seed, so every seed generates the same amount of work.
FREE_SHAPES = (
    (((), 0), (("Nat",), 1)),
    (((), 0), ((), 0), ((), 2)),
    ((("Bool",), 0), ((), 2)),
    (((), 0), ((), 1), (("Nat",), 1)),
    (((), 0), (("Bool",), 1), ((), 2)),
    ((("Bool",), 0), (("Nat",), 2)),
)
COTYPE_SHAPES = (
    ((("Bool",), 1), ((), 2)),
    (((), 3), (("Nat",), 0)),
    ((("Nat",), 2), (("Bool",), 1)),
    ((("Bool",), 1), ((), 2), (("Nat",), 0)),
    (((), 2), (("Bool",), 1), ((), 2)),
)
# Requested depths start above the deepest cap any shape reaches, so the
# tree and path caps, not the draw, set each op's obs-depth.
GEN_DEPTHS = (9, 10)


def gen_freetype(rng: random.Random, name: str, shape) -> FreeType:
    names = rng.sample(_CTOR_NAMES, len(shape))
    ctors = [Ctor(cname, params, k) for cname, (params, k) in zip(names, shape)]
    rng.shuffle(ctors)
    return FreeType(name, tuple(ctors))


# ---------------------------------------------------------------------------
# Operations


@dataclass
class Op:
    kind: str  # family label used in reports
    argv: list[str]
    expect_detail: str | None = None  # eval: the printed value
    expect_checks: set[str] = field(default_factory=set)  # check/lab: all pass
    trees: int = 0  # enumerate_trees results this op must produce
    note: str = ""  # obs-depth cap and its reason, when capped


def judge(op: Op, report: dict) -> str:
    """'' when the report is the reference answer, else what is wrong."""
    checks = report.get("checks", [])
    if op.expect_detail is not None:
        got = [(c["status"], c["detail"]) for c in checks]
        want = [("pass", op.expect_detail)]
        return "" if got == want else f"expected {want}, got {got}"
    names = {c["name"] for c in checks}
    if names != op.expect_checks:
        return f"check names differ: missing {sorted(op.expect_checks - names)}, extra {sorted(names - op.expect_checks)}"
    failed = sorted(c["name"] for c in checks if c["status"] != "pass")
    return f"not pass: {failed}" if failed else ""


def _check_op(path: str, decls, depth: int, seed: int, note: str = "") -> Op:
    kind = "check-cotype" if any(isinstance(d, Cotype) for d in decls) else "check-free"
    return Op(
        kind,
        ["check", path, "--obs-depth", str(depth), "--seed", str(seed)],
        expect_checks=expected_check_names(decls),
        trees=sum(tree_count(d, depth) for d in decls if isinstance(d, FreeType)),
        note=note,
    )


# Corpus files at obs-depths whose cost is known to stay under ~0.5 s.
# mixed.qk runs at depth 2 only: at the default depth 4 Shape alone runs
# minutes and Tagged enumerates 81,610 trees.
CORPUS_DEPTHS = {
    "lists.qk": (4, 5, 6),
    "naturals.qk": (4, 6, 8),
    "processes.qk": (4, 5, 6),
    "mixed.qk": (2,),
}
GEN_COPIES = 3  # generated declarations per shape in a pass


def certify_ops(seed: int, root: Path, gen_dir: Path) -> list[Op]:
    rng = random.Random(f"certify/{seed}")
    inputs = []  # (path, declarations, obs-depth, cap note)
    for fname, depths in CORPUS_DEPTHS.items():
        path = root / "corpus" / fname
        decls = read_decls(path.read_text(encoding="utf-8"))
        inputs.extend((path, decls, d, "") for d in depths)
    gen_dir.mkdir(parents=True, exist_ok=True)
    for copy in range(GEN_COPIES):
        generated = [gen_freetype(rng, f"G{j}", sh) for j, sh in enumerate(FREE_SHAPES)]
        generated += [Cotype(f"C{j}", sh) for j, sh in enumerate(COTYPE_SHAPES)]
        for decl in generated:
            path = gen_dir / f"{decl.name}_{copy}.qk"
            path.write_text(decl.text() + "\n", encoding="utf-8")
            depth, note = depth_cap(decl, rng.randint(*GEN_DEPTHS))
            inputs.append((path, [decl], depth, note))
    ops = []
    for slot, (path, decls, depth, note) in enumerate(inputs):
        # The final suite's canonical coalgebra depends on the seed only
        # modulo the number of coalternatives (2 or 3), and that residue
        # sets how many paths are defined; fixing it per slot keeps every
        # seed's pass the same amount of work.
        check_seed = 6 * rng.randrange(1000) + slot % 6
        ops.append(_check_op(str(path.relative_to(root)), decls, depth, check_seed, note))
    rng.shuffle(ops)
    return ops


# Cost grows about as n^3.5 in the list length: with every family at 40,
# the four length-40 ops took ~5.5 s of a ~7 s pass and a 30 s run got four
# passes.  So the families share a ladder up to 28, and the cheapest family,
# `fold 0 plus L`, also runs at 40.  The ladder is dense where the median op
# lies: with steps of 2 there, op_p50_ms jumped between 15 and 20 ms from
# run to run.  Lengths stop at 40 because one op at 60 takes ~6 s.
EVAL_LENGTHS = (4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 20, 28)
EVAL_LONGEST = ("fold-sum", 40)
EVAL_FAMILIES = {
    "fold-sum": ("fold 0 plus L", sum),
    "map-sum": (r"fold 0 plus (fold nil (\x. \r. cons (times 2 x) r) L)", lambda xs: 2 * sum(xs)),
    "primrec-len": (r"primrec 0 (\x. \t. \r. plus r 1) L", len),
    "case-head": (r"case 42 (\x. \l. x) L", lambda xs: xs[0] if xs else 42),
}
# Deep-nesting probes `suc (suc (... 0))`: two below and two above the
# depth (~500, a little more or less with the caller's own stack) at which
# a RecursionError escapes cli.run today, with a margin either side, so each
# pass shows that defect the same number of times whatever the seed.
PROBE_DEPTHS = ((100, 450), (100, 450), (550, 1000), (550, 1000))


def nested_suc(depth: int) -> str:
    return "suc (" * (depth - 1) + "suc 0" + ")" * (depth - 1)


def evaluate_ops(seed: int) -> list[Op]:
    rng = random.Random(f"evaluate/{seed}")
    ops = []
    cases = [(family, n) for family in EVAL_FAMILIES for n in EVAL_LENGTHS] + [EVAL_LONGEST]
    for family, n in cases:
        template, answer = EVAL_FAMILIES[family]
        xs = [rng.randrange(10) for _ in range(n)]
        expr = template.replace("L", "[" + ",".join(map(str, xs)) + "]")
        ops.append(Op(family, ["eval", "corpus/lists.qk", "-e", expr], str(answer(xs))))
    for lo, hi in PROBE_DEPTHS:
        depth = rng.randint(lo, hi)
        ops.append(Op("deep-probe", ["eval", "corpus/lists.qk", "-e", nested_suc(depth)], str(depth)))
    rng.shuffle(ops)
    return ops


LAB_MIX = {"rere": 4, "spap": 12, "mtypes": 12, "cpo": 12}


def laboratory_ops(seed: int) -> list[Op]:
    rng = random.Random(f"laboratory/{seed}")
    ops = []
    for which, count in LAB_MIX.items():
        for _ in range(count):
            s = str(rng.randrange(1000))
            if which == "cpo":
                argv = ["check", "corpus/naturals.qk", "--suite", "cpo", "--seed", s]
                ops.append(Op("check-cpo", argv, expect_checks=set(CPO_CHECKS)))
            else:
                ops.append(Op(f"lab-{which}", ["lab", which, "--seed", s], expect_checks=set(LAB_CHECKS[which])))
    rng.shuffle(ops)
    return ops


def warmup_op(workload: str, root: Path) -> Op:
    """The workload's first command: run once before timing, and timed by setup_s."""
    if workload == "certify":
        decls = read_decls((root / "corpus" / "lists.qk").read_text(encoding="utf-8"))
        return _check_op("corpus/lists.qk", decls, 4, 0)
    if workload == "evaluate":
        return Op("warmup", ["eval", "corpus/lists.qk", "-e", "fold 0 plus [2,3,4,5]"], "14")
    return Op("warmup", ["lab", "rere"], expect_checks=set(LAB_CHECKS["rere"]))
