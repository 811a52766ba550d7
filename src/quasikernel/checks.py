"""Reusable bounded verification helpers behind the check suites.

These quantify universal properties over finite enumerations: algebras
over small carriers, trees up to a depth bound, paths up to a length
bound.  The CLI assembles their outcomes into reports; the test suite
calls them directly.  The cpo suite imports its module when it runs, so
``check --suite initial`` does not load it.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Sequence

from .functors import PolyNF, ext_unvalue, inject, project
from .initial import InitialAlgebra, tree_depth, tree_parts
from .kernel import (
    FALSE,
    TRUE,
    UNDEF,
    Bool,
    InlV,
    Nat,
    PVal,
    QuasiError,
    Record,
    apply_pval,
    enumerate_ty,
    eq_strong,  # noqa: F401  not called; the benchmark's tracer test reads it
    finmap,
    nat,
    show_pval,
)
from .report import CheckResult, check


# ---------------------------------------------------------------------------
# Algebra enumeration over finite carriers


def _table_fn(table: dict):
    def call(w, results):
        return table[(w, tuple(results))]

    return call


def _algebra_domain(a_ty, k: int, carrier: Sequence[PVal]) -> list:
    """The inputs ``(w, children)`` of one summand's algebra function, with
    the parameter's naturals below 2, as ``enumerate_trees`` builds them."""
    return [
        (w, combo)
        for w in enumerate_ty(a_ty, 2)
        for combo in itertools.product(carrier, repeat=k)
    ]


def sample_algebras(
    nf: PolyNF, carrier: Sequence[PVal], count: int, rng: random.Random
) -> Iterator[list]:
    """Seeded random algebras, for signatures whose full space is too large."""
    domains = [_algebra_domain(a, k, carrier) for a, k in nf.summands]
    for _ in range(count):
        yield [_table_fn({key: rng.choice(carrier) for key in d}) for d in domains]


# ---------------------------------------------------------------------------
# Fold equation and uniqueness


def product_algebra(n: int, algebras: Sequence) -> list:
    """Summand i maps ``(w, rows)`` to the tuple of ``algebras[k][i]`` on
    column k of the rows, so a fold into it is the tuple of the folds into
    the algebras, made in one walk of the tree ("banana split")."""

    def summand(fs):
        empty = [()] * len(fs)
        return lambda w, rows: tuple([f(w, c) for f, c in zip(fs, zip(*rows) if rows else empty)])

    return [summand([a[i] for a in algebras]) for i in range(n)]


def fold_equation_failures(
    handle: InitialAlgebra, algebras: Sequence, trees: Sequence[PVal]
) -> list[str]:
    """Instances of the fold equation whose two sides differ: every one of
    algebra 0, then of algebra 1, and so on.

    The algebras' carriers are first-order values, which compare exactly
    by ``==``; a side of another shape is a failure like any other (for
    every algebra, if it is the whole product fold).  A failure prints
    both sides as ``eval`` prints values.  Trees are processed shallowest
    first so each side is computed by the real fold, into the product of
    the algebras, exactly once per tree.
    """
    product = product_algebra(handle.n, algebras)
    failures: list[list[str]] = [[] for _ in algebras]
    results: dict = {}
    for t in sorted(trees, key=lambda t: tree_depth(t) or 0):
        i, w, children = handle.destruct(t)
        lhs = handle.fold(product, t)
        if type(lhs) is not tuple or len(lhs) != len(algebras):
            lhs = (lhs,) * len(algebras)
        results[_shape_key(t)] = lhs
        rhs = product[i](w, [results[_shape_key(c)] for c in children])
        for found, l, r in zip(failures, lhs, rhs):
            if l != r:
                found.append(f"summand {i}: {show_pval(l)} != {show_pval(r)}")
    return [f for found in failures for f in found]


def _shape_key(t: PVal):
    l, d, _ = tree_parts(t)
    return (l, d)


class FoldDisagrees(QuasiError):
    """A tree's fold differs from the value its fold equation forces."""


def fold_uniqueness_solutions(
    handle: InitialAlgebra,
    algebras: Sequence,
    trees: Sequence[PVal],
    carrier: Sequence[PVal],
) -> list[int]:
    """Count, for each algebra, all functions on the tree set satisfying
    its fold equation.

    Trees are identified by their path maps (anchors are derived data on
    carrier members), processed in depth order so each equation instance
    only mentions already-assigned subtrees.  Each tree's value is then
    forced up to equality, so the count is the product over trees of how
    many carrier values equal the required one.  Exactly one solution means
    the fold is unique on the bounded set; the search also insists that
    any solution found agrees with the implemented fold, into the product
    of the algebras that still have solutions, and raises ``FoldDisagrees``,
    naming the first tree's summand and depth, where it does not.
    """
    live = list(range(len(algebras)))
    totals = [1] * len(algebras)
    product = product_algebra(handle.n, algebras)
    assignment: dict = {}  # tree -> the value forced for each live algebra
    for t in sorted(trees, key=lambda t: tree_depth(t) or 0):
        i, w, children = handle.destruct(t)
        required = product[i](w, [assignment[_shape_key(c)] for c in children])
        matches = [[b for b in carrier if b == r] for r in required]
        for k, found in zip(live, matches):
            totals[k] *= len(found)
        if not all(matches):
            kept = [j for j, found in enumerate(matches) if found]
            if not kept:
                break
            live, matches = [live[j] for j in kept], [matches[j] for j in kept]
            product = product_algebra(handle.n, [algebras[k] for k in live])
            assignment = {s: tuple(v[j] for j in kept) for s, v in assignment.items()}
        folded = handle.fold(product, t)
        if any(b != v for found, v in zip(matches, folded) for b in found):
            raise FoldDisagrees(
                f"summand {i} at depth {tree_depth(t)}: "
                "a fold-equation solution disagrees with fold itself"
            )
        assignment[_shape_key(t)] = tuple(found[0] for found in matches)
    return totals


# ---------------------------------------------------------------------------
# Suites behind the command-line checker


class CheckConfig(Record):
    __slots__ = __match_args__ = ("obs_depth", "chain_bound", "seed")


def suite_initial(info, cfg: CheckConfig) -> list[CheckResult]:
    """Bounded certification of one installed free type."""
    prefix = f"initial.{info.display}"
    handle = info.handle
    try:
        trees = handle.enumerate_trees(cfg.obs_depth)
    except QuasiError as e:
        return [CheckResult(f"{prefix}.enumerable", "skip", str(e))]
    out = []
    carrier = [nat(i) for i in range(3)]
    rng = random.Random(cfg.seed)
    algebras = list(sample_algebras(handle.nf, carrier, 20, rng))
    failures = fold_equation_failures(handle, algebras, trees)
    out.append(check(f"{prefix}.fold-equation", not failures, "; ".join(failures[:1])))

    algebras = list(sample_algebras(handle.nf, carrier, 3, rng))
    try:
        counts = fold_uniqueness_solutions(handle, algebras, trees, carrier)
        out.append(check(f"{prefix}.fold-uniqueness", all(c == 1 for c in counts)))
    except FoldDisagrees as e:
        out.append(CheckResult(f"{prefix}.fold-uniqueness", "fail", str(e)))

    # Lambek's lemma and the depth law in one pass, one node per tree: the
    # trees come in depth order, so a tree's inverse is the Lambek algebra
    # on its children's, already computed and checked.  That is the fold of the tree when the
    # fold equation holds, which ``fold-equation`` tests with real folds;
    # ``membership`` still folds each tree.  Inverses are keyed by path
    # maps, since a subtree read by ``destruct`` carries its parent's anchor.
    lambek = handle.lambek_algebra()
    inverses: dict = {}
    lambek_ok = depth_ok = True
    for t in trees:
        i, w, children = handle.destruct(t)
        if lambek_ok:
            inv = lambek[i](w, [inverses[_shape_key(c)] for c in children])
            inverses[_shape_key(t)] = inv
            lambek_ok = handle.structure_map(inv) == t
        want = 1 + max((tree_depth(c) or 0 for c in children), default=0)
        depth_ok = depth_ok and tree_depth(t) == want
    out.append(check(f"{prefix}.lambek", lambek_ok))
    out.append(check(f"{prefix}.depth-law", depth_ok))

    member_ok = all(handle.is_in_T(t) for t in trees)
    out.append(check(f"{prefix}.membership", member_ok))
    return out


def _canonical_coalgebra(info, cfg: CheckConfig):
    """A deterministic total coalgebra on small integer seeds."""
    handle = info.handle
    params = [enumerate_ty(a, 2) for a, _ in handle.nf.summands]

    def d(z: int):
        i = (z + cfg.seed) % handle.n
        while not params[i]:
            i = (i + 1) % handle.n
        x = params[i][z % len(params[i])]
        values = handle.exponent_values[i]

        def g(y):
            return (z * 3 + values.index(y) + 1) % 7

        return i, x, g

    return d


def suite_final(info, cfg: CheckConfig) -> list[CheckResult]:
    prefix = f"final.{info.display}"
    handle = info.handle
    try:
        d = _canonical_coalgebra(info, cfg)
        d(0)
    except QuasiError as e:
        return [CheckResult(f"{prefix}.enumerable", "skip", str(e))]
    out = []
    seeds = list(range(4))
    trees = [handle.unfold(d, z) for z in seeds]
    found = [handle.membership_failures(t, cfg.obs_depth) for t in trees]
    failures = [f for fs in found for f in fs]
    out.append(check(f"{prefix}.membership", not failures, "; ".join(failures[:1])))

    eq_ok = True
    for z, t in zip(seeds, trees):
        i, x, g = d(z)
        li, lx, lfn = ext_unvalue(handle.nf, handle.structure_map(t))
        if li != i or lx != x:
            eq_ok = False
            continue
        for y in handle.exponent_values[i]:
            if not handle.tree_eq(apply_pval(lfn, y), handle.unfold(d, g(y)), 2):
                eq_ok = False
    out.append(check(f"{prefix}.unfold-equation", eq_ok))

    # iterative reference: cons-based recursion and snoc-based observation
    # agree; both sides are first-order, ``inject(i, x)`` or undefined
    def reference(z, path):
        seed = z
        for label in path:
            i, _x, g = d(seed)
            j, y = project(label, handle.n)
            if j != i:
                return UNDEF
            seed = g(y)
        i, x, _g = d(seed)
        return inject(i, handle.n, x)

    # a member is undefined off the summand offered at each node, and so is
    # the reference, so below a member the walk follows the offered labels
    uniq_ok = True
    for z, u, failed in zip(seeds[:2], trees, found):
        walk = handle.walk(u, cfg.obs_depth, None if failed else handle.offered)
        if any(v != reference(z, p) for p, v in walk):
            uniq_ok = False
    out.append(check(f"{prefix}.bounded-uniqueness", uniq_ok))
    return out


def suite_cpo(cfg: CheckConfig) -> list[CheckResult]:
    from . import cpo as cpo_mod

    out = []
    bound = max(4, min(cfg.chain_bound, 16))
    lemma_ok = True
    for a in range(bound - 1):
        for v in (nat(0), nat(3)):
            ch = lambda i, _a=a, _v=v: UNDEF if i < _a else _v
            if cpo_mod.chain_sup(cpo_mod.NAT_FLAT, ch, bound) != v:
                lemma_ok = False
    if cpo_mod.chain_sup(cpo_mod.NAT_FLAT, lambda i: UNDEF, bound) != UNDEF:
        lemma_ok = False
    out.append(check("cpo.partial-chain-lemma", lemma_ok))

    for desc in (
        cpo_mod.NAT_FLAT,
        cpo_mod.BOOL_FLAT,
        cpo_mod.pfun_cpo(Bool(), cpo_mod.NAT_FLAT),
        cpo_mod.sum_cpo(cpo_mod.VERT, cpo_mod.NAT_FLAT),
    ):
        out.append(
            check(f"cpo.order-axioms.{desc.name}", not cpo_mod.order_axiom_failures(desc))
        )

    carrier = cpo_mod.pfun_cpo(Nat(), cpo_mod.NAT_FLAT, nat_bound=9)

    def step(f):
        table = {nat(0): nat(1)}
        for n in range(1, 9):
            prev = apply_pval(f, nat(n - 1))
            if prev.defined():
                table[nat(n)] = nat(n * prev.n)
        return finmap(table)

    try:
        fact = cpo_mod.lfp(carrier, step, cfg.chain_bound)
        ok = apply_pval(fact, nat(5)) == nat(120)
        candidates = [fact, carrier.bottom] + [
            finmap({nat(k): nat(k) for k in range(j)}) for j in range(1, 9)
        ]
        minimal = not cpo_mod.minimality_failures(carrier, step, fact, candidates)
        out.append(check("cpo.lfp-factorial", ok, "fact(5) != 120" if not ok else ""))
        out.append(check("cpo.lfp-minimality", minimal))
    except cpo_mod.NotStabilized as e:
        out.append(CheckResult("cpo.lfp-factorial", "fail", str(e)))
        out.append(CheckResult("cpo.lfp-minimality", "skip", f"no fixed point to test: {e}"))

    s = cpo_mod.sum_cpo(cpo_mod.VERT, cpo_mod.NAT_FLAT)
    try:
        sup = cpo_mod.chain_sup(
            s, lambda i: InlV(FALSE) if i < 2 else InlV(TRUE), 6
        )
        out.append(check("cpo.sum-stability", sup == InlV(TRUE)))
    except cpo_mod.QuasiError as e:  # pragma: no cover
        out.append(CheckResult("cpo.sum-stability", "fail", str(e)))
    return out
