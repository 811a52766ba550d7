"""Reusable bounded verification helpers behind the check suites.

These quantify universal properties over finite enumerations: algebras
over small carriers, trees up to a depth bound, paths up to a length
bound.  The CLI assembles their outcomes into reports; the test suite
calls them directly.  The cpo suite imports its module when it runs, so
``check --suite initial`` does not load it.
"""

from __future__ import annotations

import random
from typing import Sequence

from .final import _OFF, _Node, root
from .functors import PolyNF, ext_unvalue, inject, project
from .initial import InitialAlgebra, tree_depth, tree_parts
from .kernel import (
    FALSE,
    TRUE,
    UNDEF,
    InlV,
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
# Sampled algebras over finite carriers


def sample_algebras(nf: PolyNF, size: int, count: int, rng: random.Random) -> list:
    """Seeded random algebras over a carrier of ``size`` members, for
    signatures whose full space is too large.

    An algebra is a table per summand, from the parameter ``w`` (naturals
    below 2, as ``enumerate_trees`` builds them) to a list of carrier
    indices: entry n is the result on the children whose indices, read as
    a base-``size`` number with the first child most significant, are n.
    Each entry is one ``rng.choice``, drawn per algebra, summand, ``w`` and
    entry, in that order.
    """
    members = range(size)
    return [
        [
            {w: [rng.choice(members) for _ in range(size**k)] for w in enumerate_ty(a, 2)}
            for a, k in nf.summands
        ]
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# Fold equation and uniqueness


def product_algebra(nf: PolyNF, algebras: Sequence[list], size: int) -> list:
    """Summand i maps ``(w, rows)``, the children's results as tuples of
    carrier indices, to the tuple of each algebra's entry for ``w`` at its
    column of the rows, so a fold into it is the tuple of the folds into
    the algebras, made in one walk of the tree ("banana split")."""

    def summand(i, a_ty):
        tables = {w: [a[i][w] for a in algebras] for w in enumerate_ty(a_ty, 2)}

        def apply(w, rows):
            at = rows[0] if rows else [0] * len(algebras)
            for row in rows[1:]:
                at = [x * size + y for x, y in zip(at, row)]
            return tuple(map(list.__getitem__, tables[w], at))

        return apply

    return [summand(i, a) for i, (a, _) in enumerate(nf.summands)]


def fold_equation_failures(
    handle: InitialAlgebra, algebras: Sequence[list], trees: Sequence[PVal], carrier: Sequence[PVal]
) -> list[str]:
    """Instances of the fold equation whose two sides differ: every one of
    algebra 0, then of algebra 1, and so on.

    A side is a carrier index, and a failure prints both sides' members as
    ``eval`` prints values.  A fold result of another shape, which only a
    broken fold gives, is a failure like any other (for every algebra, if
    it is the whole product fold).  Trees are processed shallowest first
    so each side is computed by the real fold, into the product of the
    algebras, exactly once per tree.
    """
    product = product_algebra(handle.nf, algebras, len(carrier))
    shown = lambda j: show_pval(carrier[j] if type(j) is int else j)
    failures: list[tuple[int, str]] = []
    results: dict = {}
    for t in sorted(trees, key=lambda t: tree_depth(t) or 0):
        i, w, children = handle.destruct(t)
        lhs = handle.fold(product, t)
        if type(lhs) is not tuple or len(lhs) != len(algebras):
            lhs = (lhs,) * len(algebras)
        results[_shape_key(t)] = lhs
        rhs = product[i](w, [results[_shape_key(c)] for c in children])
        if lhs != rhs:
            failures += [
                (k, f"summand {i}: {shown(l)} != {shown(r)}")
                for k, (l, r) in enumerate(zip(lhs, rhs))
                if l != r
            ]
    failures.sort(key=lambda f: f[0])  # stable, so each algebra's stay in tree order
    return [f for _, f in failures]


def _shape_key(t: PVal):
    l, d, _ = tree_parts(t)
    return (l, d)


def fold_uniqueness_solutions(handle: InitialAlgebra, trees: Sequence[PVal]) -> list[str]:
    """The premise of uniqueness, by induction on depth: the trees,
    shallowest first, that have a child outside the set.

    On a subtree-closed set each tree's value under any solution of the fold
    equation is forced by its children's, so the fold is the only solution
    (the universal property of fold); the depth law checks that the
    induction is well-founded.  A child outside the set is unconstrained,
    so its parent's value is not forced.  Children are matched by path maps,
    since a subtree read by ``destruct`` carries its parent's anchor.
    """
    keys = {_shape_key(t) for t in trees}
    failures = []
    for t in sorted(trees, key=lambda t: tree_depth(t) or 0):
        i, _, children = handle.destruct(t)
        if any(_shape_key(c) not in keys for c in children):
            failures.append(f"summand {i} at depth {tree_depth(t)}: a subtree is not in the set")
    return failures


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
    # the other checks read each tree's children's results, so they run
    # only on a subtree-closed set; the depth law reads the trees alone
    unclosed = fold_uniqueness_solutions(handle, trees)
    closed = not unclosed

    def gated(name, ok, detail=""):
        if closed:
            return check(f"{prefix}.{name}", ok, detail)
        return CheckResult(f"{prefix}.{name}", "skip", "not run: fold-uniqueness failed")

    failures = []
    if closed:
        carrier = [nat(i) for i in range(3)]
        algebras = sample_algebras(handle.nf, len(carrier), 20, random.Random(cfg.seed))
        failures = fold_equation_failures(handle, algebras, trees, carrier)
    out = [
        gated("fold-equation", not failures, "; ".join(failures[:1])),
        check(f"{prefix}.fold-uniqueness", closed, "; ".join(unclosed[:1])),
    ]

    # Lambek's lemma, the depth law and membership in one pass, one node per
    # tree: the trees come in depth order, so a tree's inverse is the Lambek
    # algebra on its children's, already computed and checked.  That is the
    # fold of the tree when the fold equation holds, which ``fold-equation``
    # tests with real folds.  A tree is a member if the constructor gives it
    # back from its children, which are members already.  Both read the
    # children by path maps: a subtree read by ``destruct`` carries its
    # parent's anchor, so membership rebuilds from the enumerated trees.
    lambek = handle.lambek_algebra()
    members = {_shape_key(t): t for t in trees}
    inverses: dict = {}
    lambek_ok = member_ok = closed
    depth_ok = True
    for t in trees:
        i, w, children = handle.destruct(t)
        keys = [_shape_key(c) for c in children]
        if lambek_ok:
            inv = lambek[i](w, [inverses[k] for k in keys])
            inverses[_shape_key(t)] = inv
            lambek_ok = handle.structure_map(inv) == t
        if member_ok:
            member_ok = handle.construct(i, w, [members[k] for k in keys]) == t
        want = 1 + max((tree_depth(c) or 0 for c in children), default=0)
        depth_ok = depth_ok and tree_depth(t) == want
    out.append(gated("lambek", lambek_ok))
    out.append(check(f"{prefix}.depth-law", depth_ok))
    out.append(gated("membership", member_ok))
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


def _reference(handle, d):
    """The seed states of bounded uniqueness's reference: ``d`` stepped
    from a seed along the labels, apart from ``unfold``.  A state per seed,
    and ``_OFF`` past a label the seed does not offer; its observation is
    first-order, ``inject(i, x)``."""
    states = {}

    def state(seed) -> _Node:
        made = states.get(seed)
        if made is None:
            i, x, g = d(seed)

            def succ(label, i=i, g=g):
                j, y = project(label, handle.n)
                return state(g(y)) if j == i else _OFF

            made = states[seed] = _Node(inject(i, handle.n, x), succ)
        return made

    return state


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
            if not handle.tree_eq(apply_pval(lfn, y), handle.unfold(d, g(y)), cfg.obs_depth):
                eq_ok = False
    out.append(check(f"{prefix}.unfold-equation", eq_ok))

    # each node of an unfold is paired with the reference state of the seed
    # at the same path; a member is undefined off the summand offered at
    # each node, and so is the reference, so below a member the walk follows
    # the offered labels
    reference = _reference(handle, d)
    uniq_ok = True
    for z, u, failed in zip(seeds[:2], trees, found):
        pairs = handle.walk((root(u), reference(z)), cfg.obs_depth, None if failed else handle.offered)
        if any(a.value != b.value for _p, (a, b) in pairs):
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

    for desc in (cpo_mod.NAT_FLAT, cpo_mod.BOOL_FLAT, cpo_mod.BOOL_TO_NAT, cpo_mod.VERT_PLUS_NAT):
        out.append(
            check(f"cpo.order-axioms.{desc.name}", not cpo_mod.order_axiom_failures(desc))
        )

    carrier = cpo_mod.FACTORIAL_CARRIER

    def step(f):
        at = dict(f.entries)  # the chain and the candidates are tables
        table = {nat(0): nat(1)}
        for n in range(1, 9):
            prev = at.get(nat(n - 1))
            if prev is not None:
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

    try:
        sup = cpo_mod.chain_sup(
            cpo_mod.VERT_PLUS_NAT, lambda i: InlV(FALSE) if i < 2 else InlV(TRUE), 6
        )
        out.append(check("cpo.sum-stability", sup == InlV(TRUE)))
    except cpo_mod.QuasiError as e:  # pragma: no cover
        out.append(CheckResult("cpo.sum-stability", "fail", str(e)))
    return out
