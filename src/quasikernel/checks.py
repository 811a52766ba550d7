"""Reusable bounded verification helpers behind the check suites.

These quantify universal properties over finite enumerations: trees up
to a depth bound, paths up to a length bound.  The CLI assembles their
outcomes into reports; the test suite calls them directly.  The cpo
suite imports its module when it runs, so ``check --suite initial`` does
not load it.
"""

from __future__ import annotations

from typing import Sequence

from .final import _OFF, _Node, root
from .functors import ext_unvalue, inject, poly_value, project
from .initial import InitialAlgebra, tree_depth
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
# Fold equation and uniqueness


def _named(i: int, t: PVal) -> str:
    return f"summand {i} at depth {tree_depth(t)}"


def fold_equation_failures(handle: InitialAlgebra, trees: Sequence[PVal]) -> list[str]:
    """The trees, in order, whose fold into the constructors is not the
    tree itself.  With membership and ``fold-uniqueness`` this makes the
    fold T's only endomorphism, and since ``_f`` never inspects a result,
    its fold into any algebra is then the unique morphism (Wadler, "Theorems
    for free!", 1989).  One walk of all the trees through ``_f``, the walk
    every ``fold`` takes, folds each distinct node once.
    """
    folds = handle._f(trees, handle.constructors)
    return [
        f"{_named(handle.destruct(t)[0], t)}: its fold into the constructors is another tree"
        for t, u in zip(trees, folds)
        if u is not t
    ]


def fold_uniqueness_solutions(handle: InitialAlgebra, trees: Sequence[PVal]) -> tuple[list[str], list]:
    """The premise of uniqueness, by induction on depth: the trees, in
    order, that have a child which is not a tree listed before them, and
    per tree ``destruct``'s answer.

    On a subtree-closed set each tree's value under any solution of the fold
    equation is forced by its children's, so the fold is the only solution
    (the universal property of fold); the depth law checks that the
    induction is well-founded.  A child outside the set is unconstrained,
    so its parent's value is not forced.  Each tree is read by one
    ``destruct``, which gives back the trees it was built from, so a child
    is looked up by identity.
    """
    index = {t: m for m, t in enumerate(trees)}
    failures, read = [], []
    for n, t in enumerate(trees):
        i, w, children = parts = handle.destruct(t)
        if any(index.get(c, n) >= n for c in children):
            failures.append(f"{_named(i, t)}: a subtree is not in the set")
        read.append(parts)
    return failures, read


# ---------------------------------------------------------------------------
# Suites behind the command-line checker


class CheckConfig(Record):
    __slots__ = __match_args__ = ("obs_depth", "chain_bound", "seed")


def suite_initial(info, cfg: CheckConfig) -> list[CheckResult]:
    """Bounded certification of one installed free type, in one pass over
    the enumerated trees and one walk of ``_f``: each tree is read by one
    ``destruct`` in the closure pass and again, once per distinct node, by
    the walk.  The checks that read the children's results run only on a
    subtree-closed set, the depth law always."""
    prefix = f"initial.{info.display}"
    handle = info.handle
    try:
        trees = handle.enumerate_trees(cfg.obs_depth)
    except QuasiError as e:
        return [CheckResult(f"{prefix}.enumerable", "skip", str(e))]
    unclosed, read = fold_uniqueness_solutions(handle, trees)
    closed = not unclosed

    def gated(name, failure):
        if closed:
            return check(f"{prefix}.{name}", not failure, failure)
        return CheckResult(f"{prefix}.{name}", "skip", "not run: fold-uniqueness failed")

    failures = fold_equation_failures(handle, trees) if closed else []

    # on what ``destruct`` read, whose children are enumerated trees, alpha
    # gives the tree back (Lambek), and so does ``construct`` (membership)
    lambek = member = depth = ""  # the first failure of each, named by its tree
    for t, (i, w, children) in zip(trees, read):
        if closed and not lambek and handle.structure_map(poly_value(handle.nf, i, w, children)) is not t:
            lambek = f"{_named(i, t)}: the structure map of its inverse is another tree"
        if closed and not member and handle.construct(i, w, children) is not t:
            member = f"{_named(i, t)}: construct on its parts is another tree"
        if not depth and tree_depth(t) != 1 + max([tree_depth(c) or 0 for c in children], default=0):
            depth = f"{_named(i, t)}: its depth is not one more than its deepest subtree's"
    return [
        gated("fold-equation", "; ".join(failures[:1])),
        check(f"{prefix}.fold-uniqueness", closed, "; ".join(unclosed[:1])),
        gated("lambek", lambek),
        check(f"{prefix}.depth-law", not depth, depth),
        gated("membership", member),
    ]


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

    unequal = []  # per failing seed, what fails
    for z, t in zip(seeds, trees):
        i, x, g = d(z)
        li, lx, lfn = ext_unvalue(handle.nf, handle.structure_map(t))
        if li != i or lx != x:
            unequal.append(f"seed {z}: the unfold's root is not the coalgebra's step")
            continue
        for y in handle.exponent_values[i]:
            if not handle.tree_eq(apply_pval(lfn, y), handle.unfold(d, g(y)), cfg.obs_depth):
                unequal.append(f"seed {z}: below {show_pval(y)} the unfold is not the next seed's")
    out.append(check(f"{prefix}.unfold-equation", not unequal, "; ".join(unequal[:1])))

    # each node of an unfold is paired with the reference state of the seed
    # at the same path; a member is undefined off the summand offered at
    # each node, and so is the reference, so below a member the walk follows
    # the offered labels
    reference = _reference(handle, d)
    differ = []  # per failing seed, its first path
    for z, u, failed in zip(seeds[:2], trees, found):
        pairs = handle.walk((root(u), reference(z)), cfg.obs_depth, None if failed else handle.offered)
        path = next((p for p, (a, b) in pairs if a.value != b.value), None)
        if path is not None:
            shown = ", ".join(map(show_pval, path))
            differ.append(f"seed {z}: the unfold and the reference differ at path ({shown})")
    out.append(check(f"{prefix}.bounded-uniqueness", not differ, "; ".join(differ[:1])))
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
