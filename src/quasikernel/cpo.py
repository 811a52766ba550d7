"""Domain layer: orders via partial chains, fixed points, datatypes as cpos.

A carrier's order is packaged with a sampling set; completeness is never
assumed, only checked on generated chains up to a bound.  Suprema of
partial chains follow the defining lemma: defined exactly when some
element is defined.  A chain still strictly increasing at its bound is
an honest failure (``NotStabilized``), since genuine suprema would need
the model's completeness.  The ambient assumptions are fixed globally:
the naturals are a flat cpo, hence booleans are flat and sums of cpos
are again cpos.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .final import _as_ptree, root
from .functors import project
from .initial import tree_anchor, tree_tables
from .kernel import (
    FALSE,
    TRUE,
    UNDEF,
    Bool,
    FinMapV,
    InlV,
    InrV,
    Nat,
    PVal,
    QuasiError,
    Record,
    Ty,
    Unit,
    UnitV,
    apply_pval,
    enumerate_ty,
    finmap,
)


class NotStabilized(QuasiError):
    """The chain was still moving at the sampling bound."""


class MonotonicityViolation(QuasiError):
    pass


class NotPointed(QuasiError):
    pass


class CpoDescriptor(Record):
    """A partial order ``le`` with sampling data; ``bottom`` witnesses pointedness."""

    __slots__ = __match_args__ = ("name", "le", "sample", "bottom")
    _defaults = {"sample": (), "bottom": None}

    def equal(self, a: PVal, b: PVal) -> bool:
        # ``le`` is reflexive, so equal values need no call; for a flat
        # order, whose ``le`` is ``==``, one call decides any other pair
        return a == b or (self.le(a, b) and self.le(b, a))


def lifted_le(cpo: CpoDescriptor, x: PVal, y: PVal) -> bool:
    """Order on partial elements: if x is defined then y is, and below it."""
    if not x.defined():
        return True
    return y.defined() and cpo.le(x, y)


PartialChain = Callable[[int], PVal]


def check_chain(cpo: CpoDescriptor, ch: PartialChain, bound: int) -> list[PVal]:
    xs = [ch(i) for i in range(bound)]
    for a, b in zip(xs, xs[1:]):
        if not lifted_le(cpo, a, b):
            raise MonotonicityViolation(f"{a!r} not below {b!r}")
    return xs


def chain_sup_info(cpo: CpoDescriptor, ch: PartialChain, bound: int) -> tuple[PVal, int]:
    """Supremum of a partial chain plus the stabilization index: the first
    index from which every element equals the last, each compared with it
    once."""
    xs = check_chain(cpo, ch, bound)
    if not any(x.defined() for x in xs):
        return UNDEF, bound
    idx = len(xs) - 1
    last = xs[idx]
    while idx > 0 and xs[idx - 1].defined() and cpo.equal(xs[idx - 1], last):
        idx -= 1
    if idx == len(xs) - 1:
        raise NotStabilized(f"chain still moving at bound {bound}")
    return last, idx


def chain_sup(cpo: CpoDescriptor, ch: PartialChain, bound: int) -> PVal:
    return chain_sup_info(cpo, ch, bound)[0]


# ---------------------------------------------------------------------------
# Descriptor constructors


def flat_cpo(carrier: Ty, name: str) -> CpoDescriptor:
    """The discrete order on a carrier of first-order values, which compare
    exactly by ``==``; naturals are sampled below 4."""
    sample = tuple(enumerate_ty(carrier, 4))
    return CpoDescriptor(name, le=lambda a, b: a == b, sample=sample)


def pfun_cpo(domain: Ty, b: CpoDescriptor, nat_bound: int = 6) -> CpoDescriptor:
    """Partial maps out of a sampled domain, pointwise; pointed by the
    everywhere-undefined map.

    Two finite tables compare by their entries: each entry of ``f`` at a
    sampled point must lie below ``g``'s entry there, which is the
    pointwise order, since a point ``f`` leaves out is undefined and so
    below anything.  A procedural map is applied at every sampled point.
    """
    dom = tuple(enumerate_ty(domain, nat_bound))
    points = frozenset(dom)

    def le(f: PVal, g: PVal) -> bool:
        if isinstance(f, FinMapV) and isinstance(g, FinMapV):
            at = dict(g.entries)
            return all(
                lifted_le(b, v, at.get(k, UNDEF)) for k, v in f.entries if k in points
            )
        return all(lifted_le(b, apply_pval(f, x), apply_pval(g, x)) for x in dom)

    sample = [finmap({})]
    for v in b.sample[:2]:
        sample.append(finmap({dom[0]: v}))
        sample.append(finmap({x: v for x in dom}))
    return CpoDescriptor(
        f"({domain!r} -/-> {b.name})", le, tuple(sample), bottom=finmap({})
    )


def sum_cpo(a: CpoDescriptor, b: CpoDescriptor) -> CpoDescriptor:
    """Sum order: components within a tag, distinct tags incomparable.

    Sound under the ambient flatness of Bool: a monotone chain settles
    its tag before its payload moves.
    """

    def le(x: PVal, y: PVal) -> bool:
        match (x, y):
            case (InlV(u), InlV(v)):
                return a.le(u, v)
            case (InrV(u), InrV(v)):
                return b.le(u, v)
        return False

    sample = tuple(
        [InlV(v) for v in a.sample[:3]] + [InrV(v) for v in b.sample[:3]]
    )
    return CpoDescriptor(f"({a.name} + {b.name})", le, sample)


NAT_FLAT = flat_cpo(Nat(), "Nat")
BOOL_FLAT = flat_cpo(Bool(), "Bool")
UNIT_CPO = flat_cpo(Unit(), "Unit")
# a tiny non-flat order for exercising the domain layer
VERT = CpoDescriptor(
    "vert",
    le=lambda a, b: a == b or (a == FALSE and b == TRUE),
    sample=(FALSE, TRUE),
    bottom=FALSE,
)
# the cpo suite's other fixed carriers, built once: two whose order
# axioms it checks (the second also for sum stability) and the
# factorial's partial maps on naturals below 9
BOOL_TO_NAT = pfun_cpo(Bool(), NAT_FLAT)
VERT_PLUS_NAT = sum_cpo(VERT, NAT_FLAT)
FACTORIAL_CARRIER = pfun_cpo(Nat(), NAT_FLAT, nat_bound=9)


# ---------------------------------------------------------------------------
# Least fixed points


def _iterate(
    cpo: CpoDescriptor, f: Callable[[PVal], PVal], bound: int
) -> tuple[list[PVal], bool]:
    """The Kleene chain from bottom, up to ``bound`` steps, and whether it
    settled.  Each step is compared with its predecessor at most once each
    way: ``==``, exact on interned values, settles it with no ``le`` at
    all; otherwise it must lie above, and it settles once it also lies
    below."""
    if cpo.bottom is None:
        raise NotPointed(f"{cpo.name} has no bottom element")
    xs = [cpo.bottom]
    for _ in range(bound):
        prev = xs[-1]
        nxt = f(prev)
        xs.append(nxt)
        if nxt == prev:
            return xs, True
        if not cpo.le(prev, nxt):
            raise MonotonicityViolation("function is not monotone on its own chain")
        if cpo.le(nxt, prev):
            return xs, True
    return xs, False


def lfp(cpo: CpoDescriptor, f: Callable[[PVal], PVal], bound: int = 32) -> PVal:
    """Least fixed point as the supremum of the iteration chain from bottom."""
    xs, settled = _iterate(cpo, f, bound)
    if not settled:
        raise NotStabilized(f"no fixed point within {bound} iterations")
    out = xs[-1]
    if out != xs[-2]:  # equal in the order only, so f may still move it
        image = f(out)
        if not cpo.equal(image, out):
            raise NotStabilized("iteration settled on a non-fixed point")
    return out


def order_axiom_failures(cpo: CpoDescriptor) -> list[str]:
    """Reflexivity, antisymmetry, transitivity over the descriptor's samples,
    read off one ``le`` per ordered pair of samples."""
    s = cpo.sample
    le = [[cpo.le(x, y) for y in s] for x in s]
    ixs = range(len(s))
    out = [f"not reflexive at {s[i]!r}" for i in ixs if not le[i][i]]
    for i in ixs:
        for j in ixs:
            if not le[i][j]:
                continue
            if le[j][i] and s[i] != s[j]:
                out.append(f"antisymmetry fails at {s[i]!r}, {s[j]!r}")
            out.extend(
                f"transitivity fails at {s[i]!r}, {s[j]!r}, {s[k]!r}"
                for k in ixs
                if le[j][k] and not le[i][k]
            )
    return out


def minimality_failures(
    cpo: CpoDescriptor,
    f: Callable[[PVal], PVal],
    fixed: PVal,
    candidates: Sequence[PVal],
) -> list[str]:
    """The fixed point must sit below every sampled pre-fixed point; ``f``
    is applied only to the candidates the fixed point is not below."""
    out = []
    for p in candidates:
        if not cpo.le(fixed, p) and cpo.le(f(p), p):
            out.append(f"not minimal against {p!r}")
    return out


# ---------------------------------------------------------------------------
# Initial datatypes as cpos


class DomainInitial(Record):
    """Tree datatype with the order inherited from the universal tree type;
    ``param_cpos`` orders each summand's A_i."""

    __slots__ = __match_args__ = ("handle", "param_cpos")

    def label_le(self, a: PVal, b: PVal) -> bool:
        i, za = project(a, self.handle.n)
        j, zb = project(b, self.handle.n)
        if i != j:
            return False
        match (za, zb):
            case (InrV(UnitV()), InrV(UnitV())):
                return True
            case (InlV(x), InlV(y)):
                return self.param_cpos[i].le(x, y)
        return False

    def tree_le(self, t1: PVal, t2: PVal) -> bool:
        l1, d1 = tree_tables(t1)
        l2, d2 = tree_tables(t2)
        for p, v in l1.items():
            if p not in l2 or not self.label_le(v, l2[p]):
                return False
        for p, v in d1.items():
            if p not in d2 or d2[p] != v:  # depths ordered flatly
                return False
        return self.param_cpos[0].le(tree_anchor(t1), tree_anchor(t2))

    def chain_sup(self, trees: Sequence[PVal]) -> PVal:
        """Supremum of a finite monotone chain of trees: its last element,
        since ``tree_le`` already puts every path of a tree, with the same
        depth, into the next one."""
        for a, b in zip(trees, trees[1:]):
            if not self.tree_le(a, b):
                raise MonotonicityViolation("tree chain is not increasing")
        return trees[-1]

    def constructor_monotone_failures(
        self, i: int, arg_pairs: Sequence[tuple]
    ) -> list[str]:
        """Comparable argument tuples must construct comparable trees."""
        out = []
        for (y1, ts1), (y2, ts2) in arg_pairs:
            t1 = self.handle.construct(i, y1, ts1)
            t2 = self.handle.construct(i, y2, ts2)
            if not self.tree_le(t1, t2):
                out.append(f"constructor {i} broke order on {y1!r}")
        return out

    def fold_continuity_failures(
        self,
        algebra,
        b_cpo: CpoDescriptor,
        chains: Sequence[Sequence[PVal]],
    ) -> list[str]:
        """Fold must preserve order along chains and send the chain's
        supremum to the supremum of the folded chain."""
        out = []
        for chain in chains:
            results = [self.handle.fold(algebra, t) for t in chain]
            for a, b in zip(results, results[1:]):
                if not b_cpo.le(a, b):
                    out.append("fold is not monotone along the chain")
            sup_t = self.chain_sup(chain)
            lhs = self.handle.fold(algebra, sup_t)
            if not b_cpo.equal(lhs, results[-1]):
                out.append("fold does not commute with the chain supremum")
        return out


# ---------------------------------------------------------------------------
# Final process types as cpos


class DomainFinal(Record):
    """Process type over continuous path maps, ordered by observation;
    ``param_cpos`` orders each summand's A_i."""

    __slots__ = __match_args__ = ("handle", "param_cpos")

    def label_le(self, a: PVal, b: PVal) -> bool:
        i, xa = project(a, self.handle.n)
        j, xb = project(b, self.handle.n)
        return i == j and self.param_cpos[i].le(xa, xb)

    def tree_le(self, t1: PVal, t2: PVal, depth: int = 4) -> bool:
        return all(
            not n1.value.defined() or (n2.value.defined() and self.label_le(n1.value, n2.value))
            for _, (n1, n2) in self.handle.walk((root(t1), root(t2)), depth)
        )

    def chain_sup(self, trees: Sequence[PVal], depth: int = 4) -> PVal:
        """Pointwise supremum on observed paths: the last defined label."""
        for a, b in zip(trees, trees[1:]):
            if not self.tree_le(a, b, depth):
                raise MonotonicityViolation("tree chain is not increasing")

        def value_at(path):
            out = UNDEF
            for t in trees:
                v = self.handle.observe(t, path)
                if v.defined():
                    out = v
            return out

        return _as_ptree(value_at)

    def unfold_monotone_failures(
        self, d, seed_pairs: Sequence[tuple], depth: int = 3
    ) -> list[str]:
        out = []
        for z1, z2 in seed_pairs:
            t1 = self.handle.unfold(d, z1)
            t2 = self.handle.unfold(d, z2)
            if not self.tree_le(t1, t2, depth):
                out.append(f"unfold not monotone between seeds {z1!r}, {z2!r}")
        return out

    def closure_failures(self, chains: Sequence[Sequence[PVal]], depth: int = 3) -> list[str]:
        """The carrier must be closed under sampled chain suprema."""
        out = []
        for chain in chains:
            sup = self.chain_sup(chain, depth)
            out.extend(self.handle.membership_failures(sup, depth))
        return out
