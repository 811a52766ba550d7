"""Finite-carrier laboratory: reflexive relations and subset-space categories.

Two concrete quasitopos-style categories at desk scale, with enough
(co)limit machinery to certify structural facts by exhaustive search:
regular monomorphisms are found (or refuted) by searching equalizers of
small cospans, and choice-map existence is decided by probing with all
set-functions out of a small object pool.  Morphism equality is graph
equality; objects are compared up to listed-atom identity.  ``certify``
runs the checks that ``lab`` reports.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Mapping, Sequence

from .kernel import QuasiError, Record, set_field
from .report import CheckResult, check

RERE = "rere"
SPAP = "spap"


class LabError(QuasiError):
    pass


class FinObj(Record):
    """An object on its carrier atoms; ``structure`` is, for rere, a
    frozenset of ordered pairs (reflexive), for spap a frozenset of
    frozensets.  Its ``__init__`` validates the structure."""

    __slots__ = __match_args__ = ("kind", "carrier", "structure")

    def __init__(self, kind: str, carrier: tuple[int, ...], structure: frozenset):
        if kind == RERE:
            for x in carrier:
                if (x, x) not in structure:
                    raise LabError("relation must be reflexive")
            for x, y in structure:
                if x not in carrier or y not in carrier:
                    raise LabError("relation off the carrier")
        elif kind == SPAP:
            for a in structure:
                if not a <= set(carrier):
                    raise LabError("family member off the carrier")
        else:
            raise LabError(f"unknown category {kind!r}")
        set_field(self, "kind", kind)
        set_field(self, "carrier", carrier)
        set_field(self, "structure", structure)


class FinMor(Record):
    """A map given by its graph, ``(x, image)`` pairs."""

    __slots__ = __match_args__ = ("src", "dst", "graph")

    def __call__(self, x: int) -> int:
        for a, b in self.graph:
            if a == x:
                return b
        raise LabError(f"{x} outside the source carrier")

    def image(self, subset: Iterable[int]) -> frozenset:
        return frozenset(self(x) for x in subset)


def rere_obj(carrier: Iterable[int], edges: Iterable[tuple[int, int]] = ()) -> FinObj:
    atoms = tuple(sorted(set(carrier)))
    rel = set(edges) | {(x, x) for x in atoms}
    return FinObj(RERE, atoms, frozenset(rel))


def discrete(carrier: Iterable[int]) -> FinObj:
    return rere_obj(carrier)


def indiscrete(carrier: Iterable[int]) -> FinObj:
    atoms = list(carrier)
    return rere_obj(atoms, [(x, y) for x in atoms for y in atoms])


def spap_obj(carrier: Iterable[int], family: Iterable[Iterable[int]] = ()) -> FinObj:
    atoms = tuple(sorted(set(carrier)))
    return FinObj(SPAP, atoms, frozenset(frozenset(a) for a in family))


def preserves_structure(
    src: FinObj, dst: FinObj, mapping: Mapping[int, int] | Sequence[int]
) -> bool:
    """Does the set-function x |-> mapping[x] preserve structure?

    ``mapping`` is anything indexable by the source's atoms: a dict, or a
    tuple of values when the carrier is ``range(n)``.
    """
    target = dst.structure
    if src.kind == RERE:
        for x, y in src.structure:
            if (mapping[x], mapping[y]) not in target:
                return False
        return True
    for a in src.structure:
        if frozenset(mapping[x] for x in a) not in target:
            return False
    return True


def mor(src: FinObj, dst: FinObj, mapping: dict[int, int]) -> FinMor:
    if src.kind != dst.kind:
        raise LabError("morphism across categories")
    if set(mapping) != set(src.carrier):
        raise LabError("graph is not total")
    if not all(v in dst.carrier for v in mapping.values()):
        raise LabError("graph lands off the carrier")
    if not preserves_structure(src, dst, mapping):
        raise LabError("not structure-preserving")
    return FinMor(src, dst, tuple(sorted(mapping.items())))


def identity(a: FinObj) -> FinMor:
    return mor(a, a, {x: x for x in a.carrier})


def compose(f: FinMor, g: FinMor) -> FinMor:
    if g.dst != f.src:
        raise LabError("non-composable")
    return mor(g.src, f.dst, {x: f(g(x)) for x in g.src.carrier})


def hom_set(a: FinObj, b: FinObj) -> list[FinMor]:
    """All morphisms a -> b, by filtering every total function."""
    if a.kind != b.kind:
        raise LabError("morphism across categories")
    atoms = a.carrier
    out = []
    for values in itertools.product(b.carrier, repeat=len(atoms)):
        mapping = dict(zip(atoms, values))
        if preserves_structure(a, b, mapping):
            out.append(FinMor(a, b, tuple(sorted(mapping.items()))))
    return out


# ---------------------------------------------------------------------------
# Limits and colimits


def initial(kind: str) -> FinObj:
    return rere_obj(()) if kind == RERE else spap_obj(())


def terminal(kind: str) -> FinObj:
    if kind == RERE:
        return rere_obj((0,))
    return spap_obj((0,), [(), (0,)])


class ProductData(Record):
    """The product object and its projections."""

    __slots__ = __match_args__ = ("obj", "proj1", "proj2")


def product(a: FinObj, b: FinObj) -> ProductData:
    pairs = [(x, y) for x in a.carrier for y in b.carrier]
    atom_of = {p: i for i, p in enumerate(pairs)}
    carrier = tuple(range(len(pairs)))
    if a.kind == RERE:
        structure = frozenset(
            (atom_of[(x, y)], atom_of[(x2, y2)])
            for (x, y) in pairs
            for (x2, y2) in pairs
            if (x, x2) in a.structure and (y, y2) in b.structure
        )
    else:
        structure = frozenset(
            frozenset(atom_of[p] for p in subset)
            for subset in _subsets(pairs)
            if frozenset(x for x, _ in subset) in a.structure
            and frozenset(y for _, y in subset) in b.structure
        )
    obj = FinObj(a.kind, carrier, structure)
    p1 = mor(obj, a, {atom_of[(x, y)]: x for (x, y) in pairs})
    p2 = mor(obj, b, {atom_of[(x, y)]: y for (x, y) in pairs})
    return ProductData(obj, p1, p2)


def _subsets(items: Sequence):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def full_subobject(obj: FinObj, subset: Iterable[int]) -> FinObj:
    """The regular-subobject structure induced on a subset of the carrier."""
    atoms = frozenset(subset)
    if obj.kind == RERE:
        structure = frozenset(
            (x, y) for (x, y) in obj.structure if x in atoms and y in atoms
        )
    else:
        structure = frozenset(a for a in obj.structure if a <= atoms)
    return FinObj(obj.kind, tuple(sorted(atoms)), structure)


class EqualizerData(Record):
    __slots__ = __match_args__ = ("obj", "include")


def equalizer(f: FinMor, g: FinMor) -> EqualizerData:
    if f.src != g.src or f.dst != g.dst:
        raise LabError("not a parallel pair")
    atoms = [x for x in f.src.carrier if f(x) == g(x)]
    obj = full_subobject(f.src, atoms)
    return EqualizerData(obj, mor(obj, f.src, {x: x for x in atoms}))


class CoproductData(Record):
    __slots__ = __match_args__ = ("obj", "inj1", "inj2")


def coproduct(a: FinObj, b: FinObj) -> CoproductData:
    la = len(a.carrier)
    left = {x: i for i, x in enumerate(a.carrier)}
    right = {y: la + i for i, y in enumerate(b.carrier)}
    carrier = tuple(range(la + len(b.carrier)))
    if a.kind == RERE:
        structure = frozenset(
            {(left[x], left[y]) for (x, y) in a.structure}
            | {(right[x], right[y]) for (x, y) in b.structure}
        )
    else:
        structure = frozenset(
            {frozenset(left[x] for x in s) for s in a.structure}
            | {frozenset(right[x] for x in s) for s in b.structure}
        )
    obj = FinObj(a.kind, carrier, structure)
    i1 = mor(a, obj, left)
    i2 = mor(b, obj, right)
    return CoproductData(obj, i1, i2)


def pullback(f: FinMor, g: FinMor) -> FinObj:
    """Pullback as an equalizer of a product span; used to test disjointness."""
    if f.dst != g.dst:
        raise LabError("not a cospan")
    prod = product(f.src, g.src)
    left = compose(f, prod.proj1)
    right = compose(g, prod.proj2)
    return equalizer(left, right).obj


# ---------------------------------------------------------------------------
# Isomorphism testing


def is_iso(m: FinMor) -> bool:
    values = [m(x) for x in m.src.carrier]
    if len(set(values)) != len(values) or set(values) != set(m.dst.carrier):
        return False
    inverse = {m(x): x for x in m.src.carrier}
    return preserves_structure(m.dst, m.src, inverse)


def subobject_iso(m1: FinMor, m2: FinMor) -> bool:
    """Do two monos into the same object present the same subobject?"""
    if m1.dst != m2.dst:
        return False
    if len(m1.src.carrier) != len(m2.src.carrier):
        return False
    for values in itertools.permutations(m2.src.carrier):
        mapping = dict(zip(m1.src.carrier, values))
        if any(m2(mapping[x]) != m1(x) for x in m1.src.carrier):
            continue
        if preserves_structure(m1.src, m2.src, mapping) and preserves_structure(
            m2.src, m1.src, {v: k for k, v in mapping.items()}
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Object pools for exhaustive searches


def all_objects(kind: str, max_size: int = 2) -> list[FinObj]:
    out = []
    for size in range(max_size + 1):
        atoms = tuple(range(size))
        if kind == RERE:
            off_diag = [(x, y) for x in atoms for y in atoms if x != y]
            for edges in _subsets(off_diag):
                out.append(rere_obj(atoms, edges))
        else:
            for family in _subsets(list(_subsets(atoms))):
                out.append(spap_obj(atoms, [frozenset(s) for s in family]))
    return out


@functools.cache
def _probe_pool(kind: str) -> tuple[FinObj, ...]:
    """Every object on at most two atoms, built on first use."""
    return tuple(all_objects(kind, 2))


@functools.cache
def _coarseness_pool() -> tuple[FinObj, ...]:
    # most off-diagonal edges first: a set-function out of a discrete probe
    # preserves every reflexive relation, so only probes with edges can reject
    probes = _probe_pool(RERE) + (indiscrete(range(3)),)
    return tuple(sorted(probes, key=lambda p: len(p.carrier) - len(p.structure)))


def is_regular_mono(m: FinMor) -> bool:
    """Is the mono an equalizer of some parallel pair?  Exhaustive over a
    pool of small codomains."""
    if len({m(x) for x in m.src.carrier}) != len(m.src.carrier):
        raise LabError("not a monomorphism")
    for w in _probe_pool(m.src.kind):
        homs = hom_set(m.dst, w)
        for h in homs:
            for k in homs:
                eq = equalizer(h, k)
                if subobject_iso(m, eq.include):
                    return True
    return False


def regular_hull(m: FinMor) -> FinObj:
    """The smallest regular subobject containing the image: the full
    substructure on it."""
    return full_subobject(m.dst, m.image(m.src.carrier))


# ---------------------------------------------------------------------------
# Coarseness and the naturals fragment


def is_coarse(a: FinObj) -> bool:
    """Does every singleton-valued family admit a choice morphism?

    Families over a probe object P are graphs of set-functions P -> a,
    carried as full (hence regular) subobjects of P x a; a choice
    morphism exists exactly if the underlying set-function preserves
    structure.  The probe pool is exhaustive at small size; its order only
    decides how soon a failing set-function is found.
    """
    if a.kind != RERE:
        raise LabError("coarseness probing is defined for the relation category")
    for p in _coarseness_pool():
        # every probe's carrier is range(n), so the value tuple is the mapping
        for values in itertools.product(a.carrier, repeat=len(p.carrier)):
            if not preserves_structure(p, a, values):
                return False
    return True


def relation_classes(size: int):
    """One off-diagonal edge list per isomorphism class of reflexive
    relations on ``range(size)``.

    Edge i of the off-diagonal pairs is bit i of a mask; each class is
    represented by the least mask of its orbit under the relabellings.
    The masks are walked in increasing order, so an unseen mask is the
    least of its orbit: it is yielded, and its image under every
    permutation of the atoms is marked seen.
    """
    atoms = range(size)
    off = [(x, y) for x in atoms for y in atoms if x != y]
    bit = {e: 1 << i for i, e in enumerate(off)}
    # images[k][i]: the bit of edge i's image under the k-th permutation
    images = [[bit[(s[x], s[y])] for x, y in off] for s in itertools.permutations(atoms)]
    seen = bytearray(1 << len(off))
    for mask in range(len(seen)):
        if seen[mask]:
            continue
        ones = [i for i in range(len(off)) if mask >> i & 1]
        yield [off[i] for i in ones]
        for image in images:
            # a permutation maps distinct edges to distinct bits
            seen[sum(image[i] for i in ones)] = 1


def coarseness_counterexample(max_size: int = 4) -> FinObj | None:
    """A reflexive relation on at most ``max_size`` atoms whose coarseness
    differs from its indiscreteness, or None if every one agrees.

    One relation per isomorphism class is enough: a bijection s of the
    atoms of a relation a maps the structure-preserving set-functions
    P -> a one to one onto those P -> s(a), so it preserves coarseness,
    and it preserves having every edge.
    """
    for size in range(max_size + 1):
        atoms = tuple(range(size))
        diag = frozenset((x, x) for x in atoms)
        for edges in relation_classes(size):
            o = FinObj(RERE, atoms, diag.union(edges))
            if is_coarse(o) != (len(edges) == size * (size - 1)):
                return o
    return None


class NnoFragmentReport(Record):
    __slots__ = __match_args__ = (
        "discrete_not_coarse", "discrete_unique_counts", "indiscrete_unique_counts"
    )

    @property
    def discrete_initiality_ok(self) -> bool:
        return all(c == 1 for c in self.discrete_unique_counts)

    @property
    def indiscrete_fails(self) -> bool:
        return any(c != 1 for c in self.indiscrete_unique_counts)


def _algebra_morphism_count(n_obj: FinObj, b: FinObj, zero: int, suc: dict[int, int]) -> int:
    """Morphisms out of the truncated naturals determined by the 0/suc clauses."""
    count = 0
    # the carrier is range(n), so the value tuple is the set-function
    for values in itertools.product(b.carrier, repeat=len(n_obj.carrier)):
        if (
            values[0] == zero
            and all(suc[v] == w for v, w in zip(values, values[1:]))
            and preserves_structure(n_obj, b, values)
        ):
            count += 1
    return count


def nno_fragment_check(size: int = 6) -> NnoFragmentReport:
    """Bounded initiality evidence for the discrete naturals truncation."""
    n_disc = discrete(range(size))
    n_ind = indiscrete(range(size))
    algebras = [
        (discrete(range(2)), 0, {0: 1, 1: 0}),
        (indiscrete(range(2)), 0, {0: 1, 1: 1}),
        (discrete(range(3)), 0, {0: 1, 1: 2, 2: 2}),
        (terminal(RERE), 0, {0: 0}),
    ]
    return NnoFragmentReport(
        discrete_not_coarse=not is_coarse(n_disc),
        discrete_unique_counts=[
            _algebra_morphism_count(n_disc, b, z, s) for b, z, s in algebras
        ],
        indiscrete_unique_counts=[
            _algebra_morphism_count(n_ind, b, z, s) for b, z, s in algebras
        ],
    )


# ---------------------------------------------------------------------------
# Comparing extended polynomial functors with general polynomial ones


class FunctorComparison(Record):
    __slots__ = __match_args__ = ("ext_card", "general_card")

    @property
    def isomorphic(self) -> bool:
        return self.ext_card == self.general_card


def mtype_vs_extpoly_compare(b_left, b_right, x) -> FunctorComparison:
    """Evaluate ``(B_l -> X) + (B_r -> X)`` against ``P_q(X)`` on laboratory
    objects, counting elements of both; a mismatch certifies that general
    polynomial functors do not subsume extended polynomial ones here.
    """
    f_card = len(hom_set(b_left, x)) + len(hom_set(b_right, x))
    b = coproduct(b_left, b_right).obj
    pq_card = 0
    for side in (0, 1):
        size = len((b_left if side == 0 else b_right).carrier)
        offset = 0 if side == 0 else len(b_left.carrier)
        fiber = frozenset(range(offset, offset + size))
        dom = full_subobject(b, fiber)
        pq_card += len(hom_set(dom, x))
    return FunctorComparison(f_card, pq_card)


# ---------------------------------------------------------------------------
# The certifications behind ``lab``


def certify(which: str) -> list[CheckResult]:
    """The checks of ``lab rere``, ``lab spap`` or ``lab mtypes``."""
    out = []
    if which == "rere":
        zero, one = initial(RERE), terminal(RERE)
        m = hom_set(zero, one)[0]
        out.append(check("lab.rere.zero-to-one-regular", is_regular_mono(m)))
        o = coarseness_counterexample()
        detail = f"counterexample: {o!r}" if o is not None else ""
        out.append(check("lab.rere.coarse-iff-indiscrete", o is None, detail))
        nno = nno_fragment_check()
        out.append(check("lab.rere.nno-discrete-not-coarse", nno.discrete_not_coarse))
        out.append(check("lab.rere.nno-bounded-initiality", nno.discrete_initiality_ok))
        out.append(check("lab.rere.nno-indiscrete-fails", nno.indiscrete_fails))
    if which == "spap":
        zero, one = initial(SPAP), terminal(SPAP)
        m = hom_set(zero, one)[0]
        regular = is_regular_mono(m)
        hull = regular_hull(m)
        witness_ok = hull == spap_obj((), [()])
        out.append(
            check(
                "lab.spap.zero-to-one-not-regular",
                not regular and witness_ok,
                f"regular subobject witness: carrier={hull.carrier} family={sorted(map(sorted, hull.structure))}",
            )
        )
        c = coproduct(one, one)
        pb = pullback(c.inj1, c.inj2)
        disjoint = any(is_iso(f) for f in hom_set(pb, zero))
        out.append(check("lab.spap.coproduct-not-disjoint", not disjoint))
    if which == "mtypes":
        one = terminal(SPAP)
        one_empty = spap_obj((0,), [])
        cmp = mtype_vs_extpoly_compare(one, one_empty, one_empty)
        out.append(
            check(
                "lab.mtypes.counterexample",
                cmp.ext_card >= 1 and cmp.general_card == 0,
                f"|F(1_0)|={cmp.ext_card}, |P_q(1_0)|={cmp.general_card}",
            )
        )
        agree = mtype_vs_extpoly_compare(one, one, one_empty)
        out.append(check("lab.mtypes.disjoint-fibers-agree", agree.isomorphic))
    return out
