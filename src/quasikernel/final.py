"""Constructed final coalgebras: infinite trees as partial path maps.

Elements are procedural partial maps from paths over the summed
exponent type to the summed parameter type, plus (when produced by
unfold) the generating coalgebra and seed as a witness.  Elements are
genuinely infinite, so equality is bounded observational equivalence at
a configurable depth; exponent types must be finitely enumerable for
observation to be effective (an implementation bound, not a semantic
one).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .functors import ExtPolyNF, ext_value, inject, project
from .kernel import (
    UNDEF,
    UNIT,
    FinMapV,
    InlV,
    InrV,
    NonEnumerableType,
    PairV,
    PVal,
    QuasiError,
    Record,
    apply_pval,
    decode_path,
    encode_path,
    enumerate_ty,
    eq_strong,
    finmap,
    is_true,
    pfun,
    product_choices,
    set_field,
    ty_card,
)


class NonEnumerableExponent(QuasiError):
    pass


class DomainMismatch(QuasiError):
    """A cotype-case branch is defined or undefined off its own summand."""


class NonDisjointFibers(QuasiError):
    pass


BPath = tuple[PVal, ...]


def _as_ptree(value_at: Callable[[BPath], PVal], witness=None) -> PVal:
    """A process tree observing ``value_at`` once per path.

    ``FinalCoalgebra.observe`` calls the tuple-path observer kept on the
    tree; applying the tree to an ``encode_path`` value decodes it first.
    """
    memo: dict[BPath, PVal] = {}

    def observe(path: BPath) -> PVal:
        v = memo.get(path)
        if v is None:
            v = memo[path] = value_at(path)
        return v

    tree = pfun(lambda path_pval: observe(decode_path(path_pval)))
    object.__setattr__(tree, "_observe", observe)
    if witness is not None:
        object.__setattr__(tree, "_witness", witness)
    return tree


def ptree_witness(tree: PVal):
    return getattr(tree, "_witness", None)


def subtree(handle, tree: PVal, label: PVal) -> PVal:
    """The subtree of ``tree`` under one more label, observed through ``handle``.

    A subtree of a subtree observes the outermost tree under the whole
    label prefix, so a nest of k subtrees costs O(k) per observation.
    """
    owner, root, prefix = getattr(tree, "_under", (None, tree, ()))
    if owner is not handle:
        root, prefix = tree, ()
    prefix += (label,)
    out = _as_ptree(lambda p: handle.observe(root, prefix + p))
    object.__setattr__(out, "_under", (handle, root, prefix))
    return out


class FinalCoalgebra:
    """Process type constructed for an extended polynomial signature."""

    def __init__(self, nf: ExtPolyNF):
        self.nf = nf
        self.n = len(nf.summands)
        try:
            for _, b in nf.summands:
                ty_card(b)  # exponents must be genuinely finite
            self.exponent_values = [enumerate_ty(b) for _, b in nf.summands]
        except NonEnumerableType as e:
            raise NonEnumerableExponent(str(e))
        # labels of B = sum of the exponent types
        self.b_labels = [
            inject(i, self.n, y)
            for i, ys in enumerate(self.exponent_values)
            for y in ys
        ]

    # ---- observation ------------------------------------------------------

    def observe(self, tree: PVal, path: BPath) -> PVal:
        observe = getattr(tree, "_observe", None)
        if observe is None:
            return apply_pval(tree, encode_path(path))
        return observe(path)

    def paths_up_to(self, depth: int) -> list[BPath]:
        out: list[BPath] = [()]
        frontier: list[BPath] = [()]
        for _ in range(depth):
            frontier = [p + (b,) for p in frontier for b in self.b_labels]
            out.extend(frontier)
        return out

    def tree_eq(self, t1: PVal, t2: PVal, depth: int = 4) -> bool:
        """Bounded observational equivalence on all paths up to the depth."""
        return all(
            is_true(eq_strong(self.observe(t1, p), self.observe(t2, p), depth))
            for p in self.paths_up_to(depth)
        )

    # ---- the coalgebra structure -------------------------------------------

    def structure_map(self, tree: PVal) -> PVal:
        """One observation step: the root label and the family of subtrees."""
        root = self.observe(tree, ())
        if not root.defined():
            return UNDEF
        i, x = project(root, self.n)
        under = pfun(
            lambda y: subtree(self, tree, inject(i, self.n, y)), dom=self.nf.summands[i][1]
        )
        return ext_value(self.nf, i, x, under)

    def unfold(self, d: Callable, z) -> PVal:
        """The unique morphism from a coalgebra ``d`` with seed ``z``.

        ``d`` maps a seed to ``(summand index, parameter, successor map)``;
        paths whose label disagrees with the summand offered at that point
        are undefined.
        """

        def value_at(path: BPath) -> PVal:
            seed = z
            for label in path:
                i, _, g = d(seed)
                j, y = project(label, self.n)
                if j != i:
                    return UNDEF
                seed = g(y)
            i, x, _ = d(seed)
            return inject(i, self.n, x)

        return _as_ptree(value_at, witness=(d, z))

    # ---- carrier membership -------------------------------------------------

    def membership_failures(self, tree: PVal, depth: int = 4) -> list[str]:
        """Check the two defining conditions on all paths up to the depth."""
        failures = []
        if not self.observe(tree, ()).defined():
            failures.append("root observation undefined")
        for p in self.paths_up_to(depth - 1):
            at_p = self.observe(tree, p)
            tag = None
            if at_p.defined():
                tag, _ = project(at_p, self.n)
            for i in range(self.n):
                for y in self.exponent_values[i]:
                    ext = self.observe(tree, p + (inject(i, self.n, y),))
                    should = tag == i
                    if ext.defined() != should:
                        failures.append(
                            f"path {p!r} extended by summand {i}: "
                            f"defined={ext.defined()} expected={should}"
                        )
        return failures

    # ---- cotype partial case -------------------------------------------------

    def cotype_case(
        self,
        branches: Sequence[Callable[[PVal], PVal]],
        samples: Sequence[PVal],
    ) -> Callable[[PVal], PVal]:
        """Copair partial branches whose domains are the summand domains.

        Each branch must be defined exactly on the trees carrying its own
        tag, checked on the samples; the result extends all branches.
        """
        for t in samples:
            root = self.observe(t, ())
            if not root.defined():
                raise DomainMismatch("sample outside the carrier")
            tag, _ = project(root, self.n)
            for i, f in enumerate(branches):
                if f(t).defined() != (i == tag):
                    raise DomainMismatch(
                        f"branch {i} {'undefined' if i == tag else 'defined'} "
                        f"on a tag-{tag} sample"
                    )

        def h(t: PVal) -> PVal:
            root = self.observe(t, ())
            if not root.defined():
                return UNDEF
            tag, _ = project(root, self.n)
            return branches[tag](t)

        return h


# ---------------------------------------------------------------------------
# M-types over finite signatures


class MSignature(Record):
    """A finite fiber map q : B -> A, given as disjoint fibers over the index."""

    __slots__ = __match_args__ = ("fibers",)

    def __init__(self, fibers: tuple[tuple[PVal, tuple[PVal, ...]], ...]):
        seen = set()
        for _, bs in fibers:
            for b in bs:
                if b in seen:
                    raise NonDisjointFibers(f"fiber element {b!r} repeated")
                seen.add(b)
        set_field(self, "fibers", fibers)

    @property
    def index(self) -> list[PVal]:
        return [a for a, _ in self.fibers]

    def fiber(self, a: PVal) -> tuple[PVal, ...]:
        for a2, bs in self.fibers:
            if a2 == a:
                return bs
        raise QuasiError(f"unknown index {a!r}")

    def q(self, b: PVal) -> Optional[PVal]:
        for a, bs in self.fibers:
            if b in bs:
                return a
        return None


class MType:
    """Final coalgebra for a general polynomial functor with finite fibers."""

    def __init__(self, sig: MSignature):
        self.sig = sig
        self.b_labels = [b for _, bs in sig.fibers for b in bs]

    observe = FinalCoalgebra.observe
    paths_up_to = FinalCoalgebra.paths_up_to

    def structure_map(self, tree: PVal) -> tuple[PVal, Callable[[PVal], PVal]]:
        """c f = (f nil, fun b . fun p . f (cons b p))."""
        return self.observe(tree, ()), lambda b: subtree(self, tree, b)

    def unfold(self, d: Callable, z) -> PVal:
        """d maps a seed to (index, successor map defined exactly on its fiber)."""

        def value_at(path: BPath) -> PVal:
            seed = z
            for b in path:
                a, g = d(seed)
                if self.sig.q(b) != a:
                    return UNDEF
                seed = g(b)
            a, _ = d(seed)
            return a

        return _as_ptree(value_at, witness=(d, z))

    def membership_failures(self, tree: PVal, depth: int = 4) -> list[str]:
        failures = []
        if not self.observe(tree, ()).defined():
            failures.append("root observation undefined")
        for p in self.paths_up_to(depth - 1):
            at_p = self.observe(tree, p)
            for b in self.b_labels:
                ext = self.observe(tree, p + (b,))
                should = at_p.defined() and self.sig.q(b) == at_p
                if ext.defined() != should:
                    failures.append(f"path {p!r} + {b!r}")
        return failures


# ---------------------------------------------------------------------------
# Comparing extended polynomial functors with general polynomial ones


def ambient_general_poly_values(
    bl_vals: Sequence[PVal], br_vals: Sequence[PVal], x_vals: Sequence[PVal]
) -> list[PVal]:
    """Elements of ``P_q(X)`` in the ambient model: pairs of a partial map on
    ``B = B_l + B_r`` defined exactly on one fiber, and the matching index."""
    out = []
    for side, fiber in ((0, bl_vals), (1, br_vals)):
        labels = [
            (InlV(v) if side == 0 else InrV(v)) for v in fiber
        ]
        for choice in product_choices(x_vals, len(labels)):
            f = finmap(zip(labels, choice))
            out.append(PairV(f, InlV(UNIT) if side == 0 else InrV(UNIT)))
    return out


def ambient_ext_values(
    bl_vals: Sequence[PVal], br_vals: Sequence[PVal], x_vals: Sequence[PVal]
) -> list[PVal]:
    """Elements of ``(B_l -> X) + (B_r -> X)`` in the ambient model."""
    out = []
    for side, fiber in ((0, bl_vals), (1, br_vals)):
        for choice in product_choices(x_vals, len(fiber)):
            f = finmap(zip(fiber, choice))
            out.append(InlV(f) if side == 0 else InrV(f))
    return out


def ambient_iso(v: PVal) -> PVal:
    """The displayed isomorphism, available because the ambient model has bot:
    extend the function by undefinedness onto the other fiber."""
    match v:
        case InlV(FinMapV(entries)):
            f = finmap({InlV(k): x for k, x in entries})
            return PairV(f, InlV(UNIT))
        case InrV(FinMapV(entries)):
            f = finmap({InrV(k): x for k, x in entries})
            return PairV(f, InrV(UNIT))
    raise QuasiError("not an extended-polynomial value")
