"""Signature functors, their two normal forms, and coproduct machinery.

A polynomial functor normalizes to a sum of monomials ``A_i x X^k_i``
with all constant summands collected into the first slot; an extended
polynomial functor normalizes to a sum of ``A_i x (B_i -> X)``.  Values
of ``F X`` are encoded as tagged injections flattened from binary sums,
with a canonical left-to-right summand order fixed by normalization.
"""

from __future__ import annotations

from typing import Callable

from .kernel import (
    FALSE,
    TRUE,
    UNDEF,
    UNIT,
    InlV,
    InrV,
    PairV,
    PVal,
    Prod,
    QuasiError,
    Record,
    Sum,
    Ty,
    TypeMismatch,
    Unit,
    Zero,
    apply_pval,
    finmap,
    fold_right,
    is_true,
    pair,
    pfun,
    set_field,
    show_pval,
    tuple_of,
    untuple,
)


class NotPolynomial(QuasiError):
    pass


class NotExtendedPolynomial(QuasiError):
    pass


class TagOutOfRange(QuasiError):
    pass


# ---------------------------------------------------------------------------
# Functor syntax


class SigFunctor(Record):
    __slots__ = ()


class Id(SigFunctor):
    __slots__ = ()


class Const(SigFunctor):
    __slots__ = __match_args__ = ("ty",)


class SumF(SigFunctor):
    __slots__ = __match_args__ = ("left", "right")


class ProdF(SigFunctor):
    __slots__ = __match_args__ = ("left", "right")


class ExpConst(SigFunctor):
    """Exponential with constant exponent; the body may only be the identity."""

    __slots__ = __match_args__ = ("exponent", "body")


# ---------------------------------------------------------------------------
# Normal forms


class PolyNF(Record):
    """Sum of ``A_i x X^k_i``; the single k=0 summand comes first."""

    __slots__ = __match_args__ = ("summands",)

    def __init__(self, summands: tuple[tuple[Ty, int], ...]):
        ks = [k for _, k in summands]
        if ks.count(0) != 1 or ks[0] != 0:
            raise NotPolynomial("collected-constants convention violated")
        set_field(self, "summands", summands)


class ExtPolyNF(Record):
    """Sum of ``A_i x (B_i -> X)``."""

    __slots__ = __match_args__ = ("summands",)


def _prod_ty(a: Ty, b: Ty) -> Ty:
    if a == Unit():
        return b
    if b == Unit():
        return a
    return Prod(a, b)


def _sum_exp(a: Ty, b: Ty) -> Ty:
    if a == Zero():
        return b
    if b == Zero():
        return a
    return Sum(a, b)


def _monomials(f: SigFunctor) -> list[tuple[list[Ty], int]]:
    match f:
        case Id():
            return [([], 1)]
        case Const(ty):
            return [([ty], 0)]
        case SumF(l, r):
            return _monomials(l) + _monomials(r)
        case ProdF(l, r):
            return [
                (cl + cr, kl + kr)
                for cl, kl in _monomials(l)
                for cr, kr in _monomials(r)
            ]
    raise NotPolynomial(f"non-polynomial node {f!r}")


def to_poly_nf(f: SigFunctor) -> PolyNF:
    """Normalize a polynomial functor, collecting all constants into one summand."""
    monos = [(fold_right(_prod_ty, Unit(), cs), k) for cs, k in _monomials(f)]
    constants = [a for a, k in monos if k == 0]
    rest = [(a, k) for a, k in monos if k > 0]
    return PolyNF(tuple([(fold_right(Sum, Zero(), constants), 0)] + rest))


def _ext_summands(f: SigFunctor) -> list[tuple[Ty, Ty]]:
    match f:
        case Id():
            return [(Unit(), Unit())]
        case Const(ty):
            return [(ty, Zero())]
        case ExpConst(exp, body):
            if body != Id():
                raise NotExtendedPolynomial("exponential body must be the identity")
            return [(Unit(), exp)]
        case SumF(l, r):
            return _ext_summands(l) + _ext_summands(r)
        case ProdF(l, r):
            return [
                (_prod_ty(al, ar), _sum_exp(bl, br))
                for al, bl in _ext_summands(l)
                for ar, br in _ext_summands(r)
            ]
    raise NotExtendedPolynomial(f"unsupported node {f!r}")


def to_extpoly_nf(f: SigFunctor) -> ExtPolyNF:
    """Normalize an extended polynomial functor to summed exponents."""
    return ExtPolyNF(tuple(_ext_summands(f)))


# ---------------------------------------------------------------------------
# Encoded F-values: tagged injections over the summand list


def inject(i: int, n: int, payload: PVal) -> PVal:
    if not 0 <= i < n:
        raise TagOutOfRange(f"tag {i} of {n}")
    if not payload.defined():
        return UNDEF
    if n == 1:
        return payload
    if i == 0:
        return InlV(payload)
    return InrV(inject(i - 1, n - 1, payload))


def project(v: PVal, n: int) -> tuple[int, PVal]:
    if n < 1:
        raise TagOutOfRange("empty sum has no values")
    i = 0
    while n > 1:
        match v:
            case InlV(x):
                return i, x
            case InrV(x):
                v, i, n = x, i + 1, n - 1
            case _:
                raise TagOutOfRange(f"not a {n}-ary injection: {show_pval(v)}")
    return i, v


def poly_value(nf: PolyNF, i: int, param: PVal, children: list[PVal]) -> PVal:
    """Strict: undefined when the parameter or any child is."""
    a, k = nf.summands[i]
    if len(children) != k:
        raise TagOutOfRange(f"summand {i} expects {k} children")
    if not all(c.defined() for c in children):
        return UNDEF
    return inject(i, len(nf.summands), pair(param, tuple_of(children)))


def poly_unvalue(nf: PolyNF, v: PVal) -> tuple[int, PVal, list[PVal]]:
    i, payload = project(v, len(nf.summands))
    if not isinstance(payload, PairV):
        raise TypeMismatch("malformed summand payload")
    _, k = nf.summands[i]
    return i, payload.fst, untuple(payload.snd, k)


def ext_value(nf: ExtPolyNF, i: int, param: PVal, fn: PVal) -> PVal:
    return inject(i, len(nf.summands), pair(param, fn))


def ext_unvalue(nf: ExtPolyNF, v: PVal) -> tuple[int, PVal, PVal]:
    i, payload = project(v, len(nf.summands))
    if not isinstance(payload, PairV):
        raise TypeMismatch("malformed summand payload")
    return i, payload.fst, payload.snd


# ---------------------------------------------------------------------------
# Map action


def fmap(nf: PolyNF | ExtPolyNF, g: Callable[[PVal], PVal], v: PVal) -> PVal:
    """Apply ``g`` in each X position of an encoded functor value."""
    if not v.defined():
        return UNDEF
    if isinstance(nf, PolyNF):
        i, param, children = poly_unvalue(nf, v)
        return poly_value(nf, i, param, [g(c) for c in children])
    i, param, fn = ext_unvalue(nf, v)
    b = nf.summands[i][1]
    mapped = pfun(lambda y, _f=fn: g(apply_pval(_f, y)), dom=b)
    return ext_value(nf, i, param, mapped)


def sumcase(f: Callable[[PVal], PVal], g: Callable[[PVal], PVal], v: PVal) -> PVal:
    """Copairing: ``f`` on left injections, ``g`` on right; strict in ``v``."""
    match v:
        case InlV(x):
            return f(x)
        case InrV(x):
            return g(x)
        case _ if not v.defined():
            return UNDEF
    raise TypeMismatch("sumcase on non-sum value")


# ---------------------------------------------------------------------------
# Coproducts via the triple encoding, and the partial constant bot


def bot() -> PVal:
    """Partial constant ``1 -/-> a``: undefined at ()."""
    return finmap({})


def encode_sum_as_triple(v: PVal) -> PVal:
    """Encode ``inl a``/``inr b`` as ``(x: 1 -/-> a, y: 1 -/-> b, z: Bool)``."""
    match v:
        case InlV(x):
            return PairV(finmap({UNIT: x}), PairV(bot(), TRUE))
        case InrV(y):
            return PairV(bot(), PairV(finmap({UNIT: y}), FALSE))
    raise TypeMismatch("triple encoding wants a sum value")


def decode_sum_triple(t: PVal) -> PVal:
    if not isinstance(t, PairV) or not isinstance(t.snd, PairV):
        raise TypeMismatch("malformed triple")
    x, y, z = t.fst, t.snd.fst, t.snd.snd
    if is_true(z):
        return InlV(apply_pval(x, UNIT))
    return InrV(apply_pval(y, UNIT))


def triple_pattern_ok(t: PVal) -> bool:
    """The definedness pattern of the encoding: def(x()) iff z, def(y()) iff not z."""
    if not isinstance(t, PairV) or not isinstance(t.snd, PairV):
        return False
    x, y, z = t.fst, t.snd.fst, t.snd.snd
    if z not in (TRUE, FALSE):
        return False
    return (apply_pval(x, UNIT).defined() == (z == TRUE)) and (
        apply_pval(y, UNIT).defined() == (z == FALSE)
    )


def triple_copair(f: Callable[[PVal], PVal], g: Callable[[PVal], PVal], t: PVal) -> PVal:
    """Copairing through the triple: if z then f (x ()) else g (y ())."""
    if not isinstance(t, PairV) or not isinstance(t.snd, PairV):
        raise TypeMismatch("malformed triple")
    x, y, z = t.fst, t.snd.fst, t.snd.snd
    if is_true(z):
        return f(apply_pval(x, UNIT))
    return g(apply_pval(y, UNIT))


def outl(v: PVal) -> PVal:
    """Partial left extraction, undefined on right injections."""
    return sumcase(lambda x: x, lambda _: apply_pval(bot(), UNIT), v)


def outr(v: PVal) -> PVal:
    return sumcase(lambda _: apply_pval(bot(), UNIT), lambda y: y, v)
