import pytest
from hypothesis import given, strategies as st

from quasikernel.functors import (
    Const,
    ExpConst,
    ExtPolyNF,
    Id,
    NotExtendedPolynomial,
    NotPolynomial,
    PolyNF,
    ProdF,
    SumF,
    TagOutOfRange,
    bot,
    decode_sum_triple,
    encode_sum_as_triple,
    ext_unvalue,
    ext_value,
    fmap,
    inject,
    outl,
    outr,
    poly_unvalue,
    poly_value,
    project,
    sumcase,
    to_extpoly_nf,
    to_poly_nf,
    triple_copair,
    triple_pattern_ok,
)
from quasikernel.kernel import (
    FALSE,
    TRUE,
    UNDEF,
    UNIT,
    Bool,
    FinMapV,
    InlV,
    InrV,
    Nat,
    PairV,
    Sum,
    Unit,
    Zero,
    apply_pval,
    enumerate_ty,
    eq_strong,
    finmap,
    inl,
    inr,
    is_true,
    nat,
    product_choices,
    ty_card,
)

A = Bool()  # a stand-in 2-element parameter type

LIST_F = SumF(Const(Unit()), ProdF(Const(A), Id()))
PROC_F = SumF(ProdF(Const(A), Id()), ProdF(Id(), Id()))


# independent oracle: enumerate F X directly from the syntax tree
def sig_enumerate(f, xs):
    match f:
        case Id():
            return list(xs)
        case Const(ty):
            return enumerate_ty(ty, nat_bound=2)
        case SumF(l, r):
            return [InlV(v) for v in sig_enumerate(l, xs)] + [
                InrV(v) for v in sig_enumerate(r, xs)
            ]
        case ProdF(l, r):
            return [
                PairV(a, b)
                for a in sig_enumerate(l, xs)
                for b in sig_enumerate(r, xs)
            ]
        case ExpConst(exp, Id()):
            dom = enumerate_ty(exp, nat_bound=2)
            out = []

            def go(i, acc):
                if i == len(dom):
                    out.append(finmap(zip(dom, acc)))
                    return
                for x in xs:
                    go(i + 1, acc + [x])

            go(0, [])
            return out
    raise AssertionError(f)


# every encoded F X value with X-components drawn from xs, the instrument
# of the fmap law tests
def poly_values(nf, xs):
    return [
        poly_value(nf, i, p, list(children))
        for i, (a, k) in enumerate(nf.summands)
        for p in enumerate_ty(a, 4)
        for children in product_choices(xs, k)
    ]


def ext_values(nf, xs):
    out = []
    for i, (a, b) in enumerate(nf.summands):
        dom = enumerate_ty(b, 4)
        for p in enumerate_ty(a, 4):
            out += [ext_value(nf, i, p, finmap(zip(dom, c))) for c in product_choices(xs, len(dom))]
    return out


class TestPolyNF:
    def test_list_functor(self):
        assert to_poly_nf(LIST_F) == PolyNF(((Unit(), 0), (A, 1)))

    def test_identity(self):
        assert to_poly_nf(Id()) == PolyNF(((Zero(), 0), (Unit(), 1)))

    def test_proc_functor(self):
        assert to_poly_nf(PROC_F) == PolyNF(((Zero(), 0), (A, 1), (Unit(), 2)))

    def test_rejects_exponentials(self):
        with pytest.raises(NotPolynomial):
            to_poly_nf(ExpConst(Bool(), Id()))

    @pytest.mark.parametrize("x_card", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "f",
        [
            LIST_F,
            PROC_F,
            Id(),
            Const(Bool()),
            ProdF(SumF(Const(Unit()), Id()), SumF(Const(Bool()), Id())),
            SumF(SumF(Const(Unit()), Const(Bool())), ProdF(Id(), Const(A))),
        ],
    )
    def test_cardinality_preserved(self, f, x_card):
        xs = [nat(i) for i in range(x_card)]
        oracle = len(sig_enumerate(f, xs))
        # the normal form A_0 + A_1 X^k_1 + ... has sum |A_i| x^k_i elements
        nf = to_poly_nf(f)
        assert sum(ty_card(a) * x_card**k for a, k in nf.summands) == oracle

    @given(
        st.recursive(
            st.sampled_from([Id(), Const(Unit()), Const(Bool()), Const(Zero())]),
            lambda kids: st.one_of(
                st.tuples(kids, kids).map(lambda ab: SumF(*ab)),
                st.tuples(kids, kids).map(lambda ab: ProdF(*ab)),
            ),
            max_leaves=5,
        ),
        st.integers(0, 3),
    )
    def test_cardinality_preserved_on_generated_functors(self, f, x_card):
        xs = [nat(i) for i in range(x_card)]
        nf = to_poly_nf(f)
        assert sum(ty_card(a) * x_card**k for a, k in nf.summands) == len(sig_enumerate(f, xs))


class TestExtPolyNF:
    def test_product_of_exponentials(self):
        b, b2 = Bool(), Unit()
        nf = to_extpoly_nf(ProdF(ExpConst(b, Id()), ExpConst(b2, Id())))
        assert nf == ExtPolyNF((((Unit(), Sum(b, b2))),))

    def test_identity_takes_exponent_one(self):
        assert to_extpoly_nf(Id()) == ExtPolyNF(((Unit(), Unit()),))

    def test_proc_functor(self):
        nf = to_extpoly_nf(PROC_F)
        assert nf == ExtPolyNF(((A, Unit()), (Unit(), Sum(Unit(), Unit()))))

    def test_rejects_bad_exponential_body(self):
        with pytest.raises(NotExtendedPolynomial):
            to_extpoly_nf(ExpConst(Bool(), ProdF(Id(), Id())))

    @pytest.mark.parametrize(
        "f",
        [
            PROC_F,
            Id(),
            ProdF(ExpConst(Bool(), Id()), ExpConst(Unit(), Id())),
            SumF(Const(Bool()), ExpConst(Bool(), Id())),
        ],
    )
    def test_cardinality_on_two_element_x(self, f):
        xs = [nat(0), nat(1)]
        oracle = len(sig_enumerate(f, xs))
        # A_0 x (B_0 -> X) + ... has sum |A_i| |X|^|B_i| elements
        nf = to_extpoly_nf(f)
        assert sum(ty_card(a) * len(xs) ** ty_card(b) for a, b in nf.summands) == oracle

    @given(
        st.recursive(
            st.sampled_from(
                [
                    Id(),
                    Const(Unit()),
                    Const(Bool()),
                    ExpConst(Unit(), Id()),
                    ExpConst(Bool(), Id()),
                ]
            ),
            lambda kids: st.one_of(
                st.tuples(kids, kids).map(lambda ab: SumF(*ab)),
                st.tuples(kids, kids).map(lambda ab: ProdF(*ab)),
            ),
            max_leaves=4,
        )
    )
    def test_cardinality_on_generated_extended_functors(self, f):
        xs = [nat(0), nat(1)]
        nf = to_extpoly_nf(f)
        card = sum(ty_card(a) * len(xs) ** ty_card(b) for a, b in nf.summands)
        assert card == len(sig_enumerate(f, xs))


class TestInjections:
    def test_round_trip(self):
        for n in range(1, 5):
            for i in range(n):
                v = inject(i, n, nat(i))
                assert project(v, n) == (i, nat(i))

    def test_tag_out_of_range(self):
        with pytest.raises(TagOutOfRange):
            inject(3, 3, UNIT)

    def test_undefined_payload_propagates(self):
        assert inject(1, 3, UNDEF) == UNDEF

    def test_poly_value_is_strict(self):
        nf = PolyNF(((Unit(), 0), (Bool(), 2)))
        assert poly_value(nf, 1, TRUE, [nat(0), nat(1)]) != UNDEF
        assert poly_value(nf, 1, TRUE, [nat(0), UNDEF]) == UNDEF
        assert poly_value(nf, 1, TRUE, [UNDEF, nat(1)]) == UNDEF
        assert poly_value(nf, 1, UNDEF, [nat(0), nat(1)]) == UNDEF


class TestFmap:
    nf = to_poly_nf(LIST_F)

    def xs(self):
        return [nat(0), nat(1), nat(2)]

    def test_touches_only_x_positions(self):
        suc = lambda v: nat(v.n + 1)
        v = poly_value(self.nf, 1, TRUE, [nat(3)])
        out = fmap(self.nf, suc, v)
        assert poly_unvalue(self.nf, out) == (1, TRUE, [nat(4)])

    def test_identity_law(self):
        for v in poly_values(self.nf, self.xs()):
            assert is_true(eq_strong(fmap(self.nf, lambda x: x, v), v))

    def test_composition_law(self):
        f = lambda v: nat(v.n + 1)
        g = lambda v: nat(v.n * 2)
        for v in poly_values(self.nf, self.xs()):
            lhs = fmap(self.nf, lambda x: g(f(x)), v)
            rhs = fmap(self.nf, g, fmap(self.nf, f, v))
            assert is_true(eq_strong(lhs, rhs))

    def test_ext_laws(self):
        nf = to_extpoly_nf(PROC_F)
        f = lambda v: nat(v.n + 1)
        g = lambda v: nat(v.n * 2)
        for v in ext_values(nf, [nat(0), nat(1)]):
            assert is_true(eq_strong(fmap(nf, lambda x: x, v), v, 3))
            lhs = fmap(nf, lambda x: g(f(x)), v)
            rhs = fmap(nf, g, fmap(nf, f, v))
            assert is_true(eq_strong(lhs, rhs, 3))

    def test_undefined_propagates(self):
        assert fmap(self.nf, lambda x: x, UNDEF) == UNDEF


class TestSumcase:
    def test_applies_left(self):
        assert sumcase(lambda v: nat(v.n + 1), lambda v: v, inl(nat(2))) == nat(3)

    def test_strict(self):
        assert sumcase(lambda v: v, lambda v: v, UNDEF) == UNDEF

    def test_copair_of_injections_is_identity(self):
        for v in enumerate_ty(Sum(Bool(), Bool())):
            assert sumcase(inl, inr, v) == v

    def test_uniqueness_both_directions(self):
        # over all h : Bool -> {0,1,2} (as tables), h = sumcase f g iff the
        # two agreement clauses hold
        dom = enumerate_ty(Bool())
        carrier = [nat(i) for i in range(3)]
        f = lambda _: nat(1)
        g = lambda _: nat(2)
        tables = [
            finmap({dom[0]: a, dom[1]: b}) for a in carrier for b in carrier
        ]
        for h in tables:
            agrees = apply_pval(h, inl(UNIT)) == f(UNIT) and apply_pval(
                h, inr(UNIT)
            ) == g(UNIT)
            same = all(
                apply_pval(h, v) == sumcase(f, g, v) for v in dom
            )
            assert agrees == same


class TestTripleEncoding:
    def test_encode_inl(self):
        t = encode_sum_as_triple(inl(nat(4)))
        x, rest = t.fst, t.snd
        assert apply_pval(x, UNIT) == nat(4)
        assert apply_pval(rest.fst, UNIT) == UNDEF
        assert rest.snd == TRUE

    def test_encode_inr(self):
        t = encode_sum_as_triple(inr(UNIT))
        assert apply_pval(t.fst, UNIT) == UNDEF
        assert apply_pval(t.snd.fst, UNIT) == UNIT
        assert t.snd.snd == FALSE

    def test_round_trip_on_bool(self):
        for v in enumerate_ty(Bool()):
            assert decode_sum_triple(encode_sum_as_triple(v)) == v

    def test_round_trip_on_larger_sum(self):
        for v in enumerate_ty(Sum(Bool(), Nat()), nat_bound=3):
            assert decode_sum_triple(encode_sum_as_triple(v)) == v

    def test_definedness_pattern(self):
        for v in enumerate_ty(Sum(Bool(), Bool())):
            assert triple_pattern_ok(encode_sum_as_triple(v))

    def test_copair_through_triple_equals_sumcase(self):
        f = lambda v: PairV(v, nat(0))
        g = lambda v: PairV(v, nat(1))
        for v in enumerate_ty(Sum(Bool(), Bool())):
            assert triple_copair(f, g, encode_sum_as_triple(v)) == sumcase(f, g, v)


class TestFmapSumDistribution:
    def test_fmap_distributes_over_the_tag_structure(self):
        # mapping commutes with the injections: sumcase of the per-summand
        # maps agrees with fmap on the flattened encoding
        nf = to_poly_nf(PROC_F)
        f = lambda v: nat(v.n + 1)
        for v in poly_values(nf, [nat(0), nat(1)]):
            i, _, _ = poly_unvalue(nf, v)
            out = fmap(nf, f, v)
            j, _, _ = poly_unvalue(nf, out)
            assert i == j


class TestBot:
    def test_bot_is_undefined_at_unit(self):
        assert apply_pval(bot(), UNIT) == UNDEF

    def test_outl_on_wrong_side(self):
        assert outl(inr(nat(1))) == UNDEF
        assert outr(inl(nat(1))) == UNDEF
        assert outl(inl(nat(1))) == nat(1)
