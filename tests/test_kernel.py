import copy
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from quasikernel.kernel import (
    FALSE,
    TRUE,
    UNDEF,
    UNIT,
    App,
    Bool,
    EMPTY_TRIE,
    FinMapV,
    Fuel,
    FuelExhausted,
    IncomparableTypes,
    InlV,
    InrV,
    Lam,
    Lit,
    Named,
    Nat,
    PVal,
    PairE,
    PairV,
    Partial,
    PathTrie,
    Prod,
    Record,
    Sum,
    Total,
    TypeMismatch,
    Undef,
    Unit,
    UnitV,
    NatV,
    UnboundName,
    Var,
    Zero,
    _sort_key,
    apply_pval,
    encode_path,
    enumerate_ty,
    eq_existential,
    eq_strong,
    eval_term,
    finmap,
    from_bool,
    holds,
    inl,
    inr,
    is_true,
    logical,
    nat,
    normalize_ty,
    pair,
    pfun,
    product_choices,
    show_pval,
    trie,
    trie_of_paths,
    tuple_of,
    ty_card,
    untuple,
)
from quasikernel.checks import CheckConfig
from quasikernel.cpo import NAT_FLAT, CpoDescriptor
from quasikernel.lab import FinObj, LabError, rere_obj
from quasikernel.surface import Alt, Decl, SelInfo


def fold_pairs(n, last):
    """``(0, (1, ... (n-1, last)))`` built by a loop."""
    v = last
    for i in reversed(range(n)):
        v = PairV(nat(i), v)
    return v


# independent oracle for existential equality on first-order values:
# structural recursion with the both-defined-and-equal clause at every node
def ref_existential(a, b):
    if isinstance(a, Undef) or isinstance(b, Undef):
        return False
    if isinstance(a, UnitV) and isinstance(b, UnitV):
        return True
    if isinstance(a, NatV) and isinstance(b, NatV):
        return a.n == b.n
    if isinstance(a, PairV) and isinstance(b, PairV):
        return ref_existential(a.fst, b.fst) and ref_existential(a.snd, b.snd)
    if isinstance(a, InlV) and isinstance(b, InlV):
        return ref_existential(a.value, b.value)
    if isinstance(a, InrV) and isinstance(b, InrV):
        return ref_existential(a.value, b.value)
    if type(a) is not type(b):
        return False
    raise NotImplementedError


SAMPLE_TYPES = [
    Unit(),
    Bool(),
    Nat(),
    Sum(Unit(), Nat()),
    Prod(Bool(), Nat()),
    Sum(Prod(Unit(), Bool()), Bool()),
]


# strict constructors only, so no improper values (pairs or injections
# containing an undefined component) can arise
pval_strategy = st.recursive(
    st.sampled_from([UNDEF, UNIT, nat(0), nat(1), nat(2), TRUE, FALSE]),
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda ab: pair(*ab)),
        kids.map(inl),
        kids.map(inr),
    ),
    max_leaves=6,
)


# values of every hash-consed class, flat tables and naturals above the
# interpreter's small-int cache among them; each large natural is a fresh
# int object, so equal ones are built apart
hashconsed_strategy = st.recursive(
    st.one_of(
        st.sampled_from([UNDEF, UNIT, TRUE, FALSE]),
        st.sampled_from([0, 2, 1000, 1001]).map(lambda n: nat(int(str(n)))),
    ),
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda ab: pair(*ab)),
        kids.map(inl),
        kids.map(inr),
        st.dictionaries(kids, kids, max_size=3).map(finmap),
    ),
    max_leaves=8,
)


# first-order types, tables among them; ``==`` is exact on their values
FIRST_ORDER_TYPES = [
    Unit(),
    Bool(),
    Nat(),
    Sum(Unit(), Nat()),
    Prod(Bool(), Nat()),
    Total(Bool(), Bool()),
    Partial(Bool(), Nat()),
    Sum(Total(Bool(), Bool()), Partial(Bool(), Unit())),
    Prod(Partial(Bool(), Bool()), Total(Unit(), Bool())),
]


def typed_value_strategy():
    return st.sampled_from(SAMPLE_TYPES).flatmap(
        lambda ty: st.tuples(
            st.sampled_from(enumerate_ty(ty, nat_bound=3)),
            st.sampled_from(enumerate_ty(ty, nat_bound=3)),
        )
    )


class TestEquality:
    def test_existential_rejects_two_undefined(self):
        assert eq_existential(UNDEF, UNDEF) == FALSE

    def test_existential_on_equal_naturals(self):
        assert eq_existential(nat(3), nat(3)) == TRUE

    def test_pair_with_undefined_component(self):
        w = PairV(nat(1), UNDEF)
        assert eq_existential(w, w) == FALSE

    def test_strong_accepts_two_undefined(self):
        assert eq_strong(UNDEF, UNDEF) == TRUE

    def test_strong_defined_vs_undefined(self):
        assert eq_strong(nat(3), UNDEF) == FALSE

    def test_distinct_tags(self):
        assert eq_strong(inl(UNIT), inr(UNIT)) == FALSE

    def test_matches_reference_oracle(self):
        for ty in SAMPLE_TYPES:
            vals = enumerate_ty(ty, nat_bound=3) + [UNDEF]
            for a in vals:
                for b in vals:
                    assert is_true(eq_existential(a, b)) == ref_existential(a, b)

    @given(typed_value_strategy())
    def test_strong_equals_existential_when_both_defined(self, ab):
        a, b = ab
        for depth in (1, 2, 4):
            assert eq_strong(a, b, depth) == eq_existential(a, b, depth)

    def test_incomparable_shapes(self):
        with pytest.raises(IncomparableTypes):
            eq_existential(nat(1), PairV(UNIT, UNIT))

    def test_pfun_bounded_extensional(self):
        f = pfun(lambda x: nat(x.n + 1), dom=Nat())
        g = pfun(lambda x: nat(x.n + 1), dom=Nat())
        h = pfun(lambda x: nat(x.n + 2), dom=Nat())
        assert eq_existential(f, g, depth=4) == TRUE
        assert eq_existential(f, h, depth=4) == FALSE

    def test_finmap_equality_is_exact(self):
        a = finmap({nat(0): nat(5), nat(1): nat(6)})
        b = finmap([(nat(1), nat(6)), (nat(0), nat(5))])
        c = finmap({nat(0): nat(5)})
        assert eq_strong(a, b) == TRUE
        assert eq_strong(a, c) == FALSE

    def test_strong_equality_is_eq_on_first_order_values(self):
        # values compare by constructor and payload and tables are canonical,
        # so at every depth strong equality is ``==``; b is built apart from a
        for ty in FIRST_ORDER_TYPES:
            for a in enumerate_ty(ty, nat_bound=3) + [UNDEF]:
                for b in enumerate_ty(ty, nat_bound=3) + [UNDEF]:
                    for depth in (0, 1, 4):
                        assert is_true(eq_strong(a, b, depth)) == (a == b)

    @given(pval_strategy, pval_strategy, st.sampled_from([0, 1, 4]))
    def test_strong_equality_is_eq_on_drawn_values(self, a, b, depth):
        try:
            strong = is_true(eq_strong(a, b, depth))
        except IncomparableTypes:  # different shapes, never ==
            strong = False
        assert (a == b) == strong
        assert is_true(eq_strong(a, copy.deepcopy(a), depth))

    def test_equal_tables_compare_without_lookups(self, monkeypatch):
        # a table is interned on its canonical entries, so two built apart
        # are one object; other tables are zipped in that order: one pass,
        # no lookup
        a = finmap({nat(i): nat(i % 7) for i in range(2000)})
        b = finmap([(nat(i), nat(i % 7)) for i in reversed(range(2000))])
        assert a is b
        lookups = []
        real = FinMapV.lookup

        def counting(self, key):
            lookups.append(key)
            return real(self, key)

        monkeypatch.setattr(FinMapV, "lookup", counting)
        assert eq_strong(a, b) == TRUE
        changed = finmap({**dict(b.entries), nat(1000): nat(7)})
        assert changed is not a
        assert eq_strong(a, changed) == FALSE
        assert lookups == []

    def test_deep_values_compare_without_recursion(self):
        # pairs and injections are interned: equal values built apart are one
        # object, and compare and hash without walking them
        def spine(n, last):
            v = last
            for i in range(n):
                v = InrV(PairV(NatV(i % 3), v))
            return v

        n = 100_000
        a, b = spine(n, nat(0)), spine(n, nat(0))
        assert a is b
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != spine(n, nat(1))
        assert a != spine(n, InlV(nat(0)))
        assert fold_pairs(n, UNIT) == fold_pairs(n, UNIT) != fold_pairs(n, TRUE)

    def test_deep_key_orders_and_compares_without_recursion(self):
        # _sort_key and eq_existential loop, as hashing and == do
        deep = nat(0)
        for _ in range(5000):
            deep = InlV(deep)
        table = finmap({deep: TRUE, nat(3): FALSE, InrV(UNIT): UNIT})
        assert table.keys() == [nat(3), deep, InrV(UNIT)]
        assert apply_pval(table, deep) == TRUE
        assert eq_existential(deep, deep) == TRUE
        with pytest.raises(IncomparableTypes):  # the innermost 0 meets an inl
            eq_existential(deep, InlV(deep))
        assert eq_existential(InlV(deep), InlV(InrV(UNIT))) == FALSE

    def test_finmap_vs_pfun(self):
        table = finmap({nat(0): nat(1), nat(1): nat(2), nat(2): nat(3)})
        proc = pfun(lambda x: nat(x.n + 1) if x.n < 3 else UNDEF, dom=Nat())
        assert eq_existential(table, proc, depth=3) == TRUE

    def test_pfun_without_domain_uses_canonical_samples(self):
        # no declared domain: compared on unit and small naturals
        f = pfun(lambda x: x)
        g = pfun(lambda x: x)
        h = pfun(lambda x: UNDEF if x == nat(2) else x)
        assert eq_existential(f, g, depth=3) == TRUE
        assert eq_existential(f, h, depth=3) == FALSE


class TestEval:
    def run(self, term, env=None, steps=1000):
        return eval_term(term, env or {}, Fuel(steps))

    def test_beta_needs_defined_argument(self):
        term = App(Lam("x", Var("x")), Lit(UNDEF))
        assert self.run(term) == UNDEF

    def test_constant_function(self):
        term = App(Lam("x", Lit(UNIT)), Lit(nat(3)))
        assert self.run(term) == UNIT

    def test_unbound_name(self):
        with pytest.raises(UnboundName):
            self.run(Var("nope"))

    def test_fuel_exhaustion_is_not_undefined(self):
        # self-application loops forever; the budget must turn that into an error
        omega = Lam("x", App(Var("x"), Var("x")))
        with pytest.raises(FuelExhausted):
            self.run(App(omega, omega), steps=500)

    def test_closure_does_not_spend_its_creators_budget(self):
        # a closure made under a small budget stays callable from evaluations
        # that each bring their own, however often it is called
        succ = Lit(pfun(lambda v: nat(v.n + 1)))
        f = eval_term(Lam("x", App(succ, Var("x"))), {}, Fuel(50))
        for _ in range(100):
            assert eval_term(App(Var("f"), Lit(nat(0))), {"f": f}, Fuel(1000)) == nat(1)

    def test_caller_is_charged_for_the_closure_body(self):
        succ = Lit(pfun(lambda v: nat(v.n + 1)))
        lam = Lam("x", App(succ, Var("x")))
        f = eval_term(lam, {}, Fuel(50))

        def spent(term, env):
            fuel = Fuel(1000)
            eval_term(term, env, fuel)
            return 1000 - fuel.steps

        direct = spent(App(lam, Lit(nat(0))), {})
        assert spent(App(Var("f"), Lit(nat(0))), {"f": f}) == direct
        # also when a builtin applies the closure on the caller's behalf:
        # five steps outside the body (two Apps, two Lits, one Var), then
        # the body twice; the body is what `direct` spends beyond App, Lam, Lit
        twice = pfun(lambda g: pfun(lambda x: apply_pval(g, apply_pval(g, x))))
        via_builtin = App(App(Lit(twice), Var("f")), Lit(nat(0)))
        assert spent(via_builtin, {"f": f}) == 5 + 2 * (direct - 3)

    def test_deterministic(self):
        swap = Lam("p", PairE(Var("q"), Var("p")))
        prog = App(Lam("q", App(swap, Lit(inl(nat(2))))), Lit(nat(0)))
        assert self.run(prog, steps=100) == self.run(prog, steps=100)

    def test_all_unary_formers_are_strict(self):
        undef = Lit(UNDEF)
        for term in (
            PairE(undef, Lit(nat(1))),
            PairE(Lit(nat(1)), undef),
            App(Lit(pfun(lambda v: v)), undef),
        ):
            assert self.run(term) == UNDEF

    def test_closure_arithmetic(self):
        succ = pfun(lambda v: nat(v.n + 1))
        term = App(App(Lam("f", Lam("x", App(Var("f"), App(Var("f"), Var("x"))))), Lit(succ)), Lit(nat(3)))
        assert self.run(term) == nat(5)

    def test_type_mismatches_are_hard_errors(self):
        with pytest.raises(TypeMismatch):
            apply_pval(nat(1), nat(2))


class TestRecords:
    """Types, terms and values are immutable records, compared by field."""

    def test_repr_prints_the_fields(self):
        assert repr(Bool()) == "Bool()"
        assert repr(Named("x")) == "Named(name='x', args=())"
        assert repr(Sum(Unit(), Nat())) == "Sum(left=Unit(), right=Nat())"
        assert repr(SelInfo("f", 1, "fn")) == (
            "SelInfo(name='f', alt=1, kind='fn', const_pos=-1, rec_pos=-1, exponent=None)"
        )
        assert repr(PairV(nat(1), TRUE)) == "PairV(fst=NatV(n=1), snd=InlV(value=UnitV()))"
        assert repr(UNDEF) == "Undef()"
        assert repr(finmap({UNIT: nat(2)})) == "FinMapV(entries=((UnitV(), NatV(n=2)),))"

    def test_deep_value_prints_its_repr_without_recursion(self):
        v = nat(0)
        for i in range(5000):
            v = InrV(PairV(NatV(i), v))
        text = repr(v)
        assert text.startswith(
            "InrV(value=PairV(fst=NatV(n=4999), snd=InrV(value=PairV(fst=NatV(n=4998), snd="
        )
        assert text.endswith("(fst=NatV(n=0), snd=NatV(n=0))" + "))" * 4999 + ")")

    @pytest.mark.parametrize(
        "one, other",
        [
            (Sum(Unit(), Nat()), Prod(Unit(), Nat())),
            (Total(Unit(), Nat()), Partial(Unit(), Nat())),
            (Named("x"), Alt("x")),  # one generated source, two modules
            (InlV(UNIT), InrV(UNIT)),
            (Unit(), Nat()),
            (UNIT, UNDEF),
        ],
    )
    def test_same_fields_of_two_classes_stay_unequal(self, one, other):
        assert one != other and not one == other
        assert len({one, other}) == 2
        twin = copy.deepcopy(one)
        assert twin == one and hash(twin) == hash(one)
        # every value is hash-consed, so its copy is the value itself
        assert (twin is one) == isinstance(one, PVal)

    def test_equal_fields_are_equal_and_hash_equal(self):
        built = [Named("L", (Nat(),)), Named("L", (Nat(),))]
        assert built[0] == built[1] and hash(built[0]) == hash(built[1])
        assert Named("L", (Nat(),)) != Named("L", (Bool(),))
        assert {App(Var("f"), Lit(nat(1))): 1}[App(Var("f"), Lit(nat(1)))] == 1

    def test_match_class_patterns(self):
        match Named("L", (Nat(),)):
            case Named(name, (arg,)):
                assert (name, arg) == ("L", Nat())
            case _:
                pytest.fail("Named did not match")
        match Decl("free", "L", ("X",)):
            case Decl(kind, name, (param,), alts, coalts):
                assert (kind, name, param, alts, coalts) == ("free", "L", "X", (), ())
            case _:
                pytest.fail("Decl did not match")
        match PairV(nat(2), InrV(UNIT)):
            case PairV(NatV(n), InrV(UnitV())):
                assert n == 2
            case _:
                pytest.fail("PairV did not match")

    def test_keyword_construction_and_defaults(self):
        assert Named(name="x") == Named("x", ()) == Named("x", args=())
        d = Decl(kind="free", name="L")
        assert (d.params, d.alts, d.coalts) == ((), (), ())
        assert Decl("free", "L", alts=(Alt("nil"),), params=("X",)) == Decl("free", "L", ("X",), (Alt("nil"),), ())
        assert PairE(snd=Var("b"), fst=Var("a")) == PairE(Var("a"), Var("b"))
        s = SelInfo("f", 1, "fn", rec_pos=2)
        assert (s.const_pos, s.rec_pos, s.exponent) == (-1, 2, None)
        assert s == SelInfo(name="f", alt=1, kind="fn", const_pos=-1, rec_pos=2, exponent=None)
        le = NAT_FLAT.le
        c = CpoDescriptor("c", le)
        assert (c.sample, c.bottom) == ((), None)
        assert CpoDescriptor(le=le, name="c", bottom=UNDEF) == CpoDescriptor("c", le, (), UNDEF)
        with pytest.raises(TypeError):
            Sum(Unit())
        with pytest.raises(TypeError):
            Unit(1)
        with pytest.raises(TypeError):
            SelInfo("f", 1)

    def test_classes_with_one_source_share_its_code_not_their_defaults(self):
        class Low(Record):
            __slots__ = __match_args__ = ("x", "y")
            _defaults = {"y": 1}

        class High(Record):
            __slots__ = __match_args__ = ("x", "y")
            _defaults = {"y": 2}

        assert Low.__init__ is not High.__init__
        assert Low.__init__.__code__ is High.__init__.__code__
        assert Sum.__init__.__code__ is Prod.__init__.__code__
        assert (Low(0).y, High(0).y, High(0, 5).y) == (1, 2, 5)
        assert Low.__init__.__qualname__.endswith("Low.__init__")
        assert High.__init__.__qualname__.endswith("High.__init__")
        assert Sum.__init__.__qualname__ == "Sum.__init__"

    def test_interned_and_fieldless_values_keep_object_init(self):
        # an interned node is not given its fields again on each construction
        assert PairV.__init__ is InlV.__init__ is Unit.__init__ is object.__init__
        assert InrV.__init__ is UnitV.__init__ is Undef.__init__ is object.__init__

    def test_a_validating_init_still_validates(self):
        assert FinObj("rere", (0,), frozenset({(0, 0)})) == rere_obj((0,))
        with pytest.raises(LabError, match="reflexive"):
            FinObj("rere", (0, 1), frozenset({(0, 0)}))
        with pytest.raises(TypeMismatch, match="nonnegative"):
            NatV(-1)

    @pytest.mark.parametrize(
        "record, field",
        [
            (Sum(Unit(), Nat()), "left"),
            (Var("x"), "name"),
            (nat(1), "n"),
            (InlV(UNIT), "value"),
            (rere_obj((0, 1)), "carrier"),
            (NAT_FLAT, "sample"),
            (CheckConfig(4, 32, 0), "seed"),
        ],
    )
    def test_assigning_a_field_raises(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, Unit())
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1


class TestTypes:
    def test_bool_is_sum_unit_unit(self):
        assert normalize_ty(Bool()) == Sum(Unit(), Unit())

    def test_unresolved_name(self):
        from quasikernel.kernel import Named

        with pytest.raises(UnboundName):
            normalize_ty(Named("mystery"))

    @pytest.mark.parametrize(
        "ty, n",
        [
            (Unit(), 1),
            (Zero(), 0),
            (Bool(), 2),
            (Sum(Bool(), Unit()), 3),
            (Prod(Bool(), Bool()), 4),
        ],
    )
    def test_enumeration_matches_cardinality(self, ty, n):
        vals = enumerate_ty(ty)
        assert len(vals) == n == ty_card(ty)
        assert len({repr(v) for v in vals}) == n

    def test_function_type_enumeration(self):
        from quasikernel.kernel import Total, Partial

        assert len(enumerate_ty(Total(Bool(), Bool()))) == 4
        assert len(enumerate_ty(Partial(Bool(), Unit()))) == 4

    def test_product_choices_vary_the_first_position_fastest(self):
        # enumeration order of tables and trees rests on this order
        assert list(product_choices("ab", 2)) == [
            ("a", "a"),
            ("b", "a"),
            ("a", "b"),
            ("b", "b"),
        ]
        assert list(product_choices("ab", 0)) == [()]
        assert list(product_choices("", 2)) == []


class TestTuples:
    def test_untuple_inverts_tuple_of(self):
        parts = [nat(1), TRUE, UNDEF]
        for k in range(4):
            xs = parts[:k]
            assert untuple(tuple_of(xs), len(xs)) == xs
        assert tuple_of([]) == UNIT
        assert tuple_of(parts) == PairV(nat(1), PairV(TRUE, UNDEF))

    def test_untuple_of_a_non_pair_is_a_type_mismatch(self):
        for k in (2, 3):
            with pytest.raises(TypeMismatch):
                untuple(nat(1), k)


class TestLogical:
    def test_holds(self):
        assert holds(logical(True))
        assert not holds(logical(False))

    def test_formula_is_partial_unit_map(self):
        assert apply_pval(logical(True), UNIT) == UNIT
        assert apply_pval(logical(False), UNIT) == UNDEF


class TestShow:
    # the renderings of the recursive printer this one replaced
    @pytest.mark.parametrize(
        "value, text",
        [
            (UNDEF, "undefined"),
            (UNIT, "()"),
            (nat(7), "7"),
            (TRUE, "true"),
            (FALSE, "false"),
            (inl(nat(1)), "inl 1"),
            (inr(nat(2)), "inr 2"),
            (InlV(InrV(UNIT)), "inl false"),
            (InrV(InlV(nat(0))), "inr inl 0"),
            (pair(nat(1), pair(TRUE, UNIT)), "(1, (true, ()))"),
            (PairV(UNDEF, nat(3)), "(undefined, 3)"),
            (finmap({}), "{}"),
            (finmap({nat(1): TRUE, nat(0): pair(nat(5), FALSE)}), "{0 -> (5, false), 1 -> true}"),
            (
                trie_of_paths([((), nat(1)), ((0,), nat(2)), ((1, 0), inl(UNIT))]),
                "{true -> 1, inr (0, true) -> 2, inr (1, inr (0, true)) -> true}",
            ),
            (EMPTY_TRIE, "{}"),
            (pfun(lambda x: x), "<fun>"),
            (pair(pfun(lambda x: x), finmap({UNIT: inr(UNIT)})), "(<fun>, {() -> false})"),
        ],
    )
    def test_rendering(self, value, text):
        assert show_pval(value) == text

    def test_deep_value_prints_without_recursion(self):
        n = 5 * sys.getrecursionlimit()
        deep = nat(0)
        for _ in range(n):
            deep = inr(pair(nat(1), deep))
        text = show_pval(deep)
        assert text.startswith("inr (1, inr (1, ") and text.endswith("(1, 0)" + ")" * (n - 1))


class TestHashing:
    def test_constructors_hash_apart_on_equal_payloads(self):
        for x in (UNIT, nat(0), PairV(nat(1), TRUE), finmap({UNIT: nat(2)})):
            # both kept alive: a value hashes by identity, and a dead one's
            # address may be reused
            left, right = InlV(x), InrV(x)
            assert left != right and hash(left) != hash(right)
        assert hash(TRUE) != hash(FALSE)
        assert hash(UNIT) != hash(UNDEF)
        assert hash(nat(0)) != hash(UNIT)

    def test_equal_values_built_apart_hash_equal(self):
        def build():
            inner = finmap({nat(0): TRUE, InrV(PairV(nat(1), UNIT)): FALSE})
            return PairV(InlV(inner), PairV(finmap({inner: PairV(UNIT, nat(3))}), UNDEF))

        a, b = build(), build()
        assert a is b  # interned
        assert hash(a) == hash(b)

    @given(
        st.one_of(pval_strategy, hashconsed_strategy),
        st.one_of(pval_strategy, hashconsed_strategy),
    )
    def test_hash_consing_is_canonical(self, a, b):
        # equal is identical, and both are equal in the canonical order
        assert (a == b) == (a is b) == (_sort_key(a) == _sort_key(b))
        assert copy.deepcopy(a) is a

    def test_concurrent_interning_keeps_one_object(self):
        # threads build the same values at once while those of earlier rounds
        # die, so interning races with the callbacks that drop dead entries:
        # equal values alive together must still be one object
        n_threads, rounds = 4, 40
        barrier = threading.Barrier(n_threads, timeout=60)
        built = [None] * n_threads
        mismatches, errors = [], []

        def work(k):
            try:
                for r in range(rounds):
                    v = nat(r % 3)
                    for i in range(300):
                        if i % 3 == 0:  # naturals above 1,000 are fresh ints each time
                            v = InrV(PairV(NatV(1000 + i % 5), v))
                        elif i % 3 == 1:
                            v = InlV(PairV(v, UNIT))
                        else:  # a flat table
                            v = finmap({NatV(i): v, UNIT: nat(i % 4)})
                    built[k] = v
                    barrier.wait()
                    if any(b is not v for b in built):
                        mismatches.append((r, k))
                    barrier.wait()
                    built[k] = v = None
                    barrier.wait()
            except Exception as e:  # reported by the assertion below
                errors.append(e)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not mismatches and not any(t.is_alive() for t in threads)

    def test_tagged_trees_hash_apart(self):
        from quasikernel.surface import elaborate, parse

        handle = elaborate(
            parse("free type Tagged ::= leaf(Bool) | node(Nat; Tagged; Tagged)")
        ).freetypes["Tagged"].handle
        trees = handle.enumerate_trees(3)
        # hashing the payload without the constructor gave 19 distinct hashes
        assert len(trees) == len(set(trees)) == 202
        assert len({hash(t) for t in trees}) == 202

    def test_reports_are_the_same_in_every_process(self):
        # values hash by identity, so no order a report prints may follow a
        # hash: the reports are the same under any string hash seed
        root = Path(__file__).resolve().parents[1]
        argvs = [
            ["check", "corpus/mixed.qk", "--obs-depth", "2", "--format", "json"],
            ["eval", "corpus/lists.qk", "-e", "[3,1,2]", "--format", "json"],
        ]
        reports = {}
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
            )
            for argv in argvs:
                proc = subprocess.run(
                    [sys.executable, "-m", "quasikernel.cli", *argv],
                    capture_output=True,
                    text=True,
                    env=env,
                    cwd=root,
                )
                assert proc.returncode == 0, proc.stdout + proc.stderr
                report = json.loads(proc.stdout)
                assert report.pop("elapsed_ms") >= 0
                reports.setdefault(seed, []).append(report)
        assert reports["0"] == reports["1"]
        check, value = reports["0"]
        assert [c["status"] for c in check["checks"]] == ["pass"] * 18
        assert value["checks"][0]["detail"].startswith("({true -> inr false, inr (0, true) -> inr inl 3")


# ---------------------------------------------------------------------------
# Tables on tree paths as interned tries

path_tables = st.dictionaries(
    st.lists(st.integers(0, 3), max_size=3).map(tuple),
    st.sampled_from([UNIT, TRUE, FALSE, nat(0), nat(1), finmap({nat(0): TRUE})]),
    max_size=6,
)


def flat_table(table):
    return finmap({encode_path(tuple(map(nat, p))): v for p, v in table.items()})


def chain(n):
    """A trie with a value at (1,)*m and (1,)*m + (0,) for every m <= n."""
    node = trie(nat(0), ((0, trie(TRUE)),))
    for m in range(1, n + 1):
        node = trie(nat(m), ((0, trie(TRUE)), (1, node)))
    return node


class TestPathTries:
    @given(path_tables, path_tables)
    def test_equal_tables_hash_equal(self, t1, t2):
        forms = [
            (t1, trie_of_paths(t1.items())),
            (t1, flat_table(t1)),
            (t2, trie_of_paths(t2.items())),
            (t2, flat_table(t2)),
        ]
        for ta, a in forms:
            for tb, b in forms:
                assert (a == b) == (ta == tb)
                if a == b:
                    assert hash(a) == hash(b)

    @given(path_tables)
    def test_trie_is_the_flat_table(self, table):
        t, flat = trie_of_paths(table.items()), flat_table(table)
        assert isinstance(t, PathTrie) and isinstance(t, FinMapV)
        assert t.entries == flat.entries
        assert t is trie_of_paths(dict(reversed(table.items())).items())
        for k in flat.keys() + [encode_path((nat(9),)), UNIT, InrV(UNIT)]:
            assert t.lookup(k) == flat.lookup(k)
            assert apply_pval(t, k) == apply_pval(flat, k)
        assert show_pval(t) == show_pval(flat)
        assert is_true(eq_existential(t, flat))
        match t:
            case FinMapV(entries):
                assert entries == flat.entries

    def test_empty_trie_is_the_empty_table(self):
        assert trie_of_paths([]) is EMPTY_TRIE
        assert EMPTY_TRIE == finmap({}) and hash(EMPTY_TRIE) == hash(finmap({}))
        assert EMPTY_TRIE.child(3) is EMPTY_TRIE

    @given(path_tables)
    def test_path_keyed_tables_are_interned_tries(self, table):
        t = trie_of_paths(table.items())
        assert flat_table(table) is t
        assert finmap(list(reversed(t.entries))) is t
        flat = FinMapV(t.entries)
        assert flat != t and t != flat
        assert flat.entries == t.entries

    def test_other_tables_stay_flat(self):
        assert type(finmap({nat(0): TRUE})) is FinMapV
        assert type(finmap({TRUE: nat(1), FALSE: nat(2)})) is FinMapV
        assert type(finmap({TRUE: nat(1), FALSE: UNDEF})) is PathTrie

    def test_undefined_values_are_dropped(self):
        assert trie_of_paths([((1,), UNDEF)]) is EMPTY_TRIE

    def test_deep_trie_entries_are_keyed_and_ordered(self):
        keys = [k for k, _ in chain(3).entries]
        paths = [(), (0,), (1,), (1, 0), (1, 1), (1, 1, 0), (1, 1, 1), (1, 1, 1, 0)]
        assert keys == [encode_path(tuple(map(nat, p))) for p in paths]
        a = chain(3000)
        assert a is chain(3000) and a != chain(2999)
        assert len(a.entries) == 6002 and a.lookup(a.entries[-1][0]) == TRUE
