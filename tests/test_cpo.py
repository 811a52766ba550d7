import pytest
from hypothesis import given, strategies as st

from quasikernel.cpo import (
    _iterate,
    BOOL_FLAT,
    MonotonicityViolation,
    NAT_FLAT,
    NotPointed,
    NotStabilized,
    UNIT_CPO,
    VERT,
    CpoDescriptor,
    DomainFinal,
    DomainInitial,
    chain_sup,
    chain_sup_info,
    flat_cpo,
    lfp,
    lifted_le,
    minimality_failures,
    order_axiom_failures,
    pfun_cpo,
    sum_cpo,
)
from quasikernel.final import FinalCoalgebra
from quasikernel.functors import ExtPolyNF, PolyNF
from quasikernel.initial import InitialAlgebra
from quasikernel.kernel import (
    FALSE,
    TRUE,
    UNDEF,
    UNIT,
    Bool,
    InlV,
    InrV,
    Nat,
    PathTrie,
    Unit,
    apply_pval,
    encode_path,
    enumerate_ty,
    finmap,
    nat,
    pfun,
)


def chain_from(values):
    return lambda i: values[min(i, len(values) - 1)]


class TestChainSup:
    def test_all_undefined_chain(self):
        assert chain_sup(NAT_FLAT, lambda i: UNDEF, 8) == UNDEF

    def test_eventually_constant(self):
        sup, idx = chain_sup_info(NAT_FLAT, chain_from([UNDEF, UNDEF, nat(5)]), 8)
        assert sup == nat(5)
        assert idx == 2

    def test_defined_iff_some_element_defined(self):
        # exhaustive over generated flat chains: undefined for a steps, then v
        bound = 6
        for a in range(bound - 1):
            for v in (nat(0), nat(1), nat(2)):
                ch = lambda i, _a=a, _v=v: UNDEF if i < _a else _v
                assert chain_sup(NAT_FLAT, ch, bound) == v
        assert chain_sup(NAT_FLAT, lambda i: UNDEF, bound) == UNDEF

    def test_strictly_increasing_chain_not_stabilized(self):
        # list prefixes under the pointwise order keep growing
        prefix_cpo = pfun_cpo(Nat(), NAT_FLAT, nat_bound=10)
        ch = lambda i: finmap({nat(k): nat(k) for k in range(i + 1)})
        with pytest.raises(NotStabilized):
            chain_sup(prefix_cpo, ch, 8)

    def test_a_single_defined_element_has_not_stabilized(self):
        with pytest.raises(NotStabilized, match="still moving at bound 1"):
            chain_sup(NAT_FLAT, lambda i: nat(1), 1)

    def test_each_element_is_compared_with_the_last_once(self):
        calls = []

        def le(a, b):
            calls.append((a, b))
            return a == b

        flat = CpoDescriptor("counted", le)
        sup, idx = chain_sup_info(flat, chain_from([UNDEF, nat(2), nat(2), nat(2)]), 6)
        assert (sup, idx) == (nat(2), 1)
        # 4 steps checked monotone; the 4 elements equal to the last are
        # found so by ``==``, with no call to ``le``
        assert len(calls) == 4
        # where distinct values are equivalent, each of the 4 elements is
        # compared with the last both ways, once
        calls.clear()
        coarse = CpoDescriptor("coarse", lambda a, b: calls.append((a, b)) or True)
        values = [UNDEF, nat(1), nat(2), nat(3), nat(4), nat(5)]
        assert chain_sup_info(coarse, chain_from(values), 6) == (nat(5), 1)
        assert len(calls) == 4 + 2 * 4

    def test_flat_monotonicity_violation_flagged(self):
        with pytest.raises(MonotonicityViolation):
            chain_sup(NAT_FLAT, chain_from([nat(3), nat(4), nat(4)]), 4)

    def test_undefined_above_nothing(self):
        assert lifted_le(NAT_FLAT, UNDEF, nat(0))
        assert not lifted_le(NAT_FLAT, nat(0), UNDEF)


class TestDescriptors:
    @pytest.mark.parametrize(
        "cpo",
        [
            NAT_FLAT,
            BOOL_FLAT,
            UNIT_CPO,
            VERT,
            pfun_cpo(Bool(), VERT),
            sum_cpo(VERT, NAT_FLAT),
        ],
    )
    def test_order_axioms_on_samples(self, cpo):
        assert order_axiom_failures(cpo) == []

    @pytest.mark.parametrize(
        "cpo", [NAT_FLAT, VERT, pfun_cpo(Bool(), VERT), sum_cpo(VERT, NAT_FLAT)]
    )
    def test_equal_is_le_both_ways(self, cpo):
        for a in cpo.sample:
            for b in cpo.sample:
                assert cpo.equal(a, b) == (cpo.le(a, b) and cpo.le(b, a))

    def test_equal_decides_a_flat_pair_with_one_le(self):
        calls = []
        counted = CpoDescriptor("counted", lambda a, b: calls.append((a, b)) or a == b)
        assert counted.equal(nat(1), nat(1)) and calls == []
        assert not counted.equal(nat(1), nat(2)) and calls == [(nat(1), nat(2))]

    def test_pfun_pointwise_order_matches_oracle(self):
        c = pfun_cpo(Bool(), NAT_FLAT)
        f = finmap({TRUE: nat(1)})
        g = finmap({TRUE: nat(1), FALSE: nat(2)})
        # oracle: pointwise comparison over the two domain points
        assert c.le(f, g)
        assert not c.le(g, f)
        assert not c.le(finmap({TRUE: nat(2)}), g)

    def test_pfun_bottom_below_everything(self):
        c = pfun_cpo(Bool(), NAT_FLAT)
        for s in c.sample:
            assert c.le(c.bottom, s)

    def test_sum_chain_stabilizes_tag_then_payload(self):
        s = sum_cpo(VERT, NAT_FLAT)
        sup = chain_sup(s, chain_from([UNDEF, InlV(FALSE), InlV(TRUE), InlV(TRUE)]), 6)
        assert sup == InlV(TRUE)

    def test_sum_mixed_tags_not_monotone(self):
        s = sum_cpo(VERT, NAT_FLAT)
        with pytest.raises(MonotonicityViolation):
            chain_sup(s, chain_from([InlV(TRUE), InrV(nat(0)), InrV(nat(0))]), 4)


class TestLfp:
    def factorial_setup(self):
        cpo = pfun_cpo(Nat(), NAT_FLAT, nat_bound=9)

        def step(f):
            table = {nat(0): nat(1)}
            for n in range(1, 9):
                prev = apply_pval(f, nat(n - 1))
                if prev.defined():
                    table[nat(n)] = nat(n * prev.n)
            return finmap(table)

        return cpo, step

    def test_factorial_of_five(self):
        cpo, step = self.factorial_setup()
        fact = lfp(cpo, step, bound=32)
        assert apply_pval(fact, nat(5)) == nat(120)  # oracle: 5! = 120
        assert apply_pval(fact, nat(8)) == nat(40320)

    def test_identity_yields_bottom(self):
        cpo, _ = self.factorial_setup()
        assert lfp(cpo, lambda f: f, bound=4) == cpo.bottom
        assert lfp(VERT, lambda v: v, bound=4) == FALSE

    def test_strict_constant_functional(self):
        cpo, _ = self.factorial_setup()
        k = finmap({nat(0): nat(7)})
        assert lfp(cpo, lambda f: k, bound=4) == k

    def test_minimality_against_sampled_prefixed_points(self):
        cpo, step = self.factorial_setup()
        fact = lfp(cpo, step, bound=32)
        candidates = [fact, cpo.bottom, finmap({nat(0): nat(1)})]
        candidates += [finmap({nat(0): nat(1), nat(1): nat(k)}) for k in range(3)]
        candidates += [finmap({nat(k): nat(k) for k in range(j)}) for j in range(1, 5)]
        assert len(candidates) >= 10
        assert minimality_failures(cpo, step, fact, candidates) == []

    def test_kleene_chain_is_monotone(self):
        cpo, step = self.factorial_setup()
        xs, _ = _iterate(cpo, step, 12)
        for a, b in zip(xs, xs[1:]):
            assert cpo.le(a, b)

    def test_kleene_chain_for_even_extension_functional(self):
        cpo, _ = self.factorial_setup()

        def widen(f):  # grows the domain by one even point per step
            table = {nat(0): nat(0)}
            for n in range(2, 9, 2):
                if apply_pval(f, nat(n - 2)).defined():
                    table[nat(n)] = nat(n)
            return finmap(table)

        xs, _ = _iterate(cpo, widen, 12)
        for a, b in zip(xs, xs[1:]):
            assert cpo.le(a, b)
        fixed = lfp(cpo, widen, 12)
        assert apply_pval(fixed, nat(8)) == nat(8)
        assert apply_pval(fixed, nat(3)) == UNDEF

    def test_unpointed_carrier_rejected(self):
        with pytest.raises(NotPointed):
            lfp(NAT_FLAT, lambda v: v, 4)

    def test_no_iteration_names_its_bound(self):
        cpo, step = self.factorial_setup()
        for bound in (0, 1):
            with pytest.raises(NotStabilized, match=f"no fixed point within {bound} iterations"):
                lfp(cpo, step, bound)
        with pytest.raises(NotStabilized, match="no fixed point within 0 iterations"):
            lfp(VERT, lambda v: v, 0)

    def test_each_step_is_compared_at_most_once_each_way(self):
        cpo, step = self.factorial_setup()
        calls = []

        def le(f, g):
            calls.append((f, g))
            return cpo.le(f, g)

        counted = CpoDescriptor(cpo.name, le, cpo.sample, cpo.bottom)
        fact = lfp(counted, step, bound=32)
        assert fact == lfp(cpo, step, bound=32)
        steps = len(_iterate(cpo, step, 32)[0]) - 1
        assert len(calls) <= 2 * steps
        assert len(set(calls)) == len(calls)

    def test_settling_on_a_non_fixed_point_is_reported(self):
        # f tells apart two tables the order cannot: the chain settles,
        # yet the image of its last element still moves
        c = pfun_cpo(Bool(), NAT_FLAT)
        outside = encode_path([nat(0)])  # a key outside the sampled domain
        tagged = finmap({outside: nat(0)})
        moved = finmap({TRUE: nat(1)})
        f = lambda v: tagged if v == c.bottom else moved
        with pytest.raises(NotStabilized, match="non-fixed point"):
            lfp(c, f, 4)


class TestTableOrder:
    """``pfun_cpo`` orders two tables by their entries; the reference is the
    pointwise order over the sampled domain."""

    @staticmethod
    def pointwise(domain, b, f, g, nat_bound=6):
        dom = enumerate_ty(domain, nat_bound)
        return all(lifted_le(b, apply_pval(f, x), apply_pval(g, x)) for x in dom)

    @staticmethod
    def tables(keys, values):
        """Flat tables on ``keys``, trie-keyed tables and the empty table."""
        paths = [encode_path([nat(j) for j in p]) for p in ((), (0,), (1,), (0, 1), (2, 0))]
        flat = st.dictionaries(st.sampled_from(keys), st.sampled_from(values), max_size=6)
        tries = st.dictionaries(st.sampled_from(paths), st.sampled_from(values), max_size=5)
        return st.one_of(flat.map(finmap), tries.map(finmap), st.just(finmap({})))

    @given(st.data(), st.integers(1, 6))
    def test_nat_tables_agree_with_the_pointwise_order(self, data, k):
        # keys up to k + 2 reach past the sampled domain {0, ..., k - 1}
        keys = [nat(i) for i in range(k + 3)]
        values = [nat(i) for i in range(4)]
        c = pfun_cpo(Nat(), NAT_FLAT, nat_bound=k)
        f = data.draw(self.tables(keys, values))
        g = data.draw(self.tables(keys, values))
        assert c.le(f, g) == self.pointwise(Nat(), NAT_FLAT, f, g, k)

    @given(st.data())
    def test_bool_tables_agree_with_the_pointwise_order(self, data):
        # TRUE is also the empty path, so some trie tables meet the domain
        keys = [TRUE, FALSE, nat(0), InlV(nat(1)), encode_path([nat(3)])]
        c = pfun_cpo(Bool(), VERT)
        f = data.draw(self.tables(keys, [FALSE, TRUE]))
        g = data.draw(self.tables(keys, [FALSE, TRUE]))
        assert c.le(f, g) == self.pointwise(Bool(), VERT, f, g)

    def test_the_generators_reach_both_representations(self):
        assert isinstance(finmap({encode_path([nat(0)]): TRUE}), PathTrie)
        assert isinstance(finmap({TRUE: TRUE}), PathTrie)
        assert not isinstance(finmap({nat(0): TRUE}), PathTrie)
        assert not isinstance(finmap({TRUE: TRUE, FALSE: TRUE}), PathTrie)

    def test_procedural_and_mixed_pairs_stay_pointwise(self):
        c = pfun_cpo(Bool(), NAT_FLAT)
        const = pfun(lambda x: nat(1))
        assert c.le(finmap({TRUE: nat(1)}), const)
        assert c.le(const, finmap({TRUE: nat(1), FALSE: nat(1)}))
        assert not c.le(const, finmap({TRUE: nat(1)}))
        assert c.le(UNDEF, const) and not c.le(const, UNDEF)


def reference_order_failures(cpo):
    """The order axioms as a loop over every triple, calling ``le`` inside."""
    out = []
    s = cpo.sample
    for x in s:
        if not cpo.le(x, x):
            out.append(f"not reflexive at {x!r}")
    for x in s:
        for y in s:
            if cpo.le(x, y) and cpo.le(y, x) and x != y:
                out.append(f"antisymmetry fails at {x!r}, {y!r}")
            for z in s:
                if cpo.le(x, y) and cpo.le(y, z) and not cpo.le(x, z):
                    out.append(f"transitivity fails at {x!r}, {y!r}, {z!r}")
    return out


class TestOrderAxiomMatrix:
    NATS = tuple(nat(i) for i in range(4))

    @pytest.mark.parametrize(
        "le",
        [
            lambda a, b: 0 <= b.n - a.n <= 1,  # not transitive
            lambda a, b: a.n // 2 == b.n // 2,  # not antisymmetric
            lambda a, b: a.n < b.n,  # not reflexive
            lambda a, b: a.n <= b.n,  # a partial order
        ],
    )
    def test_same_failures_in_the_same_order_as_the_triple_loop(self, le):
        desc = CpoDescriptor("probe", le, self.NATS)
        assert order_axiom_failures(desc) == reference_order_failures(desc)

    def test_broken_axioms_are_reported(self):
        hop = CpoDescriptor("hop", lambda a, b: 0 <= b.n - a.n <= 1, self.NATS)
        pairs = CpoDescriptor("pairs", lambda a, b: a.n // 2 == b.n // 2, self.NATS)
        assert order_axiom_failures(hop)[0].startswith("transitivity fails at NatV(n=0)")
        assert order_axiom_failures(pairs)[0].startswith("antisymmetry fails at NatV(n=0)")

    def test_le_runs_once_per_ordered_pair(self):
        calls = []
        desc = CpoDescriptor("count", lambda a, b: calls.append(1) or a == b, self.NATS)
        assert order_axiom_failures(desc) == []
        assert len(calls) == len(self.NATS) ** 2


LIST_BOOL_NF = PolyNF(((Unit(), 0), (Bool(), 1)))


def vert_list_domain():
    handle = InitialAlgebra(LIST_BOOL_NF)
    return handle, DomainInitial(handle, [UNIT_CPO, VERT])


def blist(handle, values):
    t = handle.construct(0, UNIT, [])
    for v in reversed(values):
        t = handle.construct(1, v, [t])
    return t


class TestDomainInitial:
    def test_tree_order_follows_parameters(self):
        h, dom = vert_list_domain()
        assert dom.tree_le(blist(h, [FALSE]), blist(h, [TRUE]))
        assert not dom.tree_le(blist(h, [TRUE]), blist(h, [FALSE]))
        assert not dom.tree_le(blist(h, [FALSE]), blist(h, [FALSE, TRUE]))

    def test_constructors_monotone_on_comparable_pairs(self):
        h, dom = vert_list_domain()
        nil = blist(h, [])
        pairs = [
            ((FALSE, [nil]), (TRUE, [nil])),
            ((FALSE, [blist(h, [FALSE])]), (FALSE, [blist(h, [TRUE])])),
            ((FALSE, [blist(h, [FALSE])]), (TRUE, [blist(h, [TRUE])])),
        ]
        assert dom.constructor_monotone_failures(1, pairs) == []

    def test_chain_sup_stays_in_carrier(self):
        h, dom = vert_list_domain()
        chain = [blist(h, [FALSE, FALSE]), blist(h, [FALSE, TRUE]), blist(h, [TRUE, TRUE])]
        sup = dom.chain_sup(chain)
        assert sup == blist(h, [TRUE, TRUE])
        assert h.is_in_T(sup)

    def test_fold_continuous_on_sampled_chains(self):
        h, dom = vert_list_domain()
        # disjunction fold into the two-point order: monotone and continuous
        algebra = [
            lambda w, rs: FALSE,
            lambda x, rs: TRUE if TRUE in (x, rs[0]) else FALSE,
        ]
        chains = [
            [blist(h, [FALSE]), blist(h, [TRUE])],
            [blist(h, [FALSE, FALSE]), blist(h, [FALSE, TRUE]), blist(h, [TRUE, TRUE])],
        ]
        assert dom.fold_continuity_failures(algebra, VERT, chains) == []

    def test_flat_parameters_reduce_to_equality(self):
        h = InitialAlgebra(LIST_BOOL_NF)
        dom = DomainInitial(h, [UNIT_CPO, BOOL_FLAT])
        a, b = blist(h, [TRUE]), blist(h, [FALSE])
        assert dom.tree_le(a, a)
        assert not dom.tree_le(a, b)
        assert not dom.tree_le(b, a)


STREAM_VERT_NF = ExtPolyNF(((Bool(), Unit()),))


class TestDomainFinal:
    def setup(self):
        handle = FinalCoalgebra(STREAM_VERT_NF)
        dom = DomainFinal(handle, [VERT])

        def d(z):  # monotone in the seed under the two-point order
            return 0, TRUE if z >= 1 else FALSE, lambda _y: z

        return handle, dom, d

    def test_unfold_monotone_in_seed(self):
        _h, dom, d = self.setup()
        assert dom.unfold_monotone_failures(d, [(0, 1), (0, 0), (1, 1)]) == []

    def test_carrier_closed_under_chain_sups(self):
        h, dom, d = self.setup()
        chain = [h.unfold(d, 0), h.unfold(d, 1)]
        assert dom.closure_failures([chain], depth=3) == []

    def test_chain_sup_is_pointwise(self):
        h, dom, d = self.setup()
        t0, t1 = h.unfold(d, 0), h.unfold(d, 1)
        sup = dom.chain_sup([t0, t1], depth=3)
        for p in h.paths_up_to(3):
            assert h.observe(sup, p) == h.observe(t1, p)

    def test_flat_seed_case_reduces_to_plain_final(self):
        h = FinalCoalgebra(STREAM_VERT_NF)
        dom = DomainFinal(h, [BOOL_FLAT])

        def d(z):
            return 0, TRUE if z >= 1 else FALSE, lambda _y: z

        t0, t1 = h.unfold(d, 0), h.unfold(d, 1)
        assert not dom.tree_le(t0, t1, 2)
        assert dom.tree_le(t0, t0, 2)
