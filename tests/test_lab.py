import itertools

import pytest
from hypothesis import given, strategies as st

from quasikernel import lab
from quasikernel.cli import run
from quasikernel.lab import (
    RERE,
    SPAP,
    LabError,
    all_objects,
    coarseness_counterexample,
    compose,
    coproduct,
    discrete,
    equalizer,
    full_subobject,
    hom_set,
    identity,
    indiscrete,
    initial,
    is_coarse,
    is_iso,
    is_regular_mono,
    mor,
    nno_fragment_check,
    preserves_structure,
    product,
    pullback,
    regular_hull,
    relation_classes,
    rere_obj,
    spap_obj,
    subobject_iso,
    terminal,
)


def obj_isomorphic(a, b):
    return any(is_iso(m) for m in hom_set(a, b))


SMALL_RERE = [
    discrete(range(0)),
    discrete(range(1)),
    discrete(range(2)),
    indiscrete(range(2)),
    rere_obj(range(3), [(0, 1), (1, 0)]),
]

SMALL_SPAP = [
    spap_obj(()),
    spap_obj((0,), [()]),
    terminal(SPAP),
    spap_obj((0, 1), [(), (0,), (0, 1)]),
]


class TestBasicObjects:
    def test_spap_initial_and_terminal(self):
        assert initial(SPAP) == spap_obj(())
        assert terminal(SPAP) == spap_obj((0,), [(), (0,)])

    def test_rere_relation_must_be_reflexive(self):
        o = rere_obj((0, 1), [(0, 1)])
        assert (0, 0) in o.structure and (1, 1) in o.structure

    def test_morphism_validation(self):
        with pytest.raises(LabError):
            mor(indiscrete(range(2)), discrete(range(2)), {0: 0, 1: 1})

    def test_hom_counts(self):
        assert len(hom_set(discrete(range(2)), discrete(range(2)))) == 4
        assert len(hom_set(indiscrete(range(2)), discrete(range(2)))) == 2
        assert len(hom_set(indiscrete(range(2)), indiscrete(range(2)))) == 4

    @pytest.mark.parametrize(
        "a, b", [(rere_obj((0,)), terminal(SPAP)), (terminal(SPAP), rere_obj((0,)))]
    )
    def test_hom_set_across_categories_is_rejected(self, a, b):
        # an empty list would claim there are no morphisms; mor raises too
        with pytest.raises(LabError, match="across categories"):
            hom_set(a, b)


class TestLimits:
    def test_product_of_indiscrete_two_is_indiscrete_four(self):
        # oracle: the componentwise relation is total when both factors are
        p = product(indiscrete(range(2)), indiscrete(range(2)))
        assert obj_isomorphic(p.obj, indiscrete(range(4)))

    def test_equalizer_of_equal_pair_is_identity_subobject(self):
        a = rere_obj(range(2), [(0, 1)])
        f = identity(a)
        eq = equalizer(f, f)
        assert subobject_iso(eq.include, identity(a))

    @pytest.mark.parametrize("kind, pool", [(RERE, SMALL_RERE), (SPAP, SMALL_SPAP)])
    def test_terminal_and_initial_universal(self, kind, pool):
        one, zero = terminal(kind), initial(kind)
        for a in pool:
            assert len(hom_set(a, one)) == 1
            assert len(hom_set(zero, a)) == 1

    @pytest.mark.parametrize(
        "a, b, pool",
        [
            (discrete(range(2)), indiscrete(range(2)), SMALL_RERE),
            (rere_obj(range(2), [(0, 1)]), discrete(range(2)), SMALL_RERE),
            (terminal(SPAP), spap_obj((0, 1), [(), (0,)]), SMALL_SPAP),
        ],
    )
    def test_product_universal_property(self, a, b, pool):
        p = product(a, b)
        for z in pool:
            for f in hom_set(z, a):
                for g in hom_set(z, b):
                    mediating = [
                        m
                        for m in hom_set(z, p.obj)
                        if compose(p.proj1, m) == f and compose(p.proj2, m) == g
                    ]
                    assert len(mediating) == 1

    @pytest.mark.parametrize(
        "a, b, pool",
        [
            (discrete(range(2)), indiscrete(range(2)), SMALL_RERE),
            (terminal(SPAP), spap_obj((0,), []), SMALL_SPAP),
        ],
    )
    def test_coproduct_universal_property(self, a, b, pool):
        c = coproduct(a, b)
        for z in pool:
            for f in hom_set(a, z):
                for g in hom_set(b, z):
                    mediating = [
                        m
                        for m in hom_set(c.obj, z)
                        if compose(m, c.inj1) == f and compose(m, c.inj2) == g
                    ]
                    assert len(mediating) == 1

    def test_equalizer_universal_property(self):
        a = discrete(range(2))
        b = discrete(range(2))
        f = mor(a, b, {0: 0, 1: 0})
        g = mor(a, b, {0: 0, 1: 1})
        eq = equalizer(f, g)
        assert eq.obj.carrier == (0,)
        for z in SMALL_RERE:
            for h in hom_set(z, a):
                if compose(f, h) == compose(g, h):
                    factored = [
                        m
                        for m in hom_set(z, eq.obj)
                        if compose(eq.include, m) == h
                    ]
                    assert len(factored) == 1


class TestRegularMonos:
    def test_spap_zero_to_one_is_not_regular(self):
        zero, one = initial(SPAP), terminal(SPAP)
        m = hom_set(zero, one)[0]
        assert not is_regular_mono(m)
        # the regular subobject classified by falsity is (empty, {empty}),
        # strictly larger in structure than the initial object
        hull = regular_hull(m)
        assert hull == spap_obj((), [()])
        assert not obj_isomorphic(hull, zero)

    def test_rere_zero_to_one_is_regular(self):
        zero, one = initial(RERE), terminal(RERE)
        m = hom_set(zero, one)[0]
        assert is_regular_mono(m)

    def test_isos_are_regular(self):
        a = rere_obj(range(2), [(0, 1)])
        assert is_regular_mono(identity(a))
        b = spap_obj((0, 1), [(0,)])
        assert is_regular_mono(identity(b))

    def test_search_agrees_with_full_substructure_oracle(self):
        # derived oracle: in both categories a mono is regular iff it presents
        # the induced substructure on its image
        cases = []
        amb = rere_obj(range(2), [(0, 1)])
        cases.append(mor(discrete(range(1)), amb, {0: 0}))
        cases.append(mor(discrete(range(2)), amb, {0: 0, 1: 1}))
        sp = spap_obj((0, 1), [(), (0,), (0, 1)])
        cases.append(mor(spap_obj((0,), [(), (0,)]), sp, {0: 0}))
        cases.append(mor(spap_obj((0,), [()]), sp, {0: 0}))
        for m in cases:
            expected = subobject_iso(
                m,
                mor(
                    full_subobject(m.dst, m.image(m.src.carrier)),
                    m.dst,
                    {x: x for x in m.image(m.src.carrier)},
                ),
            )
            assert is_regular_mono(m) == expected

    def test_spap_coproduct_injections_not_disjoint(self):
        one = terminal(SPAP)
        c = coproduct(one, one)
        pb = pullback(c.inj1, c.inj2)
        assert pb.carrier == ()
        assert not obj_isomorphic(pb, initial(SPAP))
        assert obj_isomorphic(pb, spap_obj((), [()]))

    def test_rere_coproduct_injections_disjoint(self):
        one = terminal(RERE)
        c = coproduct(one, one)
        pb = pullback(c.inj1, c.inj2)
        assert obj_isomorphic(pb, initial(RERE))


class TestCoarse:
    def test_indiscrete_three_is_coarse(self):
        assert is_coarse(indiscrete(range(3)))

    def test_discrete_two_is_not_coarse(self):
        assert not is_coarse(discrete(range(2)))

    def test_singleton_is_coarse(self):
        assert is_coarse(discrete(range(1)))

    def test_coarse_iff_indiscrete_up_to_size_four(self):
        for size in range(5):
            atoms = tuple(range(size))
            off_diag = [(x, y) for x in atoms for y in atoms if x != y]
            for edges in _edge_subsets(off_diag):
                o = rere_obj(atoms, edges)
                expected = len(o.structure) == size * size
                assert is_coarse(o) == expected == _ref_is_coarse(o), o

    def test_spap_object_is_rejected(self):
        with pytest.raises(LabError):
            is_coarse(terminal(SPAP))


class TestProbePools:
    @pytest.fixture
    def all_objects_calls(self, monkeypatch):
        """Calls of lab.all_objects, with the probe pools not yet built."""
        calls = []
        real = lab.all_objects

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lab, "all_objects", counting)
        lab._probe_pool.cache_clear()
        lab._coarseness_pool.cache_clear()
        yield calls
        lab._probe_pool.cache_clear()
        lab._coarseness_pool.cache_clear()

    def test_coarseness_pool_is_built_once(self, all_objects_calls):
        assert is_coarse(indiscrete(range(2)))
        assert not is_coarse(discrete(range(2)))
        assert len(all_objects_calls) == 1

    def test_regular_mono_pool_is_built_once_per_kind(self, all_objects_calls):
        zero, one = initial(SPAP), terminal(SPAP)
        m = hom_set(zero, one)[0]
        assert not is_regular_mono(m)
        assert is_regular_mono(identity(one))
        assert len(all_objects_calls) == 1


def _ref_preserves(src, dst, mapping):
    if src.kind == RERE:
        return all((mapping[x], mapping[y]) in dst.structure for x, y in src.structure)
    return all(frozenset(mapping[x] for x in a) in dst.structure for a in src.structure)


@st.composite
def _probe_and_function(draw):
    """Two objects of one kind on carriers range(n), n <= 3, and the values
    of an arbitrary set-function between their carriers."""
    kind = draw(st.sampled_from([RERE, SPAP]))
    objs = []
    for _ in range(2):
        atoms = tuple(range(draw(st.integers(0, 3))))
        if kind == RERE:
            off = [(x, y) for x in atoms for y in atoms if x != y]
            objs.append(rere_obj(atoms, draw(st.sets(st.sampled_from(off))) if off else ()))
        else:
            subsets = [s for r in range(len(atoms) + 1) for s in itertools.combinations(atoms, r)]
            objs.append(spap_obj(atoms, draw(st.sets(st.sampled_from(subsets)))))
    src, dst = objs
    if not dst.carrier:
        src = initial(kind)
    values = tuple(draw(st.sampled_from(dst.carrier)) for _ in src.carrier)
    return src, dst, values


@given(_probe_and_function())
def test_value_tuple_is_a_mapping(case):
    src, dst, values = case
    expected = _ref_preserves(src, dst, dict(zip(src.carrier, values)))
    assert preserves_structure(src, dst, values) == expected
    assert preserves_structure(src, dst, dict(zip(src.carrier, values))) == expected


def _edge_subsets(pairs):
    for r in range(len(pairs) + 1):
        yield from itertools.combinations(pairs, r)


# the algebras that nno_fragment_check counts morphisms into
NNO_ALGEBRAS = [
    (discrete(range(2)), 0, {0: 1, 1: 0}),
    (indiscrete(range(2)), 0, {0: 1, 1: 1}),
    (discrete(range(3)), 0, {0: 1, 1: 2, 2: 2}),
    (terminal(RERE), 0, {0: 0}),
]


def _ref_algebra_morphism_count(n_obj, b, zero, suc):
    return sum(
        h(0) == zero and all(h(x + 1) == suc[h(x)] for x in n_obj.carrier[:-1])
        for h in hom_set(n_obj, b)
    )


class TestNnoFragment:
    def test_report(self):
        report = nno_fragment_check()
        assert report.discrete_not_coarse
        assert report.discrete_initiality_ok
        assert report.indiscrete_fails
        assert report.discrete_unique_counts == [1, 1, 1, 1]
        assert report.indiscrete_unique_counts == [0, 1, 0, 1]

    @pytest.mark.parametrize("size", range(1, 7))
    @pytest.mark.parametrize("make_n", [discrete, indiscrete])
    def test_count_agrees_with_hom_set_reference(self, make_n, size):
        n_obj = make_n(range(size))
        for b, zero, suc in NNO_ALGEBRAS:
            expected = _ref_algebra_morphism_count(n_obj, b, zero, suc)
            assert lab._algebra_morphism_count(n_obj, b, zero, suc) == expected

    def test_one_point_algebra_unique(self):
        report = nno_fragment_check()
        # the terminal algebra admits exactly one clause-respecting morphism
        assert report.discrete_unique_counts[-1] == 1


def _canonical(size, edges):
    """The least sorted edge list among the relabellings of a relation."""
    return min(
        tuple(sorted((s[x], s[y]) for x, y in edges))
        for s in itertools.permutations(range(size))
    )


class TestRelationClasses:
    def test_class_counts_are_a000273(self):
        counts = [sum(1 for _ in relation_classes(n)) for n in range(6)]
        assert counts == [1, 1, 3, 16, 218, 9_608]

    @pytest.mark.parametrize("size", range(5))
    def test_classes_partition_the_relations(self, size):
        reps = [_canonical(size, edges) for edges in relation_classes(size)]
        assert len(set(reps)) == len(reps)
        off_diag = [(x, y) for x in range(size) for y in range(size) if x != y]
        labelled = {_canonical(size, edges) for edges in _edge_subsets(off_diag)}
        assert labelled == set(reps)

    def test_the_sweep_visits_every_class(self, monkeypatch):
        # invariant under relabelling, and wrong only on the one class of
        # four-atom relations with 11 of the 12 off-diagonal edges
        def wrong_on_one_class(a):
            n = len(a.carrier)
            return len(a.structure) in (n * n, n + 11)

        monkeypatch.setattr(lab, "is_coarse", wrong_on_one_class)
        o = coarseness_counterexample()
        assert o is not None
        assert o.carrier == (0, 1, 2, 3) and len(o.structure) == 4 + 11


def _ref_is_coarse(a):
    """Coarseness probed in the pool's original order, smallest first."""
    pool = all_objects(RERE, 2) + [indiscrete(range(3))]
    return all(
        _ref_preserves(p, a, dict(zip(p.carrier, values)))
        for p in pool
        for values in itertools.product(a.carrier, repeat=len(p.carrier))
    )


class TestFailFirstCoarseness:
    @given(st.sets(st.sampled_from([(x, y) for x in range(5) for y in range(5) if x != y])))
    def test_agrees_with_reference_on_five_atoms(self, edges):
        o = rere_obj(range(5), edges)
        assert is_coarse(o) == _ref_is_coarse(o)

    def test_lab_rere_does_less_work_on_the_same_objects(self, monkeypatch):
        calls = {"preserves_structure": 0, "is_coarse": 0}
        for name in calls:
            real = getattr(lab, name)

            def counting(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(lab, name, counting)
        report, code = run(["lab", "rere"])
        assert code == 0
        # the smallest-first order made 101,580 structure checks here
        assert calls["preserves_structure"] <= 15_000
        # one reflexive relation per isomorphism class on at most four
        # atoms (1 + 1 + 3 + 16 + 218), plus the NNO's N
        assert calls["is_coarse"] == 240

    def test_no_counterexample(self):
        assert coarseness_counterexample() is None

    def test_the_check_can_fail(self, monkeypatch):
        monkeypatch.setattr(lab, "is_coarse", lambda a: True)
        o = coarseness_counterexample()
        assert o is not None and len(o.structure) < len(o.carrier) ** 2
        report, code = run(["lab", "rere"])
        assert code == 1
        (sweep,) = [c for c in report["checks"] if c["name"] == "lab.rere.coarse-iff-indiscrete"]
        assert sweep["status"] == "fail"
        assert sweep["detail"].startswith("counterexample: ")
