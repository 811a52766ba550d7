import itertools
import os
import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from quasikernel.checks import (
    fold_equation_failures,
    fold_uniqueness_solutions,
    sample_algebras,
)
from quasikernel.functors import PolyNF, poly_value
from quasikernel.initial import (
    InvariantViolation,
    NotInCarrier,
    InitialAlgebra,
    SubtypeEscape,
    church,
    enc_cons,
    enc_fold,
    enc_from_list,
    enc_invariant_ok,
    enc_nil,
    enc_to_list,
    induction_via_fold,
    nat_algebra,
    param_map,
    subtype_fold,
    tree_anchor,
    tree_depth,
    tree_parts,
    tree_tables,
    unchurch,
)
from quasikernel.kernel import (
    FALSE,
    TRUE,
    UNDEF,
    UNIT,
    Bool,
    InlV,
    InrV,
    Nat,
    NatV,
    PairV,
    PathTrie,
    QuasiError,
    Unit,
    decode_path,
    encode_path,
    enumerate_ty,
    eq_strong,
    finmap,
    is_true,
    nat,
    show_pval,
    trie_of_paths,
)

LIST_NF = PolyNF(((Unit(), 0), (Bool(), 1)))
LIST_NAT_NF = PolyNF(((Unit(), 0), (Nat(), 1)))
MIXED_NF = PolyNF(((Unit(), 0), (Bool(), 1), (Unit(), 2)))


def list_handle():
    return InitialAlgebra(LIST_NF)


def tree_list(handle, values):
    t = handle.construct(0, UNIT, [])
    for v in reversed(values):
        t = handle.construct(1, v, [t])
    return t


def length_algebra():
    return [lambda w, rs: nat(0), lambda w, rs: nat(rs[0].n + 1)]


def make_tree(label, depth_map, anchor):
    """A tree value from its label and depth tables, well formed or not."""
    d = trie_of_paths((p, nat(k)) for p, k in depth_map.items())
    return PairV(trie_of_paths(label.items()), PairV(d, anchor))


def label_at(t, path):
    node = tree_parts(t)[0]
    for j in path:
        node = node.child(j)
    return node.root


def enumerate_algebras(nf, size):
    """Every algebra structure on a carrier of ``size`` members, as tables
    of carrier indices (the layout of ``sample_algebras``), with the
    parameters' naturals below 2."""

    def tables(a, k):
        ws, entries = enumerate_ty(a, 2), size**k
        for values in itertools.product(range(size), repeat=len(ws) * entries):
            yield {w: list(values[j * entries:(j + 1) * entries]) for j, w in enumerate(ws)}

    return [list(combo) for combo in itertools.product(*(list(tables(a, k)) for a, k in nf.summands))]


def constant_algebra(nf, size, j):
    """The algebra whose every entry is carrier index j."""
    return [{w: [j] * size**k for w in enumerate_ty(a, 2)} for a, k in nf.summands]


def index_algebra(algebra, size):
    """One table algebra as per-summand functions on carrier indices, read
    the long way: the children's indices as a base-``size`` number."""

    def summand(table):
        return lambda w, rs: table[w][sum(r * size**e for e, r in enumerate(reversed(rs)))]

    return [summand(table) for table in algebra]


class TestEncList:
    def test_nil_is_left_injection(self):
        assert enc_nil() == InlV(UNIT)

    def test_singleton(self):
        l = enc_cons(nat(5), enc_nil())
        assert l == InrV(PairV(finmap({nat(0): nat(5)}), nat(0)))

    def test_shift_clause(self):
        # oracle: the direct sequence [1, 2]
        l = enc_cons(nat(1), enc_cons(nat(2), enc_nil()))
        assert l == InrV(PairV(finmap({nat(0): nat(1), nat(1): nat(2)}), nat(1)))
        assert enc_to_list(l) == [nat(1), nat(2)]

    def test_invariant_after_all_constructor_sequences(self):
        frontier = [enc_nil()]
        for _ in range(6):
            frontier = [
                enc_cons(x, l) for l in frontier for x in (nat(0), nat(1))
            ]
            for l in frontier:
                assert enc_invariant_ok(l)

    def test_fold_sum(self):
        # oracle: direct recursive sum
        values = [nat(1), nat(2), nat(3)]
        plus = lambda x, acc: nat(x.n + acc.n)
        assert enc_fold(nat(0), plus, enc_from_list(values)) == nat(6)
        assert sum(v.n for v in values) == 6

    def test_fold_on_nil_returns_base(self):
        assert enc_fold(nat(9), lambda x, a: UNDEF, enc_nil()) == nat(9)

    def test_identity_fold_rebuilds(self):
        for values in ([], [nat(2)], [nat(0), nat(1), nat(2)]):
            l = enc_from_list(values)
            rebuilt = enc_fold(enc_nil(), enc_cons, l)
            assert is_true(eq_strong(rebuilt, l, 5))

    def test_fold_rejects_broken_pattern(self):
        broken = InrV(PairV(finmap({nat(1): nat(7)}), nat(1)))
        with pytest.raises(InvariantViolation):
            enc_fold(nat(0), lambda x, a: a, broken)

    def test_fold_calls_from_the_last_element(self):
        seen = []
        enc_fold(nat(0), lambda x, a: seen.append(x.n) or a, enc_from_list([nat(1), nat(2), nat(3)]))
        assert seen == [3, 2, 1]

    def test_fold_of_a_long_list(self):
        # longer than the recursion limit; the table is written out, as 2000
        # conses would shift it 2000 times
        l = InrV(PairV(finmap({nat(i): nat(i % 10) for i in range(2000)}), nat(1999)))
        assert enc_invariant_ok(l)
        plus = lambda x, acc: nat(x.n + acc.n)
        assert enc_fold(nat(0), plus, l) == nat(9000)

    def test_from_list_of_a_long_list(self):
        # one table, not one shifted copy per cons
        values = [nat(i % 10) for i in range(2000)]
        l = enc_from_list(values)
        assert l == InrV(PairV(finmap({nat(i): nat(i % 10) for i in range(2000)}), nat(1999)))
        plus = lambda x, acc: nat(x.n + acc.n)
        assert enc_fold(nat(0), plus, l) == nat(9000)


class TestConstructors:
    def test_zero_tree_depth_one(self):
        h = nat_algebra()
        assert tree_depth(h.construct(0, UNIT, [])) == 1

    def test_depth_counts_successors(self):
        h = nat_algebra()
        assert tree_depth(church(h, 2)) == 3

    def test_root_label_is_constructor_marker(self):
        h = nat_algebra()
        t = h.construct(0, UNIT, [])
        assert label_at(t, ()) == h.node_label(0)
        assert label_at(t, (0,)) == h.leaf_label(0, UNIT)

    def test_depth_law_exact(self):
        h = InitialAlgebra(MIXED_NF)
        for t in h.enumerate_trees(3):
            i, w, children = h.destruct(t)
            expected = 1 + max((tree_depth(c) for c in children), default=0)
            assert tree_depth(t) == expected

    def test_selector_inverts_first_child(self):
        h = list_handle()
        t = tree_list(h, [TRUE, FALSE])
        child = h.sel(1, t)
        assert is_true(eq_strong(child, tree_list(h, [FALSE]), 4))

    def test_selector_shape_roundtrip(self):
        # oracle: rebuild and compare path maps on paths of length <= 3
        h = InitialAlgebra(MIXED_NF)
        inner = tree_list_mixed(h)
        t = h.construct(2, UNIT, [inner, inner])
        assert tree_parts(h.sel(1, t))[:2] == tree_parts(inner)[:2]
        assert tree_parts(h.sel(2, t))[:2] == tree_parts(inner)[:2]


# the corpus signatures, elaborated as the CLI elaborates them
CORPUS_SIGNATURES = (
    "free type List ::= nil | cons(Nat; List)\n"
    "free type Nat2 ::= 0 | suc Nat2\n"
    "free type Shape ::= circle | square | glue(Shape; Shape)\n"
    "free type Tagged ::= leaf(Bool) | node(Nat; Tagged; Tagged)\n"
)
CORPUS_DEPTHS = {"List": 4, "Nat2": 6, "Shape": 3, "Tagged": 3}
CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


# The reference builds flat tables itself: a `finmap` over `encode_path`
# keys, sorted by the kernel's value order, with no trie involved.


def flat_tree(label, depth_map, anchor):
    def key(p):
        return encode_path(tuple(map(nat, p)))

    return PairV(
        finmap({key(p): v for p, v in label.items()}),
        PairV(finmap({key(p): nat(k) for p, k in depth_map.items()}), anchor),
    )


def flat_tables(t):
    """Integer-path label and depth dicts, decoded from the table entries."""
    def paths(table):
        return {tuple(s.n for s in decode_path(k)): v for k, v in table.entries}

    return paths(t.fst), {p: v.n for p, v in paths(t.snd.fst).items()}


def reference_construct(h, i, w, children):
    """Constructor by decoding, re-keying and re-sorting the child tables."""
    label = {(): h.node_label(i), (0,): h.leaf_label(i, w)}
    depth_map = {(0,): 0}
    for j, c in enumerate(children, start=1):
        lt, dt = flat_tables(c)
        label.update({(j,) + p: v for p, v in lt.items()})
        depth_map.update({(j,) + p: k for p, k in dt.items()})
    depth_map[()] = 1 + max((flat_tables(c)[1][()] for c in children), default=0)
    anchor = children[0].snd.snd if children else w
    return flat_tree(label, depth_map, anchor)


def reference_sel(j, t):
    lt, dt = flat_tables(t)
    label = {p[1:]: v for p, v in lt.items() if p[:1] == (j,)}
    depth_map = {p[1:]: k for p, k in dt.items() if p[:1] == (j,)}
    return flat_tree(label, depth_map, t.snd.snd)


def entries(t):
    return t.fst.entries, t.snd.fst.entries, t.snd.snd


def wide_tree():
    """A hand-built tree whose root has 12 subtrees, so that child 10
    must sort after child 9 as a number, not as a string."""
    h = InitialAlgebra(PolyNF(((Bool(), 0), (Unit(), 12))))
    leaves = [h.construct(0, TRUE if j % 3 else FALSE, []) for j in range(12)]
    inner = h.construct(1, UNIT, leaves[::-1])
    children = leaves[:9] + [inner, leaves[10], inner]
    return h, children, h.construct(1, UNIT, children)


class TestCanonicalTables:
    def check_against_reference(self, h, t):
        i, w, children = h.destruct(t)
        assert entries(h.construct(i, w, children)) == entries(
            reference_construct(h, i, w, children)
        )
        k = h.nf.summands[i][1]
        for j in range(1, k + 2):
            assert entries(h.sel(j, t)) == entries(reference_sel(j, t))

    @pytest.mark.parametrize("name", sorted(CORPUS_DEPTHS))
    def test_corpus_signatures_match_reference(self, name):
        from quasikernel.surface import elaborate, parse

        h = elaborate(parse(CORPUS_SIGNATURES)).freetypes[name].handle
        trees = h.enumerate_trees(CORPUS_DEPTHS[name])
        assert trees
        for t in trees:
            self.check_against_reference(h, t)

    def test_wide_node_orders_children_as_numbers(self):
        h, children, t = wide_tree()
        self.check_against_reference(h, t)
        steps = [tuple(s.n for s in decode_path(k)[:1]) for k, _ in entries(t)[0]]
        assert steps == sorted(steps)
        assert (10,) in steps and (11,) in steps

    def test_undefined_parameter_matches_reference(self):
        # construct is strict in its parameter, as poly_value is: no tree
        # is built with an improper inj_i(inl undefined) slot label
        lists = list_handle()
        wide, wide_children, _ = wide_tree()
        for h, i, children in (
            (lists, 1, [lists.construct(0, UNIT, [])]),
            (nat_algebra(), 0, []),
            (wide, 1, wide_children),
        ):
            assert h.construct(i, UNDEF, children) is UNDEF
            assert poly_value(h.nf, i, UNDEF, children) is UNDEF

    def test_selectors_share_the_child_tables(self):
        h, children, t = wide_tree()
        for j, child in enumerate(children, start=1):
            got, want = entries(h.sel(j, t)), entries(child)
            for table, original in zip(got[:2], want[:2]):
                assert len(table) == len(original)
                assert all(k is k0 for (k, _), (k0, _) in zip(table, original))


def tree_list_mixed(h):
    e = h.construct(0, UNIT, [])
    return h.construct(1, TRUE, [e])


class TestFold:
    def test_fold_of_structure_is_identity_on_naturals(self):
        h = nat_algebra()
        rebuild = [
            lambda w, rs: h.construct(0, UNIT, []),
            lambda w, rs: h.construct(1, UNIT, [rs[0]]),
        ]
        for n in range(5):
            assert h.fold(rebuild, church(h, n)) == church(h, n)

    def test_length_of_three_element_list(self):
        h = list_handle()
        t = tree_list(h, [TRUE, FALSE, TRUE])
        assert h.fold(length_algebra(), t) == nat(3)

    def test_fold_rejects_tree_without_root_label(self):
        h = nat_algebra()
        bad = make_tree({}, {(): 1}, UNIT)
        with pytest.raises(NotInCarrier):
            h.fold(length_algebra(), bad)

    @pytest.mark.parametrize("nf", [None, LIST_NF])
    def test_fold_equation_exhaustive(self, nf):
        h = nat_algebra() if nf is None else InitialAlgebra(nf)
        trees = h.enumerate_trees(4)
        carrier = [nat(i) for i in range(3)]
        algebras = enumerate_algebras(h.nf, len(carrier))
        assert fold_equation_failures(h, algebras, trees, carrier) == []

    def test_fold_equation_sampled_mixed(self):
        h = InitialAlgebra(MIXED_NF)
        trees = h.enumerate_trees(4)
        carrier = [nat(i) for i in range(3)]
        rng = random.Random(0)
        algebras = sample_algebras(h.nf, len(carrier), 25, rng)
        assert fold_equation_failures(h, algebras, trees, carrier) == []

    def test_fold_of_another_shape_is_a_failure(self, monkeypatch):
        # a fold result of another shape is an unequal side like any other,
        # not an incomparable pair; only component k of the product fold is
        # replaced, and the failure is algebra k's, whose fold is the
        # constant carrier index k
        h = list_handle()
        trees = h.enumerate_trees(3)
        odd = max(trees, key=tree_depth)  # no tree of the set has it as a child
        carrier = [nat(i) for i in range(3)]
        algebras = [constant_algebra(h.nf, 3, k) for k in range(3)]
        k = 1
        real = h.fold

        def tampered(alg, t):
            out = real(alg, t)
            return out[:k] + (UNIT,) + out[k + 1:] if t == odd else out

        monkeypatch.setattr(h, "fold", tampered)
        failures = fold_equation_failures(h, algebras, trees, carrier)
        i = h.destruct(odd)[0]
        assert failures == [f"summand {i}: () != {k}"]

        # a whole product fold of another shape fails once for every
        # algebra, in algebra order, and raises no TypeError
        monkeypatch.setattr(h, "fold", lambda alg, t: UNIT if t == odd else real(alg, t))
        failures = fold_equation_failures(h, algebras, trees, carrier)
        assert failures == [f"summand {i}: () != {k}" for k in range(3)]

    def test_fold_uniqueness(self):
        # the enumerated set is subtree-closed, and on it each sampled
        # algebra's fold equation, counted one tree at a time, has one solution
        carrier = [nat(i) for i in range(3)]
        for h in (nat_algebra(), list_handle()):
            trees = h.enumerate_trees(4)
            assert fold_uniqueness_solutions(h, trees) == []
            for alg in sample_algebras(h.nf, len(carrier), 10, random.Random(1)):
                assert _uniqueness_one_by_one(h, index_algebra(alg, 3), trees, carrier) == 1

    def test_fold_uniqueness_on_many_trees(self):
        # more trees than the default recursion limit (1,000) allows frames
        from quasikernel.surface import elaborate, parse

        h = elaborate(parse(CORPUS_SIGNATURES)).freetypes["Shape"].handle
        trees = h.enumerate_trees(4)
        assert len(trees) == 1446
        assert fold_uniqueness_solutions(h, trees) == []
        # one depth-2 tree removed: each tree that has it as a child fails,
        # shallowest first, named by its summand and depth
        gone = next(t for t in trees if tree_depth(t) == 2)
        rest = [t for t in trees if t is not gone]
        parents = [
            t for t in rest if tree_parts(gone)[:2] in [tree_parts(c)[:2] for c in h.destruct(t)[2]]
        ]
        failures = fold_uniqueness_solutions(h, rest)
        assert failures == [
            f"summand {h.destruct(t)[0]} at depth {tree_depth(t)}: a subtree is not in the set"
            for t in parents
        ]
        assert failures[0] == "summand 1 at depth 3: a subtree is not in the set"
        # a carrier listing the required value twice doubles the count per tree
        solo = constant_algebra(h.nf, 2, 0)
        assert _uniqueness_one_by_one(h, index_algebra(solo, 2), trees[:3], [nat(0), nat(0)]) == 8
        assert _uniqueness_one_by_one(h, index_algebra(solo, 2), trees, [nat(0), nat(1)]) == 1


def _equation_failures_one_by_one(handle, algebra, trees, carrier):
    """The fold equation checked for one algebra on carrier indices, one
    fold per tree."""
    failures = []
    results = {}
    for t in sorted(trees, key=lambda t: tree_depth(t) or 0):
        i, w, children = handle.destruct(t)
        lhs = handle.fold(algebra, t)
        results[tree_parts(t)[:2]] = lhs
        rhs = algebra[i](w, [results[tree_parts(c)[:2]] for c in children])
        if lhs != rhs:
            failures.append(f"summand {i}: {show_pval(carrier[lhs])} != {show_pval(carrier[rhs])}")
    return failures


def _uniqueness_one_by_one(handle, algebra, trees, carrier):
    """The fold-equation solutions counted for one algebra on carrier
    indices: per tree, the members equal to the required one."""
    assignment = {}
    total = 1
    for t in sorted(trees, key=lambda t: tree_depth(t) or 0):
        i, w, children = handle.destruct(t)
        required = algebra[i](w, [assignment[tree_parts(c)[:2]] for c in children])
        assert handle.fold(algebra, t) == required
        assignment[tree_parts(t)[:2]] = required
        total *= sum(b == carrier[required] for b in carrier)
    return total


class _Bumped(InitialAlgebra):
    """A fold that is wrong on the trees in ``bad``: each result there, or
    each component of a product's result, is moved to the next of 0, 1, 2."""

    bad: frozenset = frozenset()

    def fold(self, algebra, t):
        out = super().fold(algebra, t)
        if t not in self.bad:
            return out
        bump = lambda j: (j + 1) % 3
        return tuple(map(bump, out)) if type(out) is tuple else bump(out)


_summand = st.tuples(st.sampled_from([Unit(), Bool()]), st.integers(1, 2))


class TestProductFold:
    """One fold into the product of the algebras gives what one fold into
    each gives, in the same order."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([Unit(), Bool()]),
        st.lists(_summand, max_size=2),
        st.integers(1, 3),
        st.randoms(use_true_random=False),
        st.integers(0, 4),
    )
    def test_agrees_with_one_fold_per_algebra(self, a0, rest, depth, rng, count):
        h = _Bumped(PolyNF(((a0, 0), *rest)))
        enumerated = h.enumerate_trees(depth)
        if len(enumerated) > 300:
            enumerated = enumerated[:300]
        # a random subtree-closed set, in a random order
        todo = rng.sample(enumerated, min(len(enumerated), 8))
        trees = []
        while todo:
            t = todo.pop()
            if t not in trees:
                trees.append(t)
                todo.extend(h.destruct(t)[2])
        rng.shuffle(trees)
        h.bad = frozenset(t for t in trees if rng.random() < 0.3)
        carrier = [nat(i) for i in range(3)]
        algebras = sample_algebras(h.nf, 3, count, rng)
        expected = [
            f
            for alg in algebras
            for f in _equation_failures_one_by_one(h, index_algebra(alg, 3), trees, carrier)
        ]
        assert fold_equation_failures(h, algebras, trees, carrier) == expected
        assert fold_uniqueness_solutions(h, trees) == []


class TestFoldCount:
    def test_check_folds_each_tree_at_most_once(self, monkeypatch):
        # one product fold for the equation, not one per sampled algebra.
        # Uniqueness, Lambek's lemma and membership read each tree's
        # children and call no fold.  The file's two ``let`` folds run while
        # it is elaborated, before any tree is enumerated, and are not counted.
        from quasikernel.cli import run

        folds, trees = [], []
        fold, enumerate_trees = InitialAlgebra.fold, InitialAlgebra.enumerate_trees

        def counted(self, alg, t):
            if trees:
                folds.append(t)
            return fold(self, alg, t)

        monkeypatch.setattr(InitialAlgebra, "fold", counted)
        monkeypatch.setattr(
            InitialAlgebra,
            "enumerate_trees",
            lambda self, d: trees.extend(enumerate_trees(self, d)) or enumerate_trees(self, d),
        )
        lists = os.path.join(CORPUS, "lists.qk")
        report, code = run(["check", lists, "--suite", "initial", "--obs-depth", "6"])
        assert code == 0, report
        assert trees
        assert len(folds) <= len(trees)


_real_destruct, _real_sel, _real_f = InitialAlgebra.destruct, InitialAlgebra.sel, InitialAlgebra._f

# one-function mutants of the tree handle, as monkeypatches of its class
MUTANTS = {
    "destruct-reversed": (
        "destruct",
        lambda self, t: (lambda i, w, cs: (i, w, cs[::-1]))(*_real_destruct(self, t)),
    ),
    "sel-1": ("sel", lambda self, j, t: _real_sel(self, 1, t)),
}


def _reversed_f(self, n, t, algebra):
    """A walk that hands each algebra its results reversed."""
    return _real_f(self, n, t, [lambda w, rs, a=a: a(w, rs[::-1]) for a in algebra])


def _initial_report(name, depth, monkeypatch=None, mutant=None):
    """``suite_initial`` on a freshly elaborated corpus type, by check name."""
    from quasikernel.checks import CheckConfig, suite_initial
    from quasikernel.surface import elaborate, parse

    if mutant is not None:
        monkeypatch.setattr(InitialAlgebra, *MUTANTS[mutant])
    info = elaborate(parse(CORPUS_SIGNATURES)).freetypes[name]
    results = suite_initial(info, CheckConfig(depth, 8, 0))
    return info.handle, {r.name.rsplit(".", 1)[1]: r for r in results}


class TestLambekCheck:
    """The Lambek check of ``suite_initial``: one node per tree, each tree's
    inverse built from its children's."""

    def test_calls_the_structure_map_once_per_node(self, monkeypatch):
        from quasikernel.cli import run

        calls, trees = [], []
        structure_map = InitialAlgebra.structure_map
        enumerate_trees = InitialAlgebra.enumerate_trees

        def counted(self, fv):
            if trees:
                calls.append(fv)
            return structure_map(self, fv)

        def enumerated(self, d):
            out = enumerate_trees(self, d)
            trees.extend((self, t) for t in out)
            return out

        monkeypatch.setattr(InitialAlgebra, "structure_map", counted)
        monkeypatch.setattr(InitialAlgebra, "enumerate_trees", enumerated)
        lists = os.path.join(CORPUS, "lists.qk")
        report, code = run(["check", lists, "--suite", "initial", "--obs-depth", "6"])
        assert code == 0, report
        assert trees
        # k children's inverses mapped back into T, and the tree rebuilt once
        assert len(calls) <= sum(len(h.destruct(t)[2]) + 1 for h, t in trees)

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_mutants_fail_on_shape(self, monkeypatch, mutant):
        _, checks = _initial_report("Shape", 3, monkeypatch, mutant)
        assert checks["lambek"].status == "fail"
        assert checks["membership"].status == "fail"

    @pytest.mark.parametrize("mutant", [None, *sorted(MUTANTS)])
    @pytest.mark.parametrize("name", ["List", "Shape", "Tagged"])
    def test_verdict_matches_the_real_fold(self, monkeypatch, name, mutant):
        h, checks = _initial_report(name, 3, monkeypatch, mutant)
        inv = h.lambek_inverse()
        reference = all(h.structure_map(inv(t)) == t for t in h.enumerate_trees(3))
        assert (checks["lambek"].status == "pass") == reference

    def test_a_fold_that_disagrees_with_its_equation_is_a_failed_check(self, monkeypatch):
        # results handed over reversed: on Shape's glue the equation forces
        # another value than fold gives.  The Lambek check calls no fold.
        from quasikernel.cli import run

        monkeypatch.setattr(InitialAlgebra, "_f", _reversed_f)
        mixed = os.path.join(CORPUS, "mixed.qk")
        report, code = run(["check", mixed, "--suite", "initial", "--obs-depth", "3"])
        assert code == 1
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["initial.Shape.fold-equation"]["status"] == "fail"
        assert checks["initial.Shape.fold-equation"]["detail"].startswith("summand 1: ")
        assert checks["initial.Shape.lambek"]["status"] == "pass"

    def test_a_failed_fold_equation_prints_values_as_eval_does(self, monkeypatch):
        from quasikernel.cli import run

        monkeypatch.setattr(InitialAlgebra, "_f", _reversed_f)
        mixed = os.path.join(CORPUS, "mixed.qk")
        report, code = run(["check", mixed, "--suite", "initial", "--obs-depth", "3"])
        assert code == 1
        failed = [c for c in report["checks"] if c["name"].endswith(".fold-equation")]
        assert failed and all(c["status"] == "fail" for c in failed)
        for c in failed:
            assert re.fullmatch(r"summand \d+: \d+ != \d+", c["detail"]), c["detail"]
            assert "NatV(" not in c["detail"]


def _value_keyed_algebras(nf, carrier, count, rng):
    """The sampler as it drew before its tables held carrier indices: per
    algebra and summand a dict from ``(w, children's values)`` to a member,
    one ``rng.choice(carrier)`` per key, keys in ``itertools.product`` order."""
    domains = [
        [(w, combo) for w in enumerate_ty(a, 2) for combo in itertools.product(carrier, repeat=k)]
        for a, k in nf.summands
    ]
    return [[{key: rng.choice(carrier) for key in d} for d in domains] for _ in range(count)]


class TestSampledTables:
    """``sample_algebras`` makes the draws the value-keyed sampler made, in
    the same order, and keeps each as a carrier index."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", sorted(CORPUS_DEPTHS))
    def test_tables_hold_the_value_keyed_draws(self, name, seed):
        from quasikernel.surface import elaborate, parse

        nf = elaborate(parse(CORPUS_SIGNATURES)).freetypes[name].handle.nf
        carrier = [nat(i) for i in range(3)]
        rng, ref_rng = random.Random(seed), random.Random(seed)
        # the suite's 20 fold-equation draws, then 3 more from the same
        # generator, which the suite no longer draws: later draws keep the layout
        for count in (20, 3):
            got = sample_algebras(nf, len(carrier), count, rng)
            want = _value_keyed_algebras(nf, carrier, count, ref_rng)
            as_values = [
                [
                    {
                        (w, combo): carrier[j]
                        for w, entries in table.items()
                        for combo, j in zip(itertools.product(carrier, repeat=k), entries, strict=True)
                    }
                    for table, (_, k) in zip(algebra, nf.summands, strict=True)
                ]
                for algebra in got
            ]
            assert as_values == want
        assert rng.getstate() == ref_rng.getstate()


class TestFoldCheckMutants:
    """Tampered folds and tree sets that ``check`` must catch."""

    def _report(self):
        from quasikernel.cli import run

        mixed = os.path.join(CORPUS, "mixed.qk")
        report, code = run(["check", mixed, "--suite", "initial", "--obs-depth", "3"])
        return code, {c["name"]: (c["status"], c["detail"]) for c in report["checks"]}

    def test_reversed_results_fail_only_the_fold_equation(self, monkeypatch):
        # the details are those the value-keyed tables gave; uniqueness and
        # membership read each tree's children and call no fold, so they pass
        monkeypatch.setattr(InitialAlgebra, "_f", _reversed_f)
        code, checks = self._report()
        assert code == 1
        for name, equation in (("Shape", "summand 1: 0 != 2"), ("Tagged", "summand 1: 1 != 2")):
            assert checks[f"initial.{name}.fold-equation"] == ("fail", equation)
            assert checks[f"initial.{name}.fold-uniqueness"] == ("pass", "")
            assert checks[f"initial.{name}.membership"] == ("pass", "")
        failed = sorted(n for n, (status, _) in checks.items() if status != "pass")
        assert failed == ["initial.Shape.fold-equation", "initial.Tagged.fold-equation"]

    def test_a_missing_subtree_fails_uniqueness_and_skips_the_rest(self, monkeypatch):
        # the second tree, a constant, left out of the set: the checks that
        # read the children's results do not run, and nothing raises
        enumerate_trees = InitialAlgebra.enumerate_trees
        monkeypatch.setattr(
            InitialAlgebra,
            "enumerate_trees",
            lambda self, d: (lambda ts: ts[:1] + ts[2:])(enumerate_trees(self, d)),
        )
        code, checks = self._report()
        assert code == 1
        skipped = ("skip", "not run: fold-uniqueness failed")
        for name in ("Shape", "Tagged"):
            assert checks[f"initial.{name}.fold-uniqueness"] == (
                "fail",
                "summand 1 at depth 2: a subtree is not in the set",
            )
            for check in ("fold-equation", "lambek", "membership"):
                assert checks[f"initial.{name}.{check}"] == skipped
            assert checks[f"initial.{name}.depth-law"] == ("pass", "")

    def test_a_wrong_anchor_fails_membership(self, monkeypatch):
        # one depth-2 tree of Shape carries another anchor.  Its path maps
        # are those of an enumerated tree, so the set is still closed; the
        # subtrees ``destruct`` reads carry the wrong anchor too, so only a
        # rebuild from the enumerated trees tells it apart.
        enumerate_trees = InitialAlgebra.enumerate_trees

        def enumerated(self, d):
            trees = enumerate_trees(self, d)
            at = next(n for n, t in enumerate(trees) if tree_depth(t) == 2)
            label, depth_map = tree_tables(trees[at])
            trees[at] = make_tree(label, depth_map, nat(42))
            return trees

        monkeypatch.setattr(InitialAlgebra, "enumerate_trees", enumerated)
        _, checks = _initial_report("Shape", 3)
        assert checks["fold-uniqueness"].status == "pass"
        assert checks["membership"].status == "fail"

    @pytest.mark.parametrize("summand", [0, 1])
    def test_one_flipped_entry_fails_the_fold_equation(self, monkeypatch, summand):
        # While the fold-equation product is folded, algebra 0 reads one
        # entry of its table for ``summand`` moved to the next index; the
        # equation's side reads the sampled entry.  The entry is the one
        # read at the root of the first tree of that summand: the first
        # constant, or the first parameter above copies of that constant.
        from quasikernel import checks as checks_mod
        from quasikernel.surface import elaborate, parse

        sampled, sample, fold = [], checks_mod.sample_algebras, InitialAlgebra.fold
        monkeypatch.setattr(
            checks_mod, "sample_algebras", lambda *a: sampled.append(sample(*a)) or sampled[-1]
        )
        flipped = {}

        def flipping_fold(self, algebra, t):
            if len(sampled[-1]) != 20:
                return fold(self, algebra, t)
            tables = sampled[-1][0]
            leaf = next(iter(tables[0].values()))[0]
            entries = next(iter(tables[summand].values()))
            k = self.nf.summands[summand][1]
            at = sum(leaf * 3**e for e in range(k))
            flipped[self.nf] = entries[at]
            entries[at] = (entries[at] + 1) % 3
            try:
                return fold(self, algebra, t)
            finally:
                entries[at] = flipped[self.nf]

        monkeypatch.setattr(InitialAlgebra, "fold", flipping_fold)
        code, checks = self._report()
        assert code == 1
        env = elaborate(parse(CORPUS_SIGNATURES))
        for name in ("Shape", "Tagged"):
            entry = flipped[env.freetypes[name].handle.nf]
            assert checks[f"initial.{name}.fold-equation"] == (
                "fail",
                f"summand {summand}: {(entry + 1) % 3} != {entry}",
            )
        failed = sorted(n for n, (status, _) in checks.items() if status != "pass")
        assert failed == ["initial.Shape.fold-equation", "initial.Tagged.fold-equation"]


class TestEnumerateTrees:
    """``suite_initial``'s one-pass Lambek check reads the trees in the
    order ``enumerate_trees`` returns them, so that order is by depth."""

    @pytest.mark.parametrize("name", sorted(CORPUS_DEPTHS))
    def test_corpus_types_come_in_depth_order(self, name):
        from quasikernel.surface import elaborate, parse

        h = elaborate(parse(CORPUS_SIGNATURES)).freetypes[name].handle
        depths = [tree_depth(t) for t in h.enumerate_trees(CORPUS_DEPTHS[name])]
        assert depths == sorted(depths) and depths[-1] == CORPUS_DEPTHS[name]

    @pytest.mark.parametrize(
        "nf, depth",
        [
            (LIST_NF, 4),
            (LIST_NAT_NF, 4),
            (MIXED_NF, 3),
            (PolyNF(((Bool(), 0), (Unit(), 2), (Bool(), 1))), 3),
        ],
    )
    def test_normal_forms_come_in_depth_order(self, nf, depth):
        depths = [tree_depth(t) for t in InitialAlgebra(nf).enumerate_trees(depth)]
        assert depths == sorted(depths) and depths[-1] == depth


class TestLambek:
    def test_inverse_decomposes_cons(self):
        h = list_handle()
        t = tree_list(h, [TRUE])
        inv = h.lambek_inverse()
        assert inv(tree_list(h, [FALSE, TRUE])) == poly_value(
            h.nf, 1, FALSE, [tree_list(h, [TRUE])]
        )
        assert inv(t) == poly_value(h.nf, 1, TRUE, [tree_list(h, [])])

    def test_mutually_inverse_on_enumerated_trees(self):
        for nf in (LIST_NF, MIXED_NF):
            h = InitialAlgebra(nf)
            inv = h.lambek_inverse()
            for t in h.enumerate_trees(4):
                assert h.structure_map(inv(t)) == t
            for t in h.enumerate_trees(3):
                i, w, children = h.destruct(t)
                fv = poly_value(h.nf, i, w, children)
                assert inv(h.structure_map(fv)) == fv

    def test_nat_inverse_gives_zero_suc_split(self):
        h = nat_algebra()
        inv = h.lambek_inverse()
        assert inv(church(h, 0)) == poly_value(h.nf, 0, UNIT, [])
        assert inv(church(h, 3)) == poly_value(h.nf, 1, UNIT, [church(h, 2)])


class TestPrimrec:
    def test_predecessor(self):
        h = nat_algebra()
        pred = h.primrec(
            [lambda w, ps: church(h, 0), lambda w, ps: ps[0][0]]
        )
        # oracle: the standard primitive-recursive predecessor
        for k in range(1, 6):
            assert pred(church(h, k)) == church(h, k - 1)
        assert pred(church(h, 0)) == church(h, 0)

    def test_length_via_primrec_matches_oracle(self):
        h = list_handle()
        length = h.primrec(
            [lambda w, ps: nat(0), lambda w, ps: nat(ps[0][1].n + 1)]
        )
        for vals in ([], [TRUE], [TRUE, FALSE, TRUE]):
            assert length(tree_list(h, vals)) == nat(len(vals))

    def test_first_component_is_identity(self):
        for nf in (LIST_NF, MIXED_NF):
            h = InitialAlgebra(nf)
            g = h.primrec_pairing([lambda w, ps: nat(0)] * h.n)
            for t in h.enumerate_trees(4):
                assert g(t)[0] == t

    def test_ignoring_recursion_is_case_analysis(self):
        h = list_handle()
        by_primrec = h.primrec(
            [lambda w, ps: nat(0), lambda w, ps: nat(1)]
        )
        for t in h.enumerate_trees(3):
            assert by_primrec(t) == nat(h.destruct(t)[0])


class TestCase:
    """``case`` as ``eval`` runs it: one branch per declared constructor,
    applied to the constructor's arguments."""

    def info(self):
        from quasikernel.surface import elaborate, parse

        return elaborate(parse("free type L ::= nil | cons(Bool; L)")).freetypes["L"]

    def test_against_pattern_match_oracle(self):
        info = self.info()
        h = info.handle
        branches = [lambda: nat(0), lambda x, _l: nat(2 if x == TRUE else 1)]

        def oracle(t):
            i, w, _ = h.destruct(t)
            return nat(0) if i == 0 else nat(2 if w == TRUE else 1)

        for t in h.enumerate_trees(4):
            assert info.case(branches, t) == oracle(t)

    def test_strict_on_undefined_scrutinee(self):
        assert self.info().case([nat(0), lambda x, _l: nat(0)], UNDEF) == UNDEF

    def test_head_selector_via_case(self):
        info = self.info()
        head = lambda t: info.case([lambda: UNDEF, lambda x, _l: x], t)
        assert head(tree_list(info.handle, [FALSE, TRUE])) == FALSE
        assert head(tree_list(info.handle, [])) == UNDEF

    def test_takes_one_destruct_step(self):
        info = self.info()
        h = info.handle
        t = tree_list(h, [TRUE, FALSE] * 14)
        destruct, calls = h.destruct, []
        h.destruct = lambda t: calls.append(t) or destruct(t)
        assert info.case([lambda: UNDEF, lambda x, _l: x], t) == TRUE
        assert len(calls) == 1


class TestInduction:
    def test_always_true(self):
        assert induction_via_fold(lambda n: True, 20)

    def test_prefix_conjunction_cutoff(self):
        assert induction_via_fold(lambda n: n < 3, 20)

    def test_false_at_zero(self):
        assert induction_via_fold(lambda n: n != 0, 20)

    def test_q_values_directly(self):
        h = nat_algebra()
        pred = lambda n: n < 3
        from quasikernel.kernel import holds, logical

        q = h.primrec(
            [
                lambda w, ps: logical(pred(0)),
                lambda w, ps: logical(
                    holds(ps[0][1]) and pred(unchurch(ps[0][0]) + 1)
                ),
            ]
        )
        assert holds(q(church(h, 2)))
        assert not holds(q(church(h, 3)))


class TestSubtypeFold:
    def even_setup(self):
        h = nat_algebra()
        algebra = [
            lambda w, rs: nat(0),
            lambda w, rs: nat(rs[0].n + 2),
        ]
        phi = lambda v: isinstance(v, NatV) and v.n % 2 == 0
        return h, algebra, phi

    def test_even_naturals_stay_even(self):
        h, algebra, phi = self.even_setup()
        for n in range(11):
            out = subtype_fold(h, algebra, phi, church(h, n))
            assert out == nat(2 * n)
            assert out.n % 2 == 0  # parity oracle

    def test_constant_algebra(self):
        h, _, phi = self.even_setup()
        algebra = [lambda w, rs: nat(0), lambda w, rs: nat(0)]
        assert subtype_fold(h, algebra, phi, church(h, 5)) == nat(0)

    def test_escaping_algebra_is_flagged(self):
        h, _, phi = self.even_setup()
        bad = [lambda w, rs: nat(0), lambda w, rs: nat(rs[0].n + 1)]
        with pytest.raises(SubtypeEscape):
            subtype_fold(h, bad, phi, church(h, 1))


class TestParamMap:
    shape = [[[]], [[True]]]

    def handle(self):
        return InitialAlgebra(LIST_NAT_NF, param_shape=self.shape)

    def test_elementwise(self):
        h = self.handle()
        suc = lambda v: nat(v.n + 1)
        t = tree_list(h, [nat(1), nat(2)])
        # oracle: map one element at a time
        assert param_map(h, h, suc, t) == tree_list(h, [nat(2), nat(3)])

    def test_map_id_is_id(self):
        h = self.handle()
        for vals in ([], [nat(0)], [nat(1), nat(0), nat(2)]):
            t = tree_list(h, vals)
            assert param_map(h, h, lambda v: v, t) == t

    def test_nil_maps_to_nil(self):
        h = self.handle()
        assert param_map(h, h, lambda v: nat(v.n + 1), tree_list(h, [])) == tree_list(
            h, []
        )

    def test_partial_map_is_undefined_wherever_it_fails(self):
        # construct is strict in its subtrees too, so an element deep in the
        # list that f is undefined on gives UNDEF, as one at the root does
        h = self.handle()
        for vals in ([nat(1), nat(2)], [nat(2), nat(1)], [nat(3), nat(4), nat(2)]):
            t = tree_list(h, vals)
            assert param_map(h, h, lambda v: UNDEF if v.n == 2 else v, t) is UNDEF


def reference_is_in_T(h, t):
    """Membership by two recursive walks: every level, rebuilt from its own
    subtrees, has the tree's label and depth tables, and the anchor is the
    parameter of the constant at the end of the leftmost spine."""

    def shape(t, budget):
        if budget <= 0:
            return False
        try:
            i, w, children = h.destruct(t)
        except NotInCarrier:
            return False
        if any(not shape(c, budget - 1) for c in children):
            return False
        return tree_parts(h.construct(i, w, children))[:2] == tree_parts(t)[:2]

    def leftmost_param(t, budget):
        i, w, children = h.destruct(t)
        if not children:
            return w
        if budget <= 0:
            raise NotInCarrier("no constant below the leftmost spine")
        return leftmost_param(children[0], budget - 1)

    dep = tree_depth(t)
    if dep is None:
        return False
    try:
        return shape(t, dep) and tree_anchor(t) == leftmost_param(t, dep)
    except QuasiError:
        return False


def single_entry_mutations(t, anchors):
    """Each label deleted or replaced by another label of the tree, each
    depth bumped or deleted, and the anchor swapped for each other anchor."""
    lt, dt, anchor = tree_parts(t)
    label, depth_map = tree_tables(t)
    values = set(label.values())
    for p, v in label.items():
        for u in [None, *(values - {v})]:
            changed = [(q, x) for q, x in label.items() if q != p]
            if u is not None:
                changed.append((p, u))
            yield PairV(trie_of_paths(changed), PairV(dt, anchor))
    for p, k in depth_map.items():
        for u in (k + 1, None):
            changed = [(q, nat(x)) for q, x in depth_map.items() if q != p]
            if u is not None:
                changed.append((p, nat(u)))
            yield PairV(lt, PairV(trie_of_paths(changed), anchor))
    for a in anchors:
        if a != anchor:
            yield PairV(lt, PairV(dt, a))


class TestMembership:
    @pytest.mark.parametrize("name", sorted(CORPUS_DEPTHS))
    def test_agrees_with_the_recursive_reference(self, name):
        from quasikernel.surface import elaborate, parse

        h = elaborate(parse(CORPUS_SIGNATURES)).freetypes[name].handle
        trees = h.enumerate_trees(3)
        anchors = {tree_anchor(t) for t in trees}
        members = checked = 0
        for t in trees:
            for u in (t, *single_entry_mutations(t, anchors)):
                expected = reference_is_in_T(h, u)
                assert h.is_in_T(u) == expected
                members += expected
                checked += 1
        assert members >= len(trees) and checked > 2 * len(trees)

    def test_long_list_is_a_member(self):
        # deeper than the recursion limit, so membership must not recurse per level
        h = InitialAlgebra(LIST_NAT_NF)
        t = tree_list(h, [nat(i % 3) for i in range(5000)])
        assert h.is_in_T(t)

    def test_accepts_generated_trees(self):
        for nf in (LIST_NF, MIXED_NF):
            h = InitialAlgebra(nf)
            for t in h.enumerate_trees(4):
                assert h.is_in_T(t)

    def test_rejects_mutations(self):
        h = InitialAlgebra(MIXED_NF)
        base = h.construct(2, UNIT, [tree_list_mixed(h), h.construct(0, UNIT, [])])
        label, depth_map = tree_tables(base)
        anchor = tree_anchor(base)

        no_leaf = dict(label)
        del no_leaf[(0,)]
        assert not h.is_in_T(make_tree(no_leaf, depth_map, anchor))

        wrong_depth = dict(depth_map)
        wrong_depth[()] = 9
        assert not h.is_in_T(make_tree(label, wrong_depth, anchor))

        junk = dict(label)
        junk[(5,)] = h.node_label(0)
        assert not h.is_in_T(make_tree(junk, depth_map, anchor))

        assert not h.is_in_T(make_tree(label, depth_map, nat(42)))

        leaf_root = dict(label)
        leaf_root[()] = h.leaf_label(0, UNIT)
        assert not h.is_in_T(make_tree(leaf_root, depth_map, anchor))

    def test_fuzzed_single_entry_mutations(self):
        h = list_handle()
        rng = random.Random(7)
        trees = h.enumerate_trees(3)
        for t in trees:
            label, depth_map = tree_tables(t)
            anchor = tree_anchor(t)
            p = rng.choice(list(depth_map))
            bumped = dict(depth_map)
            bumped[p] = depth_map[p] + 1
            assert not h.is_in_T(make_tree(label, bumped, anchor))

    def test_carrier_invariants(self):
        h = InitialAlgebra(MIXED_NF)
        for t in h.enumerate_trees(4):
            assert (tree_depth(t) or 0) > 0
            root = label_at(t, ())
            assert root in {h.node_label(i) for i in range(h.n)}


class TestConcurrency:
    def test_parallel_folds_agree(self):
        # values are immutable and folds are pure, so concurrent use of one
        # handle must give identical results
        from concurrent.futures import ThreadPoolExecutor

        h = InitialAlgebra(MIXED_NF)
        trees = h.enumerate_trees(3)
        algebra = [
            lambda w, rs: nat(1),
            lambda w, rs: nat(2 * rs[0].n + (1 if w == TRUE else 0)),
            lambda w, rs: nat(rs[0].n + rs[1].n),
        ]
        expected = [h.fold(algebra, t) for t in trees]
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(3):
                results = list(pool.map(lambda t: h.fold(algebra, t), trees))
                assert results == expected


# ---------------------------------------------------------------------------
# Tree tables as interned tries

bool_lists = st.lists(st.sampled_from([TRUE, FALSE]), max_size=4)


class TestTrieTables:
    @given(bool_lists, bool_lists)
    def test_equal_tables_hash_equal(self, xs, ys):
        # label and depth tables built by construct, by make_tree, and flat
        h = list_handle()
        forms = []
        for vals in (xs, ys):
            t = tree_list(h, vals)
            rebuilt = make_tree(*tree_tables(t), tree_anchor(t))
            assert rebuilt.fst is t.fst and rebuilt.snd.fst is t.snd.fst
            for key, table, again in (
                (("label", tuple(vals)), t.fst, rebuilt.fst),
                (("depth", len(vals)), t.snd.fst, rebuilt.snd.fst),
            ):
                forms += [(key, table), (key, again), (key, finmap(table.entries))]
        for ka, a in forms:
            for kb, b in forms:
                assert (a == b) == (ka == kb)
                if a == b:
                    assert hash(a) == hash(b)

    def test_construct_destruct_fold_read_no_entries(self, monkeypatch):
        reads = []
        derived = PathTrie.entries
        monkeypatch.setattr(
            PathTrie, "entries", property(lambda t: reads.append(t) or derived.fget(t))
        )
        h = list_handle()
        t = tree_list(h, [TRUE, FALSE] * 20)
        assert h.fold(length_algebra(), t) == nat(40)
        assert h.destruct(t)[0] == 1 and h.sel(1, t) == h.destruct(t)[2][0]
        assert h.is_in_T(t)
        assert reads == []

    def test_construct_shares_the_child_tables(self):
        h, children, t = wide_tree()
        i, w, parts = h.destruct(t)
        for j, child in enumerate(children, start=1):
            assert t.fst.child(j) is child.fst and t.snd.fst.child(j) is child.snd.fst
            assert parts[j - 1].fst is child.fst

    def test_destruct_keeps_each_trees_anchor(self):
        # a subtree read through sel keeps its parent's anchor, so the same
        # label table is destructed under two anchors in turn
        h = InitialAlgebra(PolyNF(((Bool(), 0), (Nat(), 2))))
        s = h.construct(1, nat(2), [h.construct(0, FALSE, []), h.construct(0, TRUE, [])])
        c = h.construct(1, nat(1), [h.construct(0, TRUE, []), s])
        inner = h.sel(2, c)
        assert inner.fst is s.fst and tree_anchor(inner) == TRUE != tree_anchor(s)
        for _ in range(2):
            for t, anchor in ((s, FALSE), (inner, TRUE), (c, TRUE)):
                i, w, children = h.destruct(t)
                assert i == 1 and all(tree_anchor(ch) == anchor for ch in children)
                assert h.destruct(t)[2] is children

    def test_concurrent_construction_agrees(self):
        # threads intern the same nodes at once; each equal tree must still be
        # one object
        h = list_handle()
        results, errors = [], []

        def work():
            try:
                for n in range(25):
                    vals = [TRUE if k % 3 else FALSE for k in range(n)]
                    results.append((vals, tree_list(h, vals)))
            except Exception as e:  # reported by the assertion below
                errors.append(e)

        threads = [threading.Thread(target=work) for _ in range((os.cpu_count() or 2) + 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        by_vals = {}
        for vals, t in results:
            by_vals.setdefault(tuple(vals), []).append(t)
        for vals, trees in by_vals.items():
            assert h.fold(length_algebra(), trees[0]) == nat(len(vals))
            assert all(t is trees[0] for t in trees)

    def test_deep_tree_without_recursion(self):
        # each of these raised RecursionError on a tree this deep when the
        # tables were flat: hashing recursed down the deepest path key
        h = nat_algebra()
        t = church(h, 3000)
        rebuilt = church(h, 3000)
        assert hash(t) == hash(rebuilt)
        assert t == rebuilt
        assert tree_depth(t) == 3001
        i, w, children = h.destruct(t)
        assert (i, w, tree_depth(children[0])) == (1, UNIT, 3000)
        count = [lambda w, rs: nat(0), lambda w, rs: nat(rs[0].n + 1)]
        assert h.fold(count, t) == nat(3000)
        label, depth = tree_tables(t)
        assert len(label) == 6002 and depth[()] == 3001 and depth[(1,) * 3000] == 1
