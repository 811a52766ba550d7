import inspect
import itertools
import os
import random
import sys
import textwrap
import threading

import pytest
from hypothesis import given, settings, strategies as st

from quasikernel import initial
from quasikernel.checks import fold_equation_failures, fold_uniqueness_solutions
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
    of carrier indices, with the parameters' naturals below 2: per summand,
    each parameter maps to a list indexed by the children's indices read as
    a base-``size`` number, first child most significant."""

    def tables(a, k):
        ws, entries = enumerate_ty(a, 2), size**k
        for values in itertools.product(range(size), repeat=len(ws) * entries):
            yield {w: list(values[j * entries:(j + 1) * entries]) for j, w in enumerate(ws)}

    return [list(combo) for combo in itertools.product(*(list(tables(a, k)) for a, k in nf.summands))]


def sample_algebras(nf, size, count, rng):
    """``count`` seeded algebras in the layout of ``enumerate_algebras``,
    for signatures whose every algebra is too many."""
    params = [(enumerate_ty(a, 2), size**k) for a, k in nf.summands]
    return [
        [{w: [rng.randrange(size) for _ in range(entries)] for w in ws} for ws, entries in params]
        for _ in range(count)
    ]


def algebras_for(nf, rng, samples=30, limit=3000):
    """Every algebra on three members when there are at most ``limit`` of
    them, else ``samples`` seeded ones."""
    space = 1
    for a, k in nf.summands:
        space *= 3 ** (len(enumerate_ty(a, 2)) * 3**k)
    return enumerate_algebras(nf, 3) if space <= limit else sample_algebras(nf, 3, samples, rng)


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
        # each selector gives back the subtree the tree was built from
        h = InitialAlgebra(MIXED_NF)
        inner = tree_list_mixed(h)
        t = h.construct(2, UNIT, [inner, inner])
        assert h.sel(1, t) is inner and h.sel(2, t) is inner


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


def constant_slots(h):
    """Each constant's parameter slot label, mapped to its parameter."""
    return {h.leaf_label(0, w): w for w in enumerate_ty(h.nf.summands[0][0], 2)}


def leftmost_anchor(slots, label, anchor):
    """The parameter of the constant at the end of the spine of first
    subtrees of an integer-path label dict; ``anchor`` if the spine ends in
    none of the constants' parameter ``slots``."""
    spine = ()
    while any(p[: len(spine) + 1] == spine + (1,) for p in label):
        spine += (1,)
    return slots.get(label.get(spine + (0,)), anchor)


def reference_sel(h, j, t):
    """Subtree j of the flat tables; subtree 1 keeps the anchor, any other
    is anchored at its leftmost leaf."""
    lt, dt = flat_tables(t)
    label = {p[1:]: v for p, v in lt.items() if p[:1] == (j,)}
    depth_map = {p[1:]: k for p, k in dt.items() if p[:1] == (j,)}
    anchor = t.snd.snd if j == 1 else leftmost_anchor(constant_slots(h), label, t.snd.snd)
    return flat_tree(label, depth_map, anchor)


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
            assert entries(h.sel(j, t)) == entries(reference_sel(h, j, t))

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
        # the check folds into the constructors; the reference folds into
        # every algebra on three members, one tree at a time
        h = nat_algebra() if nf is None else InitialAlgebra(nf)
        trees = h.enumerate_trees(4)
        assert fold_equation_failures(h, trees) == []
        algebras = algebras_for(h.nf, random.Random(0))
        assert len(algebras) == len(enumerate_algebras(h.nf, 3))
        for alg in algebras:
            assert _equation_failures_one_by_one(h, index_algebra(alg, 3), trees) == []

    def test_fold_equation_sampled_mixed(self):
        h = InitialAlgebra(MIXED_NF)
        trees = h.enumerate_trees(4)
        assert fold_equation_failures(h, trees) == []
        for alg in algebras_for(h.nf, random.Random(0), samples=25):
            assert _equation_failures_one_by_one(h, index_algebra(alg, 3), trees) == []

    def test_fold_of_another_shape_is_a_failure(self, monkeypatch):
        # a fold result of another shape is another tree like any other,
        # whether the tree is a child of no tree of the set (the deepest) or
        # of many (the second constant)
        h = list_handle()
        trees = h.enumerate_trees(3)
        real = h._f

        def tampering(odd):
            return lambda ts, alg: [UNIT if u is odd else r for u, r in zip(ts, real(ts, alg))]

        for odd in (max(trees, key=tree_depth), trees[1]):
            monkeypatch.setattr(h, "_f", tampering(odd))
            assert fold_equation_failures(h, trees) == [
                f"summand {h.destruct(odd)[0]} at depth {tree_depth(odd)}: "
                "its fold into the constructors is another tree"
            ]

    def test_fold_uniqueness(self):
        # the enumerated set is subtree-closed, and on it the fold equation of
        # every algebra on three members, counted one tree at a time, has one
        # solution
        carrier = [nat(i) for i in range(3)]
        for h in (nat_algebra(), list_handle()):
            trees = h.enumerate_trees(4)
            assert fold_uniqueness_solutions(h, trees)[0] == []
            for alg in algebras_for(h.nf, random.Random(1)):
                assert _uniqueness_one_by_one(h, index_algebra(alg, 3), trees, carrier) == 1

    def test_fold_uniqueness_on_many_trees(self):
        # more trees than the default recursion limit (1,000) allows frames
        from quasikernel.surface import elaborate, parse

        h = elaborate(parse(CORPUS_SIGNATURES)).freetypes["Shape"].handle
        trees = h.enumerate_trees(4)
        assert len(trees) == 1446
        assert fold_uniqueness_solutions(h, trees)[0] == []
        # one depth-2 tree removed: each tree that has it as a child fails,
        # shallowest first, named by its summand and depth; the other
        # children are found by identity wherever they now stand
        gone = next(t for t in trees if tree_depth(t) == 2)
        rest = [t for t in trees if t is not gone]
        parents = [t for t in rest if any(c is gone for c in h.destruct(t)[2])]
        failures = fold_uniqueness_solutions(h, rest)[0]
        assert failures == [
            f"summand {h.destruct(t)[0]} at depth {tree_depth(t)}: a subtree is not in the set"
            for t in parents
        ]
        assert failures[0] == "summand 1 at depth 3: a subtree is not in the set"
        # a carrier listing the required value twice doubles the count per tree
        solo = constant_algebra(h.nf, 2, 0)
        assert _uniqueness_one_by_one(h, index_algebra(solo, 2), trees[:3], [nat(0), nat(0)]) == 8
        assert _uniqueness_one_by_one(h, index_algebra(solo, 2), trees, [nat(0), nat(1)]) == 1


def _equation_failures_one_by_one(handle, algebra, trees):
    """The trees, by depth, on which one algebra's fold equation fails:
    ``fold(algebra, t) == algebra[i](w, [fold(algebra, c) ...])``, one fold
    per tree, each child's looked up by its path maps."""
    failures = []
    results = {}
    for t in sorted(trees, key=lambda t: tree_depth(t) or 0):
        i, w, children = handle.destruct(t)
        results[tree_parts(t)[:2]] = lhs = handle.fold(algebra, t)
        if lhs != algebra[i](w, [results[tree_parts(c)[:2]] for c in children]):
            failures.append(t)
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


class TestFoldCount:
    def test_check_folds_each_tree_at_most_once(self, monkeypatch):
        # fold-equation is one walk through ``_f`` per free type, into the
        # constructors, which combines each distinct node once, so no more
        # often than there are label tables among the trees, and gives each
        # tree back.  Uniqueness, Lambek's lemma and membership read what
        # ``destruct`` read of each tree and call no fold, and ``fold`` is a
        # walk of ``_f`` too, so no other walk runs.  The file's two ``let``
        # folds run while it is elaborated, before any tree is enumerated,
        # and are not counted.
        from quasikernel.cli import run

        walks, enumerated = [], []
        walk, enumerate_trees = InitialAlgebra._f, InitialAlgebra.enumerate_trees

        def counted_walk(self, trees, alg):
            if not enumerated:
                return walk(self, trees, alg)
            combines = []
            out = walk(self, trees, [lambda w, rs, a=a: combines.append(w) or a(w, rs) for a in alg])
            walks.append((list(trees), combines, out))
            return out

        def enumerating(self, d):
            out = enumerate_trees(self, d)
            enumerated.append(list(out))
            return out

        monkeypatch.setattr(InitialAlgebra, "_f", counted_walk)
        monkeypatch.setattr(InitialAlgebra, "enumerate_trees", enumerating)
        lists = os.path.join(CORPUS, "lists.qk")
        report, code = run(["check", lists, "--suite", "initial", "--obs-depth", "6"])
        assert code == 0, report
        assert enumerated
        assert [trees for trees, _, _ in walks] == enumerated
        for trees, combines, out in walks:
            assert len(combines) <= len({tree_parts(t)[0] for t in trees})
            assert all(u is t for u, t in zip(out, trees, strict=True))

    def test_a_shared_subtree_is_combined_once(self):
        # glue applied 12 times to circle, both subtrees equal: equal
        # subtrees are one object, and a fold combines each distinct node
        # once, 12 glues, not the 4,095 of the unshared tree
        from quasikernel.surface import elaborate, parse

        info = elaborate(parse(CORPUS_SIGNATURES)).freetypes["Shape"]
        t = info.make("circle", [])
        for _ in range(12):
            t = info.make("glue", [t, t])
        glued = []

        def glue(a, b):
            glued.append(a)
            return nat(a.n + b.n)

        assert info.fold([nat(1), nat(1), glue], t) == nat(4096)
        assert len(glued) == 12
        glued.clear()
        assert info.primrec([nat(1), nat(1), lambda _l, a, _r, b: glue(a, b)], t) == nat(4096)
        assert len(glued) == 12


_real_destruct, _real_sel, _real_f = InitialAlgebra.destruct, InitialAlgebra.sel, InitialAlgebra._f

# one-function mutants of the tree handle, as monkeypatches of its class
MUTANTS = {
    "destruct-reversed": (
        "destruct",
        lambda self, t: (lambda i, w, cs: (i, w, cs[::-1]))(*_real_destruct(self, t)),
    ),
    "sel-1": ("sel", lambda self, j, t: _real_sel(self, 1, t)),
}


def _reversed_f(self, trees, algebra):
    """A walk that hands each algebra its results reversed."""
    return _real_f(self, trees, [lambda w, rs, a=a: a(w, rs[::-1]) for a in algebra])


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
        assert checks["initial.Shape.fold-equation"]["detail"].startswith("summand 1 at depth 2: ")
        assert checks["initial.Shape.lambek"]["status"] == "pass"


class TestFoldCheckMutants:
    """Tampered folds and tree sets that ``check`` must catch."""

    def _report(self):
        from quasikernel.cli import run

        mixed = os.path.join(CORPUS, "mixed.qk")
        report, code = run(["check", mixed, "--suite", "initial", "--obs-depth", "3"])
        return code, {c["name"]: (c["status"], c["detail"]) for c in report["checks"]}

    def test_reversed_results_fail_only_the_fold_equation(self, monkeypatch):
        # each names the first tree whose fold is another tree: glue and node
        # on two different children; uniqueness and membership read each
        # tree's children and call no fold, so they pass
        monkeypatch.setattr(InitialAlgebra, "_f", _reversed_f)
        code, checks = self._report()
        assert code == 1
        equation = "summand 1 at depth 2: its fold into the constructors is another tree"
        for name in ("Shape", "Tagged"):
            assert checks[f"initial.{name}.fold-equation"] == ("fail", equation)
            assert checks[f"initial.{name}.fold-uniqueness"] == ("pass", "")
            assert checks[f"initial.{name}.membership"] == ("pass", "")
        failed = sorted(n for n, (status, _) in checks.items() if status != "pass")
        assert failed == ["initial.Shape.fold-equation", "initial.Tagged.fold-equation"]

    def test_a_missing_subtree_fails_uniqueness_and_skips_the_rest(self, monkeypatch):
        # the second tree, a constant, left out of the set: the other trees
        # are still found by identity, the checks that read the children's
        # results do not run, and nothing raises
        enumerate_trees = InitialAlgebra.enumerate_trees

        def enumerated(self, d):
            trees = enumerate_trees(self, d)
            return trees[:1] + trees[2:]

        monkeypatch.setattr(InitialAlgebra, "enumerate_trees", enumerated)
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

    def test_a_wrong_anchor_fails_uniqueness_and_skips_the_rest(self, monkeypatch):
        # one depth-2 tree of Shape carries another anchor.  Its path maps
        # are those of an enumerated tree, but its first subtree, which
        # ``destruct`` reads with the tree's anchor, is not an enumerated
        # tree, so the set is not closed
        enumerate_trees = InitialAlgebra.enumerate_trees

        def enumerated(self, d):
            trees = enumerate_trees(self, d)
            at = next(n for n, t in enumerate(trees) if tree_depth(t) == 2)
            label, depth_map = tree_tables(trees[at])
            trees[at] = make_tree(label, depth_map, nat(42))
            return trees

        monkeypatch.setattr(InitialAlgebra, "enumerate_trees", enumerated)
        _, checks = _initial_report("Shape", 3)
        assert checks["fold-uniqueness"].detail == "summand 1 at depth 2: a subtree is not in the set"
        assert checks["fold-uniqueness"].status == "fail"
        for check in ("fold-equation", "lambek", "membership"):
            assert checks[check].status == "skip"
        assert checks["depth-law"].status == "pass"

    @pytest.mark.parametrize("table", ["label", "depth"])
    def test_junk_outside_the_child_slots_fails_membership(self, monkeypatch, table):
        # the last tree of Shape, a child of no other, gets an entry at the
        # child index past its last child.  ``destruct`` reads only the root,
        # the slot and the children, so the set is still closed; rebuilt
        # from what it read, the tree has no such entry.
        enumerate_trees = InitialAlgebra.enumerate_trees

        def enumerated(self, d):
            trees = enumerate_trees(self, d)
            at = len(trees) - 1
            label, depth_map = tree_tables(trees[at])
            past = (len(self.destruct(trees[at])[2]) + 1,)
            if table == "label":
                label[past] = label[()]
            else:
                depth_map[past] = 1
            trees[at] = make_tree(label, depth_map, tree_anchor(trees[at]))
            return trees

        monkeypatch.setattr(InitialAlgebra, "enumerate_trees", enumerated)
        _, checks = _initial_report("Shape", 3)
        assert checks["fold-uniqueness"].status == "pass"
        assert checks["depth-law"].status == "pass"
        assert checks["membership"].status == "fail"

    def test_a_memo_blind_to_the_parameter_fails_the_fold_equation(self, monkeypatch):
        # The shared fold's memo keyed by a node's label table without its
        # parameter slot: nodes that differ only in their parameter share a
        # result.  The mutant is made from the source of ``_f`` itself.
        source = textwrap.dedent(inspect.getsource(InitialAlgebra._f))
        line = "key = t.fst"
        assert source.count(line) == 1
        blind = "key = (t.fst.root, t.fst.children[1:])"
        scope: dict = {}
        exec(compile(source.replace(line, blind), initial.__file__, "exec"), vars(initial), scope)
        monkeypatch.setattr(InitialAlgebra, "_f", scope["_f"])
        code, checks = self._report()
        assert code == 1
        failed = sorted(n for n, (status, _) in checks.items() if status != "pass")
        assert failed == ["initial.Shape.fold-equation", "initial.Tagged.fold-equation"]


class Inspected(Exception):
    """A fold asked a result about its value."""


class _Opaque:
    """A fold result that answers no question about its value: equality,
    hashing, truth, length and iteration all raise.  It keeps the summand,
    the parameter and the children's results it was made from."""

    __slots__ = ("i", "w", "args")

    def __init__(self, i, w, args):
        self.i, self.w, self.args = i, w, args

    def _refuse(self, *_):
        raise Inspected(f"a fold inspected the result of summand {self.i}")

    __eq__ = __hash__ = __bool__ = __len__ = __iter__ = _refuse


def opaque_algebra(h):
    return [lambda w, rs, i=i: _Opaque(i, w, rs) for i in range(h.n)]


def check_parametric(h, trees):
    """``_f`` folds the trees into the opaque algebra without inspecting a
    result, and each result is made the way the tree is: ``_f`` is natural
    in the algebra, the premise of ``fold-equation``."""

    def term(o):
        return h.construct(o.i, o.w, [term(c) for c in o.args])

    assert [term(o) for o in h._f(trees, opaque_algebra(h))] == trees


class TestRows:
    """Each enumerated tree's construction row, as ``destruct`` reads it:
    its children are members listed before it, as the same objects, and
    ``construct`` on the row gives the tree back; the fold over the trees
    is parametric, and gives each tree back as its term."""

    @staticmethod
    def check_rows(h, depth):
        trees = h.enumerate_trees(depth)
        index = {t: n for n, t in enumerate(trees)}
        for n, t in enumerate(trees):
            i, w, children = h.destruct(t)
            assert all(index.get(c, n) < n and h.is_in_T(c) for c in children)
            assert h.construct(i, w, children) is t
        check_parametric(h, trees)

    @pytest.mark.parametrize("name", sorted(CORPUS_DEPTHS))
    def test_corpus_types(self, name):
        from quasikernel.surface import elaborate, parse

        h = elaborate(parse(CORPUS_SIGNATURES)).freetypes[name].handle
        self.check_rows(h, CORPUS_DEPTHS[name])

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([Unit(), Bool(), Nat()]),
        st.lists(st.tuples(st.sampled_from([Unit(), Bool(), Nat()]), st.integers(1, 2)), max_size=2),
        st.integers(1, 3),
    )
    def test_normal_forms(self, a0, rest, depth):
        self.check_rows(InitialAlgebra(PolyNF(((a0, 0), *rest))), depth)

    def test_a_fold_that_branches_on_a_result_is_not_parametric(self, monkeypatch):
        # A copy of ``_f`` that hands a node's results over reversed when two
        # of them are equal.  Equal results from the constructors are equal
        # subtrees, whose order does not matter, so ``check`` passes; only
        # the opaque results show that it asks about a value.
        from quasikernel.cli import run

        source = textwrap.dedent(inspect.getsource(InitialAlgebra._f))
        line = "results.append(algebra[i](w, args))"
        assert source.count(line) == 1
        branching = "results.append(algebra[i](w, args if len(set(args)) == len(args) else args[::-1]))"
        scope: dict = {}
        exec(compile(source.replace(line, branching), initial.__file__, "exec"), vars(initial), scope)
        monkeypatch.setattr(InitialAlgebra, "_f", scope["_f"])
        report, code = run(["check", os.path.join(CORPUS, "mixed.qk"), "--suite", "initial", "--obs-depth", "3"])
        assert code == 0, report
        from quasikernel.surface import elaborate, parse

        h = elaborate(parse(CORPUS_SIGNATURES)).freetypes["Shape"].handle
        trees = h.enumerate_trees(3)
        with pytest.raises(Inspected):
            h._f(trees, opaque_algebra(h))
        with pytest.raises(Inspected):
            h.fold(opaque_algebra(h), trees[-1])
        with pytest.raises(Inspected):
            check_parametric(h, trees)


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
        # the corpus types' constants carry distinct parameters, so a
        # subtree read with another tree's anchor shows in the second half
        from quasikernel.surface import elaborate, parse

        corpus = elaborate(parse(CORPUS_SIGNATURES)).freetypes
        for h, depth in (
            (InitialAlgebra(LIST_NF), 4),
            (InitialAlgebra(MIXED_NF), 4),
            (corpus["Shape"].handle, 3),
            (corpus["Tagged"].handle, 3),
        ):
            inv = h.lambek_inverse()
            for t in h.enumerate_trees(depth):
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
    """The map of ``free type L X ::= nil | cons(X; L X)``, between its
    instances through ``instantiate``."""

    def instances(self, *params):
        from quasikernel.kernel import Named
        from quasikernel.surface import elaborate, parse

        env = elaborate(parse("free type L X ::= nil | cons(X; L X)"))
        return [env.instantiate("L", [Named(p)]) for p in params]

    @staticmethod
    def build(info, values):
        t = info.make("nil", [])
        for v in reversed(values):
            t = info.make("cons", [v, t])
        return t

    def test_elementwise(self):
        (ln,) = self.instances("Nat")
        suc = lambda v: nat(v.n + 1)
        t = self.build(ln, [nat(1), nat(2)])
        # oracle: map one element at a time
        assert ln.param_map(ln, suc, t) == self.build(ln, [nat(2), nat(3)])

    def test_map_id_is_id(self):
        (ln,) = self.instances("Nat")
        for vals in ([], [nat(0)], [nat(1), nat(0), nat(2)]):
            t = self.build(ln, vals)
            assert ln.param_map(ln, lambda v: v, t) == t

    def test_nil_maps_to_nil(self):
        (ln,) = self.instances("Nat")
        nil = self.build(ln, [])
        assert ln.param_map(ln, lambda v: nat(v.n + 1), nil) == nil

    def test_partial_map_is_undefined_wherever_it_fails(self):
        # construct is strict in its subtrees too, so an element deep in the
        # list that f is undefined on gives UNDEF, as one at the root does
        (ln,) = self.instances("Nat")
        for vals in ([nat(1), nat(2)], [nat(2), nat(1)], [nat(3), nat(4), nat(2)]):
            t = self.build(ln, vals)
            assert ln.param_map(ln, lambda v: UNDEF if v.n == 2 else v, t) is UNDEF

    def test_maps_across_instances(self):
        ln, lb = self.instances("Nat", "Bool")
        even = lambda v: TRUE if v.n % 2 == 0 else FALSE
        t = self.build(ln, [nat(0), nat(3), nat(4)])
        got = ln.param_map(lb, even, t)
        assert got == self.build(lb, [TRUE, FALSE, TRUE])
        assert lb.fold([nat(0), lambda x, r: nat(r.n + (x == TRUE))], got) == nat(2)
        # the target's constructors check each mapped value, the last element first
        with pytest.raises(QuasiError, match="cons expects a value of Bool, got 4"):
            ln.param_map(lb, lambda v: v, t)


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
        slots = constant_slots(h)
        members = checked = 0
        for t in trees:
            for u in (t, *single_entry_mutations(t, anchors)):
                expected = reference_is_in_T(h, u)
                assert h.is_in_T(u) == expected
                members += expected
                checked += 1
                # a second or later subtree is anchored at its leftmost
                # leaf's parameter, or keeps the anchor where that leaf has
                # no parameter slot
                label = tree_tables(u)[0]
                for j in (2, 3):
                    sub = {p[1:]: v for p, v in label.items() if p[:1] == (j,)}
                    try:
                        got = h.sel(j, u)
                    except QuasiError:
                        continue
                    assert tree_anchor(got) == leftmost_anchor(slots, sub, tree_anchor(u))
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

    def test_destruct_gives_back_constructs_children(self):
        # each subtree is anchored at its own leftmost leaf, as construct
        # anchors it, so the second subtree of c, whose anchor differs from
        # c's, comes back as the tree it was built from
        h = InitialAlgebra(PolyNF(((Bool(), 0), (Nat(), 2))))
        leaves = [h.construct(0, FALSE, []), h.construct(0, TRUE, [])]
        s = h.construct(1, nat(2), leaves)
        c = h.construct(1, nat(1), [leaves[1], s])
        assert tree_anchor(s) == FALSE != tree_anchor(c)
        for t, w, built in ((s, nat(2), leaves), (c, nat(1), [leaves[1], s])):
            i, param, children = h.destruct(t)
            assert (i, param) == (1, w)
            assert all(a is b for a, b in zip(children, built, strict=True))

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
