from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from quasikernel import checks, final, lab
from quasikernel.final import (
    DomainMismatch,
    FinalCoalgebra,
    MSignature,
    MType,
    NonDisjointFibers,
    NonEnumerableExponent,
    _OFF,
    _Node,
    _as_ptree,
    _graph_tree,
    _seed_graph,
    ambient_ext_values,
    ambient_general_poly_values,
    ambient_iso,
    root,
    subtree,
)
from quasikernel.functors import ExtPolyNF, ext_unvalue, inject, project
from quasikernel.initial import tree_parts, tree_tables
from quasikernel.kernel import (
    FALSE,
    TRUE,
    UNDEF,
    UNIT,
    Bool,
    Nat,
    PairV,
    QuasiError,
    Sum,
    Unit,
    Zero,
    apply_pval,
    decode_path,
    encode_path,
    enumerate_ty,
    eq_strong,
    is_true,
    nat,
    pfun,
    trie_of_paths,
)
from quasikernel.surface import elaborate, parse

STREAM_NF = ExtPolyNF(((Nat(), Unit()),))
PROC_NF = ExtPolyNF(((Bool(), Unit()), (Unit(), Sum(Unit(), Unit()))))
STOPGO_NF = ExtPolyNF(((Bool(), Zero()), (Nat(), Unit())))


def counter(seed=0):
    h = FinalCoalgebra(STREAM_NF)
    d = lambda n: (0, nat(n), lambda _y: n + 1)
    return h, d, h.unfold(d, seed)


def proc_coalgebra():
    h = FinalCoalgebra(PROC_NF)

    def d(n):
        if n % 2 == 0:
            return 0, TRUE if n % 4 == 0 else FALSE, lambda _y: n + 1
        return 1, UNIT, lambda y: n + (1 if y == inject(0, 2, UNIT) else 2)

    return h, d, h.unfold(d, 0)


def stopgo_coalgebra(stop_at=3):
    h = FinalCoalgebra(STOPGO_NF)

    def d(n):
        if n < stop_at:
            return 1, nat(n), lambda _y: n + 1
        return 0, TRUE, lambda _y: n

    return h, d, h.unfold(d, 0)


CORPUS = [counter, proc_coalgebra, stopgo_coalgebra]


# independent oracle: walk the path iteratively, tracking the seed
def reference_unfold_at(handle, d, z, path):
    seed = z
    for label in path:
        i, _x, g = d(seed)
        from quasikernel.functors import project

        j, y = project(label, handle.n)
        if j != i:
            return UNDEF
        seed = g(y)
    i, x, _g = d(seed)
    return inject(i, handle.n, x)


class TestPaths:
    def test_round_trip(self):
        # one codec keys tree tables (steps nat j) and process paths (labels)
        tree_path = tuple(map(nat, (1, 10, 2)))
        process_path = (inject(0, 2, UNIT), inject(1, 2, TRUE))
        for p in ((), tree_path, process_path):
            assert decode_path(encode_path(p)) == p
        # initial maps integer paths through nat at its edge
        label = trie_of_paths([((1, 10, 2), TRUE)])
        t = PairV(label, PairV(trie_of_paths([((1, 10, 2), nat(0))]), UNIT))
        assert tree_parts(t)[0].keys() == [encode_path(tree_path)]
        assert tree_tables(t) == ({(1, 10, 2): TRUE}, {(1, 10, 2): 0})
        assert label.child(1).child(10).child(2).root == TRUE


class TestCounterStream:
    def test_observation_counts_path_length(self):
        h, _d, t = counter()
        step = inject(0, 1, UNIT)
        for k in range(9):
            assert h.observe(t, (step,) * k) == nat(k)

    def test_structure_map_shifts_by_one(self):
        # oracle: reindexing the path map by one step
        h, _d, t = counter()
        i, x, tail_fn = ext_unvalue(h.nf, h.structure_map(t))
        assert (i, x) == (0, nat(0))
        tail = apply_pval(tail_fn, UNIT)
        step = inject(0, 1, UNIT)
        for k in range(5):
            assert h.observe(tail, (step,) * k) == h.observe(t, (step,) * (k + 1))


class TestMembership:
    @pytest.mark.parametrize("make", CORPUS)
    def test_conditions_hold_for_unfold_outputs(self, make):
        h, _d, t = make()
        assert h.membership_failures(t, depth=4) == []

    def test_root_defined_for_all_corpus(self):
        for make in CORPUS:
            h, _d, t = make()
            assert h.observe(t, ()).defined()

    def test_mismatched_summand_is_undefined(self):
        h, _d, t = proc_coalgebra()
        # seed 0 sits in summand 0; a summand-1 step off the root must fail
        wrong = inject(1, 2, inject(0, 2, UNIT))
        assert h.observe(t, (wrong,)) == UNDEF

    def test_hand_mutilated_tree_fails_membership(self):
        h, _d, t = counter()
        from quasikernel.kernel import pfun

        broken = pfun(lambda p: UNDEF)
        assert h.membership_failures(broken, depth=2) != []


class TestUnfoldLaws:
    @pytest.mark.parametrize("make", CORPUS)
    def test_unfold_equation(self, make):
        # c . (unfold d) agrees with (F-map of unfold d) . d by bounded observation
        h, d, _t = make()
        for seed in range(4):
            lhs = h.structure_map(h.unfold(d, seed))
            i, x, g = d(seed)
            li, lx, lfn = ext_unvalue(h.nf, lhs)
            assert li == i
            assert is_true(eq_strong(lx, x, 3))
            for y in h.exponent_values[i]:
                sub_l = apply_pval(lfn, y)
                sub_r = h.unfold(d, g(y))
                assert h.tree_eq(sub_l, sub_r, 3)

    @pytest.mark.parametrize("make", CORPUS)
    def test_bounded_uniqueness_against_reference(self, make):
        h, d, t = make()
        for seed in range(3):
            u = h.unfold(d, seed)
            for p in h.paths_up_to(4):
                assert is_true(
                    eq_strong(h.observe(u, p), reference_unfold_at(h, d, seed, p), 3)
                )

    def test_unfold_of_structure_map_is_identity(self):
        # finality: unfolding the structure map from a carrier element gives
        # back the element, up to observation depth 4
        h, d, t = counter()

        def as_coalgebra(tree):
            i, x, fn = ext_unvalue(h.nf, h.structure_map(tree))
            return i, x, lambda y: apply_pval(fn, y)

        assert h.tree_eq(h.unfold(as_coalgebra, t), t, 4)

    def test_a_cyclic_unfold_steps_once_per_seed(self):
        # seeds 0 and 1 alternate, so every path goes back to the root's seed
        h = FinalCoalgebra(STREAM_NF)
        steps = []
        d = lambda n: steps.append(n) or (0, nat(n % 2), lambda _y: 1 - n)
        t = h.unfold(d, 0)
        step = inject(0, 1, UNIT)
        assert [h.observe(t, (step,) * k) for k in range(9)] == [nat(k % 2) for k in range(9)]
        assert steps == [0, 1]
        assert root(t).child(step).child(step) is root(t)

        # a seed that cannot be hashed gets a node of its own at each path
        def listed(s):  # the same coalgebra on one-element lists
            steps.append(s[0])
            return 0, nat(s[0] % 2), lambda _y: [1 - s[0]]

        steps.clear()
        t = h.unfold(listed, [0])
        assert [h.observe(t, (step,) * k) for k in range(4)] == [nat(k % 2) for k in range(4)]
        assert steps == [0, 1, 0, 1]

    def test_counter_observation_equals_index(self):
        h, d, _t = counter()
        step = inject(0, 1, UNIT)
        for start in range(3):
            u = h.unfold(d, start)
            for k in range(6):
                assert h.observe(u, (step,) * k) == nat(start + k)

    @pytest.mark.parametrize("make", CORPUS)
    def test_snoc_cons_duality(self, make):
        # back-extension definedness (the snoc-side membership reading) is
        # consistent with front-peeling into subtrees (the cons-side
        # recursion used by unfold)
        h, _d, t = make()
        for p in h.paths_up_to(2):
            at_p = h.observe(t, p)
            tag = project(at_p, h.n)[0] if at_p.defined() else None
            for b in h.b_labels:
                via_snoc = h.observe(t, p + (b,))
                assert via_snoc.defined() == (tag == project(b, h.n)[0])
                if p:
                    sub = _as_ptree(lambda q, _b=p[0]: h.observe(t, (_b,) + q))
                    assert is_true(
                        eq_strong(via_snoc, h.observe(sub, p[1:] + (b,)), 3)
                    )


def _coalgebra_table(draw, h: FinalCoalgebra, states: int):
    """A coalgebra on the seeds ``range(states)``, drawn as a table."""
    rows = []
    for _ in range(states):
        i = draw(st.integers(0, h.n - 1))
        x = draw(st.sampled_from(enumerate_ty(h.nf.summands[i][0], 2)))
        rows.append((i, x, [draw(st.integers(0, states - 1)) for _ in h.exponent_values[i]]))

    def d(z):
        i, x, succ = rows[z]
        return i, x, lambda y: succ[h.exponent_values[i].index(y)]

    return d


@st.composite
def finite_coalgebras(draw):
    """A random signature (summands, exponent sizes), a coalgebra on a few
    seeds, a seed, and a second coalgebra over the same signature."""
    params = st.sampled_from([Unit(), Bool(), Nat()])
    exponents = st.sampled_from([Zero(), Unit(), Bool(), Sum(Unit(), Bool())])
    h = FinalCoalgebra(ExtPolyNF(tuple(
        (draw(params), draw(exponents)) for _ in range(draw(st.integers(1, 3)))
    )))
    states = draw(st.integers(1, 5))
    d = _coalgebra_table(draw, h, states)
    other = d if draw(st.booleans()) else _coalgebra_table(draw, h, states)
    return h, d, draw(st.integers(0, states - 1)), other


def proc_info():
    source = (Path(__file__).parent.parent / "corpus" / "processes.qk").read_text()
    return elaborate(parse(source)).cotypes["Proc"]


def statuses(results):
    return {r.name.rsplit(".", 1)[1]: r.status for r in results}


def graph_nodes(tree) -> int:
    """The distinct nodes an unfolded tree's graph has made, each one step."""
    seen, todo = {_OFF}, list(tree._graph.kids.values())
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(node.kids.values())
    return len(seen) - 1


def path_walk(h, roots, depth, labels=None):
    """The walk without a visited set: ``(path, nodes)`` at every path up to
    ``depth`` in ``paths_up_to`` order, below each through ``labels``."""
    level, out = [((), roots)], []
    for k in range(depth + 1):
        out.extend(level)
        if k < depth:
            level = [
                (p + (b,), tuple(n.child(b) for n in nodes))
                for p, nodes in level
                for b in (h.b_labels if labels is None else labels(nodes[0].value))
            ]
    return out


def first_reached(steps):
    """Each distinct tuple of nodes in ``steps`` once, at its first path."""
    first = {}
    for path, nodes in steps:
        first.setdefault(nodes, path)
    return [(path, nodes) for nodes, path in first.items()]


def check_walk(h, tree, depth, at):
    """Every path up to ``depth`` observes ``at``, and the walk yields each
    node the paths reach once, at its first path."""
    top = (root(tree),)
    paths = path_walk(h, top, depth)
    assert [(p, nodes[0].value) for p, nodes in paths] == [(p, at(p)) for p in h.paths_up_to(depth)]
    assert list(h.walk(top, depth)) == first_reached(paths)


def stepped_at(step, z, path):
    """The observation at ``path`` of the tree ``step`` unfolds from ``z``,
    stepped along the path from the root."""
    seed = z
    for label in path:
        seed = step(seed)[1](label)
        if seed is _OFF:
            return UNDEF
    return step(seed)[0]


def path_membership(h, at, depth):
    """Membership failures path by path: one per failing path."""
    failures = [] if at(()).defined() else ["root observation undefined"]
    for p in h.paths_up_to(depth)[1:]:
        ext = at(p)
        if ext.defined() != (p[-1] in h.offered(at(p[:-1]))):
            failures.append(h._misplaced(p, ext))
    return failures


def pruned_paths(h, at, depth, labels):
    """The paths up to ``depth``, below each through ``labels(at(path))``."""
    level, out = [()], []
    for k in range(depth + 1):
        out.extend(level)
        if k < depth:
            level = [p + (b,) for p in level for b in (h.b_labels if labels is None else labels(at(p)))]
    return out


class TestLevelWalk:
    @settings(max_examples=80, deadline=None)
    @given(finite_coalgebras(), st.integers(0, 4))
    def test_walk_equals_per_path_observation(self, coalgebra, depth):
        h, d, z, _other = coalgebra
        at = lambda p: reference_unfold_at(h, d, z, p)
        fresh = h.unfold(d, z)
        assert [h.observe(fresh, p) for p in h.paths_up_to(depth)] == list(map(at, h.paths_up_to(depth)))
        check_walk(h, h.unfold(d, z), depth, at)
        # a tree made from a path observer is a trie, one node per path
        view = _as_ptree(at)
        check_walk(h, view, depth, at)
        assert len(list(h.walk((root(view),), depth))) == len(h.paths_up_to(depth))

    @settings(max_examples=80, deadline=None)
    @given(finite_coalgebras(), st.integers(0, 3), st.data())
    def test_a_view_walks_as_it_is_observed(self, coalgebra, depth, data):
        h, d, z, _other = coalgebra
        labels = st.lists(st.sampled_from(h.b_labels), max_size=3) if h.b_labels else st.just([])
        prefix = tuple(data.draw(labels))
        observed_first = data.draw(st.booleans())
        views = []
        for _ in range(2):  # one view per tree, so no walk shares a graph
            view = h.unfold(d, z)
            for label in prefix:
                view = subtree(view, label)
            views.append(view)
        paths = h.paths_up_to(depth)
        at = lambda p: reference_unfold_at(h, d, z, prefix + p)
        if observed_first:
            views.reverse()
        assert [h.observe(views[0], p) for p in paths] == list(map(at, paths))
        check_walk(h, views[1], depth, at)

    @settings(max_examples=80, deadline=None)
    @given(finite_coalgebras(), st.integers(0, 3), st.data())
    def test_nested_views_of_a_map_without_a_trie(self, coalgebra, depth, data):
        # a map on encoded paths made elsewhere gets its trie where the
        # first subtree reads it; the views below share that trie
        h, d, z, _other = coalgebra
        assume(h.b_labels)
        prefix = tuple(data.draw(st.lists(st.sampled_from(h.b_labels), min_size=1, max_size=3)))
        raw = pfun(lambda path: reference_unfold_at(h, d, z, decode_path(path)))
        assert getattr(raw, "_graph", None) is None
        views = []
        for _ in range(2):
            view = raw
            for label in prefix:
                view = subtree(view, label)
            views.append(view)
        paths = h.paths_up_to(depth)
        at = lambda p: reference_unfold_at(h, d, z, prefix + p)
        assert [h.observe(views[0], p) for p in paths] == list(map(at, paths))
        check_walk(h, views[1], depth, at)

    @settings(max_examples=80, deadline=None)
    @given(finite_coalgebras(), st.integers(0, 4))
    def test_pruned_uniqueness_agrees_with_the_full_walk(self, coalgebra, depth):
        h, d, z, other = coalgebra
        u = h.unfold(d, z)
        assert h.membership_failures(u, depth) == []
        reference = checks._reference(h, other)

        def agrees(labels):
            return all(
                a.value == b.value for _p, (a, b) in h.walk((root(u), reference(z)), depth, labels)
            )

        assert agrees(h.offered) == agrees(None)
        if other is d:
            assert agrees(h.offered)

    @settings(max_examples=60, deadline=None)
    @given(finite_coalgebras(), st.integers(0, 5), st.data())
    def test_graph_walk_agrees_with_the_path_walk(self, coalgebra, depth, data):
        # on a graph keyed by seed, the trie of a path map and a view one
        # label down, the walks give the answers of a check path by path:
        # whether membership fails and its first failure, tree_eq, and
        # bounded uniqueness, pruned or not
        h, d, z, other = coalgebra
        # below one (seed, label) the step may lead elsewhere: off the
        # offered summand, or nowhere under an offered label
        bad = data.draw(st.none() | st.tuples(
            st.integers(0, 4), st.sampled_from(h.b_labels or [None]), st.none() | st.integers(0, z)
        ))

        def step(seed):
            i, x, g = d(seed)

            def succ(label):
                if bad is not None and (seed, label) == bad[:2]:
                    return _OFF if bad[2] is None else bad[2]
                j, y = project(label, h.n)
                return g(y) if j == i else _OFF

            return inject(i, h.n, x), succ

        at = lambda p: stepped_at(step, z, p)
        trees = [(_seed_graph(step, z), at), (_as_ptree(at), at)]
        if h.b_labels:
            label = data.draw(st.sampled_from(h.b_labels))
            trees.append((subtree(_seed_graph(step, z), label), lambda p: at((label,) + p)))
        if bad is None:
            trees.append((h.unfold(d, z), at))
        reference = checks._reference(h, other)
        other_at = lambda p: reference_unfold_at(h, other, z, p)
        for tree, tree_at in trees:
            got, want = h.membership_failures(tree, depth), path_membership(h, tree_at, depth)
            assert bool(got) == bool(want)
            assert got[:1] == want[:1]
            assert set(got) <= set(want)
            paths = h.paths_up_to(depth)
            assert h.tree_eq(tree, h.unfold(other, z), depth) == all(
                is_true(eq_strong(tree_at(p), other_at(p), depth)) for p in paths
            )
            for labels in (None, h.offered):
                walked = h.walk((root(tree), reference(z)), depth, labels)
                assert all(a.value == b.value for _p, (a, b) in walked) == all(
                    tree_at(p) == other_at(p) for p in pruned_paths(h, tree_at, depth, labels)
                )

    def test_defined_below_an_undefined_path_fails_membership(self):
        h, d, _t = proc_coalgebra()
        off = inject(1, 2, inject(0, 2, UNIT))  # seed 0 offers summand 0
        below = inject(0, 2, UNIT)

        def value_at(path):
            if path == (off, below):
                return inject(0, 2, TRUE)
            return reference_unfold_at(h, d, 0, path)

        broken = pfun(lambda path_pval: value_at(decode_path(path_pval)))
        assert h.membership_failures(broken, depth=2) == [
            f"path {(off,)!r} extended by summand 0: defined=True expected=False"
        ]

    def test_a_raising_step_raises_on_each_observation(self):
        h = FinalCoalgebra(STREAM_NF)

        def d(n):
            if n == 2:
                raise QuasiError("no step from 2")
            return 0, nat(n), lambda _y: n + 1

        h.unfold(lambda _n: 1 // 0, 0)  # the root step waits for an observation
        t = h.unfold(d, 0)
        step = inject(0, 1, UNIT)
        assert h.observe(t, (step,)) == nat(1)
        for _ in range(2):
            with pytest.raises(QuasiError, match="no step from 2"):
                h.observe(t, (step, step))
        with pytest.raises(QuasiError, match="no step from 2"):
            list(h.walk((root(t),), 3))
        assert [node.value for _p, (node,) in h.walk((root(t),), 1)] == [nat(0), nat(1)]


class TestSuiteFinal:
    def spy_walks(self, monkeypatch, h):
        """The ``labels`` argument of every walk the suite takes."""
        seen, walk = [], h.walk
        monkeypatch.setattr(h, "walk", lambda t, depth, labels=None: seen.append(labels) or walk(t, depth, labels))
        return seen

    def test_wrong_below_an_offered_label_fails_uniqueness(self, monkeypatch):
        info = proc_info()
        h, unfold = info.handle, info.handle.unfold

        def tampered(d, z):
            # right at the root, every Bool parameter below it negated
            def step(state):
                seed, below = state
                i, x, g = d(seed)
                if below and i == 0:
                    x = FALSE if x == TRUE else TRUE
                return i, x, lambda y: (g(y), True)

            return unfold(step, (z, False))

        monkeypatch.setattr(h, "unfold", tampered)
        walks = self.spy_walks(monkeypatch, h)
        got = statuses(checks.suite_final(info, checks.CheckConfig(4, 16, 0)))
        assert got["membership"] == "pass"
        assert got["bounded-uniqueness"] == "fail"
        assert walks.count(h.offered) == 2

    def test_an_unfold_that_merges_seeds_fails_uniqueness(self, monkeypatch):
        # a graph keyed by seed % 2 gives each node the step of the first seed
        # to reach it: every node is a proper node, so membership passes, but
        # the trees are wrong from obs-depth 1 (unfold-equation) and 3
        # (bounded-uniqueness, at this command seed) on
        def merged(step, z):
            nodes = {}

            def node(seed):
                if seed is _OFF:
                    return _OFF
                made = nodes.get(seed % 2)
                if made is None:
                    value, succ = step(seed)
                    made = nodes[seed % 2] = _Node(value, lambda label: node(succ(label)))
                return made

            return _graph_tree(_Node(UNDEF, lambda _root: node(z)))

        monkeypatch.setattr(final, "_seed_graph", merged)
        info = proc_info()
        for depth, uniqueness in ((2, "pass"), (3, "fail"), (4, "fail"), (12, "fail")):
            got = statuses(checks.suite_final(info, checks.CheckConfig(depth, 16, 0)))
            assert got == {"membership": "pass", "unfold-equation": "fail", "bounded-uniqueness": uniqueness}

    def test_defined_off_the_offered_summand_fails_both(self, monkeypatch):
        info = proc_info()
        h, unfold = info.handle, info.handle.unfold

        def tampered(d, z):
            t = unfold(d, z)
            tag = project(h.observe(t, ()), h.n)[0]
            off = h.summand_labels[1 - tag][0]
            return _as_ptree(lambda p: inject(0, 2, TRUE) if p == (off,) else h.observe(t, p))

        monkeypatch.setattr(h, "unfold", tampered)
        walks = self.spy_walks(monkeypatch, h)
        got = statuses(checks.suite_final(info, checks.CheckConfig(4, 16, 0)))
        assert got["membership"] == "fail"
        # the pruned walk would never ask the off-summand path
        assert got["bounded-uniqueness"] == "fail"
        assert h.offered not in walks

    def test_each_trie_node_steps_the_coalgebra_once(self, monkeypatch):
        # an unfold's graph has a node per reachable seed, and each node is
        # one coalgebra step: the canonical seeds are 0-6, so at any depth an
        # unfold steps at most 7 times
        info = proc_info()
        h, unfold = info.handle, info.handle.unfold
        calls = {"all": 0, "graph": 0}
        canonical = checks._canonical_coalgebra

        def counted(key, d):
            def step(z):
                calls[key] += 1
                return d(z)

            return step

        trees = []

        def recorded(d, z):
            trees.append(unfold(counted("graph", d), z))
            return trees[-1]

        monkeypatch.setattr(checks, "_canonical_coalgebra", lambda *a: counted("all", canonical(*a)))
        monkeypatch.setattr(h, "unfold", recorded)
        got = statuses(checks.suite_final(info, checks.CheckConfig(12, 16, 0)))
        assert set(got.values()) == {"pass"}
        nodes = [graph_nodes(t) for t in trees]
        assert calls["graph"] == sum(nodes)
        assert max(nodes) <= 7
        # the reference steps each seed once, and the suite steps the four
        # root seeds and seed 0 itself
        assert calls["all"] <= sum(nodes) + 7 + 5

    def test_a_view_walks_its_roots_trie(self, monkeypatch):
        # once the root's walk has run to depth + 1, a view one label down
        # walks to depth through nodes of the root's graph: no coalgebra step
        # runs, and no path is observed from the root's top
        info = proc_info()
        h = info.handle
        d = checks._canonical_coalgebra(info, checks.CheckConfig(4, 16, 0))
        steps = []
        u = h.unfold(lambda z: steps.append(z) or d(z), 0)
        depth = 4
        above = {node for _p, (node,) in h.walk((root(u),), depth + 1)}
        ran = len(steps)
        i, _x, under = ext_unvalue(h.nf, h.structure_map(u))
        for y in h.exponent_values[i]:
            label = inject(i, h.n, y)
            view = apply_pval(under, y)
            observed = []
            monkeypatch.setattr(h, "observe", lambda t, p: observed.append(p))
            walked = list(h.walk((root(view),), depth))
            monkeypatch.undo()
            assert walked == first_reached(path_walk(h, (root(view),), depth))
            assert {node for _p, (node,) in walked} <= above
            for p, (node,) in walked:
                assert node.value == h.observe(u, (label,) + p)
            assert observed == []
        assert len(steps) == ran


class TestCotypeCase:
    def samples(self):
        h, _d, _t = proc_coalgebra()
        _, d, _ = proc_coalgebra()
        return h, [h.unfold(d, s) for s in range(4)]

    def tag_of(self, h, t):
        from quasikernel.functors import project

        return project(h.observe(t, ()), h.n)[0]

    def test_selector_branches_reconstruct_observation(self):
        h, samples = self.samples()
        branches = [
            lambda t: h.observe(t, ()) if self.tag_of(h, t) == 0 else UNDEF,
            lambda t: h.observe(t, ()) if self.tag_of(h, t) == 1 else UNDEF,
        ]
        case = h.cotype_case(branches, samples)
        for t in samples:
            assert case(t) == h.observe(t, ())

    def test_wrong_domain_rejected(self):
        h, samples = self.samples()
        branches = [lambda t: nat(0), lambda t: UNDEF]  # first branch total: wrong
        with pytest.raises(DomainMismatch):
            h.cotype_case(branches, samples)

    def test_tag_directed_constants(self):
        h, samples = self.samples()
        branches = [
            lambda t: nat(10) if self.tag_of(h, t) == 0 else UNDEF,
            lambda t: nat(20) if self.tag_of(h, t) == 1 else UNDEF,
        ]
        case = h.cotype_case(branches, samples)
        for t in samples:
            expected = nat(10) if self.tag_of(h, t) == 0 else nat(20)
            assert case(t) == expected


class TestMTypes:
    def test_infinite_binary_tree(self):
        sig = MSignature(((nat(0), (nat(0), nat(1))),))
        m = MType(sig)
        t = m.unfold(lambda z: (nat(0), lambda b: z), 0)
        for p in m.paths_up_to(4):
            assert m.observe(t, p).defined()

    def test_count_then_stop(self):
        stop, go = nat(0), nat(1)
        sig = MSignature(((stop, ()), (go, (nat(7),))))
        m = MType(sig)

        def d(k):
            if k < 3:
                return go, lambda b: k + 1
            return stop, lambda b: k

        t = m.unfold(d, 0)
        step = nat(7)
        assert m.observe(t, (step,) * 3) == stop
        assert m.observe(t, (step,) * 4) == UNDEF

    def test_membership_condition_for_unfold_outputs(self):
        stop, go = nat(0), nat(1)
        sig = MSignature(((stop, ()), (go, (nat(7),))))
        m = MType(sig)

        def d(k):
            return (go, lambda b: k + 1) if k < 2 else (stop, lambda b: k)

        assert m.membership_failures(m.unfold(d, 0), depth=4) == []

    def test_structure_map_clauses(self):
        sig = MSignature(((nat(0), (nat(3), nat(4))),))
        m = MType(sig)
        t = m.unfold(lambda z: (nat(0), lambda b: z), 0)
        a, branch = m.structure_map(t)
        assert a == nat(0)
        sub = branch(nat(3))
        for p in m.paths_up_to(2):
            assert is_true(eq_strong(m.observe(sub, p), m.observe(t, (nat(3),) + p), 3))

    def test_disjointness_enforced(self):
        with pytest.raises(NonDisjointFibers):
            MSignature(((nat(0), (nat(5),)), (nat(1), (nat(5),))))


class TestNonEnumerable:
    def test_nat_exponent_rejected(self):
        with pytest.raises(NonEnumerableExponent):
            FinalCoalgebra(ExtPolyNF(((Unit(), Nat()),)))


class TestFunctorComparison:
    def spap_objects(self):
        one = lab.terminal(lab.SPAP)
        one_empty = lab.spap_obj((0,), [])
        return one, one_empty

    def test_remark_counterexample(self):
        one, one_empty = self.spap_objects()
        report = lab.mtype_vs_extpoly_compare(one, one_empty, one_empty)
        assert report.ext_card >= 1
        assert report.general_card == 0
        assert not report.isomorphic

    def test_disjoint_inhabited_fibers_agree(self):
        one, one_empty = self.spap_objects()
        report = lab.mtype_vs_extpoly_compare(one, one, one_empty)
        assert report.isomorphic
        sane = lab.mtype_vs_extpoly_compare(one, one, one)
        assert sane.isomorphic and sane.ext_card == 2

    def test_ambient_model_has_the_isomorphism(self):
        # with bot available, the displayed map is a bijection
        bl, br = [UNIT], [TRUE, FALSE]
        xs = [nat(0), nat(1)]
        ext_side = ambient_ext_values(bl, br, xs)
        gen_side = ambient_general_poly_values(bl, br, xs)
        images = [ambient_iso(v) for v in ext_side]
        assert len(ext_side) == len(gen_side)
        assert len({repr(v) for v in images}) == len(images)
        gen_keys = {repr(v) for v in gen_side}
        assert all(repr(v) in gen_keys for v in images)
