"""Constructed final coalgebras: infinite trees as partial path maps.

Elements are procedural partial maps from paths over the summed
exponent type to the summed parameter type.  They are genuinely
infinite, so equality is bounded observational equivalence at a
configurable depth; exponent types must be finitely enumerable for
observation to be effective (an implementation bound, not a semantic
one).  Every tree is read through a graph of the coalgebra steps it has
reached.  An unfolded tree's graph has one node per reachable seed, so
a coalgebra on finitely many seeds gives a finite graph, cycles and
all; any other map on encoded paths is read through a trie, one node
per path.  The bounded checks read trees through one breadth-first
``walk`` over tuples of nodes, which visits each distinct tuple once:
on a graph keyed by seed, a check at any depth costs at most one visit
per tuple of seeds, as a bisimulation is checked on pairs of states.
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


class _Node:
    """A node of a tree's graph: the observation there, the map from a
    label to the node below it, and the children made so far, by label.
    An unfold makes one node per seed it reaches, so a path back to a seed
    closes a cycle; a path map's nodes are one per path, a trie.  A child
    costs at most one coalgebra step, and a step that raises leaves no child
    behind."""

    __slots__ = ("value", "succ", "kids", "view")

    def __init__(self, value: PVal, succ: Callable[[PVal], "_Node"]):
        self.value, self.succ, self.kids, self.view = value, succ, {}, None

    def child(self, label: PVal) -> "_Node":
        if self is _OFF:  # shared by every tree, so it keeps no children
            return _OFF
        kid = self.kids.get(label)
        if kid is None:
            kid = self.kids[label] = self.succ(label)
        return kid


_OFF = _Node(UNDEF, None)  # the node at every undefined path


def _at(top: _Node, path: BPath) -> PVal:
    node = top.child(None)
    for label in path:
        node = node.child(label)
    return node.value


def _graph_tree(top: _Node) -> PVal:
    """The tree whose root is ``top``'s child under label None; an unfolded
    tree's root step runs on first observation."""
    tree = pfun(lambda path: _at(top, decode_path(path)))
    object.__setattr__(tree, "_graph", top)
    return tree


def _seed_graph(step: Callable, z) -> PVal:
    """The tree unfolded from seed ``z``: ``step`` maps a seed to the
    observation there and the map from a label to the seed below it
    (``_OFF`` off the offered ones).  The nodes are keyed by seed, so each
    reachable seed steps once; a seed that raises ``TypeError`` on hashing
    gets a node of its own."""
    nodes: dict = {}

    def node(seed) -> _Node:
        if seed is _OFF:
            return _OFF
        try:
            made = nodes.get(seed)
        except TypeError:
            return fresh(seed)
        if made is None:
            made = nodes[seed] = fresh(seed)
        return made

    def fresh(seed) -> _Node:
        value, succ = step(seed)
        return _Node(value, lambda label: node(succ(label)))

    return _graph_tree(_Node(UNDEF, lambda _root: node(z)))


def _as_ptree(observe: Callable[[BPath], PVal]) -> PVal:
    """The process tree observed through ``observe``: a node per path, whose
    child under a label is the node of the path extended by it."""

    def node(path: BPath) -> _Node:
        return _Node(observe(path), lambda label: node(path + (label,)))

    return _graph_tree(_Node(UNDEF, lambda _root: node(())))


def _top(tree: PVal) -> _Node:
    """The graph of ``tree``; a map made elsewhere gets the trie that
    applies it to encoded paths."""
    return getattr(tree, "_graph", None) or _as_ptree(lambda p: apply_pval(tree, encode_path(p)))._graph


def root(tree: PVal) -> _Node:
    """The node at the root of ``tree``; the bounded checks walk from it.
    A node first read through ``tree`` keeps it as its view."""
    node = _top(tree).child(None)
    node.view = node.view or tree
    return node


def subtree(tree: PVal, label: PVal) -> PVal:
    """The subtree of ``tree`` under one more label: the view of the node
    under the label, which shares the graph from it.  A node has one view,
    so a coalgebra whose seeds are subtrees steps once per node."""
    node = root(tree).child(label)
    node.view = node.view or _graph_tree(_Node(UNDEF, lambda _root: node))
    return node.view


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
        # labels of B = sum of the exponent types, by summand
        self.summand_labels = [
            [inject(i, self.n, y) for y in ys] for i, ys in enumerate(self.exponent_values)
        ]
        self.b_labels = [b for bs in self.summand_labels for b in bs]
        # the exponent value under each label, by the summand offering it
        self.exponent_at = [dict(zip(bs, ys)) for bs, ys in zip(self.summand_labels, self.exponent_values)]

    # ---- observation ------------------------------------------------------

    def observe(self, tree: PVal, path: BPath) -> PVal:
        return _at(_top(tree), path)

    def paths_up_to(self, depth: int) -> list[BPath]:
        out: list[BPath] = [()]
        frontier: list[BPath] = [()]
        for _ in range(depth):
            frontier = [p + (b,) for p in frontier for b in self.b_labels]
            out.extend(frontier)
        return out

    def walk(self, roots: tuple[_Node, ...], depth: int, labels: Optional[Callable] = None):
        """Breadth-first over tuples of nodes, one below each of ``roots``
        along the same path: ``(path, nodes)`` for each distinct tuple up to
        ``depth``, once, at the first of its shallowest paths in
        ``paths_up_to`` order.  Below a tuple the walk follows
        ``labels(observation at its first node)`` (default: all of B).  A
        level is yielded before any node below it is made.

        Every path up to ``depth`` reaches a tuple that the walk yields, at
        a path no longer, and a tuple has the same edges along every path, so
        checking each tuple and each edge from a tuple above ``depth`` checks
        every path.  A graph keyed by seed has few tuples; a trie has one per
        path, and is walked path by path."""
        seen = {roots}
        level = [((), roots)]
        for _ in range(depth):
            yield from level
            below = []
            for path, nodes in level:
                for b in self.b_labels if labels is None else labels(nodes[0].value):
                    kids = tuple([node.child(b) for node in nodes])
                    if kids not in seen:
                        seen.add(kids)
                        below.append((path + (b,), kids))
            level = below
        yield from level

    def offered(self, value: PVal) -> list[PVal]:
        """The labels a member defines below a node observed as ``value``:
        those of the summand offered there, none where it is undefined."""
        return self.summand_labels[project(value, self.n)[0]] if value.defined() else []

    def tree_eq(self, t1: PVal, t2: PVal, depth: int = 4) -> bool:
        """Bounded observational equivalence on all paths up to the depth,
        asked once per pair of nodes the two trees reach along one path."""
        return all(
            is_true(eq_strong(n1.value, n2.value, depth))
            for _, (n1, n2) in self.walk((root(t1), root(t2)), depth)
        )

    # ---- the coalgebra structure -------------------------------------------

    def structure_map(self, tree: PVal) -> PVal:
        """One observation step: the root label and the family of subtrees."""
        root = self.observe(tree, ())
        if not root.defined():
            return UNDEF
        i, x = project(root, self.n)
        under = pfun(
            lambda y: subtree(tree, inject(i, self.n, y)), dom=self.nf.summands[i][1]
        )
        return ext_value(self.nf, i, x, under)

    def unfold(self, d: Callable, z) -> PVal:
        """The unique morphism from a coalgebra ``d`` with seed ``z``.

        ``d`` maps a seed to ``(summand index, parameter, successor map)``;
        paths whose label disagrees with the summand offered at that point
        are undefined.
        """
        n = self.n

        def step(seed):
            i, x, g = d(seed)
            under = self.exponent_at[i]

            def succ(label: PVal):
                y = under.get(label)
                return _OFF if y is None else g(y)

            return inject(i, n, x), succ

        return _seed_graph(step, z)

    # ---- carrier membership -------------------------------------------------

    def membership_failures(self, tree: PVal, depth: int = 4) -> list[str]:
        """Check the two defining conditions on all paths up to the depth:
        the root is defined, and a longer path exactly where its last label
        is offered at the path above it.  A failure is an edge (node,
        label) from a node above the depth, named by the node's first path
        in ``walk`` order, so the list has one entry per failing edge, not
        one per failing path; the first entry names the first failing path."""
        failures = []
        for path, (node,) in self.walk((root(tree),), depth):
            if not path and not node.value.defined():
                failures.append("root observation undefined")
            if len(path) < depth:
                offered = self.offered(node.value)
                for b in self.b_labels:
                    ext = node.child(b).value
                    if ext.defined() != (b in offered):
                        failures.append(self._misplaced(path + (b,), ext))
        return failures

    def _misplaced(self, path: BPath, ext: PVal) -> str:
        i = project(path[-1], self.n)[0]
        return (
            f"path {path[:-1]!r} extended by summand {i}: "
            f"defined={ext.defined()} expected={not ext.defined()}"
        )

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
    walk = FinalCoalgebra.walk
    membership_failures = FinalCoalgebra.membership_failures

    def structure_map(self, tree: PVal) -> tuple[PVal, Callable[[PVal], PVal]]:
        """c f = (f nil, fun b . fun p . f (cons b p))."""
        return self.observe(tree, ()), lambda b: subtree(tree, b)

    def unfold(self, d: Callable, z) -> PVal:
        """d maps a seed to (index, successor map defined exactly on its fiber)."""

        def step(seed):
            a, g = d(seed)
            return a, lambda b: g(b) if self.sig.q(b) == a else _OFF

        return _seed_graph(step, z)

    def offered(self, a: PVal) -> list[PVal]:
        return [b for b in self.b_labels if a.defined() and self.sig.q(b) == a]

    def _misplaced(self, path: BPath, ext: PVal) -> str:
        return f"path {path[:-1]!r} + {path[-1]!r}"


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
