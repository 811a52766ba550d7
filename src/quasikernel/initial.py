"""Constructed initial algebras: list objects and finite-tree datatypes.

Lists are encoded as ``1 + (l : Nat -/-> A, n : Nat)`` with the length
index enabling recursion inherited from the naturals.  General
polynomial datatypes are carved out of a universal tree type whose
elements are a labelling partial map on paths, a depth partial map on
paths, and a dummy anchor value from the constants summand.  Both
partial maps are kept as finite tables, which constructors only ever
populate at finitely many paths, so value equality is exact.

Everything constructed here is a plain kernel value; trees are
``(label-table, (depth-table, anchor))`` pairs.

Both tables are ``kernel.PathTrie`` nodes: a value at the root and one
subtable per first step.  ``construct`` puts a new root above its
children's tables as they are, ``sel`` returns a child's table, and
``destruct`` reads the root, the slot and the children; each is O(k) for
k subtrees, and none copies, decodes or sorts a table.  A path
``(j1, ..., jm)`` is keyed by ``kernel.encode_path`` of its steps
``nat j``, that is ``inr (j1, ... inr (jm, inl ())...)``.  The canonical
key order is the order of the derived ``entries``: the root ``()``
(``inl ()``) first, then the parameter slot ``(0,)``, then each child j's
block of keys ``(j,) + p``, blocks by j as a number (so 10 follows 9) and
within a block by p.  It is the kernel's value order on the keys, so a
tree table equals the flat ``finmap`` with the same entries.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .functors import (
    PolyNF,
    TagOutOfRange,
    inject,
    poly_unvalue,
    poly_value,
    project,
)
from .kernel import (
    EMPTY_TRIE,
    UNDEF,
    UNIT,
    FinMapV,
    InlV,
    InrV,
    NatV,
    PairV,
    PathTrie,
    PVal,
    QuasiError,
    TypeMismatch,
    Unit,
    apply_pval,
    enumerate_ty,
    finmap,
    holds,
    logical,
    nat,
    product_choices,
    trie,
)


class NotInCarrier(QuasiError):
    """A fold ran into an exceptional branch: the input was outside the carrier."""


class InvariantViolation(QuasiError):
    pass


class SubtypeEscape(QuasiError):
    """A supposedly subtype-closed algebra produced a value outside the subtype."""


Path = tuple[int, ...]
_SLOT_DEPTH = trie(nat(0))


# ---------------------------------------------------------------------------
# Encoded lists (the list object construction)


def enc_nil() -> PVal:
    return InlV(UNIT)


def enc_cons(x: PVal, l: PVal) -> PVal:
    """Cons by table shift; the singleton case needs only the new element."""
    match l:
        case InlV(_):
            return InrV(PairV(finmap({nat(0): x}), nat(0)))
        case InrV(PairV(table, NatV(n))):
            shifted = {nat(0): x}
            for k, v in table.entries:
                shifted[nat(k.n + 1)] = v
            return InrV(PairV(finmap(shifted), nat(n + 1)))
    raise TypeMismatch("not an encoded list")


def enc_invariant_ok(l: PVal) -> bool:
    """def (l m) iff m <= n, checked over the whole finite table."""
    match l:
        case InlV(_):
            return True
        case InrV(PairV(FinMapV(entries), NatV(n))):
            keys = sorted(k.n for k, _ in entries)
            return keys == list(range(n + 1))
    return False


def enc_fold(c: PVal, f: Callable[[PVal, PVal], PVal], l: PVal) -> PVal:
    """Fold for the ``1 + A x __`` signature by recursion on the length index,
    run as a loop from the last element down to the head."""
    if not enc_invariant_ok(l):
        raise InvariantViolation("list definedness pattern broken")
    out = c
    for x in reversed(enc_to_list(l)):
        out = f(x, out)
    return out


def enc_from_list(values: Sequence[PVal]) -> PVal:
    """The encoded list of the values, as one table (not one cons each)."""
    if not values:
        return enc_nil()
    table = finmap({nat(i): v for i, v in enumerate(values)})
    return InrV(PairV(table, nat(len(values) - 1)))


def enc_to_list(l: PVal) -> list[PVal]:
    match l:
        case InlV(_):
            return []
        case InrV(PairV(table, NatV(n))):
            values = dict(table.entries)
            return [values.get(nat(i), UNDEF) for i in range(n + 1)]
    raise TypeMismatch("not an encoded list")


# ---------------------------------------------------------------------------
# Trees as kernel values


def tree_parts(t: PVal) -> tuple[PathTrie, PathTrie, PVal]:
    if type(t) is PairV and type(t.snd) is PairV:
        l, rest = t.fst, t.snd
        if type(l) is PathTrie and type(rest.fst) is PathTrie:
            return l, rest.fst, rest.snd
    raise TypeMismatch("not a tree value")


def tree_depth(t: PVal) -> Optional[int]:
    _, d, _ = tree_parts(t)
    return d.root.n if isinstance(d.root, NatV) else None


def tree_anchor(t: PVal) -> PVal:
    return tree_parts(t)[2]


def tree_tables(t: PVal) -> tuple[dict[Path, PVal], dict[Path, int]]:
    l, d, _ = tree_parts(t)
    return dict(l.paths()), {p: v.n for p, v in d.paths()}


# ---------------------------------------------------------------------------
# The initial algebra handle


class InitialAlgebra:
    """Datatype constructed for a polynomial signature in normal form."""

    def __init__(self, nf: PolyNF):
        self.nf = nf
        self.n = len(nf.summands)
        # one object per summand, so interning a root hits by identity
        self._node_labels = [inject(i, self.n, InrV(UNIT)) for i in range(self.n)]
        # the term algebra: its operations are the constructors
        self.constructors = [lambda w, cs, i=i: self.construct(i, w, cs) for i in range(self.n)]

    # A = sum over summands of (A_i + 1)
    def node_label(self, i: int) -> PVal:
        if not 0 <= i < self.n:
            raise TagOutOfRange(f"tag {i} of {self.n}")
        return self._node_labels[i]

    def leaf_label(self, i: int, y: PVal) -> PVal:
        return inject(i, self.n, InlV(y))

    def construct(self, i: int, param: PVal, children: Sequence[PVal]) -> PVal:
        """A root above the subtrees, whose tables are shared as they are.

        Strict, as ``functors.poly_value`` is: an undefined parameter or
        subtree gives ``UNDEF``, not a tree with an improper slot label.
        """
        a_i, k = self.nf.summands[i]
        if len(children) != k:
            raise TagOutOfRange(f"constructor {i} expects {k} subtrees")
        if param is UNDEF:
            return UNDEF
        labels = [(0, trie(self.leaf_label(i, param)))]
        depths = [(0, _SLOT_DEPTH)]
        height = 0
        for j, t in enumerate(children, start=1):
            if t is UNDEF:
                return UNDEF
            lt, dt, _ = tree_parts(t)
            if not isinstance(dt.root, NatV):
                raise InvariantViolation("subtree lacks a root depth")
            height = max(height, dt.root.n)
            if lt is not EMPTY_TRIE:
                labels.append((j, lt))
            depths.append((j, dt))
        label = trie(self.node_label(i), tuple(labels))
        depth = trie(nat(1 + height), tuple(depths))
        anchor = param if k == 0 else tree_anchor(children[0])
        return PairV(label, PairV(depth, anchor))

    def sel(self, j: int, t: PVal) -> PVal:
        """Generic selector: both path maps composed with cons j.  Subtree
        j > 1 is anchored as ``construct`` anchors it, at the parameter of its
        leftmost leaf, so on a member ``destruct`` inverts ``construct``;
        subtree 1 keeps the tree's anchor, which on a member is that one, and
        so does a subtree whose leftmost leaf has no constant's parameter slot."""
        if j < 1:
            raise TagOutOfRange("selectors are indexed from 1")
        lt, dt, anchor = tree_parts(t)
        sub = lt.child(j)
        if j > 1:
            leaf = sub
            while leaf.child(1) is not EMPTY_TRIE:
                leaf = leaf.child(1)
            try:
                i, y = project(leaf.child(0).root, self.n)
            except TagOutOfRange:
                i = None
            if i == 0 and type(y) is InlV:
                anchor = y.value
        return PairV(sub, PairV(dt.child(j), anchor))

    def destruct(self, t: PVal) -> tuple[int, PVal, list[PVal]]:
        """Read off constructor index, parameter, and immediate subtrees: the
        root, the slot and one ``sel`` per subtree, each time it is called.
        A walk of ``_f`` reads each distinct node once, its memo answering a
        node met again."""
        i, w = self._decode_root(tree_parts(t)[0])
        return i, w, [self.sel(j, t) for j in range(1, self.nf.summands[i][1] + 1)]

    def _decode_root(self, lt: PathTrie) -> tuple[int, PVal]:
        root = lt.root
        if not root.defined():
            raise NotInCarrier("no label at the root")
        try:
            i, z = project(root, self.n)
        except TagOutOfRange as e:
            raise NotInCarrier(str(e))
        if z != InrV(UNIT):
            raise NotInCarrier("root is not a constructor node")
        slot = lt.child(0).root
        if not slot.defined():
            raise NotInCarrier("no parameter in the leaf slot")
        try:
            i2, y = project(slot, self.n)
        except TagOutOfRange as e:
            raise NotInCarrier(str(e))
        if i2 != i or not isinstance(y, InlV):
            raise NotInCarrier("leaf slot disagrees with the root constructor")
        return i, y.value

    # ---- fold -------------------------------------------------------------

    def fold(self, algebra: Sequence[Callable[[PVal, list], object]], t: PVal):
        """Unique algebra morphism, total on the carrier: one walk of ``_f``.

        ``algebra[i]`` receives the parameter and the list of recursive
        results for summand i.  Reaching an exceptional branch means the
        input was not constructor-generated and raises ``NotInCarrier``.
        """
        return self._f([t], algebra)[0]

    def _f(self, trees: Sequence[PVal], algebra):
        """The results of folding ``trees``, as a list, from one post-order
        walk over an explicit stack: a node's subtrees are folded left to
        right, then its algebra runs.  Each root's depth is its budget.

        It folds each distinct node once: a node met again, by its label
        table, takes the result of its first combine from a memo that lasts
        for this call, so ``destruct`` runs once per distinct node and a tree
        whose subtrees are shared costs one combine per distinct node.

        It never inspects a result, only hands it to the algebra, so its fold
        into the constructors decides its fold into every algebra, as
        ``checks.fold_equation_failures`` relies on."""
        # (tree, depth budget) to visit, or ((i, w, k, label table), None) to combine
        todo: list = [(t, tree_depth(t)) for t in reversed(trees)]
        if any(n is None for _, n in todo):
            raise NotInCarrier("tree has no depth at the root")
        memo: dict = {}
        results: list = []
        while todo:
            t, n = todo.pop()
            if n is None:
                i, w, k, key = t
                args = results[len(results) - k:]
                del results[len(results) - k:]
                results.append(algebra[i](w, args))
                memo[key] = results[-1]
                continue
            key = t.fst  # roots were read by tree_depth, children made by sel
            if key in memo:
                results.append(memo[key])
                continue
            if n <= 0:
                raise NotInCarrier("depth budget exhausted below the structure")
            i, w, children = self.destruct(t)
            todo.append(((i, w, len(children), key), None))
            for c in reversed(children):
                todo.append((c, n - 1))
        return results

    def primrec(self, body: Sequence[Callable[[PVal, list], object]]):
        """Primitive recursion derived from fold by pairing with the identity."""
        g = self.primrec_pairing(body)

        def run(t: PVal):
            return g(t)[1]

        return run

    def primrec_pairing(self, body):
        """The simultaneous definition g : T -> T x B; its first component is id."""

        def alg_for(i):
            def alg(w, pairs):
                rebuilt = self.construct(i, w, [p[0] for p in pairs])
                return (rebuilt, body[i](w, pairs))

            return alg

        palg = [alg_for(i) for i in range(self.n)]
        return lambda t: self.fold(palg, t)

    # ---- Lambek's lemma and case ------------------------------------------

    def structure_map(self, fv: PVal) -> PVal:
        """alpha : F T -> T on encoded functor values whose X slots hold trees."""
        i, w, children = poly_unvalue(self.nf, fv)
        return self.construct(i, w, children)

    def lambek_inverse(self) -> Callable[[PVal], PVal]:
        """The two-sided inverse of the structure map, obtained as the fold of
        ``F alpha : F F T -> F T``: per summand, the children's results are
        mapped back into T by the structure map."""
        alg = [
            lambda w, results, i=i: poly_value(self.nf, i, w, [self.structure_map(r) for r in results])
            for i in range(self.n)
        ]
        return lambda t: self.fold(alg, t)

    # ---- membership and enumeration ----------------------------------------

    def is_in_T(self, t: PVal) -> bool:
        """Membership in the smallest subtype closed under the constructors:
        folding the tree with the constructors gives it back.

        ``construct`` shares each rebuilt subtree's tables as they are, so the
        root tables match only if every level does, and the rebuilt anchor is
        the leftmost constant's parameter.
        """
        try:
            return self.fold(self.constructors, t) == t
        except QuasiError:
            return False

    def enumerate_trees(self, max_depth: int) -> list[PVal]:
        """All carrier elements of depth at most ``max_depth`` (at least 1),
        with the parameters' naturals below 2, in order of depth: the
        constants first, and then round r adds exactly the trees of depth
        r + 2, so ``max_depth - 1`` rounds reach the bound and no further.

        Each tree is ``construct(i, w, children)`` of trees listed before
        it, which ``destruct`` gives back."""
        params = [enumerate_ty(a, nat_bound=2) for a, _ in self.nf.summands]
        layers: list[PVal] = [self.construct(0, y, []) for y in params[0]]
        seen = {t for t in layers}
        last = -1  # the last round's first tree: one above none of them is seen
        for _ in range(max_depth - 1):
            new = []
            for i in range(1, self.n):
                _, k = self.nf.summands[i]
                for y in params[i]:
                    for combo in product_choices(range(len(layers)), k):
                        if max(combo) < last:
                            continue
                        t = self.construct(i, y, [layers[c] for c in combo])
                        if t not in seen:
                            seen.add(t)
                            new.append(t)
            if not new:
                break
            last = len(layers)
            layers.extend(new)
        return layers


# ---------------------------------------------------------------------------
# The natural numbers as the initial algebra for X |-> 1 + X


NAT_NF = PolyNF(((Unit(), 0), (Unit(), 1)))


def nat_algebra() -> InitialAlgebra:
    return InitialAlgebra(NAT_NF)


def church(handle: InitialAlgebra, n: int) -> PVal:
    t = handle.construct(0, UNIT, [])
    for _ in range(n):
        t = handle.construct(1, UNIT, [t])
    return t


def unchurch(t: PVal) -> int:
    dep = tree_depth(t)
    if dep is None:
        raise NotInCarrier("not an encoded natural")
    return dep - 1


# ---------------------------------------------------------------------------
# Derived principles


def induction_via_fold(predicate: Callable[[int], bool], bound: int) -> bool:
    """Bounded induction evidence: the recursively built conjunction-prefix
    Q satisfies Q(n) iff P(m) for all m <= n."""
    handle = nat_algebra()

    def zero_case(_w, _pairs):
        return logical(predicate(0))

    def suc_case(_w, pairs):
        prev_tree, q = pairs[0]
        m = unchurch(prev_tree)
        return logical(holds(q) and predicate(m + 1))

    q_of = handle.primrec([zero_case, suc_case])
    for n in range(bound + 1):
        expected = all(predicate(m) for m in range(n + 1))
        if holds(q_of(church(handle, n))) != expected:
            return False
    return True


def subtype_fold(
    handle: InitialAlgebra,
    algebra: Sequence[Callable[[PVal, list[PVal]], PVal]],
    phi: Callable[[PVal], bool],
    t: PVal,
) -> PVal:
    """Fold into a subtype, lifted through ``1 -/-> a``.

    Carrier values are one-point tables; the lifted algebra unwraps them,
    applies the underlying map, and rewraps.  The result is certified to
    be defined and to satisfy phi; failure means the algebra was not
    closed under the subtype and raises ``SubtypeEscape``.
    """

    def lifted_for(i):
        def alg(w, wrapped):
            vals = [apply_pval(r, UNIT) for r in wrapped]
            if any(not v.defined() or not phi(v) for v in vals):
                return finmap({})
            return finmap({UNIT: algebra[i](w, vals)})

        return alg

    lifted = [lifted_for(i) for i in range(handle.n)]
    out = apply_pval(handle.fold(lifted, t), UNIT)
    if not out.defined() or not phi(out):
        raise SubtypeEscape("algebra left the subtype")
    return out

