"""Core semantics: partial values and a call-by-value evaluator.

Values are immutable and undefinedness is a first-class result (the
``UNDEF`` singleton), never nontermination; running out of evaluation
budget raises ``FuelExhausted`` instead, so the two can never be
confused.  Function values come in two flavours: procedural partial
maps (``PFunV``) and finite tables (``FinMapV``); a table on tree paths
is an interned trie (``PathTrie``).  Equality on finite tables is exact;
equality on procedural maps is bounded-extensional over a canonical
sample set and is therefore an approximation.
"""

from __future__ import annotations

import itertools
import weakref
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence


class QuasiError(Exception):
    """Base class for all library errors."""


class FuelExhausted(QuasiError):
    """Evaluation budget ran out; distinct from a genuinely undefined result."""


class UnboundName(QuasiError):
    pass


class TypeMismatch(QuasiError):
    pass


class IncomparableTypes(QuasiError):
    pass


class NonEnumerableType(QuasiError):
    pass


# ---------------------------------------------------------------------------
# Types


class Ty:
    """Semantic types: a closed grammar, normalized before use."""

    __slots__ = ()


@dataclass(frozen=True)
class Unit(Ty):
    pass


@dataclass(frozen=True)
class Nat(Ty):
    pass


@dataclass(frozen=True)
class Bool(Ty):
    pass


@dataclass(frozen=True)
class Logical(Ty):
    pass


@dataclass(frozen=True)
class Zero(Ty):
    pass


@dataclass(frozen=True)
class Sum(Ty):
    left: Ty
    right: Ty


@dataclass(frozen=True)
class Prod(Ty):
    left: Ty
    right: Ty


@dataclass(frozen=True)
class Total(Ty):
    dom: Ty
    cod: Ty


@dataclass(frozen=True)
class Partial(Ty):
    dom: Ty
    cod: Ty


@dataclass(frozen=True)
class Named(Ty):
    """A type name, applied to ``args`` when it names a type constructor."""

    name: str
    args: tuple[Ty, ...] = ()


def normalize_ty(ty: Ty, env: Optional[Mapping[str, Ty]] = None) -> Ty:
    """Resolve names and expand the definitional aliases.

    ``Bool`` is definitionally ``Sum(Unit, Unit)`` and ``Logical`` is
    ``Partial(Unit, Unit)``; unresolved names are an error.
    """
    match ty:
        case Bool():
            return Sum(Unit(), Unit())
        case Logical():
            return Partial(Unit(), Unit())
        case Named(name):
            if env is None or name not in env:
                raise UnboundName(f"unresolved type name {name!r}")
            return normalize_ty(env[name], env)
        case Sum(l, r):
            return Sum(normalize_ty(l, env), normalize_ty(r, env))
        case Prod(l, r):
            return Prod(normalize_ty(l, env), normalize_ty(r, env))
        case Total(d, c):
            return Total(normalize_ty(d, env), normalize_ty(c, env))
        case Partial(d, c):
            return Partial(normalize_ty(d, env), normalize_ty(c, env))
        case _:
            return ty


def ty_card(ty: Ty, env: Optional[Mapping[str, Ty]] = None) -> int:
    """Number of values of a finite type; raises on Nat."""
    t = normalize_ty(ty, env)
    match t:
        case Unit():
            return 1
        case Zero():
            return 0
        case Nat():
            raise NonEnumerableType("Nat is infinite")
        case Sum(l, r):
            return ty_card(l) + ty_card(r)
        case Prod(l, r):
            return ty_card(l) * ty_card(r)
        case Total(d, c):
            return ty_card(c) ** ty_card(d)
        case Partial(d, c):
            return (ty_card(c) + 1) ** ty_card(d)
    raise NonEnumerableType(f"no cardinality for {t!r}")


# ---------------------------------------------------------------------------
# Partial values


class PVal:
    """A partial value; ``UNDEF`` is the only undefined one."""

    __slots__ = ()

    def defined(self) -> bool:
        return not isinstance(self, Undef)


def _value_hash(v: PVal) -> int:
    """The hash of every value: its ``_sort_key`` order tag with its payload.

    The tag keeps payload-equal values of different constructors apart
    (``inl x``/``inr x``, ``TRUE``/``FALSE``, ``UNIT``/``UNDEF``), and
    being a plain integer it hashes the same in every process.  Values are
    immutable, so the constructors whose payload is a value cache the hash:
    trees are hashed on every table lookup.  Procedural maps hash by
    identity, as they compare.
    """
    cls = type(v)  # dispatch by class test: a class pattern costs several times more
    if cls is NatV:
        return hash((2, v.n))
    h = getattr(v, "_hash", None)
    if h is None:
        if cls is PairV:
            h = hash((5, v.fst, v.snd))
        elif cls is InrV:
            h = hash((4, v.value))
        elif cls is InlV:
            h = hash((3, v.value))
        elif cls is FinMapV:
            h = hash((6, v.entries))
        elif cls is PFunV:
            return hash((7, id(v.fn)))
        elif cls is UnitV:
            return hash((1,))
        elif cls is Undef:
            return hash((0,))
        else:
            raise TypeMismatch(f"unknown value {v!r}")
        object.__setattr__(v, "_hash", h)
    return h


@dataclass(frozen=True)
class Undef(PVal):
    __hash__ = _value_hash


@dataclass(frozen=True)
class UnitV(PVal):
    __hash__ = _value_hash


@dataclass(frozen=True)
class NatV(PVal):
    n: int

    __hash__ = _value_hash

    def __post_init__(self):
        if self.n < 0:
            raise TypeMismatch("naturals are nonnegative")


@dataclass(frozen=True)
class PairV(PVal):
    fst: PVal
    snd: PVal

    __hash__ = _value_hash


@dataclass(frozen=True)
class InlV(PVal):
    value: PVal

    __hash__ = _value_hash


@dataclass(frozen=True)
class InrV(PVal):
    value: PVal

    __hash__ = _value_hash


@dataclass(frozen=True, eq=False)
class PFunV(PVal):
    """Procedural partial map.  Must be pure: equal arguments, equal results."""

    fn: Callable[[PVal], PVal]
    dom: Optional[Ty] = None

    # identity-based equality/hash; extensional comparison goes through eq_*
    def __eq__(self, other):
        return self is other

    __hash__ = _value_hash


def _sort_key(v: PVal):
    # deterministic total order on values, used to canonicalize tables
    match v:
        case Undef():
            return (0,)
        case UnitV():
            return (1,)
        case NatV(n):
            return (2, n)
        case InlV(x):
            return (3, _sort_key(x))
        case InrV(x):
            return (4, _sort_key(x))
        case PairV(a, b):
            return (5, _sort_key(a), _sort_key(b))
        case FinMapV(entries):
            return (6, tuple((_sort_key(k), _sort_key(x)) for k, x in entries))
        case PFunV():
            return (7, id(v))
    raise TypeMismatch(f"unknown value {v!r}")


@dataclass(frozen=True)
class FinMapV(PVal):
    """Finite-table partial map; keys sorted canonically so equality is exact."""

    entries: tuple[tuple[PVal, PVal], ...]

    __hash__ = _value_hash

    @staticmethod
    def of(table: Mapping[PVal, PVal] | Iterable[tuple[PVal, PVal]]) -> "FinMapV":
        """The defined entries as a table: the interned ``PathTrie`` when every
        key is a tree path (the empty table too), else flat and sorted."""
        items = table.items() if isinstance(table, Mapping) else table
        kept = [(k, v) for k, v in items if v.defined()]
        paths = [_path_steps(k) for k, _ in kept]
        if None not in paths:
            return trie_of_paths(zip(paths, (v for _, v in kept)))
        kept.sort(key=lambda kv: _sort_key(kv[0]))
        for (k1, _), (k2, _) in zip(kept, kept[1:]):
            if k1 == k2:
                raise TypeMismatch("duplicate key in finite map")
        return FinMapV(tuple(kept))

    def lookup(self, key: PVal) -> PVal:
        for k, v in self.entries:
            if k == key:
                return v
        return UNDEF

    def keys(self) -> list[PVal]:
        return [k for k, _ in self.entries]


UNDEF = Undef()
UNIT = UnitV()
TRUE = InlV(UNIT)
FALSE = InrV(UNIT)


# ---------------------------------------------------------------------------
# Tables on tree paths as interned tries


class PathTrie(FinMapV):
    """A finite map on tree paths, ``encode_path`` keys of ``nat`` steps.

    A node holds ``root``, the value at the empty path (``UNDEF`` when
    there is none), and ``children``, the non-empty subtables under each
    first step as ``(j, trie)`` pairs with j ascending.  Nodes are made by
    ``trie``, which interns them, so equal tables are usually one object
    and a constructor shares its children's tables as they are.  The hash
    is fixed at construction from the root and the children's hashes.

    It is a ``FinMapV``: ``entries`` is derived on first use, in the
    canonical key order (the root first, then each child j's block by j
    as a number).  ``FinMapV.of`` returns a trie for every table keyed by
    tree paths, so a trie is compared only with tries.
    """

    __slots__ = ("root", "children", "_hash", "_flat")

    @property
    def entries(self) -> tuple[tuple[PVal, PVal], ...]:
        if self._flat is None:
            keys = {(): TRUE}
            flat = tuple((_path_key(p, keys), v) for p, v in self.paths())
            object.__setattr__(self, "_flat", flat)
        return self._flat

    def paths(self) -> list[tuple[tuple[int, ...], PVal]]:
        """(integer path, value) pairs in canonical order, by a pre-order walk."""
        out = []
        stack = [((), self)]
        while stack:
            path, node = stack.pop()
            if node.root is not UNDEF:
                out.append((path, node.root))
            for j, child in reversed(node.children):
                stack.append((path + (j,), child))
        return out

    def child(self, j: int) -> "PathTrie":
        """The subtable under first step j; the empty trie if there is none."""
        for step, c in self.children:
            if step == j:
                return c
        return EMPTY_TRIE

    def lookup(self, key: PVal) -> PVal:
        steps = _path_steps(key)
        if steps is None:
            return UNDEF
        node = self
        for j in steps:
            node = node.child(j)
        return node.root

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not PathTrie:
            return NotImplemented
        # equal tables are one node unless two were interned concurrently:
        # compare structurally, by a loop
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a._hash != b._hash or a.root != b.root or len(a.children) != len(b.children):
                return False
            for (j, ca), (k, cb) in zip(a.children, b.children):
                if j != k:
                    return False
                stack.append((ca, cb))
        return True

    def __repr__(self) -> str:
        return f"FinMapV(entries={self.entries!r})"


# Interned nodes by (root, children), each held through a weak reference
# whose callback drops the entry once the node is gone.  A lost race only
# leaves two equal nodes, which compare by structure.
_interned: dict[tuple, weakref.ref] = {}


def _forget(key: tuple) -> Callable[[weakref.ref], None]:
    def forget(ref: weakref.ref) -> None:
        if _interned.get(key) is ref:
            _interned.pop(key, None)

    return forget


def trie(root: PVal, children: tuple[tuple[int, PathTrie], ...] = ()) -> PathTrie:
    """The interned node with this root (``UNDEF``: none) and these children.

    ``children`` must be non-empty tries under ascending steps.
    """
    key = (root, children)
    ref = _interned.get(key)
    node = None if ref is None else ref()
    if node is None:
        node = object.__new__(PathTrie)
        object.__setattr__(node, "root", root)
        object.__setattr__(node, "children", children)
        object.__setattr__(node, "_hash", hash((6, root, children)))
        object.__setattr__(node, "_flat", None)
        _interned[key] = weakref.ref(node, _forget(key))
    return node


EMPTY_TRIE = trie(UNDEF)


def trie_of_paths(items: Iterable[tuple[Sequence[int], PVal]]) -> PathTrie:
    """The trie of (integer path, value) pairs; undefined values are dropped."""
    top: list = [UNDEF, {}, None]  # draft node: root, {step: draft}, built trie
    for path, v in items:
        if not v.defined():
            continue
        draft = top
        for j in path:
            draft = draft[1].setdefault(j, [UNDEF, {}, None])
        if draft[0] is not UNDEF:
            raise TypeMismatch("duplicate key in finite map")
        draft[0] = v
    stack = [top]
    while stack:  # post-order: a draft is built once all its children are
        draft = stack[-1]
        pending = [d for d in draft[1].values() if d[2] is None]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        draft[2] = trie(draft[0], tuple((j, d[2]) for j, d in sorted(draft[1].items())))
    return top[2]


def _path_steps(key: PVal) -> Optional[tuple[int, ...]]:
    """The integer steps of an ``encode_path`` key of ``nat`` steps, else None."""
    steps = []
    while type(key) is InrV:
        step = key.value
        if type(step) is not PairV or type(step.fst) is not NatV:
            return None
        steps.append(step.fst.n)
        key = step.snd
    return tuple(steps) if key == TRUE else None


def _path_key(path: tuple[int, ...], keys: dict) -> PVal:
    """``encode_path`` of a path, sharing the encoded suffixes kept in ``keys``."""
    missing = []
    while path not in keys:
        missing.append(path)
        path = path[1:]
    key = keys[path]
    for p in reversed(missing):
        key = keys[p] = InrV(PairV(NatV(p[0]), key))
    return key


def nat(n: int) -> NatV:
    return NatV(n)


def pair(a: PVal, b: PVal) -> PVal:
    # tupling is strict
    if not a.defined() or not b.defined():
        return UNDEF
    return PairV(a, b)


def inl(v: PVal) -> PVal:
    return InlV(v) if v.defined() else UNDEF


def inr(v: PVal) -> PVal:
    return InrV(v) if v.defined() else UNDEF


def finmap(table) -> FinMapV:
    return FinMapV.of(table)


def fold_right(combine: Callable, empty, parts: Sequence):
    """``combine(p1, combine(p2, ... pk))``, or ``empty`` for no parts."""
    if not parts:
        return empty
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = combine(p, out)
    return out


def tuple_of(parts: Sequence[PVal]) -> PVal:
    """Right-nested pairs ``(p1, (p2, ... pk))``; ``()`` when empty.

    Not strict: an undefined part is kept in place, not propagated.
    """
    return fold_right(PairV, UNIT, parts)


def untuple(v: PVal, k: int) -> list[PVal]:
    """The k parts of a ``tuple_of`` value."""
    if k == 0:
        return []
    out = []
    for _ in range(k - 1):
        if not isinstance(v, PairV):
            raise TypeMismatch("malformed component tuple")
        out.append(v.fst)
        v = v.snd
    out.append(v)
    return out


def encode_path(steps: Sequence[PVal]) -> PVal:
    """A path as a value: ``inr (s1, ... inr (sm, inl ())...)``.

    Tree paths (steps ``nat j``) and process paths (steps are labels) both
    key their tables by this encoding.
    """
    out: PVal = InlV(UNIT)
    for s in reversed(steps):
        out = InrV(PairV(s, out))
    return out


def decode_path(v: PVal) -> tuple[PVal, ...]:
    """The steps of an ``encode_path`` value."""
    out = []
    while isinstance(v, InrV):
        out.append(v.value.fst)
        v = v.value.snd
    return tuple(out)


def pfun(fn: Callable[[PVal], PVal], dom: Optional[Ty] = None) -> PFunV:
    return PFunV(fn, dom)


def from_bool(b: bool) -> PVal:
    return TRUE if b else FALSE


def is_true(v: PVal) -> bool:
    return v == TRUE


def apply_pval(f: PVal, x: PVal) -> PVal:
    """Strict application of a function-like value."""
    if not f.defined() or not x.defined():
        return UNDEF
    match f:
        case FinMapV():
            return f.lookup(x)
        case PFunV(fn, _):
            return fn(x)
    raise TypeMismatch(f"cannot apply non-function {show_pval(f)}")


def enumerate_ty(ty: Ty, nat_bound: int = 4, env=None) -> list[PVal]:
    """All values of a finite type (naturals truncated below ``nat_bound``).

    Function types enumerate as finite tables, which is exact because the
    domain itself is finite.
    """
    t = normalize_ty(ty, env)
    match t:
        case Unit():
            return [UNIT]
        case Zero():
            return []
        case Nat():
            return [nat(i) for i in range(nat_bound)]
        case Sum(l, r):
            return [InlV(v) for v in enumerate_ty(l, nat_bound)] + [
                InrV(v) for v in enumerate_ty(r, nat_bound)
            ]
        case Prod(l, r):
            return [
                PairV(a, b)
                for a in enumerate_ty(l, nat_bound)
                for b in enumerate_ty(r, nat_bound)
            ]
        case Total(d, c):
            dom = enumerate_ty(d, nat_bound)
            cods = enumerate_ty(c, nat_bound)
            return [
                finmap(zip(dom, choice))
                for choice in product_choices(cods, len(dom))
            ]
        case Partial(d, c):
            dom = enumerate_ty(d, nat_bound)
            cods = enumerate_ty(c, nat_bound) + [UNDEF]
            return [
                finmap((k, v) for k, v in zip(dom, choice) if v.defined())
                for choice in product_choices(cods, len(dom))
            ]
    raise NonEnumerableType(f"cannot enumerate {t!r}")


def product_choices(options, n):
    """Every n-tuple over ``options``, the first position varying fastest.

    This order fixes the order of enumerated tables and trees, and through
    it the details that reports print.
    """
    return (c[::-1] for c in itertools.product(options, repeat=n))


# ---------------------------------------------------------------------------
# Restriction and equality


def restrict(v: PVal, cond: PVal) -> PVal:
    """Restriction: defined and equal to ``v`` iff ``v`` defined and ``cond`` true."""
    if cond == TRUE:
        return v
    return UNDEF


def _canonical_args(dom: Optional[Ty], depth: int) -> list[PVal]:
    if dom is not None:
        try:
            return enumerate_ty(dom, nat_bound=depth)
        except NonEnumerableType:
            pass
    return [UNIT] + [nat(i) for i in range(depth)]


def _is_funlike(v: PVal) -> bool:
    return isinstance(v, (PFunV, FinMapV))


def eq_existential(a: PVal, b: PVal, depth: int = 4) -> PVal:
    """Existential equality: both sides defined and (observably) equal."""
    if not a.defined() or not b.defined():
        return FALSE
    match (a, b):
        case (UnitV(), UnitV()):
            return TRUE
        case (NatV(n), NatV(m)):
            return from_bool(n == m)
        case (PairV(x, y), PairV(u, v)):
            return from_bool(
                is_true(eq_existential(x, u, depth))
                and is_true(eq_existential(y, v, depth))
            )
        case (InlV(x), InlV(y)):
            return eq_existential(x, y, depth)
        case (InrV(x), InrV(y)):
            return eq_existential(x, y, depth)
        case (InlV(_), InrV(_)) | (InrV(_), InlV(_)):
            return FALSE
    if _is_funlike(a) and _is_funlike(b):
        return _eq_funlike(a, b, depth)
    raise IncomparableTypes(f"cannot compare {type(a).__name__} with {type(b).__name__}")


def _eq_funlike(a: PVal, b: PVal, depth: int) -> PVal:
    if isinstance(a, FinMapV) and isinstance(b, FinMapV):
        # finite tables compare exactly: same keys in the same canonical
        # order, strongly equal values (which may be procedural maps)
        if a.keys() != b.keys():
            return FALSE
        return from_bool(
            all(
                is_true(eq_strong(u, v, depth))
                for (_, u), (_, v) in zip(a.entries, b.entries)
            )
        )
    if depth <= 0:
        return TRUE  # no observations left; indistinguishable
    samples: list[PVal] = []
    for f in (a, b):
        if isinstance(f, FinMapV):
            samples.extend(f.keys())
        else:
            samples.extend(_canonical_args(f.dom, depth))
    return from_bool(
        all(
            is_true(eq_strong(apply_pval(a, x), apply_pval(b, x), depth - 1))
            for x in dict.fromkeys(samples)
        )
    )


def eq_strong(a: PVal, b: PVal, depth: int = 4) -> PVal:
    """Strong equality: one side defined iff the other, and then equal."""
    if not a.defined() and not b.defined():
        return TRUE
    if a.defined() != b.defined():
        return FALSE
    return eq_existential(a, b, depth)


# ---------------------------------------------------------------------------
# Kernel expressions


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Lit(Term):
    value: PVal


@dataclass(frozen=True)
class Lam(Term):
    param: str
    body: Term


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class PairE(Term):
    fst: Term
    snd: Term


@dataclass(frozen=True)
class Fst(Term):
    arg: Term


@dataclass(frozen=True)
class Snd(Term):
    arg: Term


@dataclass(frozen=True)
class InlE(Term):
    arg: Term


@dataclass(frozen=True)
class InrE(Term):
    arg: Term


@dataclass(frozen=True)
class CaseE(Term):
    scrutinee: Term
    left_var: str
    left: Term
    right_var: str
    right: Term


@dataclass(frozen=True)
class RestrictE(Term):
    arg: Term
    cond: Term


@dataclass(frozen=True)
class EqE(Term):
    lhs: Term
    rhs: Term
    strong: bool = False
    depth: int = 4


@dataclass
class Fuel:
    """Evaluation budget; strictly decreasing, exhaustion is a hard error."""

    steps: int

    def tick(self):
        if self.steps <= 0:
            raise FuelExhausted("out of evaluation steps")
        self.steps -= 1


# The budget of the application being run, read by closures when they are
# called: a closure's body is charged to the evaluation that applies it,
# also when a builtin (fold, case, ...) does the applying on its behalf.
# A context variable keeps concurrent evaluations in threads apart.
_applying: ContextVar[Fuel] = ContextVar("applying_fuel")


def eval_term(term: Term, env: Mapping[str, PVal], fuel: Fuel) -> PVal:
    """Call-by-value evaluation; application to an undefined argument is undefined."""
    fuel.tick()
    match term:
        case Var(name):
            if name not in env:
                raise UnboundName(f"unbound name: {name!r}")
            return env[name]
        case Lit(v):
            return v
        case Lam(param, body):
            captured = dict(env)

            def closure(x: PVal, _p=param, _b=body, _e=captured) -> PVal:
                inner = dict(_e)
                inner[_p] = x
                # applied outside any evaluation: only the creator's budget is left
                return eval_term(_b, inner, _applying.get(fuel))

            return PFunV(closure)
        case App(f, a):
            fv = eval_term(f, env, fuel)
            av = eval_term(a, env, fuel)
            if not fv.defined() or not av.defined():
                return UNDEF
            token = _applying.set(fuel)
            try:
                return apply_pval(fv, av)
            finally:
                _applying.reset(token)
        case PairE(x, y):
            return pair(eval_term(x, env, fuel), eval_term(y, env, fuel))
        case Fst(e):
            v = eval_term(e, env, fuel)
            if not v.defined():
                return UNDEF
            if not isinstance(v, PairV):
                raise TypeMismatch("fst of non-pair")
            return v.fst
        case Snd(e):
            v = eval_term(e, env, fuel)
            if not v.defined():
                return UNDEF
            if not isinstance(v, PairV):
                raise TypeMismatch("snd of non-pair")
            return v.snd
        case InlE(e):
            return inl(eval_term(e, env, fuel))
        case InrE(e):
            return inr(eval_term(e, env, fuel))
        case CaseE(scrut, lv, lb, rv, rb):
            v = eval_term(scrut, env, fuel)
            if not v.defined():
                return UNDEF
            inner = dict(env)
            match v:
                case InlV(x):
                    inner[lv] = x
                    return eval_term(lb, inner, fuel)
                case InrV(x):
                    inner[rv] = x
                    return eval_term(rb, inner, fuel)
            raise TypeMismatch("case on non-sum value")
        case RestrictE(e, c):
            cv = eval_term(c, env, fuel)
            vv = eval_term(e, env, fuel)
            return restrict(vv, cv)
        case EqE(l, r, strong, depth):
            lv = eval_term(l, env, fuel)
            rv = eval_term(r, env, fuel)
            return eq_strong(lv, rv, depth) if strong else eq_existential(lv, rv, depth)
    raise TypeMismatch(f"unknown term {term!r}")


def show_pval(v: PVal) -> str:
    """Readable rendering; booleans print by their sum encoding names.

    Pops values and literal text off an explicit stack, so a deep value (a
    list's path keys nest two levels per element) prints without recursion.
    """
    out: list[str] = []
    stack: list[PVal | str] = [v]
    while stack:
        item = stack.pop()
        cls = type(item)  # dispatch by class test, as in _value_hash
        if cls is str:
            out.append(item)
        elif cls is InlV or cls is InrV:
            x = item.value
            if type(x) is UnitV:
                out.append("true" if cls is InlV else "false")
            else:
                out.append("inl " if cls is InlV else "inr ")
                stack.append(x)
        elif cls is PairV:
            out.append("(")
            stack += (")", item.snd, ", ", item.fst)
        elif cls is NatV:
            out.append(str(item.n))
        elif isinstance(item, FinMapV):
            out.append("{")
            stack.append("}")
            for i, (k, x) in enumerate(reversed(item.entries)):
                stack += (x, " -> ", k) if i == 0 else (", ", x, " -> ", k)
        elif cls is UnitV:
            out.append("()")
        elif cls is Undef:
            out.append("undefined")
        elif isinstance(item, PFunV):
            out.append("<fun>")
        else:
            out.append(repr(item))
    return "".join(out)


# Logical values: a formula is a partial constant on Unit; it holds iff
# application at () is defined.
TOP = finmap({UNIT: UNIT})
BOT = finmap({})


def holds(formula: PVal) -> bool:
    return apply_pval(formula, UNIT).defined()


def logical(b: bool) -> PVal:
    return TOP if b else BOT
