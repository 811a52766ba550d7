"""Core semantics: partial values and a call-by-value evaluator.

Values are immutable and undefinedness is a first-class result (the
``UNDEF`` singleton), never nontermination; running out of evaluation
budget raises ``FuelExhausted`` instead, so the two can never be
confused.  Every value but a procedural map is hash-consed: equal ones
are one object, so they compare by identity and hash in constant time
however deep they are.  Function values come in two flavours:
procedural partial maps (``PFunV``) and finite tables (``FinMapV``).
Equality on finite tables is exact; equality on procedural maps is
bounded-extensional over a canonical sample set and is therefore an
approximation.
"""

from __future__ import annotations

import functools
import itertools
import threading
import weakref
from _weakref import _remove_dead_weakref
from contextvars import ContextVar
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


class AmbiguousName(QuasiError):
    """A bare name that several installed types bind; it must be qualified."""


# ---------------------------------------------------------------------------
# Immutable records

set_field = object.__setattr__  # how a record's ``__init__`` sets its fields


class Record:
    """An immutable record, equal, hashed and printed by its fields.

    A subclass names its fields once, ``__slots__ = __match_args__ =
    ("name", "args")``, and the defaults of trailing fields in
    ``_defaults``; it is given an ``__init__`` with one parameter per
    field, in order, that sets each with ``set_field``, since assignment
    raises.  A class that writes its own ``__init__`` (to validate) or
    ``__new__`` (to intern) keeps it.  Records of two classes are never
    equal, even with the same fields (``Sum``/``Prod``).  ``repr`` reads
    ``Named(name='x', args=())``, as check names carry it.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        if "__match_args__" in own and "__init__" not in own and "__new__" not in own:
            cls.__init__ = _record_init(cls)

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        for f in self.__match_args__:  # as tuples compare: identity first
            a, b = getattr(self, f), getattr(other, f)
            if a is not b and not a == b:
                return False
        return True

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        # an explicit stack of text and of records and tuples to expand, as
        # in show_pval, so a deep value prints without recursion
        out: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            cls = type(item)
            if cls is str:
                out.append(item)
                continue
            names = [""] * len(item) if cls is tuple else [f"{f}=" for f in cls.__match_args__]
            parts = item if cls is tuple else [getattr(item, f) for f in cls.__match_args__]
            out.append("(" if cls is tuple else f"{cls.__qualname__}(")
            stack.append(",)" if cls is tuple and len(item) == 1 else ")")
            for i in reversed(range(len(parts))):
                part = parts[i]  # pushed as its text unless it prints by this method
                if type(part) is not tuple and type(part).__repr__ is not Record.__repr__:
                    part = repr(part)
                stack += (part, names[i] if i == 0 else ", " + names[i])
        return "".join(out)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):  # copy and pickle through ``__init__``
        return type(self), self._fields()


_init_code = functools.cache(lambda source: compile(source, "<record>", "exec"))


def _record_init(cls: type) -> Callable:
    """The ``__init__`` of a record class, built from source as
    ``namedtuple`` builds its ``__new__``: a call runs straight-line code,
    with no loop over the fields.  Classes with the same fields and
    defaulted fields share one compiled source; each runs it in its own
    scope, so its defaults are its own."""
    params = [f"{f}=_defaults[{f!r}]" if f in cls._defaults else f for f in cls.__match_args__]
    body = "".join(f"\n    set_field(self, {f!r}, {f})" for f in cls.__match_args__)
    source = f"def __init__(self, {', '.join(params)}):{body}"
    scope = {"set_field": set_field, "_defaults": cls._defaults}
    exec(_init_code(source), scope)
    init = scope["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


# ---------------------------------------------------------------------------
# Types


class Ty(Record):
    """Semantic types: a closed grammar, normalized before use."""

    __slots__ = ()


class Unit(Ty):
    __slots__ = ()


class Nat(Ty):
    __slots__ = ()


class Bool(Ty):
    __slots__ = ()


class Zero(Ty):
    __slots__ = ()


class Sum(Ty):
    __slots__ = __match_args__ = ("left", "right")


class Prod(Ty):
    __slots__ = __match_args__ = ("left", "right")


class Total(Ty):
    __slots__ = __match_args__ = ("dom", "cod")


class Partial(Ty):
    __slots__ = __match_args__ = ("dom", "cod")


class Named(Ty):
    """A type name, applied to ``args`` when it names a type constructor."""

    __slots__ = __match_args__ = ("name", "args")
    _defaults = {"args": ()}


def normalize_ty(ty: Ty) -> Ty:
    """Expand the definitional alias: ``Bool`` is ``Sum(Unit, Unit)``.

    Names are resolved by the elaborator before a type reaches the kernel,
    so a name here is an error.
    """
    match ty:
        case Bool():
            return Sum(Unit(), Unit())
        case Named(name):
            raise UnboundName(f"unresolved type name {name!r}")
        case Sum(l, r):
            return Sum(normalize_ty(l), normalize_ty(r))
        case Prod(l, r):
            return Prod(normalize_ty(l), normalize_ty(r))
        case Total(d, c):
            return Total(normalize_ty(d), normalize_ty(c))
        case Partial(d, c):
            return Partial(normalize_ty(d), normalize_ty(c))
        case _:
            return ty


def ty_card(ty: Ty) -> int:
    """Number of values of a finite type; raises on Nat."""
    t = normalize_ty(ty)
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


class PVal(Record):
    """A partial value; ``UNDEF`` is the only undefined one.

    Every value but a procedural map is hash-consed: ``UNIT`` and ``UNDEF``
    are the one instance of their classes, and naturals, pairs, injections
    and tables are interned (``_Interned``), so that building one returns
    the live value with the same class and parts if there is one.  Equal
    values are therefore one object, and ``==`` and ``hash`` are object
    identity, run in C however deep the value is.
    """

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def defined(self) -> bool:
        return True


class Undef(PVal):
    __slots__ = ()

    def __new__(cls):
        return UNDEF

    def defined(self) -> bool:
        return False


class UnitV(PVal):
    __slots__ = ()

    def __new__(cls):
        return UNIT


# ---------------------------------------------------------------------------
# Hash-consing (Goto, "Monocopy and associative algorithms in an extended
# Lisp", 1974; Filliatre & Conchon, "Type-safe modular hash-consing", 2006)

# Every live interned node by its key, (tag, *parts), through a weak
# reference that carries the key.  Its callback, _Ref.drop, removes the
# entry of a dead node in one step and only while it holds a dead
# reference, so that a node entered again under the key stays.
_interned: dict[tuple, "_Ref"] = {}
_intern_lock = threading.Lock()


class _Ref(weakref.ref):
    __slots__ = ("key",)

    def drop(self) -> None:
        _remove_dead_weakref(_interned, self.key)


def _intern(cls: type, key: tuple):
    """The live ``cls`` node with the parts ``key[1:]``, in the fields named
    by ``cls._parts`` (one or two).  The parts are integers, hash-consed
    values or tuples of them, so the key hashes and compares in C without
    walking any value.  A hit is one dict probe and one weak-reference
    call; a miss enters its node under a lock unless an equal one got
    there first, so equal nodes are one object."""
    ref = _interned.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = object.__new__(cls)
    set_field(node, cls._parts[0], key[1])
    if len(key) == 3:
        set_field(node, cls._parts[1], key[2])
    ref = _Ref(node, _Ref.drop)
    ref.key = key
    with _intern_lock:
        live = _interned.setdefault(key, ref)()  # node, or one entered since the probe
        if live is None:  # the entry of a dead node
            _interned[key] = ref
            live = node
    return live


class _Interned(PVal):
    """A hash-consed value: made only by ``_intern``, so equal is identical."""

    __slots__ = ("__weakref__",)


class NatV(_Interned):
    __slots__ = __match_args__ = _parts = ("n",)

    def __new__(cls, n: int):
        if n < 0:
            raise TypeMismatch("naturals are nonnegative")
        return _intern(cls, (2, n))


class PairV(_Interned):
    __slots__ = __match_args__ = _parts = ("fst", "snd")

    def __new__(cls, fst: PVal, snd: PVal):
        return _intern(cls, (5, fst, snd))


class InlV(_Interned):
    __slots__ = __match_args__ = _parts = ("value",)

    def __new__(cls, value: PVal):
        return _intern(cls, (3, value))


class InrV(_Interned):
    __slots__ = __match_args__ = _parts = ("value",)

    def __new__(cls, value: PVal):
        return _intern(cls, (4, value))


class PFunV(PVal):
    """Procedural partial map.  Must be pure: equal arguments, equal results.

    Not interned, but equal and hashed by identity as every value is;
    extensional comparison goes through ``eq_*``.  ``final`` keeps the
    graph of a process tree in the map's ``__dict__``.
    """

    __slots__ = ("fn", "dom", "__dict__")
    __match_args__ = ("fn", "dom")
    _defaults = {"dom": None}


def _sort_key(v: PVal) -> tuple:
    """A deterministic total order on values, used to canonicalize tables:
    the tags and payloads in pre-order, listed by a loop.  A tag fixes the
    parts after it and -1, below every tag, ends a table, so flat keys
    order as nested ``(tag, *parts)`` keys would."""
    if type(v) is NatV:
        return (2, v.n)
    if type(v) is UnitV:
        return (1,)
    out, todo = [], [v]
    while todo:
        match todo.pop():
            case None:
                out.append(-1)
            case Undef():
                out.append(0)
            case UnitV():
                out.append(1)
            case NatV(n):
                out += (2, n)
            case InlV(x):
                out.append(3)
                todo.append(x)
            case InrV(x):
                out.append(4)
                todo.append(x)
            case PairV(a, b):
                out.append(5)
                todo += (b, a)
            case FinMapV(entries):
                out.append(6)
                todo.append(None)
                for k, x in reversed(entries):
                    todo += (x, k)
            case PFunV() as f:
                out += (7, id(f))
            case w:
                raise TypeMismatch(f"unknown value {w!r}")
    return tuple(out)


class FinMapV(_Interned):
    """Finite-table partial map, interned on its entries, whose keys are
    sorted canonically, so equal tables are one object."""

    __slots__ = __match_args__ = _parts = ("entries",)

    def __new__(cls, entries: tuple[tuple[PVal, PVal], ...]):
        return _intern(cls, (6, entries))

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


UNDEF = object.__new__(Undef)
UNIT = object.__new__(UnitV)
TRUE = InlV(UNIT)
FALSE = InrV(UNIT)


# ---------------------------------------------------------------------------
# Tables on tree paths as interned tries


class PathTrie(FinMapV):
    """A finite map on tree paths, ``encode_path`` keys of ``nat`` steps.

    A node holds ``root``, the value at the empty path (``UNDEF`` when
    there is none), and ``children``, the non-empty subtables under each
    first step as ``(j, trie)`` pairs with j ascending.  Nodes are made by
    ``trie``, which interns them as pairs and injections are interned, so
    equal tables are one object, compared by identity, and a constructor
    shares its children's tables as they are.

    It is a ``FinMapV``: ``entries`` is derived on first use, in the
    canonical key order (the root first, then each child j's block by j
    as a number).  ``FinMapV.of`` returns a trie for every table keyed by
    tree paths, so a trie is compared only with tries.  ``initial`` keeps
    the destructed root of a tree on its label trie, in ``__dict__``.
    """

    __slots__ = ("root", "children", "__dict__")
    _parts = ("root", "children")

    @functools.cached_property
    def entries(self) -> tuple[tuple[PVal, PVal], ...]:
        keys = {(): TRUE}
        return tuple((_path_key(p, keys), v) for p, v in self.paths())

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

    def __repr__(self) -> str:
        return f"FinMapV(entries={self.entries!r})"

    def __reduce__(self):
        return trie, (self.root, self.children)


def trie(root: PVal, children: tuple[tuple[int, PathTrie], ...] = ()) -> PathTrie:
    """The interned node with this root (``UNDEF``: none) and these children.

    ``children`` must be non-empty tries under ascending steps.
    """
    return _intern(PathTrie, (6, root, children))


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


nat = NatV


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


def enumerate_ty(ty: Ty, nat_bound: int = 4) -> list[PVal]:
    """All values of a finite type (naturals truncated below ``nat_bound``).

    Function types enumerate as finite tables, which is exact because the
    domain itself is finite.
    """
    t = normalize_ty(ty)
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
# Equality


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
    """Existential equality: both sides defined and (observably) equal.
    Pairs and injections are compared by a loop, left parts first."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if not a.defined() or not b.defined():
            return FALSE
        match (a, b):
            case (UnitV(), UnitV()):
                pass
            case (NatV(n), NatV(m)):
                if n != m:
                    return FALSE
            case (PairV(x, y), PairV(u, v)):
                todo += ((y, v), (x, u))
            case (InlV(x), InlV(y)) | (InrV(x), InrV(y)):
                todo.append((x, y))
            case (InlV(_), InrV(_)) | (InrV(_), InlV(_)):
                return FALSE
            case _ if _is_funlike(a) and _is_funlike(b):
                if not is_true(_eq_funlike(a, b, depth)):
                    return FALSE
            case _:
                raise IncomparableTypes(
                    f"cannot compare {type(a).__name__} with {type(b).__name__}"
                )
    return TRUE


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


class Term(Record):
    __slots__ = ()


class Var(Term):
    __slots__ = __match_args__ = ("name",)


class Lit(Term):
    __slots__ = __match_args__ = ("value",)


class Lam(Term):
    __slots__ = __match_args__ = ("param", "body")


class App(Term):
    __slots__ = __match_args__ = ("fn", "arg")


class PairE(Term):
    __slots__ = __match_args__ = ("fst", "snd")


class Ambiguous(Record):
    """What a bare name binds while several installed types bind it:
    evaluating the name raises ``AmbiguousName`` with ``message``."""

    __slots__ = __match_args__ = ("message",)


class Fuel:
    """Evaluation budget; strictly decreasing, exhaustion is a hard error."""

    __slots__ = ("steps",)

    def __init__(self, steps: int):
        self.steps = steps

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
    """Call-by-value evaluation of the five forms the parser builds;
    application to an undefined argument is undefined."""
    fuel.tick()
    match term:
        case Var(name):
            if name not in env:
                raise UnboundName(f"unbound name: {name!r}")
            v = env[name]
            if v.__class__ is Ambiguous:
                raise AmbiguousName(v.message)
            return v
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
        cls = type(item)  # dispatch by class test: a class pattern costs several times more
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


# Formulas as values: a formula is a partial constant on Unit; it holds iff
# application at () is defined.
TOP = finmap({UNIT: UNIT})
BOT = finmap({})


def holds(formula: PVal) -> bool:
    return apply_pval(formula, UNIT).defined()


def logical(b: bool) -> PVal:
    return TOP if b else BOT
