"""Declaration language: parsing, positivity, functor extraction, elaboration.

One declaration per line.  Free types install constructed initial
algebras, cotypes install constructed final coalgebras; parameterized
declarations are templates, monomorphized on explicit instantiation
with closed types.  Recursive occurrences must be exactly the declared
pattern; occurrences in the argument of a function arrow are negative,
and occurrences under unknown type constructors or (for free types)
under any arrow are unsupported rather than guessed at.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from . import initial as initial_mod
from . import final as final_mod
from .functors import (
    Const,
    ExpConst,
    Id,
    ProdF,
    SigFunctor,
    SumF,
    ExtPolyNF,
    PolyNF,
    ext_unvalue,
    inject,
    project,
    to_extpoly_nf,
    to_poly_nf,
)
from .kernel import (
    UNDEF,
    UNIT,
    AmbiguousName,  # noqa: F401  re-exported
    Bool,
    Named,
    Nat,
    NonEnumerableType,
    PairV,
    PVal,
    QuasiError,
    Record,
    Ty,
    TypeMismatch,
    Unit,
    Zero,
    apply_pval,
    fold_right,
    pfun,
    ty_card,
    tuple_of,
    untuple,
)
from .kernel import Prod as TyProd
from .kernel import Sum as TySum
from .kernel import Total as TyTotal
from . import kernel


class ParseError(QuasiError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class NegativeOccurrence(QuasiError):
    pass


class UnsupportedTypeFormer(QuasiError):
    pass


class DuplicateDeclaration(QuasiError):
    """A second declaration of a type name already declared, or a constructor
    or selector name repeated within one declaration."""


# ---------------------------------------------------------------------------
# Declarations: types are kernel ``Ty``, with every name a ``Named``


class Alt(Record):
    __slots__ = __match_args__ = ("name", "args")
    _defaults = {"args": ()}


class SelGroup(Record):
    __slots__ = __match_args__ = ("names", "partial", "codomain")


class Decl(Record):
    """A ``free type`` (kind "free", with ``alts``) or a ``cotype`` (kind
    "cotype", with ``coalts``)."""

    __slots__ = __match_args__ = ("kind", "name", "params", "alts", "coalts")
    _defaults = {"params": (), "alts": (), "coalts": ()}


class LetDef(Record):
    __slots__ = __match_args__ = ("name", "body")


# ---------------------------------------------------------------------------
# Lexer


_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<coloneq>::=)
      | (?P<arrow>->|→)
      | (?P<times>\*|×)
      | (?P<colonq>:\?)
      | (?P<nat>\d+)
      | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<lam>\\)
      | (?P<sym>[()\[\]|;,:+=.])
    """,
    re.VERBOSE,
)

KEYWORDS = {"free", "type", "cotype", "let"}


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _lex(source: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"bad character {source[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            tokens.append(Token("nl", text, line, col))
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(text)
        else:
            if kind == "sym":
                kind = text
            tokens.append(Token(kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


T = TypeVar("T")


class _Cursor:
    def __init__(self, tokens: list[Token], qualifiers: Iterable[str] = ()):
        self.tokens = tokens
        self.pos = 0
        # free type names T for which ``T.op`` reads as one name
        self.qualifiers = set(qualifiers)

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text!r}", t.line, t.col)
        return self.next()

    def at(self, *kinds: str) -> bool:
        return self.peek().kind in kinds

    def fail(self, message: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col)

    def separated(self, item: Callable[["_Cursor"], T], sep: str) -> list[T]:
        """``item (sep item)*``."""
        items = [item(self)]
        while self.at(sep):
            self.next()
            items.append(item(self))
        return items


# ---------------------------------------------------------------------------
# Type parsing: arrow < sum < product < atom, every binary former
# right-associative.  The parser and the printer share one precedence table.


_INFIX: dict[type, tuple[int, str]] = {
    TyTotal: (0, "->"),
    TySum: (1, "+"),
    SumF: (1, "+"),
    TyProd: (2, "*"),
    ProdF: (2, "*"),
}
_FORMER_OF_TOKEN = {"arrow": TyTotal, "+": TySum, "times": TyProd}


def _parse_ty(c: _Cursor, min_prec: int = 0) -> Ty:
    """Precedence climbing: the right operand of a former at precedence p
    takes every former at p or above, which makes them right-associative."""
    left = _parse_tyatom(c)
    while (former := _FORMER_OF_TOKEN.get(c.peek().kind)) and _INFIX[former][0] >= min_prec:
        c.next()
        left = former(left, _parse_ty(c, _INFIX[former][0]))
    return left


def _parse_tyatom(c: _Cursor) -> Ty:
    t = c.peek()
    if t.kind == "(":
        c.next()
        inner = _parse_ty(c)
        c.expect(")")
        return inner
    if t.kind == "name":
        # builtin type names resolve during elaboration, so a declaration
        # may shadow them (a user type named Nat must still recurse on itself)
        c.next()
        if c.at("["):
            c.next()
            args = c.separated(_parse_ty, ",")
            c.expect("]")
        else:  # juxtaposed arguments: Tree a b, List (Tree a b)
            args = []
            while (c.at("name") and c.peek().text not in KEYWORDS) or c.at("("):
                args.append(_parse_tyatom(c) if c.at("(") else Named(c.next().text))
        return Named(t.text, tuple(args))
    c.fail("expected a type expression")


# ---------------------------------------------------------------------------
# Declaration parsing


def parse(source: str) -> list[Decl | LetDef]:
    """Parse a declaration file: one declaration per line."""
    out: list[Decl | LetDef] = []
    c = _Cursor(_lex(source))
    while not c.at("eof"):
        if c.at("nl"):
            c.next()
            continue
        tok = c.peek()
        if tok.kind == "name" and tok.text in ("free", "cotype"):
            d = _parse_freetype(c) if tok.text == "free" else _parse_cotype(c)
            if not d.params:
                c.qualifiers.add(d.name)
            out.append(d)
        elif tok.kind == "name" and tok.text == "let":
            out.append(_parse_letdef(c))
        else:
            c.fail("expected a declaration")
        if not c.at("eof"):
            c.expect("nl")
    return out


def _expect_keyword(c: _Cursor, word: str):
    t = c.peek()
    if t.kind != "name" or t.text != word:
        raise ParseError(f"expected {word!r}", t.line, t.col)
    c.next()


def _parse_decl_head(c: _Cursor) -> tuple[str, tuple[str, ...]]:
    name = c.expect("name").text
    params = []
    while c.at("name"):
        params.append(c.next().text)
    c.expect("coloneq")
    return name, tuple(params)


def _parse_freetype(c: _Cursor) -> Decl:
    _expect_keyword(c, "free")
    _expect_keyword(c, "type")
    name, params = _parse_decl_head(c)
    return Decl("free", name, params, alts=tuple(c.separated(_parse_alt, "|")))


def _parse_alt(c: _Cursor) -> Alt:
    t = c.peek()
    if t.kind == "nat":
        ctor = c.next().text
    else:
        ctor = c.expect("name").text
    if c.at("("):
        c.next()
        args = c.separated(_parse_ty, ";")
        c.expect(")")
    else:
        args = []
        # unparenthesized display form: each argument is a single name
        while c.at("name") and c.peek().text not in KEYWORDS:
            args.append(Named(c.next().text))
    return Alt(ctor, tuple(args))


def _parse_cotype(c: _Cursor) -> Decl:
    _expect_keyword(c, "cotype")
    name, params = _parse_decl_head(c)
    return Decl("cotype", name, params, coalts=tuple(c.separated(_parse_coalt, "|")))


def _parse_coalt(c: _Cursor) -> tuple[SelGroup, ...]:
    c.expect("(")
    groups = c.separated(_parse_selgroup, ";")
    c.expect(")")
    return tuple(groups)


def _parse_selgroup(c: _Cursor) -> SelGroup:
    names = c.separated(lambda c: c.expect("name").text, ",")
    if c.at("colonq"):
        c.next()
        partial = True
    else:
        c.expect(":")
        partial = False
    return SelGroup(tuple(names), partial, _parse_ty(c))


def _parse_letdef(c: _Cursor) -> LetDef:
    _expect_keyword(c, "let")
    name = c.expect("name").text
    c.expect("=")
    return LetDef(name, _parse_expr(c))


# ---------------------------------------------------------------------------
# Expression parsing (for let bindings and the CLI evaluator)


def parse_expr(source: str, qualifiers: Iterable[str] = ()) -> kernel.Term:
    """Parse an expression; ``T.op`` and ``T.0`` are one name for each T in
    ``qualifiers``."""
    c = _Cursor(_lex(source), qualifiers)
    term = _parse_expr(c)
    if not c.at("eof", "nl"):
        c.fail("trailing input after expression")
    return term


def _parse_expr(c: _Cursor) -> kernel.Term:
    """A left-nested application of atoms; a lambda extends to the end.

    Atoms are read here rather than in a helper of their own, so each level
    of bracket nesting takes two Python frames (this and ``separated``)."""
    parts: list[kernel.Term] = []
    while not parts or c.at("name", "nat", "(", "[", "lam"):
        t = c.next()
        if t.kind == "lam":
            param = c.expect("name").text
            c.expect(".")
            parts.append(kernel.Lam(param, _parse_expr(c)))
            break
        if t.kind == "nat":
            parts.append(kernel.Lit(kernel.nat(int(t.text))))
        elif t.kind == "name":
            if t.text in c.qualifiers and c.at(".") and c.tokens[c.pos + 1].kind in ("name", "nat"):
                c.next()
                parts.append(kernel.Var(f"{t.text}.{c.next().text}"))
            else:
                parts.append(kernel.Var(t.text))
        elif t.kind in ("(", "["):
            close = ")" if t.kind == "(" else "]"
            items = [] if c.at(close) else c.separated(_parse_expr, ",")
            c.expect(close)
            if t.kind == "(":  # () is unit, (e) is e, and tuples nest to the right
                parts.append(fold_right(kernel.PairE, kernel.Lit(UNIT), items))
            else:  # [a, b] is cons a (cons b nil)
                term: kernel.Term = kernel.Var("nil")
                for item in reversed(items):
                    term = kernel.App(kernel.App(kernel.Var("cons"), item), term)
                parts.append(term)
        else:
            raise ParseError("expected an expression", t.line, t.col)
    term = parts[0]
    for p in parts[1:]:
        term = kernel.App(term, p)
    return term


# ---------------------------------------------------------------------------
# Pretty-printing


def pretty_ty(t: Ty | SigFunctor) -> str:
    """Print a type, or a functor with X for its recursion variable.

    By ``_INFIX``, a left operand is parenthesised when it binds no tighter
    than its former, and a right operand when it binds looser; atoms (3)
    bind tighter than every former."""
    match t:
        case Unit() | Nat() | Bool() | Zero():
            return type(t).__name__
        case Named(name, args):
            return f"{name}[{', '.join(map(pretty_ty, args))}]" if args else name
        case Id():
            return "X"
        case ExpConst(b, _):
            return f"({pretty_ty(b)} -> X)"
        case Const(ty):
            # composite constants must not merge with functor-level sums
            # and products when the expression is read back
            return f"({pretty_ty(ty)})" if type(ty) in _INFIX else pretty_ty(ty)
        case TySum(l, r) | TyProd(l, r) | TyTotal(l, r) | SumF(l, r) | ProdF(l, r):
            prec, op = _INFIX[type(t)]
            left, right = (
                f"({pretty_ty(x)})" if _INFIX.get(type(x), (3,))[0] < bound else pretty_ty(x)
                for x, bound in ((l, prec + 1), (r, prec))
            )
            return f"{left} {op} {right}"
    raise TypeMismatch(f"unprintable type {t!r}")


# ---------------------------------------------------------------------------
# Positivity


def _pattern_of(d: Decl) -> Named:
    return Named(d.name, tuple(Named(p) for p in d.params))


def _mentions_name(t: Ty, name: str) -> bool:
    match t:
        case Named(n, args):
            return n == name or any(_mentions_name(a, name) for a in args)
        case TySum(l, r) | TyProd(l, r) | TyTotal(l, r):
            return _mentions_name(l, name) or _mentions_name(r, name)
    return False


def check_positivity(d: Decl) -> None:
    """Reject recursive occurrences in the argument type of any function arrow."""
    if d.kind == "free":
        for alt in d.alts:
            for idx, arg in enumerate(alt.args):
                _positivity_walk(arg, d, f"constructor {alt.name}, argument {idx + 1}")
    else:
        for alt_idx, alt in enumerate(d.coalts):
            for g in alt:
                _positivity_walk(
                    g.codomain, d, f"alternative {alt_idx + 1}, selector {g.names[0]}"
                )


def _positivity_walk(t: Ty, d: Decl, where: str) -> None:
    match t:
        case TyTotal(arg, res):
            if _mentions_name(arg, d.name):
                raise NegativeOccurrence(
                    f"{d.name} occurs in a function argument at {where}"
                )
            _positivity_walk(res, d, where)
        case TySum(l, r) | TyProd(l, r):
            _positivity_walk(l, d, where)
            _positivity_walk(r, d, where)


# ---------------------------------------------------------------------------
# Resolution of builtin type names, and substitution of type parameters


_BUILTIN_TYPES = {"Unit": Unit(), "Nat": Nat(), "Bool": Bool(), "Zero": Zero()}


def resolve_ty(t: Ty) -> Ty:
    """Resolve builtin names in a closed type; other names stay ``Named``,
    and atoms that are already kernel types pass through."""
    match t:
        case Named(name, ()):
            return _BUILTIN_TYPES.get(name, t)
        case Named(name, _):
            raise UnsupportedTypeFormer(
                f"type constructor {name!r} cannot appear in a constant position"
            )
        case TySum(l, r) | TyProd(l, r) | TyTotal(l, r):
            return type(t)(resolve_ty(l), resolve_ty(r))
    return t


def _substitute(t: Ty, subst: Optional[dict[str, Ty]]) -> Ty:
    if not subst:
        return t
    match t:
        case Named(name, ()) if name in subst:
            return subst[name]
        case Named(name, args):
            return Named(name, tuple(_substitute(a, subst) for a in args))
        case TySum(l, r) | TyProd(l, r) | TyTotal(l, r):
            return type(t)(_substitute(l, subst), _substitute(r, subst))
    return t


# ---------------------------------------------------------------------------
# Functor extraction


def extract_functor(d: Decl, subst: Optional[dict[str, Ty]] = None) -> SigFunctor:
    """Sum over constructors (sel);  products over argument functors."""
    return _sum_of_products(_field_functors(d, subst))


def _sum_of_products(alts: list[list[SigFunctor]]) -> SigFunctor:
    return fold_right(SumF, Const(Zero()), [fold_right(ProdF, Const(Unit()), fs) for fs in alts])


def _field_functors(d: Decl, subst: Optional[dict[str, Ty]]) -> list[list[SigFunctor]]:
    """Per alternative, the functor of each constructor argument, or of each
    selector's codomain (a group ``a, b: T`` gives one per name)."""
    if d.kind == "free":
        fields = [alt.args for alt in d.alts]
    else:
        fields = [[g.codomain for g in alt for _ in g.names] for alt in d.coalts]
    pattern = _substitute(_pattern_of(d), subst)
    return [[_functor_of(_substitute(t, subst), pattern, d.kind) for t in fs] for fs in fields]


def _functor_of(t: Ty, pattern: Named, kind: str) -> SigFunctor:
    """Read ``t`` as a functor whose recursion variable is ``pattern``; in a
    cotype (``kind``), ``B -> pattern`` is an exponential."""
    name = pattern.name
    if not _mentions_name(t, name):
        return Const(resolve_ty(t))
    if t == pattern:
        return Id()
    match t:
        case TySum(l, r):
            return SumF(_functor_of(l, pattern, kind), _functor_of(r, pattern, kind))
        case TyProd(l, r):
            return ProdF(_functor_of(l, pattern, kind), _functor_of(r, pattern, kind))
        case TyTotal(a, r):
            if kind == "free":
                raise UnsupportedTypeFormer(
                    f"{name}: recursion under a function arrow is not a polynomial "
                    "position (infinite branching is unsupported)"
                )
            if r != pattern:
                raise UnsupportedTypeFormer(
                    f"{name}: exponential selector bodies must be the declared pattern"
                )
            if _mentions_name(a, name):
                raise UnsupportedTypeFormer(f"{name}: an exponent must not mention {name}")
            return ExpConst(resolve_ty(a), Id())
    # a Named that mentions the pattern's name but is not the pattern
    raise UnsupportedTypeFormer(
        f"{name}: recursive occurrence under type constructor {t.name!r} "
        "is the user's responsibility and is rejected"
    )


# ---------------------------------------------------------------------------
# Elaboration


class CtorInfo(Record):
    """A constructor: its summand, and for a nullary one (summand 0) its
    injection ``const_index`` into the collected-constants sum; the kinds
    of its arguments in declaration order ("const" | "rec") and the
    resolved types of the constant ones."""

    __slots__ = __match_args__ = ("name", "summand", "const_index", "arg_kinds", "const_tys")


class SelInfo(Record):
    """A selector of alternative ``alt``, of kind "const" | "rec" | "fn": its
    position among the alternative's constant or recursive selectors, and
    the exponent of a function selector."""

    __slots__ = __match_args__ = ("name", "alt", "kind", "const_pos", "rec_pos", "exponent")
    _defaults = {"const_pos": -1, "rec_pos": -1, "exponent": None}


class FreeTypeInfo(Record):
    __slots__ = __match_args__ = (
        "decl", "display", "functor", "nf", "handle", "ctors", "n_consts"
    )

    def ctor(self, name: str) -> CtorInfo:
        for c in self.ctors:
            if c.name == name:
                return c
        raise kernel.UnboundName(f"no constructor {name!r}")

    # ---- value construction -------------------------------------------------

    def make(self, name: str, args: Sequence[PVal]) -> PVal:
        info = self.ctor(name)
        if len(args) != len(info.arg_kinds):
            raise TypeMismatch(
                f"{name} expects {len(info.arg_kinds)} arguments, got {len(args)}"
            )
        consts = [a for a, k in zip(args, info.arg_kinds) if k == "const"]
        recs = [a for a, k in zip(args, info.arg_kinds) if k == "rec"]
        param = _build_param(info.const_tys, consts)
        if info.summand == 0 and self.n_consts > 1:
            param = inject(info.const_index, self.n_consts, param)
        return self.handle.construct(info.summand, param, recs)

    def split_args(self, info: CtorInfo, param: PVal, children: Sequence[PVal]):
        """Recover declaration-order constructor arguments from a summand payload."""
        if info.summand == 0 and self.n_consts > 1:
            _, param = project(param, self.n_consts)
        consts = _split_param(info.const_tys, param)
        out, ci, ri = [], 0, 0
        for kind in info.arg_kinds:
            if kind == "const":
                out.append(consts[ci])
                ci += 1
            else:
                out.append(children[ri])
                ri += 1
        return out

    def ctor_position(self, summand: int, param: PVal) -> int:
        """The declaration-order index of the constructor behind summand's payload."""
        if summand == 0 and self.n_consts > 1:
            idx, _ = project(param, self.n_consts)
            return next(
                k for k, c in enumerate(self.ctors) if c.summand == 0 and c.const_index == idx
            )
        return next(k for k, c in enumerate(self.ctors) if c.summand == summand)

    # ---- recursion schemes keyed by constructor ------------------------------

    def _run_branch(self, branches, i: int, w: PVal, rec, spread: bool = False) -> PVal:
        """Apply the branch of the constructor behind summand i's payload ``w``
        to its declaration-order arguments, ``rec`` filling the recursive
        positions; with ``spread``, each ``rec`` entry is a tuple of arguments."""
        pos = self.ctor_position(i, w)
        info = self.ctors[pos]
        args = self.split_args(info, w, rec)
        if spread:
            args = [
                x for k, a in zip(info.arg_kinds, args) for x in (a if k == "rec" else (a,))
            ]
        return _apply_branch(branches[pos], args)

    def fold(self, branches: Sequence[PVal | Callable], t: PVal) -> PVal:
        """Per-constructor fold: each branch consumes the constructor's
        arguments (recursive ones replaced by recursive results)."""
        algebra = [
            lambda w, results, _i=i: self._run_branch(branches, _i, w, results)
            for i in range(self.handle.n)
        ]
        return self.handle.fold(algebra, t)

    def case(self, branches: Sequence[PVal | Callable], t: PVal) -> PVal:
        if not t.defined():
            return UNDEF
        return self._run_branch(branches, *self.handle.destruct(t))

    def primrec(self, branches: Sequence[PVal | Callable], t: PVal) -> PVal:
        """Per-constructor primitive recursion: recursive arguments contribute
        the subtree and then the recursive result."""
        body = [
            lambda w, pairs, _i=i: self._run_branch(branches, _i, w, pairs, spread=True)
            for i in range(self.handle.n)
        ]
        return self.handle.primrec(body)(t)


class CotypeInfo(Record):
    __slots__ = __match_args__ = (
        "decl", "display", "functor", "nf", "handle", "sels", "alt_const_tys", "alt_rec_count"
    )

    def sel(self, name: str) -> SelInfo:
        for s in self.sels:
            if s.name == name:
                return s
        raise kernel.UnboundName(f"no selector {name!r}")

    def select(self, name: str, tree: PVal) -> PVal:
        """Apply a selector; undefined off its alternative's domain."""
        info = self.sel(name)
        root = self.handle.observe(tree, ())
        if not root.defined():
            return UNDEF
        tag, param = project(root, self.handle.n)
        if tag != info.alt:
            return UNDEF
        if info.kind == "const":
            return _split_param(self.alt_const_tys[info.alt], param)[info.const_pos]
        n_rec = self.alt_rec_count[info.alt]
        if info.kind == "rec":
            label = inject(info.alt, self.handle.n, inject(info.rec_pos, n_rec, UNIT))
            return final_mod.subtree(tree, label)
        # fn selector: a total function from the exponent into the cotype
        def at(y: PVal, _i=info) -> PVal:
            label = inject(_i.alt, self.handle.n, inject(_i.rec_pos, n_rec, y))
            return final_mod.subtree(tree, label)

        return pfun(at, dom=info.exponent)


def _build_param(tys: tuple[Ty, ...], values: Sequence[PVal]) -> PVal:
    # Unit factors are elided by normalization; skip them when packing
    return tuple_of([v for t, v in zip(tys, values) if type(t) is not Unit])


def _split_param(tys: tuple[Ty, ...], param: PVal) -> list[PVal]:
    parts = iter(untuple(param, sum(type(t) is not Unit for t in tys)))
    return [UNIT if type(t) is Unit else next(parts) for t in tys]


def _apply_branch(branch: PVal | Callable, args: Sequence[PVal]) -> PVal:
    if callable(branch) and not isinstance(branch, PVal):
        return branch(*args)
    out = branch
    for a in args:
        out = apply_pval(out, a)
    return out


class ElabEnv:
    """Installed datatypes and process types, plus term-level bindings;
    each ``let`` is evaluated with a budget of ``fuel_steps``."""

    def __init__(self, fuel_steps: int = 100000):
        self.fuel_steps = fuel_steps
        self.freetypes: dict[str, FreeTypeInfo] = {}
        self.cotypes: dict[str, CotypeInfo] = {}
        self.templates: dict[str, Decl] = {}
        self.terms: dict[str, PVal] = base_builtins()

    def declare(self, d: Decl | LetDef) -> str:
        """Elaborate one declaration: bind a ``let``, register a template or
        install a type.  Returns what ``elaborate`` prints for it: the
        normal form over X of a type, or "term binding"."""
        if isinstance(d, LetDef):
            self.terms[d.name] = kernel.eval_term(d.body, self.terms, kernel.Fuel(self.fuel_steps))
            return "term binding"
        if d.name in self.templates or d.name in self.freetypes or d.name in self.cotypes:
            raise DuplicateDeclaration(f"duplicate declaration {d.name!r}")
        # a repeated name would only ever reach its first constructor or selector
        names = [a.name for a in d.alts] + [n for alt in d.coalts for g in alt for n in g.names]
        for i, n in enumerate(names):
            if n in names[:i]:
                what = "constructor" if d.kind == "free" else "selector"
                raise DuplicateDeclaration(f"duplicate {what} {n!r} in {d.name}")
        if d.params:
            check_positivity(d)
            functor = extract_functor(d)
            nf = to_poly_nf(functor) if d.kind == "free" else to_extpoly_nf(functor)
            self.templates[d.name] = d
        else:
            nf = self._install(d, None, d.name).nf
        return pretty_ty(nf_to_sig(nf))

    def instantiate(self, name: str, ty_args: Sequence[Ty]) -> FreeTypeInfo | CotypeInfo:
        if name not in self.templates:
            raise kernel.UnboundName(f"no parameterized declaration {name!r}")
        d = self.templates[name]
        if len(ty_args) != len(d.params):
            raise TypeMismatch(f"{name} expects {len(d.params)} type arguments")
        display = pretty_ty(Named(name, tuple(ty_args)))
        if display in self.freetypes:
            return self.freetypes[display]
        if display in self.cotypes:
            return self.cotypes[display]
        subst = dict(zip(d.params, ty_args))
        return self._install(d, subst, display)

    def _install(self, d: Decl, subst: Optional[dict[str, Ty]], display: str):
        check_positivity(d)
        fields = _field_functors(d, subst)
        if d.kind == "free":
            info = _elaborate_freetype(d, fields, display)
            self.freetypes[display] = info
            self._bind_freetype_terms(info)
            return info
        info = _elaborate_cotype(d, fields, display)
        self.cotypes[display] = info
        self._bind_cotype_terms(info)
        return info

    def _bind_freetype_terms(self, info: FreeTypeInfo):
        """Bind each constructor ``c`` as ``T.c``, and as ``c`` while one free
        type declares it: a constructor named by digits (``Nat2.0``) is
        reachable only qualified."""
        for c in info.ctors:
            make = _curried(lambda args, _i=info, _n=c.name: _i.make(_n, args), len(c.arg_kinds))
            owners = [d for d, t in self.freetypes.items() if any(x.name == c.name for x in t.ctors)]
            self._bind_shared(c.name, info.display, make, owners, "free types declaring it")
        n = len(info.ctors)
        for op, run in (("fold", info.fold), ("case", info.case), ("primrec", info.primrec)):
            scheme = _curried(lambda args, _run=run: _run(args[:-1], args[-1]), n + 1)
            self._bind_shared(op, info.display, scheme, list(self.freetypes), "free types installed")

    def _bind_cotype_terms(self, info: CotypeInfo):
        for s in info.sels:
            self.terms[s.name] = pfun(
                lambda t, _i=info, _n=s.name: _i.select(_n, t)
            )

        def run_unfold(args, _i=info):
            coalg, seed = args

            def d(z):
                i, x, fn = ext_unvalue(_i.nf, apply_pval(coalg, z))
                return i, x, lambda y: apply_pval(fn, y)

            return _i.handle.unfold(d, seed)

        unfold = _curried(run_unfold, 2)
        self._bind_shared("unfold", info.display, unfold, list(self.cotypes), "cotypes installed")

    def _bind_shared(self, name: str, display: str, value: PVal, owners: list[str], kinds: str):
        """Bind ``display.name``, and the bare ``name`` while one of ``owners``
        binds it; with more, evaluating the bare name fails naming each."""
        self.terms[f"{display}.{name}"] = value
        if len(owners) == 1:
            self.terms[name] = value
        else:
            forms = " or ".join(f"{d}.{name}" for d in owners)
            self.terms[name] = kernel.Ambiguous(
                f"{name!r} is ambiguous with {len(owners)} {kinds}: write {forms}"
            )


def _curried(fn: Callable[[list[PVal]], PVal], arity: int) -> PVal:
    def collect(acc: list[PVal]) -> PVal:
        if len(acc) == arity:
            return fn(acc)
        return pfun(lambda x, _a=acc: collect(_a + [x]))

    out = collect([])
    return out


def _elaborate_freetype(d: Decl, fields: list[list[SigFunctor]], display: str) -> FreeTypeInfo:
    functor = _sum_of_products(fields)
    nf = to_poly_nf(functor)
    ctors: list[CtorInfo] = []
    n_consts = 0
    next_summand = 1
    param_names = set(d.params)
    shape: list[list[list[bool]]] = [[] for _ in nf.summands]
    for alt, fs in zip(d.alts, fields):
        kinds, const_tys, const_is_var = [], [], []
        for arg, f in zip(alt.args, fs):
            if isinstance(f, Const):
                kinds.append("const")
                const_tys.append(f.ty)
                const_is_var.append(isinstance(arg, Named) and arg.name in param_names)
            else:
                kinds.append("rec")
        flags = [v for t, v in zip(const_tys, const_is_var) if type(t) is not Unit]
        if "rec" not in kinds:
            ctors.append(CtorInfo(alt.name, 0, n_consts, tuple(kinds), tuple(const_tys)))
            shape[0].append(flags)
            n_consts += 1
        else:
            ctors.append(
                CtorInfo(alt.name, next_summand, -1, tuple(kinds), tuple(const_tys))
            )
            shape[next_summand].append(flags)
            next_summand += 1
    handle = initial_mod.InitialAlgebra(nf, param_shape=shape)
    return FreeTypeInfo(d, display, functor, nf, handle, ctors, n_consts)


def _elaborate_cotype(d: Decl, fields: list[list[SigFunctor]], display: str) -> CotypeInfo:
    """Classify each selector, then build the coalgebra: an unsupported
    codomain or an exponent that is not finite fails naming its selector."""
    sels: list[SelInfo] = []
    alt_const_tys: list[tuple[Ty, ...]] = []
    alt_rec_count: list[int] = []
    for alt_idx, (alt, fs) in enumerate(zip(d.coalts, fields)):
        const_tys: list[Ty] = []
        n_rec = 0
        for name, f in zip((n for g in alt for n in g.names), fs):
            match f:
                case Const(ty):
                    sels.append(SelInfo(name, alt_idx, "const", const_pos=len(const_tys)))
                    const_tys.append(ty)
                case Id():
                    sels.append(SelInfo(name, alt_idx, "rec", rec_pos=n_rec))
                    n_rec += 1
                case ExpConst(b, _):
                    try:
                        ty_card(b)
                    except NonEnumerableType:
                        raise final_mod.NonEnumerableExponent(
                            f"{d.name}: selector {name} has an exponent that is not finite: "
                            f"{pretty_ty(b)}"
                        ) from None
                    sels.append(SelInfo(name, alt_idx, "fn", rec_pos=n_rec, exponent=b))
                    n_rec += 1
                case _:
                    raise UnsupportedTypeFormer(
                        f"{d.name}: selector {name} has an unsupported codomain"
                    )
        alt_const_tys.append(tuple(const_tys))
        alt_rec_count.append(n_rec)
    functor = _sum_of_products(fields)
    nf = to_extpoly_nf(functor)
    handle = final_mod.FinalCoalgebra(nf)
    return CotypeInfo(d, display, functor, nf, handle, sels, alt_const_tys, alt_rec_count)


def elaborate(decls: Sequence[Decl | LetDef], fuel_steps: int = 100000) -> ElabEnv:
    """Declare every declaration in order; templates wait for explicit
    instantiation."""
    env = ElabEnv(fuel_steps)
    for d in decls:
        env.declare(d)
    return env


def base_builtins() -> dict[str, PVal]:
    from .functors import bot

    def nat_of(name: str, v: PVal) -> int:
        if type(v) is not kernel.NatV:
            raise TypeMismatch(f"{name} expects a natural, got {kernel.show_pval(v)}")
        return v.n

    def nat_op(name, f):
        return pfun(lambda a: pfun(lambda b, m=nat_of(name, a): kernel.nat(f(m, nat_of(name, b)))))

    return {
        "true": kernel.TRUE,
        "false": kernel.FALSE,
        "suc": pfun(lambda v: kernel.nat(nat_of("suc", v) + 1)),
        "pred": pfun(lambda v: kernel.nat(max(nat_of("pred", v) - 1, 0))),
        "plus": nat_op("plus", lambda a, b: a + b),
        "times": nat_op("times", lambda a, b: a * b),
        "inl": pfun(kernel.inl),
        "inr": pfun(kernel.inr),
        "fst": pfun(lambda v: v.fst if isinstance(v, PairV) else UNDEF),
        "snd": pfun(lambda v: v.snd if isinstance(v, PairV) else UNDEF),
        "id": pfun(lambda v: v),
        "bot": bot(),
    }


# ---------------------------------------------------------------------------
# Normal forms as functor expressions over X


def parse_functor(source: str) -> SigFunctor:
    """Parse a functor expression in which X marks the recursion variable."""
    c = _Cursor(_lex(source))
    t = _parse_ty(c)
    if not c.at("eof", "nl"):
        c.fail("trailing input after functor expression")
    return _functor_of(t, Named("X"), "cotype")


def nf_to_sig(nf) -> SigFunctor:
    """Canonical functor embedding of a normal form, for display."""
    if isinstance(nf, PolyNF):
        parts = []
        for a, k in nf.summands:
            if k == 0:
                parts.append(Const(a))
            else:
                xs: SigFunctor = Id()
                for _ in range(k - 1):
                    xs = ProdF(Id(), xs)
                parts.append(ProdF(Const(a), xs))
        return fold_right(SumF, Const(Zero()), parts)
    if isinstance(nf, ExtPolyNF):
        parts = [ProdF(Const(a), ExpConst(b, Id())) for a, b in nf.summands]
        return fold_right(SumF, Const(Zero()), parts)
    raise TypeMismatch(f"not a normal form: {nf!r}")
