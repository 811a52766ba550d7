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
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

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
    Bool,
    Named,
    Nat,
    PairV,
    PVal,
    QuasiError,
    Ty,
    TypeMismatch,
    Unit,
    Zero,
    apply_pval,
    fold_right,
    pfun,
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


class AmbiguousName(QuasiError):
    """An unqualified recursion scheme with several free types (or, for
    ``unfold``, several cotypes) installed."""


# ---------------------------------------------------------------------------
# Surface type expressions


class TyExpr:
    __slots__ = ()


@dataclass(frozen=True)
class TName(TyExpr):
    name: str
    args: tuple[TyExpr, ...] = ()


@dataclass(frozen=True)
class TUnit(TyExpr):
    pass


@dataclass(frozen=True)
class TNat(TyExpr):
    pass


@dataclass(frozen=True)
class TBool(TyExpr):
    pass


@dataclass(frozen=True)
class TZero(TyExpr):
    pass


@dataclass(frozen=True)
class TSum(TyExpr):
    left: TyExpr
    right: TyExpr


@dataclass(frozen=True)
class TProd(TyExpr):
    left: TyExpr
    right: TyExpr


@dataclass(frozen=True)
class TArrow(TyExpr):
    arg: TyExpr
    res: TyExpr


@dataclass(frozen=True)
class Alt:
    name: str
    args: tuple[TyExpr, ...] = ()


@dataclass(frozen=True)
class SelGroup:
    names: tuple[str, ...]
    partial: bool
    codomain: TyExpr


@dataclass(frozen=True)
class Decl:
    kind: str  # "free" | "cotype"
    name: str
    params: tuple[str, ...] = ()
    alts: tuple[Alt, ...] = ()
    coalts: tuple[tuple[SelGroup, ...], ...] = ()


@dataclass(frozen=True)
class LetDef:
    name: str
    body: "kernel.Term"


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


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


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


# ---------------------------------------------------------------------------
# Type expression parsing: arrow < sum < product < atom, arrows right-associative


def _parse_tyexpr(c: _Cursor) -> TyExpr:
    left = _parse_tysum(c)
    if c.at("arrow"):
        c.next()
        return TArrow(left, _parse_tyexpr(c))
    return left


def _parse_tysum(c: _Cursor) -> TyExpr:
    left = _parse_typrod(c)
    if c.at("+"):
        c.next()
        return TSum(left, _parse_tysum(c))
    return left


def _parse_typrod(c: _Cursor) -> TyExpr:
    left = _parse_tyatom(c)
    if c.at("times"):
        c.next()
        return TProd(left, _parse_typrod(c))
    return left


def _parse_tyatom(c: _Cursor) -> TyExpr:
    t = c.peek()
    if t.kind == "(":
        c.next()
        inner = _parse_tyexpr(c)
        c.expect(")")
        return inner
    if t.kind == "name":
        # builtin type names resolve during elaboration, so a declaration
        # may shadow them (a user type named Nat must still recurse on itself)
        c.next()
        args: list[TyExpr] = []
        if c.at("["):
            c.next()
            args.append(_parse_tyexpr(c))
            while c.at(","):
                c.next()
                args.append(_parse_tyexpr(c))
            c.expect("]")
            return TName(t.text, tuple(args))
        # juxtaposed arguments: Tree a b, List (Tree a b)
        while (c.at("name") and c.peek().text not in KEYWORDS) or c.at("("):
            if c.at("("):
                c.next()
                args.append(_parse_tyexpr(c))
                c.expect(")")
            else:
                args.append(TName(c.next().text))
        return TName(t.text, tuple(args))
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
    alts = [_parse_alt(c)]
    while c.at("|"):
        c.next()
        alts.append(_parse_alt(c))
    return Decl("free", name, params, alts=tuple(alts))


def _parse_alt(c: _Cursor) -> Alt:
    t = c.peek()
    if t.kind == "nat":
        ctor = c.next().text
    else:
        ctor = c.expect("name").text
    args: list[TyExpr] = []
    if c.at("("):
        c.next()
        args.append(_parse_tyexpr(c))
        while c.at(";"):
            c.next()
            args.append(_parse_tyexpr(c))
        c.expect(")")
    else:
        # unparenthesized display form: each argument is a single name
        while c.at("name") and c.peek().text not in KEYWORDS:
            args.append(TName(c.next().text))
    return Alt(ctor, tuple(args))


def _parse_cotype(c: _Cursor) -> Decl:
    _expect_keyword(c, "cotype")
    name, params = _parse_decl_head(c)
    coalts = [_parse_coalt(c)]
    while c.at("|"):
        c.next()
        coalts.append(_parse_coalt(c))
    return Decl("cotype", name, params, coalts=tuple(coalts))


def _parse_coalt(c: _Cursor) -> tuple[SelGroup, ...]:
    c.expect("(")
    groups = [_parse_selgroup(c)]
    while c.at(";"):
        c.next()
        groups.append(_parse_selgroup(c))
    c.expect(")")
    return tuple(groups)


def _parse_selgroup(c: _Cursor) -> SelGroup:
    names = [c.expect("name").text]
    while c.at(","):
        c.next()
        names.append(c.expect("name").text)
    if c.at("colonq"):
        c.next()
        partial = True
    else:
        c.expect(":")
        partial = False
    return SelGroup(tuple(names), partial, _parse_tyexpr(c))


def _parse_letdef(c: _Cursor) -> LetDef:
    _expect_keyword(c, "let")
    name = c.expect("name").text
    c.expect("=")
    return LetDef(name, _parse_expr(c))


# ---------------------------------------------------------------------------
# Expression parsing (for let bindings and the CLI evaluator)


def parse_expr(source: str, qualifiers: Iterable[str] = ()) -> kernel.Term:
    """Parse an expression; ``T.op`` is one name for each T in ``qualifiers``."""
    c = _Cursor(_lex(source), qualifiers)
    term = _parse_expr(c)
    if not c.at("eof", "nl"):
        c.fail("trailing input after expression")
    return term


def _parse_expr(c: _Cursor) -> kernel.Term:
    if c.at("lam"):
        c.next()
        param = c.expect("name").text
        c.expect(".")
        return kernel.Lam(param, _parse_expr(c))
    parts = [_parse_expr_atom(c)]
    while c.at("name", "nat", "(", "[", "lam"):
        if c.at("lam"):
            parts.append(_parse_expr(c))
            break
        parts.append(_parse_expr_atom(c))
    term = parts[0]
    for p in parts[1:]:
        term = kernel.App(term, p)
    return term


def _parse_expr_atom(c: _Cursor) -> kernel.Term:
    t = c.peek()
    if t.kind == "nat":
        c.next()
        return kernel.Lit(kernel.nat(int(t.text)))
    if t.kind == "name":
        c.next()
        if t.text in c.qualifiers and c.at(".") and c.tokens[c.pos + 1].kind == "name":
            c.next()
            return kernel.Var(f"{t.text}.{c.next().text}")
        return kernel.Var(t.text)
    if t.kind == "(":
        c.next()
        if c.at(")"):
            c.next()
            return kernel.Lit(UNIT)
        inner = [_parse_expr(c)]
        while c.at(","):
            c.next()
            inner.append(_parse_expr(c))
        c.expect(")")
        term = inner[-1]
        for p in reversed(inner[:-1]):
            term = kernel.PairE(p, term)
        return term
    if t.kind == "[":
        c.next()
        items = []
        if not c.at("]"):
            items.append(_parse_expr(c))
            while c.at(","):
                c.next()
                items.append(_parse_expr(c))
        c.expect("]")
        term: kernel.Term = kernel.Var("nil")
        for item in reversed(items):
            term = kernel.App(kernel.App(kernel.Var("cons"), item), term)
        return term
    c.fail("expected an expression")


# ---------------------------------------------------------------------------
# Pretty-printing


def pretty_ty(t: TyExpr) -> str:
    match t:
        case TUnit():
            return "Unit"
        case TNat():
            return "Nat"
        case TBool():
            return "Bool"
        case TZero():
            return "Zero"
        case TName(name, args):
            if not args:
                return name
            return f"{name}[{', '.join(pretty_ty(a) for a in args)}]"
        case TSum(l, r):
            return f"{_paren(l, (TArrow, TSum))} + {_paren(r, (TArrow,))}"
        case TProd(l, r):
            return f"{_paren(l, (TArrow, TSum, TProd))} * {_paren(r, (TArrow, TSum))}"
        case TArrow(a, r):
            return f"{_paren(a, (TArrow,))} -> {pretty_ty(r)}"
    raise TypeMismatch(f"unknown type expression {t!r}")


def _paren(t: TyExpr, wrap: tuple) -> str:
    s = pretty_ty(t)
    return f"({s})" if isinstance(t, wrap) else s


def pretty_decl(d: Decl) -> str:
    head = " ".join([d.name, *d.params])
    if d.kind == "free":
        alts = " | ".join(
            a.name + (f"({'; '.join(pretty_ty(t) for t in a.args)})" if a.args else "")
            for a in d.alts
        )
        return f"free type {head} ::= {alts}"
    coalts = " | ".join(
        "("
        + "; ".join(
            f"{', '.join(g.names)}{':?' if g.partial else ':'} {pretty_ty(g.codomain)}"
            for g in alt
        )
        + ")"
        for alt in d.coalts
    )
    return f"cotype {head} ::= {coalts}"


# ---------------------------------------------------------------------------
# Positivity


def _pattern_of(d: Decl) -> TyExpr:
    return TName(d.name, tuple(TName(p) for p in d.params))


def _mentions_name(t: TyExpr, name: str) -> bool:
    match t:
        case TName(n, args):
            return n == name or any(_mentions_name(a, name) for a in args)
        case TSum(l, r) | TProd(l, r) | TArrow(l, r):
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


def _positivity_walk(t: TyExpr, d: Decl, where: str) -> None:
    match t:
        case TArrow(arg, res):
            if _mentions_name(arg, d.name):
                raise NegativeOccurrence(
                    f"{d.name} occurs in a function argument at {where}"
                )
            _positivity_walk(res, d, where)
        case TSum(l, r) | TProd(l, r):
            _positivity_walk(l, d, where)
            _positivity_walk(r, d, where)
        case _:
            pass


# ---------------------------------------------------------------------------
# Resolution of closed surface types to kernel types


def resolve_ty(t: TyExpr, subst: Optional[dict[str, TyExpr]] = None) -> Ty:
    match t:
        case TUnit():
            return Unit()
        case TNat():
            return Nat()
        case TBool():
            return Bool()
        case TZero():
            return Zero()
        case TSum(l, r):
            return TySum(resolve_ty(l, subst), resolve_ty(r, subst))
        case TProd(l, r):
            return TyProd(resolve_ty(l, subst), resolve_ty(r, subst))
        case TArrow(a, r):
            return TyTotal(resolve_ty(a, subst), resolve_ty(r, subst))
        case TName(name, args):
            if args:
                raise UnsupportedTypeFormer(
                    f"type constructor {name!r} cannot appear in a constant position"
                )
            if subst is not None and name in subst:
                return resolve_ty(subst[name], subst)
            builtin = {"Unit": Unit(), "Nat": Nat(), "Bool": Bool(), "Zero": Zero()}
            if name in builtin:
                return builtin[name]
            return Named(name)
    raise TypeMismatch(f"unknown type expression {t!r}")


def _substitute(t: TyExpr, subst: dict[str, TyExpr]) -> TyExpr:
    match t:
        case TName(name, ()) if name in subst:
            return subst[name]
        case TName(name, args):
            return TName(name, tuple(_substitute(a, subst) for a in args))
        case TSum(l, r):
            return TSum(_substitute(l, subst), _substitute(r, subst))
        case TProd(l, r):
            return TProd(_substitute(l, subst), _substitute(r, subst))
        case TArrow(a, r):
            return TArrow(_substitute(a, subst), _substitute(r, subst))
    return t


# ---------------------------------------------------------------------------
# Functor extraction


def extract_functor(d: Decl, subst: Optional[dict[str, TyExpr]] = None) -> SigFunctor:
    """Sum over constructors (sel);  products over argument functors."""
    pattern = _substitute(_pattern_of(d), subst or {})
    if d.kind == "free":
        parts = [_ctor_functor(alt, d, pattern, subst) for alt in d.alts]
    else:
        parts = [_coalt_functor(alt, d, pattern, subst) for alt in d.coalts]
    return fold_right(SumF, Const(Zero()), parts)


def _ctor_functor(alt: Alt, d: Decl, pattern: TyExpr, subst) -> SigFunctor:
    return fold_right(
        ProdF,
        Const(Unit()),
        [_arg_functor(_substitute(a, subst or {}), d, pattern, "free") for a in alt.args],
    )


def _coalt_functor(alt: tuple[SelGroup, ...], d: Decl, pattern: TyExpr, subst) -> SigFunctor:
    sels = []
    for g in alt:
        for _name in g.names:
            sels.append(
                _arg_functor(_substitute(g.codomain, subst or {}), d, pattern, "cotype")
            )
    return fold_right(ProdF, Const(Unit()), sels)


def _arg_functor(t: TyExpr, d: Decl, pattern: TyExpr, kind: str) -> SigFunctor:
    if not _mentions_name(t, d.name):
        return Const(resolve_ty(t))
    if t == pattern:
        return Id()
    match t:
        case TSum(l, r):
            return SumF(_arg_functor(l, d, pattern, kind), _arg_functor(r, d, pattern, kind))
        case TProd(l, r):
            return ProdF(_arg_functor(l, d, pattern, kind), _arg_functor(r, d, pattern, kind))
        case TArrow(a, r):
            if kind == "free":
                raise UnsupportedTypeFormer(
                    f"{d.name}: recursion under a function arrow is not a polynomial "
                    "position (infinite branching is unsupported)"
                )
            if r != pattern:
                raise UnsupportedTypeFormer(
                    f"{d.name}: exponential selector bodies must be the declared pattern"
                )
            return ExpConst(resolve_ty(a), Id())
        case TName(name, _):
            raise UnsupportedTypeFormer(
                f"{d.name}: recursive occurrence under type constructor {name!r} "
                "is the user's responsibility and is rejected"
            )
    raise UnsupportedTypeFormer(f"{d.name}: unsupported recursive position {t!r}")


# ---------------------------------------------------------------------------
# Elaboration


@dataclass
class CtorInfo:
    name: str
    summand: int
    const_index: int  # injection into the collected-constants sum, if nullary
    arg_kinds: tuple[str, ...]  # "const" | "rec", in declaration order
    const_tys: tuple[Ty, ...]  # resolved types of the constant arguments


@dataclass
class SelInfo:
    name: str
    alt: int
    kind: str  # "const" | "rec" | "fn"
    const_pos: int = -1  # position among this alternative's constant selectors
    rec_pos: int = -1  # position among this alternative's recursive selectors
    exponent: Optional[Ty] = None


@dataclass
class FreeTypeInfo:
    decl: Decl
    display: str
    functor: SigFunctor
    nf: PolyNF
    handle: initial_mod.InitialAlgebra
    ctors: list[CtorInfo]
    n_consts: int

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

    def ctor_of_payload(self, summand: int, param: PVal) -> CtorInfo:
        if summand == 0 and self.n_consts > 1:
            idx, _ = project(param, self.n_consts)
            return next(
                c for c in self.ctors if c.summand == 0 and c.const_index == idx
            )
        return next(c for c in self.ctors if c.summand == summand)

    # ---- recursion schemes keyed by constructor ------------------------------

    def _run_branch(self, branches, i: int, w: PVal, rec, spread: bool = False) -> PVal:
        """Apply the branch of the constructor behind summand i's payload ``w``
        to its declaration-order arguments, ``rec`` filling the recursive
        positions; with ``spread``, each ``rec`` entry is a tuple of arguments."""
        info = self.ctor_of_payload(i, w)
        args = self.split_args(info, w, rec)
        if spread:
            args = [
                x for k, a in zip(info.arg_kinds, args) for x in (a if k == "rec" else (a,))
            ]
        return _apply_branch(branches[self.ctors.index(info)], args)

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


@dataclass
class CotypeInfo:
    decl: Decl
    display: str
    functor: SigFunctor
    nf: ExtPolyNF
    handle: final_mod.FinalCoalgebra
    sels: list[SelInfo]
    alt_const_tys: list[tuple[Ty, ...]]
    alt_rec_count: list[int]

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
            return final_mod.subtree(self.handle, tree, label)
        # fn selector: a total function from the exponent into the cotype
        def at(y: PVal, _i=info) -> PVal:
            label = inject(_i.alt, self.handle.n, inject(_i.rec_pos, n_rec, y))
            return final_mod.subtree(self.handle, tree, label)

        return pfun(at, dom=info.exponent)


def _build_param(tys: tuple[Ty, ...], values: Sequence[PVal]) -> PVal:
    # Unit factors are elided by normalization; skip them when packing
    return tuple_of([v for t, v in zip(tys, values) if t != Unit()])


def _split_param(tys: tuple[Ty, ...], param: PVal) -> list[PVal]:
    parts = iter(untuple(param, sum(t != Unit() for t in tys)))
    return [UNIT if t == Unit() else next(parts) for t in tys]


def _apply_branch(branch: PVal | Callable, args: Sequence[PVal]) -> PVal:
    if callable(branch) and not isinstance(branch, PVal):
        return branch(*args)
    out = branch
    for a in args:
        out = apply_pval(out, a)
    return out


class ElabEnv:
    """Installed datatypes and process types, plus term-level bindings."""

    def __init__(self):
        self.freetypes: dict[str, FreeTypeInfo] = {}
        self.cotypes: dict[str, CotypeInfo] = {}
        self.templates: dict[str, Decl] = {}
        self.terms: dict[str, PVal] = {}

    def instantiate(self, name: str, ty_args: Sequence[TyExpr]) -> FreeTypeInfo | CotypeInfo:
        if name not in self.templates:
            raise kernel.UnboundName(f"no parameterized declaration {name!r}")
        d = self.templates[name]
        if len(ty_args) != len(d.params):
            raise TypeMismatch(f"{name} expects {len(d.params)} type arguments")
        display = f"{name}[{', '.join(pretty_ty(t) for t in ty_args)}]"
        if display in self.freetypes:
            return self.freetypes[display]
        if display in self.cotypes:
            return self.cotypes[display]
        subst = dict(zip(d.params, ty_args))
        return self._install(d, subst, display)

    def _install(self, d: Decl, subst: Optional[dict], display: str):
        check_positivity(d)
        functor = extract_functor(d, subst)
        if d.kind == "free":
            info = _elaborate_freetype(d, functor, display, subst)
            self.freetypes[display] = info
            self._bind_freetype_terms(info)
            return info
        info = _elaborate_cotype(d, functor, display, subst)
        self.cotypes[display] = info
        self._bind_cotype_terms(info)
        return info

    def _bind_freetype_terms(self, info: FreeTypeInfo):
        for c in info.ctors:
            self.terms[c.name] = _curried(
                lambda args, _i=info, _n=c.name: _i.make(_n, args), len(c.arg_kinds)
            )
        n = len(info.ctors)
        for op, run in (("fold", info.fold), ("case", info.case), ("primrec", info.primrec)):
            scheme = _curried(lambda args, _run=run: _run(args[:-1], args[-1]), n + 1)
            self._bind_scheme(op, info.display, scheme, list(self.freetypes), "free types")

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
        self._bind_scheme("unfold", info.display, unfold, list(self.cotypes), "cotypes")

    def _bind_scheme(self, op: str, display: str, scheme: PVal, installed: list[str], kinds: str):
        """Bind ``display.op``, and the bare ``op`` while it names one type."""
        self.terms[f"{display}.{op}"] = scheme
        if len(installed) == 1:
            self.terms[op] = scheme
        else:
            forms = " or ".join(f"{d}.{op}" for d in installed)
            self.terms[op] = _ambiguous(
                f"{op!r} is ambiguous with {len(installed)} {kinds} installed: write {forms}"
            )


def _ambiguous(message: str) -> PVal:
    def fail(_x: PVal) -> PVal:
        raise AmbiguousName(message)

    return pfun(fail)


def _curried(fn: Callable[[list[PVal]], PVal], arity: int) -> PVal:
    def collect(acc: list[PVal]) -> PVal:
        if len(acc) == arity:
            return fn(acc)
        return pfun(lambda x, _a=acc: collect(_a + [x]))

    out = collect([])
    return out


def _elaborate_freetype(
    d: Decl, functor: SigFunctor, display: str, subst: Optional[dict]
) -> FreeTypeInfo:
    nf = to_poly_nf(functor)
    ctors: list[CtorInfo] = []
    n_consts = 0
    next_summand = 1
    param_names = set(d.params)
    shape: list[list[list[bool]]] = [[] for _ in nf.summands]
    for alt in d.alts:
        kinds, const_tys, const_is_var = [], [], []
        for arg in alt.args:
            arg_s = _substitute(arg, subst or {})
            if _mentions_name(arg, d.name):
                kinds.append("rec")
            else:
                kinds.append("const")
                const_tys.append(resolve_ty(arg_s))
                const_is_var.append(isinstance(arg, TName) and arg.name in param_names)
        flags = [
            v for t, v in zip(const_tys, const_is_var) if t != Unit()
        ]
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


def _elaborate_cotype(
    d: Decl, functor: SigFunctor, display: str, subst: Optional[dict]
) -> CotypeInfo:
    nf = to_extpoly_nf(functor)
    handle = final_mod.FinalCoalgebra(nf)
    pattern = _substitute(_pattern_of(d), subst or {})
    sels: list[SelInfo] = []
    alt_const_tys: list[tuple[Ty, ...]] = []
    alt_rec_count: list[int] = []
    for alt_idx, alt in enumerate(d.coalts):
        const_tys: list[Ty] = []
        n_rec = 0
        for g in alt:
            cod = _substitute(g.codomain, subst or {})
            for name in g.names:
                if not _mentions_name(cod, d.name):
                    sels.append(
                        SelInfo(name, alt_idx, "const", const_pos=len(const_tys))
                    )
                    const_tys.append(resolve_ty(cod))
                elif cod == pattern:
                    sels.append(SelInfo(name, alt_idx, "rec", rec_pos=n_rec))
                    n_rec += 1
                elif isinstance(cod, TArrow) and cod.res == pattern:
                    sels.append(
                        SelInfo(
                            name,
                            alt_idx,
                            "fn",
                            rec_pos=n_rec,
                            exponent=resolve_ty(cod.arg),
                        )
                    )
                    n_rec += 1
                else:
                    raise UnsupportedTypeFormer(
                        f"{d.name}: selector {name} has an unsupported codomain"
                    )
        alt_const_tys.append(tuple(const_tys))
        alt_rec_count.append(n_rec)
    return CotypeInfo(d, display, functor, nf, handle, sels, alt_const_tys, alt_rec_count)


def elaborate(decls: Sequence[Decl | LetDef], fuel_steps: int = 100000) -> ElabEnv:
    """Install every declaration; templates wait for explicit instantiation."""
    env = ElabEnv()
    env.terms.update(base_builtins())
    for d in decls:
        if isinstance(d, LetDef):
            env.terms[d.name] = kernel.eval_term(
                d.body, env.terms, kernel.Fuel(fuel_steps)
            )
        elif d.params:
            env.templates[d.name] = d
            check_positivity(d)
            extract_functor(d)  # reject bad templates eagerly
        else:
            env._install(d, None, d.name)
    return env


def base_builtins() -> dict[str, PVal]:
    from .functors import bot

    def nat_op(f):
        return pfun(lambda a: pfun(lambda b, _a=a: kernel.nat(f(_a.n, b.n))))

    return {
        "true": kernel.TRUE,
        "false": kernel.FALSE,
        "suc": pfun(lambda v: kernel.nat(v.n + 1)),
        "pred": pfun(lambda v: kernel.nat(max(v.n - 1, 0))),
        "plus": nat_op(lambda a, b: a + b),
        "times": nat_op(lambda a, b: a * b),
        "inl": pfun(kernel.inl),
        "inr": pfun(kernel.inr),
        "fst": pfun(lambda v: v.fst if isinstance(v, PairV) else UNDEF),
        "snd": pfun(lambda v: v.snd if isinstance(v, PairV) else UNDEF),
        "id": pfun(lambda v: v),
        "bot": bot(),
    }


# ---------------------------------------------------------------------------
# Printing and re-parsing normal forms as functor expressions over X


def pretty_kernel_ty(t: Ty) -> str:
    match t:
        case kernel.Unit():
            return "Unit"
        case kernel.Nat():
            return "Nat"
        case kernel.Bool():
            return "Bool"
        case kernel.Zero():
            return "Zero"
        case Named(name):
            return name
        case kernel.Sum(l, r):
            return f"{_kparen(l, (kernel.Total, kernel.Sum))} + {_kparen(r, (kernel.Total,))}"
        case kernel.Prod(l, r):
            return (
                f"{_kparen(l, (kernel.Total, kernel.Sum, kernel.Prod))} "
                f"* {_kparen(r, (kernel.Total, kernel.Sum))}"
            )
        case kernel.Total(a, r):
            return f"{_kparen(a, (kernel.Total,))} -> {pretty_kernel_ty(r)}"
    raise TypeMismatch(f"unprintable type {t!r}")


def _kparen(t: Ty, wrap: tuple) -> str:
    s = pretty_kernel_ty(t)
    return f"({s})" if isinstance(t, wrap) else s


def pretty_functor(f: SigFunctor) -> str:
    match f:
        case Id():
            return "X"
        case Const(t):
            # composite constants must not merge with functor-level sums
            # and products when the expression is read back
            s = pretty_kernel_ty(t)
            if isinstance(t, (kernel.Sum, kernel.Prod, kernel.Total)):
                return f"({s})"
            return s
        case SumF(l, r):
            return f"{_fparen(l, (SumF,))} + {pretty_functor(r)}"
        case ProdF(l, r):
            return f"{_fparen(l, (SumF, ProdF))} * {_fparen(r, (SumF,))}"
        case ExpConst(b, _):
            return f"({pretty_kernel_ty(b)} -> X)"
    raise TypeMismatch(f"unprintable functor {f!r}")


def _fparen(f: SigFunctor, wrap: tuple) -> str:
    s = pretty_functor(f)
    return f"({s})" if isinstance(f, wrap) else s


def parse_functor(source: str) -> SigFunctor:
    """Parse a functor expression in which X marks the recursion variable."""
    c = _Cursor(_lex(source))
    t = _parse_tyexpr(c)
    if not c.at("eof", "nl"):
        c.fail("trailing input after functor expression")
    return _tyexpr_to_functor(t)


def _tyexpr_to_functor(t: TyExpr) -> SigFunctor:
    if not _mentions_name(t, "X"):
        return Const(resolve_ty(t))
    match t:
        case TName("X", ()):
            return Id()
        case TSum(l, r):
            return SumF(_tyexpr_to_functor(l), _tyexpr_to_functor(r))
        case TProd(l, r):
            return ProdF(_tyexpr_to_functor(l), _tyexpr_to_functor(r))
        case TArrow(a, r):
            if _mentions_name(a, "X") or _tyexpr_to_functor(r) != Id():
                raise UnsupportedTypeFormer("exponentials must have the shape B -> X")
            return ExpConst(resolve_ty(a), Id())
    raise UnsupportedTypeFormer(f"cannot read {t!r} back as a functor")


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
