import pytest
from hypothesis import given, strategies as st

from quasikernel.final import NonEnumerableExponent
from quasikernel.functors import (
    Const,
    ExpConst,
    ExtPolyNF,
    Id,
    PolyNF,
    ProdF,
    SumF,
    ext_value,
    to_extpoly_nf,
)
from quasikernel.kernel import (
    FALSE,
    TRUE,
    UNDEF,
    UNIT,
    App,
    Bool,
    Fuel,
    Lit,
    Named,
    Nat,
    PairE,
    Prod,
    Sum,
    Total,
    Unit,
    Var,
    apply_pval,
    eval_term,
    is_true,
    eq_strong,
    nat,
    pfun,
)
from quasikernel.surface import (
    AmbiguousName,
    Alt,
    Decl,
    DuplicateDeclaration,
    ElabEnv,
    LetDef,
    NegativeOccurrence,
    ParseError,
    SelGroup,
    UnsupportedTypeFormer,
    check_positivity,
    elaborate,
    extract_functor,
    parse,
    parse_expr,
    parse_functor,
    pretty_ty,
    resolve_ty,
)

LIST_SRC = "free type List a ::= nil | cons(a; List a)"
NAT_SRC = "free type Nat ::= 0 | suc Nat"
PROC_SRC = "cotype Proc ::= (out:? Bool; next:? Proc) | (spawnl, spawnr: Proc)"
TREE_SRC = "free type Tree a b ::= leaf a | branch(b -> List (Tree a b))"
MONO_LIST_SRC = "free type List ::= nil | cons(Nat; List)"


def pretty_decl(d: Decl) -> str:
    """A declaration printed in the syntax ``parse`` reads."""
    head = " ".join([d.name, *d.params])
    if d.kind == "free":
        alts = " | ".join(
            a.name + (f"({'; '.join(pretty_ty(t) for t in a.args)})" if a.args else "")
            for a in d.alts
        )
        return f"free type {head} ::= {alts}"
    groups = (
        "; ".join(f"{', '.join(g.names)}{':?' if g.partial else ':'} {pretty_ty(g.codomain)}" for g in alt)
        for alt in d.coalts
    )
    return f"cotype {head} ::= " + " | ".join(f"({g})" for g in groups)

# closed and parametric types as the parser builds them: Named leaves
# (builtins, parameters, bracketed applications) under nested Sum/Prod/Total
DRAWN_TYPES = st.recursive(
    st.sampled_from([Named(n) for n in ("Unit", "Nat", "Bool", "Zero", "a", "b")]),
    lambda inner: st.one_of(
        st.builds(lambda former, l, r: former(l, r), st.sampled_from([Sum, Prod, Total]), inner, inner),
        st.builds(lambda args: Named("List", tuple(args)), st.lists(inner, min_size=1, max_size=2)),
    ),
    max_leaves=8,
)

GOLDEN = [
    LIST_SRC,
    NAT_SRC,
    PROC_SRC,
    MONO_LIST_SRC,
    "free type M ::= e | one(Bool; M) | two(M; M)",
    "cotype Stream a ::= (head: a; tail: Stream a)",
]


class TestParse:
    def test_list_declaration(self):
        (d,) = parse(LIST_SRC)
        assert d == Decl(
            "free",
            "List",
            ("a",),
            alts=(
                Alt("nil"),
                Alt("cons", (Named("a"), Named("List", (Named("a"),)))),
            ),
        )

    def test_proc_cotype(self):
        (d,) = parse(PROC_SRC)
        assert d.kind == "cotype"
        assert len(d.coalts) == 2
        assert d.coalts[0] == (
            SelGroup(("out",), True, Named("Bool")),
            SelGroup(("next",), True, Named("Proc")),
        )
        assert d.coalts[1] == (SelGroup(("spawnl", "spawnr"), False, Named("Proc")),)

    def test_empty_source(self):
        assert parse("") == []
        assert parse("\n\n") == []

    def test_numeric_constructor_and_display_form(self):
        (d,) = parse(NAT_SRC)
        assert d.alts == (Alt("0"), Alt("suc", (Named("Nat"),)))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse("free type ::= nil")
        assert exc.value.line == 1
        assert exc.value.col > 1

    def test_comments_and_blank_lines(self):
        decls = parse("# a comment\n\n" + MONO_LIST_SRC + "\n")
        assert len(decls) == 1

    def test_expression_brackets(self):
        one, two = Lit(nat(1)), Lit(nat(2))
        assert parse_expr("()") == Lit(UNIT)
        assert parse_expr("(1)") == one
        assert parse_expr("(1, 2, ())") == PairE(one, PairE(two, Lit(UNIT)))
        assert parse_expr("[]") == Var("nil")
        assert parse_expr("[1]") == App(App(Var("cons"), one), Var("nil"))
        # a bracket nests two Python frames per level, so 400 levels fit
        # under the default recursion limit
        term = parse_expr("suc (" * 400 + "0" + ")" * 400)
        for _ in range(400):
            assert term.fn == Var("suc")
            term = term.arg
        assert term == Lit(nat(0))

    def test_letdef(self):
        (d,) = parse("let three = suc (suc (suc 0))")
        assert isinstance(d, LetDef)
        assert d.name == "three"

    @pytest.mark.parametrize("src", GOLDEN)
    def test_parse_pretty_round_trip(self, src):
        (d,) = parse(src)
        assert parse(pretty_decl(d)) == [d]

    @given(DRAWN_TYPES)
    def test_drawn_types_round_trip(self, t):
        # as a constructor argument and as a selector codomain
        for d in (
            Decl("free", "T", ("a", "b"), alts=(Alt("e"), Alt("c", (t, Named("T", (Named("a"), Named("b"))))))),
            Decl("cotype", "C", ("a", "b"), coalts=((SelGroup(("s",), True, t),),)),
        ):
            assert parse(pretty_decl(d)) == [d]


class TestPositivity:
    def test_direct_negative_occurrence(self):
        (d,) = parse("free type L ::= abs(L -> L)")
        with pytest.raises(NegativeOccurrence):
            check_positivity(d)

    def test_nested_negative_occurrence(self):
        (d,) = parse("free type L a ::= abs((L a -> a) -> a)")
        with pytest.raises(NegativeOccurrence):
            check_positivity(d)

    def test_list_accepted(self):
        (d,) = parse(LIST_SRC)
        check_positivity(d)

    def test_cotype_negative_exponent(self):
        (d,) = parse("cotype C ::= (next: C -> C)")
        with pytest.raises(NegativeOccurrence):
            check_positivity(d)


class TestExtraction:
    def test_list_functor(self):
        (d,) = parse(LIST_SRC)
        f = extract_functor(d)
        assert f == SumF(Const(Unit()), ProdF(Const(Named("a")), Id()))

    def test_proc_functor(self):
        (d,) = parse(PROC_SRC)
        f = extract_functor(d)
        assert f == SumF(ProdF(Const(Bool()), Id()), ProdF(Id(), Id()))

    def test_tree_rejected_as_unsupported(self):
        (d,) = parse(TREE_SRC)
        check_positivity(d)  # strictly positive, but not polynomial
        with pytest.raises(UnsupportedTypeFormer):
            extract_functor(d)

    def test_freetype_exponential_rejected(self):
        (d,) = parse("free type T a ::= branch(a -> T a)")
        check_positivity(d)
        with pytest.raises(UnsupportedTypeFormer):
            extract_functor(d)

    def test_polymorphic_recursion_rejected(self):
        (d,) = parse("free type L a ::= mk(L Nat)")
        with pytest.raises(UnsupportedTypeFormer):
            extract_functor(d)

    @pytest.mark.parametrize("src", ["(X -> Nat) * X", "X -> X"])
    def test_functor_reader_takes_only_exponentials_of_x(self, src):
        with pytest.raises(UnsupportedTypeFormer):
            parse_functor(src)


class TestResolution:
    def test_builtins(self):
        assert resolve_ty(Named("Bool")) == Bool()
        assert resolve_ty(Named("Nat")) == Nat()
        assert resolve_ty(Nat()) == Nat()  # resolved atoms pass through

    def test_unknown_names_stay_named(self):
        assert resolve_ty(Named("mystery")) == Named("mystery")

    def test_arrow_resolves_total(self):
        assert resolve_ty(Total(Named("Bool"), Named("Unit"))) == Total(Bool(), Unit())


class TestElaborateFreeTypes:
    def test_empty_file(self):
        env = elaborate([])
        assert env.freetypes == {} and env.cotypes == {}

    def test_nat_is_the_nno(self):
        env = elaborate(parse(NAT_SRC))
        info = env.freetypes["Nat"]
        assert info.nf == PolyNF(((Unit(), 0), (Unit(), 1)))
        three = info.make("suc", [info.make("suc", [info.make("suc", [info.make("0", [])])])])
        from quasikernel.initial import tree_depth

        assert tree_depth(three) == 4

    def test_template_instantiation(self):
        env = elaborate(parse(LIST_SRC))
        assert "List" in env.templates
        info = env.instantiate("List", [Named("Nat")])
        assert info.nf == PolyNF(((Unit(), 0), (Nat(), 1)))
        assert env.instantiate("List", [Named("Nat")]) is info
        assert info.display == "List[Nat]"
        assert env.instantiate("List", [Nat()]) is info

    def test_fold_specializes_to_the_list_equations(self):
        # fold c f nil = c  and  fold c f (cons x l) = f x (fold c f l)
        env = elaborate(parse(LIST_SRC))
        info = env.instantiate("List", [Named("Nat")])
        c = nat(100)
        f = lambda x, r: nat(x.n + r.n)
        nil = info.make("nil", [])
        l1 = info.make("cons", [nat(7), nil])
        l2 = info.make("cons", [nat(5), l1])
        assert info.fold([c, f], nil) == c
        assert info.fold([c, f], l2) == f(nat(5), info.fold([c, f], l1))

    def test_fold_matches_direct_recursion_oracle(self):
        env = elaborate(parse(LIST_SRC))
        info = env.instantiate("List", [Named("Bool")])

        def direct(vals):
            out = nat(0)
            for v in reversed(vals):
                out = nat((2 if v == TRUE else 1) + out.n)
            return out

        for vals in ([], [TRUE], [TRUE, FALSE, TRUE]):
            t = info.make("nil", [])
            for v in reversed(vals):
                t = info.make("cons", [v, t])
            got = info.fold([nat(0), lambda x, r: nat((2 if x == TRUE else 1) + r.n)], t)
            assert got == direct(vals)

    def test_installed_fold_satisfies_the_fold_equation(self):
        # per-constructor fold over every tree buildable within depth 4
        # over a 2-element parameter type
        env = elaborate(parse(LIST_SRC))
        info = env.instantiate("List", [Named("Bool")])
        branches = [nat(7), lambda x, r: nat((1 if x == TRUE else 2) + 3 * r.n)]
        for t in info.handle.enumerate_trees(4):
            i, w, children = info.handle.destruct(t)
            lhs = info.fold(branches, t)
            if i == 0:
                assert lhs == branches[0]
            else:
                ctor = info.ctors[info.ctor_position(i, w)]
                args = info.split_args(ctor, w, children)
                rhs = branches[1](args[0], info.fold(branches, args[1]))
                assert is_true(eq_strong(lhs, rhs))

    def test_case_and_primrec_builtins(self):
        env = elaborate(parse(MONO_LIST_SRC))
        info = env.freetypes["List"]
        l = info.make("cons", [nat(3), info.make("nil", [])])
        assert info.case([nat(0), lambda x, _l: x], l) == nat(3)
        # primrec gets subtree and recursive result for the tail
        tail_len = info.primrec(
            [nat(0), lambda x, sub, rec: nat(rec.n + 1)], l
        )
        assert tail_len == nat(1)

    def test_mixed_constants_summand(self):
        env = elaborate(parse("free type Sh ::= circle | square | pair(Sh; Sh)"))
        info = env.freetypes["Sh"]
        assert info.n_consts == 2
        c, s = info.make("circle", []), info.make("square", [])
        assert c != s
        both = info.make("pair", [c, s])
        assert info.fold([nat(1), nat(2), lambda a, b: nat(a.n * 10 + b.n)], both) == nat(12)

    def test_constant_argument_constructor(self):
        # a constructor with only closed arguments lands in the constants summand
        env = elaborate(parse("free type Box ::= box(Nat)"))
        info = env.freetypes["Box"]
        assert info.nf == PolyNF(((Nat(), 0),))
        b = info.make("box", [nat(9)])
        assert info.case([lambda x: x], b) == nat(9)


    def test_second_declaration_of_a_name_is_rejected(self):
        env = ElabEnv()
        assert env.declare(parse("free type A ::= a | s(A)")[0]) == "Unit + Unit * X"
        for again in ("free type A ::= b", "cotype A ::= (x: Bool)", "free type A t ::= c(t)"):
            with pytest.raises(DuplicateDeclaration, match="duplicate declaration 'A'"):
                env.declare(parse(again)[0])
        assert [c.name for c in env.freetypes["A"].ctors] == ["a", "s"]
        assert "b" not in env.terms and env.cotypes == {} and env.templates == {}

    @pytest.mark.parametrize(
        "src, detail",
        [
            ("free type A ::= a | a", "duplicate constructor 'a' in A"),
            ("free type L t ::= nil | cons(t; L t) | nil", "duplicate constructor 'nil' in L"),
            ("cotype K ::= (a, a: K) | (b: Nat)", "duplicate selector 'a' in K"),
            ("cotype K ::= (a: K) | (a: Nat)", "duplicate selector 'a' in K"),
        ],
    )
    def test_a_name_repeated_within_a_declaration_is_rejected(self, src, detail):
        # otherwise only the first constructor or selector of the name is reachable
        env = ElabEnv()
        with pytest.raises(DuplicateDeclaration, match=detail):
            env.declare(parse(src)[0])
        assert env.freetypes == env.cotypes == env.templates == {}
        assert not {"a", "nil", "A.a", "L.nil"} & set(env.terms)


class TestElaborateCotypes:
    def setup_proc(self):
        env = elaborate(parse(PROC_SRC))
        info = env.cotypes["Proc"]

        def d(n):
            if n % 2 == 0:
                return 0, nat_to_bool(n), lambda _y: n + 1
            return 1, UNIT, lambda y: 2 * n if is_left(y) else 2 * n + 2

        return env, info, info.handle.unfold(d, 0)

    def test_nf_matches_generic_normalization(self):
        env = elaborate(parse(PROC_SRC))
        info = env.cotypes["Proc"]
        assert info.nf == to_extpoly_nf(info.functor)
        assert info.nf == ExtPolyNF(((Bool(), Unit()), (Unit(), Sum(Unit(), Unit()))))

    def test_selectors_follow_the_tags(self):
        env, info, t = self.setup_proc()
        assert info.select("out", t) == TRUE  # seed 0: even, 0 % 4 == 0
        assert info.select("spawnl", t) == UNDEF
        nxt = info.select("next", t)
        assert nxt.defined()
        # seed 1 is odd: out is undefined there, spawn selectors are defined
        assert info.select("out", nxt) == UNDEF
        left = info.select("spawnl", nxt)
        right = info.select("spawnr", nxt)
        assert info.select("out", left) == nat_to_bool(2)
        assert info.select("out", right) == nat_to_bool(4)

    def test_unfold_builtin_roundtrip(self):
        env = elaborate(parse(PROC_SRC))
        info = env.cotypes["Proc"]
        coalg = pfun(
            lambda z: ext_value(info.nf, 0, TRUE, pfun(lambda _y: z))
        )
        tree = apply_pval(apply_pval(env.terms["unfold"], coalg), nat(0))
        assert info.select("out", tree) == TRUE
        assert info.select("out", info.select("next", tree)) == TRUE

    def test_function_valued_selector(self):
        env = elaborate(parse("cotype T2 ::= (label: Nat; kids: Bool -> T2)"))
        info = env.cotypes["T2"]
        assert info.nf == ExtPolyNF(((Nat(), Bool()),))

        def d(n):  # label counts depth; both children advance differently
            return 0, nat(n), lambda y: 2 * n + (1 if y == TRUE else 2)

        t = info.handle.unfold(d, 0)
        assert info.select("label", t) == nat(0)
        kids = info.select("kids", t)
        left = apply_pval(kids, TRUE)
        right = apply_pval(kids, FALSE)
        assert info.select("label", left) == nat(1)
        assert info.select("label", right) == nat(2)

    def test_cotype_template_instantiation(self):
        env = elaborate(parse("cotype Stream a ::= (head: a; tail: Stream a)"))
        info = env.instantiate("Stream", [Named("Nat")])
        assert info.nf == ExtPolyNF(((Nat(), Unit()),))
        t = info.handle.unfold(lambda n: (0, nat(n), lambda _y: n + 1), 5)
        assert info.select("head", t) == nat(5)
        assert info.select("head", info.select("tail", t)) == nat(6)

    def test_infinite_exponent_names_type_and_selector(self):
        env = elaborate(parse("cotype R a ::= (out: Bool; next: a -> R a)"))
        assert env.instantiate("R", [Named("Bool")]).nf == ExtPolyNF(((Bool(), Bool()),))
        with pytest.raises(NonEnumerableExponent, match="R: selector next .* not finite: Nat"):
            env.instantiate("R", [Named("Nat")])


def nat_to_bool(n):
    return TRUE if n % 4 == 0 else FALSE


def is_left(y):
    from quasikernel.functors import project

    return project(y, 2)[0] == 0


class TestEvalIntegration:
    def test_fold_sum_expression(self):
        env = elaborate(parse(MONO_LIST_SRC))
        term = parse_expr("fold 0 plus [1,2,3]")
        assert eval_term(term, env.terms, Fuel(100000)) == nat(6)

    def test_letdef_binding(self):
        env = elaborate(parse(MONO_LIST_SRC + "\nlet total = fold 0 plus [4,5]"))
        assert env.terms["total"] == nat(9)

    def test_lambda_expression(self):
        env = elaborate(parse(MONO_LIST_SRC))
        term = parse_expr(r"fold 0 (\x. \r. suc r) [9,9,9]")
        assert eval_term(term, env.terms, Fuel(100000)) == nat(3)

    def test_case_builtin_via_expr(self):
        env = elaborate(parse(MONO_LIST_SRC))
        term = parse_expr("case 42 (\\x. \\l. x) [7,8]")
        assert eval_term(term, env.terms, Fuel(100000)) == nat(7)

    def test_let_bound_closure_runs_on_the_callers_budget(self):
        # the let is elaborated with a budget of 50 steps; each call brings
        # its own, so repeated calls never exhaust the let's budget
        env = elaborate(parse(r"let f = \x. suc x"), fuel_steps=50)
        for _ in range(40):
            fuel = Fuel(10**6)
            assert eval_term(parse_expr("f 0"), env.terms, fuel) == nat(1)
        literal = Fuel(10**6)
        eval_term(parse_expr(r"(\x. suc x) 0"), env.terms, literal)
        assert fuel.steps == literal.steps


MIXED_SRC = (
    "free type Shape ::= circle | square | glue(Shape; Shape)\n"
    "free type Tagged ::= leaf(Bool) | node(Nat; Tagged; Tagged)\n"
)


TWO_COTYPES_SRC = "cotype A ::= (a:? Bool; an:? A)\ncotype B ::= (b:? Nat; bn:? B)\n"


class TestQualifiedSchemes:
    def run(self, env, expr):
        qualifiers = [*env.freetypes, *env.cotypes]
        return eval_term(parse_expr(expr, qualifiers), env.terms, Fuel(100000))

    def test_qualified_schemes_with_two_free_types(self):
        env = elaborate(parse(MIXED_SRC))
        assert self.run(env, r"Shape.fold 1 1 (\a. \b. plus a b) (glue circle square)") == nat(2)
        tagged = "(node 3 (leaf true) (node 1 (leaf false) (leaf true)))"
        assert self.run(env, r"Tagged.fold (\b. 0) (\n. \l. \r. plus n (plus l r)) " + tagged) == nat(4)
        assert self.run(env, r"Tagged.case (\b. 0) (\n. \l. \r. n) " + tagged) == nat(3)
        assert self.run(env, r"Tagged.primrec (\b. 0) (\n. \l. \r. \l2. \r2. plus n r2) " + tagged) == nat(4)

    def test_digit_named_constructor_is_reachable_qualified(self):
        env = elaborate(parse("free type Nat2 ::= 0 | suc Nat2"))
        info = env.freetypes["Nat2"]
        two = info.make("suc", [info.make("suc", [info.make("0", [])])])
        assert self.run(env, "Nat2.suc (Nat2.suc Nat2.0)") == two

    def test_qualified_scheme_in_a_let(self):
        env = elaborate(parse(MIXED_SRC + r"let s = Shape.fold 1 1 (\a. \b. plus a b) (glue circle square)"))
        assert env.terms["s"] == nat(2)

    def test_dot_stays_the_binder_elsewhere(self):
        env = elaborate(parse(MIXED_SRC))
        assert self.run(env, r"(\x.x) 3") == nat(3)
        assert self.run(env, r"(\Shape.Shape) 4") == nat(4)
        with pytest.raises(ParseError, match="trailing input"):
            parse_expr("Shape.fold")  # Shape is not a qualifier here
        with pytest.raises(ParseError, match="trailing input"):
            parse_expr("Proc.unfold", env.freetypes)  # nor is a cotype

    def test_unqualified_scheme_is_ambiguous_with_two_free_types(self):
        env = elaborate(parse(MIXED_SRC))
        for op in ("fold", "case", "primrec"):
            with pytest.raises(AmbiguousName, match=f"write Shape.{op} or Tagged.{op}"):
                self.run(env, f"{op} 1 1 (\\a. \\b. a) (glue circle square)")

    def test_single_free_type_keeps_unqualified_schemes(self):
        env = elaborate(parse(MONO_LIST_SRC))
        assert self.run(env, "fold 0 plus [1,2,3]") == nat(6)
        assert self.run(env, "List.fold 0 plus [1,2,3]") == nat(6)
        assert self.run(env, r"case 42 (\x. \l. x) [7,8]") == nat(7)

    def test_qualified_unfold_with_two_cotypes(self):
        env = elaborate(parse(TWO_COTYPES_SRC))
        assert self.run(env, r"a (an (A.unfold (\z. (true, \u. z)) 0))") == TRUE
        assert self.run(env, r"b (bn (B.unfold (\z. (z, \u. suc z)) 3))") == nat(4)

    def test_qualified_unfold_in_a_let(self):
        env = elaborate(parse(TWO_COTYPES_SRC + r"let s = B.unfold (\z. (z, \u. suc z)) 5"))
        assert self.run(env, "b (bn s)") == nat(6)

    def test_unqualified_unfold_is_ambiguous_with_two_cotypes(self):
        env = elaborate(parse(TWO_COTYPES_SRC))
        with pytest.raises(AmbiguousName, match="with 2 cotypes installed: write A.unfold or B.unfold"):
            self.run(env, r"unfold (\z. (true, \u. z)) 0")

    def test_shared_constructor_name_must_be_qualified(self):
        # like an unqualified scheme, the bare name fails naming both forms
        env = elaborate(parse("free type A ::= a | s(A)\nfree type B ::= a | t(B)"))
        for expr in ("s a", "a", "t (s a)"):
            with pytest.raises(AmbiguousName, match="write A.a or B.a"):
                self.run(env, expr)
        a_tree = self.run(env, "A.s A.a")
        assert self.run(env, "s A.a") == a_tree
        assert self.run(env, r"A.case 0 (\x. 1) (A.s A.a)") == nat(1)
        assert self.run(env, "t B.a") == self.run(env, "B.t B.a")

    def test_single_cotype_keeps_unqualified_unfold(self):
        env = elaborate(parse(PROC_SRC))
        coalg = r"(\z. inl (true, \u. z))"
        for op in ("unfold", "Proc.unfold"):
            assert self.run(env, f"out (next ({op} {coalg} 0))") == TRUE
