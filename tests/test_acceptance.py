"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; every
bound (tree depth, path length, carrier size, chain bound) is fixed
here, not deferred.
"""

import functools
import itertools
import random

import pytest

from quasikernel import cpo as cpo_mod
from quasikernel import lab
from quasikernel.checks import (
    fold_equation_failures,
    fold_uniqueness_solutions,
    sample_algebras,
)
from quasikernel.final import FinalCoalgebra, MSignature
from quasikernel.functors import (
    ExtPolyNF,
    PolyNF,
    decode_sum_triple,
    encode_sum_as_triple,
    ext_unvalue,
    inject,
    poly_value,
    project,
    sumcase,
    triple_copair,
    triple_pattern_ok,
)
from quasikernel.initial import (
    InitialAlgebra,
    church,
    enc_cons,
    enc_fold,
    enc_invariant_ok,
    enc_nil,
    enc_to_list,
    nat_algebra,
    tree_depth,
    tree_parts,
    unchurch,
)
from quasikernel.kernel import (
    FALSE,
    TRUE,
    UNDEF,
    UNIT,
    Bool,
    Nat,
    Sum,
    Unit,
    Zero,
    apply_pval,
    enumerate_ty,
    eq_strong,
    finmap,
    holds,
    is_true,
    logical,
    nat,
    ty_card,
)
from quasikernel.surface import NegativeOccurrence, UnsupportedTypeFormer, check_positivity, extract_functor, parse


def report(num: int, name: str, ok: bool):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num} ({name}) failed"


# the golden corpus of polynomial signatures
NAT_NF = PolyNF(((Unit(), 0), (Unit(), 1)))
LIST2_NF = PolyNF(((Unit(), 0), (Bool(), 1)))  # list over a 2-element type
PROC_NF = PolyNF(((Zero(), 0), (Bool(), 1), (Unit(), 2)))  # Proc read as a type
MIXED_NF = PolyNF(((Unit(), 0), (Bool(), 1), (Unit(), 2)))  # 3-constructor mix

CORPUS = [("Nat", NAT_NF), ("List2", LIST2_NF), ("ProcType", PROC_NF), ("Mixed", MIXED_NF)]

CARRIER3 = [nat(i) for i in range(3)]


def corpus_handles():
    return [(name, InitialAlgebra(nf)) for name, nf in CORPUS]


def enumerate_algebras(nf, size):
    """Every algebra structure on a carrier of ``size`` members, as tables
    of carrier indices (the layout of ``sample_algebras``), with the
    parameters' naturals below 2."""

    def tables(a, k):
        ws, entries = enumerate_ty(a, 2), size**k
        for values in itertools.product(range(size), repeat=len(ws) * entries):
            yield {w: list(values[j * entries:(j + 1) * entries]) for j, w in enumerate(ws)}

    return [list(combo) for combo in itertools.product(*(list(tables(a, k)) for a, k in nf.summands))]


def algebras_for(nf, rng, exhaustive_limit=3000, samples=30):
    space = 1
    for a, k in nf.summands:
        try:
            dom = ty_card(a) * len(CARRIER3) ** k
        except Exception:
            dom = 6
        space *= len(CARRIER3) ** dom
        if space > exhaustive_limit:
            return sample_algebras(nf, len(CARRIER3), samples, rng)
    return enumerate_algebras(nf, len(CARRIER3))


def test_criterion_1_fold_equation():
    ok = True
    rng = random.Random(0)
    for name, handle in corpus_handles():
        trees = handle.enumerate_trees(4)
        if name == "ProcType":
            ok = ok and trees == [] and ty_card(handle.nf.summands[0][0]) == 0
            continue
        if fold_equation_failures(handle, algebras_for(handle.nf, rng), trees, CARRIER3) != []:
            ok = False
    report(1, "fold-equation suite", ok)


def uniqueness_one_by_one(handle, algebra, trees, carrier):
    """The fold-equation solutions on the trees for one index-table algebra,
    counted one tree at a time: the carrier members equal to the value its
    children's force.  The real fold must give that value."""
    size = len(carrier)
    read = [
        lambda w, rs, table=table: table[w][functools.reduce(lambda n, r: n * size + r, rs, 0)]
        for table in algebra
    ]
    forced = {}
    total = 1
    for t in sorted(trees, key=lambda t: tree_depth(t) or 0):
        i, w, children = handle.destruct(t)
        required = read[i](w, [forced[tree_parts(c)[:2]] for c in children])
        assert handle.fold(read, t) == required
        forced[tree_parts(t)[:2]] = required
        total *= sum(b == carrier[required] for b in carrier)
    return total


def test_criterion_2_fold_uniqueness():
    # the premise of uniqueness by induction on depth, and the solutions
    # of sampled algebras' fold equations counted one by one
    ok = True
    rng = random.Random(1)
    for name, handle in corpus_handles():
        trees = handle.enumerate_trees(4)
        if fold_uniqueness_solutions(handle, trees) != []:
            ok = False
        for size in (2, 3):
            carrier = [nat(i) for i in range(size)]
            for algebra in sample_algebras(handle.nf, size, 8, rng):
                if uniqueness_one_by_one(handle, algebra, trees, carrier) != 1:
                    ok = False
    report(2, "fold-uniqueness suite", ok)


def test_criterion_3_lambek():
    ok = True
    for name, handle in corpus_handles():
        inv = handle.lambek_inverse()
        for t in handle.enumerate_trees(4):
            if handle.structure_map(inv(t)) != t:
                ok = False
        for t in handle.enumerate_trees(3):
            i, w, children = handle.destruct(t)
            fv = poly_value(handle.nf, i, w, children)
            if inv(handle.structure_map(fv)) != fv:
                ok = False
    report(3, "lambek suite", ok)


def test_criterion_4_primitive_recursion():
    ok = True
    for name, handle in corpus_handles():
        g = handle.primrec_pairing([lambda w, ps: nat(0)] * handle.n)
        for t in handle.enumerate_trees(4):
            if g(t)[0] != t:
                ok = False
    # predecessor against the standard oracle
    h = nat_algebra()
    pred = h.primrec([lambda w, ps: church(h, 0), lambda w, ps: ps[0][0]])
    for k in range(12):
        expected = max(k - 1, 0)
        if unchurch(pred(church(h, k))) != expected:
            ok = False
    # length against the direct oracle
    lh = InitialAlgebra(LIST2_NF)
    length = lh.primrec([lambda w, ps: nat(0), lambda w, ps: nat(ps[0][1].n + 1)])
    for vals in ([], [TRUE], [FALSE, TRUE], [TRUE, TRUE, FALSE]):
        t = lh.construct(0, UNIT, [])
        for v in reversed(vals):
            t = lh.construct(1, v, [t])
        if length(t) != nat(len(vals)):
            ok = False
    report(4, "primitive-recursion derivation", ok)


def test_criterion_5_list_object():
    ok = True
    frontier = [([], enc_nil())]
    elements = [nat(0), nat(1)]
    for _ in range(6):
        frontier = [
            (vals + [x], enc_cons(x, l)) for vals, l in frontier for x in elements
        ]
        for vals, l in frontier:
            if not enc_invariant_ok(l):
                ok = False
            if enc_to_list(l) != list(reversed(vals)):
                ok = False
            # fold against a direct recursive oracle
            got = enc_fold(nat(0), lambda x, acc: nat(x.n + acc.n), l)
            if got != nat(sum(v.n for v in vals)):
                ok = False
    report(5, "list-object construction", ok)


STREAM_NF = ExtPolyNF(((Nat(), Unit()),))
PROCC_NF = ExtPolyNF(((Bool(), Unit()), (Unit(), Sum(Unit(), Unit()))))
STOPGO_NF = ExtPolyNF(((Bool(), Zero()), (Nat(), Unit())))


def final_corpus():
    hs = FinalCoalgebra(STREAM_NF)
    ds = lambda n: (0, nat(n), lambda _y: n + 1)
    hp = FinalCoalgebra(PROCC_NF)

    def dp(n):
        if n % 2 == 0:
            return 0, TRUE, lambda _y: n + 1
        return 1, UNIT, lambda y: n + (1 if project(y, 2)[0] == 0 else 2)

    hg = FinalCoalgebra(STOPGO_NF)

    def dg(n):
        if n < 3:
            return 1, nat(n), lambda _y: n + 1
        return 0, TRUE, lambda _y: n

    return [(hs, ds), (hp, dp), (hg, dg)]


def test_criterion_6_unfold_suite():
    ok = True
    for handle, d in final_corpus():
        for seed in range(3):
            t = handle.unfold(d, seed)
            if handle.membership_failures(t, depth=4) != []:
                ok = False
            # unfold equation by one observation step
            i, x, g = d(seed)
            li, lx, lfn = ext_unvalue(handle.nf, handle.structure_map(t))
            if li != i or not is_true(eq_strong(lx, x, 3)):
                ok = False
            for y in handle.exponent_values[i]:
                if not handle.tree_eq(apply_pval(lfn, y), handle.unfold(d, g(y)), 3):
                    ok = False
            # bounded uniqueness against the iterative reference
            for p in handle.paths_up_to(4):
                seed2, val = seed, None
                for label in p:
                    ii, _xx, gg = d(seed2)
                    jj, yy = project(label, handle.n)
                    if jj != ii:
                        val = UNDEF
                        break
                    seed2 = gg(yy)
                if val is None:
                    ii, xx, _gg = d(seed2)
                    val = inject(ii, handle.n, xx)
                if not is_true(eq_strong(handle.observe(t, p), val, 3)):
                    ok = False
    # counter stream observation at a length-k path equals k
    hs, ds = final_corpus()[0]
    t = hs.unfold(ds, 0)
    step = inject(0, 1, UNIT)
    for k in range(9):
        if hs.observe(t, (step,) * k) != nat(k):
            ok = False
    report(6, "unfold suite", ok)


def test_criterion_7_coproduct_encoding():
    ok = True
    for ty in (Bool(), Sum(Bool(), Bool()), Sum(Unit(), Nat())):
        for v in enumerate_ty(ty, nat_bound=3):
            t = encode_sum_as_triple(v)
            if decode_sum_triple(t) != v:
                ok = False
            if not triple_pattern_ok(t):
                ok = False
            f = lambda x: (x, 0)
            g = lambda x: (x, 1)
            if triple_copair(f, g, t) != sumcase(f, g, v):
                ok = False
    report(7, "coproduct triple encoding", ok)


def test_criterion_8_induction_via_fold():
    predicates = [
        lambda n: True,
        lambda n: n < 3,
        lambda n: n != 0,
        lambda n: n % 2 == 0 or n < 5,
        lambda n: n < 17,
    ]
    h = nat_algebra()
    ok = True
    for pred in predicates:
        q = h.primrec(
            [
                lambda w, ps, _p=pred: logical(_p(0)),
                lambda w, ps, _p=pred: logical(
                    holds(ps[0][1]) and _p(unchurch(ps[0][0]) + 1)
                ),
            ]
        )
        for n in range(21):
            expected = all(pred(m) for m in range(n + 1))
            if holds(q(church(h, n))) != expected:
                ok = False
    report(8, "induction via fold", ok)


def test_criterion_9_cpo_suite():
    ok = True
    bound = 8
    for a in range(bound - 1):
        for v in (nat(0), nat(2)):
            ch = lambda i, _a=a, _v=v: UNDEF if i < _a else _v
            if cpo_mod.chain_sup(cpo_mod.NAT_FLAT, ch, bound) != v:
                ok = False
    if cpo_mod.chain_sup(cpo_mod.NAT_FLAT, lambda i: UNDEF, bound) != UNDEF:
        ok = False

    carrier = cpo_mod.pfun_cpo(Nat(), cpo_mod.NAT_FLAT, nat_bound=9)

    def step(f):
        table = {nat(0): nat(1)}
        for n in range(1, 9):
            prev = apply_pval(f, nat(n - 1))
            if prev.defined():
                table[nat(n)] = nat(n * prev.n)
        return finmap(table)

    fact = cpo_mod.lfp(carrier, step, 32)
    if apply_pval(fact, nat(5)) != nat(120):
        ok = False
    candidates = [fact, carrier.bottom] + [
        finmap({nat(k): nat(k) for k in range(j)}) for j in range(1, 9)
    ]
    assert len(candidates) >= 10
    if cpo_mod.minimality_failures(carrier, step, fact, candidates) != []:
        ok = False

    from quasikernel.kernel import InlV, InrV

    s = cpo_mod.sum_cpo(cpo_mod.VERT, cpo_mod.NAT_FLAT)
    if cpo_mod.chain_sup(s, lambda i: InlV(FALSE) if i < 2 else InlV(TRUE), 6) != InlV(TRUE):
        ok = False
    try:
        cpo_mod.chain_sup(
            s, lambda i: InlV(TRUE) if i < 2 else InrV(nat(0)), 5
        )
        ok = False  # mixed tags must be rejected while Bool is flat
    except cpo_mod.MonotonicityViolation:
        pass
    report(9, "cpo suite", ok)


def test_criterion_10_domain_datatypes():
    ok = True
    h = InitialAlgebra(LIST2_NF)
    dom = cpo_mod.DomainInitial(h, [cpo_mod.UNIT_CPO, cpo_mod.VERT])

    def blist(values):
        t = h.construct(0, UNIT, [])
        for v in reversed(values):
            t = h.construct(1, v, [t])
        return t

    nil = blist([])
    pairs = [
        ((FALSE, [nil]), (TRUE, [nil])),
        ((FALSE, [blist([FALSE])]), (FALSE, [blist([TRUE])])),
        ((FALSE, [blist([FALSE])]), (TRUE, [blist([TRUE])])),
        ((TRUE, [nil]), (TRUE, [nil])),
    ]
    if dom.constructor_monotone_failures(1, pairs) != []:
        ok = False

    algebra = [
        lambda w, rs: FALSE,
        lambda x, rs: TRUE if TRUE in (x, rs[0]) else FALSE,
    ]
    chains = [
        [blist([FALSE]), blist([TRUE])],
        [blist([FALSE, FALSE]), blist([FALSE, TRUE]), blist([TRUE, TRUE])],
        [nil, nil],
    ]
    if dom.fold_continuity_failures(algebra, cpo_mod.VERT, chains) != []:
        ok = False
    for chain in chains:
        if not h.is_in_T(dom.chain_sup(chain)):
            ok = False

    fh = FinalCoalgebra(ExtPolyNF(((Bool(), Unit()),)))
    fdom = cpo_mod.DomainFinal(fh, [cpo_mod.VERT])

    def d(z):
        return 0, TRUE if z >= 1 else FALSE, lambda _y: z

    if fdom.unfold_monotone_failures(d, [(0, 1), (0, 0), (1, 1)]) != []:
        ok = False
    if fdom.closure_failures([[fh.unfold(d, 0), fh.unfold(d, 1)]], depth=3) != []:
        ok = False
    report(10, "domain datatypes", ok)


def test_criterion_11_lab_certifications():
    ok = True
    zero, one = lab.initial(lab.SPAP), lab.terminal(lab.SPAP)
    m = lab.hom_set(zero, one)[0]
    if lab.is_regular_mono(m):
        ok = False
    if lab.regular_hull(m) != lab.spap_obj((), [()]):
        ok = False

    one_empty = lab.spap_obj((0,), [])
    cmp = lab.mtype_vs_extpoly_compare(one, one_empty, one_empty)
    if not (cmp.ext_card >= 1 and cmp.general_card == 0):
        ok = False

    import itertools

    for size in range(5):
        atoms = tuple(range(size))
        off = [(x, y) for x in atoms for y in atoms if x != y]
        for r in range(len(off) + 1):
            for edges in itertools.combinations(off, r):
                o = lab.rere_obj(atoms, edges)
                if lab.is_coarse(o) != (len(o.structure) == size * size):
                    ok = False

    if lab.is_coarse(lab.discrete(range(6))):
        ok = False
    report(11, "lab certifications", ok)


def test_criterion_12_negative_declarations():
    ok = True
    (d1,) = parse("free type L ::= abs(L -> L)")
    try:
        check_positivity(d1)
        ok = False
    except NegativeOccurrence:
        pass
    (d2,) = parse("free type L a ::= abs((L a -> a) -> a)")
    try:
        check_positivity(d2)
        ok = False
    except NegativeOccurrence:
        pass
    (d3,) = parse(
        "free type Tree a b ::= leaf a | branch(b -> List (Tree a b))"
    )
    check_positivity(d3)  # positive, but infinitely branching
    try:
        extract_functor(d3)
        ok = False
    except UnsupportedTypeFormer:
        pass
    report(12, "negative declarations", ok)
