"""Every public definition in ``src/`` is used there, or supports a claim.

A public module-level ``def`` or ``class``, or a public method of a
module-level class, counts as used when a ``Name``, an ``Attribute`` or an
import anywhere in ``src/quasikernel`` mentions it, outside its own
definition; a method's class is part of its definition.  The class of a
``case C(...)`` pattern is no mention: a class that is matched but never
built is unused.  The paper's constructions that no command runs yet are
listed below, grouped by the claim each one supports; their tests are in
``tests/``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quasikernel"

ALLOWED = {
    "criterion 5, the list object": ("initial.enc_cons", "initial.enc_fold", "initial.enc_from_list"),
    "criterion 7, coproducts as triples": (
        "functors.encode_sum_as_triple",
        "functors.decode_sum_triple",
        "functors.triple_pattern_ok",
        "functors.triple_copair",
        "functors.outl",
        "functors.outr",
    ),
    "criterion 8, bounded induction": ("initial.induction_via_fold", "initial.subtype_fold"),
    "criterion 10, datatypes and process types as cpos": (
        "initial.InitialAlgebra.is_in_T",
        "cpo.DomainInitial",
        "cpo.DomainInitial.constructor_monotone_failures",
        "cpo.DomainInitial.fold_continuity_failures",
        "cpo.DomainFinal",
        "cpo.DomainFinal.unfold_monotone_failures",
        "cpo.DomainFinal.closure_failures",
    ),
    "criterion 3, Lambek's lemma": ("initial.InitialAlgebra.lambek_inverse",),
    "partial case on a cotype's summand domains": ("final.FinalCoalgebra.cotype_case",),
    "M-types": (
        "final.MType",
        "final.ambient_ext_values",
        "final.ambient_general_poly_values",
        "final.ambient_iso",
    ),
    "functor action": ("functors.fmap",),
    "lab category structure": ("lab.identity",),
    "parameterised declarations (ROADMAP item 10)": (
        "surface.FreeTypeInfo.param_map",
        "surface.parse_functor",
        "surface.ElabEnv.instantiate",
    ),
}


def _units(stmt: ast.stmt) -> list[tuple[ast.AST, set]]:
    """The parts of a top-level statement whose mentions count, each with
    the names it defines: a class counts its header and each body statement
    apart, so a method that only its own class mentions is unused."""
    if not isinstance(stmt, ast.ClassDef):
        return [(stmt, {getattr(stmt, "name", None)})]
    header = [*stmt.bases, *stmt.keywords, *stmt.decorator_list]
    return [(node, {stmt.name, getattr(node, "name", None)}) for node in header + stmt.body]


def _scan() -> tuple[dict[str, str], dict[str, int]]:
    """Public module-level definitions and public methods of module-level
    classes, as ``module.name`` or ``module.Class.name`` to name, and how
    many parts of ``src/`` mention each name outside its own definition."""
    defs: dict[str, str] = {}
    mentions: dict[str, int] = {}
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defs[f"{path.stem}.{stmt.name}"] = stmt.name
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defs[f"{path.stem}.{stmt.name}.{item.name}"] = item.name
            for unit, own in _units(stmt):
                names = set()
                patterns = {id(n.cls) for n in ast.walk(unit) if isinstance(n, ast.MatchClass)}
                for node in ast.walk(unit):
                    if id(node) in patterns:
                        continue
                    if isinstance(node, ast.Name):
                        names.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        names.add(node.attr)
                    elif isinstance(node, ast.alias):
                        names.add(node.name)
                for name in names - own:
                    mentions[name] = mentions.get(name, 0) + 1
    return defs, mentions


def test_every_public_definition_is_used_or_supports_a_claim():
    defs, mentions = _scan()
    allowed = {q for names in ALLOWED.values() for q in names}
    unused = sorted(q for q, name in defs.items() if not mentions.get(name) and q not in allowed)
    assert unused == [], f"used nowhere in src/ and supporting no listed claim: {unused}"


def test_the_allowlist_names_only_unused_definitions():
    # a construction that a command comes to run leaves the list
    defs, mentions = _scan()
    for claim, names in ALLOWED.items():
        for q in names:
            assert q in defs, f"{q} ({claim}) is not defined"
            assert not mentions.get(defs[q]), f"{q} ({claim}) is used in src/; drop it from the list"
