"""Partial lambda-calculus kernel with constructed datatypes and process types.

Modules:
  kernel    partial values, strict evaluation, restriction, two equalities
  functors  signature functors, the two normal forms, fmap and sums
  surface   declaration language, positivity, extraction, elaboration
  initial   list objects and finite-tree initial algebras with fold
  final     path-map final coalgebras with unfold, and finite M-types
  cpo       partial-chain domains, fixed points, datatypes as cpos
  lab       finite reflexive-relation and subset-space categories
  cli       command-line front end
"""

# cli is not imported here, so that ``python -m quasikernel.cli`` runs it
# fresh; ``from quasikernel import cli`` still loads it on demand.
from . import checks, cpo, final, functors, initial, kernel, lab, surface

__all__ = [
    "checks",
    "cli",
    "cpo",
    "final",
    "functors",
    "initial",
    "kernel",
    "lab",
    "surface",
]
