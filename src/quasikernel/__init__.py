"""Partial lambda-calculus kernel with constructed datatypes and process types.

Modules:
  kernel    partial values, strict evaluation of the five parsed term forms,
            existential and strong equality on values
  report    check results, the unit of every command's report
  functors  signature functors, the two normal forms, fmap and sums
  initial   list objects and finite-tree initial algebras with fold
  final     path-map final coalgebras with unfold, and finite M-types
  surface   declaration language, positivity, extraction, elaboration
  cpo       partial-chain domains, fixed points, datatypes as cpos
  lab       finite reflexive-relation and subset-space categories, and
            the certifications behind ``lab``
  checks    bounded check suites over the constructions
  cli       command-line front end

Each module imports only the layers below it, in the order above.  The
package itself imports none: ``quasikernel.cpo`` loads ``cpo`` (and what
it imports) on first access, so a command loads only the modules it runs.
"""

import sys

__all__ = [
    "checks",
    "cli",
    "cpo",
    "final",
    "functors",
    "initial",
    "kernel",
    "lab",
    "report",
    "surface",
]


def __getattr__(name: str):
    if name in __all__:
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
