"""dimcalc: exact arithmetic for cohomological dimension types.

The package computes with decorated dimension types over the Bockstein
family of groups, derives Bockstein bases of abelian coefficient groups,
and replays the bound arithmetic of the product, union, decomposition
and fiber theorems as verifiable reports.  See the README for the
expression language and the command line interface.

``import dimcalc`` loads the calculus (``decorated``); every other name
loads its module on first read.
"""

from importlib import import_module as _import_module

from .decorated import (
    INF,
    BasisKind,
    BocksteinGroup,
    DecoratedNumber,
    Decoration,
    DimensionType,
    ExtNat,
    NotRepresentableError,
    ValidityError,
    boltyanskii_type,
    constant,
)

# The names each submodule serves, bound here on the first read of any of
# them (PEP 562), so that later reads are plain attribute lookups.
_ON_FIRST_READ = {
    "exprs": (
        "EvaluationError",
        "Expr",
        "ParseError",
        "TypeMismatchError",
        "evaluate_expr",
        "free_parameters",
        "kind_of",
        "parse",
        "render",
    ),
    "groups": (
        "Cyclic",
        "DirectSum",
        "Free",
        "GroupExpr",
        "LocalizedIntegers",
        "PadicCircle",
        "Presented",
        "PrimePredicate",
        "Rationals",
        "SigmaSet",
        "StructuralProfile",
        "bockstein_basis",
        "dim_with_coefficients",
        "profile",
        "smith_normal_form",
    ),
    "harness": (
        "Claim",
        "ClaimResult",
        "LawReport",
        "Scenario",
        "ScenarioReport",
        "SweepReport",
        "builtin_scenario",
        "builtin_scenario_names",
        "check_algebra_laws",
        "cube_theorem_sweep",
        "decomposition_bound_holds",
        "fiber_bound",
        "random_dimension_type",
        "random_type_above",
        "run_scenario",
        "uniform_types",
        "union_bound",
    ),
}
_HOME = {name: module for module, names in _ON_FIRST_READ.items() for name in names}


def __getattr__(name: str):
    module = name if name in _ON_FIRST_READ else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = _import_module(f"{__name__}.{module}")
    globals().update({served: getattr(namespace, served) for served in _ON_FIRST_READ[module]})
    return namespace if name == module else globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_ON_FIRST_READ, *_HOME})


__version__ = "0.1.0"

__all__ = [
    "INF",
    "BasisKind",
    "BocksteinGroup",
    "Claim",
    "ClaimResult",
    "Cyclic",
    "DecoratedNumber",
    "Decoration",
    "DimensionType",
    "DirectSum",
    "EvaluationError",
    "Expr",
    "ExtNat",
    "Free",
    "GroupExpr",
    "LawReport",
    "LocalizedIntegers",
    "NotRepresentableError",
    "PadicCircle",
    "ParseError",
    "Presented",
    "PrimePredicate",
    "Rationals",
    "Scenario",
    "ScenarioReport",
    "SigmaSet",
    "StructuralProfile",
    "SweepReport",
    "TypeMismatchError",
    "ValidityError",
    "bockstein_basis",
    "boltyanskii_type",
    "builtin_scenario",
    "builtin_scenario_names",
    "check_algebra_laws",
    "constant",
    "cube_theorem_sweep",
    "decomposition_bound_holds",
    "dim_with_coefficients",
    "evaluate_expr",
    "fiber_bound",
    "free_parameters",
    "kind_of",
    "parse",
    "profile",
    "random_dimension_type",
    "random_type_above",
    "render",
    "run_scenario",
    "smith_normal_form",
    "uniform_types",
    "union_bound",
    "__version__",
]
