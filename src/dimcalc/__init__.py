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

# Every public name, once, under the module that defines it.  ``import
# dimcalc`` binds the ``decorated`` row; every other row is bound on the
# first read of any of its names (PEP 562), so that later reads are plain
# attribute lookups.
_SERVED = {
    "decorated": (
        "INF",
        "BasisKind",
        "BocksteinGroup",
        "DecoratedNumber",
        "Decoration",
        "DimensionType",
        "ExtNat",
        "NotRepresentableError",
        "ValidityError",
        "boltyanskii_type",
        "constant",
    ),
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
_HOME = {name: module for module, names in _SERVED.items() for name in names}


def _bind(module: str):
    namespace = _import_module(f"{__name__}.{module}")
    globals().update({name: getattr(namespace, name) for name in _SERVED[module]})
    return namespace


def __getattr__(name: str):
    module = name if name in _SERVED else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = _bind(module)
    return namespace if name == module else globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_SERVED, *_HOME})


_bind("decorated")

__version__ = "0.1.0"

# INF first, then code-point order
__all__ = [*sorted(_HOME, key=lambda name: (not name.isupper(), name)), "__version__"]
