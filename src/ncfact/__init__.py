"""Exact counting and verification for noncrossing-partition factorizations
of Coxeter elements in well-generated reflection groups.

The lattice modules (kernels, rootdata, closedform, groups, ncp, facto) and
the identity suite (verify) sit in sys.modules from the start but run on
first attribute access, through importlib's LazyLoader, and the public
names resolve through a PEP 562 `__getattr__`.  So `import
ncfact.cli` runs only this package, errors, families, report and cli; see
cli for what each command runs.  Lazy modules, not imports inside
functions, because the benchmark's tracer finds the modules in sys.modules
and patches them there.
"""

import importlib.util
import sys

__version__ = "0.1.0"

for _name in ("kernels", "rootdata", "closedform", "groups", "ncp", "facto",
              "verify"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)  # only marks it to run on first use
    sys.modules[_spec.name] = globals()[_name] = _module

# the modules that define the public names, in import order: each binds
# names only from those before it, so the first that has a name defines it
_HOMES = ("errors", "families", "closedform", "groups", "ncp", "facto")


def __getattr__(name):
    if name in __all__:
        for home in _HOMES:
            module = importlib.import_module(f"{__name__}.{home}")
            if hasattr(module, name):
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


__all__ = [
    "__version__",
    "BudgetExceeded", "IndexOutOfRange", "NcfactError", "NonIntegerResult",
    "NoTableRow", "NotInNC", "NotLengthTwo", "ParseError", "RankTooSmall",
    "UnsupportedGroup",
    "GroupSpec", "parse_group",
    "ClassId", "Element", "Group", "build_group",
    "NcClass", "NcPoset", "build_nc", "count_multichains", "fuss_catalan",
    "strata_codim2",
    "LLRow", "concatenation_fibers",
    "count_fact_by_composition", "count_fact_k", "count_reduced",
    "derived_degree", "enumerate_by_composition", "enumerate_reduced",
    "hurwitz_move", "hurwitz_orbit", "make_factorization", "r_lambda",
    "submaximal_by_class",
    "ExpectedRow", "deg_discriminant", "deg_jacobian", "expected_ll_data",
    "ll_number", "prefactor_of", "submax_total", "sum_derived_degrees",
    "table_records",
]
