"""Exact counting and verification for noncrossing-partition factorizations
of Coxeter elements in well-generated reflection groups."""

__version__ = "0.1.0"

from ncfact.errors import (BudgetExceeded, IndexOutOfRange, NcfactError,
                           NonIntegerResult, NoTableRow, NotInNC,
                           NotLengthTwo, ParseError, RankTooSmall,
                           UnsupportedGroup)
from ncfact.families import GroupSpec, parse_group
from ncfact.groups import ClassId, Element, Group, build_group
from ncfact.ncp import (NcClass, NcPoset, build_nc, count_multichains,
                        strata_codim2)
from ncfact.facto import (Factorization, LLRow, concatenation_fibers,
                          count_fact_by_composition, count_fact_k,
                          count_reduced, derived_degree,
                          enumerate_by_composition, enumerate_reduced,
                          hurwitz_move, hurwitz_orbit, make_factorization,
                          r_lambda, submaximal_by_class)
from ncfact.closedform import (ExpectedRow, deg_discriminant, deg_jacobian,
                               expected_ll_data, fuss_catalan, ll_number,
                               prefactor_of, submax_total,
                               sum_derived_degrees, table_records)

__all__ = [
    "__version__",
    "BudgetExceeded", "IndexOutOfRange", "NcfactError", "NonIntegerResult",
    "NoTableRow", "NotInNC", "NotLengthTwo", "ParseError", "RankTooSmall",
    "UnsupportedGroup",
    "GroupSpec", "parse_group",
    "ClassId", "Element", "Group", "build_group",
    "NcClass", "NcPoset", "build_nc", "count_multichains", "fuss_catalan",
    "strata_codim2",
    "Factorization", "LLRow", "concatenation_fibers",
    "count_fact_by_composition", "count_fact_k", "count_reduced",
    "derived_degree", "enumerate_by_composition", "enumerate_reduced",
    "hurwitz_move", "hurwitz_orbit", "make_factorization", "r_lambda",
    "submaximal_by_class",
    "ExpectedRow", "deg_discriminant", "deg_jacobian", "expected_ll_data",
    "ll_number", "prefactor_of", "submax_total", "sum_derived_degrees",
    "table_records",
]
