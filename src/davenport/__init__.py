"""Exact Davenport-constant computation for finite commutative semigroups.

The package builds the multiplicative semigroup of F_p[x]/<f(x)>, adjoined-zero
cyclic semigroups and their products, computes Davenport constants by pruned
exhaustive search, and mechanically verifies that D(S) = D(U(S)) on the
families where that identity is provable, including the constructive
reduction procedures that witness it.
"""

from .gfpoly import (
    Factorization,
    Poly,
    factor,
    is_prime,
    monic_polys,
    poly,
    poly_divrem,
    poly_mul,
    primitive_root,
)
from .semigroup import (
    INF,
    CrtDecomposition,
    FiniteSemigroup,
    HypothesisViolation,
    UnitGroup,
    build_abelian_group,
    build_cyclic_group,
    build_cyclic_with_zero,
    build_product,
    build_quotient_semigroup,
    crt_decompose,
    is_group,
    units_of,
)
from .zerosum import (
    DavenportResult,
    MonteCarloReport,
    Sequence,
    davenport_exact,
    davenport_group_formula,
    davenport_montecarlo_upper,
    find_reduction,
    is_reducible,
    is_zero_sum_free,
    proper_subsums,
    random_sequence,
    sigma,
    sumset,
)

__version__ = "0.1.0"

__all__ = [
    "Factorization",
    "Poly",
    "factor",
    "is_prime",
    "monic_polys",
    "poly",
    "poly_divrem",
    "poly_mul",
    "primitive_root",
    "INF",
    "CrtDecomposition",
    "FiniteSemigroup",
    "HypothesisViolation",
    "UnitGroup",
    "build_abelian_group",
    "build_cyclic_group",
    "build_cyclic_with_zero",
    "build_product",
    "build_quotient_semigroup",
    "crt_decompose",
    "is_group",
    "units_of",
    "DavenportResult",
    "MonteCarloReport",
    "Sequence",
    "davenport_exact",
    "davenport_group_formula",
    "davenport_montecarlo_upper",
    "find_reduction",
    "is_reducible",
    "is_zero_sum_free",
    "proper_subsums",
    "random_sequence",
    "sigma",
    "sumset",
    "__version__",
]
