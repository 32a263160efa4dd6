"""Linear complexity and k-error linear complexity of 2^n-periodic binary sequences."""

from .core import (
    MAX_EXPONENT,
    PeriodicSequence,
    games_chan_lc,
    lc_by_minimal_polynomial,
    lc_pair,
    lc_quad,
    parse_binary,
    parse_hex,
)
from .counting import (
    LDecomposition,
    LKind,
    decompose_L,
    kavuluru_table1,
    n1_lcfull,
    n2_lcless,
    n3_lcfull,
    rueppel_count,
)
from .census import (
    CensusQuery,
    CensusReport,
    CensusRow,
    RefutationReport,
    RefutationRow,
    Sampled,
    SequenceClass,
    census_distribution,
    formula_counts,
    proportion_interval,
    refutation_report,
    verify_formulas,
)
from .kerror import KErrorResult, k_error_lc, k_error_profile, k_min_formula

__version__ = "0.1.0"

__all__ = [
    "MAX_EXPONENT",
    "CensusQuery",
    "CensusReport",
    "CensusRow",
    "KErrorResult",
    "LDecomposition",
    "LKind",
    "PeriodicSequence",
    "RefutationReport",
    "RefutationRow",
    "Sampled",
    "SequenceClass",
    "census_distribution",
    "decompose_L",
    "formula_counts",
    "games_chan_lc",
    "k_error_lc",
    "k_error_profile",
    "k_min_formula",
    "kavuluru_table1",
    "lc_by_minimal_polynomial",
    "lc_pair",
    "lc_quad",
    "n1_lcfull",
    "n2_lcless",
    "n3_lcfull",
    "parse_binary",
    "parse_hex",
    "proportion_interval",
    "refutation_report",
    "rueppel_count",
    "verify_formulas",
]

