"""Linear complexity and k-error linear complexity of 2^n-periodic binary sequences."""

import importlib

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
    LSubcase,
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
    Exhaustive,
    RefutationReport,
    RefutationRow,
    Sampled,
    SequenceClass,
    census_distribution,
    class_size,
    formula_counts,
    proportion_interval,
    refutation_report,
    verify_formulas,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_EXPONENT",
    "CensusQuery",
    "CensusReport",
    "CensusRow",
    "Exhaustive",
    "KErrorResult",
    "LDecomposition",
    "LKind",
    "LSubcase",
    "PeriodicSequence",
    "RefutationReport",
    "RefutationRow",
    "Sampled",
    "SequenceClass",
    "census_distribution",
    "class_size",
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


def __getattr__(name):
    # Every other name of __all__ is bound above, so one that reaches here
    # is kerror's: loaded on first use, as it loads numpy.  import_module,
    # since `from . import kerror` would look the name up here again.
    if name == "kerror" or name in __all__:
        kerror = importlib.import_module(".kerror", __name__)
        return kerror if name == "kerror" else getattr(kerror, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
