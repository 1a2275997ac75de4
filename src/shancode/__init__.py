"""Exact and asymptotic average redundancy of the Shannon code for Markov sources."""

from .asymptotics import (
    ModeClassification,
    Prediction,
    classify_mode,
    oscillation_argument,
    predict,
)
from .exact import ZERO, ExactProb, Log2Value, approximate_rational, ceil_defect, parse_prob_spec
from .oracle import (
    RedundancyValue,
    exact_redundancy,
    exact_redundancy_range,
    monte_carlo_redundancy,
    monte_carlo_redundancy_range,
)
from .sources import (
    ChainStructure,
    MarkovSource,
    ValidationReport,
    classify_structure,
    is_dyadic,
    log2_prob,
    stationary_distribution,
    validate,
)
from .spectral import (
    OscillationSearch,
    SpectralReport,
    char_fn,
    char_fn_stack,
    eigen,
    find_oscillation_order,
    initial_phase_vector,
    phase_matrix,
    phase_stack,
)

__version__ = "0.1.0"
