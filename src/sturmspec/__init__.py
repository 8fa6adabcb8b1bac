"""Sturmian and substitution Schrodinger operator numerics.

Exact word combinatorics (substitutions, continued fractions, standard
words, circle-map codings) feeding a numerical spectral layer: transfer
matrix cocycles, Lyapunov exponents, periodic-approximant band spectra, and
two-block stability certificates.
"""

from .circlemap import (
    AT_ONE_MINUS_BETA,
    AT_ZERO,
    CircleParams,
    boundary_limit_window,
    circle_potential_window,
    discontinuity_indices,
    hull_factor_comparison,
)
from .errors import (
    BoundaryAmbiguityError,
    InvalidInputError,
    NumericError,
    SturmSpecError,
)
from .potentials import (
    PotentialWindow,
    constant_window,
    periodic_window,
    window_from_word,
)
from .spectrum import (
    BandSpectrum,
    band_samples,
    band_spectrum,
    intersect_intervals,
    intersection_measure,
    interval_measure,
    sturmian_band_spectrum,
    trace_bound_scan,
    union_intervals,
    zero_lyapunov_check,
)
from .stability import (
    GordonCertificate,
    MeasureBoundReport,
    gordon_certificate,
    stability_measure_bound,
)
from .sturmian import (
    ContinuedFraction,
    StandardWordTower,
    c_alpha_prefix,
    convergents,
    parse_cf_spec,
    periodic_coefficients,
    standard_words,
    verify_conjugation_identity,
    window_coverage_check,
)
from .transfer import (
    LyapunovEstimate,
    TransferState,
    lyapunov_estimate,
    sturmian_traces,
    transfer_product,
)
from .words import (
    SUBSTITUTION_TABLE,
    Substitution,
    Word,
    factor_set,
    fixed_point_prefix,
    parse_substitution,
    substitute,
)

__version__ = "0.1.0"
