"""qillum: entangled-probe target detection with a parametrically amplified idler.

A small library covering the full detection chain: two-mode
Gaussian state algebra, phase-sensitive idler amplification, the noisy
return channel, balanced-splitter photon counting, error probabilities
against the coherent-state homodyne benchmark, a truncated number-basis
oracle, and seeded Monte Carlo validation.  numpy is imported where an
array or a 4x4 matrix is first met, so a single-point report runs on
``math`` alone.
"""

from .fock import receiver_count_moments
from .gaussian import (
    CrossCorrelations,
    GainSpec,
    TwoModeCovariance,
    amplify_mode,
    apply_target_channel,
    balanced_beam_splitter,
    cross_correlations,
    min_ppt_symplectic_eigenvalue,
    symplectic_eigenvalues,
    tmsv_covariance,
)
from .illumination import (
    CountStats,
    DetectionReport,
    Regime,
    RegimeReport,
    ScenarioParams,
    classify_regime,
    count_difference_stats,
    detection_report,
    gain_prefactor,
    hypothesis_covariances,
    per_mode_count_stats,
    receiver_stats,
    snr_csh_closed_form,
    snr_qi_closed_form,
)
from .montecarlo import (
    ErrorProbabilityEstimate,
    TrialConfig,
    estimate_error_probability,
)

__version__ = "0.1.0"
