"""Receiver statistics and detection performance for the illumination protocol.

Builds the hypothesis-conditioned covariance matrices (target absent or
present), turns them into photon-count-difference statistics at the
balanced-splitter receiver, and produces decision thresholds, error
probabilities, closed-form signal-to-noise ratios and the coherent-state
homodyne benchmark.  Count statistics come from the closed form
:func:`receiver_stats`; the covariance route is the derivation it is
checked against.  Everything broadcasts, so array fields make a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gaussian import (
    GainSpec,
    TwoModeCovariance,
    _item,
    _per_element,
    _real,
    _require,
    amplify_mode,
    apply_target_channel,
    tmsv_covariance,
)

__all__ = [
    "CLT_MODE_THRESHOLD", "ScenarioParams", "CountStats", "DetectionReport", "Regime",
    "RegimeReport", "hypothesis_covariances", "count_difference_stats", "receiver_stats",
    "per_mode_count_stats", "detection_report", "gain_prefactor", "snr_qi_closed_form",
    "snr_csh_closed_form", "classify_regime",
]

#: Below this many mode pairs the Gaussian error-probability formula is
#: flagged as unreliable (reported, never rejected).
CLT_MODE_THRESHOLD = 100


@dataclass(frozen=True)
class ScenarioParams:
    """Physical knobs of one detection scenario.

    ``n_s``: signal brightness per mode; ``n_b``: background brightness;
    ``kappa``: target reflectance; ``gain``: idler amplifier gain;
    ``modes``: number of signal-idler mode pairs integrated by the
    receiver.  Fields may be arrays (integer for ``modes``) that broadcast
    together; a bool is refused and validation names the first bad element.
    Every real field, ``gain.linear`` too, is float64: a Python float if 0-d,
    else an array; ``modes`` is a Python int if 0-d, else a float64 array."""

    n_s: float
    n_b: float
    kappa: float
    gain: GainSpec
    modes: int

    def __post_init__(self):
        for name, what in (("n_s", "signal brightness"), ("n_b", "background brightness")):
            object.__setattr__(self, name, _real(getattr(self, name), what, 0))
        object.__setattr__(self, "kappa", _real(self.kappa, "reflectance", 0, 1))
        modes = np.asarray(self.modes, dtype=object)  # elements as given: a bool is no count
        modes_ok = [(type(m) is int or isinstance(m, np.integer)) and m >= 1
                    for m in modes.ravel().tolist()]
        _require(np.reshape(modes_ok, modes.shape), modes,
                 "mode count must be a positive integer, got {}")
        object.__setattr__(self, "modes", modes.astype(float) if modes.ndim else int(modes))

    @property
    def clt_reliable(self) -> bool:
        return self.modes >= CLT_MODE_THRESHOLD


@dataclass(frozen=True)
class CountStats:
    """Per-mode-pair mean and variance of the photodetector count difference."""

    mean: float
    variance: float


@dataclass(frozen=True)
class DetectionReport:
    """Decision threshold, error probability and both SNR conventions."""

    threshold: float
    p_error: float
    snr_closed_form: float
    snr_first_principles: float


class Regime(Enum):
    QUANTUM_ADVANTAGE = "QUANTUM_ADVANTAGE"
    PARITY = "PARITY"
    DISADVANTAGE = "DISADVANTAGE"


@dataclass(frozen=True)
class RegimeReport:
    """Advisory regime label plus the exact SNR ratio it is based on."""

    regime: Regime
    ratio: float


#: math.erfc per element; numpy has no erfc ufunc and the package needs numpy alone.
_erfc = _per_element(math.erfc)


def hypothesis_covariances(
    p: ScenarioParams,
) -> tuple[TwoModeCovariance, TwoModeCovariance]:
    """Pre-receiver covariances under target-absent and target-present.

    Built compositionally: squeezed-vacuum source, amplification of the
    idler, then the return channel applied to the signal mode.
    """
    probe = amplify_mode(tmsv_covariance(p.n_s), 2, p.gain)
    v0 = apply_target_channel(probe, p.kappa, p.n_b, target_present=False)
    v1 = apply_target_channel(probe, p.kappa, p.n_b, target_present=True)
    return v0, v1


def count_difference_stats(state: TwoModeCovariance) -> CountStats:
    """Mean and variance of N1 - N2 for a zero-mean Gaussian state.

    Second and fourth moments of the photon numbers follow from Gaussian
    moment factorization of the quadratures:

        <N_j>        = (V_qq + V_pp - 1) / 2
        Var(N_j)     = (V_qq^2 + V_pp^2 + 2 V_qp^2) / 2 - 1/4
        Cov(N_1,N_2) = (V_q1q2^2 + V_p1p2^2 + V_q1p2^2 + V_p1q2^2) / 2

    The intended input is the state of the two fields entering the
    photodetectors, i.e. a balanced-splitter output.
    """
    m = state.matrix
    n1 = (m[0, 0] + m[1, 1] - 1.0) / 2.0
    n2 = (m[2, 2] + m[3, 3] - 1.0) / 2.0
    var1 = (m[0, 0] ** 2 + m[1, 1] ** 2 + 2.0 * m[0, 1] ** 2) / 2.0 - 0.25
    var2 = (m[2, 2] ** 2 + m[3, 3] ** 2 + 2.0 * m[2, 3] ** 2) / 2.0 - 0.25
    cov = (m[0, 2] ** 2 + m[1, 3] ** 2 + m[0, 3] ** 2 + m[1, 2] ** 2) / 2.0
    variance = var1 + var2 - 2.0 * cov
    if variance < -1e-9:
        raise ValueError("count-difference variance came out negative")
    return CountStats(mean=float(n1 - n2), variance=float(max(variance, 0.0)))


@np.errstate(over="ignore", invalid="ignore")  # detection_report rejects inf/nan
def receiver_stats(n_s, n_b, kappa, gain):
    """Per-mode-pair (mu0, var0, mu1, var1) of N+ - N- under (H0, H1), for
    linear gain G, broadcast over arrays: the closed form of the float64
    route ``count_difference_stats(balanced_beam_splitter(v))`` over
    ``hypothesis_covariances(p)``, with the splitter folded into the
    observable (N+ - N- = a1^dag a2 + a2^dag a1 on its inputs).  n2 and n1
    are the idler and received (H1) photon numbers.  Every sum adds
    non-negative terms and G - 1/G is formed by :func:`_g_minus`, so nothing
    cancels anywhere in the parameter range.
    """
    n_s, n_b, kappa, g = (np.asarray(v, dtype=float) for v in (n_s, n_b, kappa, gain))
    nu = 2.0 * n_s + 1.0
    c = 2.0 * np.sqrt(n_s * (n_s + 1.0))
    g_minus = _g_minus(g)
    n2 = (nu * np.square(g_minus) + 4.0 * n_s) / 4.0
    n1 = kappa * n_s + n_b
    picc = np.sqrt(kappa) * c * g_minus / 4.0
    pscc = np.sqrt(kappa) * c * (g + 1.0 / g) / 4.0
    var0 = 2.0 * n_b * n2 + n_b + n2
    var1 = 2.0 * np.square(picc) + 2.0 * np.square(pscc) + 2.0 * n1 * n2 + n1 + n2
    return np.broadcast_arrays(np.zeros_like(var0), var0, 2.0 * picc, var1)


def per_mode_count_stats(p: ScenarioParams) -> tuple[CountStats, CountStats]:
    """Receiver count-difference statistics under (H0, H1), per mode pair."""
    mu0, var0, mu1, var1 = map(_item, receiver_stats(p.n_s, p.n_b, p.kappa, p.gain.linear))
    return CountStats(mean=mu0, variance=var0), CountStats(mean=mu1, variance=var1)


def detection_report(p: ScenarioParams) -> DetectionReport:
    """Equal-prior discrimination performance for the full pipeline.

    The total count over ``modes`` pairs is treated as Gaussian with mean
    M*mu_i and variance M*sigma_i^2.  The threshold equalizes the two
    error rates; the error probability is
    erfc(sqrt(M/2) * (mu1 - mu0) / (sigma0 + sigma1)) / 2.

    ``snr_first_principles`` is (mu1 - mu0)^2 / (2 (sigma0 + sigma1)^2),
    consistent with that error probability via p = erfc(sqrt(M*snr))/2.
    ``snr_closed_form`` is the value of :func:`snr_qi_closed_form`, which
    equals (mu1 - mu0)^2 / (sigma0 + sigma1)^2 once the operator-ordering
    corrections (-1/2) are dropped from both variances; the two
    conventions differ by that factor of 2 and both are reported.
    """
    mu0, var0, mu1, var1 = receiver_stats(p.n_s, p.n_b, p.kappa, p.gain.linear)
    sd0, sd1 = np.sqrt(var0), np.sqrt(var1)
    if np.any(sd0 + sd1 == 0.0):
        raise ValueError("both hypotheses are noiseless; threshold undefined")
    if not np.all(np.isfinite(sd1)):
        raise ValueError("count statistics overflow float64 at this brightness")
    delta = mu1 - mu0
    threshold = p.modes * (mu0 * sd1 + mu1 * sd0) / (sd0 + sd1)
    p_error = 0.5 * _erfc(np.sqrt(p.modes / 2.0) * delta / (sd0 + sd1))
    return DetectionReport(
        threshold=_item(threshold),
        p_error=_item(p_error),
        snr_closed_form=snr_qi_closed_form(p),
        snr_first_principles=_item(np.square(delta) / (2.0 * np.square(sd0 + sd1))),
    )


def _g_minus(g):
    """G - 1/G as (G - 1)(G + 1)/G, which cancels nothing near G = 1."""
    return (g - 1.0) * (g + 1.0) / g


def gain_prefactor(gain: GainSpec) -> float:
    """Amplifier-dependent SNR prefactor (G - 1/G)^2 / (G^2 + 1/G^2).

    Formed as x / (x + 2) with x = (G - 1/G)^2, since G^2 + 1/G^2 = x + 2:
    no pow and no cancellation; zero at G = 1, monotone, approaching one.
    """
    g_minus = _g_minus(gain.linear)
    x = g_minus * g_minus  # np.square's arithmetic, without its cost on a scalar
    return x / (x + 2.0)


@np.errstate(over="ignore", invalid="ignore")
def snr_qi_closed_form(p: ScenarioParams) -> float:
    """Single-mode-pair SNR of the amplified-idler receiver (closed form)."""
    nu = 2.0 * p.n_s + 1.0
    c = 2.0 * np.sqrt(p.n_s * (p.n_s + 1.0))
    omega = 2.0 * p.n_b + 1.0
    gamma = 2.0 * p.kappa * p.n_s + omega
    kc2 = p.kappa * np.square(c)
    denom = np.square(np.sqrt(gamma * nu + kc2) + np.sqrt(nu * omega))
    return _item(gain_prefactor(p.gain) * kc2 / denom)


def snr_csh_closed_form(p: ScenarioParams) -> float:
    """Benchmark SNR of coherent-state homodyne detection at equal energy."""
    return p.kappa * p.n_s / (4.0 * p.n_b + 2.0)


def classify_regime(p: ScenarioParams) -> RegimeReport:
    """Label the operating regime and report the exact SNR ratio.

    Boundaries are the asymptotic crossovers n_s = 1 and n_s = n_b/kappa;
    the label is advisory while the ratio is ground truth.  At kappa = 0
    both SNRs vanish and the ratio is NaN.
    """
    qi = snr_qi_closed_form(p)
    csh = snr_csh_closed_form(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(csh > 0.0, np.divide(qi, csh), math.nan)
        regime = np.select(
            [p.n_s < 1.0, (p.kappa > 0.0) & (p.n_s > np.divide(p.n_b, p.kappa))],
            [Regime.QUANTUM_ADVANTAGE, Regime.DISADVANTAGE],
            Regime.PARITY,
        )
    return RegimeReport(regime=_item(regime), ratio=_item(ratio))
