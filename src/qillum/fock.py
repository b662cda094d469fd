"""Brute-force number-basis reference for the Gaussian receiver statistics.

Everything here works on explicitly truncated Fock spaces: the entangled
source is written out as Schmidt amplitudes, the idler amplifier as a
matrix exponential, background mixing as an explicit ancilla mode that is
traced out, and photon-count moments as plain trace evaluations.  The
module exists to validate the covariance-matrix pipeline at small
occupation numbers through an entirely independent route.

Truncation handling: intermediate states live in working spaces padded
well beyond the requested dimension, and every crop *discards* the
out-of-range amplitudes so the lost weight shows up in the reported trace
leakage instead of being silently reflected back into the kept block.
For moment comparisons the balanced receiver splitter is applied exactly,
by conjugating the count-difference observable (N+ - N- equals
a_R^dag a_I + a_I^dag a_R on the splitter inputs), which avoids any
output-side truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

from .illumination import CountStats, ScenarioParams

__all__ = [
    "LEAKAGE_WARNING_THRESHOLD",
    "TruncatedDensityMatrix",
    "thermal_probabilities",
    "tmsv_state",
    "squeeze_exponential",
    "squeeze_operator",
    "balanced_splitter_operator",
    "build_oracle_state",
    "oracle_count_stats",
    "receiver_count_moments",
    "log_negativity",
]

#: Reported leakage above this marks the result as untrustworthy.
LEAKAGE_WARNING_THRESHOLD = 1e-6

# Working-space pads beyond the requested dimension.  The amplified idler
# has the heaviest number tail (decay ratio (G^2*nu - 1)/(G^2*nu + 1),
# e.g. 7/9 at n_s = 0.5, G = 2), so it gets the largest pad.
_PAD_IDLER = 48
_PAD_MIX = 20


@dataclass(frozen=True, eq=False)
class TruncatedDensityMatrix:
    """Two-mode density matrix over |n1, n2> with n1, n2 in [0, dim).

    Row/column index is n1 * dim + n2.  ``leakage`` is the probability
    weight lost to truncation, so the trace equals 1 - leakage.
    """

    dim: int
    matrix: np.ndarray
    leakage: float

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 2:
            raise ValueError(f"truncation dimension must be an integer >= 2, got {self.dim}")
        m = np.array(self.matrix, dtype=complex)
        size = self.dim * self.dim
        if m.shape != (size, size):
            raise ValueError(f"matrix must be {size}x{size} for dim {self.dim}")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        trace = float(np.trace(m).real)
        if not (1.0 - self.leakage - 1e-10 <= trace <= 1.0 + 1e-10):
            raise ValueError(
                f"trace {trace} inconsistent with reported leakage {self.leakage}"
            )
        if np.linalg.eigvalsh(m).min() < -1e-9:
            raise ValueError("density matrix has a negative eigenvalue")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def leakage_warning(self) -> bool:
        return self.leakage > LEAKAGE_WARNING_THRESHOLD


class _WorkDims(NamedTuple):
    signal: int
    idler: int
    received: int
    ancilla: int


def _work_dims(dim: int) -> _WorkDims:
    return _WorkDims(
        signal=dim,
        idler=dim + _PAD_IDLER,
        received=dim + _PAD_MIX,
        ancilla=dim + _PAD_MIX,
    )


def thermal_probabilities(nbar: float, dim: int) -> np.ndarray:
    """Number distribution of a thermal state, truncated at ``dim``."""
    if not math.isfinite(nbar) or nbar < 0:
        raise ValueError(f"thermal brightness must be finite and >= 0, got {nbar}")
    if nbar == 0.0:
        probs = np.zeros(dim)
        probs[0] = 1.0
        return probs
    ratio = nbar / (nbar + 1.0)
    return (1.0 - ratio) * ratio ** np.arange(dim)


def tmsv_state(n_s: float, dim: int) -> np.ndarray:
    """Schmidt amplitudes of the two-mode squeezed vacuum, shape (dim, dim).

    Entry [n, m] is the amplitude of |n, m>; only the diagonal is nonzero,
    sqrt(1 - lam^2) * lam^n with lam = sqrt(n_s / (n_s + 1)).
    """
    if not math.isfinite(n_s) or n_s < 0:
        raise ValueError(f"mean photon number must be finite and >= 0, got {n_s}")
    lam = math.sqrt(n_s / (n_s + 1.0))
    amps = np.zeros((dim, dim))
    np.fill_diagonal(amps, math.sqrt(1.0 - lam**2) * lam ** np.arange(dim))
    return amps


def squeeze_exponential(r: float, dim: int) -> np.ndarray:
    """exp((r/2)(a^dag^2 - a^2)) with the generator truncated at ``dim``.

    Positive ``r`` amplifies the position quadrature by e^r on the state.
    The truncated generator is real antisymmetric, so the result is
    exactly orthogonal; the price is that amplitude which belongs above
    the truncation is folded back near the boundary.
    """
    raise_sq = np.zeros((dim, dim))
    for m in range(dim - 2):
        raise_sq[m + 2, m] = math.sqrt((m + 1) * (m + 2))
    return expm(0.5 * r * (raise_sq - raise_sq.T))


def squeeze_operator(r: float, dim_out: int, dim_in: int | None = None) -> np.ndarray:
    """Single-mode squeezer block <m|exp((r/2)(a^dag^2 - a^2))|n>.

    The block is cut from :func:`squeeze_exponential` evaluated in a
    working space twice the requested size, so the kept columns are
    accurate and amplitude pushed past ``dim_out`` is genuinely lost
    rather than folded back.
    """
    if dim_in is None:
        dim_in = dim_out
    work = 2 * max(dim_out, dim_in)
    return squeeze_exponential(r, work)[:dim_out, :dim_in]


# Bounded because theta changes with every kappa.  One dim-60 oracle state
# touches 187 sectors at pi/4 and 139 at its theta, well under the bound.
@lru_cache(maxsize=512)
def _bs_sector_unitary(n_total: int, theta: float) -> np.ndarray:
    """Beam-splitter unitary restricted to the n_total-photon sector.

    Basis |k, n_total - k>, k = 0..n_total; the generator
    theta*(a^dag b - a b^dag) conserves total photon number, so each
    sector exponentiates exactly in finite dimension.
    """
    ladder = np.zeros((n_total + 1, n_total + 1))
    for k in range(n_total):
        ladder[k + 1, k] = math.sqrt((k + 1) * (n_total - k))
    u = expm(theta * (ladder - ladder.T))
    u.flags.writeable = False
    return u


def balanced_splitter_operator(
    dims_in: tuple[int, int], dims_out: tuple[int, int]
) -> sp.csr_matrix:
    """Exact 50-50 splitter matrix elements between two-mode Fock boxes.

    Returns the (possibly non-square) operator mapping the input box to
    the output box; elements scattered outside the output box are dropped,
    so the operator is a contraction whose deficit is honest truncation
    loss.  Output mode 1 is (in + idler)/sqrt(2).
    """
    d1i, d2i = dims_in
    d1o, d2o = dims_out
    rows, cols, vals = [], [], []
    for n_total in range(d1i + d2i - 1):
        u = _bs_sector_unitary(n_total, math.pi / 4.0)
        k_in = np.arange(max(0, n_total - d2i + 1), min(n_total, d1i - 1) + 1)
        k_out = np.arange(max(0, n_total - d2o + 1), min(n_total, d1o - 1) + 1)
        if len(k_in) == 0 or len(k_out) == 0:
            continue
        block = u[np.ix_(k_out, k_in)]
        r = k_out * d2o + (n_total - k_out)
        c = k_in * d2i + (n_total - k_in)
        rows.append(np.repeat(r, len(c)))
        cols.append(np.tile(c, len(r)))
        vals.append(block.ravel())
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(d1o * d2o, d1i * d2i),
    )


def _signal_idler_amplitudes(p: ScenarioParams, dims: _WorkDims) -> np.ndarray:
    """Amplitudes psi[s, i] of the source after idler amplification."""
    psi = tmsv_state(p.n_s, dims.signal)
    if p.gain.linear != 1.0:
        sq = squeeze_operator(math.log(p.gain.linear), dims.idler, dims.signal)
        psi = psi @ sq.T
    else:
        psi = np.pad(psi, ((0, 0), (0, dims.idler - dims.signal)))
    return psi


def _branch_blocks(
    p: ScenarioParams, dims: _WorkDims, target_present: bool
) -> Iterator[np.ndarray]:
    """Yield matrices Q_k whose Gram sum is the received-idler state.

    Each block is real with row index (received * dims.idler + idler);
    sum_k Q_k Q_k^T equals the two-mode density matrix in the working box.
    """
    psi = _signal_idler_amplitudes(p, dims)
    if not target_present:
        probs = thermal_probabilities(p.n_b, dims.received)
        for m in range(dims.received):
            if probs[m] == 0.0:
                continue
            block = np.zeros((dims.received * dims.idler, dims.signal))
            block[m * dims.idler : (m + 1) * dims.idler, :] = math.sqrt(probs[m]) * psi.T
            yield block
        return
    theta = math.acos(math.sqrt(p.kappa))
    probs = thermal_probabilities(p.n_b / (1.0 - p.kappa), dims.ancilla)
    for n in range(dims.ancilla):
        if probs[n] == 0.0:
            continue
        width = n + dims.signal
        phi = np.zeros((dims.received, dims.idler, width))
        for s in range(dims.signal):
            n_total = s + n
            column = _bs_sector_unitary(n_total, theta)[:, s]
            r_top = min(n_total, dims.received - 1)
            r = np.arange(r_top + 1)
            phi[r, :, n_total - r] += column[: r_top + 1, None] * psi[s][None, :]
        yield math.sqrt(probs[n]) * phi.reshape(dims.received * dims.idler, width)


def _interference_operator(dim_a: int, dim_b: int) -> sp.csr_matrix:
    """a^dag b + b^dag a on the joint space: the count difference N+ - N-
    of the balanced splitter outputs, pulled back to the splitter inputs."""
    a = sp.diags(np.sqrt(np.arange(1, dim_a)), 1)
    b = sp.diags(np.sqrt(np.arange(1, dim_b)), 1)
    cross = sp.kron(a.T, b)
    return (cross + cross.T).tocsr()


def receiver_count_moments(
    p: ScenarioParams, dim: int, target_present: bool
) -> tuple[CountStats, float]:
    """Count-difference mean and variance at the receiver, plus leakage.

    The state is built in the padded working box and the balanced splitter
    enters exactly, through the interference observable; the returned
    leakage is the probability weight the working box could not hold.
    This is the high-accuracy route used to validate the covariance
    pipeline.
    """
    if dim < 2:
        raise ValueError(f"truncation dimension must be >= 2, got {dim}")
    dims = _work_dims(dim)
    w = _interference_operator(dims.received, dims.idler)
    mean = second = trace = 0.0
    for block in _branch_blocks(p, dims, target_present):
        wq = w @ block
        mean += float(np.sum(block * wq))
        second += float(np.sum(wq * wq))
        trace += float(np.sum(block * block))
    return CountStats(mean=mean, variance=second - mean**2), max(0.0, 1.0 - trace)


def build_oracle_state(
    p: ScenarioParams, dim: int, target_present: bool
) -> TruncatedDensityMatrix:
    """Post-splitter receiver state truncated to a (dim, dim) Fock box.

    The pipeline (source, idler amplification, background mixing with an
    explicit traced-out ancilla, balanced splitter) runs in the padded
    working box; the final state is then projected onto the requested box
    and the discarded weight reported as leakage.  Check ``leakage``
    before trusting moments taken on the returned state: the count
    variance weights the clipped tail by its squared photon number, so
    box moments degrade roughly as leakage times the squared box edge.
    """
    if dim < 2:
        raise ValueError(f"truncation dimension must be >= 2, got {dim}")
    dims = _work_dims(dim)
    splitter = balanced_splitter_operator((dims.received, dims.idler), (dim, dim))
    rho = np.zeros((dim * dim, dim * dim))
    for block in _branch_blocks(p, dims, target_present):
        out = splitter @ block
        rho += out @ out.T
    leakage = max(0.0, 1.0 - float(np.trace(rho)))
    return TruncatedDensityMatrix(dim=dim, matrix=rho.astype(complex), leakage=leakage)


def oracle_count_stats(state: TruncatedDensityMatrix) -> CountStats:
    """Exact trace evaluation of mean and variance of N1 - N2 on the
    truncated state (no renormalization); the state's ``leakage`` field
    reports the accompanying truncation loss."""
    dim = state.dim
    diff = (np.repeat(np.arange(dim), dim) - np.tile(np.arange(dim), dim)).astype(float)
    populations = np.diag(state.matrix).real
    mean = float(diff @ populations)
    second = float((diff * diff) @ populations)
    variance = second - mean**2
    if variance < -1e-9:
        raise ValueError("count-difference variance came out negative")
    return CountStats(mean=mean, variance=max(variance, 0.0))


def log_negativity(state: TruncatedDensityMatrix) -> float:
    """Logarithmic negativity log2 ||rho^T2||_1; positive certifies
    entanglement across the mode cut."""
    d = state.dim
    pt = (
        state.matrix.reshape(d, d, d, d)
        .transpose(0, 3, 2, 1)
        .reshape(d * d, d * d)
    )
    return float(np.log2(np.sum(np.abs(np.linalg.eigvalsh(pt)))))
