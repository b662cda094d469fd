"""Brute-force number-basis reference for the Gaussian receiver statistics.

Everything here works on explicitly truncated Fock spaces: the entangled
source is written out as Schmidt amplitudes, the idler amplifier and the
target beam splitter as exponentials of their number-basis generators,
background mixing as an explicit ancilla mode that is traced out, and
photon-count moments as exact sums over (signal, ancilla) number pairs.
The module needs numpy alone and exists to validate the covariance-matrix
pipeline at small occupation numbers through an entirely independent route.

Both generators are real antisymmetric chains: the squeezer couples
|m> to |m+2> (an even and an odd chain), and the beam splitter couples
|k, n-k> to |k+1, n-k-1> within each n-photon sector.  A chain
exponentiates exactly through one symmetric tridiagonal eigenproblem.

Truncation handling: intermediate states live in working spaces padded
well beyond the requested dimension, and every crop *discards* the
out-of-range amplitudes so the lost weight shows up in the reported trace
leakage instead of being silently reflected back into the kept block.
The balanced receiver splitter is applied exactly, by conjugating the
count-difference observable (N+ - N- equals a_R^dag a_I + a_I^dag a_R on
the splitter inputs), which avoids any output-side truncation.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .illumination import CountStats, ScenarioParams

__all__ = [
    "LEAKAGE_WARNING_THRESHOLD",
    "MAX_SQUEEZE_WORK",
    "SqueezerTooLarge",
    "thermal_probabilities",
    "tmsv_state",
    "squeeze_exponential",
    "squeeze_operator",
    "receiver_count_moments",
]

#: Reported leakage above this marks the result as untrustworthy.
LEAKAGE_WARNING_THRESHOLD = 1e-6

#: Largest squeezer working space :func:`squeeze_operator` builds; its two dense
#: parity-chain eigenproblems take 64 MB at this size, enough for 30 dB at dim 60.
MAX_SQUEEZE_WORK = 4000


class SqueezerTooLarge(ValueError):
    """The gain needs a squeezer working space above ``MAX_SQUEEZE_WORK``."""


# Working-space pads beyond the requested dimension.  The amplified idler
# has the heaviest number tail (decay ratio (G^2*nu - 1)/(G^2*nu + 1),
# e.g. 7/9 at n_s = 0.5, G = 2), so it gets the largest pad.
_PAD_IDLER = 48
_PAD_MIX = 20


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


# Re(i^d) for cos(T) at even offsets d = k - j, Re(i^(d+1)) for sin(T) at odd d
_CHAIN_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


def _expm_chain(t: np.ndarray, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """exp(K)[:rows, :cols] for the real antisymmetric chain K[k+1, k] = -K[k, k+1] = t[k].

    K = D^-1 (iT) D with T the symmetric tridiagonal matrix of ``t`` and
    D = diag(i^k), so exp(K)[j, k] = Re(i^(k-j) (V e^(iL) V^T)[j, k]) from
    one real eigendecomposition T = V L V^T.  cos(T) lives on even offsets
    k - j and sin(T) on odd ones, so a single product V (cos L + sin L) V^T
    carries both and a sign pattern of period 4 in k - j finishes the job.
    Only the kept rows and columns of V enter the product.
    """
    lam, vec = np.linalg.eigh(np.diag(t, -1), UPLO="L")
    prod = (vec[:rows] * (np.cos(lam) + np.sin(lam))) @ vec[:cols].T
    j, k = np.ogrid[: prod.shape[0], : prod.shape[1]]
    return _CHAIN_SIGNS[(k - j) % 4] * prod


def squeeze_exponential(r: float, dim: int, rows: int | None = None,
                        cols: int | None = None) -> np.ndarray:
    """exp((r/2)(a^dag^2 - a^2)) with the generator truncated at ``dim``.

    Positive ``r`` amplifies the position quadrature by e^r on the state.
    The truncated generator is real antisymmetric, so the result is
    exactly orthogonal; the price is that amplitude which belongs above
    the truncation is folded back near the boundary.  The generator
    couples |m> to |m+2> only, so the even and the odd number states
    form two independent chains.  ``rows`` and ``cols`` (default ``dim``)
    keep the leading block, and only that block is formed.
    """
    shape = (dim if rows is None else rows, dim if cols is None else cols)
    m = np.arange(dim - 2)
    t = 0.5 * r * np.sqrt((m + 1.0) * (m + 2.0))
    u = np.zeros(shape)
    for parity in range(min(dim, 2)):
        u[parity::2, parity::2] = _expm_chain(t[parity::2], *((k + 1 - parity) // 2 for k in shape))
    return u


def squeeze_operator(r: float, dim_out: int, dim_in: int) -> np.ndarray:
    """Single-mode squeezer block <m|exp((r/2)(a^dag^2 - a^2))|n>.

    The block is cut from :func:`squeeze_exponential` evaluated in a
    working space large enough that amplitude pushed past ``dim_out`` is
    genuinely lost rather than folded back into the kept block.  The space
    is at least twice the block and grows linearly with the gain e^|r|, as
    the squeezed phase-space extent does; that holds every element to
    1e-12 (measured against a much wider space for blocks up to 108 x 60,
    gains up to 10).  The space is dense, so a gain that needs more than
    ``MAX_SQUEEZE_WORK`` raises :class:`SqueezerTooLarge` before anything
    is built.
    """
    gain = math.exp(abs(r))
    extent = (math.sqrt(dim_out) + math.sqrt(dim_in)) ** 2
    work = max(2 * max(dim_out, dim_in), math.ceil(gain * (0.3 * extent + 20.0)))
    if work > MAX_SQUEEZE_WORK:
        raise SqueezerTooLarge(
            f"gain {gain:g} needs a {work}-dim squeezer working space for a "
            f"{dim_out} x {dim_in} block, above the limit of {MAX_SQUEEZE_WORK}")
    return squeeze_exponential(r, work, dim_out, dim_in)


# Bounded because theta changes with every kappa.  The dim-60 H1 sector
# tables read 139 sectors, each exactly once, well under the bound.
@lru_cache(maxsize=512)
def _bs_sector_unitary(n_total: int, theta: float) -> np.ndarray:
    """Beam-splitter unitary restricted to the n_total-photon sector.

    Basis |k, n_total - k>, k = 0..n_total; the generator
    theta*(a^dag b - a b^dag) conserves total photon number, so each
    sector exponentiates exactly in finite dimension.
    """
    k = np.arange(n_total)
    u = _expm_chain(theta * np.sqrt((k + 1.0) * (n_total - k)))
    u.flags.writeable = False
    return u


def _signal_idler_amplitudes(p: ScenarioParams, dims: _WorkDims) -> np.ndarray:
    """Amplitudes psi[s, i] of the source after idler amplification."""
    psi = tmsv_state(p.n_s, dims.signal)
    if p.gain.linear == 1.0:
        return np.pad(psi, ((0, 0), (0, dims.idler - dims.signal)))
    return psi @ squeeze_operator(math.log(p.gain.linear), dims.idler, dims.signal).T


def _sector_tables(theta: float, n_top: int, rows: int, cols: int) -> np.ndarray:
    """Sums over r < min(N + 1, rows) at [N, s < cols], u_N = _bs_sector_unitary(N, theta).

    The five tables: u_N[r, s]^2 weighted by 1, r and (r + 1)[r <= rows - 2];
    sqrt(r) u_N[r, s] u_{N-1}[r-1, s-1]; sqrt(r (r - 1)) u_N[r, s] u_{N-2}[r-2, s-2].
    """
    n = n_top + 1
    u = np.zeros((n, rows, cols))
    for n_total in range(n):
        sector = _bs_sector_unitary(n_total, theta)[:rows, :cols]
        u[n_total, : sector.shape[0], : sector.shape[1]] = sector
    r = np.arange(float(rows))
    tables = np.zeros((5, n, cols))
    for k, (d, w) in enumerate([(0, np.ones(rows)), (0, r), (0, (r + 1.0) * (r < rows - 1)),
                                (1, np.sqrt(r)), (2, np.sqrt(r * (r - 1.0)))]):
        tables[k, d:, d:] = np.einsum("nrs,nrs,r->ns", u[d:, d:, d:],
                                      u[: n - d, : rows - d, : cols - d], w[d:])
    return tables


def receiver_count_moments(
    p: ScenarioParams, dim: int, target_present: bool
) -> tuple[CountStats, float]:
    """Count-difference mean and variance at the receiver, plus leakage.

    The state is built in the padded working box and the balanced splitter
    enters exactly, through the interference observable
    X = a_R^dag a_I + a_I^dag a_R; the returned leakage is the probability
    weight the working box could not hold.  Ancilla branch n sends signal s
    into sector N = s + n and X never touches the traced-out splitter port,
    so each moment sums p_n * (idler vector at s) * (sector table at [N, s]).
    """
    if dim < 2:
        raise ValueError(f"truncation dimension must be >= 2, got {dim}")
    dims = _work_dims(dim)
    psi = _signal_idler_amplitudes(p, dims)
    i = np.arange(float(dims.idler))
    weight = psi * psi
    occupied = weight.sum(axis=1)
    lowered = weight @ i  # <a_I^dag a_I> per signal number
    raised = weight[:, :-1] @ i[1:]  # <a_I a_I^dag> within the box
    if not target_present:
        # a thermal received mode independent of the idler: X shifts m, so the mean is 0
        probs = thermal_probabilities(p.n_b, dims.received)
        m = np.arange(float(dims.received))
        second = (probs[:-1] @ m[1:]) * lowered.sum() + (probs @ m) * raised.sum()
        return CountStats(0.0, float(second)), max(0.0, 1.0 - float(probs.sum() * occupied.sum()))
    # a weight that underflowed to zero touches no sector
    probs = np.trim_zeros(thermal_probabilities(p.n_b / (1.0 - p.kappa), dims.ancilla), "b")
    hops = np.zeros((2, dims.signal))  # 2 x idler overlaps of signal s with s - 1 and s - 2
    hops[0, 1:] = 2.0 * (psi[1:, :-1] * psi[:-1, 1:]) @ np.sqrt(i[1:])
    hops[1, 2:] = 2.0 * (psi[2:, :-2] * psi[:-2, 2:]) @ np.sqrt(i[1:-1] * i[2:])
    tables = _sector_tables(math.acos(math.sqrt(p.kappa)), dims.signal + len(probs) - 2,
                            dims.received, dims.signal)
    n, s = np.ogrid[: len(probs), : dims.signal]
    trace, down, up, mean, cross = np.einsum(
        "n,kns,ks->k", probs, tables[:, n + s, s], np.stack([occupied, raised, lowered, *hops])
    ).tolist()
    return CountStats(mean=mean, variance=down + up + cross - mean**2), max(0.0, 1.0 - trace)
