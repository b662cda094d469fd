"""Brute-force number-basis reference for the Gaussian receiver statistics.

Everything here works on explicitly truncated Fock spaces: the entangled
source is written out as Schmidt weights, the target beam splitter as the
exponential of its number-basis generator, background mixing as an
explicit ancilla mode that is traced out, and photon-count moments as
exact sums over (signal, ancilla) number pairs.  The module needs numpy
alone, makes no BLAS call, and exists to validate the covariance-matrix
pipeline at small occupation numbers through an entirely independent route.

The amplified idler enters the moments only through five sums per signal
number s: the weight of the Schmidt branch, <a_I^dag a_I> and <a_I a_I^dag>
on it, and its overlaps through a_I and a_I^2 with branches s - 1 and s - 2.
Each follows in closed form from the squeezer's Heisenberg relation
S^dag a S = a cosh r + a^dag sinh r (Weedbrook et al., Rev. Mod. Phys. 84,
621 (2012)), so the idler needs no box of its own and holds at any gain.

The beam splitter conserves the photon number N, and its sector unitary
U_N (basis |k, N-k>) is built from U_{N-1}: with J the map
(a^dag, b^dag)/sqrt(N) from two copies of the (N-1)-photon sector onto
the N-photon one, U_N = J (U_{N-1} (x) R) J^T, where R is the rotation by
theta that the splitter applies to (a^dag, b^dag), one complex multiply by
e^(i theta) of modulus one.  J J^T = (a^dag a + b^dag b)/N = 1 on the sector,
so each step has norm one: an error already in U_{N-1} is carried, never
amplified, and rounding grows at most linearly in N (~1e-14 at N = 250).
Only the kept rows and columns are formed, and no sector needs an eigenproblem.

Truncation handling: the received and ancilla modes live in working
spaces padded beyond the requested dimension, and every crop *discards*
the out-of-range amplitudes so the lost weight shows up in the reported
trace leakage instead of being silently reflected back into the kept block.
The balanced receiver splitter is applied exactly, by conjugating the
count-difference observable (N+ - N- equals a_R^dag a_I + a_I^dag a_R on
the splitter inputs), which avoids any output-side truncation.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .gaussian import _real
from .illumination import CountStats, ScenarioParams

__all__ = ["LEAKAGE_WARNING_THRESHOLD", "thermal_probabilities", "receiver_count_moments"]

#: Reported leakage above this marks the result as untrustworthy.
LEAKAGE_WARNING_THRESHOLD = 1e-6

# Working-space pad beyond the requested dimension for the modes the
# target splitter mixes.
_PAD_MIX = 20


def thermal_probabilities(nbar: float, dim: int) -> np.ndarray:
    """Number distribution of a thermal state, truncated at ``dim``."""
    nbar = _real(nbar, "thermal brightness", 0, scalar=True)
    ratio = nbar / (nbar + 1.0)
    return (1.0 - ratio) * ratio ** np.arange(dim)


# One stack per (kappa, box): an H1 call reads it once, and at dim 60 it
# holds 5.3 MB, so only the latest is kept.
@lru_cache(maxsize=1)
def _bs_sector_unitary(theta: float, n_top: int, rows: int, cols: int) -> np.ndarray:
    """Kept blocks u[N] = U_N[:rows, :cols] of the beam-splitter sectors N = 0..n_top.

    U_N is exp(theta (a^dag b - a b^dag)) on the N-photon sector, basis
    |k, N - k>.  With c = cos(theta), s = sin(theta) and U_0 = [[1]], each
    sector follows from the one below it (Risbo, J. Geodesy 70, 383 (1996)):

        N U_N[r, k] = c sqrt((N-r)(N-k)) U_{N-1}[r, k] + s sqrt(r (N-k)) U_{N-1}[r-1, k]
                      - s sqrt((N-r) k) U_{N-1}[r, k-1] + c sqrt(r k) U_{N-1}[r-1, k-1]

    Entry [r, k] reads only entries at or above-left of it, so the kept block
    recurs on its own.  A step packs z = (sqrt(N-k) U_{N-1}[r, k] + i sqrt(k) U_{N-1}[r, k-1]) / N
    and turns it by one norm-one multiply, w = (c + i s) z; then U_N[r, k] =
    sqrt(N-r) Re w[r, k] + sqrt(r) Im w[r-1, k].  The stack is read-only.
    """
    u = np.zeros((n_top + 1, rows, cols))
    u[0, 0, 0] = 1.0
    root = np.sqrt(np.arange(n_top + 1.0))  # sqrt(j); root[N::-1] is sqrt(N - j)
    turn = complex(math.cos(theta), math.sin(theta))
    buf = np.empty((rows, cols), complex)
    for n in range(1, n_top + 1):
        r, k = min(n + 1, rows), min(n + 1, cols)
        prev, out, z, down = u[n - 1, :r, :k], u[n, :r, :k], buf[:r, :k], root[n::-1]
        np.multiply(prev, down[:k] / n, out=z.real)
        np.multiply(prev[:, :-1], root[1:k] / n, out=z.imag[:, 1:])
        z.imag[:, 0] = 0.0
        z *= turn
        np.multiply(down[:r, None], z.real, out=out)
        out[1:] += root[1:r, None] * z.imag[:-1]
    u.flags.writeable = False
    return u


def _idler_sums(p: ScenarioParams, dim: int) -> np.ndarray:
    """Sums over the amplified idler of each Schmidt branch s < dim, shape (5, dim).

    Branch s is sqrt(w_s) |s> (x) S|s>, with w_s = (1 - lam^2) lam^(2s),
    lam^2 = n_s / (n_s + 1), and S the idler squeezer of gain G = e^r.  The
    rows: w_s; w_s <a_I a_I^dag> = w_s (s cosh 2r + cosh^2 r); w_s <a_I^dag a_I>
    = w_s (s cosh 2r + sinh^2 r); and twice the overlaps with branches s - 1
    and s - 2, 2 (1 - lam^2) lam^(2s-1) sqrt(s) sinh r and
    2 (1 - lam^2) lam^(2s-2) sqrt(s (s - 1)) sinh^2 r.
    """
    g = p.gain.linear  # e^r: no log/exp round trip, as the covariance route's q -> Gq, p -> p/G
    cosh, sinh, cosh2 = 0.5 * (g + 1.0 / g), 0.5 * (g - 1.0 / g), 0.5 * (g * g + 1.0 / (g * g))
    s = np.arange(float(dim))
    amp = math.sqrt(p.n_s / (p.n_s + 1.0)) ** s / math.sqrt(p.n_s + 1.0)  # sqrt(w_s)
    weight = amp * amp
    sums = np.zeros((5, dim))
    sums[0] = weight
    sums[1] = weight * (s * cosh2 + cosh * cosh)
    sums[2] = weight * (s * cosh2 + sinh * sinh)
    sums[3, 1:] = 2.0 * sinh * amp[1:] * amp[:-1] * np.sqrt(s[1:])
    sums[4, 2:] = 2.0 * sinh * sinh * amp[2:] * amp[:-2] * np.sqrt(s[2:] * s[1:-1])
    return sums


def receiver_count_moments(
    p: ScenarioParams, dim: int, target_present: bool
) -> tuple[CountStats, float]:
    """Count-difference mean and variance at the receiver, plus leakage.

    The state is built in the padded working box and the balanced splitter
    enters exactly, through the interference observable
    X = a_R^dag a_I + a_I^dag a_R; the returned leakage is the probability
    weight the working box could not hold.  Both hypotheses share one
    contraction: each moment sums, over received number r and signal s, a
    row weight in r, an idler sum at s and an offset sum q_d[r, s], d = 0, 1, 2.
    With the target present, ancilla branch n sends signal s into splitter
    sector N = s + n and X never touches the traced-out port, so
    q_d[r, s] = sum_N p_(N-s) U_N[r, s] U_(N-d)[r-d, s-d].  Without it the
    received mode is the thermal ancilla, independent of the idler:
    q_0[r, s] = p_r and q_1 = q_2 = 0, so the mean is 0.
    """
    if not (type(dim) is int or isinstance(dim, np.integer)):  # a bool or a float is no count
        raise ValueError(f"truncation dimension must be an integer, got {dim!r}")
    if dim < 2:
        raise ValueError(f"truncation dimension must be >= 2, got {dim}")
    n_b, kappa = float(p.n_b), float(p.kappa)  # a float32 field is read in float64
    box = dim + _PAD_MIX  # the received and the ancilla box; the signal box is dim
    q = np.zeros((3, box, dim))
    if target_present:
        # a weight that underflowed to zero touches no sector
        probs = np.trim_zeros(thermal_probabilities(n_b / (1.0 - kappa), box), "b")
        n = dim + len(probs) - 1
        u = _bs_sector_unitary(math.acos(math.sqrt(kappa)), n - 1, box, dim)
        weights = np.zeros((n, dim))  # p_(N-s) at [N, s]
        for s in range(dim):
            weights[s : s + len(probs), s] = probs
        for d in range(3):
            q[d, d:, d:] = np.einsum("ns,nrs,nrs->rs", weights[d:, d:], u[d:, d:, d:],
                                     u[: n - d, : box - d, : dim - d])
    else:
        q[0] = thermal_probabilities(n_b, box)[:, None]
    r = np.arange(float(box))
    row_weights = np.array([np.ones(box), r, (r + 1.0) * (r < box - 1),
                            np.sqrt(r), np.sqrt(r * (r - 1.0))])
    # each moment's offset d; over r first, then over s, as a single sum over
    # every (r, s) pair rounds up to ~1e-14 relative
    per_signal = np.einsum("kr,krs->ks", row_weights, q[[0, 0, 0, 1, 2]])
    trace, down, up, mean, cross = np.einsum("ks,ks->k", per_signal, _idler_sums(p, dim)).tolist()
    return CountStats(mean=mean, variance=down + up + cross - mean**2), max(0.0, 1.0 - trace)
