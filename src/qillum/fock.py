"""Brute-force number-basis reference for the Gaussian receiver statistics.

Everything here works on explicitly truncated Fock spaces: the entangled
source is written out as Schmidt weights, the target beam splitter as the
exponential of its number-basis generator, background mixing as an
explicit ancilla mode that is traced out, and photon-count moments as
exact sums over (signal, ancilla) number pairs.  The module needs numpy
alone and exists to validate the covariance-matrix pipeline at small
occupation numbers through an entirely independent route.

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

from .illumination import CountStats, ScenarioParams

__all__ = ["LEAKAGE_WARNING_THRESHOLD", "thermal_probabilities", "receiver_count_moments"]

#: Reported leakage above this marks the result as untrustworthy.
LEAKAGE_WARNING_THRESHOLD = 1e-6

# Working-space pad beyond the requested dimension for the modes the
# target splitter mixes.
_PAD_MIX = 20


def thermal_probabilities(nbar: float, dim: int) -> np.ndarray:
    """Number distribution of a thermal state, truncated at ``dim``."""
    if not math.isfinite(nbar) or nbar < 0:
        raise ValueError(f"thermal brightness must be finite and >= 0, got {nbar}")
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


def _sector_tables(theta: float, n_top: int, rows: int, cols: int) -> np.ndarray:
    """Sums over r < min(N + 1, rows) at [N, s < cols] of the sector stack u[N] = U_N[:rows, :cols].

    The five tables: u_N[r, s]^2 weighted by 1, r and (r + 1)[r <= rows - 2];
    sqrt(r) u_N[r, s] u_{N-1}[r-1, s-1]; sqrt(r (r - 1)) u_N[r, s] u_{N-2}[r-2, s-2].
    """
    n = n_top + 1
    u = _bs_sector_unitary(theta, n_top, rows, cols)
    r = np.arange(float(rows))
    tables = np.zeros((5, n, cols))
    for k, (d, w) in enumerate([(0, np.ones(rows)), (0, r), (0, (r + 1.0) * (r < rows - 1)),
                                (1, np.sqrt(r)), (2, np.sqrt(r * (r - 1.0)))]):
        tables[k, d:, d:] = np.einsum("nrs,nrs,r->ns", u[d:, d:, d:],
                                      u[: n - d, : rows - d, : cols - d], w[d:])
    return tables


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
    weight the working box could not hold.  Ancilla branch n sends signal s
    into sector N = s + n and X never touches the traced-out splitter port,
    so each moment sums p_n * (idler sum at s) * (sector table at [N, s]).
    """
    if dim < 2:
        raise ValueError(f"truncation dimension must be >= 2, got {dim}")
    box = dim + _PAD_MIX  # the received and the ancilla box; the signal box is dim
    sums = _idler_sums(p, dim)
    occupied, raised, lowered = sums[:3]
    if not target_present:
        # a thermal received mode independent of the idler: X shifts m, so the mean is 0
        probs = thermal_probabilities(p.n_b, box)
        m = np.arange(float(box))
        second = (probs[:-1] @ m[1:]) * lowered.sum() + (probs @ m) * raised.sum()
        return CountStats(0.0, float(second)), max(0.0, 1.0 - float(probs.sum() * occupied.sum()))
    # a weight that underflowed to zero touches no sector
    probs = np.trim_zeros(thermal_probabilities(p.n_b / (1.0 - p.kappa), box), "b")
    tables = _sector_tables(math.acos(math.sqrt(p.kappa)), dim + len(probs) - 2, box, dim)
    n, s = np.ogrid[: len(probs), : dim]
    trace, down, up, mean, cross = np.einsum(
        "n,kns,ks->k", probs, tables[:, n + s, s], sums).tolist()
    return CountStats(mean=mean, variance=down + up + cross - mean**2), max(0.0, 1.0 - trace)
