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
The thermal ancilla rides in the same step: its weights p_n = (1 - x) x^n
are geometric, so x^((N-k)/2) U_N[r, k] obeys the step with the
ancilla-photon term times sqrt(x), at norm <= 1.  Only the kept rows, the
kept signal columns and the band of ancilla numbers n = N - k with a nonzero
weight are formed, and no sector needs an eigenproblem.

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
    import numpy as np
    nbar = _real(nbar, "thermal brightness", 0, scalar=True)
    ratio = nbar / (nbar + 1.0)
    return (1.0 - ratio) * ratio ** np.arange(dim)


# One stack per (kappa, thermal amplitude, box): an H1 call reads it once,
# and at dim 60 it holds 5.3 MB, so only the latest is kept.
@lru_cache(maxsize=1)
def _bs_sector_unitary(
    theta: float, n_top: int, rows: int, cols: int, amp: float, band: int
) -> np.ndarray:
    """Kept blocks u[N] = amp^(N-k) U_N[:rows, :cols] of the beam-splitter sectors N = 0..n_top.

    U_N is exp(theta (a^dag b - a b^dag)) on the N-photon sector, basis
    |k, N - k>.  With c = cos(theta), s = sin(theta) and U_0 = [[1]], each
    sector follows from the one below it (Risbo, J. Geodesy 70, 383 (1996)):

        N U_N[r, k] = c sqrt((N-r)(N-k)) U_{N-1}[r, k] + s sqrt(r (N-k)) U_{N-1}[r-1, k]
                      - s sqrt((N-r) k) U_{N-1}[r, k-1] + c sqrt(r k) U_{N-1}[r-1, k-1]

    Entry [r, k] reads only entries at or above-left of it, so the kept block
    recurs on its own.  u_N = amp^(N-k) U_N obeys the same step with its
    sqrt(N-k) terms times ``amp``, so a thermal ancilla of ratio amp^2 rides
    in the step as amplitudes, and a step still has norm <= 1 for amp <= 1.
    Only the band N - k < ``band`` is formed: it reads only itself, and every
    entry outside it stays 0.  A step packs
    z = (amp sqrt(N-k) u_{N-1}[r, k] + i sqrt(k) u_{N-1}[r, k-1]) / N and turns
    it by one norm-one multiply, w = (c + i s) z; then u_N[r, k] =
    sqrt(N-r) Re w[r, k] + sqrt(r) Im w[r-1, k], over every kept row (rows
    past N come out 0).  The stack is read-only.  Its memory is [N, k, r], so
    a sector's band is one run and each column is contiguous in r; it is
    returned as an [N, r, k]-indexed view.
    """
    import numpy as np
    u = np.zeros((n_top + 1, cols, rows))
    u[0, 0, 0] = 1.0
    # over[N - 1, j] = sqrt(j) / N, so over[N - 1, N::-1] is sqrt(N - j) / N;
    # down[N - 1, r] = sqrt(N - r), 0 past N; up is sqrt(r) at the flat index k * rows + r
    sector = np.arange(1.0, n_top + 1.0)[:, None]
    over = np.sqrt(np.arange(n_top + 1.0)) / sector
    amp_over = amp * over
    down = np.sqrt(np.maximum(sector - np.arange(rows), 0.0))
    up = np.tile(np.sqrt(np.arange(rows)), cols)
    turn = complex(math.cos(theta), math.sin(theta))
    buf = np.empty((cols, rows), complex)
    for n in range(1, n_top + 1):
        lo, k = max(0, n + 1 - band), min(n + 1, cols)
        first = max(lo, 1)  # column 0 has no column k - 1 to read
        prev, out, z = u[n - 1], u[n, lo:k], buf[lo:k]
        np.multiply(prev[lo:k], amp_over[n - 1, n::-1][lo:k, None], out=z.real)
        np.multiply(prev[first - 1 : k - 1], over[n - 1, first:k, None], out=z.imag[first - lo :])
        z.imag[: first - lo] = 0.0
        z *= turn
        np.multiply(down[n - 1], z.real, out=out)
        # whole rows are one run in memory, so Im w[r-1] is the flat neighbour;
        # at r = 0 it is the row above, and sqrt(0) drops it
        flat = out.reshape(-1)
        flat[1:] += up[1 : flat.size] * z.imag.reshape(-1)[:-1]
    u.flags.writeable = False
    return u.transpose(0, 2, 1)


def _sheared(u: np.ndarray) -> np.ndarray:
    """Read-only sheared view v[n, s, r] = u[n + s, r, s] of an [N, r, k]-indexed
    stack: signal number s, and every ancilla number n whose sector n + s is in
    the stack for each s, so the view never reaches past the stack."""
    from numpy.lib.stride_tricks import as_strided
    sectors, rows, cols = u.shape
    step, row, col = u.strides
    return as_strided(u, (sectors - cols + 1, cols, rows), (step, step + col, row), writeable=False)


def _idler_sums(p: ScenarioParams, dim: int) -> np.ndarray:
    """Sums over the amplified idler of each Schmidt branch s < dim, shape (5, dim).

    Branch s is sqrt(w_s) |s> (x) S|s>, with w_s = (1 - lam^2) lam^(2s),
    lam^2 = n_s / (n_s + 1), and S the idler squeezer of gain G = e^r.  The
    rows: w_s; w_s <a_I a_I^dag> = w_s (s cosh 2r + cosh^2 r); w_s <a_I^dag a_I>
    = w_s (s cosh 2r + sinh^2 r); and twice the overlaps with branches s - 1
    and s - 2, 2 (1 - lam^2) lam^(2s-1) sqrt(s) sinh r and
    2 (1 - lam^2) lam^(2s-2) sqrt(s (s - 1)) sinh^2 r.
    """
    import numpy as np
    # e^r: no log/exp round trip, as the covariance route's q -> Gq, p -> p/G
    g, n_s = p.gain.linear, p.n_s
    cosh, sinh, cosh2 = 0.5 * (g + 1.0 / g), 0.5 * (g - 1.0 / g), 0.5 * (g * g + 1.0 / (g * g))
    s = np.arange(float(dim))
    amp = math.sqrt(n_s / (n_s + 1.0)) ** s / math.sqrt(n_s + 1.0)  # sqrt(w_s)
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
    q_d[r, s] = sum_n p_n U_(s+n)[r, s] U_(s+n-d)[r-d, s-d].  With
    p_n = (1 - x) x^n and the stack u_N = x^((N-k)/2) U_N read through the
    sheared view v[n, s, r] = u_(s+n)[r, s], that is
    q_d[r, s] = (1 - x) sum_n v[n, s, r] v[n, s-d, r-d], one two-operand sum
    over the n < L with a nonzero weight p_n in the ancilla box.  Without it the
    received mode is the thermal ancilla, independent of the idler:
    q_0[r, s] = p_r and q_1 = q_2 = 0, so the mean is 0.
    """
    import numpy as np
    if not (type(dim) is int or isinstance(dim, np.integer)):  # a bool or a float is no count
        raise ValueError(f"truncation dimension must be an integer, got {dim!r}")
    if dim < 2:
        raise ValueError(f"truncation dimension must be >= 2, got {dim}")
    if any(map(np.ndim, (p.n_s, p.n_b, p.kappa, p.gain.linear))):
        raise TypeError("the oracle takes a scenario of one point, not of arrays")
    box = dim + _PAD_MIX  # the received and the ancilla box; the signal box is dim
    q = np.zeros((3, box, dim))
    if target_present:
        nbar = p.n_b / (1.0 - p.kappa)
        x = nbar / (nbar + 1.0)
        band = np.count_nonzero(thermal_probabilities(nbar, box))  # an underflowed weight is 0
        u = _bs_sector_unitary(math.acos(math.sqrt(p.kappa)), dim + band - 2, box, dim,
                               math.sqrt(x), band)
        v = _sheared(u)
        for d in range(3):
            q[d, d:, d:] = np.einsum("nsr,nsr->rs", v[:, d:, d:], v[:, : dim - d, : box - d])
        q *= 1.0 - x
    else:
        q[0] = thermal_probabilities(p.n_b, box)[:, None]
    r = np.arange(float(box))
    row_weights = np.array([np.ones(box), r, (r + 1.0) * (r < box - 1),
                            np.sqrt(r), np.sqrt(r * (r - 1.0))])
    # each moment's offset d; over r first, then over s, as a single sum over
    # every (r, s) pair rounds up to ~1e-14 relative
    per_signal = np.einsum("kr,krs->ks", row_weights, q[[0, 0, 0, 1, 2]])
    trace, down, up, mean, cross = np.einsum("ks,ks->k", per_signal, _idler_sums(p, dim)).tolist()
    return CountStats(mean=mean, variance=down + up + cross - mean**2), max(0.0, 1.0 - trace)
