"""Brute-force number-basis reference for the Gaussian receiver statistics.

Everything here works on explicitly truncated Fock spaces: the entangled
source is written out as Schmidt amplitudes, the idler amplifier and the
target beam splitter as exponentials of their number-basis generators,
background mixing as an explicit ancilla mode that is traced out, and
photon-count moments as exact sums over (signal, ancilla) number pairs.
The module needs numpy alone and exists to validate the covariance-matrix
pipeline at small occupation numbers through an entirely independent route.

The squeezer's generator is a real antisymmetric chain coupling |m> to
|m+2> (an even and an odd chain).  The oracle needs only the leading
columns of its exponential, and forms them from the Chebyshev series of
exp(K), whose Bessel-function coefficients make it exact to rounding after
~|K| terms.  That takes elementwise products alone: a dense ``eigh`` of a
chain above 32 sites calls threaded BLAS, whose workers then spin past the
call and make the oracle several times slower whenever another process
wants the CPU.  The full exponential (:func:`squeeze_exponential`) keeps
the eigh route.  The beam splitter conserves the photon number N, and
its sector unitary U_N (basis |k, N-k>) is built from U_{N-1}: with J the
map (a^dag, b^dag)/sqrt(N) from two copies of the (N-1)-photon sector onto
the N-photon one, U_N = J (U_{N-1} (x) R) J^T, where R is the rotation by
theta that the splitter applies to (a^dag, b^dag).  J J^T = (a^dag a +
b^dag b)/N = 1 on the sector, so each step has norm one: an error already
in U_{N-1} is carried, never amplified, and rounding grows at most
linearly in N (~1e-14 at N = 250).  Only the kept rows and columns are
formed, and no sector needs an eigenproblem.

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

#: Largest squeezer working space :func:`squeeze_operator` builds, enough for 30 dB
#: at dim 60.  The block's cost grows as |r| * work^2 * dim_in: ~12 s for the
#: dim-60 oracle's 108 x 60 block at this size.
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


def _expm_chain(t: np.ndarray) -> np.ndarray:
    """exp(K) for the real antisymmetric chain K[k+1, k] = -K[k, k+1] = t[k].

    K = D^-1 (iT) D with T the symmetric tridiagonal matrix of ``t`` and
    D = diag(i^k), so exp(K)[j, k] = Re(i^(k-j) (V e^(iL) V^T)[j, k]) from
    one real eigendecomposition T = V L V^T.  cos(T) lives on even offsets
    k - j and sin(T) on odd ones, so a single product V (cos L + sin L) V^T
    carries both and a sign pattern of period 4 in k - j finishes the job.
    """
    lam, vec = np.linalg.eigh(np.diag(t, -1), UPLO="L")
    prod = (vec * (np.cos(lam) + np.sin(lam))) @ vec.T
    j, k = np.ogrid[: prod.shape[0], : prod.shape[1]]
    return _CHAIN_SIGNS[(k - j) % 4] * prod


def _squeeze_couplings(r: float, dim: int) -> np.ndarray:
    """Generator couplings t[m] = <m+2|(r/2)(a^dag^2 - a^2)|m>, m < dim - 2."""
    m = np.arange(dim - 2)
    return 0.5 * r * np.sqrt((m + 1.0) * (m + 2.0))


def squeeze_exponential(r: float, dim: int) -> np.ndarray:
    """exp((r/2)(a^dag^2 - a^2)) with the generator truncated at ``dim``.

    Positive ``r`` amplifies the position quadrature by e^r on the state.
    The truncated generator is real antisymmetric, so the result is
    exactly orthogonal; the price is that amplitude which belongs above
    the truncation is folded back near the boundary.  The generator
    couples |m> to |m+2> only, so the even and the odd number states
    form two independent chains, each exponentiated by one dense ``eigh``.
    """
    t = _squeeze_couplings(r, dim)
    u = np.zeros((dim, dim))
    for parity in range(min(dim, 2)):
        u[parity::2, parity::2] = _expm_chain(t[parity::2])
    return u


def _bessel_j(x: float) -> np.ndarray:
    """J_0(x), J_1(x), ... for x > 0, up to the last order above 1e-18.

    Miller's algorithm: J_{k-1} = (2k/x) J_k - J_{k+1}, run down from a
    unit seed at an order where J_k(x) < 1e-18 (x + 12 x^(1/3) + 20, from
    the Airy tail of J_k near k = x), converges onto the decaying solution;
    J_0 + 2 (J_2 + J_4 + ...) = 1 then fixes the scale.
    """
    top = int(x + 12.0 * x ** (1.0 / 3.0) + 20.0)
    j = [0.0] * (top + 2)
    j[top] = 1.0
    for k in range(top, 0, -1):
        j[k - 1] = 2.0 * k / x * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:  # the seed's growth below k ~ x
            j = [v * 1e-250 for v in j]
    out = np.array(j[: top + 1])
    out /= out[0] + 2.0 * out[2::2].sum()
    return out[: np.flatnonzero(np.abs(out) > 1e-18)[-1] + 1]


def _squeeze_block(r: float, dim: int, rows: int, cols: int) -> np.ndarray:
    """squeeze_exponential(r, dim)[:rows, :cols], formed from the kept columns alone.

    With K the truncated generator and rho >= |K| (twice its largest
    coupling), exp(K) = J_0(rho) W_0 + 2 sum_k J_k(rho) W_k for the real
    W_k = i^k T_k(-iK/rho), which follow W_{k+1} = (2/rho) K W_k + W_{k-1}
    from W_0 = 1 and W_1 = K/rho.  The kept columns of both parity chains
    step together in one (chain site, parity, column) array, ~rho steps of
    elementwise products with the couplings: no BLAS call and so no BLAS
    worker thread, where a dense ``eigh`` above 32 sites wakes one.
    """
    t = _squeeze_couplings(r, dim)
    rho = 2.0 * float(np.abs(t).max(initial=0.0))
    if rho == 0.0:
        return np.eye(rows, cols)
    coef = 2.0 * _bessel_j(rho)
    sites, width = (dim + 1) // 2, (cols + 1) // 2
    step = np.zeros((sites - 1, 2, width))  # (2 / rho) t per chain; the odd one may end early
    prev = np.zeros((sites, 2, width))
    for parity in range(2):
        step[: len(t[parity::2]), parity] = (2.0 / rho) * t[parity::2, None]
        n = (cols + 1 - parity) // 2
        prev[np.arange(n), parity, np.arange(n)] = 1.0
    cur = np.zeros_like(prev)
    cur[1:] = 0.5 * step * prev[:-1]
    cur[:-1] -= 0.5 * step * prev[1:]
    acc = 0.5 * coef[0] * prev + (coef[1] if len(coef) > 1 else 0.0) * cur
    hop, term = np.empty_like(step), np.empty_like(prev)
    for c in coef[2:]:
        # prev becomes W_{k+1} = (2/rho) K W_k + W_{k-1}; K[m+2, m] = t[m] = -K[m, m+2]
        np.multiply(step, cur[:-1], out=hop)
        prev[1:] += hop
        np.multiply(step, cur[1:], out=hop)
        prev[:-1] -= hop
        acc += np.multiply(prev, c, out=term)
        prev, cur = cur, prev
    u = np.zeros((rows, cols))
    for parity in range(2):
        u[parity::2, parity::2] = acc[: (rows + 1 - parity) // 2, parity, : (cols + 1 - parity) // 2]
    return u


@lru_cache(maxsize=1)  # validate asks for the same block under H0 and under H1
def squeeze_operator(r: float, dim_out: int, dim_in: int) -> np.ndarray:
    """Single-mode squeezer block <m|exp((r/2)(a^dag^2 - a^2))|n>, read-only.

    The block is that of :func:`squeeze_exponential` evaluated in a
    working space large enough that amplitude pushed past ``dim_out`` is
    genuinely lost rather than folded back into the kept block.  The space
    is at least twice the block and grows linearly with the gain e^|r|, as
    the squeezed phase-space extent does; that holds every element to
    1e-12 (measured against a much wider space for blocks up to 108 x 60,
    gains up to 10).  Only the kept columns are formed (:func:`_squeeze_block`),
    at a cost of ~(work * |r|) steps over work x dim_in entries, so a gain
    that needs more than ``MAX_SQUEEZE_WORK`` raises :class:`SqueezerTooLarge`
    before anything is built.
    """
    gain = math.exp(abs(r))
    extent = (math.sqrt(dim_out) + math.sqrt(dim_in)) ** 2
    work = max(2 * max(dim_out, dim_in), math.ceil(gain * (0.3 * extent + 20.0)))
    if work > MAX_SQUEEZE_WORK:
        raise SqueezerTooLarge(
            f"gain {gain:g} needs a {work}-dim squeezer working space for a "
            f"{dim_out} x {dim_in} block, above the limit of {MAX_SQUEEZE_WORK}")
    u = _squeeze_block(r, work, dim_out, dim_in)
    u.flags.writeable = False
    return u


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

    Entry [r, k] reads only entries at or above-left of it, so the kept
    block recurs on its own.  The stack is read-only.
    """
    c, s = math.cos(theta), math.sin(theta)
    u = np.zeros((n_top + 1, rows, cols))
    u[0, 0, 0] = 1.0
    for n in range(1, n_top + 1):
        r, k = min(n + 1, rows), min(n + 1, cols)
        root = np.sqrt(np.arange(n + 1.0))  # sqrt(j); reversed, sqrt(N - j)
        prev, out = u[n - 1, :r, :k], u[n, :r, :k]
        # column k reads k (weight sqrt(N - k)) and k - 1 (sqrt(k)), summed
        # separately for the terms at row r and at row r - 1
        at_k, at_k1 = root[::-1][:k] / n, root[1:k] / n
        from_r = c * prev * at_k
        from_r[:, 1:] -= s * prev[:, :-1] * at_k1
        from_r1 = s * prev * at_k
        from_r1[:, 1:] += c * prev[:, :-1] * at_k1
        # row r reads r (weight sqrt(N - r)) and r - 1 (sqrt(r))
        np.multiply(root[::-1][:r, None], from_r, out=out)
        out[1:] += root[1:r, None] * from_r1[:-1]
    u.flags.writeable = False
    return u


def _signal_idler_amplitudes(p: ScenarioParams, dims: _WorkDims) -> np.ndarray:
    """Amplitudes psi[s, i] of the source after idler amplification."""
    psi = tmsv_state(p.n_s, dims.signal)
    if p.gain.linear == 1.0:
        return np.pad(psi, ((0, 0), (0, dims.idler - dims.signal)))
    # psi is diagonal: the amplifier scales column s of the squeezer block by psi[s, s]
    squeezer = squeeze_operator(math.log(p.gain.linear), dims.idler, dims.signal)
    return psi.diagonal()[:, None] * squeezer.T


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
