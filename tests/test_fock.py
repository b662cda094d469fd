import ast
import itertools
import math
import pathlib
from functools import lru_cache
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from qillum import fock
from qillum.fock import (
    _PAD_MIX,
    LEAKAGE_WARNING_THRESHOLD,
    _bs_sector_unitary,
    _idler_sums,
    _sheared,
    receiver_count_moments,
    thermal_probabilities,
)
from qillum.gaussian import (
    GainSpec,
    amplify_mode,
    balanced_beam_splitter,
    cross_correlations,
    min_ppt_symplectic_eigenvalue,
    tmsv_covariance,
)
from qillum.illumination import ScenarioParams, count_difference_stats, hypothesis_covariances


def params(ns, nb, kappa, g, modes=1):
    return ScenarioParams(n_s=ns, n_b=nb, kappa=kappa, gain=GainSpec(g), modes=modes)


def work_dims(dim):
    """The oracle's boxes: the signal box is ``dim``, the received and the
    ancilla box are ``dim + _PAD_MIX``."""
    return SimpleNamespace(signal=dim, received=dim + _PAD_MIX, ancilla=dim + _PAD_MIX)


def gaussian_receiver_stats(p, target_present):
    v0, v1 = hypothesis_covariances(p)
    return count_difference_stats(balanced_beam_splitter(v1 if target_present else v0))


# Re(i^d) for cos(T) at even offsets d = k - j, Re(i^(d+1)) for sin(T) at odd d
_CHAIN_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


def _expm_chain(t):
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


def _squeeze_couplings(r, dim):
    """Generator couplings t[m] = <m+2|(r/2)(a^dag^2 - a^2)|m>, m < dim - 2."""
    m = np.arange(dim - 2)
    return 0.5 * r * np.sqrt((m + 1.0) * (m + 2.0))


def squeeze_exponential(r, dim):
    """exp((r/2)(a^dag^2 - a^2)) with the generator truncated at ``dim``.

    The number-basis reference for the oracle's closed-form idler.  Positive
    ``r`` amplifies the position quadrature by e^r on the state.  The
    truncated generator is real antisymmetric, so the result is exactly
    orthogonal; amplitude which belongs above the truncation is folded back
    near the boundary, so a block is trusted only far below ``dim``.  The
    generator couples |m> to |m+2> only, so the even and the odd number
    states form two independent chains, each exponentiated by one ``eigh``.
    """
    t = _squeeze_couplings(r, dim)
    u = np.zeros((dim, dim))
    for parity in range(min(dim, 2)):
        u[parity::2, parity::2] = _expm_chain(t[parity::2])
    return u


@lru_cache(maxsize=4)
def squeezer_50_digits(r, rows, cols):
    """S[:rows, :cols] for S = exp((r/2)(a^dag^2 - a^2)), to 50 digits, read-only.

    S|0> = sech^(1/2) r sum_k sqrt((2k)!) / (2^k k!) tanh^k r |2k>, and each
    next column follows from S a^dag S^dag = a^dag cosh r - a sinh r:
    S|n+1> = (cosh r a^dag - sinh r a) S|n> / sqrt(n + 1).  Entry i of
    column n reads the vacuum column up to number i + n alone, so a vacuum
    column of rows + cols numbers makes the block exact.  The ladder cancels
    terms up to ~G^n larger than column n (G = e^|r|), so 50 digits hold
    float64 entries only while G^cols stays well below 1e34; the tests use
    G <= 4 at cols <= 30.
    """
    size = rows + cols
    out = np.empty((rows, cols))
    with mpmath.workdps(50):
        ch, sh = mpmath.cosh(r), mpmath.sinh(r)
        root = [mpmath.sqrt(i) for i in range(size + 1)]
        col = [mpmath.mpf(0)] * size
        for k in range(0, size, 2):
            col[k] = mpmath.sqrt(mpmath.factorial(k) / ch) / (
                2 ** (k // 2) * mpmath.factorial(k // 2)) * (sh / ch) ** (k // 2)
        for n in range(cols):
            out[:, n] = [float(c) for c in col[:rows]]
            col = [((ch * root[i] * col[i - 1] if i else 0)
                    - (sh * root[i + 1] * col[i + 1] if i + 1 < size else 0)) / root[n + 1]
                   for i in range(size)]
    out.flags.writeable = False
    return out


#: The idler box the dense references keep beyond the signal box: wide
#: enough for the amplified idler at G <= 2 to hold its weight to rounding.
IDLER_PAD = 100


def schmidt_amplitudes(n_s, dim):
    """sqrt(1 - lam^2) lam^s for s < dim, lam^2 = n_s / (n_s + 1)."""
    return math.sqrt(n_s / (n_s + 1.0)) ** np.arange(dim) / math.sqrt(n_s + 1.0)


def amplified_idler(p, signal, idler):
    """Amplitudes psi[s, i] of the source after idler amplification, i < ``idler``:
    the Schmidt amplitudes times the 50-digit squeezer block."""
    squeezer = squeezer_50_digits(math.log(p.gain.linear), idler, signal)
    return schmidt_amplitudes(p.n_s, signal)[:, None] * squeezer.T


def idler_sums_of(psi):
    """The oracle's five idler sums per signal number (row of ``psi``), over its idler box."""
    i = np.arange(float(psi.shape[1]))
    weight = psi * psi
    sums = np.zeros((5, psi.shape[0]))
    sums[0] = weight.sum(axis=1)
    sums[1] = weight[:, :-1] @ i[1:]  # <a_I a_I^dag> within the box
    sums[2] = weight @ i
    sums[3, 1:] = 2.0 * (psi[1:, :-1] * psi[:-1, 1:]) @ np.sqrt(i[1:])
    sums[4, 2:] = 2.0 * (psi[2:, :-2] * psi[:-2, 2:]) @ np.sqrt(i[1:-1] * i[2:])
    return sums


def sector_reference(n_total, theta):
    """The beam-splitter sector U_N, basis |k, N - k>, exponentiated as one
    generator chain through a tridiagonal eigenproblem."""
    k = np.arange(n_total)
    return _expm_chain(theta * np.sqrt((k + 1.0) * (n_total - k)))


def sector_50_digits(n_total, theta, idx):
    """U_N[r, k] at r, k in ``idx`` from the binomial closed form, to 50 digits:
    sum_i C(k, i) c^i (-s)^(k-i) C(N-k, r-i) s^(r-i) c^(N-k-r+i) sqrt(r! (N-r)! / (k! (N-k)!))
    with c, s the cosine and sine of the float ``theta``."""
    with mpmath.workdps(50):
        c, s = mpmath.cos(theta), mpmath.sin(theta)
        c_pow = [c**j for j in range(n_total + 1)]
        s_pow = [s**j for j in range(n_total + 1)]
        out = np.empty((len(idx), len(idx)))
        for a, r in enumerate(idx):
            for b, k in enumerate(idx):
                total = mpmath.fsum(
                    (-1) ** (k - i) * math.comb(k, i) * math.comb(n_total - k, r - i)
                    * c_pow[n_total - k - r + 2 * i] * s_pow[k + r - 2 * i]
                    for i in range(max(0, r + k - n_total), min(k, r) + 1))
                norm = mpmath.mpf(math.factorial(r) * math.factorial(n_total - r)) / (
                    math.factorial(k) * math.factorial(n_total - k))
                out[a, b] = total * mpmath.sqrt(norm)
        return out


def branch_blocks(p, dims, idler, target_present):
    """Yield matrices Q_k whose Gram sum is the received-idler state.

    The dense reference for the oracle's reduced sums: each block is real
    with row index (received * idler + idler number), and sum_k Q_k Q_k^T
    equals the two-mode density matrix in the working box, whose idler box
    holds ``idler`` numbers.
    """
    psi = amplified_idler(p, dims.signal, idler)
    if not target_present:
        probs = thermal_probabilities(p.n_b, dims.received)
        for m in range(dims.received):
            block = np.zeros((dims.received * idler, dims.signal))
            block[m * idler : (m + 1) * idler, :] = math.sqrt(probs[m]) * psi.T
            yield block
        return
    theta = math.acos(math.sqrt(p.kappa))
    sectors = [sector_reference(n, theta) for n in range(dims.signal + dims.ancilla - 1)]
    probs = thermal_probabilities(p.n_b / (1.0 - p.kappa), dims.ancilla)
    for n in range(dims.ancilla):
        width = n + dims.signal
        phi = np.zeros((dims.received, idler, width))
        for s in range(dims.signal):
            n_total = s + n
            column = sectors[n_total][:, s]
            r = np.arange(min(n_total, dims.received - 1) + 1)
            phi[r, :, n_total - r] += column[r, None] * psi[s][None, :]
        yield math.sqrt(probs[n]) * phi.reshape(dims.received * idler, width)


def operator_moments(p, dim, target_present):
    """Mean, variance and trace of N+ - N- = a_R^dag a_I + a_I^dag a_R as an
    explicit matrix on the working box, applied to every branch block."""
    dims, idler = work_dims(dim), dim + IDLER_PAD
    a_r = sparse.diags(np.sqrt(np.arange(1.0, dims.received)), 1)
    a_i = sparse.diags(np.sqrt(np.arange(1.0, idler)), 1)
    cross = sparse.kron(a_r.T, a_i, format="csr")
    w = cross + cross.T
    mean = second = trace = 0.0
    for block in branch_blocks(p, dims, idler, target_present):
        wq = w @ block
        mean += float(np.sum(block * wq))
        second += float(np.sum(wq * wq))
        trace += float(np.sum(block * block))
    return mean, second - mean**2, trace


def five_table_moments(p, dim, target_present):
    """Mean, variance and leakage by per-sector tables: the reference for the offset sums.

    With the target present, five tables over r < box at [N, s] hold
    u_N[r, s]^2 weighted by 1, r and (r + 1)[r <= box - 2],
    sqrt(r) u_N[r, s] u_(N-1)[r-1, s-1] and sqrt(r (r - 1)) u_N[r, s] u_(N-2)[r-2, s-2];
    each moment sums p_n * (idler sum at s) * (table at [n + s, s]).  Without
    it the received mode is thermal and independent of the idler, so each
    moment is a product of a thermal and an idler sum.
    """
    box = dim + _PAD_MIX
    sums = _idler_sums(p, dim)
    if not target_present:
        probs = thermal_probabilities(p.n_b, box)
        m = np.arange(float(box))
        second = (probs[:-1] @ m[1:]) * sums[2].sum() + (probs @ m) * sums[1].sum()
        return 0.0, float(second), max(0.0, 1.0 - float(probs.sum() * sums[0].sum()))
    probs = np.trim_zeros(thermal_probabilities(p.n_b / (1.0 - p.kappa), box), "b")
    n_top = dim + len(probs) - 2
    u = _bs_sector_unitary.__wrapped__(math.acos(math.sqrt(p.kappa)), n_top, box, dim, 1.0,
                                       n_top + 1)
    r = np.arange(float(box))
    tables = np.zeros((5, n_top + 1, dim))
    for k, (d, w) in enumerate([(0, np.ones(box)), (0, r), (0, (r + 1.0) * (r < box - 1)),
                                (1, np.sqrt(r)), (2, np.sqrt(r * (r - 1.0)))]):
        tables[k, d:, d:] = np.einsum("nrs,nrs,r->ns", u[d:, d:, d:],
                                      u[: n_top + 1 - d, : box - d, : dim - d], w[d:])
    n, s = np.ogrid[: len(probs), :dim]
    trace, down, up, mean, cross = np.einsum("n,kns,ks->k", probs, tables[:, n + s, s], sums)
    return float(mean), float(down + up + cross - mean**2), max(0.0, 1.0 - float(trace))


def pure_state_log_negativity(amps):
    """log2 ||rho^T2||_1 of the pure state sum amps[n, m] |n, m>: 2 log2 of
    the summed Schmidt coefficients (the singular values of ``amps``)."""
    return 2.0 * math.log2(np.linalg.svd(amps, compute_uv=False).sum())


class TestBuildingBlocks:
    def test_thermal_probabilities_geometric(self):
        probs = thermal_probabilities(2.0, 50)
        assert probs[0] == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert probs[10] / probs[9] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert probs.sum() == pytest.approx(1.0 - (2.0 / 3.0) ** 50, rel=1e-12)

    @pytest.mark.parametrize("nbar", [-1.0, math.inf, math.nan,
                                      # past float64's range: a ValueError, not an OverflowError
                                      pytest.param(10**400, id="1e400")])
    def test_thermal_probabilities_refuse_a_bad_brightness(self, nbar):
        with pytest.raises(ValueError, match=r"^thermal brightness must be finite and >= 0"):
            thermal_probabilities(nbar, 5)

    @pytest.mark.parametrize("nbar", [[1.0, 2.0], np.array([1.0]), (0.5,), "0.5"], ids=repr)
    def test_thermal_probabilities_refuse_a_non_scalar(self, nbar):
        # a TypeError from math.isfinite before the brightness was read as one real
        with pytest.raises(ValueError, match=r"^thermal brightness must be a real scalar, got "):
            thermal_probabilities(nbar, 3)

    @pytest.mark.parametrize("nbar", [True, np.False_])
    def test_thermal_probabilities_refuse_a_bool(self, nbar):
        # numpy would read True as the brightness 1.0
        with pytest.raises(ValueError, match=r"^thermal brightness must be a real number"):
            thermal_probabilities(nbar, 3)

    def test_thermal_probabilities_vacuum(self):
        probs = thermal_probabilities(0.0, 8)
        assert probs[0] == 1.0 and probs[1:].sum() == 0.0

    def test_schmidt_weights_pair_the_photons(self):
        # oracle: direct sums over the analytic Schmidt weights (1-l^2) l^(2n)
        ns, dim = 0.5, 25
        lam2 = ns / (ns + 1.0)
        weights = (1 - lam2) * lam2 ** np.arange(dim)
        sums = _idler_sums(params(ns, 0.0, 0.0, 1.0), dim)
        assert sums[0] == pytest.approx(weights, rel=1e-15)
        assert float(np.arange(dim) @ sums[0]) == pytest.approx(ns, abs=1e-8)
        # without gain every Schmidt branch has n_idler == n_signal
        assert np.array_equal(sums[2], np.arange(dim) * sums[0])
        assert np.array_equal(sums[1], np.arange(1.0, dim + 1) * sums[0])
        assert not sums[3:].any()

    @pytest.mark.parametrize("g", [1.0, 1.5, 2.0, 4.0])
    def test_idler_sums_match_the_number_basis_squeezer(self, g):
        # every branch s < 30 against the dense exponential in a 1000-number
        # box; at n_s = 1e6 all 30 branches weigh ~1e-6
        p = params(1e6, 0.0, 0.0, g)
        amps = schmidt_amplitudes(p.n_s, 30)
        reference = idler_sums_of(amps[:, None] * squeeze_exponential(math.log(g), 1000)[:, :30].T)
        np.testing.assert_allclose(_idler_sums(p, 30), reference, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("g", [1.0, 1.5, 4.0, 31.6, 1000.0])
    @pytest.mark.parametrize("ns", [0.01, 0.1, 0.5])
    def test_idler_sums_carry_the_amplified_tmsv_moments(self, ns, g):
        # the covariance route's amplified two-mode squeezed vacuum: summed
        # over the branches, the rows give 1, <a_I a_I^dag>, <a_I^dag a_I>,
        # 2 <a_S^dag a_I> (weight sqrt(s)) and 2 <a_S^dag^2 a_I^2> (weight
        # sqrt(s (s - 1))), which Wick's theorem puts at 2 <a_S^dag a_I>^2
        dim = 80
        s = np.arange(float(dim))
        sums = _idler_sums(params(ns, 0.0, 0.0, g), dim)
        state = amplify_mode(tmsv_covariance(ns), 2, GainSpec(g))
        n_idler = (state.matrix[2, 2] + state.matrix[3, 3] - 1.0) / 2.0
        picc = cross_correlations(state).picc
        assert picc.imag == 0.0
        assert sums[0].sum() == pytest.approx(1.0, rel=1e-14)
        assert sums[1].sum() == pytest.approx(n_idler + 1.0, rel=1e-12)
        assert sums[2].sum() == pytest.approx(n_idler, rel=1e-12)
        assert np.sqrt(s) @ sums[3] / 2.0 == pytest.approx(picc.real, rel=1e-12)
        assert np.sqrt(s * (s - 1.0)) @ sums[4] / 2.0 == pytest.approx(
            2.0 * picc.real**2, rel=1e-12)

    def test_squeezer_is_unitary_on_truncated_generator(self):
        u = squeeze_exponential(math.log(2.0), 30)
        assert np.linalg.norm(u.T @ u - np.eye(30)) < 1e-8

    @pytest.mark.parametrize("g", [1.5, 2.0, 3.0])
    def test_squeezed_vacuum_position_variance_grows_as_gain_squared(self, g):
        dim = 80
        column = squeeze_exponential(math.log(g), 400)[:dim, 0]
        ladder = np.diag(np.sqrt(np.arange(1, dim)), 1)
        q = (ladder + ladder.T) / math.sqrt(2.0)
        variance = column @ (q @ q) @ column
        # 1e-6 slack covers the number tail clipped at dim; the opposite
        # sign convention would be off by a factor g^4
        assert variance == pytest.approx(g**2 / 2.0, rel=1e-6)

    @pytest.mark.parametrize("g", [1.7, 4.0])
    def test_squeezer_references_agree(self, g):
        # the 50-digit block, which the dense operator checks use, against
        # the generator's exponential truncated far beyond the block
        r = math.log(g)
        dense = squeeze_exponential(r, 1000)[:130, :30]
        assert np.abs(squeezer_50_digits(r, 130, 30) - dense).max() < 1e-13

    def test_oracle_makes_no_dense_eigensolve(self, monkeypatch):
        # a LAPACK eigh above 32 sites wakes the BLAS worker threads, which
        # then spin past the call; the oracle's path must not make one
        def eigh(*args, **kwargs):
            raise AssertionError("eigh on the oracle's path")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        for present in (False, True):
            receiver_count_moments(params(0.2, 0.5, 0.3, 2.0), 30, present)

    def test_oracle_source_makes_no_blas_call(self):
        # numpy hands @, dot, matmul, tensordot, linalg and einsum's optimize
        # path to BLAS, whose worker threads spin past the call and slow the
        # oracle whenever another process wants the CPU
        tree = ast.parse(pathlib.Path(fock.__file__).read_text(encoding="utf-8"))
        names = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                names.append((node.lineno, "@"))
            elif isinstance(node, ast.keyword) and node.arg == "optimize":
                names.append((node.lineno, "optimize="))
            elif isinstance(node, ast.Attribute):
                names.append((node.lineno, node.attr))
            elif isinstance(node, ast.Name):
                names.append((node.lineno, node.id))
            elif isinstance(node, ast.Import):
                names += [(node.lineno, part) for a in node.names for part in a.name.split(".")]
            elif isinstance(node, ast.ImportFrom):
                names += [(node.lineno, part) for part in (node.module or "").split(".")]
                names += [(node.lineno, a.name) for a in node.names]
        banned = {"@", "optimize=", "dot", "vdot", "inner", "matmul", "tensordot", "linalg"}
        assert [(line, name) for line, name in names if name in banned] == []

    def test_every_strided_view_is_read_only(self):
        # rows of a sheared view overlap in memory, and the stack behind it is
        # cached: one write through the view would corrupt every later call
        writable = []
        for path in sorted(pathlib.Path(fock.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call) or "as_strided" not in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    continue
                if not any(kw.arg == "writeable" and isinstance(kw.value, ast.Constant)
                           and kw.value.value is False for kw in node.keywords):
                    writable.append((path.name, node.lineno))
        assert writable == []

    def test_sheared_view_is_the_ancilla_gather(self):
        # v[n, s, r] = u[n + s, r, s]: ancilla number n, signal number s
        dim, band = 12, 9
        stack = _bs_sector_unitary.__wrapped__(0.7, dim + band - 2, dim + _PAD_MIX, dim, 0.6, band)
        view = _sheared(stack)
        assert view.shape == (band, dim, dim + _PAD_MIX)
        n, s = np.ogrid[:band, :dim]
        assert not view.flags.writeable
        assert np.array_equal(view, stack[n + s, :, s])


class TestExponentialsAgainstExpm:
    # expm is trusted to its own orthogonality defect, which reaches ~3e-12
    # at G = 31.6; the chain exponential stays orthogonal to ~1e-13

    @pytest.mark.parametrize("n_total", [0, 1, 2, 7, 30, 80, 150, 250])
    @pytest.mark.parametrize("theta", [0.1, math.pi / 4, 1.4, math.pi / 2, 1e-3])
    def test_beam_splitter_sector(self, n_total, theta):
        # the full sector, the last block of the recursion's stack; uncached,
        # since the stack reaches 126 MB at N = 250
        k = np.arange(n_total)
        lower = np.zeros((n_total + 1, n_total + 1))
        lower[k + 1, k] = theta * np.sqrt((k + 1.0) * (n_total - k))
        reference = expm(lower - lower.T)
        defect = np.abs(reference.T @ reference - np.eye(n_total + 1)).max()
        u = _bs_sector_unitary.__wrapped__(theta, n_total, n_total + 1, n_total + 1, 1.0,
                                           n_total + 1)[n_total]
        assert np.abs(u - reference).max() <= 1e-12 + defect
        assert np.abs(u.T @ u - np.eye(n_total + 1)).max() < 1e-13

    @pytest.mark.parametrize("n_total", [60, 100, 140])
    @pytest.mark.parametrize("kappa", [1e-3, 0.5, 0.999])
    def test_beam_splitter_sector_against_50_digits(self, n_total, kappa):
        # a grid of ~16 x 16 entries spanning the whole sector; the closed
        # form's terms reach ~1e19 at kappa = 0.5, N = 140, so 50 digits
        # leave ~30 after cancellation
        theta = math.acos(math.sqrt(kappa))
        idx = sorted(set(range(0, n_total + 1, n_total // 15)) | {n_total})
        u = _bs_sector_unitary.__wrapped__(theta, n_total, n_total + 1, n_total + 1, 1.0,
                                           n_total + 1)[n_total]
        assert np.abs(u[np.ix_(idx, idx)] - sector_50_digits(n_total, theta, idx)).max() < 1e-13

    @pytest.mark.parametrize("kappa", [1e-3, 0.3, 0.5, 0.999])
    @pytest.mark.parametrize("dim", [30, 60])
    def test_beam_splitter_kept_block_matches_its_full_sectors(self, dim, kappa):
        # the oracle's boxes: dim + 20 received rows, dim signal columns and
        # sectors up to N = 2 dim + 18 (78 at dim 30, 138 at dim 60)
        rows, n_top = dim + _PAD_MIX, 2 * dim + _PAD_MIX - 2
        theta = math.acos(math.sqrt(kappa))
        stack = _bs_sector_unitary.__wrapped__(theta, n_top, rows, dim, 1.0, n_top + 1)
        assert not stack.flags.writeable
        assert stack.dtype == np.float64 and stack.shape == (n_top + 1, rows, dim)
        for n_total in range(n_top + 1):
            block = np.zeros((rows, dim))
            full = sector_reference(n_total, theta)[:rows, :dim]
            block[: full.shape[0], : full.shape[1]] = full
            assert np.abs(stack[n_total] - block).max() < 1e-13

    @pytest.mark.parametrize("amp, band", [(0.8, 32), (0.8, 5), (1e-6, 28), (0.0, 1)])
    def test_beam_splitter_band_carries_the_thermal_amplitude(self, amp, band):
        # u[N][r, k] = amp^(N-k) U_N[r, k] on the band N - k < band and exactly 0
        # off it; every term of column k carries amp^(N-k), so rounding scales with it
        dim, rows, theta = 12, 12 + _PAD_MIX, math.acos(math.sqrt(0.3))
        n_top = dim + band - 2
        stack = _bs_sector_unitary.__wrapped__(theta, n_top, rows, dim, amp, band)
        k = np.arange(dim)
        for n_total in range(n_top + 1):
            block = np.zeros((rows, dim))
            full = sector_reference(n_total, theta)[:rows, :dim]
            block[: full.shape[0], : full.shape[1]] = full
            scale = np.where(k <= n_total, amp ** np.maximum(n_total - k, 0), 0.0)
            in_band = n_total - k < band
            assert np.all(stack[n_total][:, ~in_band] == 0.0)
            error = np.abs(stack[n_total] - block * scale)[:, in_band]
            assert np.all(error <= 1e-13 * scale[in_band])

    @pytest.mark.parametrize("gain", [1.1, 2.0, 4.0, 10.0, 31.6])
    @pytest.mark.parametrize("dim", [3, 60, 108, 156, 216])
    def test_squeeze_exponential(self, gain, dim):
        r = math.log(gain)
        m = np.arange(dim - 2)
        lower = np.zeros((dim, dim))
        lower[m + 2, m] = 0.5 * r * np.sqrt((m + 1.0) * (m + 2.0))
        reference = expm(lower - lower.T)
        defect = np.abs(reference.T @ reference - np.eye(dim)).max()
        u = squeeze_exponential(r, dim)
        assert np.abs(u - reference).max() <= 1e-12 + defect
        assert np.abs(u.T @ u - np.eye(dim)).max() < 2e-13


class TestOracleState:
    def test_vacuum_pipeline_gives_vacuum(self):
        stats, leakage = receiver_count_moments(params(0.0, 0.0, 0.0, 1.0), 6, True)
        assert stats.mean == pytest.approx(0.0, abs=1e-14)
        assert stats.variance == pytest.approx(0.0, abs=1e-14)
        assert leakage < 1e-12

    def test_validation_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            receiver_count_moments(params(0.1, 0.5, 0.1, 2.0), 1, target_present=True)

    @pytest.mark.parametrize("dim", [2.5, 6.0, True, np.True_, "6"], ids=repr)
    @pytest.mark.parametrize("present", [False, True])
    def test_validation_refuses_a_dim_that_is_no_integer(self, dim, present):
        # 2.5 once raised a TypeError from range(), and True was read as 1
        with pytest.raises(ValueError, match=r"^truncation dimension must be an integer, got "):
            receiver_count_moments(params(0.1, 0.5, 0.1, 2.0), dim, present)

    @pytest.mark.parametrize("field", ["ns", "nb", "kappa", "g"])
    @pytest.mark.parametrize("present", [False, True])
    def test_validation_refuses_an_array_valued_scenario(self, field, present):
        fields = {"ns": 0.1, "nb": 0.5, "kappa": 0.1, "g": 2.0}
        p = params(**{**fields, field: np.array([fields[field]] * 2)})
        with pytest.raises(TypeError, match=r"^the oracle takes a scenario of one point, not "):
            receiver_count_moments(p, 6, present)

    def test_validation_takes_a_numpy_integer_dim(self):
        p = params(0.1, 0.5, 0.1, 2.0)
        assert receiver_count_moments(p, np.int64(6), True) == receiver_count_moments(p, 6, True)

    def test_leakage_decreases_with_dim(self):
        p = params(0.5, 1.0, 0.5, 2.0)
        leakages = [
            receiver_count_moments(p, dim, target_present=True)[1]
            for dim in (20, 25, 30, 35)
        ]
        assert all(a > b for a, b in zip(leakages, leakages[1:]))

    def test_leakage_warning_flag(self):
        _, small_box = receiver_count_moments(params(0.5, 1.0, 0.5, 2.0), 12, True)
        _, roomy_box = receiver_count_moments(params(0.1, 0.25, 0.1, 1.0), 30, True)
        assert small_box > LEAKAGE_WARNING_THRESHOLD > roomy_box


class TestCountMoments:
    def test_vacuum_counts_nothing(self):
        stats, leakage = receiver_count_moments(params(0.0, 0.0, 0.0, 1.0), 6, False)
        assert stats.mean == pytest.approx(0.0, abs=1e-14)
        assert stats.variance == pytest.approx(0.0, abs=1e-14)
        assert leakage < 1e-12

    def test_thermal_pair_through_splitter(self):
        # without a target the received mode (n_b) and the idler (n_s) are
        # independent thermal modes; oracle: variance 2 n1 n2 + n1 + n2
        stats, leakage = receiver_count_moments(params(1.0, 1.0, 0.0, 1.0), 40, False)
        assert leakage < 1e-11
        assert stats.mean == pytest.approx(0.0, abs=1e-12)
        assert stats.variance == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("present", [False, True])
    @pytest.mark.parametrize("kappa", [0.0, 0.3])
    @pytest.mark.parametrize("g", [1.0, 1.7])
    def test_moments_match_explicit_interference_operator(self, g, kappa, present):
        p = params(0.3, 0.6, kappa, g)
        mean, variance, trace = operator_moments(p, 6, present)
        stats, leakage = receiver_count_moments(p, 6, present)
        assert stats.mean == pytest.approx(mean, rel=1e-12, abs=1e-15)
        assert stats.variance == pytest.approx(variance, rel=1e-12)
        assert leakage == pytest.approx(1.0 - trace, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("ns, nb, kappa, g, dim, h0, h1", [
        # validate's default point, a point of perfbench's validate box and 30 dB;
        # each hypothesis as (mean, variance, leakage), recorded with the
        # splitter step in its four-term real form
        (0.1, 0.5, 0.1, 2.0, 30, (0.0, 2.05, 0.0),
         (0.15732132722552264, 2.1222499999999997, 4.440892098500626e-16)),
        (0.1, 0.5, 0.1, 2.0, 60, (0.0, 2.05, 0.0),
         (0.15732132722552264, 2.1222499999999997, 4.440892098500626e-16)),
        (0.37, 0.81, 0.43, 1.62, 60, (0.0, 2.9252993704435304, 1.1102230246251565e-16),
         (0.46813740098143514, 3.9963899125477242, 0.0)),
        (0.1, 0.5, 0.1, 10.0 ** 1.5, 30, (0.0, 599.5005999999998, 0.0),
         (3.313308165565044, 616.5006169999995, 4.440892098500626e-16)),
    ])
    def test_moments_move_by_rounding_only(self, ns, nb, kappa, g, dim, h0, h1):
        # leakage is 1 - trace: 4e-15 relative on a trace near 1 is 4e-15 absolute on the leakage
        p = params(ns, nb, kappa, g)
        for present, (mean, variance, leakage) in ((False, h0), (True, h1)):
            stats, leak = receiver_count_moments(p, dim, present)
            assert stats.mean == pytest.approx(mean, rel=4e-15, abs=0.0)
            assert stats.variance == pytest.approx(variance, rel=4e-15, abs=0.0)
            assert leak == pytest.approx(leakage, rel=0.0, abs=4e-15)

    @pytest.mark.parametrize("present", [False, True])
    @pytest.mark.parametrize("nb, kappa", [(np.float32(0.5), 0.3), (0.5, np.float32(0.3)),
                                           (np.float32(0.5), np.float32(0.3))], ids=repr)
    def test_a_float32_field_is_read_in_float64(self, nb, kappa, present):
        # numpy keeps a float32 scalar in float32 through Python-float arithmetic:
        # at n_b = float32(0.5) H0 once read variance 2.04999996535, leakage 4.5e-8
        stats, leak = receiver_count_moments(params(0.1, nb, kappa, 2.0), 30, present)
        ref, ref_leak = receiver_count_moments(params(0.1, float(nb), float(kappa), 2.0), 30,
                                               present)
        assert stats.mean == pytest.approx(ref.mean, rel=4e-15, abs=0.0)
        assert stats.variance == pytest.approx(ref.variance, rel=4e-15, abs=0.0)
        assert leak == pytest.approx(ref_leak, rel=0.0, abs=4e-15)

    @pytest.mark.parametrize("present", [False, True])
    @pytest.mark.parametrize("ns, g", [(np.float32(0.1), 2.0), (0.1, np.float32(1.7)),
                                       (np.float32(0.1), np.float32(1.7))], ids=repr)
    def test_a_float32_signal_or_gain_is_read_in_float64(self, ns, g, present):
        # the idler sums once computed in float32: at n_s = float32(0.1), G = 2
        # H0 read variance 1.5e-8 relative off and leakage 1.9e-8
        stats, leak = receiver_count_moments(params(ns, 0.5, 0.3, g), 30, present)
        ref, ref_leak = receiver_count_moments(params(float(ns), 0.5, 0.3, float(g)), 30, present)
        assert stats.mean == pytest.approx(ref.mean, rel=4e-15, abs=0.0)
        assert stats.variance == pytest.approx(ref.variance, rel=4e-15, abs=0.0)
        assert leak == pytest.approx(ref_leak, rel=0.0, abs=4e-15)

    @pytest.mark.parametrize("present", [False, True])
    @pytest.mark.parametrize("g", [1.0, 1.7, 31.6, 1000.0])
    @pytest.mark.parametrize("dim", [2, 3, 12, 30, 60])
    def test_offset_sums_match_the_five_table_contraction(self, dim, g, present):
        # both hypotheses on the offset sums against the per-sector tables and
        # the closed thermal form without a target, at the bounds above
        for kappa, ns, nb in itertools.product([0.0, 0.3, 0.9], [0.01, 1.0], [0.0, 0.5, 2.0]):
            p = params(ns, nb, kappa, g)
            mean, variance, leakage = five_table_moments(p, dim, present)
            stats, leak = receiver_count_moments(p, dim, present)
            assert stats.mean == pytest.approx(mean, rel=4e-15, abs=0.0)
            assert stats.variance == pytest.approx(variance, rel=4e-15, abs=0.0)
            assert leak == pytest.approx(leakage, rel=0.0, abs=4e-15)

    @pytest.mark.parametrize("present", [False, True])
    @pytest.mark.parametrize("g", [1.0, 1000.0])
    @pytest.mark.parametrize("dim", [2, 12, 60])
    @pytest.mark.parametrize("nb, kappa", [(0.5, 0.999), (1e-12, 0.3), (0.0, 0.3)],
                             ids=["full-band", "short-band", "one-number"])
    def test_folded_thermal_weights_hold_at_the_band_edges(self, nb, kappa, dim, g, present):
        # kappa = 0.999: x = 0.998 and the band is the whole ancilla box (80 at
        # dim 60); n_b = 1e-12: ~28 numbers whose amplitude products reach 1e-312;
        # n_b = 0: x = 0 and one number.  The weight x^n of ancilla number n is
        # a chain of n multiplies by sqrt(x), so it carries up to n eps, 8.8e-15
        # at n = 79; the moments average it, and 4.9e-15 was measured (mean
        # 3.6e-15).  Leakage reads the trace alone and keeps the grid's bound.
        for ns in (0.01, 1.0):
            p = params(ns, nb, kappa, g)
            mean, variance, leakage = five_table_moments(p, dim, present)
            stats, leak = receiver_count_moments(p, dim, present)
            assert stats.mean == pytest.approx(mean, rel=1e-14, abs=0.0)
            assert stats.variance == pytest.approx(variance, rel=1e-14, abs=0.0)
            assert leak == pytest.approx(leakage, rel=0.0, abs=4e-15)

    @pytest.mark.parametrize("dim", [12, 60])
    @pytest.mark.parametrize("nb, kappa", [(0.5, 0.3), (1e-12, 0.3), (0.0, 0.5)])
    def test_the_contraction_reads_only_the_band(self, monkeypatch, nb, kappa, dim):
        # the stack's entries off the band N - k < L made NaN: bit-identical moments
        p = params(0.3, nb, kappa, 1.7)
        expected = receiver_count_moments(p, dim, True)
        poisoned_entries = []

        def poisoned(theta, n_top, rows, cols, amp, band):
            clean = _bs_sector_unitary(theta, n_top, rows, cols, amp, band)
            stack = np.copy(clean, order="K")  # the same memory layout
            assert stack.strides == clean.strides
            big_n, _, k = np.ogrid[: n_top + 1, :rows, :cols]
            off_band = np.broadcast_to(big_n - k >= band, stack.shape)
            stack[off_band] = np.nan
            stack.flags.writeable = False
            poisoned_entries.append(int(off_band.sum()))
            return stack

        monkeypatch.setattr(fock, "_bs_sector_unitary", poisoned)
        assert receiver_count_moments(p, dim, True) == expected
        assert len(poisoned_entries) == 1 and poisoned_entries[0] > 0

    def test_reduced_sums_match_dense_blocks_at_dim_30(self):
        p = params(0.3, 0.6, 0.3, 1.7)
        mean, variance, _ = operator_moments(p, 30, True)
        stats, _ = receiver_count_moments(p, 30, True)
        assert stats.mean == pytest.approx(mean, rel=1e-12)
        assert stats.variance == pytest.approx(variance, rel=1e-12)

    def test_no_target_mean_is_zero_without_splitter_sectors(self):
        p = params(0.3, 0.6, 0.3, 1.7)
        before = _bs_sector_unitary.cache_info()
        stats, _ = receiver_count_moments(p, 30, False)
        assert stats.mean == 0.0
        assert _bs_sector_unitary.cache_info() == before

    def test_splitter_cache_keeps_one_stack(self):
        for kappa in (0.1, 0.2, 0.3, 0.4, 0.5):
            receiver_count_moments(params(0.3, 0.6, kappa, 1.7), 12, True)
        assert _bs_sector_unitary.cache_info().currsize == 1

    def test_received_mode_keeps_reflected_plus_background_photons(self):
        # <N_received> = kappa*n_s + n_b once the compensated background mixes in
        p = params(0.5, 0.5, 0.1, 2.0)
        dims, idler = work_dims(30), 30 + IDLER_PAD
        occupation = np.repeat(np.arange(dims.received), idler).astype(float)
        total = 0.0
        for block in branch_blocks(p, dims, idler, target_present=True):
            total += float(np.sum(occupation[:, None] * block * block))
        assert total == pytest.approx(0.1 * 0.5 + 0.5, abs=1e-8)

    def test_matches_gaussian_pipeline_at_spec_point(self):
        p = params(0.1, 0.5, 0.1, 2.0)
        gauss = gaussian_receiver_stats(p, target_present=True)
        oracle, leakage = receiver_count_moments(p, 30, target_present=True)
        assert leakage < 1e-6
        assert oracle.mean == pytest.approx(gauss.mean, rel=1e-6)
        assert oracle.variance == pytest.approx(gauss.variance, rel=1e-6)

    @pytest.mark.parametrize("present", [False, True])
    @pytest.mark.parametrize("ns, nb, kappa", [(0.01, 0.1, 0.01), (0.1, 0.5, 0.1)])
    @pytest.mark.parametrize("g", [3.0, 10.0, 100.0, 1000.0])
    def test_matches_gaussian_pipeline_at_high_gain(self, g, ns, nb, kappa, present):
        # the idler needs no box, so the dim-30 oracle holds at any gain; the
        # covariance route rounds its variance at ~G^2 * 1e-16 (5e-11 at G = 1000)
        p = params(ns, nb, kappa, g)
        gauss = gaussian_receiver_stats(p, present)
        oracle, leakage = receiver_count_moments(p, 30, present)
        assert leakage < 1e-15
        assert oracle.mean == pytest.approx(gauss.mean, rel=1e-11, abs=1e-15)
        assert oracle.variance == pytest.approx(gauss.variance, rel=1e-9)

    def test_confirms_interference_mean_at_unit_brightness(self):
        # closed form sqrt(kappa)*c*(G - 1/G)/2 = 0.21213203...; at n_s = 1 the
        # dim-30 signal box drops the Schmidt weight 2^-30 past it, which
        # shows as leakage, and the mean falls 2.9e-8 short by the
        # sqrt(s)-weighted tail of the same branches
        p = params(1.0, 1.0, 0.01, 2.0)
        oracle, leakage = receiver_count_moments(p, 30, target_present=True)
        assert oracle.mean == pytest.approx(0.21213203435596428, rel=3e-8)
        assert leakage == pytest.approx(0.5**30, rel=1e-5)


class TestEntanglementCrossCheck:
    @pytest.mark.parametrize("ns", [0.1, 0.5])
    @pytest.mark.parametrize("g", [1.0, 2.0])
    def test_log_negativity_positive_iff_ppt_certifies(self, ns, g):
        amps = amplified_idler(params(ns, 0.0, 0.0, g), 30, 30)
        gaussian_probe = amplify_mode(tmsv_covariance(ns), 2, GainSpec(g))
        assert min_ppt_symplectic_eigenvalue(gaussian_probe) < 0.5
        assert pure_state_log_negativity(amps) > 0.1
