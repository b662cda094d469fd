"""Two-mode Gaussian states as 4x4 quadrature covariance matrices.

Conventions used throughout the package: quadrature ordering is
(q1, p1, q2, p2), the vacuum covariance is the identity over two, and a
matrix describes a physical state exactly when every symplectic
eigenvalue is at least one half.  Mode 1 is the signal (later: received)
mode, mode 2 the retained idler.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import sys
from dataclasses import dataclass
from functools import cache

__all__ = [
    "SYMPLECTIC_FORM", "PHYSICALITY_TOL", "TwoModeCovariance", "GainSpec", "CrossCorrelations",
    "symplectic_eigenvalues", "tmsv_covariance", "amplify_mode", "apply_target_channel",
    "balanced_beam_splitter", "cross_correlations", "min_ppt_symplectic_eigenvalue",
    "random_two_mode_symplectic",
]

#: Symplectic eigenvalues may undershoot 1/2 by this much before a state
#: is rejected; congruences accumulate roundoff of order 1e-13.
PHYSICALITY_TOL = 1e-9

_SYMMETRY_ATOL = 1e-12
_PAIR_RTOL = 1e-9

#: ``x <= _FLOAT_MAX`` is False for nan, inf and for ints past float64's
#: range, on which ``isfinite`` raises.
_FLOAT_MAX = sys.float_info.max


@cache
def _symplectic_form():
    """Standard symplectic form for the (q1, p1, q2, p2) ordering, read-only."""
    import numpy as np
    form = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0, 0.0],
        ]
    )
    form.flags.writeable = False
    return form


def __getattr__(name):
    # SYMPLECTIC_FORM is built on first use, so importing this module imports no numpy
    if name == "SYMPLECTIC_FORM":
        return _symplectic_form()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Scalar:
    """The six numpy calls of the closed forms, on Python floats (``asarray``
    makes an int one): one kernel text takes them from here for a scalar and
    from numpy for an array (:func:`_ops`), and a test holds this class to the
    calls the kernel makes.  ``math.sqrt`` is correctly rounded, as ``np.sqrt``
    is, and float arithmetic gives numpy's bits and warns of nothing, but a
    division by zero raises: the kernel never divides by a value that can be
    zero."""

    sqrt = staticmethod(math.sqrt)

    @staticmethod
    def asarray(value, dtype=None):
        return float(value)

    @staticmethod
    def zeros_like(value):
        return 0.0

    @staticmethod
    def where(condition, yes, no):
        return yes if condition else no

    @staticmethod
    def broadcast_arrays(*values):
        return list(values)

    @staticmethod
    def errstate(**_):
        return contextlib.nullcontext()


def _ops(*operands):
    """Where a closed form takes its numpy calls: :class:`_Scalar` when every
    operand is a Python float or int (never a bool), else numpy, imported
    here on the first array."""
    for x in operands:
        if type(x) is not float and type(x) is not int:
            import numpy as np
            return np
    return _Scalar


def _require(ok, value, message: str) -> None:
    """Raise ``message`` naming the first element of ``value`` where ``ok`` fails."""
    if ok is True:
        return
    if ok is not False:  # an array of checks
        import numpy as np
        ok = np.asarray(ok)
        if ok.all():
            return
        if ok.ndim:
            value = np.ravel(value).tolist()[np.argmin(ok)]
    raise ValueError(message.format(value))


def _real(value, name: str, lo=None, hi=None, closed=False, scalar=False):
    """The one reader of a real input: ``value`` of the field ``name``.

    A bool, which numpy reads as 1.0, and any element that is no
    ``numbers.Real`` are refused, also inside a list, tuple or array; a list or
    tuple is made an array.  With ``lo``, every element must be finite and >=
    ``lo``, or, with ``hi``, lie in [``lo``, ``hi``), or [``lo``, ``hi``] if
    ``closed``; the first one outside is named.  A ``scalar`` field must be one
    real.  The result is float64: a Python float if 0-d.  A Python float or int
    is read with plain comparisons; anything else, a numpy scalar too, by numpy.
    """
    if lo is not None:
        message = (f"{name} must be finite and >= {lo}, got {{}}" if hi is None
                   else f"{name} must lie in [{lo}, {hi}{']' if closed else ')'}, got {{}}")
    if type(value) is float or type(value) is int:
        if lo is not None:
            below = value <= _FLOAT_MAX if hi is None else value <= hi if closed else value < hi
            _require(value >= lo and below, value, message)
        return value if type(value) is float else _floats(value)
    import numpy as np
    x = np.asarray(value)
    cells = (np.asarray(value, dtype=object).ravel().tolist()  # the elements as given
             if isinstance(value, (list, tuple)) or x.dtype.kind not in "fiu" else [])
    if x.dtype.kind == "b" or any(isinstance(v, (bool, np.bool_)) for v in cells):
        raise ValueError(f"{name} must be a real number, not a bool, got {value!r}")
    if scalar and x.ndim or x.dtype.kind not in "fiuO" or x.dtype.kind == "O" and not all(
            isinstance(v, numbers.Real) for v in cells):
        raise ValueError(f"{name} must be a real {'scalar' if scalar else 'number'}, got {value!r}")
    if lo is not None:
        # a float64 bound: numpy casts a Python float to a float32 array's dtype, to inf
        below = (x <= np.float64(_FLOAT_MAX)) if hi is None else (x <= hi) if closed else (x < hi)
        _require((x >= lo) & below, value, message)
    if x.dtype.kind == "O":  # Python ints past int64, say: Python's float() per element
        return _floats(x)
    return x.astype(float, copy=False) if x.ndim else float(x)


def _per_element(fn):
    """``fn`` on each element of an array, or on a scalar, as a float: a Python
    float or int goes straight to ``fn``; anything else takes ``np.frompyfunc``,
    ~2 µs a call cheaper than ``np.vectorize`` and built per call (~0.7 µs; a
    sweep makes one or two).  A result past float64's range is the inf of the
    input's sign, as float64 holds an int or 10^(dB/20) past it."""
    def read(x):
        try:
            return fn(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf

    def each(x):
        if type(x) is float or type(x) is int:
            return float(read(x))
        import numpy as np
        y = np.frompyfunc(read, 1, 1)(x)
        return y.astype(float) if isinstance(y, np.ndarray) else float(y)
    return each


#: math.log10 and Python's pow per element: an array of gains takes the
#: arithmetic of a scalar gain, and a scalar keeps its exact dB value.
_log10 = _per_element(math.log10)
_from_db = _per_element(lambda db: 10.0 ** (db / 20.0))
_floats = _per_element(float)


def _abs_symplectic_spectrum(matrix: np.ndarray) -> np.ndarray:
    """All four |eigenvalues| of i*Omega*V, ascending."""
    import numpy as np
    eigs = np.linalg.eigvals(1j * _symplectic_form() @ matrix)
    return np.sort(np.abs(eigs))


def symplectic_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Return the two symplectic eigenvalues of a 4x4 covariance matrix.

    Computed as the absolute eigenvalues of i*Omega*V, which come in
    doubled pairs; the pairs are averaged after checking that they agree
    to 1e-9 relative.
    """
    import numpy as np
    spectrum = _abs_symplectic_spectrum(np.asarray(matrix, dtype=float))
    lo, hi = spectrum[:2], spectrum[2:]
    for pair in (lo, hi):
        scale = max(pair[1], 1.0)
        if abs(pair[1] - pair[0]) > _PAIR_RTOL * scale:
            raise ValueError(
                "symplectic spectrum does not split into matched pairs; "
                "input is not a valid covariance matrix"
            )
    return np.array([lo.mean(), hi.mean()])


@dataclass(frozen=True, eq=False)
class TwoModeCovariance:
    """Validated 4x4 real symmetric covariance matrix of a two-mode state.

    Construction rejects matrices that are asymmetric beyond 1e-12, have
    a non-positive quadrature variance, or violate the uncertainty bound
    (any symplectic eigenvalue below 1/2 - 1e-9).  Note that individual
    diagonal entries may drop below the vacuum level 1/2: squeezed
    quadratures do exactly that while the state stays physical.
    """

    matrix: np.ndarray

    def __post_init__(self):
        import numpy as np
        m = np.array(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"covariance matrix must be 4x4, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("covariance matrix has non-finite entries")
        if np.max(np.abs(m - m.T)) > _SYMMETRY_ATOL:
            raise ValueError("covariance matrix is not symmetric")
        if np.min(np.diag(m)) <= 0.0:
            raise ValueError("quadrature variances must be positive")
        if _abs_symplectic_spectrum(m)[0] < 0.5 - PHYSICALITY_TOL:
            raise ValueError(
                "matrix violates the uncertainty principle "
                "(symplectic eigenvalue below 1/2)"
            )
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class GainSpec:
    """Phase-sensitive amplifier gain; ``linear`` multiplies the amplified
    quadrature amplitude, so the dB value is 20*log10(linear); it may be
    an array of gains."""

    linear: float

    def __post_init__(self):
        object.__setattr__(self, "linear", _real(self.linear, "gain", 1))

    @property
    def db(self) -> float:
        return 20.0 * _log10(self.linear)

    @classmethod
    def from_db(cls, gain_db) -> "GainSpec":
        gain_db = _real(gain_db, "gain in dB")
        with _ops(gain_db).errstate(over="ignore"):  # a gain past float64's range is refused as inf
            return cls(_from_db(gain_db))


@dataclass(frozen=True)
class CrossCorrelations:
    """Complex cross correlations of a two-mode state: ``picc`` is the
    phase-insensitive <a1^dag a2>, ``pscc`` the phase-sensitive <a1 a2>."""

    picc: complex
    pscc: complex


def tmsv_covariance(n_s: float) -> TwoModeCovariance:
    """Two-mode squeezed vacuum with ``n_s`` mean photons per mode.

    The diagonal is nu/2 with nu = 2*n_s + 1; the q-q (p-p) cross entry is
    +c/2 (-c/2) with c = 2*sqrt(n_s*(n_s + 1)).  ``n_s = 0`` is the vacuum.
    """
    import numpy as np
    n_s = _real(n_s, "mean photon number", 0, scalar=True)
    nu = 2.0 * n_s + 1.0
    c = 2.0 * math.sqrt(n_s * (n_s + 1.0))
    m = 0.5 * np.array(
        [
            [nu, 0.0, c, 0.0],
            [0.0, nu, 0.0, -c],
            [c, 0.0, nu, 0.0],
            [0.0, -c, 0.0, nu],
        ]
    )
    return TwoModeCovariance(m)


def _congruence(state: TwoModeCovariance, s: np.ndarray) -> TwoModeCovariance:
    m = s @ state.matrix @ s.T
    return TwoModeCovariance((m + m.T) / 2.0)


def amplify_mode(
    state: TwoModeCovariance, mode_index: int, gain: GainSpec
) -> TwoModeCovariance:
    """Phase-sensitive amplification of one mode: q -> G*q, p -> p/G."""
    import numpy as np
    if not (type(mode_index) is int or isinstance(mode_index, np.integer)) or (
            mode_index not in (1, 2)):  # a bool or a float is no index
        raise ValueError(f"mode_index must be 1 or 2, got {mode_index}")
    g = gain.linear
    diag = [g, 1.0 / g, 1.0, 1.0] if mode_index == 1 else [1.0, 1.0, g, 1.0 / g]
    return _congruence(state, np.diag(diag))


def apply_target_channel(
    state: TwoModeCovariance, kappa: float, n_b: float, target_present: bool
) -> TwoModeCovariance:
    """Replace mode 1 by the field returned from the interrogated region.

    With the target absent, mode 1 becomes a thermal mode of brightness
    ``n_b`` and all correlations with mode 2 are lost.  With the target
    present, mode 1 is mixed at reflectance ``kappa`` with a background of
    brightness ``n_b / (1 - kappa)``, so the received brightness is ``n_b``
    under both hypotheses and the target leaves no passive signature.
    Callers always pass the observed background ``n_b``.
    """
    import numpy as np
    kappa = _real(kappa, "reflectance", 0, 1, closed=True, scalar=True)
    n_b = _real(n_b, "background brightness", 0, scalar=True)
    omega = 2.0 * n_b + 1.0
    m = np.array(state.matrix)
    if target_present:
        if kappa == 1.0:
            raise ValueError(
                "kappa = 1 leaves no room for the compensating background"
            )
        omega_eff = 2.0 * n_b / (1.0 - kappa) + 1.0
        m[:2, :2] = kappa * m[:2, :2] + (1.0 - kappa) * (omega_eff / 2.0) * np.eye(2)
        m[:2, 2:] *= math.sqrt(kappa)
        m[2:, :2] = m[:2, 2:].T
    else:
        m[:2, :2] = (omega / 2.0) * np.eye(2)
        m[:2, 2:] = 0.0
        m[2:, :2] = 0.0
    return TwoModeCovariance(m)


def balanced_beam_splitter(state: TwoModeCovariance) -> TwoModeCovariance:
    """Combine the two modes on a 50-50 beam splitter."""
    import numpy as np
    splitter = np.array(
        [
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [1.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, -1.0],
        ]
    ) / math.sqrt(2.0)
    return _congruence(state, splitter)


def cross_correlations(state: TwoModeCovariance) -> CrossCorrelations:
    """Extract <a1^dag a2> and <a1 a2> from the covariance entries."""
    m = state.matrix
    picc = complex(m[0, 2] + m[1, 3], m[0, 3] - m[1, 2]) / 2.0
    pscc = complex(m[0, 2] - m[1, 3], m[0, 3] + m[1, 2]) / 2.0
    return CrossCorrelations(picc=picc, pscc=pscc)


def min_ppt_symplectic_eigenvalue(state: TwoModeCovariance) -> float:
    """Smallest symplectic eigenvalue after partial transposition.

    The momentum of mode 2 is mirrored and the smallest absolute
    eigenvalue of i*Omega*(L V L) returned; a value below 1/2 certifies
    that the state is non-separable.
    """
    import numpy as np
    mirror = np.diag([1.0, 1.0, 1.0, -1.0])  # the sign flip of the mode-2 momentum
    mirrored = mirror @ state.matrix @ mirror
    return float(_abs_symplectic_spectrum(mirrored)[0])


def random_two_mode_symplectic(
    rng: np.random.Generator, max_squeeze: float = 1.0
) -> np.ndarray:
    """Haar-ish random 4x4 symplectic matrix (passive-squeeze-passive).

    Useful for generating random physical states as congruences of
    thermal covariances. ``max_squeeze`` bounds the squeezing parameters
    so conditioning stays benign.
    """
    import numpy as np
    r = rng.uniform(-max_squeeze, max_squeeze, size=2)
    squeeze = np.diag([math.exp(r[0]), math.exp(-r[0]), math.exp(r[1]), math.exp(-r[1])])
    return _random_passive(rng) @ squeeze @ _random_passive(rng)


def _random_passive(rng: np.random.Generator) -> np.ndarray:
    """Random passive (orthogonal symplectic) transform from a Haar U(2)."""
    import numpy as np
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    out = np.zeros((4, 4))
    for j in range(2):
        for k in range(2):
            out[2 * j, 2 * k] = u[j, k].real
            out[2 * j, 2 * k + 1] = -u[j, k].imag
            out[2 * j + 1, 2 * k] = u[j, k].imag
            out[2 * j + 1, 2 * k + 1] = u[j, k].real
    return out
