"""Special functions and Gauss quadrature.

Jacobi polynomial evaluation by the three-term recurrence, Jacobi norms,
Jacobi-Gauss quadrature rules and the Legendre-Gauss rule mapped to
(0, T).  Everything here is a pure function of its arguments.

Gamma, lgam, rgamma and beta are the cephes routines (Moshier, Methods
and Programs for Mathematical Functions, 1989) as scipy 1.17 builds them
(xsf::cephes), in Python floats with the same operations in the same
order and libm's exp, log and pow, for arguments x > 0.  They equal
scipy.special's gamma, gammaln and beta there bit for bit, so a solve
need not import scipy.special (about 0.3 s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


@dataclass(frozen=True)
class JacobiIndex:
    """Exponent pair (a, b) of the Jacobi weight (1-x)^a (1+x)^b."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= -1 or self.b <= -1:
            raise DomainError(f"Jacobi indices must exceed -1, got ({self.a}, {self.b})")


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss nodes/weights for a Jacobi weight on (-1, 1)."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum approximating the integral of f * jacobi weight."""
        return float(np.dot(self.weights, values))


_GAMMA_P = (
    1.60119522476751861407e-4, 1.19135147006586384913e-3, 1.04213797561761569935e-2,
    4.76367800457137231464e-2, 2.07448227648435975150e-1, 4.94214826801497100753e-1,
    9.99999999999999996796e-1,
)
_GAMMA_Q = (
    -2.31581873324120129819e-5, 5.39605580493303397842e-4, -4.45641913851797240494e-3,
    1.18139785222060435552e-2, 3.58236398605498653373e-2, -2.34591795718243348568e-1,
    7.14304917030273074085e-2, 1.00000000000000000320e0,
)
_STIR = (  # Stirling's series in 1/x, for 33 < x < MAXGAM
    7.87311395793093628397e-4, -2.29549961613378126380e-4, -2.68132617805781232825e-3,
    3.47222221605458667310e-3, 8.33333333333482257126e-2,
)
_LGAM_A = (
    8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
    -2.77777777730099687205e-3, 8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
    -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5,
)
_LGAM_C = (
    1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
    -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6,
)
_RGAMMA_R = (  # Chebyshev series of 1/(x Gamma(x)) - 1 on (0, 1)
    3.13173458231230000000e-17, -6.70718606477908000000e-16, 2.20039078172259550000e-15,
    2.47691630348254132600e-13, -6.60074100411295197440e-12, 5.13850186324226978840e-11,
    1.08965386454418662084e-9, -3.33964630686836942556e-8, 2.68975996440595483619e-7,
    2.96001177518801696639e-6, -8.04814124978471142852e-5, 4.16609138709688864714e-4,
    5.06579864028608725080e-3, -6.41925436109158228810e-2, -4.98558728684003594785e-3,
    1.27546015610523951063e-1,
)
_MAXGAM = 171.624376956302725  # Gamma overflows above
_MAXSTIR = 143.01608
_MAXLGM = 2.556348e305  # lgam overflows above
_SQTPI = 2.50662827463100050242e0  # sqrt(2 pi)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))


def _positive(x) -> float:
    x = float(x)
    if not x > 0:
        raise DomainError(f"argument must be positive, got {x}")
    return x


def _polevl(x: float, coef) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def Gamma(x) -> float:
    """Gamma(x) for x > 0 (inf above MAXGAM); cephes Gamma."""
    x = _positive(x)
    if x > 33.0:  # Stirling's formula
        if x >= _MAXGAM:
            return math.inf
        w = 1.0 / x
        w = 1.0 + w * _polevl(w, _STIR)
        y = math.exp(x)
        if x > _MAXSTIR:  # pow(x, x - 0.5) would overflow
            v = math.pow(x, 0.5 * x - 0.25)
            y = v * (v / y)
        else:
            y = math.pow(x, x - 0.5) / y
        return _SQTPI * y * w
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        if x < 1e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


def lgam(x) -> float:
    """log Gamma(x) for x > 0; cephes lgam."""
    x = _positive(x)
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        q += _polevl(p, _LGAM_A) / x
    return q


def rgamma(x) -> float:
    """1/Gamma(x) for x > 0; cephes rgamma as xsf has it (1/Gamma above 4)."""
    x = _positive(x)
    if x > 4.0:
        return 1.0 / Gamma(x)
    z, w = 1.0, x
    while w > 1.0:
        w -= 1.0
        z *= w
    if w == 1.0:
        return 1.0 / z
    t, b0, b1, b2 = 4.0 * w - 2.0, _RGAMMA_R[0], 0.0, 0.0
    for c in _RGAMMA_R[1:]:  # the Chebyshev series at t (Clenshaw)
        b2, b1 = b1, b0
        b0 = t * b1 - b2 + c
    return w * (1.0 + 0.5 * (b0 - b2)) / z


def beta(a, b) -> float:
    """Beta(a, b) for a, b > 0 and a + b <= MAXGAM; cephes beta.

    Not Gamma(a) Gamma(b) / Gamma(a+b): cephes multiplies rgamma(a+b) into
    whichever of Gamma(a), Gamma(b) keeps the partial product nearer 1.
    """
    a, b = _positive(a), _positive(b)
    if a < b:
        a, b = b, a
    if a + b > _MAXGAM:  # cephes goes to log-gamma forms there; not ported
        raise DomainError(f"beta is ported for a + b <= {_MAXGAM}, got {a} + {b}")
    rg, ga, gb = rgamma(a + b), Gamma(a), Gamma(b)
    p, q = ga * rg, rg * gb
    return ga * q if abs(abs(p) - 1.0) > abs(abs(q) - 1.0) else p * gb


def jacobi_eval_all(n_max: int, index: JacobiIndex, x) -> np.ndarray:
    """All Jacobi polynomials P_0..P_n_max at x; shape (n_max+1,) + x.shape."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = _jacobi_p1(index, x)
    scratch = np.empty(x.shape)
    for k in range(1, n_max):
        _jacobi_step(k, index, x, out[k - 1], out[k], out[k + 1], scratch)
    return out


def jacobi_series(coeffs: np.ndarray, index: JacobiIndex, x) -> np.ndarray:
    """sum_n coeffs[n] P_n(x) over n < len(coeffs); the shape of x, at least 1-d.

    The jacobi_eval_all recurrence with two rows kept, adding the terms in
    degree order: at two or more points, einsum of coeffs with the table
    bit for bit.  (At one point einsum takes a vectorized dot product.)
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.full(x.shape, 0.0 + coeffs[0])  # einsum's sum starts at 0.0
    prev, cur = jacobi_eval_all(1, index, x)
    scratch = np.empty(x.shape)
    for k in range(1, len(coeffs)):
        if k > 1:  # P_k overwrites P_{k-2}'s row
            _jacobi_step(k - 1, index, x, prev, cur, prev, scratch)
            prev, cur = cur, prev
        np.multiply(cur, coeffs[k], out=scratch)
        out += scratch
    return out


def jacobi_value(n: int, index: JacobiIndex, x: float) -> float:
    """P_n at one point, in Python floats.

    The jacobi_eval_all recurrence with the same operations in the same
    order, so it equals jacobi_eval_all(n, index, [x])[n, 0] bit for bit
    without numpy's per-call cost.
    """
    x = float(x)
    if n == 0:
        return 1.0
    prev, cur = 1.0, _jacobi_p1(index, x)
    for k in range(1, n):
        a1, a2, a3 = _jacobi_coeffs(k, index)
        prev, cur = cur, (x * a1 + a2) * cur - prev * a3
    return float(cur)


def _jacobi_p1(index: JacobiIndex, x):
    return 0.5 * ((index.a + index.b + 2) * x + (index.a - index.b))


def _jacobi_coeffs(k: int, index: JacobiIndex) -> tuple[float, float, float]:
    """(a1, a2, a3) of P_{k+1} = (a1 x + a2) P_k - a3 P_{k-1}."""
    a, b = index.a, index.b
    s = 2 * k + a + b
    a1 = (s + 1) * (s + 2) / (2 * (k + 1) * (k + a + b + 1))
    a2 = (a * a - b * b) * (s + 1) / (2 * (k + 1) * (k + a + b + 1) * s)
    a3 = (k + a) * (k + b) * (s + 2) / ((k + 1) * (k + a + b + 1) * s)
    return a1, a2, a3


def _jacobi_step(k, index, x, prev, cur, out, scratch) -> None:
    """P_{k+1} = (a1 x + a2) P_k - a3 P_{k-1}, in that order, into out (may be prev)."""
    a1, a2, a3 = _jacobi_coeffs(k, index)
    np.multiply(prev, a3, out=scratch)
    np.multiply(x, a1, out=out)
    out += a2
    out *= cur
    out -= scratch


def gamma_norm(n: int, index: JacobiIndex) -> float:
    """Weighted L2 norm-squared of P_n^(a,b) against its Jacobi weight."""
    a, b = index.a, index.b
    # log-gamma form: the individual gamma factors overflow near n ~ 170
    log_ratio = (
        lgam(n + a + 1)
        + lgam(n + b + 1)
        - lgam(n + 1)
        - lgam(n + a + b + 1)
    )
    return float(
        2.0 ** (a + b + 1) / (2 * n + a + b + 1) * np.exp(log_ratio)
    )


def jacobi_gauss(N: int, index: JacobiIndex) -> QuadratureRule:
    """N+1 point Gauss rule for the Jacobi weight (1-x)^a (1+x)^b.

    Golub-Welsch: eigen-decomposition of the symmetric tridiagonal matrix
    of recurrence coefficients.  Exact for polynomials of degree 2N+1.
    """
    if N < 0:
        raise DomainError("jacobi_gauss requires N >= 0")
    a, b = index.a, index.b
    n = N + 1
    mu0 = 2.0 ** (a + b + 1) * beta(a + 1, b + 1)
    if n == 1:
        nodes = np.array([(b - a) / (a + b + 2)])
        weights = np.array([mu0])
    else:
        k = np.arange(n, dtype=float)
        s = 2 * k + a + b
        j, sj = k[1:], s[1:]
        with np.errstate(invalid="ignore", divide="ignore"):
            diag = (b * b - a * a) / (s * (s + 2))
            off = np.sqrt(4 * j * (j + a) * (j + b) * (j + a + b) / (sj * sj * (sj * sj - 1)))
        diag[np.isnan(diag) | np.isinf(diag)] = 0.0
        if a + b == 0:
            diag[0] = (b - a) / (a + b + 2)
        if a + b == -1:  # the j = 1 entry is 0/0 there; this is its limit
            off[0] = np.sqrt(4 * (1 + a) * (1 + b) / ((a + b + 2) ** 2 * (a + b + 3)))
        nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        weights = mu0 * vecs[0, :] ** 2
    if a == b:
        # enforce exact mirror symmetry, eigh only gets it to rounding
        nodes = 0.5 * (nodes - nodes[::-1])
        weights = 0.5 * (weights + weights[::-1])
    return QuadratureRule(nodes=nodes, weights=weights)


def legendre_gauss_shifted(N: int, T: float) -> QuadratureRule:
    """N+1 point Gauss-Legendre rule mapped to (0, T); weights sum to T."""
    if T <= 0:
        raise DomainError("legendre_gauss_shifted requires T > 0")
    base = jacobi_gauss(N, JacobiIndex(0.0, 0.0))
    nodes = 0.5 * T * (base.nodes + 1.0)
    weights = 0.5 * T * base.weights
    return QuadratureRule(nodes=nodes, weights=weights)
