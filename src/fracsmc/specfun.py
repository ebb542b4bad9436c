"""Special functions and Gauss quadrature.

Jacobi polynomial evaluation by the three-term recurrence, Jacobi norms,
Jacobi-Gauss quadrature rules and the Legendre-Gauss rule mapped to
(0, T).  Everything here is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as sp


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


def jacobi_eval_all(n_max: int, index: JacobiIndex, x) -> np.ndarray:
    """All Jacobi polynomials P_0..P_n_max at x; shape (n_max+1,) + x.shape."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 0.5 * ((index.a + index.b + 2) * x + (index.a - index.b))
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


def _jacobi_step(k, index, x, prev, cur, out, scratch) -> None:
    """P_{k+1} = (a1 x + a2) P_k - a3 P_{k-1}, in that order, into out (may be prev)."""
    a, b = index.a, index.b
    s = 2 * k + a + b
    a1 = (s + 1) * (s + 2) / (2 * (k + 1) * (k + a + b + 1))
    a2 = (a * a - b * b) * (s + 1) / (2 * (k + 1) * (k + a + b + 1) * s)
    a3 = (k + a) * (k + b) * (s + 2) / ((k + 1) * (k + a + b + 1) * s)
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
        sp.gammaln(n + a + 1)
        + sp.gammaln(n + b + 1)
        - sp.gammaln(n + 1)
        - sp.gammaln(n + a + b + 1)
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
    mu0 = 2.0 ** (a + b + 1) * sp.beta(a + 1, b + 1)
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
