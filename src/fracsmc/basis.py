"""Interpolation machinery on (-1,1) and (0,T).

Spatial interpolation uses the singular basis (1-x^2)^(alpha/2) P_n at
Jacobi-Gauss points of index (alpha/2, alpha/2); temporal interpolation
uses shifted Legendre polynomials at Legendre-Gauss points.  Both carry
exact modal maps: the fractional Laplacian acts diagonally on the spatial
basis, the time derivative triangularly on the Legendre basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .specfun import (
    DomainError,
    JacobiIndex,
    QuadratureRule,
    gamma_norm,
    jacobi_eval_all,
    jacobi_gauss,
    jacobi_series,
    legendre_gauss_shifted,
    lgam,
)

_lgam = np.vectorize(lgam, otypes=[float])


class ContractError(ValueError):
    """Caller violated an interface contract (shape/length mismatch)."""


def singular_weight(x: np.ndarray, alpha: float) -> np.ndarray:
    """The weight (1-x^2)^(alpha/2) of the singular basis, 0 outside (-1, 1)."""
    one_m = 1.0 - x * x
    return np.where(one_m > 0, np.abs(one_m) ** (alpha / 2), 0.0)


@lru_cache(maxsize=64, typed=True)
def _gjf_index(alpha: float) -> JacobiIndex:
    """The Jacobi index (alpha/2, alpha/2) of the singular basis, built once per alpha."""
    return JacobiIndex(alpha / 2, alpha / 2)


def gjf_eval(n: int, alpha: float, x):
    """Singular basis function (1-x^2)^(alpha/2) P_n^(alpha/2,alpha/2)(x).

    Vanishes at x = +-1 by construction (the weight is defined as 0 there).
    Keeps the shape of an array x; a scalar x gives a float.
    """
    if not 0 < alpha <= 2:
        raise DomainError(f"alpha must be in (0, 2], got {alpha}")
    x = np.asarray(x, dtype=float)
    out = singular_weight(x, alpha) * jacobi_eval_all(n, _gjf_index(alpha), x)[n]
    return float(out[0]) if x.ndim == 0 else out


def frac_diag_factor(n, alpha: float):
    """Eigenvalue Gamma(n+alpha+1)/n! of the fractional Laplacian on the basis."""
    n = np.asarray(n, dtype=float)
    out = np.exp(_lgam(n + alpha + 1) - _lgam(n + 1))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GjfGrid:
    """Spatial collocation grid and nodal-to-modal map for a given alpha."""

    alpha: float
    N_x: int
    rule: QuadratureRule = field(repr=False)
    c_matrix: np.ndarray = field(repr=False)  # (N_x+1, N_x+1), c[n, j]
    bary_weights: np.ndarray = field(repr=False)  # barycentric weights of the nodes
    flap_diag: np.ndarray = field(repr=False)  # frac_diag_factor of degrees 0..N_x

    @property
    def nodes(self) -> np.ndarray:
        return self.rule.nodes


@lru_cache(maxsize=64)
def make_grid(alpha: float, N_x: int) -> GjfGrid:
    """Build (and cache) the spatial grid for the given order and degree."""
    if not 0 < alpha <= 2:
        raise DomainError(f"alpha must be in (0, 2], got {alpha}")
    if N_x < 0:
        raise DomainError("N_x must be >= 0")
    idx = _gjf_index(alpha)
    rule = jacobi_gauss(N_x, idx)
    x = rule.nodes
    P = jacobi_eval_all(N_x, idx, x)  # (n, j)
    gam = np.array([gamma_norm(n, idx) for n in range(N_x + 1)])
    c = (P * (1 - x * x) ** (-alpha / 2) * rule.weights) / gam[:, None]
    bw = np.array([1.0 / np.prod(xj - np.delete(x, j)) for j, xj in enumerate(x)])
    lam = frac_diag_factor(np.arange(N_x + 1), alpha)
    return GjfGrid(alpha=alpha, N_x=N_x, rule=rule, c_matrix=c, bary_weights=bw, flap_diag=lam)


def lagrange_cardinal(nodes: np.ndarray, bw: np.ndarray, x) -> np.ndarray:
    """Polynomial Lagrange cardinal functions h_j(x); shape (len(nodes),) + x.shape.

    Barycentric form with the nodes' weights bw; exact cardinality at the nodes.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    diff = x[None, :] - nodes[:, None]  # (j, x)
    hit = np.abs(diff) < 1e-300
    anyhit = hit.any(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = bw[:, None] / diff
        denom = terms.sum(axis=0)
        out = terms / denom
    if anyhit.any():
        out[:, anyhit] = hit[:, anyhit].astype(float)
    return out


@dataclass(frozen=True)
class Interpolant1D:
    """Nodal values plus cached modal coefficients on a GjfGrid."""

    grid: GjfGrid
    values: np.ndarray
    modal: np.ndarray = field(repr=False)  # coefficients of the singular basis

    def __call__(self, x):
        return eval_interpolant(self, x)


def interpolate(grid: GjfGrid, samples) -> Interpolant1D:
    """Interpolant through the nodal samples, in the singular-basis span."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.N_x + 1,):
        raise ContractError(
            f"expected {grid.N_x + 1} samples, got shape {samples.shape}"
        )
    modal = grid.c_matrix @ samples
    return Interpolant1D(grid=grid, values=samples, modal=modal)


def eval_interpolant(f: Interpolant1D, x):
    """Evaluate at x in [-1, 1]; returns 0 at the endpoints."""
    grid = f.grid
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    # Barycentric on purpose: it returns the node values exactly at the
    # nodes, where the modal series w * sum_n modal_n P_n is off by ~1e-15
    # at N_x = 2 and ~2e-13 at N_x = 64 for unit-size node values.  Swapped
    # in, the series moves every e_inf row of a poisson_u1 report.
    h = lagrange_cardinal(grid.nodes, grid.bary_weights, flat)  # (j, x)
    one_m = 1.0 - flat * flat
    ratio = np.where(
        one_m[None, :] > 0,
        (np.abs(one_m)[None, :] / (1.0 - grid.nodes[:, None] ** 2)) ** (grid.alpha / 2),
        0.0,
    )
    out = np.einsum("j,jx->x", f.values, ratio * h)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def frac_laplacian_modal(f: Interpolant1D) -> np.ndarray:
    """Coefficients of the exact fractional Laplacian in the Jacobi basis.

    The result expands (-Lap)^(alpha/2) f as sum_n c_n P_n^(a/2,a/2)(x).
    """
    return f.modal * f.grid.flap_diag


def eval_jacobi_series(coeffs: np.ndarray, alpha: float, x):
    """Evaluate sum_n coeffs[n] P_n^(alpha/2,alpha/2)(x), any input shape."""
    x = np.asarray(x, dtype=float)
    out = jacobi_series(coeffs, _gjf_index(alpha), x)
    return float(out[0]) if x.ndim == 0 else out


@dataclass(frozen=True)
class WeightedSeries:
    """x -> (1-x^2)^(alpha/2) sum_n coefficients[n] P_n^(alpha/2,alpha/2)(x).

    Zero outside (-1, 1); keeps the shape of x, and a scalar x gives a float.
    """

    alpha: float
    coefficients: np.ndarray = field(repr=False)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = singular_weight(x, self.alpha) * eval_jacobi_series(
            self.coefficients, self.alpha, x
        )
        return float(out) if out.ndim == 0 else out


def jacobi_projection(f, alpha: float, degree: int) -> np.ndarray:
    """Coefficients c_0..c_degree of f in the P_n^(alpha/2,alpha/2).

    c_n = <f, P_n> / gamma_n in the weight (1-x^2)^(alpha/2), the inner
    product taken by its (degree+41)-point Gauss rule; f maps an array of
    points to values of the same shape.
    """
    idx = _gjf_index(alpha)
    rule = jacobi_gauss(degree + 40, idx)
    P = jacobi_eval_all(degree, idx, rule.nodes)
    g = np.array([gamma_norm(n, idx) for n in range(degree + 1)])
    return (P @ (f(rule.nodes) * rule.weights)) / g


def galerkin_solve(f, alpha: float, N: int) -> WeightedSeries:
    """Diagonal Galerkin solution of (-Delta)^(alpha/2) u = f, u = 0 outside (-1, 1).

    The singular basis diagonalizes the operator, so u's coefficients are
    the degree-N projection of f divided by the eigenvalues.
    """
    if not 0 < alpha <= 2:
        raise DomainError(f"alpha must be in (0, 2], got {alpha}")
    modal_f = jacobi_projection(f, alpha, N)
    return WeightedSeries(alpha, modal_f / frac_diag_factor(np.arange(N + 1), alpha))


@dataclass(frozen=True)
class TimeGrid:
    """Temporal collocation grid on (0, T) with its nodal-to-modal map."""

    T: float
    N_t: int
    rule: QuadratureRule = field(repr=False)
    b_matrix: np.ndarray = field(repr=False)  # (N_t+1, N_t+1), b[q, j]

    @property
    def nodes(self) -> np.ndarray:
        return self.rule.nodes


def shifted_legendre(n_max: int, t, T: float) -> np.ndarray:
    """Shifted Legendre polynomials L_0..L_n_max at times t in [0, T].

    The shape is (n_max+1,) + t.shape, with a scalar t taken as shape (1,).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return jacobi_eval_all(n_max, JacobiIndex(0.0, 0.0), (2.0 * t - T) / T)


@lru_cache(maxsize=64)
def make_time_grid(T: float, N_t: int) -> TimeGrid:
    """Build (and cache) the shifted Legendre-Gauss grid on (0, T)."""
    if T <= 0:
        raise DomainError("T must be positive")
    if N_t < 0:
        raise DomainError("N_t must be >= 0")
    rule = legendre_gauss_shifted(N_t, T)
    L = shifted_legendre(N_t, rule.nodes, T)
    q = np.arange(N_t + 1)[:, None]
    b = (2 * q + 1) / T * L * rule.weights  # == (2q+1)/2 * L_q(t_j) * std weights
    return TimeGrid(T=T, N_t=N_t, rule=rule, b_matrix=b)


@dataclass(frozen=True)
class SpaceTimeInterpolant:
    """Tensor interpolant: singular basis in space x shifted Legendre in time."""

    grid: GjfGrid
    tgrid: TimeGrid
    modal: np.ndarray = field(repr=False)  # (N_x+1, N_t+1), u_hat[p, q]

    def __call__(self, x, t):
        return eval_st_interpolant(self, x, t)


def st_interpolate(grid: GjfGrid, tgrid: TimeGrid, samples) -> SpaceTimeInterpolant:
    """Space-time interpolant through samples[i, j] = u(x_i, t_j)."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.N_x + 1, tgrid.N_t + 1):
        raise ContractError(
            f"expected shape {(grid.N_x + 1, tgrid.N_t + 1)}, got {samples.shape}"
        )
    modal = grid.c_matrix @ samples @ tgrid.b_matrix.T
    return SpaceTimeInterpolant(grid=grid, tgrid=tgrid, modal=modal)


def eval_weighted_columns(alpha: float, weighted, plain, x):
    """sum_p P_p(x) (w(x) weighted[p] + plain[p]) at x.

    P_p are the Jacobi polynomials of index (alpha/2, alpha/2) up to
    degree len(weighted) - 1 and w the singular weight (1-x^2)^(alpha/2).
    weighted and plain are stacks of coefficient columns, one row per
    degree, whose trailing shape broadcasts against x (plain may be None):
    a space-time series gives them as its modal matrices times the
    Legendre rows of the times, so a row of times shared by a batch of
    paths costs one column per distinct time.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    # The Jacobi table is the largest array of a walk's residual call, so it
    # is released before the weight is built.  At the higher peak, glibc
    # trimmed the heap top after nearly every parabolic walk and the loop
    # page-faulted it back in.
    P = jacobi_eval_all(len(weighted) - 1, _gjf_index(alpha), x)
    out = np.einsum("p...,p...->...", P, weighted)
    if plain is not None:
        rest = np.einsum("p...,p...->...", P, plain)
    del P
    out *= singular_weight(x, alpha)
    if plain is not None:
        out += rest
    return out


def eval_st_interpolant(f: SpaceTimeInterpolant, x, t):
    """Evaluate at points (x, t), broadcast elementwise; a scalar pair gives a float.

    A time outside [0, T] raises DomainError, not a Legendre extrapolation.
    """
    T, t = f.tgrid.T, np.asarray(t, dtype=float)
    outside = (t < 0) | (t > T)
    if outside.any():
        raise DomainError(f"time {t[outside].flat[0]:g} is outside [0, T] = [0, {T:g}]")
    L = shifted_legendre(f.tgrid.N_t, t, T)
    cols = (f.modal @ L.reshape(len(L), -1)).reshape((-1,) + L.shape[1:])
    out = eval_weighted_columns(f.grid.alpha, cols, None, x)
    return float(out[0]) if np.ndim(x) == np.ndim(t) == 0 else out


def st_frac_laplacian(f: SpaceTimeInterpolant) -> np.ndarray:
    """Modal matrix of the spatial fractional Laplacian (Jacobi x Legendre)."""
    return f.modal * f.grid.flap_diag[:, None]


def st_time_derivative(f: SpaceTimeInterpolant) -> np.ndarray:
    """Modal matrix of the time derivative (singular basis x Legendre, degree N_t-1)."""
    N_t, T = f.tgrid.N_t, f.tgrid.T
    if N_t < 1:
        raise ContractError("time derivative requires N_t >= 1")
    out = np.zeros((f.grid.N_x + 1, N_t))
    for q in range(N_t):
        ns = np.arange(q + 1, N_t + 1, 2)
        out[:, q] = f.modal[:, ns].sum(axis=1) * (2 * (2 * q + 1) / T)
    return out
