"""Brute-force references.

The fractional Laplacian is evaluated straight from its principal-value
integral, the reference solution comes from a deterministic diagonal
Galerkin projection, and the stable process is simulated step by step
with Chambers-Mallows-Stuck increments.  The occupation density of a ball
(greens_q) and its quadrature (occupation_zeta) check the closed-form
exit time walks.zeta_closed.  These referees are low-accuracy by design;
they tie the spectral identities and the walk kernels to ground truth.
They share with the solver the Jacobi recurrence, norms and Gauss rules
of specfun, basis.frac_diag_factor and basis.WeightedSeries (the type of
the Galerkin solution), and from walks BallGeometry, zeta_closed and
the reference jump inversion sample_jump_scaled (which the kernels do
not call); the integral, Green's function, CMS and Euler code is their
own.  No solver module imports this one.  The CLI imports it for its
validate suites, so the referees import scipy.integrate and scipy.stats
only when they run: a `fracsmc run` loads neither.

The referees are bit-for-bit reproducible, and two of them are hot loops.
frac_laplacian_direct calls its integrand once per quadrature point (a
scalar basis.gjf_eval stays in Python floats for it) and silences
QUADPACK's IntegrationWarning only inside its own call.  The Euler exit
keeps the paths still inside packed in index order, so a step touches
only those paths and draw j still moves the j-th of them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .basis import WeightedSeries, frac_diag_factor
from .specfun import DomainError, JacobiIndex, gamma_norm, jacobi_eval_all, jacobi_gauss
from .walks import (
    JUMP_LAW_EXIT,
    JUMP_LAW_VERBATIM,
    BallGeometry,
    sample_jump_scaled,
    zeta_closed,
)


class QuadratureFailure(RuntimeError):
    """The cutoff extrapolation did not settle within the tolerance."""


def normalization_constant(alpha: float) -> float:
    """Constant 2^a Gamma((1+a)/2) / (pi^(1/2) |Gamma(-a/2)|) of the operator.

    |Gamma(-a/2)| = Gamma(1-a/2)/(a/2); the basis derivative identity pins
    this normalization (see tests).
    """
    return float(
        alpha
        * 2 ** (alpha - 1)
        * sp.gamma((1 + alpha) / 2)
        / (np.pi ** 0.5 * sp.gamma(1 - alpha / 2))
    )


@dataclass(frozen=True)
class FracLapOracleConfig:
    """Knobs of the principal-value evaluation."""

    epsilons: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    quad_tol: float = 1e-9
    settle_tol: float = 1e-6


def frac_laplacian_direct(
    u,
    x: float,
    alpha: float,
    cfg: FracLapOracleConfig = FracLapOracleConfig(),
) -> float:
    """Fractional Laplacian of u at an interior x from the singular integral.

    u maps a float to a number and is taken as zero outside (-1, 1).  The
    window around x uses the absolutely convergent second-difference form;
    the rest of (-1, 1) is integrated adaptively and the exterior is summed
    in closed form.  The value is recomputed over the shrinking window
    schedule and must settle.
    """
    if not -1 < x < 1:
        raise DomainError("frac_laplacian_direct requires interior x")
    if not 0 < alpha < 2:
        raise DomainError("direct evaluation requires alpha in (0, 2)")
    # scipy.integrate and what it loads (optimize, sparse, linalg) cost
    # ~0.3 s to import and only the referees that integrate need them,
    # so a plain `fracsmc run` does not load them
    from scipy import integrate

    C = normalization_constant(alpha)
    user_u = u
    u = lambda y: float(user_u(y))  # QUADPACK wants plain floats back
    ux = u(x)
    dist = min(1 - x, 1 + x)

    def value(delta: float) -> float:
        # Second difference / h^2 is smooth through h = 0; the remaining
        # h^(1-alpha) algebraic factor is handled by the weighted rule.
        def second_diff(h: float) -> float:
            if h < 1e-7:  # CC abscissae include h = 0; take the limit value
                h = 1e-4
            return (2 * ux - u(x + h) - u(x - h)) / h**2

        window, _ = integrate.quad(
            second_diff,
            0.0,
            delta,
            weight="alg",
            wvar=(1 - alpha, 0),
            epsabs=cfg.quad_tol,
            epsrel=cfg.quad_tol,
            limit=200,
        )
        right, _ = integrate.quad(
            lambda y: (ux - u(y)) / (y - x) ** (1 + alpha),
            x + delta,
            1.0,
            epsabs=cfg.quad_tol,
            epsrel=cfg.quad_tol,
            limit=200,
        )
        left, _ = integrate.quad(
            lambda y: (ux - u(y)) / (x - y) ** (1 + alpha),
            -1.0,
            x - delta,
            epsabs=cfg.quad_tol,
            epsrel=cfg.quad_tol,
            limit=200,
        )
        exterior = ux * ((1 - x) ** -alpha + (1 + x) ** -alpha) / alpha
        return C * (window + right + left + exterior)

    # the second-difference window runs into float cancellation by design;
    # the settle check below is the real accuracy control
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        vals = [value(d) for d in cfg.epsilons if d < dist] or [value(dist / 2)]
    if len(vals) >= 2:
        # Shrinking the window beyond the float cancellation floor of the
        # second difference degrades the value again, so accept the first
        # consecutive pair that agrees rather than insisting on the last.
        for a, b in zip(vals, vals[1:]):
            if abs(b - a) <= cfg.settle_tol * max(1.0, abs(a)):
                return a
        raise QuadratureFailure(f"cutoff schedule did not settle: {vals}")
    return vals[-1]


def galerkin_solve(f, alpha: float, N: int) -> WeightedSeries:
    """Diagonal Galerkin solution of the homogeneous fractional Poisson problem.

    The singular basis diagonalizes the operator, so each coefficient is a
    single weighted inner product of the source.
    """
    if not 0 < alpha <= 2:
        raise DomainError(f"alpha must be in (0, 2], got {alpha}")
    idx = JacobiIndex(alpha / 2, alpha / 2)
    rule = jacobi_gauss(N + 80, idx)
    fx = np.asarray(f(rule.nodes), dtype=float)
    P = jacobi_eval_all(N, idx, rule.nodes)
    inner = P @ (fx * rule.weights)
    m = np.arange(N + 1)
    gam = np.array([gamma_norm(n, idx) for n in m])
    return WeightedSeries(alpha, inner / (frac_diag_factor(m, alpha) * gam))


def sample_symmetric_stable(
    alpha: float, rng: np.random.Generator, size=None
) -> np.ndarray | float:
    """Standard symmetric stable variates, char. function exp(-|xi|^alpha).

    Chambers-Mallows-Stuck transform; Gaussian with variance 2 at alpha=2.
    """
    if not 0 < alpha <= 2:
        raise DomainError(f"alpha must be in (0, 2], got {alpha}")
    U = rng.uniform(-np.pi / 2, np.pi / 2, size=size)
    W = rng.exponential(1.0, size=size)
    if alpha == 1:
        return np.tan(U)
    s = np.sin(alpha * U) / np.cos(U) ** (1 / alpha)
    s *= (np.cos((1 - alpha) * U) / W) ** ((1 - alpha) / alpha)
    return s


_EULER_STEP_CAP = 10_000_000


def euler_stable_exit(
    x0: float,
    halfwidth: float,
    alpha: float,
    dt: float,
    rng: np.random.Generator,
    n_paths: int = 1,
):
    """First exit of the Euler-discretized stable path from (-h, h).

    Returns (locations, steps, capped) arrays; the exit sample is the first
    post-jump state outside, with no overshoot correction.  The paths still
    inside stay packed in index order (their ids and positions), so draw j
    of a step moves the j-th of them and a step costs only the paths left.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    ids = np.arange(n_paths)
    pos = np.full(n_paths, float(x0))
    steps = np.zeros(n_paths, dtype=np.int64)
    loc = np.full(n_paths, np.nan)
    scale = dt ** (1.0 / alpha)
    k = 0
    while len(ids) and k < _EULER_STEP_CAP:
        k += 1
        pos += scale * sample_symmetric_stable(alpha, rng, size=len(ids))
        out = np.abs(pos) >= halfwidth
        if out.any():
            done = ids[out]
            loc[done] = pos[out]
            steps[done] = k
            stay = ~out
            ids, pos = ids[stay], pos[stay]
    steps[ids] = k
    capped = np.zeros(n_paths, dtype=bool)
    capped[ids] = True
    return loc, steps, capped


def jump_law_ks(
    alpha: float,
    seed: int = 0,
    n_jump: int = 1_000_000,
    n_euler: int = 200_000,
    euler_steps_per_exit: float = 400.0,
) -> dict:
    """Two-sample KS of each jump-law code path against the Euler exit oracle.

    Compares the exit displacement |X| from the unit ball (started at the
    center) under both candidate laws; dt is set so an exit takes the given
    expected number of Euler steps.
    """
    # scipy.stats costs ~0.3 s to import and only this check needs it,
    # so a plain `fracsmc run` does not load it
    from scipy import stats

    rng = np.random.default_rng(seed)
    dt = zeta_closed(0.0, 1.0, alpha) / euler_steps_per_exit
    loc, _, capped = euler_stable_exit(0.0, 1.0, alpha, dt, rng, n_paths=n_euler)
    euler_disp = np.abs(loc[~capped])
    out = {"alpha": alpha, "dt": dt, "euler_capped": int(capped.sum())}
    for law in (JUMP_LAW_EXIT, JUMP_LAW_VERBATIM):
        omega = rng.uniform(size=n_jump)
        jumps = sample_jump_scaled(omega, alpha, law)
        out[law] = float(stats.ks_2samp(jumps, euler_disp).statistic)
    return out


def gjf_identity_rhs(n: int, alpha: float, x):
    """Closed-form fractional Laplacian of the n-th singular basis function."""
    x = np.atleast_1d(np.asarray(x, float))
    P = jacobi_eval_all(n, JacobiIndex(alpha / 2, alpha / 2), x)
    return frac_diag_factor(n, alpha) * P[n]


def greens_q(x, y, r: float, alpha: float):
    """Occupation density Q(x, y) of the stable process in the ball |.| < r.

    Ball centered at the origin; vectorized in x, y.  For alpha = 2 this is
    the classical interval Green's function.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(x) >= r) or np.any(np.abs(y) >= r):
        raise DomainError("greens_q requires |x| < r and |y| < r")
    if np.any(x == y):
        raise DomainError("greens_q is singular at x = y")
    if alpha == 2:
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        out = (r + lo) * (r - hi) / (2 * r)
    else:
        rho = (r * r - x * x) * (r * r - y * y) / (r * r * (y - x) ** 2)
        if alpha == 1:
            # hyp2f1(1/2, 1/2, 3/2, -rho) overflows in scipy for huge rho;
            # at alpha = 1 it reduces to arcsinh(sqrt(rho)) / sqrt(rho)
            out = np.arcsinh(np.sqrt(rho)) / np.pi
        else:
            coeff = 1.0 / (2**alpha * sp.gamma(alpha / 2) ** 2)
            inner = (2 / alpha) * rho ** (alpha / 2) * sp.hyp2f1(
                0.5, alpha / 2, 1 + alpha / 2, -rho
            )
            out = coeff * np.abs(y - x) ** (alpha - 1) * inner
    return float(out) if out.ndim == 0 else out


def occupation_zeta(x: float, geom: BallGeometry, alpha: float) -> float:
    """Integral of Q(x, .) over the ball, by adaptive quadrature.

    Equals the expected first-exit time from the ball started at x; the
    fast closed form walks.zeta_closed is cross-checked against this in tests.
    """
    xi = x - geom.center
    r = geom.radius
    if abs(xi) >= r:
        raise DomainError("occupation_zeta requires x inside the ball")
    from scipy import integrate  # lazily, as in frac_laplacian_direct

    val, _ = integrate.quad(
        lambda y: greens_q(xi, y, r, alpha),
        -r,
        r,
        points=[xi],
        limit=300,
        epsabs=0.0,
        epsrel=1e-10,
    )
    return float(val)
