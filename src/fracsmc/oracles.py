"""Brute-force references.

The fractional Laplacian is evaluated straight from its principal-value
integral, the reference solution comes from the deterministic diagonal
Galerkin projection basis.galerkin_solve (bound here by name), and the
stable process is simulated step by step with Chambers-Mallows-Stuck
increments.  The occupation density of a ball (greens_q) and its
quadrature (occupation_zeta) check the closed-form exit time
walks.zeta_closed.  These referees are low-accuracy by design; they tie
the spectral identities and the walk kernels to ground truth.  They
share with the solver the Jacobi recurrence, Gauss rules and Gamma of
specfun, basis.frac_diag_factor (for the closed form gjf_identity_rhs
only), and from walks BallGeometry, zeta_closed and the reference jump
inversion sample_jump_scaled (which the kernels do not call); the
integral, Green's function, CMS and Euler code is their own.
No solver module imports this one.  The CLI imports it for its validate
suites, so the referees reach scipy.special and scipy.integrate only
when they run: a `fracsmc run` loads neither.  Only occupation_zeta
integrates adaptively (scipy.integrate.quad); frac_laplacian_direct
sums fixed Gauss rules, cached per rule.  The jump-law check takes its
two-sample KS statistic itself (ks_statistic), so nothing here loads
scipy.stats.

The referees are bit-for-bit reproducible.  frac_laplacian_direct calls
u once per panel with all of the panel's points.  The Euler exit keeps
the paths still inside packed in index order, so a step touches only
those paths and draw j still moves the j-th of them; it scales, adds
and tests each step's draws in the draws' own buffer.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy  # scipy.special (greens_q's hyp2f1) loads on first use

from .basis import frac_diag_factor, galerkin_solve  # noqa: F401 (the Galerkin referee)
from .specfun import DomainError, Gamma, JacobiIndex, jacobi_eval_all, jacobi_gauss
from .walks import (
    JUMP_LAW_EXIT,
    JUMP_LAW_VERBATIM,
    BallGeometry,
    sample_jump_scaled,
    zeta_closed,
)


class QuadratureFailure(RuntimeError):
    """The singular integral moved with its window beyond the tolerance."""


def normalization_constant(alpha: float) -> float:
    """Constant 2^a Gamma((1+a)/2) / (pi^(1/2) |Gamma(-a/2)|) of the operator.

    |Gamma(-a/2)| = Gamma(1-a/2)/(a/2); the basis derivative identity pins
    this normalization (see tests).
    """
    return float(
        alpha
        * 2 ** (alpha - 1)
        * Gamma((1 + alpha) / 2)
        / (np.pi ** 0.5 * Gamma(1 - alpha / 2))
    )


_WINDOW_POINTS = 12  # more points reach smaller h, where the second difference cancels
_PANEL_POINTS = 60
_SETTLE_TOL = 1e-6  # relative move allowed between the windows dist/2 and dist/4


@lru_cache(maxsize=64)
def _rule(n_points: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for (1-t)^a (1+t)^b on (-1, 1)."""
    rule = jacobi_gauss(n_points - 1, JacobiIndex(a, b))
    return rule.nodes, rule.weights


def frac_laplacian_direct(u, x: float, alpha: float) -> float:
    """Fractional Laplacian of u at an interior x from the singular integral.

    u maps an array of points in (-1, 1) to an array of values; it is taken
    as zero outside (-1, 1) and must be (1-y^2)^(alpha/2) times a smooth
    function near +-1.  Fixed Gauss rules, one array call of u per panel:
    the window |y - x| < delta in the second-difference form with the
    weight h^(1-alpha); the rest of (-1, 1) on panels in s = |y - x| that
    double from delta outward, the last one weighted by u's boundary factor
    (end - s)^(alpha/2); the u(x) part of all of it, exterior included, in
    closed form.  The value at delta = dist/2 must agree with the one at
    dist/4, or QuadratureFailure is raised.
    """
    if not -1 < x < 1:
        raise DomainError("frac_laplacian_direct requires interior x")
    if not 0 < alpha < 2:
        raise DomainError("direct evaluation requires alpha in (0, 2)")
    dist = min(1 - x, 1 + x)
    value, check = (_pv_integral(u, x, alpha, dist / k) for k in (2, 4))
    if abs(check - value) > _SETTLE_TOL * max(1.0, abs(value)):
        raise QuadratureFailure(f"windows dist/2 and dist/4 disagree: {value}, {check}")
    return normalization_constant(alpha) * value


def _pv_integral(u, x: float, alpha: float, delta: float) -> float:
    """The principal-value integral of (u(x) - u(y)) |x - y|^(-1-alpha) over the line."""
    t, w = _rule(_WINDOW_POINTS, 0.0, 1 - alpha)
    h = 0.5 * delta * (1 + t)
    vals = np.asarray(u(np.concatenate(([x], x + h, x - h))), dtype=float)
    ux, right, left = vals[0], vals[1 : len(h) + 1], vals[len(h) + 1 :]
    # the second difference over h^2 is smooth through h = 0
    window = (0.5 * delta) ** (2 - alpha) * np.dot(w, (2 * ux - right - left) / h**2)
    # the u(x) part of everything outside the window, exterior included
    outside = 2 * ux * delta**-alpha / alpha
    for sign, end in ((1.0, 1 - x), (-1.0, 1 + x)):
        lo = delta
        t, w = _rule(_PANEL_POINTS, 0.0, 0.0)
        while 2 * lo < end:
            s = lo * (1.5 + 0.5 * t)
            fy = np.asarray(u(x + sign * s), dtype=float)
            outside -= 0.5 * lo * np.dot(w, fy * s ** (-1 - alpha))
            lo *= 2
        # u vanishes like (end - s)^(alpha/2) there: that is the rule's weight
        t, w = _rule(_PANEL_POINTS, alpha / 2, 0.0)
        half = 0.5 * (end - lo)
        s, gap = lo + half * (1 + t), half * (1 - t)
        fy = np.asarray(u(x + sign * s), dtype=float) / gap ** (alpha / 2)
        outside -= half ** (1 + alpha / 2) * np.dot(w, fy * s ** (-1 - alpha))
    return float(window + outside)


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
        step = sample_symmetric_stable(alpha, rng, size=len(ids))
        step *= scale
        pos += step
        out = np.abs(pos, out=step) >= halfwidth
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
    rng = np.random.default_rng(seed)
    dt = zeta_closed(0.0, 1.0, alpha) / euler_steps_per_exit
    loc, _, capped = euler_stable_exit(0.0, 1.0, alpha, dt, rng, n_paths=n_euler)
    euler_disp = np.sort(np.abs(loc[~capped]))
    out = {"alpha": alpha, "dt": dt, "euler_capped": int(capped.sum())}
    for law in (JUMP_LAW_EXIT, JUMP_LAW_VERBATIM):
        omega = rng.uniform(size=n_jump)
        jumps = sample_jump_scaled(omega, alpha, law)
        out[law] = ks_statistic(np.sort(jumps), euler_disp)
    return out


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic of two sorted samples.

    sup |F_a - F_b| over the pooled points, by the same right-ranks and
    extremum steps as scipy.stats.ks_2samp's two-sided asymptotic mode,
    so the same float; no p-value.  Each sample's ranks in itself come in
    linear time (no NaN), only the cross ranks by searchsorted.
    """
    diffs_a = _own_right_ranks(a) / len(a) - np.searchsorted(b, a, side="right") / len(b)
    diffs_b = np.searchsorted(a, b, side="right") / len(a) - _own_right_ranks(b) / len(b)
    # the largest pooled point gives diffs = 0, so both extremes are >= 0;
    # a tie goes to the positive side, as in scipy
    return float(max(diffs_a.max(), diffs_b.max(), -diffs_a.min(), -diffs_b.min()))


def _own_right_ranks(a: np.ndarray) -> np.ndarray:
    """searchsorted(a, a, side="right") of a sorted a: one past each run of ties."""
    ends = np.flatnonzero(np.append(a[1:] != a[:-1], True)) + 1
    return np.repeat(ends, np.diff(ends, prepend=0))


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
    if isinstance(x, float) and isinstance(y, float) and alpha != 1 and alpha != 2:
        # occupation_zeta's quadrature asks for one point at a time: the
        # array path's checks and operations in Python floats, bit for bit
        if abs(x) >= r or abs(y) >= r:
            raise DomainError("greens_q requires |x| < r and |y| < r")
        if x == y:
            raise DomainError("greens_q is singular at x = y")
        return float(_greens_q_hyp(x, y, r, alpha))
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(x) >= r) or np.any(np.abs(y) >= r):
        raise DomainError("greens_q requires |x| < r and |y| < r")
    if np.any(x == y):
        raise DomainError("greens_q is singular at x = y")
    if alpha == 2:
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        out = (r + lo) * (r - hi) / (2 * r)
    elif alpha == 1:
        # hyp2f1(1/2, 1/2, 3/2, -rho) overflows in scipy for huge rho;
        # at alpha = 1 it reduces to arcsinh(sqrt(rho)) / sqrt(rho)
        rho = (r * r - x * x) * (r * r - y * y) / (r * r * (y - x) ** 2)
        out = np.arcsinh(np.sqrt(rho)) / np.pi
    else:
        out = _greens_q_hyp(x, y, r, alpha)
    return float(out) if out.ndim == 0 else out


def _greens_q_hyp(x, y, r: float, alpha: float):
    """greens_q at alpha not in {1, 2}, its hypergeometric form.

    Floats or arrays alike.  Arithmetic on 0-d arrays gives numpy scalars,
    whose ** calls the C library's pow, as float ** does (numpy's pow on
    longer arrays can round differently), so float x, y give the bits of
    0-d ones.
    """
    rho = (r * r - x * x) * (r * r - y * y) / (r * r * (y - x) ** 2)
    coeff = 1.0 / (2**alpha * Gamma(alpha / 2) ** 2)
    inner = (2 / alpha) * rho ** (alpha / 2) * scipy.special.hyp2f1(
        0.5, alpha / 2, 1 + alpha / 2, -rho
    )
    return coeff * abs(y - x) ** (alpha - 1) * inner


def occupation_zeta(x: float, geom: BallGeometry, alpha: float) -> float:
    """Integral of Q(x, .) over the ball, by adaptive quadrature.

    Equals the expected first-exit time from the ball started at x; the
    fast closed form walks.zeta_closed is cross-checked against this in tests.
    """
    xi = x - geom.center
    r = geom.radius
    if abs(xi) >= r:
        raise DomainError("occupation_zeta requires x inside the ball")
    from scipy import integrate  # lazily: it costs ~0.3 s to import

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
