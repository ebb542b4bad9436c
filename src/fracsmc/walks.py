"""Stochastic kernels on the interval (-1, 1).

Walk-on-spheres for the fractional Poisson problem (inscribed balls, exact
ball-exit jump law, occupation-weighted source term) and the fixed-radius
walk for the parabolic problem with a trapezoid source functional along
the path.  poisson_walks steps the paths of many start points in one loop
(a steady sweep makes one call), each start drawing from its own stream.
All paths of a start begin in the same ball, so the first step evaluates
the source once per start; the occupation rule's dot product is still
taken one start's block of paths at a time.
parabolic_walks draws nothing: it walks a unit_walk block, which all
nodes of a sweep share (correlated noise, each node still unbiased).

The exterior data are zero: a path scores nothing where it leaves (-1, 1).
Each kernel takes the numpy-vectorized functions it scores, the source
and, for the parabolic walk, the initial data; the solvers pass the
residuals of their current iterate.

Occupation law: the normalized Green's function of the unit ball, seen
from its center, is the law of Y = S V with S^2 ~ Beta(1/2, a/2), a
symmetric sign, and V = U^(1/a).  poisson_walks averages the source under
it by a Gauss rule (occupation_rule) and draws no random numbers for it.

Jump law: the ball-exit distance of the symmetric stable process started
at the ball center is exactly J = r W^(-1/2) with W ~ Beta(a/2, 1-a/2)
(Blumenthal-Getoor-Ray) for a in (0, 2), and J = r, its limit, at a = 2;
the mean exit time is r^a / Gamma(1+a) (zeta_closed) for all a in (0, 2].
poisson_walks and unit_walk draw J with sample_jump.  sample_jump_scaled
is the reference inversion of the same law through the inverse
incomplete Beta, kept with a "verbatim" variant (the complete Beta in
place of the 1) for the Euler-exit comparison in oracles.jump_law_ks,
which the verbatim form fails: it produces J < r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .rng import RngStream
from .specfun import DomainError, Gamma, JacobiIndex, jacobi_gauss

JUMP_LAW_EXIT = "exit_law"
JUMP_LAW_VERBATIM = "verbatim"
DEFAULT_JUMP_LAW = JUMP_LAW_EXIT

POISSON_STEP_CAP = 100_000
_W_FLOOR = 5e-324  # floor on the jump samplers' W, so J = W^(-1/2) stays finite
MAX_UNIT_JUMP = 1 / math.sqrt(_W_FLOOR)  # sample_jump's largest draw, ~4.5e161
# default node count of the occupation rule (poisson_walks, PoissonConfig and
# the `m1` config key)
OCCUPATION_NODES = 32


class CappedWalkError(RuntimeError):
    """Every path of a batch hit the step cap, so it has no mean score."""


@dataclass(frozen=True)
class BallGeometry:
    """Ball inside (-1, 1): center plus radius."""

    center: float
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise DomainError("ball radius must be positive")


@dataclass
class WalkBatch:
    """Vectorized outcomes for a block of paths (start-major for several starts)."""

    scores: np.ndarray
    steps: np.ndarray
    capped: np.ndarray

    @property
    def n_capped(self) -> int:
        return int(self.capped.sum())

    def mean_score(self) -> float:
        """Mean over non-capped paths."""
        ok = ~self.capped
        if not ok.any():
            raise CappedWalkError(f"every walk hit the {POISSON_STEP_CAP}-step cap")
        return float(self.scores[ok].mean())

    def standard_error(self) -> float:
        """Monte Carlo standard error of mean_score, over the non-capped paths."""
        ok = self.scores[~self.capped]
        dev = ok - ok.sum() / len(ok)
        return math.sqrt(dev @ dev) / len(ok)


def fixed_radius(dt: float, alpha: float) -> float:
    """Ball radius whose mean exit time r^alpha / Gamma(1+alpha) equals dt."""
    if dt <= 0:
        raise DomainError("dt must be positive")
    try:
        r = (dt * Gamma(1 + alpha)) ** (1.0 / alpha)
    except OverflowError:
        r = math.inf
    if not math.isfinite(r):
        raise DomainError(
            f"the walk radius for dt = {dt:.3g} at alpha = {alpha} is not finite"
        )
    return float(r)


def zeta_closed(offset, radius, alpha: float):
    """Expected exit time from a ball, started at |offset| from the center.

    Closed form (r^2 - offset^2)^(alpha/2) / Gamma(1+alpha); valid for the
    whole range alpha in (0, 2].
    """
    offset = np.asarray(offset, dtype=float)
    out = np.abs(radius**2 - offset**2) ** (alpha / 2) / Gamma(1 + alpha)
    return float(out) if out.ndim == 0 else out


def sample_jump(rng: np.random.Generator, alpha: float, size):
    """Exact ball-exit jump distance for unit radius: J = W^(-1/2).

    W ~ Beta(alpha/2, 1 - alpha/2); W is floored at _W_FLOOR, the smallest
    subnormal, so J stays finite (at most MAX_UNIT_JUMP) when W underflows
    to 0 as alpha -> 0.  At alpha = 2, J = 1 and rng draws nothing.
    """
    if not 0 < alpha <= 2:
        raise DomainError(f"jump sampling requires alpha in (0, 2], got {alpha}")
    if alpha == 2:
        return np.ones(size)
    w = rng.beta(alpha / 2, 1 - alpha / 2, size=size)
    return 1.0 / np.sqrt(np.maximum(w, _W_FLOOR))


def sample_jump_scaled(omega, alpha: float, law: str = DEFAULT_JUMP_LAW):
    """Reference inversion of the ball-exit jump law for unit radius.

    Maps uniforms omega in (0, 1) through the inverse incomplete Beta; the
    kernels draw the same law with sample_jump, and the oracles and the
    jump-law checks use this one.
    """
    if not 0 < alpha < 2:
        raise DomainError(f"jump sampling requires alpha in (0, 2), got {alpha}")
    from scipy.special import betaincinv  # only this reference needs scipy

    omega = np.asarray(omega, dtype=float)
    if law == JUMP_LAW_EXIT:
        # Invert the complementary regularized incomplete beta so 1 - v is
        # held to full relative precision deep in the heavy tail, where
        # v itself would round to 1:  I_v(a, b) = 1 - I_{1-v}(b, a).
        one_minus_v = betaincinv(alpha / 2, 1 - alpha / 2, np.maximum(1.0 - omega, 1e-300))
        out = 1.0 / np.sqrt(np.maximum(one_minus_v, _W_FLOOR))
    elif law == JUMP_LAW_VERBATIM:
        complete = np.pi / np.sin(np.pi * alpha / 2)
        v = betaincinv(1 - alpha / 2, alpha / 2, omega)
        out = 1.0 / np.sqrt(complete - v)
    else:
        raise ValueError(f"unknown jump law {law!r}")
    return float(out) if out.ndim == 0 else out


def sample_direction_1d(rng: np.random.Generator, size=None):
    """Symmetric sign: -1 or +1 with probability 1/2 each."""
    draw = rng.integers(0, 2, size=size)
    return 2.0 * draw - 1.0


# ---------------------------------------------------------------------------
# the occupation law at the ball center


@lru_cache(maxsize=64)
def occupation_rule(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule (nodes, weights) for the occupation law Y = S V.

    S has density ~ (1-s^2)^(alpha/2-1) on (-1, 1), V density alpha
    v^(alpha-1) on (0, 1); the tensor product of their (n+1)-point Jacobi
    rules has the moments of Y to degree 2n+1, and the discretized
    Stieltjes procedure on it gives the Jacobi matrix of Y.  The weights
    sum to 1; the rule is exact to degree 2n-1.
    """
    if n < 1:
        raise DomainError(f"occupation_rule needs n >= 1, got {n}")
    s = jacobi_gauss(n, JacobiIndex(alpha / 2 - 1, alpha / 2 - 1))
    v = jacobi_gauss(n, JacobiIndex(0.0, alpha - 1))
    y = np.outer(s.nodes, 0.5 * (1.0 + v.nodes)).ravel()
    w = np.outer(s.weights, v.weights).ravel()
    w /= w.sum()
    # orthonormal three-term recurrence p_{k+1} b_k = y p_k - b_{k-1} p_{k-1};
    # Y is symmetric, so the recurrence has no diagonal term
    b = np.empty(n - 1)
    p_prev, p = np.zeros_like(y), np.ones_like(y)
    for k in range(n - 1):
        q = y * p - (b[k - 1] * p_prev if k else 0.0)
        b[k] = np.sqrt(np.dot(w, q * q))
        p_prev, p = p, q / b[k]
    nodes, vecs = np.linalg.eigh(np.diag(b, 1) + np.diag(b, -1))
    weights = vecs[0] ** 2
    # exact mirror symmetry, as in jacobi_gauss
    return 0.5 * (nodes - nodes[::-1]), 0.5 * (weights + weights[::-1])


def sample_interior(
    x: float, geom: BallGeometry, alpha: float, rng: np.random.Generator, size=None
) -> np.ndarray | float:
    """Exact draws of the occupation law of the ball, started at its center x.

    Y = S V with S = +-sqrt(Beta(1/2, alpha/2)) and V = U^(1/alpha).
    """
    if x != geom.center:
        raise DomainError("sample_interior starts at the ball center only")
    s = np.sqrt(rng.beta(0.5, alpha / 2, size=size))
    s = s * sample_direction_1d(rng, size=size)
    v = rng.uniform(size=size) ** (1.0 / alpha)
    out = geom.center + geom.radius * (s * v)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# Poisson walk


def poisson_walks(
    starts,
    source: Callable,
    alpha: float,
    streams: Sequence[RngStream],
    n_paths: int,
    n_rule: int = OCCUPATION_NODES,
) -> WalkBatch:
    """n_paths walk-on-spheres paths from each start, all stepped in one loop.

    Score per path: the occupation-weighted averages of `source` over the
    visited balls, each by the n_rule-point occupation_rule (exact to
    degree 2 n_rule - 1); `source` maps an array of points to values of
    the same shape.  On step 1 `source` gets one row of n_rule points per
    start, which every path of that start shares; on later steps, one row
    per active path.  Start j draws from streams[j] alone (each step the
    jumps, then the signs of its active paths), so its paths are those of
    a call from it alone.  The WalkBatch is start-major: start j owns
    entries j*n_paths to (j+1)*n_paths - 1.
    """
    x0 = np.asarray(starts, dtype=float)
    if x0.shape != (len(streams),):
        raise ValueError(f"poisson_walks: {x0.size} starts but {len(streams)} streams")
    if not np.all(np.abs(x0) < 1):
        raise DomainError("start points must lie in (-1, 1)")
    if not 0 < alpha <= 2:
        raise DomainError(f"alpha must be in (0, 2], got {alpha}")
    rngs = [stream.generator() for stream in streams]
    nodes, weights = occupation_rule(alpha, n_rule)

    pos = np.repeat(x0, n_paths)
    scores = np.zeros(len(pos))
    steps = np.zeros(len(pos), dtype=np.int64)
    active = np.ones(len(pos), dtype=bool)
    gamma1a = Gamma(1 + alpha)

    n_steps = 0
    while active.any() and n_steps < POISSON_STEP_CAP:
        n_steps += 1
        idx = np.nonzero(active)[0]
        ends = np.cumsum(np.count_nonzero(active.reshape(len(rngs), n_paths), axis=1))
        x = pos[idx]
        r = 1.0 - np.abs(x)
        # source term: occupation weight times the mean of f under the
        # occupation law of the ball, by the Gauss rule for that law; on
        # step 1 every path of a start sits in the start's ball, so f is
        # evaluated once per start and its row repeated for the paths
        if n_steps == 1:
            first = source(x0[:, None] + (1.0 - np.abs(x0))[:, None] * nodes)
            fv = np.repeat(first, n_paths, axis=0)
        else:
            fv = source(x[:, None] + r[:, None] * nodes)
        occ, jump, sign = np.empty((3, len(idx)))
        lo = 0
        for rng, hi in zip(rngs, ends):
            if hi > lo:
                # the rule's dot product one start at a time: OpenBLAS's
                # result for a row depends on where the row sits in the matrix
                occ[lo:hi] = fv[lo:hi] @ weights
                jump[lo:hi] = sample_jump(rng, alpha, hi - lo)
                sign[lo:hi] = sample_direction_1d(rng, size=hi - lo)
            lo = hi
        del fv
        scores[idx] += (r**alpha / gamma1a) * occ
        # ball exit
        new = x + r * jump * sign
        pos[idx] = new
        steps[idx] += 1
        active[idx[np.abs(new) >= 1.0]] = False

    # paths still active hit the step cap
    return WalkBatch(scores=scores, steps=steps, capped=active)


# ---------------------------------------------------------------------------
# parabolic fixed-radius walk


def unit_walk(stream: RngStream, alpha: float, n_paths: int, n_sub: int) -> np.ndarray:
    """Running sums of n_sub unit-radius ball-exit jumps, one row per path.

    Returns C of shape (n_paths, n_sub+1) with C[:, 0] = 0: all jump
    lengths are drawn first, then all signs.  At alpha = 2 every jump has
    length 1, so C is a sign walk.  The jumps do not depend on position,
    so x0 + r C is the fixed-radius walk of radius r from any x0.
    """
    rng = stream.generator()
    c = np.zeros((n_paths, n_sub + 1))
    c[:, 1:] = sample_jump(rng, alpha, (n_paths, n_sub))
    c[:, 1:] *= sample_direction_1d(rng, size=(n_paths, n_sub))
    return np.cumsum(c, axis=1, out=c)


def parabolic_walks(
    x0: float,
    t_n: float,
    source: Callable,
    initial: Callable,
    alpha: float,
    unit: np.ndarray,
) -> WalkBatch:
    """Fixed-radius walks over the uniform subdivision of [0, t_n].

    `unit` is a `unit_walk` block; its shape gives the path count and the
    subdivision count n_sub.  Each path takes up to n_sub ball-exit jumps
    of the fixed radius r whose expected exit time is dt = t_n / n_sub, so
    its positions are x0 + r * unit.  The trapezoid functional
    accumulates `source` backward in time along the in-domain prefix, and
    a path still inside after n_sub jumps adds `initial` at its last
    position.  `source(x, t)` gets positions of shape (n_paths, n_sub+1)
    and times as one (1, n_sub+1) row, and must give values broadcast to
    the positions' shape; `initial(x)` gets one array of positions.
    """
    n_paths, n_sub = unit.shape[0], unit.shape[1] - 1
    if t_n <= 0 or n_sub < 1:
        raise DomainError("parabolic walk requires t_n > 0 and n_sub >= 1")
    if not 0 < alpha <= 2:
        raise DomainError(f"alpha must be in (0, 2], got {alpha}")
    dt = t_n / n_sub
    posn = x0 + fixed_radius(dt, alpha) * unit

    outside = np.abs(posn[:, 1:]) >= 1.0  # (paths, n_sub), step ell = col ell-1
    stays = ~outside.any(axis=1)
    L = np.where(stays, n_sub, outside.argmax(axis=1))  # last in-domain index

    ell = np.arange(n_sub + 1)
    in_prefix = ell[None, :] <= L[:, None]
    # step ell of the backward walk sits at physical time t_n - ell dt;
    # positions past the prefix are masked before evaluation (they can be
    # outside the domain); the times are one row shared by all paths
    targ = ((n_sub - ell) * dt)[None, :]
    pos_safe = np.where(in_prefix, posn, 0.0)
    fv = np.where(in_prefix, source(pos_safe, targ), 0.0)
    # trapezoid over steps 0..L, whose ends carry half weight; a path with
    # L = 0 scores f - f/2 - f/2 = 0
    scores = dt * (fv.sum(axis=1) - 0.5 * fv[:, 0] - 0.5 * fv[np.arange(n_paths), L])
    scores[stays] += initial(posn[stays, n_sub])

    return WalkBatch(
        scores=scores, steps=L.astype(np.int64), capped=np.zeros(n_paths, dtype=bool)
    )
