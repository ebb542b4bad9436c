"""Iterated walk-on-spheres solver for the fractional Poisson problem.

The solvers take zero exterior data.  The iterate starts at zero, and
every sweep interpolates the current iterate u_k, forms the residual
source f - (-Delta)^(alpha/2) u_k through the diagonal modal map, walks
it afresh from all interpolation nodes in one kernel call (node j on
stream (seed, k, j)) and adds each node's mean to u_k; sweep 1, from
u_0 = 0, is the plain Monte Carlo estimate of the solution.  With exact
arithmetic each sweep multiplies the error by an interpolation-type
contraction factor, so a handful of sweeps with a small walk budget
reaches noise-free accuracy.
`run_sweeps` is that loop; the space-time solver drives it too, and both
return its `Solution`.

The loop stops for one of three reasons:

- ``tol``: the largest nodal update fell below ``tol`` (``converged``);
- ``stalled``: the iterate has reached the interpolation-projected
  solution and the updates are walk noise.  Each sweep records the Monte
  Carlo standard error ``se`` of its update (the largest over the nodes);
  the run stops once two consecutive sweeps have an update below
  ``STALL_RATIO * se`` that also shrank by less than ``STALL_SHRINK``;
- ``k_max``: neither happened within ``k_max`` sweeps.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .basis import (
    Interpolant1D,
    eval_jacobi_series,
    frac_laplacian_modal,
    interpolate,
    make_grid,
)
from .rng import RngStream
from .walks import OCCUPATION_NODES, WalkBatch, poisson_walks

# The stall rule.  max_update / se is 12-90 while the error contracts at
# M = 50-100 walks and mostly 0.4-3.7 once it sits at the floor; at M = 10
# it can drop to 2-5 while still contracting.  The shrink guard tells the
# two apart there: over 860 sin-source runs at M = 10, no contracting sweep
# with max_update < STALL_RATIO * se shrank the update by less than 2x,
# while 90 % of the floor sweeps did.
STALL_RATIO = 5.0
STALL_SHRINK = 2.0
# The largest n_x whose barycentric weights 1/prod(x_j - x_i) are finite at every
# alpha: the product underflows to 0 from n_x = 861 (alpha -> 0) to 864 (alpha = 2).
MAX_N_X = 860


@dataclass(frozen=True)
class PoissonConfig:
    """Parameters of one steady solve."""

    alpha: float
    n_x: int
    n_walks: int
    seed: int = 0
    k_max: int = 60
    tol: float = 1e-12
    # nodes of the occupation rule; below ceil((n_x+1)/2) it is not exact on
    # the degree-n_x residual, and the iteration diverges
    inner_samples: int = OCCUPATION_NODES

    def validate(self) -> None:
        check_shared_rules(self)
        if self.alpha / 2 - 1 == -1:
            raise ValueError(
                f"alpha = {self.alpha} is too small: alpha/2 - 1 rounds to -1, "
                "outside the occupation rule's Jacobi weights"
            )
        if self.inner_samples < (self.n_x + 2) // 2:
            raise ValueError(
                f"inner_samples = {self.inner_samples} is below "
                f"ceil((n_x+1)/2) = {(self.n_x + 2) // 2}"
            )


def check_shared_rules(cfg) -> None:
    """Raise ValueError unless cfg's alpha, counts, n_x, tol and seed are usable.

    Both solver configs (PoissonConfig, ParabolicConfig) start their
    validate() here; the comparisons are written so that NaN fails them.
    """
    if not 0 < cfg.alpha <= 2:
        raise ValueError(f"alpha must be in (0, 2], got {cfg.alpha}")
    counts = {n: getattr(cfg, n) for n in ("n_x", "n_walks", "k_max")}
    low = [f"{n} = {v}" for n, v in counts.items() if not v >= 1]
    if low:
        raise ValueError(f"n_x, n_walks and k_max must be positive, got {', '.join(low)}")
    if cfg.n_x > MAX_N_X:
        raise ValueError(f"n_x = {cfg.n_x} is above {MAX_N_X}, the largest usable degree")
    if not 0 < cfg.tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {cfg.tol}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be non-negative, got {cfg.seed}")


@dataclass(frozen=True)
class IterationReport:
    """Per-sweep progress record."""

    k: int
    max_update: float
    se: float  # Monte Carlo standard error of the update, largest over the nodes
    e_inf: float
    capped_rate: float
    mean_steps: float  # walk steps per path, over all paths of the sweep
    max_steps: int
    elapsed_ms: float


@dataclass(frozen=True)
class Solution:
    """Final iterate of `run_sweeps` with its sweep history; call it at x or (x, t)."""

    config: object  # PoissonConfig or ParabolicConfig
    node_values: np.ndarray = field(repr=False)
    interpolant: object = field(repr=False)  # Interpolant1D or SpaceTimeInterpolant
    history: tuple[IterationReport, ...]
    stop_reason: str  # "tol", "stalled" or "k_max"

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tol"

    def __call__(self, *xt):
        return self.interpolant(*xt)


def residual_source(interp: Interpolant1D, source):
    """Source for the next sweep: f minus the operator applied to u_k."""
    flap = frac_laplacian_modal(interp)
    alpha = interp.grid.alpha

    def resid(x):
        return source(x) - eval_jacobi_series(flap, alpha, x)

    return resid


_PROBE = np.linspace(-0.97, 0.97, 50)


def run_sweeps(cfg, shape, walk, fit, reference, probe):
    """The sweep loop both solvers share; returns the final `Solution`.

    The nodal values form an array of shape `shape`, zero at the start.
    Sweep k calls `walk(interp, stream)` once, with the interpolant of the
    current nodal values and stream (seed, k); it walks the residual of
    that iterate and gives one WalkBatch per node in np.ndindex(shape)
    order, whose mean scores are added to the nodal values.  Steady node
    j draws from (seed, k, j); space-time nodes share (seed, k) (common
    random numbers: correlated noise, each node unbiased).  So no number
    depends on the order in which the nodes are walked.  `fit(u)`
    interpolates the nodal values.  With a reference, e_inf is the sup
    error of the interpolant over the points in the tuple `probe` (one
    array per coordinate), where the reference is evaluated once; without
    one it is NaN.  The stop reasons are described in the module docstring.
    """
    exact = None if reference is None else reference(*probe)
    root = RngStream(cfg.seed)
    u = np.zeros(shape)
    interp = fit(u)
    history: list[IterationReport] = []
    stop_reason = "k_max"
    was_noise = False
    for k in range(1, cfg.k_max + 1):
        t0 = time.perf_counter()
        batches = walk(interp, root.child(k))
        est = np.array([b.mean_score() for b in batches]).reshape(shape)
        capped_rate = sum(b.n_capped for b in batches) / max(
            sum(len(b.capped) for b in batches), 1
        )
        se = max(b.standard_error() for b in batches)
        steps = np.concatenate([b.steps for b in batches])
        new = u + est
        max_update = float(np.max(np.abs(new - u)))
        u = new
        interp = fit(u)
        if exact is not None:
            e_inf = float(np.max(np.abs(interp(*probe) - exact)))
        else:
            e_inf = float("nan")
        history.append(
            IterationReport(
                k=k,
                max_update=max_update,
                se=se,
                e_inf=e_inf,
                capped_rate=capped_rate,
                mean_steps=float(steps.mean()),
                max_steps=int(steps.max()),
                elapsed_ms=(time.perf_counter() - t0) * 1e3,
            )
        )
        if capped_rate > 0:
            warnings.warn(
                f"sweep {k}: {capped_rate:.1%} of walks hit the step cap",
                RuntimeWarning,
                stacklevel=3,
            )
        if max_update < cfg.tol:
            stop_reason = "tol"
            break
        is_noise = (
            k > 1
            and max_update < STALL_RATIO * se
            and max_update > history[-2].max_update / STALL_SHRINK
        )
        if is_noise and was_noise:
            stop_reason = "stalled"
            break
        was_noise = is_noise
    return Solution(cfg, u, interp, tuple(history), stop_reason)


def smc_solve(
    cfg: PoissonConfig,
    source,
    reference=None,
) -> Solution:
    """Run the iterated solve until it stops by tol, by a stall or at k_max.

    When a reference solution is supplied the per-sweep report carries the
    sup error over the nodes plus a fixed probe cloud; otherwise e_inf is
    NaN.
    """
    cfg.validate()
    grid = make_grid(cfg.alpha, cfg.n_x)
    nodes = grid.nodes

    def walk(interp, stream):
        resid = residual_source(interp, source)
        streams = [stream.child(j) for j in range(len(nodes))]
        batch = poisson_walks(nodes, resid, cfg.alpha, streams, cfg.n_walks, cfg.inner_samples)
        rows = (a.reshape(len(nodes), -1) for a in (batch.scores, batch.steps, batch.capped))
        return [WalkBatch(*node) for node in zip(*rows)]

    return run_sweeps(
        cfg,
        (len(nodes),),
        walk,
        lambda u: interpolate(grid, u),
        reference,
        (np.concatenate([nodes, _PROBE]),),
    )
