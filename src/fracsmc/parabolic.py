"""Space-time iterated solver for the fractional evolution problem.

Same contraction principle as the steady solver: walk estimates at the
tensor collocation nodes seed a space-time interpolant, and later sweeps
walk against the residual f - u_t - (-Delta)^(alpha/2) u_k with
homogeneous exterior and initial data.  A sweep draws one block C of unit
walk sums (walks.unit_walk) from its stream (seed, k), and node (x_i, t_j)
walks x_i + r_j C over [0, t_j], with r_j the fixed radius of dt = t_j /
n_sub: common random numbers, so the nodes' noise is correlated, each
node's correction stays unbiased and node order changes no number.
The residual subtracts u_t + (-Delta)^(alpha/2) u_k
in one pass (basis.st_operator): one Jacobi table at the path positions,
and Legendre rows only at the walk's n_sub+1 distinct times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    SpaceTimeInterpolant,
    eval_st_interpolant,
    make_grid,
    make_time_grid,
    st_interpolate,
    st_operator,
)
from .poisson import Solution, check_shared_rules, run_sweeps
from .specfun import DomainError
from .walks import (
    MAX_UNIT_JUMP,
    PathFunctionalSpec,
    fixed_radius,
    parabolic_walks,
    unit_walk,
)


@dataclass(frozen=True)
class ParabolicConfig:
    """Parameters of one space-time solve."""

    alpha: float
    n_x: int
    n_t: int
    final_time: float
    n_walks: int
    n_sub: int = 64
    seed: int = 0
    k_max: int = 60
    tol: float = 1e-12

    def validate(self) -> None:
        check_shared_rules(self)
        # comparisons are written so that NaN fails them
        if not (self.n_t >= 1 and 0 < self.final_time < np.inf and self.n_sub >= 1):
            raise ValueError(
                "parabolic runs need n_t >= 1, finite final_time > 0 and n_sub >= 1, "
                f"got n_t = {self.n_t}, final_time = {self.final_time}, "
                f"n_sub = {self.n_sub}"
            )
        check_step_radius(self.final_time, self.n_sub, self.alpha)


def check_step_radius(final_time: float, n_sub: int, alpha: float) -> None:
    """Reject a subdivision whose jumps leave the domain at once, or never.

    The walk from the latest time node jumps at most the radius r of
    dt = final_time / n_sub, and every jump is at least r long, so from any
    start in (-1, 1) a radius r >= 2 ends every path on its first jump.  A
    jump is at most r * MAX_UNIT_JUMP long, so below 2 / MAX_UNIT_JUMP (r
    underflows there as alpha -> 0) no path ever leaves.  Raises
    DomainError (a ValueError) when r is outside that range or not finite.
    """
    dt = final_time / n_sub
    r = fixed_radius(dt, alpha)
    if not r < 2:
        raise DomainError(
            f"the walk radius for final_time/n_sub = {dt:.3g} at alpha = {alpha} "
            f"is {r:.3g} >= 2, so every path leaves on its first jump; "
            "raise n_sub or lower final_time"
        )
    if not r * MAX_UNIT_JUMP >= 2:
        raise DomainError(
            f"the walk radius for final_time/n_sub = {dt:.3g} at alpha = {alpha} "
            f"is {r:.3g}, so no jump can leave the domain; "
            "raise alpha or final_time/n_sub"
        )


def st_residual_source(interp: SpaceTimeInterpolant, source):
    """Residual f - u_t - (-Delta)^(alpha/2) u as a callable of (x, t)."""
    operator = st_operator(interp)

    def resid(x, t):
        return source(x, t) - operator(x, t)

    return resid


_PROBE_X = np.linspace(-0.95, 0.95, 20)


def stsmc_solve(
    cfg: ParabolicConfig,
    source,
    initial,
    exterior=None,
    reference=None,
) -> Solution:
    """Iterate walk sweeps over the space-time collocation tensor."""
    cfg.validate()
    grid = make_grid(cfg.alpha, cfg.n_x)
    tgrid = make_time_grid(cfg.final_time, cfg.n_t)

    def walk(spec, stream):
        # common random numbers: every node walks the sweep's one block
        unit = unit_walk(stream, cfg.alpha, cfg.n_walks, cfg.n_sub)
        return [
            parabolic_walks(float(x), float(t), spec, cfg.alpha, unit)
            for x in grid.nodes
            for t in tgrid.nodes
        ]

    def next_spec(cur):
        # the iterate does not interpolate u0 (the time nodes are all
        # interior), so the residual problem keeps an initial-data term
        return PathFunctionalSpec(
            source=st_residual_source(cur, source),
            initial=lambda x: initial(x)
            - eval_st_interpolant(cur, x, np.zeros_like(np.asarray(x))),
        )

    probe_t = np.linspace(cfg.final_time / 40, cfg.final_time, 20)
    px, pt = np.meshgrid(_PROBE_X, probe_t, indexing="ij")
    nx, nt = np.meshgrid(grid.nodes, tgrid.nodes, indexing="ij")
    probe = (
        np.concatenate([nx.ravel(), px.ravel()]),
        np.concatenate([nt.ravel(), pt.ravel()]),
    )
    return run_sweeps(
        cfg,
        (cfg.n_x + 1, cfg.n_t + 1),
        PathFunctionalSpec(source=source, exterior=exterior, initial=initial),
        next_spec,
        walk,
        lambda u: st_interpolate(grid, tgrid, u),
        reference,
        probe,
    )
