"""Space-time iterated solver for the fractional evolution problem.

Same contraction principle as the steady solver, with zero exterior
data: the iterate starts at zero, and every sweep walks the residual
f - u_t - (-Delta)^(alpha/2) u_k of the current iterate u_k, with the
initial-data residual u0 - u_k(., 0) at the paths that stay inside, from
the tensor collocation nodes, and adds the mean to u_k.  A sweep draws
one block C of unit walk sums (walks.unit_walk) from its stream (seed,
k), and node (x_i, t_j) walks x_i + r_j C over [0, t_j], with r_j the
fixed radius of dt = t_j / n_sub: common random numbers, so the nodes'
noise is correlated, each node's correction stays unbiased and node
order changes no number.

The source f = -X sin t + ((-Delta)^(alpha/2) X) cos t is given by its
profile X, a series in the iterate's basis, so the residual is one series,
f's coefficients minus those of u_t + (-Delta)^(alpha/2) u_k
(st_residual_source): a walk's residual call evaluates one Jacobi table
and one singular weight, and the coefficient columns at a time node's
n_sub+1 walk times are built once per sweep.  The initial-data residual
u0 - u_k(., 0) is one weighted series too (st_residual_initial).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    SpaceTimeInterpolant,
    WeightedSeries,
    eval_weighted_columns,
    frac_diag_factor,
    make_grid,
    make_time_grid,
    shifted_legendre,
    st_frac_laplacian,
    st_interpolate,
    st_time_derivative,
)
from .poisson import Solution, check_shared_rules, run_sweeps
from .specfun import DomainError
from .walks import MAX_UNIT_JUMP, fixed_radius, parabolic_walks, unit_walk


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
    DomainError (a ValueError) when dt underflows to 0 or r is not finite
    or outside that range.
    """
    dt = final_time / n_sub
    if not dt > 0:
        raise DomainError(f"final_time/n_sub = {final_time:.3g}/{n_sub} underflows to 0")
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
    """Residual f - u_t - (-Delta)^(alpha/2) u as one series in (x, t).

    `source` is the profile X (a basis.WeightedSeries, coefficients `modal`)
    of f = -X sin t + ((-Delta)^(a/2) X) cos t.  The residual is sum_p P_p(x)
    (w(x) W_p(t) + V_p(t)), w the singular weight, W(t) = -modal sin t -
    (u_t modal) L(t), V(t) = modal lam cos t - ((-Delta)^(a/2) u modal) L(t),
    lam = Gamma(n+a+1)/n!, L(t) the shifted Legendre column, up to the
    larger spatial degree.
    A call evaluates one Jacobi table and one weight at x.  The columns W,
    V at an array of times are built on its first call and kept (the
    walks of a sweep share n_t+1 rows of times); they depend on the times
    alone, so no result depends on the order of the calls.
    """
    alpha, tgrid = interp.grid.alpha, interp.tgrid
    n_x, n_t = interp.grid.N_x, tgrid.N_t
    modal = source.coefficients
    degree = len(modal)
    # W and V against the time rows (sin t, cos t, L_0(t), ..., L_n_t(t))
    coeffs = np.zeros((2, max(n_x + 1, degree), n_t + 3))
    coeffs[0, :degree, 0] = -modal
    coeffs[0, : n_x + 1, 2 : n_t + 2] = -st_time_derivative(interp)
    coeffs[1, :degree, 1] = modal * frac_diag_factor(np.arange(degree), alpha)
    coeffs[1, : n_x + 1, 2:] = -st_frac_laplacian(interp)
    columns = {}

    def resid(x, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        key = (t.shape, t.tobytes())
        if key not in columns:
            time_rows = np.concatenate(
                [np.sin(t)[None], np.cos(t)[None], shifted_legendre(n_t, t, tgrid.T)]
            )
            columns[key] = (coeffs @ time_rows.reshape(n_t + 3, -1)).reshape(
                coeffs.shape[:2] + t.shape
            )
        weighted, plain = columns[key]
        return eval_weighted_columns(alpha, weighted, plain, x)

    return resid


def st_residual_initial(
    interp: SpaceTimeInterpolant, initial: WeightedSeries
) -> WeightedSeries:
    """Initial-data residual u0 - u(., 0) as one weighted series."""
    at_zero = interp.modal @ shifted_legendre(interp.tgrid.N_t, 0.0, interp.tgrid.T)[:, 0]
    coefficients = np.zeros(max(len(at_zero), len(initial.coefficients)))
    coefficients[: len(initial.coefficients)] = initial.coefficients
    coefficients[: len(at_zero)] -= at_zero
    return WeightedSeries(initial.alpha, coefficients)


_PROBE_X = np.linspace(-0.95, 0.95, 20)


def stsmc_solve(
    cfg: ParabolicConfig,
    source,
    initial,
    reference=None,
) -> Solution:
    """Iterate walk sweeps over the space-time collocation tensor.

    `source` is the profile X of the separable source and `initial` u(., 0),
    both basis.WeightedSeries, as the parabolic presets give them.
    """
    cfg.validate()
    grid = make_grid(cfg.alpha, cfg.n_x)
    tgrid = make_time_grid(cfg.final_time, cfg.n_t)

    def walk(cur, stream):
        # the iterate does not interpolate u0 (the time nodes are all
        # interior), so the residual problem keeps an initial-data term
        resid = st_residual_source(cur, source)
        resid0 = st_residual_initial(cur, initial)
        # common random numbers: every node walks the sweep's one block
        unit = unit_walk(stream, cfg.alpha, cfg.n_walks, cfg.n_sub)
        return [
            parabolic_walks(float(x), float(t), resid, resid0, cfg.alpha, unit)
            for x in grid.nodes
            for t in tgrid.nodes
        ]

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
        walk,
        lambda u: st_interpolate(grid, tgrid, u),
        reference,
        probe,
    )
