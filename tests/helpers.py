"""Helpers shared by the test modules."""

import numpy as np


def empirical_contraction(history) -> float:
    """Geometric-mean decay ratio of e_inf before it hits the noise floor.

    Returns NaN when fewer than two pre-floor sweeps are available.
    """
    errs = [h.e_inf for h in history if np.isfinite(h.e_inf) and h.e_inf > 1e-13]
    if len(errs) < 2:
        return float("nan")
    ratios = [b / a for a, b in zip(errs, errs[1:]) if a > 0]
    ratios = [r for r in ratios if r > 0]
    if not ratios:
        return float("nan")
    return float(np.exp(np.mean(np.log(ratios))))


def st_operator_two_term(interp, x, t):
    """u_t + (-Delta)^(alpha/2) u of a space-time interpolant at broadcast (x, t).

    The reference form: the interpolant's two modal matrices (time
    derivative and fractional Laplacian) contracted apart against scipy's
    Jacobi and Legendre polynomials.
    """
    from scipy.special import eval_jacobi, eval_legendre

    from fracsmc.basis import st_frac_laplacian, st_time_derivative

    n_x, n_t, T = interp.grid.N_x, interp.tgrid.N_t, interp.tgrid.T
    xb, tb = np.broadcast_arrays(np.asarray(x, float), np.asarray(t, float))
    a = interp.grid.alpha / 2
    P = np.array([eval_jacobi(p, a, a, xb) for p in range(n_x + 1)])
    L = np.array([eval_legendre(q, 2 * tb / T - 1) for q in range(n_t + 1)])
    w = np.clip(1 - xb * xb, 0, None) ** a
    out = np.einsum("pq,p...,q...->...", st_time_derivative(interp), w * P, L[:n_t])
    return out + np.einsum("pq,p...,q...->...", st_frac_laplacian(interp), P, L)


def separable_source(source, x, t):
    """Values of a presets.SeparableSource at broadcast (x, t).

    The reference form: the two modal series evaluated apart on one Jacobi
    table, -X(x) sin t + ((-Delta)^(alpha/2) X)(x) cos t.
    """
    from fracsmc.basis import singular_weight
    from fracsmc.specfun import JacobiIndex, jacobi_eval_all

    x = np.asarray(x, dtype=float)
    idx = JacobiIndex(source.alpha / 2, source.alpha / 2)
    P = jacobi_eval_all(len(source.modal) - 1, idx, np.atleast_1d(x).ravel())
    X = np.einsum("n,nx->x", source.modal, P).reshape(x.shape)
    X *= singular_weight(x, source.alpha)
    flap = np.einsum("n,nx->x", source.flap_modal, P).reshape(x.shape)
    return -X * np.sin(t) + flap * np.cos(t)


def euler_exit_masked(x0, halfwidth, alpha, dt, rng, n_paths):
    """oracles.euler_stable_exit as a mask over all paths, indexed every step.

    The reference form of the packed loop: the same draws in the same
    order, so the same (loc, steps, capped) and generator state.
    """
    from fracsmc import oracles

    pos = np.full(n_paths, float(x0))
    steps = np.zeros(n_paths, dtype=np.int64)
    loc = np.full(n_paths, np.nan)
    active = np.ones(n_paths, dtype=bool)
    scale = dt ** (1.0 / alpha)
    k = 0
    while active.any() and k < oracles._EULER_STEP_CAP:
        k += 1
        idx = np.nonzero(active)[0]
        pos[idx] += scale * oracles.sample_symmetric_stable(alpha, rng, size=len(idx))
        steps[idx] += 1
        out = np.abs(pos[idx]) >= halfwidth
        done = idx[out]
        loc[done] = pos[done]
        active[done] = False
    return loc, steps, active.copy()
