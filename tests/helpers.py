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
    """-X(x) sin t + ((-Delta)^(alpha/2) X)(x) cos t at broadcast (x, t).

    `source` is the profile X, a basis.WeightedSeries.  The reference form:
    X's image takes scipy's Gamma(n+alpha+1)/Gamma(n+1) as the eigenvalues,
    and the two series are evaluated apart on one Jacobi table.
    """
    from scipy.special import gamma

    from fracsmc.basis import singular_weight
    from fracsmc.specfun import JacobiIndex, jacobi_eval_all

    x = np.asarray(x, dtype=float)
    modal, alpha = source.coefficients, source.alpha
    n = np.arange(len(modal))
    image = modal * gamma(n + alpha + 1) / gamma(n + 1)
    P = jacobi_eval_all(len(modal) - 1, JacobiIndex(alpha / 2, alpha / 2), x.ravel())
    X = np.einsum("n,nx->x", modal, P).reshape(x.shape)
    X *= singular_weight(x, alpha)
    flap = np.einsum("n,nx->x", image, P).reshape(x.shape)
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


def poisson_walks_per_path(starts, source, alpha, streams, n_paths, n_rule):
    """walks.poisson_walks with the source evaluated on every path every step.

    The reference form of the kernel's first step: each path's ball gets its
    own row of rule points, also on step 1 where the paths of a start share
    one ball.  The same draws in the same order, so the same WalkBatch.
    """
    from fracsmc import walks
    from fracsmc.specfun import Gamma

    x0 = np.asarray(starts, dtype=float)
    rngs = [stream.generator() for stream in streams]
    nodes, weights = walks.occupation_rule(alpha, n_rule)
    pos = np.repeat(x0, n_paths)
    scores = np.zeros(len(pos))
    steps = np.zeros(len(pos), dtype=np.int64)
    active = np.ones(len(pos), dtype=bool)
    gamma1a = Gamma(1 + alpha)
    n_steps = 0
    while active.any() and n_steps < walks.POISSON_STEP_CAP:
        n_steps += 1
        idx = np.nonzero(active)[0]
        ends = np.cumsum(np.count_nonzero(active.reshape(len(rngs), n_paths), axis=1))
        x = pos[idx]
        r = 1.0 - np.abs(x)
        fv = source(x[:, None] + r[:, None] * nodes)
        occ, jump, sign = np.empty((3, len(idx)))
        lo = 0
        for rng, hi in zip(rngs, ends):
            if hi > lo:
                occ[lo:hi] = fv[lo:hi] @ weights
                jump[lo:hi] = walks.sample_jump(rng, alpha, hi - lo)
                sign[lo:hi] = walks.sample_direction_1d(rng, size=hi - lo)
            lo = hi
        scores[idx] += (r**alpha / gamma1a) * occ
        new = x + r * jump * sign
        pos[idx] = new
        steps[idx] += 1
        active[idx[np.abs(new) >= 1.0]] = False
    return walks.WalkBatch(scores=scores, steps=steps, capped=active)
