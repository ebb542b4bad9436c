"""Iterated solver checks for the steady problem.

References come from the presets (closed-form manufactured solutions) and
from the deterministic Galerkin oracle, never from the solver itself.
"""

import numpy as np
import pytest

from fracsmc import poisson
from fracsmc.poisson import PoissonConfig, residual_source, smc_solve
from fracsmc.presets import poly_preset, sin_source_preset
from helpers import empirical_contraction


class TestSmcSolve:
    def test_converges_to_manufactured_polynomial(self):
        pre = poly_preset(0.4)
        cfg = PoissonConfig(alpha=0.4, n_x=2, n_walks=50, seed=7, k_max=60)
        sol = smc_solve(cfg, pre.source, reference=pre.solution)
        assert sol.converged and sol.stop_reason == "tol"
        assert sol.history[-1].e_inf < 1e-10

    def test_error_decays_monotonically_early(self):
        pre = poly_preset(1.2)
        cfg = PoissonConfig(alpha=1.2, n_x=2, n_walks=50, seed=3, k_max=40)
        sol = smc_solve(cfg, pre.source, reference=pre.solution)
        errs = [h.e_inf for h in sol.history[:5]]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_kmax_one_is_plain_estimator(self):
        pre = poly_preset(0.8)
        cfg = PoissonConfig(alpha=0.8, n_x=2, n_walks=200, seed=9, k_max=1)
        sol = smc_solve(cfg, pre.source, reference=pre.solution)
        assert len(sol.history) == 1
        # plain Monte Carlo at M=200 sits at statistical error, far above
        # what the iteration reaches
        assert 1e-4 < sol.history[0].e_inf < 1.0

    def test_deterministic_given_seed(self):
        pre = poly_preset(0.6)
        cfg = PoissonConfig(alpha=0.6, n_x=2, n_walks=30, seed=12, k_max=8)
        a = smc_solve(cfg, pre.source)
        b = smc_solve(cfg, pre.source)
        np.testing.assert_array_equal(a.node_values, b.node_values)

    @pytest.mark.parametrize("alpha", [0.02, 1.999, 2.0])
    def test_alpha_two_classical_limit(self, alpha):
        # both ends of (0, 2]: the heavy-tailed alpha -> 0 walk, and alpha -> 2
        # up to the classical Laplacian itself
        pre = poly_preset(alpha)
        cfg = PoissonConfig(alpha=alpha, n_x=2, n_walks=50, seed=2, k_max=60)
        sol = smc_solve(cfg, pre.source, reference=pre.solution)
        assert sol.history[-1].e_inf < 1e-10

    def test_callable_solution_matches_interpolant(self):
        pre = poly_preset(1.0)
        cfg = PoissonConfig(alpha=1.0, n_x=2, n_walks=50, seed=4, k_max=20)
        sol = smc_solve(cfg, pre.source)
        xs = np.linspace(-0.9, 0.9, 7)
        np.testing.assert_allclose(sol(xs), pre.solution(xs), atol=1e-8)

    def test_callable_solution_keeps_input_shape(self):
        pre = poly_preset(1.0)
        cfg = PoissonConfig(alpha=1.0, n_x=2, n_walks=20, seed=4, k_max=2)
        sol = smc_solve(cfg, pre.source)
        xs = np.linspace(-0.9, 0.9, 28)
        np.testing.assert_array_equal(sol(xs.reshape(4, 7)), sol(xs).reshape(4, 7))
        assert sol(xs[:1]).shape == (1,)
        assert isinstance(sol(0.2), float)

    def test_alpha_whose_jacobi_index_rounds_to_minus_one_rejected(self):
        PoissonConfig(alpha=1e-15, n_x=2, n_walks=10).validate()
        with pytest.raises(ValueError, match="rounds to -1"):
            PoissonConfig(alpha=1e-300, n_x=2, n_walks=10).validate()

    @pytest.mark.parametrize(
        "bad",
        [dict(tol=np.inf), dict(tol=np.nan), dict(tol=0.0), dict(tol=-1e-12),
         dict(seed=-1)],
    )
    def test_config_rejects_what_the_cli_rejects(self, bad):
        # tol = inf used to stop after one sweep as "converged"; seed = -1
        # used to fail inside numpy's seeding
        with pytest.raises(ValueError, match="tol|seed"):
            PoissonConfig(alpha=1.0, n_x=2, n_walks=10, **bad).validate()

    def test_reference_evaluated_once_per_solve(self):
        pre = poly_preset(0.8)
        calls = []

        def reference(x):
            calls.append(len(x))
            return pre.solution(x)

        cfg = PoissonConfig(alpha=0.8, n_x=2, n_walks=20, seed=3, k_max=3)
        sol = smc_solve(cfg, pre.source, reference=reference)
        plain = smc_solve(cfg, pre.source, reference=pre.solution)
        assert len(sol.history) > 1 and len(calls) == 1
        assert [h.e_inf for h in sol.history] == [h.e_inf for h in plain.history]

    def test_rule_smaller_than_the_residual_degree_rejected(self):
        # the occupation rule must be exact on degree n_x: inner_samples
        # >= ceil((n_x+1)/2)
        PoissonConfig(alpha=1.2, n_x=8, n_walks=10, inner_samples=5).validate()
        with pytest.raises(ValueError, match="inner_samples"):
            PoissonConfig(alpha=1.2, n_x=8, n_walks=10, inner_samples=4).validate()


class TestStopReasons:
    def test_kmax_reported_when_neither_tol_nor_stall_stops(self):
        pre = poly_preset(0.4)
        cfg = PoissonConfig(alpha=0.4, n_x=2, n_walks=50, seed=1, k_max=2)
        sol = smc_solve(cfg, pre.source, reference=pre.solution)
        assert sol.stop_reason == "k_max" and not sol.converged
        assert len(sol.history) == 2

    @pytest.mark.parametrize(
        "alpha, n_walks, n_seeds",
        [(1.2, 10, 40), (1.2, 100, 12), (2.0, 10, 40), (2.0, 100, 12)],
    )
    def test_no_false_stall_on_sin_source(self, alpha, n_walks, n_seeds, monkeypatch):
        # poisson_sin settings; at M = 10 the update/SE ratio of a still
        # contracting sweep comes close to STALL_RATIO, which the shrink
        # guard must catch.  alpha = 2 draws deterministic jump lengths.
        pre = sin_source_preset(alpha)
        stalls = 0
        for seed in range(n_seeds):
            cfg = PoissonConfig(alpha=alpha, n_x=8, n_walks=n_walks, seed=seed, k_max=40)
            sol = smc_solve(cfg, pre.source, reference=pre.solution)
            if sol.stop_reason != "stalled":
                continue
            stalls += 1
            with monkeypatch.context() as m:
                m.setattr(poisson, "STALL_RATIO", 0.0)  # no update is noise
                full = smc_solve(cfg, pre.source, reference=pre.solution)
            assert full.stop_reason == "k_max" and len(full.history) == 40
            # the stalled run is the full run cut short
            assert [h.max_update for h in sol.history] == [
                h.max_update for h in full.history[: len(sol.history)]
            ]
            assert sol.history[-1].e_inf <= 2 * full.history[-1].e_inf, seed
        assert stalls > n_seeds // 2


class TestResidualSource:
    def test_vanishes_for_exact_nodal_values(self):
        from fracsmc.basis import interpolate, make_grid

        pre = poly_preset(0.9)
        grid = make_grid(0.9, 2)
        interp = interpolate(grid, pre.solution(grid.nodes))
        resid = residual_source(interp, pre.source)
        xs = np.linspace(-0.95, 0.95, 21)
        assert np.max(np.abs(resid(xs))) < 1e-10

    @pytest.mark.parametrize("make", [poly_preset, sin_source_preset])
    def test_zero_iterate_leaves_the_source_bitwise(self, make):
        # sweep 1 walks the residual of u_0 = 0, which must be f itself to
        # the bit on a walk's (points x rule nodes) array
        from fracsmc.basis import interpolate, make_grid
        from fracsmc.walks import occupation_rule

        alpha = 0.9
        pre = make(alpha)
        grid = make_grid(alpha, 8)
        interp = interpolate(grid, np.zeros(len(grid.nodes)))
        nodes, _ = occupation_rule(alpha, 32)
        x = np.random.default_rng(2).uniform(-0.99, 0.99, 40)
        r = 1.0 - np.abs(x)
        y = x[:, None] + r[:, None] * nodes
        np.testing.assert_array_equal(residual_source(interp, pre.source)(y), pre.source(y))


class TestContraction:
    def test_ratio_below_one_for_converging_run(self):
        pre = poly_preset(0.4)
        cfg = PoissonConfig(alpha=0.4, n_x=2, n_walks=50, seed=7, k_max=60)
        sol = smc_solve(cfg, pre.source, reference=pre.solution)
        rho = empirical_contraction(sol.history)
        assert np.isfinite(rho) and rho < 1

    def test_not_estimable_without_history(self):
        assert np.isnan(empirical_contraction([]))


class TestGalerkinCrossCheck:
    @pytest.mark.parametrize("alpha", [0.4, 1.2])
    def test_sin_source_agrees_with_galerkin_reference(self, alpha):
        from fracsmc.oracles import galerkin_solve

        cfg = PoissonConfig(alpha=alpha, n_x=8, n_walks=100, seed=6, k_max=40)
        sol = smc_solve(cfg, np.sin)
        ref = galerkin_solve(np.sin, alpha, 100)
        xs = np.linspace(-0.95, 0.95, 31)
        assert np.max(np.abs(sol(xs) - ref(xs))) < 1e-5
