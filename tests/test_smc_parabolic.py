"""Space-time iterated solver checks for the parabolic problem."""

import numpy as np
import pytest

from fracsmc import parabolic, poisson
from fracsmc.basis import eval_st_interpolant, make_grid, make_time_grid, st_interpolate
from fracsmc.parabolic import (
    ParabolicConfig,
    st_residual_initial,
    st_residual_source,
    stsmc_solve,
)
from fracsmc.poisson import Solution
from fracsmc.presets import parabolic_poly_preset, parabolic_sine_preset
from fracsmc.rng import RngStream
from fracsmc.specfun import DomainError
from fracsmc.walks import fixed_radius, parabolic_walks, unit_walk
from helpers import separable_source, st_operator_two_term


class TestStsmcSolve:
    def test_converges_to_manufactured_polynomial(self):
        pre = parabolic_poly_preset(0.4)
        cfg = ParabolicConfig(
            alpha=0.4, n_x=2, n_t=4, final_time=1.0,
            n_walks=50, n_sub=64, seed=5, k_max=30,
        )
        sol = stsmc_solve(cfg, pre.source, pre.initial, reference=pre.solution)
        # the iteration floor is the subdivision bias of the trapezoid
        # path functional, O((t/n_sub)^2) ~ 3e-5 at these settings
        assert sol.history[-1].e_inf < 1e-4

    def test_error_decays_early(self):
        pre = parabolic_poly_preset(1.2)
        cfg = ParabolicConfig(
            alpha=1.2, n_x=2, n_t=4, final_time=1.0,
            n_walks=50, n_sub=64, seed=3, k_max=8,
        )
        sol = stsmc_solve(cfg, pre.source, pre.initial, reference=pre.solution)
        errs = [h.e_inf for h in sol.history[:4]]
        assert errs[-1] < errs[0]

    def test_deterministic_given_seed(self):
        pre = parabolic_poly_preset(0.8)
        cfg = ParabolicConfig(
            alpha=0.8, n_x=2, n_t=3, final_time=0.5,
            n_walks=20, n_sub=16, seed=11, k_max=3,
        )
        a = stsmc_solve(cfg, pre.source, pre.initial)
        b = stsmc_solve(cfg, pre.source, pre.initial)
        np.testing.assert_array_equal(a.node_values, b.node_values)

    def test_callable_evaluation(self):
        pre = parabolic_poly_preset(0.6)
        cfg = ParabolicConfig(
            alpha=0.6, n_x=2, n_t=4, final_time=1.0,
            n_walks=50, n_sub=64, seed=2, k_max=20,
        )
        sol = stsmc_solve(cfg, pre.source, pre.initial)
        xs = np.linspace(-0.9, 0.9, 5)
        ts = np.full_like(xs, 0.37)
        np.testing.assert_allclose(
            sol(xs, ts), pre.solution(xs, ts), atol=1e-4
        )

    def test_callable_shapes(self):
        # as the steady Solution and WeightedSeries: a scalar point gives a
        # float, and an array keeps its broadcast shape
        pre = parabolic_poly_preset(0.6)
        cfg = ParabolicConfig(
            alpha=0.6, n_x=2, n_t=4, final_time=1.0,
            n_walks=10, n_sub=16, seed=2, k_max=2,
        )
        sol = stsmc_solve(cfg, pre.source, pre.initial)
        assert isinstance(sol(0.3, 0.2), float)
        assert sol(np.full((1, 1), 0.3), 0.2).shape == (1, 1)
        assert sol(np.zeros((2, 1)), np.array([0.1, 0.2, 0.3])).shape == (2, 3)

    def test_time_outside_horizon_raises(self):
        # past the horizon the Legendre series would only extrapolate
        pre = parabolic_poly_preset(0.6)
        cfg = ParabolicConfig(
            alpha=0.6, n_x=2, n_t=4, final_time=0.5,
            n_walks=10, n_sub=16, seed=2, k_max=2,
        )
        sol = stsmc_solve(cfg, pre.source, pre.initial)
        for t in (5.0, -1e-9, 0.5 + 1e-12, np.array([0.1, 0.6])):
            with pytest.raises(DomainError, match="outside"):
                sol(0.3, t)
        assert np.isfinite(sol(0.3, 0.0)) and np.isfinite(sol(0.3, 0.5))
        assert np.isnan(sol(0.3, np.nan))
        np.testing.assert_array_equal(
            np.isnan(sol(np.zeros(2), np.array([0.2, np.nan]))), [False, True]
        )

    def test_preset_source_is_its_profile(self):
        pre = parabolic_poly_preset(0.6)
        assert pre.source is pre.initial

    def test_initial_condition_recovered(self):
        pre = parabolic_poly_preset(1.0)
        cfg = ParabolicConfig(
            alpha=1.0, n_x=2, n_t=4, final_time=1.0,
            n_walks=50, n_sub=64, seed=8, k_max=20,
        )
        sol = stsmc_solve(cfg, pre.source, pre.initial)
        xs = np.linspace(-0.9, 0.9, 5)
        np.testing.assert_allclose(
            sol(xs, np.zeros_like(xs)), pre.initial(xs), atol=1e-4
        )

    def test_solution_is_the_shared_sweep_result(self):
        pre = parabolic_poly_preset(0.7)
        cfg = ParabolicConfig(
            alpha=0.7, n_x=2, n_t=3, final_time=0.5,
            n_walks=20, n_sub=16, seed=4, k_max=3,
        )
        sol = stsmc_solve(cfg, pre.source, pre.initial)
        assert isinstance(sol, Solution) and sol.config is cfg
        assert sol.converged == (sol.stop_reason == "tol")
        xs = np.linspace(-0.9, 0.9, 6)
        ts = np.linspace(0.05, 0.5, 6)
        np.testing.assert_array_equal(sol(xs, ts), sol.interpolant(xs, ts))

    def test_reference_evaluated_once_per_solve(self):
        pre = parabolic_poly_preset(0.8)
        calls = []

        def reference(x, t):
            calls.append(len(x))
            return pre.solution(x, t)

        cfg = ParabolicConfig(
            alpha=0.8, n_x=2, n_t=3, final_time=0.5,
            n_walks=20, n_sub=16, seed=11, k_max=3,
        )
        sol = stsmc_solve(cfg, pre.source, pre.initial, reference=reference)
        plain = stsmc_solve(cfg, pre.source, pre.initial, reference=pre.solution)
        assert len(sol.history) > 1 and len(calls) == 1
        assert [h.e_inf for h in sol.history] == [h.e_inf for h in plain.history]


class TestCommonRandomNumbers:
    def test_nodes_of_a_sweep_walk_one_unit_block(self, monkeypatch):
        # sweep k draws one unit_walk block C from stream (seed, k), and
        # node (x_i, t_j) walks x_i + r_j C with r_j the radius of t_j/n_sub
        calls = []
        walk = parabolic.parabolic_walks

        def recording(x0, t_n, source, initial, alpha, unit):
            batch = walk(x0, t_n, source, initial, alpha, unit)
            calls.append((x0, t_n, unit, batch))
            return batch

        monkeypatch.setattr(parabolic, "parabolic_walks", recording)
        pre = parabolic_poly_preset(0.7)
        cfg = ParabolicConfig(
            alpha=0.7, n_x=2, n_t=3, final_time=0.5,
            n_walks=200, n_sub=16, seed=4, k_max=2,
        )
        stsmc_solve(cfg, pre.source, pre.initial)
        grid, tgrid = make_grid(0.7, 2), make_time_grid(0.5, 3)
        nodes = [(float(x), float(t)) for x in grid.nodes for t in tgrid.nodes]
        assert len(calls) == 2 * len(nodes)
        for k in (1, 2):
            sweep = calls[(k - 1) * len(nodes) : k * len(nodes)]
            assert [(x0, t_n) for x0, t_n, _, _ in sweep] == nodes  # ndindex order
            unit = sweep[0][2]
            assert all(u is unit for _, _, u, _ in sweep)
            np.testing.assert_array_equal(
                unit, unit_walk(RngStream(4).child(k), 0.7, 200, 16)
            )
            # two nodes with different x and t: each path's last in-domain
            # step is the one before x_i + r_j C first leaves (-1, 1), or 16
            for x0, t_n, _, batch in (sweep[0], sweep[-1]):
                posn = x0 + fixed_radius(t_n / 16, 0.7) * unit
                out = np.abs(posn[:, 1:]) >= 1.0
                last = np.where(out.any(axis=1), out.argmax(axis=1), 16)
                np.testing.assert_array_equal(batch.steps, last)
        assert sweep[0][:2] != sweep[-1][:2]


class TestStopReasons:
    @pytest.mark.parametrize("alpha", [0.4, 1.4])
    def test_no_false_stall_on_parabolic_u1(self, alpha, monkeypatch):
        # parabolic_u1 settings: a stalled run is the run without the stall
        # rule cut short, and its error is no worse than that run's last
        pre = parabolic_poly_preset(alpha)
        for seed in range(4):
            cfg = ParabolicConfig(
                alpha=alpha, n_x=6, n_t=6, final_time=0.5,
                n_walks=100, n_sub=64, seed=seed, k_max=20,
            )
            sol = stsmc_solve(cfg, pre.source, pre.initial, reference=pre.solution)
            assert sol.stop_reason == "stalled", seed
            with monkeypatch.context() as m:
                m.setattr(poisson, "STALL_RATIO", 0.0)  # no update is noise
                full = stsmc_solve(
                    cfg, pre.source, pre.initial, reference=pre.solution
                )
            assert full.stop_reason == "k_max" and len(full.history) == 20
            assert [h.max_update for h in sol.history] == [
                h.max_update for h in full.history[: len(sol.history)]
            ]
            assert sol.history[-1].e_inf <= 2 * full.history[-1].e_inf, seed


def _perturbed_interpolant(pre, alpha, n_x, n_t, T, seed):
    """Interpolant of the preset's solution plus 0.01-size noise at the nodes.

    Its residual is O(1), so the 1e-13 bounds below are ~1e-14 relative.
    """
    grid, tgrid = make_grid(alpha, n_x), make_time_grid(T, n_t)
    X, TT = np.meshgrid(grid.nodes, tgrid.nodes, indexing="ij")
    noise = 0.01 * np.random.default_rng(seed).normal(size=X.shape)
    return st_interpolate(grid, tgrid, pre.solution(X, TT) + noise)


def _zero_interpolant(alpha, n_x, n_t, T):
    """The zero iterate, from which every solve starts."""
    grid, tgrid = make_grid(alpha, n_x), make_time_grid(T, n_t)
    return st_interpolate(grid, tgrid, np.zeros((n_x + 1, n_t + 1)))


# u1: preset degree 2 < n_x = 6; sine: preset degree 50 > n_x = 10, so the
# fold pads the iterate's coefficients in one case and the source's in the other
FOLD_CASES = [(parabolic_poly_preset, 0.4, 6), (parabolic_sine_preset, 1.3, 10)]


class TestStResidual:
    @pytest.mark.parametrize("make, alpha, n_x", FOLD_CASES)
    @pytest.mark.parametrize("layout", ["scattered", "row_of_times"])
    def test_fold_equals_source_minus_operator(self, make, alpha, n_x, layout):
        pre = make(alpha)
        T = 0.5
        rng = np.random.default_rng(3)
        if layout == "scattered":
            x, t = rng.uniform(-1, 1, 200), rng.uniform(0, T, 200)
        else:  # a walk's layout: positions per path, one shared row of times
            x, t = rng.uniform(-1, 1, (30, 65)), np.linspace(T, 0, 65)[None, :]
        for interp in (
            _perturbed_interpolant(pre, alpha, n_x, 6, T, seed=n_x),
            _zero_interpolant(alpha, n_x, 6, T),
        ):
            want = separable_source(pre.source, x, t) - st_operator_two_term(interp, x, t)
            got = st_residual_source(interp, pre.source)(x, t)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("make, alpha, n_x", FOLD_CASES)
    def test_folded_initial_equals_initial_minus_iterate(self, make, alpha, n_x):
        pre = make(alpha)
        x = np.random.default_rng(4).uniform(-1, 1, 200)
        for interp in (
            _perturbed_interpolant(pre, alpha, n_x, 6, 0.5, seed=n_x),
            _zero_interpolant(alpha, n_x, 6, 0.5),
        ):
            want = pre.initial(x) - eval_st_interpolant(interp, x, np.zeros_like(x))
            got = st_residual_initial(interp, pre.initial)(x)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_node_order_does_not_change_a_sweep(self):
        # the residual keeps the coefficient columns of each row of times it
        # has seen; walking the nodes forward, backward or each with a fresh
        # residual gives the same bytes
        alpha, n_x, n_t, T, n_sub = 0.4, 6, 6, 0.5, 64
        pre = parabolic_poly_preset(alpha)
        interp = _perturbed_interpolant(pre, alpha, n_x, n_t, T, seed=0)
        unit = unit_walk(RngStream(1).child(2), alpha, 50, n_sub)
        nodes = [(float(x), float(t)) for x in interp.grid.nodes for t in interp.tgrid.nodes]

        def residuals():
            return (
                st_residual_source(interp, pre.source),
                st_residual_initial(interp, pre.initial),
            )

        def sweep(order, fresh=False):
            shared = residuals()
            return {
                node: parabolic_walks(
                    *node, *(residuals() if fresh else shared), alpha, unit
                )
                for node in order
            }

        forward = sweep(nodes)
        for other in (sweep(nodes[::-1]), sweep(nodes, fresh=True)):
            for node in nodes:
                np.testing.assert_array_equal(other[node].scores, forward[node].scores)

    def test_vanishes_for_exact_tensor_values(self):
        pre = parabolic_sine_preset(0.9)
        grid = make_grid(0.9, 10)
        tgrid = make_time_grid(1.0, 6)
        X, T = np.meshgrid(grid.nodes, tgrid.nodes, indexing="ij")
        interp = st_interpolate(grid, tgrid, pre.solution(X, T))
        resid = st_residual_source(interp, pre.source)
        xs = np.linspace(-0.9, 0.9, 9)
        ts = np.linspace(0.05, 0.95, 9)
        XX, TT = np.meshgrid(xs, ts, indexing="ij")
        assert np.max(np.abs(resid(XX.ravel(), TT.ravel()))) < 1e-6


class TestConfigValidation:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            ParabolicConfig(
                alpha=2.5, n_x=2, n_t=2, final_time=1.0,
                n_walks=10, seed=0,
            ).validate()

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            ParabolicConfig(
                alpha=1.0, n_x=2, n_t=2, final_time=0.0,
                n_walks=10, seed=0,
            ).validate()

    @pytest.mark.parametrize(
        "bad",
        [dict(final_time=np.nan), dict(final_time=np.inf), dict(tol=np.inf),
         dict(tol=np.nan), dict(tol=0.0), dict(seed=-1)],
    )
    def test_rejects_what_the_cli_rejects(self, bad):
        # final_time = nan used to give NaN node values, final_time = inf
        # zeros reported as converged
        kwargs = dict(alpha=1.0, n_x=2, n_t=2, final_time=1.0, n_walks=10)
        with pytest.raises(ValueError, match="final_time|tol|seed"):
            ParabolicConfig(**{**kwargs, **bad}).validate()

    @pytest.mark.parametrize("final_time", [1e200, 1000.0])
    def test_rejects_a_walk_radius_past_the_domain(self, final_time):
        # at alpha = 0.4 and n_sub = 64, final_time = 1e200 overflows the
        # fixed radius and 1000 gives r = 716: every path would leave on
        # its first jump and the solve would stop by tol on a zero update
        cfg = ParabolicConfig(
            alpha=0.4, n_x=2, n_t=2, final_time=final_time, n_walks=10, n_sub=64
        )
        with pytest.raises(ValueError, match="radius"):
            cfg.validate()

    @pytest.mark.parametrize("alpha", [1e-5, 1e-3, 0.01])
    def test_rejects_a_walk_radius_no_jump_can_leave_with(self, alpha):
        # at t_final 0.5 and n_sub 64 the radius is 0.0 for alpha <= 1e-3 and
        # 1e-211 at 0.01; even the longest jump sample_jump can return,
        # r * MAX_UNIT_JUMP, is then below 2, so no path ever leaves
        cfg = ParabolicConfig(
            alpha=alpha, n_x=2, n_t=2, final_time=0.5, n_walks=10, n_sub=64
        )
        with pytest.raises(ValueError, match="no jump can leave"):
            cfg.validate()

    @pytest.mark.parametrize("alpha", [0.02, 0.05, 2.0])
    def test_accepts_a_walk_radius_the_longest_jump_leaves_with(self, alpha):
        ParabolicConfig(
            alpha=alpha, n_x=2, n_t=2, final_time=0.5, n_walks=10, n_sub=64
        ).validate()
