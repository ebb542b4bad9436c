"""Walk kernel checks: jump law, occupation weights, path functionals.

Expected values here are either closed forms or frozen outputs of the
independent oracles in fracsmc.oracles; the walk code never supplies its
own reference.
"""

import numpy as np
import pytest
from scipy import special as sp
from scipy import stats

from fracsmc.basis import interpolate, make_grid
from fracsmc.oracles import greens_q, occupation_zeta
from fracsmc.poisson import residual_source
from fracsmc.presets import poly_preset, sin_source_preset
from fracsmc.rng import RngStream
from fracsmc.specfun import DomainError
from fracsmc.walks import (
    JUMP_LAW_VERBATIM,
    OCCUPATION_NODES,
    POISSON_STEP_CAP,
    BallGeometry,
    CappedWalkError,
    WalkBatch,
    fixed_radius,
    occupation_rule,
    parabolic_walks,
    poisson_walks,
    sample_direction_1d,
    sample_interior,
    sample_jump,
    sample_jump_scaled,
    unit_walk,
    zeta_closed,
)
from helpers import poisson_walks_per_path

ALPHAS = [0.6, 1.0, 1.4]


class TestJumpLaw:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_exit_law_tail_exponent(self, alpha):
        # P(J > z) ~ (2/alpha) z^-alpha / B(1-alpha/2, alpha/2)
        u = np.random.default_rng(1).uniform(size=500_000)
        J = sample_jump_scaled(u, alpha)
        B = np.pi / np.sin(np.pi * alpha / 2)
        for z in (10.0, 1e3):
            want = (2 / alpha) * z**-alpha / B
            got = (J > z).mean()
            poisson_se = np.sqrt(want / len(J))
            assert got == pytest.approx(want, abs=4 * poisson_se + 0.02 * want)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_all_jumps_leave_unit_ball(self, alpha):
        u = np.random.default_rng(2).uniform(size=100_000)
        assert np.all(sample_jump_scaled(u, alpha) >= 1.0)

    def test_verbatim_law_jumps_can_stay_inside(self):
        # the transcribed formula yields J < 1, which cannot be a ball exit;
        # kept behind the validation gate for the record
        u = np.random.default_rng(3).uniform(size=10_000)
        J = sample_jump_scaled(u, 0.8, JUMP_LAW_VERBATIM)
        assert np.all(J < 1.0)

    def test_deep_tail_has_no_overflow(self):
        u = np.array([1 - 1e-16, 1.0 - 1e-13])
        J = sample_jump_scaled(u, 0.4)
        assert np.all(np.isfinite(J)) and np.all(J > 1e3)

    def test_rejects_alpha_two(self):
        with pytest.raises(DomainError):
            sample_jump_scaled(0.5, 2.0)


class TestBetaJumpSampler:
    N = 200_000

    @pytest.mark.parametrize("alpha", [0.02, 0.4, 1.0, 1.4, 1.9, 1.99])
    def test_matches_reference_inversion(self, alpha):
        beta = sample_jump(np.random.default_rng(21), alpha, self.N)
        inv = sample_jump_scaled(np.random.default_rng(22).uniform(size=self.N), alpha)
        # 1% critical value of the two-sample KS statistic
        assert stats.ks_2samp(beta, inv).statistic < 1.63 * np.sqrt(2 / self.N)

    @pytest.mark.parametrize("alpha", [0.02, 0.4, 1.0, 1.4, 1.9, 1.99])
    def test_survival_matches_closed_form(self, alpha):
        # P(J > z) = P(W < 1/z^2) = I_{1/z^2}(alpha/2, 1 - alpha/2); no
        # one-sample KS here: near alpha = 2 rounding puts many draws at
        # exactly J = 1, which the continuous CDF cannot see
        J = sample_jump(np.random.default_rng(23), alpha, self.N)
        for z in (1.001, 1.05, 1.5, 4.0, 100.0):
            p = sp.betainc(alpha / 2, 1 - alpha / 2, z**-2)
            se = np.sqrt(p * (1 - p) / self.N)
            assert abs((J > z).mean() - p) < 4 * se

    def test_underflowing_draws_stay_finite(self):
        # at alpha = 1e-3 most Beta draws underflow to 0
        J = sample_jump(np.random.default_rng(24), 1e-3, self.N)
        assert np.all(np.isfinite(J)) and np.all(J >= 1.0)

    @pytest.mark.parametrize("alpha", [0.0, 2.0000000000000004, np.nan])
    def test_rejects_alpha_outside_open_interval(self, alpha):
        with pytest.raises(DomainError):
            sample_jump(np.random.default_rng(0), alpha, 4)

    def test_alpha_2_is_unit_jumps_without_a_draw(self):
        # Brownian motion leaves a ball through its sphere: J = 1, and the
        # generator is not advanced
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        J = sample_jump(rng, 2.0, (3, 5))
        assert J.shape == (3, 5)
        np.testing.assert_array_equal(J, 1.0)
        assert rng.bit_generator.state == before


class TestOccupation:
    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.4, 2.0])
    def test_zeta_quadrature_matches_closed_form(self, alpha):
        geom = BallGeometry(center=0.15, radius=0.6)
        for x in (0.15, 0.4, -0.2):
            quad = occupation_zeta(x, geom, alpha)
            closed = zeta_closed(x - geom.center, geom.radius, alpha)
            assert quad == pytest.approx(closed, rel=1e-6)

    def test_center_value_is_radius_power(self):
        alpha, r = 0.9, 0.35
        assert zeta_closed(0.0, r, alpha) == pytest.approx(
            r**alpha / sp.gamma(1 + alpha), rel=1e-12
        )

    def test_fixed_radius_inverts_exit_coeff(self):
        alpha, dt = 1.3, 1e-3
        r = fixed_radius(dt, alpha)
        assert zeta_closed(0.0, r, alpha) == pytest.approx(dt, rel=1e-12)

    @pytest.mark.parametrize("dt", [1e200, np.inf, np.nan])
    def test_fixed_radius_that_is_not_finite_is_a_domain_error(self, dt):
        with pytest.raises(DomainError, match="not finite"):
            fixed_radius(dt, 0.4)

    def test_greens_q_rejects_diagonal(self):
        with pytest.raises(DomainError):
            greens_q(0.2, 0.2, 1.0, 0.8)

    def test_interior_sampler_histogram_matches_density(self):
        # the reference mass of (0, e) is the quadrature of greens_q after
        # y = s^(1/alpha), which takes out the |y|^(alpha-1) singularity at
        # the center; the law is symmetric, so P(Y < e) = 1/2 + P(0 < Y < e)
        from scipy.integrate import quad

        geom = BallGeometry(center=0.0, radius=1.0)
        for alpha in (0.05, 1.2):
            zeta = zeta_closed(0.0, 1.0, alpha)
            rng = np.random.default_rng(7)
            pts = sample_interior(0.0, geom, alpha, rng, size=200_000)
            for edge in (-0.5, -1e-8, 0.0, 1e-8, 0.4):
                mass, _ = quad(
                    lambda s: greens_q(0.0, s ** (1 / alpha), 1.0, alpha)
                    * s ** (1 / alpha - 1) / (alpha * zeta),
                    0.0,
                    abs(edge) ** alpha,
                    limit=200,
                )
                want = 0.5 + np.sign(edge) * mass
                assert (pts < edge).mean() == pytest.approx(want, abs=5e-3), (alpha, edge)

    def test_interior_sampler_starts_at_the_center_only(self):
        geom = BallGeometry(center=0.1, radius=0.5)
        with pytest.raises(DomainError):
            sample_interior(0.2, geom, 1.0, np.random.default_rng(0))
        assert abs(sample_interior(0.1, geom, 1.0, np.random.default_rng(0)) - 0.1) < 0.5


def occupation_even_moment(alpha, k):
    """E[Y^(2k)] = E[S^(2k)] E[V^(2k)] for the occupation law Y = S V."""
    out = alpha / (alpha + 2 * k)
    for j in range(k):
        out *= (0.5 + j) / (0.5 + alpha / 2 + j)
    return out


class TestOccupationRule:
    @pytest.mark.parametrize("alpha", [0.05, 0.4, 1.0, 1.4, 1.9, 2.0])
    @pytest.mark.parametrize("n", [1, 5, 32])
    def test_moments_match_closed_form(self, alpha, n):
        nodes, weights = occupation_rule(alpha, n)
        assert len(nodes) == n and np.all(weights > 0)
        assert np.all(np.abs(nodes) < 1)
        assert abs(weights.sum() - 1) < 1e-15
        # an n-point Gauss rule is exact up to degree 2n-1
        for k in range(n):
            want = occupation_even_moment(alpha, k)
            assert np.dot(weights, nodes ** (2 * k)) == pytest.approx(want, rel=1e-12)
            assert abs(np.dot(weights, nodes ** (2 * k + 1))) < 1e-15

    def test_rule_agrees_with_exact_draws(self):
        # the mean of a smooth function under the rule and under the exact
        # sampler, which share no code
        alpha, n = 0.7, 200_000
        nodes, weights = occupation_rule(alpha, 8)
        pts = sample_interior(0.0, BallGeometry(0.0, 1.0), alpha,
                              np.random.default_rng(5), size=n)
        f = lambda y: np.exp(y) + np.cos(3 * y)
        se = f(pts).std() / np.sqrt(n)
        assert abs(f(pts).mean() - np.dot(weights, f(nodes))) < 4 * se

    def test_rejects_empty_rule(self):
        with pytest.raises(DomainError):
            occupation_rule(1.0, 0)


class TestPoissonWalk:
    @pytest.mark.parametrize("alpha", [0.6, 1.4, 2.0])
    def test_feynman_kac_occupation_mean(self, alpha):
        # f == 1 and zero exterior data: the estimator mean is the expected
        # exit time
        batch = poisson_walks(
            [0.5], lambda x: np.ones_like(x), alpha, [RngStream(11)], 30_000
        )
        want = zeta_closed(0.5, 1.0, alpha)
        se = batch.scores.std() / np.sqrt(len(batch.scores))
        assert batch.mean_score() == pytest.approx(want, abs=3 * se)

    def test_source_draws_no_random_numbers(self):
        # the source term is a fixed rule, so the paths do not depend on it
        a = poisson_walks([0.3], lambda x: np.zeros_like(x), 0.8, [RngStream(3)], 2_000)
        b = poisson_walks([0.3], np.cos, 0.8, [RngStream(3)], 2_000)
        np.testing.assert_array_equal(a.steps, b.steps)
        np.testing.assert_array_equal(a.scores, 0.0)
        assert np.all(b.scores > 0)

    @pytest.mark.parametrize("preset", [poly_preset, sin_source_preset])
    @pytest.mark.parametrize("alpha", [0.4, 1.2, 2.0])
    def test_one_call_equals_one_start_calls_bitwise(self, preset, alpha):
        # the residual of a nonzero iterate, from the nodes and from starts
        # near +-1, whose paths end several steps apart from the others';
        # the batch also equals the reference that evaluates the source on
        # every path at step 1, where the kernel shares one row per start
        grid = make_grid(alpha, 6)
        interp = interpolate(grid, np.cos(3 * grid.nodes))
        resid = residual_source(interp, preset(alpha).source)
        starts = np.concatenate([[-0.999], grid.nodes, [0.98]])
        streams = [RngStream(9, (4, j)) for j in range(len(starts))]
        n_paths = 150
        for n_rule in (OCCUPATION_NODES, 5):
            batch = poisson_walks(starts, resid, alpha, streams, n_paths, n_rule)
            steps = batch.steps.reshape(len(starts), n_paths)
            assert steps.max() - steps.max(axis=1).min() >= 3
            want = poisson_walks_per_path(starts, resid, alpha, streams, n_paths, n_rule)
            np.testing.assert_array_equal(batch.scores, want.scores)
            np.testing.assert_array_equal(batch.steps, want.steps)
            np.testing.assert_array_equal(batch.capped, want.capped)
            for j, (x, stream) in enumerate(zip(starts, streams)):
                one = poisson_walks([x], resid, alpha, [stream], n_paths, n_rule)
                rows = slice(j * n_paths, (j + 1) * n_paths)
                np.testing.assert_array_equal(batch.scores[rows], one.scores)
                np.testing.assert_array_equal(batch.steps[rows], one.steps)
                np.testing.assert_array_equal(batch.capped[rows], one.capped)

    @pytest.mark.parametrize("alpha", [0.6, 1.4, 2.0])
    def test_one_wide_start_equals_per_path_reference(self, alpha):
        # one start with as many paths as the validate walk suite uses
        resid = residual_source(
            interpolate(make_grid(alpha, 6), np.zeros(7)), sin_source_preset(alpha).source
        )
        args = ([0.5], resid, alpha, [RngStream(4)], 20_000, OCCUPATION_NODES)
        batch, want = poisson_walks(*args), poisson_walks_per_path(*args)
        np.testing.assert_array_equal(batch.scores, want.scores)
        np.testing.assert_array_equal(batch.steps, want.steps)
        np.testing.assert_array_equal(batch.capped, want.capped)

    def test_first_step_evaluates_the_source_once_per_start(self):
        sizes = []

        def counting(x):
            sizes.append(x.size)
            return np.cos(x)

        starts = [-0.5, 0.0, 0.7]
        streams = [RngStream(2, (j,)) for j in range(3)]
        batch = poisson_walks(starts, counting, 1.1, streams, 40, 7)
        assert sizes[0] == len(starts) * 7
        # every later call gets one row per path still walking
        assert sum(sizes[1:]) == 7 * (batch.steps.sum() - len(batch.steps))

    def test_alpha_2_step_replays_bitwise(self):
        # at alpha = 2 a path steps to x + (1 - |x|) s, s a sign drawn from
        # the start's stream, and leaves once |x| >= 1; f == 0, so the
        # steps are all the batch tells apart
        n = 500
        batch = poisson_walks([0.3], lambda x: np.zeros_like(x), 2.0, [RngStream(5)], n)
        rng = RngStream(5).generator()
        x = np.full(n, 0.3)
        steps = np.zeros(n, dtype=np.int64)
        active = np.ones(n, dtype=bool)
        while active.any():
            idx = np.nonzero(active)[0]
            x[idx] = x[idx] + (1.0 - np.abs(x[idx])) * sample_direction_1d(rng, len(idx))
            steps[idx] += 1
            active[idx[np.abs(x[idx]) >= 1.0]] = False
        assert steps.max() > steps.min()
        np.testing.assert_array_equal(batch.steps, steps)
        assert not batch.capped.any()

    def test_batch_holds_every_path_of_every_start(self):
        batch = poisson_walks(
            [-0.5, 0.0, 0.7], np.cos, 1.1, [RngStream(2, (j,)) for j in range(3)], 40
        )
        assert len(batch.scores) == len(batch.steps) == len(batch.capped) == 3 * 40

    @pytest.mark.parametrize("n_streams", [1, 3])
    def test_one_stream_per_start_is_required(self, n_streams):
        streams = [RngStream(0, (j,)) for j in range(n_streams)]
        with pytest.raises(ValueError, match="starts but") as err:
            poisson_walks([0.1, 0.2], np.cos, 0.8, streams, 10)
        assert "\n" not in str(err.value)

    def test_start_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            poisson_walks([1.0], lambda x: np.zeros_like(x), 0.8, [RngStream(0)], 10)

    def test_mean_score_of_an_all_capped_batch_raises(self):
        n = 4
        batch = WalkBatch(
            scores=np.ones(n),
            steps=np.full(n, POISSON_STEP_CAP),
            capped=np.ones(n, dtype=bool),
        )
        with pytest.raises(CappedWalkError, match="step cap"):
            batch.mean_score()
        batch.capped[0] = False
        assert batch.mean_score() == 1.0


def zero_source(x, t):
    return np.zeros_like(x)


def zero_initial(x):
    return np.zeros_like(x)


class TestParabolicWalk:
    def test_constant_payoff_is_exact(self):
        # u0 == 1, f == 0: a path scores 1 if it stays inside for all
        # n_sub jumps, and 0 otherwise
        n_sub = 32
        unit = unit_walk(RngStream(5), 0.9, 2_000, n_sub)
        batch = parabolic_walks(
            0.3, 0.25, zero_source, lambda x: np.ones_like(x), 0.9, unit
        )
        np.testing.assert_array_equal(batch.scores, batch.steps == n_sub)
        assert 0 < batch.scores.sum() < len(batch.scores)

    def test_unit_source_scores_occupation_time(self):
        # f == 1: the trapezoid of 1 equals L * dt exactly
        t_n, n_sub = 0.4, 16
        unit = unit_walk(RngStream(6), 1.1, 2_000, n_sub)
        batch = parabolic_walks(
            0.0, t_n, lambda x, t: np.ones_like(x), zero_initial, 1.1, unit
        )
        dt = t_n / n_sub
        np.testing.assert_allclose(batch.scores, batch.steps * dt, atol=1e-14)

    def test_source_gets_one_row_of_times(self):
        # the times are one (1, n_sub+1) row shared by every path; a source
        # that ignores x must score the same as one broadcast against x
        n_sub, n = 16, 500
        seen = []

        def time_only(x, t):
            seen.append((np.shape(x), np.shape(t)))
            return np.cos(t)

        unit = unit_walk(RngStream(4), 0.9, n, n_sub)
        a = parabolic_walks(0.1, 0.4, time_only, zero_initial, 0.9, unit)
        b = parabolic_walks(0.1, 0.4, lambda x, t: np.cos(t) + 0 * x, zero_initial,
                            0.9, unit)
        assert seen == [((n, n_sub + 1), (1, n_sub + 1))]
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_never_exited_paths_use_full_horizon(self):
        # u0 == 1, f == 0: the paths that score the initial data are the
        # ones that stayed inside, and they took all 8 steps
        unit = unit_walk(RngStream(9), 0.5, 4_000, 8)
        batch = parabolic_walks(
            0.0, 0.2, zero_source, lambda x: np.ones_like(x), 0.5, unit
        )
        stayed = batch.scores == 1.0
        assert stayed.any() and (~stayed).any()
        assert np.all(batch.steps[stayed] == 8)
        assert np.all(batch.steps[~stayed] < 8)

    def test_block_draw_equals_stepping_the_same_draws(self):
        # unit_walk draws all unit jumps, then all signs, and sums them in
        # one block C; the kernel walks x0 + r C.  Stepping those draws one
        # sub-step at a time, c_ell = c_(ell-1) + jump * sign and
        # x = x0 + r c_ell, must agree exactly: the additions happen in the
        # same order
        alpha, t_n, n_sub, n, x0 = 0.7, 0.3, 16, 500, 0.2
        unit = unit_walk(RngStream(8), alpha, n, n_sub)
        batch = parabolic_walks(x0, t_n, zero_source, lambda x: x, alpha, unit)
        rng = RngStream(8).generator()
        jumps = sample_jump(rng, alpha, (n, n_sub))
        signs = sample_direction_1d(rng, size=(n, n_sub))
        r = fixed_radius(t_n / n_sub, alpha)
        c = np.zeros(n)
        # last in-domain index: the step before the first one outside
        last = np.full(n, n_sub)
        for ell in range(n_sub):
            c = c + jumps[:, ell] * signs[:, ell]
            np.testing.assert_array_equal(unit[:, ell + 1], c)
            x = x0 + r * c
            first = (last == n_sub) & (np.abs(x) >= 1.0)
            last[first] = ell
        np.testing.assert_array_equal(batch.steps, last)
        # f == 0 and u0(x) = x: a path that never leaves scores its final
        # position, and one that leaves scores 0
        stayed = last == n_sub
        assert stayed.any() and (~stayed).any()
        np.testing.assert_array_equal(batch.scores, np.where(stayed, x, 0.0))

    def test_unit_walk_at_alpha_2_is_a_sign_walk(self):
        # every jump has length 1 at alpha = 2: the sums are integers that
        # move by exactly one per sub-step, from 0
        unit = unit_walk(RngStream(3), 2.0, 200, 12)
        assert unit.shape == (200, 13)
        np.testing.assert_array_equal(unit[:, 0], 0.0)
        np.testing.assert_array_equal(np.abs(np.diff(unit, axis=1)), 1.0)

    def test_mean_matches_euler_exit_oracle(self):
        # expected occupation time E[t_n ^ tau] cross-checked against the
        # Euler path oracle with a discretization allowance
        from fracsmc.oracles import euler_stable_exit

        alpha, t_n = 1.4, 0.3
        unit = unit_walk(RngStream(13), alpha, 30_000, 256)
        batch = parabolic_walks(
            0.0, t_n, lambda x, t: np.ones_like(x), zero_initial, alpha, unit
        )
        rng = np.random.default_rng(14)
        dt = 2e-4
        loc, steps, capped = euler_stable_exit(0.0, 1.0, alpha, dt, rng, 20_000)
        ref = np.minimum(steps * dt, t_n).mean()
        se = batch.scores.std() / np.sqrt(len(batch.scores))
        allowance = 3 * se + 5 * (t_n / 256) + 5 * dt
        assert abs(batch.mean_score() - ref) < allowance
