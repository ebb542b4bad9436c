"""Brute-force referee checks: singular integral, Galerkin, stable sampler.

The oracles are validated against closed forms and against each other so
the solver tests can lean on them as independent ground truth.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import gamma as gamma_fn

import fracsmc
from fracsmc import oracles
from fracsmc.basis import gjf_eval
from fracsmc.oracles import (
    QuadratureFailure,
    euler_stable_exit,
    frac_laplacian_direct,
    galerkin_solve,
    gjf_identity_rhs,
    greens_q,
    normalization_constant,
    sample_symmetric_stable,
)
from fracsmc.specfun import DomainError
from fracsmc.walks import zeta_closed
from helpers import euler_exit_masked


def zero_extended_basis(n, alpha):
    return lambda y: gjf_eval(n, alpha, np.clip(y, -1, 1)) * (np.abs(y) < 1)


class TestNormalization:
    def test_alpha_one_value(self):
        # 1D, alpha=1: C = Gamma(1)/ (pi^(1/2) * Gamma(1/2)) * 2^0 * 1 = 1/pi
        assert normalization_constant(1.0) == pytest.approx(1 / np.pi, rel=1e-13)

    def test_vanishes_at_alpha_two(self):
        # C_{1,alpha} ~ alpha(2-alpha)/4 near the endpoints; the divergence
        # of the hypersingular integral compensates at alpha -> 2
        assert 0 < normalization_constant(1.999) < 0.01


class TestDirectOperator:
    @pytest.mark.parametrize(
        "n,alpha,x",
        [(0, 0.6, 0.3), (2, 1.2, -0.5), (4, 1.6, 0.1), (6, 0.4, 0.7)],
    )
    def test_derivative_identity(self, n, alpha, x):
        # frozen oracle targets: the singular integral must reproduce the
        # closed-form image of the singular basis functions
        got = frac_laplacian_direct(zero_extended_basis(n, alpha), x, alpha)
        want = float(gjf_identity_rhs(n, alpha, x)[0])
        assert got == pytest.approx(want, rel=1e-6)

    def test_leaves_warning_filters_alone(self):
        # the quadrature warnings it silences stay silenced only inside it;
        # importing scipy.integrate adds a filter of its own, so that is
        # done before the snapshot
        from scipy import integrate  # noqa: F401

        before = list(warnings.filters)
        frac_laplacian_direct(zero_extended_basis(0, 0.6), 0.3, 0.6)
        assert warnings.filters == before

    def test_rejects_boundary_point(self):
        with pytest.raises(DomainError):
            frac_laplacian_direct(zero_extended_basis(0, 0.8), 1.0, 0.8)

    def test_rejects_alpha_two(self):
        with pytest.raises(DomainError):
            frac_laplacian_direct(zero_extended_basis(0, 0.8), 0.0, 2.0)


class TestGalerkin:
    @pytest.mark.parametrize("alpha", [0.4, 1.2, 2.0])
    def test_reproduces_polynomial_solution(self, alpha):
        # source built from the diagonal identity for (1-x^2)^(a/2)(x^2+x+1)
        from fracsmc.presets import poly_preset

        pre = poly_preset(alpha)
        sol = galerkin_solve(pre.source, alpha, 10)
        xs = np.linspace(-0.95, 0.95, 41)
        assert np.max(np.abs(sol(xs) - pre.solution(xs))) < 1e-10

    def test_sin_source_solution_decays_spectrally(self):
        alpha = 1.2
        sol_small = galerkin_solve(np.sin, alpha, 20)
        sol_big = galerkin_solve(np.sin, alpha, 100)
        xs = np.linspace(-0.99, 0.99, 101)
        assert np.max(np.abs(sol_small(xs) - sol_big(xs))) < 1e-12
        assert abs(sol_big.coefficients[-1]) < 1e-20

    def test_high_degree_stays_finite(self):
        # Gamma(m + alpha + 1) overflows past m ~ 170: the eigenvalues come
        # from the log-gamma form, so N = 180 neither goes NaN nor drifts
        alpha = 1.2
        sol_big = galerkin_solve(np.sin, alpha, 180)
        sol_ref = galerkin_solve(np.sin, alpha, 100)
        xs = np.linspace(-0.99, 0.99, 101)
        assert np.all(np.isfinite(sol_big.coefficients))
        assert np.max(np.abs(sol_big(xs) - sol_ref(xs))) < 1e-12

    def test_identity_rhs_finite_at_high_degree(self):
        # the closed-form factor Gamma(n+a+1)/n! grows by (n+a)/n per degree
        from fracsmc.specfun import JacobiIndex, jacobi_eval_all

        alpha, x = 1.2, np.array([0.3])
        P = jacobi_eval_all(175, JacobiIndex(alpha / 2, alpha / 2), x)
        hi = gjf_identity_rhs(175, alpha, x)[0] / P[175, 0]
        lo = gjf_identity_rhs(174, alpha, x)[0] / P[174, 0]
        assert hi == pytest.approx(lo * (175 + alpha) / 175, rel=1e-12)

    def test_output_shape_follows_input_shape(self):
        sol = galerkin_solve(np.sin, 1.2, 10)
        point = sol(0.3)
        assert isinstance(point, float)
        assert point == sol(np.array([0.3]))[0]
        xs = np.linspace(-0.9, 0.9, 6)
        row = sol(xs)
        assert row.shape == (6,)
        np.testing.assert_array_equal(sol(xs.reshape(2, 3)), row.reshape(2, 3))


class TestStableSampler:
    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.4, 2.0])
    def test_characteristic_function(self, alpha):
        rng = np.random.default_rng(31)
        xs = sample_symmetric_stable(alpha, rng, 400_000)
        for xi in (0.5, 1.0, 2.0):
            vals = np.cos(xi * xs)
            se = vals.std() / np.sqrt(len(vals))
            assert vals.mean() == pytest.approx(
                np.exp(-abs(xi) ** alpha), abs=4 * se
            )

    def test_alpha2_is_gaussian_variance_two(self):
        rng = np.random.default_rng(32)
        xs = sample_symmetric_stable(2.0, rng, 200_000)
        assert xs.var() == pytest.approx(2.0, rel=0.02)


class TestEulerExit:
    @pytest.mark.parametrize("alpha", [0.6, 1.4])
    def test_mean_exit_time_matches_zeta(self, alpha):
        rng = np.random.default_rng(33)
        dt = 2e-4 * zeta_closed(0, 1, alpha)
        loc, steps, capped = euler_stable_exit(0.0, 1.0, alpha, dt, rng, 15_000)
        assert not capped.any()
        mean_t = (steps * dt).mean()
        assert mean_t == pytest.approx(zeta_closed(0, 1, alpha), rel=0.05)

    def test_exit_locations_outside(self):
        rng = np.random.default_rng(34)
        loc, steps, capped = euler_stable_exit(0.2, 0.5, 1.0, 1e-4, rng, 2_000)
        assert np.all(np.abs(loc[~capped] - 0.0) >= 0.5)

    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.4, 2.0])
    def test_packed_loop_replays_the_masked_loop(self, alpha):
        dt = zeta_closed(0, 1, alpha) / 100
        self.assert_replays(0.3, 1.0, alpha, dt, 3_000)

    def test_capped_paths_replay(self, monkeypatch):
        monkeypatch.setattr(oracles, "_EULER_STEP_CAP", 20)
        capped = self.assert_replays(0.2, 0.5, 1.0, 1e-4, 2_000)
        assert capped.any() and not capped.all()

    @staticmethod
    def assert_replays(x0, halfwidth, alpha, dt, n_paths):
        rng, ref_rng = np.random.default_rng(35), np.random.default_rng(35)
        got = euler_stable_exit(x0, halfwidth, alpha, dt, rng, n_paths)
        want = euler_exit_masked(x0, halfwidth, alpha, dt, ref_rng, n_paths)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        return got[2]


class TestKsStatistic:
    def test_equals_scipy_ks_2samp_bitwise(self):
        rng = np.random.default_rng(8)
        cases = [
            (rng.normal(size=3001), rng.standard_cauchy(size=1717)),
            # ties inside each sample and across the two
            (rng.integers(0, 20, 2500) * 0.1, rng.integers(0, 25, 900) * 0.1),
            (np.ones(50), np.ones(70)),  # every point tied: 0
            (rng.uniform(size=40), rng.uniform(size=41) + 2),  # disjoint: 1
            (rng.uniform(size=30_000), rng.uniform(size=12_001) ** 1.1),
        ]
        for a, b in cases:
            # the exact mode (both sizes up to 10,000) rounds the statistic
            # to a multiple of 1/lcm(n1, n2); the asymptotic one returns it
            want = stats.ks_2samp(a, b, method="asymp").statistic
            got = oracles.ks_statistic(np.sort(a), np.sort(b))
            assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)
            back = oracles.ks_statistic(np.sort(b), np.sort(a))
            assert np.float64(back).view(np.int64) == np.float64(want).view(np.int64)


class TestGreensQ:
    @pytest.mark.parametrize("alpha", [0.05, 0.6, 1.4, 1.5, 1.99])
    def test_float_path_equals_the_array_path_bitwise(self, alpha):
        # the quadrature's floats skip numpy's 0-d arrays and give the same bits
        rng = np.random.default_rng(int(alpha * 100))
        r = 0.7
        x, y = rng.uniform(-r, r, (2, 4000))
        y[:20] = x[:20] + 1e-9  # near the diagonal, where rho is huge
        got = np.array([greens_q(float(a), float(b), r, alpha) for a, b in zip(x, y)])
        want = np.array([greens_q(np.asarray(a), np.asarray(b), r, alpha) for a, b in zip(x, y)])
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("x, y", [(0.7, 0.1), (0.1, -0.7), (0.3, 0.3)])
    def test_float_path_rejects_what_the_array_path_rejects(self, x, y):
        for args in ((x, y), (np.asarray(x), np.asarray(y))):
            with pytest.raises(DomainError):
                greens_q(*args, 0.7, 0.6)


def test_solver_modules_do_not_load_the_referees():
    # the module graph runs solver -> referee -> CLI, so a solve never
    # pays for the referees or for scipy, which only they call; a fresh
    # interpreter shows what the imports alone load
    code = (
        "import sys\n"
        "import fracsmc.poisson, fracsmc.parabolic, fracsmc.presets, fracsmc.walks\n"
        "print([m for m in ('fracsmc.oracles', 'scipy', 'scipy.integrate', 'scipy.special')"
        " if m in sys.modules])"
    )
    src = Path(fracsmc.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
