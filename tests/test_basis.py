"""Spectral basis checks: interpolation, modal maps, space-time tensors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsmc.basis import (
    ContractError,
    WeightedSeries,
    eval_interpolant,
    eval_jacobi_series,
    eval_st_interpolant,
    frac_diag_factor,
    frac_laplacian_modal,
    gjf_eval,
    interpolate,
    jacobi_projection,
    make_grid,
    make_time_grid,
    singular_weight,
    st_interpolate,
    st_time_derivative,
)
from fracsmc.parabolic import st_residual_source
from fracsmc.poisson import MAX_N_X
from fracsmc.specfun import JacobiIndex, jacobi_eval_all
from helpers import st_operator_two_term

ALPHAS = [0.4, 1.0, 1.6, 2.0]


def st_operator(interp):
    """u_t + (-Delta)^(alpha/2) u of the interpolant, as a callable of (x, t).

    The solver evaluates it only inside the residual, so it is taken here
    as minus the residual of a zero source.
    """
    zero = WeightedSeries(interp.grid.alpha, np.zeros(1))
    resid = st_residual_source(interp, zero)
    return lambda x, t: -resid(x, t)


def u_poly(alpha):
    """(1-x^2)^(a/2) (x^2+x+1) and its smooth factor."""

    def u(x):
        x = np.asarray(x, dtype=float)
        return np.clip(1 - x * x, 0, None) ** (alpha / 2) * (x * x + x + 1)

    return u


class TestInterpolation:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_reproduces_polynomial_solution(self, alpha):
        grid = make_grid(alpha, 2)
        u = u_poly(alpha)
        interp = interpolate(grid, u(grid.nodes))
        xs = np.linspace(-1, 1, 201)
        np.testing.assert_allclose(
            eval_interpolant(interp, xs), u(xs), rtol=0, atol=1e-12
        )

    def test_vanishes_at_endpoints(self):
        grid = make_grid(0.7, 3)
        interp = interpolate(grid, np.ones(4))
        assert eval_interpolant(interp, 1.0) == 0.0
        assert eval_interpolant(interp, -1.0) == 0.0

    def test_exact_at_nodes(self):
        grid = make_grid(1.3, 5)
        vals = np.sin(np.arange(6, dtype=float))
        interp = interpolate(grid, vals)
        np.testing.assert_allclose(
            eval_interpolant(interp, grid.nodes), vals, rtol=1e-12
        )

    def test_output_shape_follows_input_shape(self):
        alpha = 1.2
        grid = make_grid(alpha, 2)
        u = u_poly(alpha)
        interp = interpolate(grid, u(grid.nodes))
        scalar = eval_interpolant(interp, np.float64(0.3))
        assert isinstance(scalar, float) and scalar == pytest.approx(u(0.3), abs=1e-12)
        one = eval_interpolant(interp, np.array([0.3]))
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        xs = np.linspace(-1, 1, 28).reshape(4, 7)
        got = eval_interpolant(interp, xs)
        assert got.shape == (4, 7)
        np.testing.assert_allclose(got, u(xs), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("alpha", [1e-15, 2.0])
    def test_barycentric_weights_usable_at_the_largest_degree(self, alpha):
        # run configs stop at n_x = MAX_N_X; one degree more and the product
        # in the weights underflows to 0 as alpha -> 0
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            bw = make_grid(alpha, MAX_N_X).bary_weights
        assert np.all(np.isfinite(bw)) and np.all(bw != 0)

    def test_shape_mismatch_raises(self):
        grid = make_grid(0.5, 3)
        with pytest.raises(ContractError):
            interpolate(grid, np.zeros(5))

    @given(st.integers(0, 6))
    @settings(max_examples=10, deadline=None)
    def test_basis_function_interpolates_itself(self, n):
        alpha = 0.8
        grid = make_grid(alpha, 6)
        vals = gjf_eval(n, alpha, grid.nodes)
        interp = interpolate(grid, vals)
        xs = np.linspace(-0.97, 0.97, 33)
        np.testing.assert_allclose(
            eval_interpolant(interp, xs), gjf_eval(n, alpha, xs), atol=1e-11
        )


class TestGjfEval:
    @pytest.mark.parametrize("x", [0.3, -1.0, 2.0, np.float64(0.3), np.asarray(0.3)])
    def test_scalar_gives_float(self, x):
        assert type(gjf_eval(3, 1.2, x)) is float

    @pytest.mark.parametrize("shape", [(1,), (5,), (2, 3)])
    def test_array_keeps_shape_and_values(self, shape):
        xs = np.linspace(-1.2, 1.2, int(np.prod(shape))).reshape(shape)
        want = singular_weight(xs, 1.2) * jacobi_eval_all(3, JacobiIndex(0.6, 0.6), xs)[3]
        got = gjf_eval(3, 1.2, xs)
        assert got.shape == shape
        assert got.tobytes() == want.tobytes()

    def test_scalar_equals_array_code_bitwise(self):
        # the scalar branch against the array code at the same point: the
        # weight against a 0-d singular_weight (whose power is libm's pow,
        # as math.pow is; numpy's vector pow may differ by an ulp), and the
        # whole value against the weight times the recurrence's table
        rng = np.random.default_rng(41)
        xs = [1.0, -1.0, 0.0, -0.0, 1.0 - 1e-16, 1.3, -4.0, *rng.uniform(-1.1, 1.1, 40)]
        for alpha in [2.0, *rng.uniform(1e-3, 2.0, 12)]:
            idx = JacobiIndex(alpha / 2, alpha / 2)
            for x in xs:
                w = singular_weight(np.asarray(x), alpha)
                assert np.float64(gjf_eval(0, alpha, x)).tobytes() == w.tobytes()
                table = jacobi_eval_all(12, idx, np.array([x]))
                for n in range(13):
                    want = (w * table[n])[0]
                    got = np.float64(gjf_eval(n, alpha, x))
                    assert got.tobytes() == want.tobytes(), (alpha, x, n)


class TestModalMap:
    @pytest.mark.parametrize("alpha", [0.4, 1.2, 2.0])
    def test_diagonal_identity_on_basis(self, alpha):
        # the operator maps the n-th singular basis function to
        # Gamma(n+alpha+1)/n! times the plain Jacobi polynomial
        grid = make_grid(alpha, 5)
        for n in range(6):
            interp = interpolate(grid, gjf_eval(n, alpha, grid.nodes))
            coeffs = frac_laplacian_modal(interp)
            expected = np.zeros(6)
            expected[n] = frac_diag_factor(n, alpha)
            np.testing.assert_allclose(coeffs, expected, atol=1e-9 * expected[n])

    def test_alpha2_is_negative_second_derivative(self):
        alpha = 2.0
        grid = make_grid(alpha, 4)
        u = u_poly(alpha)
        interp = interpolate(grid, u(grid.nodes))
        coeffs = frac_laplacian_modal(interp)
        h = 1e-5
        for x in (-0.6, 0.1, 0.8):
            num = -(u(x + h) - 2 * u(x) + u(x - h)) / h**2
            assert eval_jacobi_series(coeffs, alpha, x) == pytest.approx(
                num, abs=1e-5
            )

    def test_projection_recovers_a_jacobi_polynomial(self):
        alpha = 0.7
        idx = JacobiIndex(alpha / 2, alpha / 2)
        coeffs = jacobi_projection(lambda x: jacobi_eval_all(3, idx, x)[3], alpha, 6)
        np.testing.assert_allclose(coeffs, np.eye(7)[3], rtol=0, atol=1e-13)

    def test_series_eval_preserves_shape(self):
        coeffs = np.array([1.0, -0.5, 0.25])
        out = eval_jacobi_series(coeffs, 0.9, np.zeros((4, 7)))
        assert out.shape == (4, 7)


class TestSpaceTime:
    def test_tensor_reproduction(self):
        # cos is entire, so moderate Legendre degree is far below 1e-10
        alpha, T = 0.6, 0.5
        grid = make_grid(alpha, 2)
        tgrid = make_time_grid(T, 10)
        u = lambda x, t: u_poly(alpha)(x) * np.cos(t)
        X, TT = np.meshgrid(grid.nodes, tgrid.nodes, indexing="ij")
        interp = st_interpolate(grid, tgrid, u(X, TT))
        xs = np.linspace(-0.9, 0.9, 11)
        ts = np.linspace(0.01, T, 7)
        xx, tt = np.meshgrid(xs, ts, indexing="ij")
        np.testing.assert_allclose(
            eval_st_interpolant(interp, xx, tt), u(xx, tt), atol=1e-10
        )

    def test_time_derivative_of_cos(self):
        # u = (1-x^2)^(a/2) (x^2+x+1) cos t: u_t = -(1-x^2)^(a/2) (x^2+x+1)
        # sin t, and the fractional Laplacian maps the smooth factor's Jacobi
        # coefficients c_n to c_n Gamma(n+a+1)/n! times cos t
        from scipy.special import eval_jacobi

        alpha, T = 0.6, 0.5
        grid = make_grid(alpha, 2)
        tgrid = make_time_grid(T, 10)
        u = lambda x, t: u_poly(alpha)(x) * np.cos(t)
        X, TT = np.meshgrid(grid.nodes, tgrid.nodes, indexing="ij")
        operator = st_operator(st_interpolate(grid, tgrid, u(X, TT)))
        a = alpha / 2
        fit_x = np.array([-0.5, 0.1, 0.8])
        jac = lambda x: np.array([eval_jacobi(n, a, a, x) for n in range(3)])
        c = np.linalg.solve(jac(fit_x).T, fit_x * fit_x + fit_x + 1.0)
        xs = np.array([-0.5, 0.2, 0.7])
        flap_x = (c * frac_diag_factor(np.arange(3), alpha)) @ jac(xs)
        for t in (0.1, 0.3, 0.45):
            want = -u_poly(alpha)(xs) * np.sin(t) + flap_x * np.cos(t)
            np.testing.assert_allclose(operator(xs, t), want, atol=1e-9)

    def test_st_frac_laplacian_diagonal(self):
        # u = (1-x^2)^(a/2) P_2(x) (1 + t): u_t = (1-x^2)^(a/2) P_2(x) and the
        # fractional Laplacian is Gamma(3+a)/2! P_2(x) (1 + t)
        from scipy.special import eval_jacobi

        alpha, T = 1.2, 0.5
        grid = make_grid(alpha, 3)
        tgrid = make_time_grid(T, 4)
        X, TT = np.meshgrid(grid.nodes, tgrid.nodes, indexing="ij")
        u = lambda x, t: gjf_eval(2, alpha, x) * (1 + t)
        operator = st_operator(st_interpolate(grid, tgrid, u(X, TT)))
        xs = np.array([0.15, -0.4])
        p2 = eval_jacobi(2, alpha / 2, alpha / 2, xs)
        for t in (0.1, 0.4):
            want = gjf_eval(2, alpha, xs) + frac_diag_factor(2, alpha) * p2 * (1 + t)
            np.testing.assert_allclose(operator(xs, t), want, rtol=1e-10)

    @pytest.mark.parametrize("layout", ["full", "row_of_times", "scalars"])
    def test_operator_equals_two_term_form(self, layout):
        # u_t + (-Delta)^(a/2) u from one call equals the two modal matrices
        # evaluated apart, against scipy's Jacobi and Legendre polynomials
        alpha, T, n_x, n_t = 0.7, 0.8, 5, 4
        grid = make_grid(alpha, n_x)
        tgrid = make_time_grid(T, n_t)
        rng = np.random.default_rng(11)
        interp = st_interpolate(grid, tgrid, rng.normal(size=(n_x + 1, n_t + 1)))
        if layout == "full":
            x = rng.uniform(-1, 1, (6, 9))
            t = rng.uniform(0, T, (6, 9))
        elif layout == "row_of_times":
            x = rng.uniform(-1, 1, (6, 9))
            t = np.linspace(0, T, 9)[None, :]
        else:
            x, t = 0.37, 0.21
        want = st_operator_two_term(interp, x, t)
        got = st_operator(interp)(x, t)
        assert np.shape(got) == np.atleast_1d(want).shape
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_time_derivative_requires_positive_degree(self):
        grid = make_grid(0.5, 1)
        tgrid = make_time_grid(1.0, 0)
        interp = st_interpolate(grid, tgrid, np.zeros((2, 1)))
        with pytest.raises(ContractError):
            st_time_derivative(interp)
