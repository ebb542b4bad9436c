"""Quadrature and orthogonal-polynomial checks against scipy references."""

import numpy as np
import pytest
from scipy import integrate, special
from scipy.special import eval_jacobi, eval_legendre, roots_jacobi

from fracsmc.basis import frac_diag_factor, shifted_legendre
from fracsmc.specfun import (
    DomainError,
    Gamma,
    JacobiIndex,
    beta,
    jacobi_eval_all,
    jacobi_gauss,
    jacobi_series,
    legendre_gauss_shifted,
    lgam,
    rgamma,
)

INDICES = [JacobiIndex(0.2, 0.2), JacobiIndex(0.6, 0.6), JacobiIndex(0.6, -0.2)]


class TestJacobi:
    @pytest.mark.parametrize("idx", INDICES)
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
    def test_matches_scipy(self, idx, n):
        x = np.linspace(-0.99, 0.99, 21)
        mine = jacobi_eval_all(n, idx, x)[n]
        ref = eval_jacobi(n, idx.a, idx.b, x)
        np.testing.assert_allclose(mine, ref, rtol=1e-12, atol=1e-12)

    def test_eval_all_rows_consistent(self):
        idx = JacobiIndex(0.3, 0.3)
        x = np.linspace(-1, 1, 11)
        allrows = jacobi_eval_all(6, idx, x)
        for n in range(7):
            np.testing.assert_allclose(
                allrows[n], eval_jacobi(n, idx.a, idx.b, x), rtol=1e-13, atol=1e-13
            )

    @pytest.mark.parametrize("idx", INDICES + [JacobiIndex(0.0, 0.0), JacobiIndex(-0.5, 0.95)])
    def test_eval_all_equals_plain_recurrence_bitwise(self, idx):
        # the in-place rows must equal the textbook recurrence bit for bit
        a, b = idx.a, idx.b
        x = np.linspace(-1, 1, 37).reshape(1, 37) * np.array([[1.0], [0.5]])
        n_max = 100
        want = [np.ones_like(x), 0.5 * ((a + b + 2) * x + (a - b))]
        for k in range(1, n_max):
            s = 2 * k + a + b
            a1 = (s + 1) * (s + 2) / (2 * (k + 1) * (k + a + b + 1))
            a2 = (a * a - b * b) * (s + 1) / (2 * (k + 1) * (k + a + b + 1) * s)
            a3 = (k + a) * (k + b) * (s + 2) / ((k + 1) * (k + a + b + 1) * s)
            want.append((a1 * x + a2) * want[k] - a3 * want[k - 1])
        for n in (0, 1, 2, 7, n_max):
            np.testing.assert_array_equal(jacobi_eval_all(n, idx, x), np.array(want[: n + 1]))


class TestJacobiSeries:
    @pytest.mark.parametrize("idx", INDICES + [JacobiIndex(0.0, 0.0), JacobiIndex(1.0, 1.0)])
    def test_equals_einsum_of_the_table_bitwise(self, idx):
        rng = np.random.default_rng(3)
        for n in range(13):
            coeffs = rng.normal(size=n + 1) * 10.0 ** rng.integers(-4, 4, n + 1)
            for size in (2, 3, 33, 1000, 8193, 40_000):
                x = rng.uniform(-1, 1, size)
                want = np.einsum("n,nx->x", coeffs, jacobi_eval_all(n, idx, x))
                np.testing.assert_array_equal(jacobi_series(coeffs, idx, x), want)

    def test_a_point_does_not_depend_on_the_others(self):
        # at one point einsum reduces by a vectorized dot product, so the
        # single-point case is checked against the same point in a batch
        rng = np.random.default_rng(4)
        idx = JacobiIndex(0.7, 0.7)
        for n in range(13):
            coeffs = rng.normal(size=n + 1)
            x = rng.uniform(-1, 1, 64)
            batch = jacobi_series(coeffs, idx, x)
            for i in (0, 17, 63):
                np.testing.assert_array_equal(jacobi_series(coeffs, idx, x[i : i + 1]), batch[i])


class TestCephesPorts:
    """The Python-float cephes ports against scipy.special, bit for bit.

    This pins scipy 1.17's xsf routines (xsf::cephes Gamma, lgam, rgamma
    and beta): another scipy build of them may round differently.  The
    arguments are those the solver passes, at every alpha it accepts.
    """

    ALPHAS = np.concatenate(
        [np.geomspace(2.5e-16, 2.0, 20_001), np.linspace(0.0, 2.0, 20_001)[1:]]
    )

    @staticmethod
    def assert_bitwise(port, ref, *args):
        mine = np.array([port(*a) for a in zip(*args)])
        want = np.asarray(ref(*args), dtype=float)
        bad = mine.view(np.int64) != want.view(np.int64)
        assert not bad.any(), f"{bad.sum()} mismatches, first at {[a[bad][0] for a in args]}"

    @pytest.mark.parametrize(
        "a, b",
        [
            (lambda al: al / 2 + 1, lambda al: al / 2 + 1),  # jacobi_gauss of the basis
            (lambda al: al / 2, lambda al: al / 2),  # the occupation rule's S
            (lambda al: np.ones_like(al), lambda al: al),  # the occupation rule's V
            (lambda al: np.ones_like(al), lambda al: np.ones_like(al)),  # Legendre
        ],
    )
    def test_beta(self, a, b):
        self.assert_bitwise(beta, special.beta, a(self.ALPHAS), b(self.ALPHAS))

    def test_beta_over_its_range(self):
        # a + b <= MAXGAM, Gamma's Stirling branch (x > 33) included
        rng = np.random.default_rng(0)
        a, b = 10 ** rng.uniform(-10, np.log10(85), (2, 4000))
        self.assert_bitwise(beta, special.beta, a, b)
        with pytest.raises(DomainError):
            beta(100.0, 72.0)

    @pytest.mark.parametrize("arg", [lambda al: 1 + al, lambda al: al / 2])
    def test_gamma(self, arg):
        self.assert_bitwise(Gamma, special.gamma, arg(self.ALPHAS))

    def test_gamma_and_rgamma_over_their_range(self):
        x = np.geomspace(1e-300, 200.0, 20_001)
        self.assert_bitwise(Gamma, special.gamma, x)
        self.assert_bitwise(rgamma, special.rgamma, x)

    def test_gammaln(self):
        n, alpha = np.meshgrid(np.arange(400.0), self.ALPHAS[::800])
        self.assert_bitwise(lgam, special.gammaln, (n + alpha + 1).ravel())
        self.assert_bitwise(lgam, special.gammaln, np.geomspace(1e-300, 1e300, 20_001))

    def test_frac_diag_factor_matches_the_scipy_formula(self):
        n = np.arange(400.0)
        for alpha in self.ALPHAS[::4000]:
            want = np.exp(special.gammaln(n + alpha + 1) - special.gammaln(n + 1))
            assert frac_diag_factor(n, alpha).tobytes() == want.tobytes()

    @pytest.mark.parametrize("port", [Gamma, lgam, rgamma, lambda x: beta(x, 1.0)])
    @pytest.mark.parametrize("x", [0.0, -0.0, -1.5, float("nan"), -np.inf])
    def test_rejects_non_positive_arguments(self, port, x):
        with pytest.raises(DomainError):
            port(x)

    def test_beta_rejects_a_non_positive_second_argument(self):
        with pytest.raises(DomainError):
            beta(1.0, 0.0)


class TestJacobiGauss:
    @pytest.mark.parametrize("idx", INDICES)
    def test_nodes_match_scipy(self, idx):
        rule = jacobi_gauss(7, idx)
        ref_x, ref_w = roots_jacobi(8, idx.a, idx.b)
        np.testing.assert_allclose(rule.nodes, ref_x, atol=1e-13)
        np.testing.assert_allclose(rule.weights, ref_w, rtol=1e-12)

    @pytest.mark.parametrize("idx", INDICES)
    def test_polynomial_exactness(self, idx):
        # N+1 nodes must integrate degree 2N+1 exactly
        N = 6
        rule = jacobi_gauss(N, idx)
        exact, _ = integrate.quad(
            lambda x: x ** (2 * N + 1) + x**4,
            -1,
            1,
            weight="alg",
            wvar=(idx.b, idx.a),
        )
        got = rule.integrate(rule.nodes ** (2 * N + 1) + rule.nodes**4)
        assert got == pytest.approx(exact, abs=1e-13)

    def test_symmetric_index_gives_symmetric_nodes(self):
        rule = jacobi_gauss(8, JacobiIndex(0.45, 0.45))
        np.testing.assert_array_equal(rule.nodes, -rule.nodes[::-1])
        np.testing.assert_array_equal(rule.weights, rule.weights[::-1])

    def test_single_node_rule(self):
        idx = JacobiIndex(0.2, 0.6)
        rule = jacobi_gauss(0, idx)
        a, b = idx.a, idx.b
        assert rule.nodes[0] == pytest.approx((b - a) / (a + b + 2), rel=1e-13)

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            jacobi_gauss(-1, JacobiIndex(0.2, 0.2))

    @pytest.mark.parametrize("N", [1, 4, 31])
    def test_chebyshev_rule_where_a_plus_b_is_minus_one(self, N):
        # at a + b = -1 the first off-diagonal entry is 0/0 in the generic
        # formula; the Gauss-Chebyshev rule is known in closed form
        rule = jacobi_gauss(N, JacobiIndex(-0.5, -0.5))
        k = np.arange(N + 1)
        np.testing.assert_allclose(
            rule.nodes, np.sort(np.cos((2 * k + 1) * np.pi / (2 * N + 2))), atol=1e-14
        )
        np.testing.assert_allclose(rule.weights, np.pi / (N + 1), rtol=1e-13)


class TestLegendre:
    @pytest.mark.parametrize("n", [0, 1, 3, 8])
    def test_matches_scipy(self, n):
        x = np.linspace(-1, 1, 17)
        np.testing.assert_allclose(
            jacobi_eval_all(n, JacobiIndex(0.0, 0.0), x)[n],
            eval_legendre(n, x),
            rtol=1e-12,
            atol=1e-13,
        )

    def test_shifted_is_legendre_of_mapped_argument(self):
        T = 0.5
        t = np.linspace(0, T, 9)
        np.testing.assert_allclose(
            shifted_legendre(4, t, T)[4],
            eval_legendre(4, 2 * t / T - 1),
            rtol=1e-12,
            atol=1e-13,
        )

    def test_shifted_gauss_weights_sum_to_T(self):
        T = 0.75
        rule = legendre_gauss_shifted(6, T)
        assert rule.weights.sum() == pytest.approx(T, rel=1e-13)
        assert np.all((0 < rule.nodes) & (rule.nodes < T))

    def test_shifted_gauss_integrates_cos(self):
        T = 0.5
        rule = legendre_gauss_shifted(8, T)
        got = rule.integrate(np.cos(rule.nodes))
        assert got == pytest.approx(np.sin(T), rel=1e-14)
