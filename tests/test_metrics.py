import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from minmax_langevin import (
    GaussianDist,
    parse_config,
    run_experiment,
    derive_stream_id,
    empirical_w2_1d,
    fit_gaussian,
    gaussian_kl,
    gaussian_relative_fi,
    gaussian_w2,
    standard_normal_block,
)
from minmax_langevin.checks import (
    check_functional_inequalities,
    check_w2_triangle,
)


def gauss1(mean, var):
    return GaussianDist(mean=np.array([float(mean)]), cov=np.array([[float(var)]]))


class TestFitGaussian:
    def test_two_point_formula(self):
        dist = GaussianDist(*fit_gaussian(np.array([[0.0], [2.0]])))
        assert dist.mean[0] == pytest.approx(1.0)
        assert dist.cov[0, 0] == pytest.approx(2.0)  # divisor n - 1
        assert not dist.degenerate

    def test_identical_samples_flagged_degenerate(self):
        dist = GaussianDist(*fit_gaussian(np.ones((5, 2))))
        np.testing.assert_array_equal(dist.cov, np.zeros((2, 2)))
        assert dist.degenerate

    def test_affine_equivariance(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=(200, 3))
        t = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        base = GaussianDist(*fit_gaussian(samples))
        mapped = GaussianDist(*fit_gaussian(samples @ t.T + b))
        np.testing.assert_allclose(mapped.mean, t @ base.mean + b, atol=1e-12)
        np.testing.assert_allclose(mapped.cov, t @ base.cov @ t.T, atol=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            fit_gaussian(np.ones((1, 2)))


class TestGaussianKl:
    def test_identical_is_zero(self):
        g = gauss1(0.3, 1.7)
        assert gaussian_kl(g, g) == 0.0

    def test_mean_shift(self):
        assert gaussian_kl(gauss1(0, 1), gauss1(1, 1)) == pytest.approx(0.5)

    def test_variance_mismatch_against_quadrature(self):
        # Closed form: (2 - 1 - ln 2)/2 = 0.15342640972002733; cross-checked
        # by integrating p(x) log(p(x)/q(x)) numerically.
        p, q = gauss1(0, 2), gauss1(0, 1)
        closed = gaussian_kl(p, q)

        def integrand(x):
            log_p = norm.logpdf(x, scale=np.sqrt(2.0))
            log_q = norm.logpdf(x, scale=1.0)
            return np.exp(log_p) * (log_p - log_q)

        numeric, _ = quad(integrand, -30, 30)
        assert closed == pytest.approx(0.15342640972002733, rel=1e-12)
        assert closed == pytest.approx(numeric, rel=1e-9)

    def test_rejects_singular_reference(self):
        p = gauss1(0, 1)
        q = GaussianDist(mean=np.zeros(1), cov=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="nonsingular"):
            gaussian_kl(p, q)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            gaussian_kl(gauss1(0, 1), GaussianDist.isotropic(np.zeros(2), 1.0))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        mean=st.floats(-3, 3),
        var_p=st.floats(0.1, 5),
        var_q=st.floats(0.1, 5),
    )
    def test_nonnegative(self, mean, var_p, var_q):
        value = gaussian_kl(gauss1(mean, var_p), gauss1(0.0, var_q))
        assert value >= 0.0


class TestGaussianW2:
    def test_equal_covariances_reduce_to_mean_shift(self):
        p = GaussianDist.isotropic(np.zeros(3), 1.0)
        q = GaussianDist.isotropic(np.array([1.0, 2.0, 2.0]), 1.0)
        assert gaussian_w2(p, q) == pytest.approx(9.0)

    def test_isotropic_scale_formula(self):
        d = 4
        p = GaussianDist.isotropic(np.zeros(d), 1.0)
        q = GaussianDist.isotropic(np.zeros(d), 2.25)
        assert gaussian_w2(p, q) == pytest.approx(d * (1.0 - 1.5) ** 2)

    def test_identical_is_zero(self):
        g = GaussianDist.isotropic(np.ones(2), 0.5)
        assert gaussian_w2(g, g) == pytest.approx(0.0, abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        raw1, raw2 = rng.normal(size=(2, 3, 3))
        p = GaussianDist(mean=rng.normal(size=3), cov=raw1 @ raw1.T + 0.1 * np.eye(3))
        q = GaussianDist(mean=rng.normal(size=3), cov=raw2 @ raw2.T + 0.1 * np.eye(3))
        assert gaussian_w2(p, q) == pytest.approx(gaussian_w2(q, p), rel=1e-10)

    def test_triangle_inequality_probe(self):
        result = check_w2_triangle(seed=0)
        assert result.passed, result.detail


class TestRelativeFisher:
    def test_identical_is_zero(self):
        g = gauss1(0.2, 0.9)
        assert gaussian_relative_fi(g, g) == pytest.approx(0.0, abs=1e-14)

    def test_equal_covariance_mean_shift(self):
        sigma_sq = 0.8
        p = GaussianDist.isotropic(np.array([0.3, -0.4]), sigma_sq)
        q = GaussianDist.isotropic(np.zeros(2), sigma_sq)
        assert gaussian_relative_fi(p, q) == pytest.approx(0.25 / sigma_sq**2)

    def test_variance_mismatch_against_quadrature(self):
        # (1/2 - 1)^2 * 1 = 0.25; cross-checked by integrating
        # p(x) * (d/dx log(p/q))^2.
        p, q = gauss1(0, 1), gauss1(0, 2)
        closed = gaussian_relative_fi(p, q)

        def integrand(x):
            score_diff = -x / 1.0 + x / 2.0
            return norm.pdf(x) * score_diff**2

        numeric, _ = quad(integrand, -30, 30)
        assert closed == pytest.approx(0.25, rel=1e-12)
        assert closed == pytest.approx(numeric, rel=1e-9)

    def test_rejects_singular_input(self):
        p = GaussianDist(mean=np.zeros(1), cov=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="nonsingular"):
            gaussian_relative_fi(p, gauss1(0, 1))


class TestCovarianceAlgebra:
    def test_one_degeneracy_rule_at_its_margin(self):
        # Sample covariance diag(4/3, 1e-13): positive definite in exact
        # arithmetic, with a positive determinant sign, but its smallest
        # eigenvalue is under PSD_CLIP, so every divergence treats it as
        # singular.
        s = np.sqrt(0.75e-13)
        fit = GaussianDist(*fit_gaussian(np.array([[1, s], [-1, -s], [1, -s], [-1, s]])))
        np.testing.assert_allclose(np.diag(fit.cov), [4.0 / 3.0, 1e-13], rtol=1e-12)
        assert fit.degenerate
        assert fit.logdet > -np.inf
        full = GaussianDist.isotropic(np.zeros(2), 1.0)
        assert not full.degenerate
        assert gaussian_kl(fit, full) == np.inf
        with pytest.raises(ValueError, match="q.cov must be nonsingular"):
            gaussian_kl(full, fit)
        with pytest.raises(ValueError, match="p.cov must be nonsingular"):
            gaussian_relative_fi(fit, full)

    def test_reference_factors_are_computed_once_per_run(self, tmp_path, monkeypatch):
        # A record every step or every tenth step: the run inverts the same
        # matrices, because the reference keeps its precision.
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(1) or inv(a))
        counts = []
        for every in (1, 10):
            config = parse_config(
                "payoff.kind = QuadraticBilinear\npayoff.dim = 2\n"
                "payoff.A = [1.0, 0.2, 0.2, 0.8]\npayoff.B = [0.9, 0.0, 0.0, 1.1]\n"
                "payoff.C = [0.3, -0.2, 0.1, 0.4]\ntau = 0.5\nseed = 3\n"
                f"checkpoint_every = {every}\nalgorithm.eta = 0.005\n"
                "algorithm.n_particles = 16\nalgorithm.steps = 30\n"
                "init.mean_mode = zero\n"
            )
            calls.clear()
            run_experiment(config, output_dir=tmp_path / str(every))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


class TestEmpiricalW2:
    def test_identical_samples(self):
        a = np.array([0.4, -1.0, 2.0])
        assert empirical_w2_1d(a, a) == 0.0

    def test_translation(self):
        assert empirical_w2_1d([0.0, 2.0], [1.0, 3.0]) == pytest.approx(1.0)

    def test_permutation_invariance(self):
        assert empirical_w2_1d([0.0, 1.0], [1.0, 0.0]) == 0.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            empirical_w2_1d([0.0], [1.0, 2.0])

    def test_converges_to_gaussian_closed_form(self):
        # n = 1e5 samples from N(0,1) and N(1, 1.5^2): empirical transport
        # cost within 5% of the closed form.
        n = 10**5
        stream_id = derive_stream_id("w2-convergence")
        a = standard_normal_block(99, stream_id, 0, n)
        b = 1.0 + 1.5 * standard_normal_block(99, stream_id, n, n)
        empirical = empirical_w2_1d(a, b) ** 2
        closed = gaussian_w2(gauss1(0, 1), gauss1(1, 2.25))
        assert empirical == pytest.approx(closed, rel=0.05)


def test_talagrand_and_log_sobolev_probe():
    result = check_functional_inequalities(seed=0)
    assert result.passed, result.detail
