import math

import numpy as np
import pytest

from minmax_langevin import (
    GaussianDist,
    PerturbedQuadratic,
    QuadraticBilinear,
    equilibrium_variance,
    gaussian_best_response,
    joint_equilibrium,
    kl_bias_bound,
    plan_parameters,
    quadratic_equilibrium,
    solve_equilibrium,
    transient_kl_envelope,
    variance_and_fisher_bounds,
)
from minmax_langevin.checks import default_specs
from minmax_langevin.oracle import gibbs_product


def random_quadratic(rng, dim=None):
    d = dim or int(rng.integers(1, 4))
    q1 = np.linalg.qr(rng.normal(size=(d, d)))[0]
    q2 = np.linalg.qr(rng.normal(size=(d, d)))[0]
    return QuadraticBilinear(
        dim=d,
        A=q1 @ np.diag(rng.uniform(0.5, 2.0, d)) @ q1.T,
        B=q2 @ np.diag(rng.uniform(0.5, 2.0, d)) @ q2.T,
        C=0.3 * rng.normal(size=(d, d)),
        u=rng.normal(size=d),
        v=rng.normal(size=d),
    )


class TestQuadraticEquilibrium:
    def test_decoupled_standard_case(self):
        q = QuadraticBilinear(dim=1, A=[[1.0]], B=[[1.0]], C=[[0.0]])
        nu_x, nu_y = quadratic_equilibrium(q, tau=1.0)
        assert nu_x.mean[0] == 0.0 and nu_y.mean[0] == 0.0
        assert nu_x.cov[0, 0] == 1.0 and nu_y.cov[0, 0] == 1.0

    def test_affine_shift_and_temperature_scaling(self):
        q = QuadraticBilinear(dim=1, A=[[1.0]], B=[[1.0]], C=[[1.0]], u=[1.0], v=[0.0])
        nu_x, nu_y = quadratic_equilibrium(q, tau=2.0)
        assert nu_x.mean[0] == pytest.approx(-0.5, abs=1e-14)
        assert nu_y.mean[0] == pytest.approx(-0.5, abs=1e-14)
        assert nu_x.cov[0, 0] == pytest.approx(2.0)
        assert nu_y.cov[0, 0] == pytest.approx(2.0)

    def test_best_response_fixed_point(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            spec = random_quadratic(rng)
            tau = float(rng.uniform(0.2, 2.0))
            nu_x, nu_y = quadratic_equilibrium(spec, tau)
            br_x, br_y = gaussian_best_response(spec, tau, nu_x, nu_y)
            assert np.max(np.abs(br_x.mean - nu_x.mean)) <= 1e-12
            assert np.max(np.abs(br_y.mean - nu_y.mean)) <= 1e-12
            assert np.max(np.abs(br_x.cov - nu_x.cov)) <= 1e-12
            assert np.max(np.abs(br_y.cov - nu_y.cov)) <= 1e-12

    def test_best_response_ignores_opponent_covariance(self):
        # Quadratic coupling is bilinear, so only the opponent mean matters.
        q = QuadraticBilinear(dim=2, A=np.eye(2), B=np.eye(2), C=0.5 * np.eye(2))
        wide = GaussianDist.isotropic(np.array([1.0, -1.0]), 5.0)
        narrow = GaussianDist.isotropic(np.array([1.0, -1.0]), 0.1)
        r1 = gaussian_best_response(q, 1.0, wide, wide)
        r2 = gaussian_best_response(q, 1.0, narrow, narrow)
        np.testing.assert_array_equal(r1[0].mean, r2[0].mean)
        np.testing.assert_array_equal(r1[1].mean, r2[1].mean)

    def test_rejects_perturbed_spec(self):
        _, pert = default_specs(2)
        with pytest.raises(ValueError, match="quadratic"):
            quadratic_equilibrium(pert, tau=1.0)

    def test_joint_equilibrium_blocks(self):
        q = QuadraticBilinear(dim=1, A=[[2.0]], B=[[4.0]], C=[[0.0]])
        nu_z = joint_equilibrium(q, tau=1.0)
        np.testing.assert_allclose(nu_z.cov, np.diag([0.5, 0.25]))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_perturbed_reference_is_the_curvature_matched_gaussian(self, dim):
        # The curvature-matched Gaussian written out: the ripple shifts each
        # Hessian block by -amp freq^2 diag(cos(freq z*)) at the saddle point.
        base = random_quadratic(np.random.default_rng(dim), dim)
        spec = PerturbedQuadratic(base=base, amplitude=0.05, frequency=1.7)
        tau = 0.6
        z_star, _ = solve_equilibrium(spec)
        assert np.all(np.abs(z_star.vector) > 1e-3)  # the cosines are not all 1
        shift = spec.amplitude * spec.frequency**2
        h_x = base.A - shift * np.diag(np.cos(spec.frequency * z_star.x))
        h_y = base.B - shift * np.diag(np.cos(spec.frequency * z_star.y))
        assert joint_equilibrium(spec, tau) == gibbs_product(tau, z_star, h_x, h_y)

    def test_variance_consistent_with_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            spec = random_quadratic(rng)
            tau = float(rng.uniform(0.2, 2.0))
            c = spec.constants()
            exact = equilibrium_variance(spec, tau)
            joint_bound = 2.0 * tau * (2 * spec.dim) / c.alpha
            assert exact <= joint_bound + 1e-12


class TestGaussianDist:
    # |cov - cov'| against 1e-10 + 1e-5 |cov'|: absolute near zero, then relative.
    @pytest.mark.parametrize("lower, upper, symmetric", [
        (0.0, 0.5e-10, True),
        (0.0, 2e-10, False),
        (1e-3, 1e-3 + 0.5e-8, True),
        (1e-3, 1e-3 + 2e-8, False),
    ])
    def test_symmetry_tolerance(self, lower, upper, symmetric):
        cov = np.array([[1.0, upper], [lower, 1.0]])
        assert np.allclose(cov, cov.T, atol=1e-10) == symmetric
        if symmetric:
            assert not GaussianDist(mean=np.zeros(2), cov=cov).degenerate
        else:
            with pytest.raises(ValueError, match="^cov must be symmetric$"):
                GaussianDist(mean=np.zeros(2), cov=cov)


class TestPlanParameters:
    def test_reference_values(self):
        # Hand-evaluated: eta = 0.1/7500, N = ceil(2700), gd_eta = 1/4, and
        # iters = ceil(75000 * ln(6840)) = ceil(662290.7257962447) = 662291.
        plan = plan_parameters(1.0, 1.0, 1.0, 1, 0.1, 0.0)
        assert plan.eta == pytest.approx(1.3333333333333333e-05, rel=1e-12)
        assert plan.n_particles == 2700
        assert plan.iters == 662291
        assert plan.gd_eta == pytest.approx(0.25)
        assert plan.gd_iters == 0
        assert plan.init_cov_scale == pytest.approx(1.0)

    def test_iters_matches_fresh_formula_evaluation(self):
        for alpha, smooth_l, tau, d, eps in [
            (1.0, 1.0, 1.0, 1, 0.1),
            (0.9, 1.3, 0.5, 2, 0.05),
            (0.5, 2.0, 1.0, 3, 0.01),
        ]:
            plan = plan_parameters(alpha, smooth_l, tau, d, eps, 1.0)
            rate = 7500.0 * d * smooth_l**4 / (eps * alpha**4)
            log_arg = 684.0 * d * smooth_l**6 / (eps * alpha**6)
            assert plan.iters == math.ceil(rate * math.log(log_arg))
            assert plan.n_particles == math.ceil(270.0 * d * smooth_l**4 / (eps * alpha**4))

    def test_zero_distance_clamps_gd_iterations(self):
        plan = plan_parameters(1.0, 1.0, 1.0, 1, 0.1, 0.0)
        assert plan.gd_iters == 0

    def test_rejects_eps_outside_regime(self):
        with pytest.raises(ValueError, match="regime|too large"):
            plan_parameters(1.0, 1.0, 1.0, 1, 1000.0, 0.0)

    def test_recipe_step_size_stays_strict(self):
        for eps in [0.001, 0.01, 0.1, 1.0]:
            plan = plan_parameters(1.0, 1.2, 0.7, 2, eps, 3.0)
            assert plan.eta <= 1.0 / (64 * 1.2**2)

    def test_monotone_in_accuracy(self):
        previous = None
        for eps in [0.4, 0.2, 0.1, 0.05, 0.025]:
            plan = plan_parameters(1.0, 1.0, 1.0, 2, eps, 1.0)
            if previous is not None:
                assert plan.n_particles >= previous.n_particles
                assert plan.iters >= previous.iters
            previous = plan


class TestBounds:
    def test_variance_bound_value(self):
        var_bound, _ = variance_and_fisher_bounds(1.0, 1.0, 1.0, 2)
        assert var_bound == pytest.approx(4.0)

    def test_fisher_bound_value(self):
        _, fi_bound = variance_and_fisher_bounds(1.0, 1.0, 1.0, 1, 0.0)
        assert fi_bound == pytest.approx(4.0)

    def test_variance_bound_linear_in_tau(self):
        v1, _ = variance_and_fisher_bounds(0.8, 1.0, 1.0, 3)
        v2, _ = variance_and_fisher_bounds(0.8, 1.0, 2.0, 3)
        assert v2 == pytest.approx(2.0 * v1)

    def test_kl_bias_reference_value(self):
        value = kl_bias_bound(1.0, 1.0, 1.0, 1, 2700, 1.3333e-5, 2.0)
        assert value == pytest.approx(0.06633250833333333, rel=1e-12)

    def test_kl_bias_vanishes_in_the_limits(self):
        small = kl_bias_bound(1.0, 1.0, 1.0, 1, 10**12, 1e-15, 2.0)
        assert small <= 1e-10

    def test_kl_bias_first_term_halves_with_n(self):
        one = kl_bias_bound(1.0, 1.0, 1.0, 1, 100, 1e-4, 2.0)
        two = kl_bias_bound(1.0, 1.0, 1.0, 1, 200, 1e-4, 2.0)
        first_one = one - 2475.0 * 1e-4
        first_two = two - 2475.0 * 1e-4
        assert first_two == pytest.approx(0.5 * first_one)

    def test_transient_envelope_at_zero_steps(self):
        value = transient_kl_envelope(3.0, 2.0, 1.0, 1.0, 1.0, 0.1, 0, 0.0, 4)
        assert value == pytest.approx((3.0 + 9.0 * 2.0) / 4.0)

    def test_transient_envelope_tail_is_bias(self):
        value = transient_kl_envelope(3.0, 2.0, 1.0, 1.0, 1.0, 0.1, 10**6, 0.125, 4)
        assert value == pytest.approx(0.125)

    def test_bounds_reject_alpha_above_smooth_l(self):
        # No strongly convex, L-smooth payoff has alpha > L.
        with pytest.raises(ValueError, match="alpha <= smooth_L"):
            variance_and_fisher_bounds(2.0, 1.0, 1.0, 1)
        with pytest.raises(ValueError, match="alpha <= smooth_L"):
            kl_bias_bound(2.0, 1.0, 1.0, 1, 8, 0.01, 1.0)
        with pytest.raises(ValueError, match="alpha <= smooth_L"):
            transient_kl_envelope(3.0, 2.0, 2.0, 1.0, 1.0, 0.1, 0, 0.0, 4)

    def test_transient_envelope_halves_at_log_two(self):
        k = 100
        eta = math.log(2.0) / k  # alpha * eta * k = ln 2 exactly
        value = transient_kl_envelope(1.0, 0.0, 1.0, 1.0, 1.0, eta, k, 0.0, 1)
        assert value == pytest.approx(0.5, rel=1e-12)
