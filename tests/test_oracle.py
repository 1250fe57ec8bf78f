import math

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

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
from minmax_langevin.dynamics import batched_joint_drift
from minmax_langevin.oracle import gibbs_product, particle_modes, running_sq_distance_law


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


class TestRunningSqDistanceLaw:
    """The exact law of ``mean_{k=0..K} |z_k - z*|^2`` from N(z*, I), against
    the joint 2Nd-dimensional chain read off the particle drift itself."""

    @staticmethod
    def joint_map(spec, eta, n):
        # z -> z + eta b_Z(z) about z*: the drift's action on each basis vector.
        w = 2 * n * spec.dim
        drift = batched_joint_drift(spec, np.vstack([np.zeros(w), np.eye(w)]), n, spec.dim)
        return np.eye(w) + eta * (drift[1:] - drift[0]).T

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_the_joint_chain(self, n, dim):
        spec = random_quadratic(np.random.default_rng(10 * n + dim), dim=dim)
        assert dim == 1 or not np.allclose(spec.C, spec.C.T)  # dense A, B too
        tau, eta, steps = 0.7, 0.9 * spec.constants().eta_stable, 40
        f = self.joint_map(spec, eta, n)
        noise = 2.0 * tau * eta * np.eye(len(f))
        covs = [np.eye(len(f))]
        for _ in range(steps):
            covs.append(f @ covs[-1] @ f.T + noise)
        pair_sum = 0.0  # sum over j, l of 2 |Cov(e_j, e_l)|_F^2
        for l, cov in enumerate(covs):
            lagged = cov
            for j in range(l, steps + 1):
                pair_sum += (2.0 if j > l else 1.0) * 2.0 * np.sum(lagged**2)
                lagged = f @ lagged
        mean, sd = running_sq_distance_law(spec, tau, eta, n, steps)
        assert mean == pytest.approx(sum(np.trace(c) for c in covs) / (steps + 1),
                                     rel=1e-12)
        assert sd == pytest.approx(math.sqrt(pair_sum) / (steps + 1), rel=1e-12)

    @pytest.mark.parametrize("case", ["suite", "dense"])
    def test_stationary_limit_matches_lyapunov_solves(self, case):
        if case == "suite":
            spec, n, tau = default_specs(dim=1)[0], 16, 1.0
            eta = spec.constants().alpha / (8.0 * spec.constants().smooth_L**2)
        else:
            spec, n, tau = random_quadratic(np.random.default_rng(7), dim=2), 3, 0.7
            eta = 0.5 * spec.constants().eta_stable
        steps = 20_000
        f = self.joint_map(spec, eta, n)
        eye = np.eye(len(f))
        stationary = solve_discrete_lyapunov(f, 2.0 * tau * eta * eye)
        # sum_k tr(V_k - V_inf) = tr X, X = F X F' + (I - V_inf): exact up
        # to a tail of order |F|^(2 steps).
        transient = solve_discrete_lyapunov(f, eye - stationary)
        # Var sum_k |e_k|^2 -> steps * 2 (2 tr(V_inf^2 R) - |V_inf|_F^2),
        # R = F' R F + I, up to O(1/steps) relative terms.
        r = solve_discrete_lyapunov(f.T, eye)
        per_step = 2.0 * (2.0 * np.trace(stationary @ stationary @ r)
                          - np.sum(stationary**2))
        mean, sd = running_sq_distance_law(spec, tau, eta, n, steps)
        assert (steps + 1) * mean == pytest.approx(
            (steps + 1) * np.trace(stationary) + np.trace(transient), rel=1e-10)
        assert (steps + 1) * sd**2 == pytest.approx(per_step, rel=2e-3)

    @pytest.mark.parametrize("steps, mean, sd", [(2000, 33.71, 0.58), (500, 33.69, 1.16)])
    def test_suite_config_pins(self, steps, mean, sd):
        quad, _ = default_specs(dim=1)
        c = quad.constants()
        law = running_sq_distance_law(quad, 1.0, c.alpha / (8.0 * c.smooth_L**2), 16, steps)
        assert law == pytest.approx((mean, sd), abs=0.01)

    def test_modes_of_one_particle_are_its_mean(self):
        spec = random_quadratic(np.random.default_rng(3), dim=2)
        (g, one), (_, zero_x), (_, zero_y) = particle_modes(spec, 0.01, 1)
        assert (one, zero_x, zero_y) == (1, 0, 0)
        assert np.allclose(g, self.joint_map(spec, 0.01, 1), rtol=0, atol=1e-15)

    def test_rejects_the_perturbed_family(self):
        _, pert = default_specs(dim=1)
        with pytest.raises(ValueError, match="quadratic-bilinear"):
            running_sq_distance_law(pert, 1.0, 0.01, 4, 10)
