import math

import numpy as np
import pytest

from minmax_langevin import (
    EnvelopeViolation,
    JointPoint,
    QuadraticBilinear,
    duality_gap_bound,
    gd_rate_audit,
    gd_step,
    solve_equilibrium,
)
from minmax_langevin import checks
from minmax_langevin.checks import check_gd_envelope, default_specs
from minmax_langevin.deterministic import grad_norm
from minmax_langevin.payoff import Constants
from test_dynamics import dense_specs
from test_mutants import SHIFTED


def scalar_quadratic(c=1.0, u=0.0, v=0.0):
    return QuadraticBilinear(dim=1, A=[[1.0]], B=[[1.0]], C=[[c]], u=[u], v=[v])


def point(x, y):
    return JointPoint(x=np.atleast_1d(np.asarray(x, float)),
                      y=np.atleast_1d(np.asarray(y, float)))


class TestGdStep:
    def test_descent_ascent_directions(self):
        z = gd_step(scalar_quadratic(), point(1.0, 1.0), 0.1)
        assert z.x[0] == pytest.approx(0.8)
        assert z.y[0] == pytest.approx(1.0)

    def test_equilibrium_is_fixed_point(self):
        q = scalar_quadratic(u=1.0)
        z_star, _ = solve_equilibrium(q)
        z = gd_step(q, z_star, 0.1)
        np.testing.assert_allclose(z.vector, z_star.vector, atol=1e-15)

    def test_zero_step_is_identity(self):
        z0 = point(0.3, -0.4)
        z = gd_step(scalar_quadratic(), z0, 0.0)
        np.testing.assert_array_equal(z.vector, z0.vector)

    def test_warns_outside_rate_regime(self):
        with pytest.warns(UserWarning):
            gd_step(scalar_quadratic(), point(1.0, 1.0), 10.0)


class TestSolveEquilibrium:
    def test_symmetric_homogeneous_system(self):
        z, iters = solve_equilibrium(scalar_quadratic())
        np.testing.assert_allclose(z.vector, np.zeros(2), atol=1e-15)
        assert iters == 0

    def test_affine_terms_shift_saddle(self):
        # x + y + 1 = 0 and x - y = 0 meet at (-0.5, -0.5)
        z, _ = solve_equilibrium(scalar_quadratic(u=1.0))
        np.testing.assert_allclose(z.vector, [-0.5, -0.5], atol=1e-14)

    def test_perturbed_meets_requested_residual(self):
        _, pert = default_specs(dim=2)
        z, iters = solve_equilibrium(pert, tol=1e-10)
        assert grad_norm(pert, z) <= 1e-10
        assert iters >= 0

    def test_quadratic_stationarity_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            q_mat = np.linalg.qr(rng.normal(size=(d, d)))[0]
            spec = QuadraticBilinear(
                dim=d,
                A=q_mat @ np.diag(rng.uniform(0.5, 2.0, d)) @ q_mat.T,
                B=np.eye(d) * rng.uniform(0.5, 2.0),
                C=0.4 * rng.normal(size=(d, d)),
                u=rng.normal(size=d),
                v=rng.normal(size=d),
            )
            z, _ = solve_equilibrium(spec, tol=1e-12)
            residual_x = spec.A @ z.x + spec.C @ z.y + spec.u
            residual_y = -spec.B @ z.y + spec.C.T @ z.x + spec.v
            assert np.max(np.abs(residual_x)) <= 1e-12
            assert np.max(np.abs(residual_y)) <= 1e-12

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            solve_equilibrium(scalar_quadratic(), tol=0.0)

    def test_the_descent_solve_is_gd_steps(self):
        # The perturbed solve written out as a loop over the public gd_step,
        # from the base solution, to the default tolerance on the same scale.
        _, pert = dense_specs(3)
        z, iters = solve_equilibrium(pert)
        ref, k = solve_equilibrium(pert.base)[0], 0
        scale = max(1.0, math.hypot(*pert.base.u, *pert.base.v))
        while not grad_norm(pert, ref, scale) <= 1e-10:
            ref, k = gd_step(pert, ref, pert.constants().eta_gd), k + 1
        assert k == iters > 0
        assert z.x.tobytes() == ref.x.tobytes() and z.y.tobytes() == ref.y.tobytes()


class TestDualityGapBound:
    def test_zero_at_equilibrium(self):
        q = scalar_quadratic(u=1.0)
        z_star, _ = solve_equilibrium(q)
        assert duality_gap_bound(q, z_star) <= 1e-25

    def test_squared_gradient_over_two_alpha(self):
        q = scalar_quadratic()
        z = point(1.0, 1.0)
        # grad = (x + y, x - y) = (2, 0), |grad|^2 = 4, alpha = 1 -> bound 2
        assert duality_gap_bound(q, z) == pytest.approx(2.0)

    def test_formula_homogeneity_in_alpha(self):
        q = scalar_quadratic()
        z = point(0.7, -0.2)
        gn = grad_norm(q, z)
        assert duality_gap_bound(q, z) == pytest.approx(gn**2 / 2.0)
        # doubling alpha at fixed gradient norm halves the bound
        assert gn**2 / (2.0 * 2.0) == pytest.approx(duality_gap_bound(q, z) / 2.0)


class TestRateAudit:
    def test_from_equilibrium_all_zero(self):
        q = scalar_quadratic(u=1.0)
        z_star, _ = solve_equilibrium(q)
        records = gd_rate_audit(q, z_star, 0.1, 20)
        assert all(dist == 0.0 for _, dist, _ in records)

    def test_zero_steps_single_entry(self):
        records = gd_rate_audit(scalar_quadratic(), point(1.0, 0.0), 0.1, 0)
        assert len(records) == 1
        k, dist, env = records[0]
        assert k == 0 and dist == pytest.approx(env)

    def test_decoupled_contraction_beats_envelope(self):
        # A = B = 1, C = 0: per-step squared-distance factor (1 - eta)^2 =
        # 0.5625 at eta = 0.25, below the envelope factor e^-0.25 = 0.7788.
        q = scalar_quadratic(c=0.0)
        records = gd_rate_audit(q, point(1.0, 0.0), 0.25, 10)
        for k, dist, env in records:
            assert dist == pytest.approx(0.5625**k, rel=1e-12)
            assert env == pytest.approx(np.exp(-0.25 * k), rel=1e-12)
            assert dist <= env * (1 + 1e-9)

    def test_rejects_large_step(self):
        with pytest.raises(ValueError, match="alpha / \\(4 L"):
            gd_rate_audit(scalar_quadratic(), point(1.0, 0.0), 0.5, 5)

    @pytest.mark.parametrize("spec_idx", [0, 1])
    def test_envelope_holds_500_steps_both_families(self, spec_idx):
        spec = default_specs(dim=2)[spec_idx]
        c = spec.constants()
        rng = np.random.default_rng(5)
        z0 = JointPoint(x=rng.normal(size=2), y=rng.normal(size=2))
        records = gd_rate_audit(spec, z0, c.alpha / (4 * c.smooth_L**2), 500)
        assert len(records) == 501  # no EnvelopeViolation raised

    @pytest.mark.parametrize("spec_idx", [0, 1])
    def test_gradient_norm_decay(self, spec_idx):
        # |grad V(z_k)|^2 <= exp(-alpha eta k) |grad V(z_0)|^2 for
        # eta <= alpha / (16 L^2).
        spec = default_specs(dim=2)[spec_idx]
        c = spec.constants()
        eta = c.alpha / (16.0 * c.smooth_L**2)
        rng = np.random.default_rng(17)
        z = JointPoint(x=rng.normal(size=2), y=rng.normal(size=2))
        g0_sq = grad_norm(spec, z) ** 2
        for k in range(1, 301):
            z = gd_step(spec, z, eta)
            bound = np.exp(-c.alpha * eta * k) * g0_sq
            assert grad_norm(spec, z) ** 2 <= bound * (1 + 1e-9)


class Overclaimed(QuadraticBilinear):
    """A quadratic whose constants() claims alpha = L: a rate it cannot keep."""

    def constants(self):
        smooth_l = super().constants().smooth_L
        return Constants(alpha=smooth_l, smooth_L=smooth_l)


class TestAuditViolation:
    SPEC = Overclaimed(dim=2, A=np.diag([1.0, 4.0]), B=np.diag([1.0, 4.0]),
                       C=np.zeros((2, 2)))

    def test_an_overclaimed_rate_raises_at_its_step(self):
        # alpha = L = 4 gives eta_gd = 1/16 and an envelope factor e^(-1/4)
        # a step, but the first coordinates contract by only (15/16)^2.
        z0 = JointPoint(x=[1.0, 1.0], y=[1.0, -1.0])
        with pytest.raises(EnvelopeViolation, match=(
                r"^step 5: distance\^2 1\.161548e\+00 exceeds envelope 1\.146019e\+00$")):
            gd_rate_audit(self.SPEC, z0, self.SPEC.constants().eta_gd, 50)

    def test_the_envelope_suite_fails(self):
        result = check_gd_envelope(self.SPEC)
        assert result.name == "gd_rate_envelope[Overclaimed]"
        assert not result.passed
        assert "exceeds envelope" in result.detail


class TestRoundingFloor:
    """Off z* = 0 the descent stalls a few ulps from z* while its envelope
    keeps decaying; the audit passes such a stall, up to 16 eps^2 |z*|^2."""

    def test_the_envelope_suite_passes_off_the_origin_at_seeds_0_to_15(self):
        results = [check_gd_envelope(SHIFTED, seed=seed) for seed in range(16)]
        assert [r.detail for r in results if not r.passed] == []

    def test_the_stall_is_above_the_envelope_and_under_the_floor(self):
        # Seed 8 stalls highest of seeds 0-15: 3.77 eps^2 |z*|^2.
        z_star = solve_equilibrium(SHIFTED)[0].vector
        x, y = checks._normals(8, "gd-envelope", 2, 2)
        records = gd_rate_audit(SHIFTED, JointPoint(x=x, y=y),
                                SHIFTED.constants().eta_gd, checks._GD_STEPS)
        unit = np.finfo(float).eps ** 2 * float(z_star @ z_star)
        excess = [dist for _, dist, envelope in records if dist > envelope * (1 + 1e-9)]
        assert excess and 1.0 < max(excess) / unit < 16.0


def reference_audit(spec, z0, eta, steps):
    """The rate audit as a loop over the public gd_step, each step checked
    against the update written out here."""
    c = spec.constants()
    z_star, _ = solve_equilibrium(spec)
    z, records = z0, []
    d0 = float(np.sum((z0.vector - z_star.vector) ** 2))
    for k in range(steps + 1):
        dist_sq = float(np.sum((z.vector - z_star.vector) ** 2))
        records.append((k, dist_sq, np.exp(-c.alpha * eta * k) * d0))
        if k < steps:
            nxt = gd_step(spec, z, eta)
            assert nxt.x.tobytes() == (z.x - eta * spec.grad_x(z.x, z.y)).tobytes()
            assert nxt.y.tobytes() == (z.y + eta * spec.grad_y(z.x, z.y)).tobytes()
            z = nxt
    return records


@pytest.mark.parametrize("family", [0, 1], ids=["quadratic", "perturbed"])
@pytest.mark.parametrize("specs", [default_specs(2), dense_specs(3)], ids=["default", "dense"])
def test_the_audit_trajectory_is_gd_steps(specs, family):
    spec = specs[family]
    rng = np.random.default_rng(11)
    z0 = JointPoint(x=rng.normal(size=spec.dim), y=rng.normal(size=spec.dim))
    eta = spec.constants().eta_gd
    audit = gd_rate_audit(spec, z0, eta, 500)
    reference = reference_audit(spec, z0, eta, 500)
    assert len(audit) == 501
    assert np.array(audit).tobytes() == np.array(reference).tobytes()
