import numpy as np
import pytest

from minmax_langevin import (
    PerturbedQuadratic,
    QuadraticBilinear,
    check_gradient_fd,
)
from minmax_langevin.checks import check_gradients, default_specs


def scalar_quadratic(c=1.0, u=0.0, v=0.0):
    return QuadraticBilinear(dim=1, A=[[1.0]], B=[[1.0]], C=[[c]], u=[u], v=[v])


class TestValue:
    def test_origin_vanishes(self):
        q = scalar_quadratic()
        assert q.value(np.zeros(1), np.zeros(1)) == 0.0

    def test_polynomial_arithmetic(self):
        q = scalar_quadratic()
        # 1/2 - 2 + 2 = 0.5
        assert q.value(np.array([1.0]), np.array([2.0])) == pytest.approx(0.5)

    def test_zero_amplitude_matches_base(self):
        q = scalar_quadratic()
        p = PerturbedQuadratic(base=q, amplitude=0.0, frequency=1.0)
        for _ in range(10):
            x, y = np.random.randn(1), np.random.randn(1)
            assert p.value(x, y) == q.value(x, y)


class TestGrad:
    def test_linear_gradients(self):
        q = scalar_quadratic()
        x, y = np.array([1.0]), np.array([2.0])
        assert q.grad_x(x, y)[0] == pytest.approx(3.0)
        assert q.grad_y(x, y)[0] == pytest.approx(-1.0)

    def test_equilibrium_of_symmetric_quadratic(self):
        q = scalar_quadratic()
        z = np.zeros(1)
        assert q.grad_x(z, z)[0] == 0.0
        assert q.grad_y(z, z)[0] == 0.0

    def test_perturbation_vanishes_at_origin(self):
        p = PerturbedQuadratic(base=scalar_quadratic(), amplitude=0.1, frequency=1.0)
        z = np.zeros(1)
        assert p.grad_x(z, z)[0] == 0.0
        assert p.grad_y(z, z)[0] == 0.0

    def test_broadcasting_matches_loop(self):
        _, p = default_specs(dim=2)
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(5, 2))
        ys = rng.normal(size=(7, 2))
        batched = p.grad_x(xs[:, None, :], ys[None, :, :])
        for i in range(5):
            for j in range(7):
                np.testing.assert_array_equal(batched[i, j], p.grad_x(xs[i], ys[j]))

    @pytest.mark.parametrize("family", [0, 1], ids=["quadratic", "perturbed"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    @pytest.mark.parametrize("systems, rows",
                             [(300, 8), (8, 2), (8, 64), (2, 64), (300, 1), (8, 1), (2, 1)])
    def test_a_stack_has_the_bits_of_its_systems(self, family, dim, systems, rows):
        # Dense matrices, so that the products round.  A stack of 8 or more
        # multi-row systems runs as one gemm and must keep each system's gemm
        # bits; a stack of one-row systems keeps numpy's gemv per row.
        rng = np.random.default_rng(dim)
        spd = [m @ m.T + dim * np.eye(dim) for m in rng.normal(size=(2, dim, dim))]
        quad = QuadraticBilinear(dim=dim, A=spd[0], B=spd[1], C=rng.normal(size=(dim, dim)),
                                 u=rng.normal(size=dim), v=rng.normal(size=dim))
        spec = (quad, PerturbedQuadratic(base=quad, amplitude=0.1, frequency=1.0))[family]
        x, y = rng.normal(size=(2, systems, rows, dim))
        for grad in (spec.grad_x, spec.grad_y):
            per_system = np.stack([grad(xi, yi) for xi, yi in zip(x, y)])
            assert np.array_equal(grad(x, y), per_system)

    def test_dimension_mismatch_rejected(self):
        q = scalar_quadratic()
        with pytest.raises(ValueError):
            q.grad_x(np.zeros(2), np.zeros(1))


class TestConstants:
    def test_identity_hessian(self):
        q = QuadraticBilinear(dim=2, A=np.eye(2), B=np.eye(2), C=np.zeros((2, 2)))
        c = q.constants()
        assert c.alpha == pytest.approx(1.0)
        assert c.smooth_L == pytest.approx(1.0)

    def test_bilinear_coupling_raises_smoothness(self):
        # Independent oracle: the joint Hessian [[1, 1], [1, -1]] has singular
        # values equal to sqrt(2) (eigendecomposition below), alpha stays 1.
        q = scalar_quadratic(c=1.0)
        h = np.array([[1.0, 1.0], [1.0, -1.0]])
        oracle = float(np.sqrt(np.max(np.linalg.eigvalsh(h.T @ h))))
        c = q.constants()
        assert oracle == pytest.approx(np.sqrt(2.0), abs=1e-15)
        assert c.alpha == pytest.approx(1.0)
        assert c.smooth_L == pytest.approx(oracle, abs=1e-10)

    def test_perturbed_bound_arithmetic(self):
        q = QuadraticBilinear(dim=2, A=np.eye(2), B=np.eye(2), C=np.zeros((2, 2)))
        p = PerturbedQuadratic(base=q, amplitude=0.1, frequency=1.0)
        c = p.constants()
        assert c.alpha == pytest.approx(0.9)
        assert c.smooth_L == pytest.approx(1.1)

    def test_alpha_le_smooth_l_on_random_specs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            q_mat = np.linalg.qr(rng.normal(size=(d, d)))[0]
            a = q_mat @ np.diag(rng.uniform(0.5, 2.0, d)) @ q_mat.T
            spec = QuadraticBilinear(
                dim=d, A=a, B=np.eye(d), C=0.3 * rng.normal(size=(d, d))
            )
            c = spec.constants()
            assert 0 < c.alpha <= c.smooth_L


class TestInvariants:
    def test_rejects_nonsymmetric_a(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticBilinear(dim=2, A=[[1, 0.5], [0, 1]], B=np.eye(2), C=np.zeros((2, 2)))

    def test_rejects_indefinite_b(self):
        with pytest.raises(ValueError, match="positive definite"):
            QuadraticBilinear(dim=1, A=[[1.0]], B=[[-1.0]], C=[[0.0]])

    def test_rejects_excess_amplitude(self):
        with pytest.raises(ValueError, match="amplitude"):
            PerturbedQuadratic(base=scalar_quadratic(), amplitude=0.6, frequency=1.0)

    def test_purity(self):
        _, p = default_specs(dim=2)
        x, y = np.array([0.3, -1.2]), np.array([0.7, 0.1])
        assert p.value(x, y) == p.value(x, y)
        np.testing.assert_array_equal(p.grad_x(x, y), p.grad_x(x, y))
        np.testing.assert_array_equal(p.grad_y(x, y), p.grad_y(x, y))


class TestFiniteDifferences:
    def test_quadratic_tight(self):
        result = check_gradients(default_specs(2)[0], tol=1e-8, seed=1, points=100)
        assert result.passed, result.detail

    def test_perturbed_tolerance(self):
        result = check_gradients(default_specs(2)[1], tol=1e-6, seed=1, points=100)
        assert result.passed, result.detail

    @pytest.mark.parametrize("family", [0, 1], ids=["quadratic", "perturbed"])
    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    def test_a_batch_is_the_worst_of_its_points(self, family, dim):
        # The default payoffs' matrices are multiples of I, so every matmul is
        # exact and a batch rounds as its points do; a dense matrix's batched
        # (gemm) and per-point (gemv) products may differ in the last bit.
        spec = default_specs(dim)[family]
        # (points, 2, d) draws split into x and y views, as check_gradients does.
        rng = np.random.default_rng(dim)
        x, y = 2.0 * rng.normal(size=(40, 2, dim)).transpose(1, 0, 2)
        per_point = max(check_gradient_fd(spec, xi, yi) for xi, yi in zip(x, y))
        assert check_gradient_fd(spec, x, y) == per_point
