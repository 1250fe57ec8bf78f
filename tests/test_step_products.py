"""A particle step keeps its bits while doing less per step.

The payoff products run through ``np.dot`` on a ``(rows, d)`` view, and a
noise slab hit skips the checks its miss already made.  The product rule is
compared with ``@`` over clouds and stacks of every size the solver and the
probes use, both orientations of the matrix and edge-case inputs; whole runs
are compared with the product rule they replaced.  The slab tests pin that
every bad address still raises its error after a slab is drawn.  The GD
rate audit, now scored in one pass after its trajectory, keeps its first
violation and its message, and a diverging audit warns of nothing.
"""

import math
import warnings

import numpy as np
import pytest

from minmax_langevin import payoff
from minmax_langevin.deterministic import EnvelopeViolation, JointPoint, gd_rate_audit
from minmax_langevin.deterministic import _gd_update, solve_equilibrium
from minmax_langevin.dynamics import AlgorithmParams, ParticleState, run_algorithm
from minmax_langevin.payoff import Constants, PerturbedQuadratic, QuadraticBilinear, _times
from minmax_langevin.rng import KeyedNoise

DIMS = [1, 2, 3, 8]

# Signed zeros, the smallest subnormals and magnitudes whose products with
# the O(1) test matrices stay finite.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300]


def matrix(d):
    """A fixed nonsymmetric d x d matrix with a negative first entry, so an
    exact zero times it has the signed-zero trap of ``x * a`` at d = 1."""
    m = np.random.default_rng(d).normal(size=(d, d))
    m[0, 0] = -abs(m[0, 0]) - 0.5
    return m


def points(shape, seed):
    """Normal draws of wide magnitudes with every edge value planted."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=shape) * np.exp(rng.uniform(-20.0, 20.0, size=shape))
    flat = v.reshape(-1)
    count = min(flat.size, len(EDGE_VALUES))
    flat[rng.choice(flat.size, size=count, replace=False)] = EDGE_VALUES[:count]
    return v


SHAPES = ([lambda d: (d,)]
          + [lambda d, r=r: (r, d) for r in (1, 2, 3, 16, 64, 512)]
          + [lambda d, s=s, r=r: (s, r, d)
             for s in (1, 2, 3, 7, 8, 9, 2000) for r in (1, 2, 8, 64)])


class TestProductRule:
    @pytest.mark.parametrize("transposed", [False, True], ids=["A", "A.T"])
    @pytest.mark.parametrize("d", DIMS)
    def test_the_bytes_of_matmul(self, d, transposed):
        m = matrix(d).T if transposed else matrix(d)
        for i, shape in enumerate(SHAPES):
            v = points(shape(d), 100 * d + i)
            got = _times(v, m)
            assert got.shape == v.shape and got.tobytes() == (v @ m).tobytes(), v.shape

    @pytest.mark.parametrize("d", DIMS)
    def test_strided_probe_systems(self, d):
        # The probes' z1 and z2 are every other (n, d) block of one draw.
        zs = points((50, 2, 4, d), d)
        for m in (matrix(d), matrix(d).T):
            for v in (zs[:, 0], zs[:, 1]):
                assert _times(v, m).tobytes() == (v @ m).tobytes()

    @pytest.mark.parametrize("shape", [(1,), (1, 1), (2, 1), (3, 2, 1)])
    def test_exact_zeros_keep_the_sign_of_matmul_at_d_1(self, shape):
        # @ adds each product to an exact zero, so 0.0 * -1.5 gives +0.0.
        # The elementwise product (and np.dot on a lone element) gives -0.0.
        x, a = np.zeros(shape), np.array([[-1.5]])
        assert _times(x, a).tobytes() == (x @ a).tobytes() == np.zeros(shape).tobytes()
        assert (x * a[0, 0]).tobytes() != (x @ a).tobytes()


def old_times(v, m):
    """The product rule these steps replaced: one gemm only for stacks of
    at least 8 systems of at least two rows each, ``@`` otherwise."""
    if v.ndim > 2 and v.shape[-2] > 1 and math.prod(v.shape[:-2]) >= 8:
        return (v.reshape(-1, v.shape[-1]) @ m).reshape(v.shape)
    return v @ m


def dense_spec(d, family):
    rng = np.random.default_rng(d)
    raw = rng.normal(size=(d, d))
    a = raw @ raw.T / d + np.eye(d)
    quad = QuadraticBilinear(dim=d, A=a, B=a + 0.5 * np.eye(d), C=0.3 * rng.normal(size=(d, d)))
    if family == "quadratic":
        return quad
    return PerturbedQuadratic(base=quad, amplitude=0.1 * quad.constants().alpha, frequency=1.0)


@pytest.mark.parametrize("family", ["quadratic", "perturbed"])
@pytest.mark.parametrize("shape", [(512, 1), (2, 64, 2), (16, 1), (512, 8)],
                         ids=["512x1", "2x64x2", "16x1", "512x8"])
def test_a_run_keeps_the_bits_of_the_old_product_rule(monkeypatch, shape, family):
    spec = dense_spec(shape[-1], family)
    rng = np.random.default_rng(7)
    init = ParticleState(xs=rng.normal(size=shape), ys=rng.normal(size=shape))
    params = AlgorithmParams(eta=spec.constants().eta_strict, tau=1.0,
                             n_particles=shape[-2], steps=20)
    _, new = run_algorithm(spec, init, params, seed=3, checkpoint_every=20)
    monkeypatch.setattr(payoff, "_times", old_times)
    _, old = run_algorithm(spec, init, params, seed=3, checkpoint_every=20)
    assert new.xs.tobytes() == old.xs.tobytes()
    assert new.ys.tobytes() == old.ys.tobytes()


class TestSlabHitKeepsEveryError:
    @pytest.fixture
    def noise(self):
        """A noise source holding a slab of steps 0 .. 9 for both roles."""
        noise = KeyedNoise(5, horizon=10)
        noise.block("x", 3, 0, 2)
        return noise

    @pytest.mark.parametrize("step, message", [
        (-1, "step must be nonnegative"),
        (math.nan, "step must be nonnegative"),
        (2**64, "step must be at most 2\\*\\*64 - 1"),
    ])
    def test_a_bad_step_raises(self, noise, step, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            noise.block("x", 3, step, 2)

    def test_an_unknown_role_raises(self, noise):
        with pytest.raises(ValueError, match=(
                r"^unknown noise role 'z'; roles are \['init-x', 'init-y', 'x', 'y'\]$")):
            noise.block("z", 3, 1, 2)

    def test_an_integral_float_step_reads_its_integer_address(self, noise):
        for role in ("y", "x"):
            assert (noise.block(role, 3, 4.0, 2).tobytes()
                    == KeyedNoise(5).block(role, 3, 4, 2).tobytes())


class Understated(QuadraticBilinear):
    """A quadratic whose constants() claim a hundredth of its own, so that
    its eta_gd is 100 times too large and descent-ascent diverges."""

    def constants(self):
        c = super().constants()
        return Constants(alpha=c.alpha / 100.0, smooth_L=c.smooth_L / 100.0)


def stepwise_audit(spec, z0, eta, steps):
    """The audit as a loop that scores each step before taking the next."""
    c = spec.constants()
    star = solve_equilibrium(spec)[0].vector
    x, y = z0.x, z0.y
    for k in range(steps + 1):
        dz = np.concatenate([x, y]) - star
        dist_sq = float(np.add.reduce(dz * dz))
        d0 = dist_sq if k == 0 else d0
        envelope = np.exp(-c.alpha * eta * k) * d0
        if not dist_sq <= envelope * (1.0 + 1e-9):
            return f"step {k}: distance^2 {dist_sq:.6e} exceeds envelope {envelope:.6e}"
        x, y = _gd_update(spec, x, y, eta)
    return None


def test_a_diverging_audit_fails_at_its_first_violation_without_warnings():
    spec = Understated(dim=2, A=np.diag([1.0, 3.0]), B=np.eye(2), C=0.5 * np.eye(2))
    z0 = JointPoint(x=[1.0, -1.0], y=[0.5, 2.0])
    eta = spec.constants().eta_gd
    expected = stepwise_audit(spec, z0, eta, 500)
    assert expected is not None
    # The trajectory overflows long before step 500.
    with np.errstate(all="ignore"):
        x, y = z0.x, z0.y
        for _ in range(500):
            x, y = _gd_update(spec, x, y, eta)
    assert not np.isfinite(x).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EnvelopeViolation) as raised:
            gd_rate_audit(spec, z0, eta, 500)
    assert str(raised.value) == expected
