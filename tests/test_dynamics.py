import re

import numpy as np
import pytest

from minmax_langevin import (
    AlgorithmParams,
    DivergenceError,
    JointPoint,
    KeyedNoise,
    ParticleState,
    PerturbedQuadratic,
    QuadraticBilinear,
    contraction_factor,
    coupled_contraction_run,
    drift_particles,
    gd_step,
    joint_drift,
    load_snapshot,
    replicate_point,
    run_algorithm,
    save_snapshot,
    solve_equilibrium,
    step_algorithm,
)
from minmax_langevin import dynamics, rng
from minmax_langevin.checks import (
    check_second_moment_stability,
    default_specs,
)
from minmax_langevin.dynamics import batched_joint_drift, coupling_distance_sq


def scalar_quadratic(c=1.0):
    return QuadraticBilinear(dim=1, A=[[1.0]], B=[[1.0]], C=[[c]])


def pairwise_drift(spec, xs, ys):
    """Reference O(N^2 d) sum: -(1/N) sum_j grad_x V(x^i, y^j) and its y twin."""
    n = xs.shape[0]
    gx = spec.grad_x(xs[:, None, :], ys[None, :, :]).sum(axis=1)
    gy = spec.grad_y(xs[None, :, :], ys[:, None, :]).sum(axis=1)
    return -gx / n, gy / n


def dense_specs(d, seed=0):
    """Both families with dense A, B, C and nonzero u, v."""
    rng = np.random.default_rng(seed)
    ma, mb = rng.normal(size=(2, d, d))
    quad = QuadraticBilinear(
        dim=d, A=ma @ ma.T + d * np.eye(d), B=mb @ mb.T + d * np.eye(d),
        C=rng.normal(size=(d, d)), u=rng.normal(size=d), v=rng.normal(size=d),
    )
    return quad, PerturbedQuadratic(base=quad, amplitude=0.1, frequency=1.5)


def max_rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class GradSizeRecorder:
    """Payoff wrapper that records the element count of each gradient result."""

    def __init__(self, spec):
        self.spec, self.sizes = spec, []
        self.dim = spec.dim

    def grad_x(self, x, y):
        out = self.spec.grad_x(x, y)
        self.sizes.append(out.size)
        return out

    def grad_y(self, x, y):
        out = self.spec.grad_y(x, y)
        self.sizes.append(out.size)
        return out


class InjectedNoise:
    """Fixed per-role noise values for worked examples."""

    def __init__(self, x_value, y_value):
        self.x_value, self.y_value = x_value, y_value

    def block(self, role, n, step, d):
        value = self.x_value if role == "x" else self.y_value
        return np.full((n, d), value, dtype=float)


class TestDrift:
    def test_single_particle_reduction(self):
        q = scalar_quadratic()
        state = ParticleState(xs=np.array([[0.7]]), ys=np.array([[-0.4]]))
        b_x, b_y = drift_particles(q, state)
        assert b_x[0, 0] == -q.grad_x(state.xs[0], state.ys[0])[0]
        assert b_y[0, 0] == q.grad_y(state.xs[0], state.ys[0])[0]

    def test_symmetric_opponents_cancel(self):
        q = scalar_quadratic()
        state = ParticleState(xs=np.zeros((2, 1)), ys=np.array([[1.0], [-1.0]]))
        b_x, _ = drift_particles(q, state)
        np.testing.assert_array_equal(b_x, np.zeros((2, 1)))

    @pytest.mark.parametrize("spec_idx", [0, 1])
    def test_zero_at_equilibrium_configuration(self, spec_idx):
        spec = default_specs(dim=2)[spec_idx]
        z_star, _ = solve_equilibrium(spec, tol=1e-13)
        state = replicate_point(z_star, 8)
        assert np.max(np.abs(joint_drift(spec, state))) <= 1e-11

    def test_batched_matches_sequential(self):
        spec = default_specs(dim=2)[1]
        rng = np.random.default_rng(2)
        zs = rng.normal(size=(6, 2 * 4 * 2))
        batched = batched_joint_drift(spec, zs, 4, 2)
        for row, z in zip(batched, zs):
            state = ParticleState(xs=z[:8].reshape(4, 2), ys=z[8:].reshape(4, 2))
            np.testing.assert_allclose(row, joint_drift(spec, state), atol=1e-14)
            ref_x, ref_y = pairwise_drift(spec, state.xs, state.ys)
            np.testing.assert_allclose(
                row, np.concatenate([ref_x.ravel(), ref_y.ravel()]), atol=1e-14
            )

    @pytest.mark.parametrize("spec_idx", [0, 1])
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    @pytest.mark.parametrize("n", [1, 7, 512])
    def test_stacked_systems_drift_bit_for_bit_as_alone(self, spec_idx, d, n):
        spec = dense_specs(d)[spec_idx]
        rng = np.random.default_rng(100 * n + 10 * d + spec_idx)
        xs, ys = rng.normal(size=(2, 3, n, d))
        stacked = joint_drift(spec, ParticleState(xs=xs, ys=ys))
        assert stacked.shape == (3, 2 * n * d)
        for i in range(3):
            alone = joint_drift(spec, ParticleState(xs=xs[i], ys=ys[i]))
            assert alone.shape == (2 * n * d,)
            np.testing.assert_array_equal(stacked[i], alone)
            single = joint_drift(spec, ParticleState(xs=xs[i:i + 1], ys=ys[i:i + 1]))
            np.testing.assert_array_equal(single, alone[None])

    @pytest.mark.parametrize("spec_idx", [0, 1])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("n", [1, 7, 600])
    def test_matches_pairwise_oracle(self, spec_idx, d, n):
        spec = dense_specs(d)[spec_idx]
        rng = np.random.default_rng(100 * n + 10 * d + spec_idx)
        state = ParticleState(
            xs=rng.normal(1.0, 2.0, size=(n, d)), ys=rng.normal(-0.5, 2.0, size=(n, d))
        )
        b_x, b_y = drift_particles(spec, state)
        ref_x, ref_y = pairwise_drift(spec, state.xs, state.ys)
        assert max_rel_err(b_x, ref_x) <= 1e-12
        assert max_rel_err(b_y, ref_y) <= 1e-12

    @pytest.mark.parametrize("spec_idx", [0, 1])
    def test_gradient_work_is_linear_in_particles(self, spec_idx):
        # Only N*d-sized gradient evaluations are allowed: no pairwise tensor.
        n, d = 300, 3
        recorder = GradSizeRecorder(dense_specs(d)[spec_idx])
        rng = np.random.default_rng(5)
        state = ParticleState(xs=rng.normal(size=(n, d)), ys=rng.normal(size=(n, d)))
        drift_particles(recorder, state)
        assert len(recorder.sizes) == 2
        assert max(recorder.sizes) <= n * d


class TestStep:
    def test_deterministic_step(self):
        q = scalar_quadratic()
        state = ParticleState(xs=np.array([[1.0]]), ys=np.array([[1.0]]))
        params = AlgorithmParams(eta=0.1, tau=0.0, n_particles=1, steps=1)
        out = step_algorithm(q, state, params, KeyedNoise(0))
        assert out.xs[0, 0] == pytest.approx(0.8)
        assert out.ys[0, 0] == pytest.approx(1.0)
        assert out.step == 1

    def test_injected_noise_update(self):
        # x' = 1 - 0.02*1 + sqrt(2*0.5*0.02)*1 and y' = 0 + 0.02*1
        q = scalar_quadratic()
        state = ParticleState(xs=np.array([[1.0]]), ys=np.array([[0.0]]))
        params = AlgorithmParams(eta=0.02, tau=0.5, n_particles=1, steps=1)
        out = step_algorithm(q, state, params, InjectedNoise(1.0, 0.0))
        assert out.xs[0, 0] == pytest.approx(1.1214213562373095, abs=1e-15)
        assert out.ys[0, 0] == pytest.approx(0.02, abs=1e-18)

    def test_strict_eta_regime_enforced(self):
        q = scalar_quadratic()
        c = q.constants()
        params = AlgorithmParams(
            eta=c.alpha / (32 * c.smooth_L**2), tau=1.0, n_particles=1, steps=1,
            strict_eta=True,
        )
        state = ParticleState(xs=np.zeros((1, 1)), ys=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="strict"):
            step_algorithm(q, state, params, KeyedNoise(0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_drift_reports_step(self):
        q = scalar_quadratic(c=0.5)
        state = ParticleState(
            xs=np.full((1, 1), 1.5e308), ys=np.full((1, 1), 1.2e308), step=17
        )
        params = AlgorithmParams(eta=0.01, tau=0.0, n_particles=1, steps=1)
        with pytest.raises(DivergenceError) as err:
            step_algorithm(q, state, params, KeyedNoise(0))
        assert err.value.step == 17

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("q,xy,message", [
        (scalar_quadratic(c=0.5), (1.5e308, 1.2e308), "drift is nonfinite"),
        (QuadraticBilinear(dim=1, A=[[0.1]], B=[[0.1]], C=[[0.5]]),
         (1.79e308, -1e308), "state overflowed to nonfinite values"),
    ], ids=["drift", "update"])
    def test_noisy_plain_state_divergence_names_its_cause(self, q, xy, message):
        # One finiteness pass on the update; the drift is inspected only
        # after it fails, to tell the two causes apart.
        state = ParticleState(
            xs=np.full((1, 1), xy[0]), ys=np.full((1, 1), xy[1]), step=23
        )
        params = AlgorithmParams(eta=0.15, tau=0.5, n_particles=1, steps=1)
        with pytest.raises(DivergenceError, match=f"^step 23: {message}$") as err:
            step_algorithm(q, state, params, KeyedNoise(4))
        assert err.value.step == 23


    @pytest.mark.parametrize("spec_idx", [0, 1])
    def test_stacked_pair_equals_separate_steps(self, spec_idx):
        # One noise draw shared by a stacked pair reproduces two separate
        # steps bit for bit: the synchronous coupling of the contraction proof.
        spec = dense_specs(3)[spec_idx]
        rng = np.random.default_rng(40 + spec_idx)
        a, b = (
            ParticleState(xs=rng.normal(size=(16, 3)), ys=rng.normal(size=(16, 3)),
                          step=5)
            for _ in range(2)
        )
        params = AlgorithmParams(eta=0.002, tau=0.7, n_particles=16, steps=1)
        noise = KeyedNoise(11)
        pair = step_algorithm(spec, ParticleState.stacked(a, b), params, noise)
        assert pair.step == 6
        for i, single in enumerate((a, b)):
            alone = step_algorithm(spec, single, params, noise)
            np.testing.assert_array_equal(pair.system(i).xs, alone.xs)
            np.testing.assert_array_equal(pair.system(i).ys, alone.ys)

    @pytest.mark.parametrize("shape", [(512, 1), (64, 2), (512, 8), (16, 1)],
                             ids=["512x1", "64x2", "512x8", "16x1"])
    @pytest.mark.parametrize("spec_idx", [0, 1])
    def test_stack_of_one_steps_to_its_clouds_bytes(self, spec_idx, shape):
        # A plain run steps a stack of one, (1, N, d); over 50 steps it keeps
        # the bytes of the same (N, d) cloud stepped alone.
        n, d = shape
        spec = dense_specs(d)[spec_idx]
        rng = np.random.default_rng(60 + spec_idx)
        cloud = ParticleState(xs=rng.normal(size=shape), ys=rng.normal(size=shape))
        params = AlgorithmParams(eta=spec.constants().eta_gd, tau=0.7, n_particles=n,
                                 steps=50)
        _, alone = run_algorithm(spec, cloud, params, seed=11, checkpoint_every=50)
        _, stack = run_algorithm(spec, ParticleState.stacked(cloud), params, seed=11,
                                 checkpoint_every=50)
        assert stack.xs.shape == (1, n, d) and stack.step == alone.step == 50
        assert stack.system(0).xs.tobytes() == alone.xs.tobytes()
        assert stack.system(0).ys.tobytes() == alone.ys.tobytes()

    @pytest.mark.parametrize("lead", [(1,), (1, 1)], ids=["1", "1x1"])
    def test_stack_of_one_keeps_its_shape(self, lead, monkeypatch):
        # run_algorithm steps a stack of one as its (N, d) cloud; every
        # checkpoint and the final state still have init's shape.
        q = scalar_quadratic()
        shape = lead + (8, 1)
        init = ParticleState(xs=np.zeros(shape), ys=np.ones(shape))
        params = AlgorithmParams(eta=0.05, tau=1.0, n_particles=8, steps=7)
        stepped = []
        step = dynamics.step_algorithm
        monkeypatch.setattr(dynamics, "step_algorithm",
                            lambda *a: stepped.append(a[1].xs.shape) or step(*a))
        seen = []
        checkpoints, final = run_algorithm(
            q, init, params, seed=2, checkpoint_every=3,
            on_checkpoint=lambda k, s: seen.append((k, s.xs.shape, s.ys.shape, s.step)))
        assert stepped == [(8, 1)] * 7
        assert seen == [(k, shape, shape, k) for k in (0, 3, 6, 7)]
        assert final.xs.shape == final.ys.shape == shape and final.step == 7
        no_steps = AlgorithmParams(eta=0.05, tau=1.0, n_particles=8, steps=0)
        _, zero = run_algorithm(q, init, no_steps, seed=2, checkpoint_every=3)
        assert zero == init and zero.xs.shape == shape


class TestRun:
    def test_zero_steps_only_initial_checkpoint(self):
        q = scalar_quadratic()
        init = ParticleState(xs=np.zeros((3, 1)), ys=np.zeros((3, 1)))
        params = AlgorithmParams(eta=0.05, tau=1.0, n_particles=3, steps=0)
        checkpoints, final = run_algorithm(q, init, params, seed=1, checkpoint_every=10)
        assert [k for k, _ in checkpoints] == [0]
        assert final.step == 0

    def test_checkpoint_cadence_counts(self):
        q = scalar_quadratic()
        init = ParticleState(xs=np.zeros((2, 1)), ys=np.zeros((2, 1)))
        for steps, every, expected in [(10, 5, [0, 5, 10]), (7, 3, [0, 3, 6, 7]),
                                       (4, 1, [0, 1, 2, 3, 4])]:
            params = AlgorithmParams(eta=0.05, tau=1.0, n_particles=2, steps=steps)
            checkpoints, _ = run_algorithm(q, init, params, seed=1, checkpoint_every=every)
            assert [k for k, _ in checkpoints] == expected

    def test_checkpoints_count_from_a_nonzero_start_step(self):
        q = scalar_quadratic()
        init = ParticleState(xs=np.zeros((2, 1)), ys=np.ones((2, 1)), step=5)
        params = AlgorithmParams(eta=0.05, tau=1.0, n_particles=2, steps=7)
        checkpoints, final = run_algorithm(q, init, params, seed=1, checkpoint_every=3)
        assert [k for k, _ in checkpoints] == [0, 3, 6, 7]
        assert [s.step for _, s in checkpoints] == [5, 8, 11, 12]
        assert final.step == 12
        distances = coupled_contraction_run(q, init, init, params, seed=1)
        assert distances == [0.0] * 8

    def test_same_seed_bit_identical(self):
        spec = default_specs(dim=2)[1]
        rng = np.random.default_rng(0)
        init = ParticleState(xs=rng.normal(size=(5, 2)), ys=rng.normal(size=(5, 2)))
        params = AlgorithmParams(eta=0.01, tau=0.8, n_particles=5, steps=40)
        first, _ = run_algorithm(spec, init, params, seed=9, checkpoint_every=10)
        second, _ = run_algorithm(spec, init, params, seed=9, checkpoint_every=10)
        for (k1, s1), (k2, s2) in zip(first, second):
            assert k1 == k2
            np.testing.assert_array_equal(s1.xs, s2.xs)
            np.testing.assert_array_equal(s1.ys, s2.ys)

    def test_deterministic_mode_equals_gd_bit_for_bit(self):
        q = scalar_quadratic()
        init = ParticleState(xs=np.array([[1.0]]), ys=np.array([[-2.0]]))
        params = AlgorithmParams(eta=0.1, tau=0.0, n_particles=1, steps=100)
        _, final = run_algorithm(q, init, params, seed=4, checkpoint_every=100)
        z = JointPoint(x=np.array([1.0]), y=np.array([-2.0]))
        for _ in range(100):
            z = gd_step(q, z, 0.1)
        assert final.xs[0, 0] == z.x[0]
        assert final.ys[0, 0] == z.y[0]

    def test_noise_unchanged_when_cloud_grows(self):
        # The streams consumed by a step are keyed per particle, so adding
        # particles leaves the noise seen by existing indices untouched.
        noise_a = KeyedNoise(3)
        noise_b = KeyedNoise(3)
        for step in range(5):
            small = noise_a.block("x", 3, step, 2)
            large = noise_b.block("x", 11, step, 2)
            np.testing.assert_array_equal(small, large[:3])


class DrawLog:
    """Records the noise slabs drawn while it is installed: the ``(step,
    word count)`` of each ``rng._philox_words`` call, grouped by the one
    ``rng._words_to_pairs`` pass that closes its slab."""

    def __init__(self, monkeypatch):
        self.slabs, self.pending = [], []
        words, pairs = rng._philox_words, rng._words_to_pairs

        def philox_words(seed, key1, counter1, start, count):
            self.pending.append((counter1, count))
            return words(seed, key1, counter1, start, count)

        def words_to_pairs(drawn):
            self.slabs.append(self.pending)
            self.pending = []
            return pairs(drawn)

        monkeypatch.setattr(rng, "_philox_words", philox_words)
        monkeypatch.setattr(rng, "_words_to_pairs", words_to_pairs)

    @property
    def steps(self):
        return [step for slab in self.slabs for step, _ in slab]


class TestNoiseDraws:
    """``run_algorithm`` draws each step of its span once, in slabs that stop
    at its horizon ``init.step + steps`` and at ``rng._SLAB_WORDS`` words."""

    @staticmethod
    def run(monkeypatch, n, d, steps, start=0, tau=1.0):
        spec = default_specs(dim=d)[0]
        init = ParticleState(xs=np.zeros((n, d)), ys=np.zeros((n, d)), step=start)
        params = AlgorithmParams(eta=spec.constants().eta_strict, tau=tau,
                                 n_particles=n, steps=steps)
        log = DrawLog(monkeypatch)
        run_algorithm(spec, init, params, seed=5, checkpoint_every=max(steps, 1))
        return log

    @pytest.mark.parametrize("n, d, steps, start", [
        (16, 1, 600, 0), (64, 2, 70, 0), (5, 7, 300, 1000), (3, 2, 1, 9), (33, 1, 124, 7),
    ])
    def test_each_step_of_the_span_is_drawn_once(self, monkeypatch, n, d, steps, start):
        log = self.run(monkeypatch, n, d, steps, start)
        assert log.pending == []
        assert sorted(log.steps) == list(range(start, start + steps))
        assert max(log.steps) < start + steps  # nothing at or past the horizon
        assert max(sum(count for _, count in slab) for slab in log.slabs) <= rng._SLAB_WORDS
        per_slab = rng._SLAB_WORDS // (n * d)
        assert len(log.slabs) == -(-steps // per_slab)

    def test_zero_temperature_draws_nothing(self, monkeypatch):
        log = self.run(monkeypatch, 16, 1, 50, tau=0.0)
        assert log.slabs == [] and log.pending == []

    def test_a_step_of_a_whole_slab_is_drawn_alone(self, monkeypatch):
        log = self.run(monkeypatch, 512, 8, 3)
        assert log.slabs == [[(0, 4096)], [(1, 4096)], [(2, 4096)]]

    START, STEPS = 40, 150

    def resumed_run_faults(self, monkeypatch, tmp_path):
        """How a run resumed at step ``START`` from a snapshot differs from
        stepping ``step_algorithm`` by hand with a horizon-less noise."""
        spec = default_specs(dim=2)[1]
        draws = np.random.default_rng(3).normal(size=(2, 16, 2))
        save_snapshot(tmp_path / "snap.csv",
                      ParticleState(xs=draws[0], ys=draws[1], step=self.START))
        init = load_snapshot(tmp_path / "snap.csv")
        params = AlgorithmParams(eta=0.01, tau=0.8, n_particles=16, steps=self.STEPS)
        log = DrawLog(monkeypatch)
        _, final = run_algorithm(spec, init, params, seed=9, checkpoint_every=50)
        slabs = len(log.slabs)
        state, noise = init, KeyedNoise(9)
        for _ in range(self.STEPS):
            state = step_algorithm(spec, state, params, noise)
        faults = []
        if final.step != state.step or (final.xs.tobytes(), final.ys.tobytes()) != (
                state.xs.tobytes(), state.ys.tobytes()):
            faults.append("final state")
        # 32 words a step: slabs of 128 steps cover the 150 steps in two passes.
        if slabs != 2:
            faults.append(f"{slabs} slabs")
        return faults

    def test_a_resumed_run_equals_stepping_by_hand(self, monkeypatch, tmp_path):
        assert self.resumed_run_faults(monkeypatch, tmp_path) == []

    def test_a_horizon_that_ignores_the_start_step_fails_it(self, monkeypatch, tmp_path):
        monkeypatch.setattr(dynamics, "KeyedNoise", lambda seed, horizon: KeyedNoise(
            seed, horizon=horizon - self.START))
        assert self.resumed_run_faults(monkeypatch, tmp_path) == ["41 slabs"]


class PermutedNoise:
    """Re-keys particle rows through a permutation, for equivariance tests."""

    def __init__(self, base: KeyedNoise, perm: np.ndarray):
        self.base, self.perm = base, perm

    def block(self, role, n, step, d):
        return self.base.block(role, n, step, d)[self.perm]


class TestPermutationEquivariance:
    def test_step_with_rekeyed_noise_commutes(self):
        spec = default_specs(dim=2)[0]
        rng = np.random.default_rng(8)
        state = ParticleState(xs=rng.normal(size=(6, 2)), ys=rng.normal(size=(6, 2)))
        params = AlgorithmParams(eta=0.02, tau=0.7, n_particles=6, steps=1)
        perm = np.array([3, 1, 4, 0, 5, 2])
        base = KeyedNoise(13)
        stepped = step_algorithm(spec, state, params, base)
        permuted_state = ParticleState(xs=state.xs[perm], ys=state.ys[perm])
        stepped_perm = step_algorithm(
            spec, permuted_state, params, PermutedNoise(base, perm)
        )
        np.testing.assert_allclose(stepped.xs[perm], stepped_perm.xs, atol=1e-14)
        np.testing.assert_allclose(stepped.ys[perm], stepped_perm.ys, atol=1e-14)


class TestCoupled:
    def test_identical_inits_stay_identical(self):
        q = scalar_quadratic()
        init = ParticleState(xs=np.ones((2, 1)), ys=np.zeros((2, 1)))
        params = AlgorithmParams(eta=0.05, tau=1.0, n_particles=2, steps=10)
        distances = coupled_contraction_run(q, init, init, params, seed=2)
        assert distances == [0.0] * 11

    def test_decoupled_quadratic_ratio(self):
        # A = B = 1, C = 0, eta = 0.1: the difference map is z -> 0.9 z, so
        # every squared-distance ratio is 0.81, below M^2 = 0.84.
        q = scalar_quadratic(c=0.0)
        init_a = ParticleState(xs=np.array([[1.0]]), ys=np.array([[1.0]]))
        init_b = ParticleState(xs=np.array([[0.0]]), ys=np.array([[0.0]]))
        params = AlgorithmParams(eta=0.1, tau=0.5, n_particles=1, steps=25)
        distances = coupled_contraction_run(q, init_a, init_b, params, seed=6)
        m_sq = contraction_factor(1.0, 1.0, 0.1) ** 2
        assert m_sq == pytest.approx(0.84)
        for k in range(25):
            ratio = distances[k + 1] / distances[k]
            assert ratio == pytest.approx(0.81, rel=1e-12)
            assert ratio <= m_sq

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("n", [1, 7, 600])
    def test_coupling_distance_bytes_match_flat_joint_vectors(self, n, d):
        # |z^A - z^B|^2 over z = (x^1..x^N, y^1..y^N), summed as one flat vector.
        rng = np.random.default_rng(10 * n + d)
        xs, ys = rng.normal(size=(2, 2, n, d))
        flat = [np.concatenate([xs[i].ravel(), ys[i].ravel()]) for i in (0, 1)]
        expected = float(np.sum((flat[0] - flat[1]) ** 2))
        got = coupling_distance_sq(ParticleState(xs=xs, ys=ys))
        assert got.hex() == expected.hex()

    # A lone (4, 2) cloud used to return the distance of its particles 0 and
    # 1, and a 3-system stack silently dropped system 2.
    @pytest.mark.parametrize("shape", [(4, 2), (1, 4, 2), (3, 4, 2), (2, 2, 4, 2)])
    def test_coupling_distance_rejects_a_state_that_is_not_a_pair(self, shape):
        xs = np.ones(shape)
        with pytest.raises(ValueError, match=r"\(2, N, d\).*" + re.escape(str(shape))):
            coupling_distance_sq(ParticleState(xs=xs, ys=xs))

    def test_rejects_uncertified_step_size(self):
        q = scalar_quadratic(c=0.0)  # alpha = L = 1
        init = ParticleState(xs=np.ones((1, 1)), ys=np.ones((1, 1)))
        params_bad = AlgorithmParams(eta=0.6, tau=1.0, n_particles=1, steps=1)
        with pytest.raises(ValueError, match="certified|stability"):
            coupled_contraction_run(q, init, init, params_bad, seed=0)


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("q,b_xy,eta,message", [
        # The state of test_divergent_drift_reports_step: the drift overflows.
        (scalar_quadratic(c=0.5), (1.5e308, 1.2e308), 0.01, "drift"),
        # A finite drift whose update overflows the state.
        (QuadraticBilinear(dim=1, A=[[0.1]], B=[[0.1]], C=[[0.5]]),
         (1.79e308, -1e308), 0.15, "state overflowed"),
    ], ids=["drift", "update"])
    def test_divergent_system_b_reports_step(self, q, b_xy, eta, message):
        init_a = ParticleState(xs=np.zeros((1, 1)), ys=np.zeros((1, 1)), step=17)
        init_b = ParticleState(
            xs=np.full((1, 1), b_xy[0]), ys=np.full((1, 1), b_xy[1]), step=17
        )
        params = AlgorithmParams(eta=eta, tau=0.0, n_particles=1, steps=1)
        with pytest.raises(DivergenceError, match=message) as err:
            coupled_contraction_run(q, init_a, init_b, params, seed=0)
        assert err.value.step == 17


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        state = ParticleState(
            xs=rng.normal(size=(4, 3)), ys=rng.normal(size=(4, 3)), step=12
        )
        path = tmp_path / "snap.csv"
        save_snapshot(path, state)
        loaded = load_snapshot(path)
        assert loaded.step == 12
        np.testing.assert_array_equal(loaded.xs, state.xs)
        np.testing.assert_array_equal(loaded.ys, state.ys)

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_a_text_file_newline_reads_as_a_newline(self, tmp_path, newline):
        rng = np.random.default_rng(22)
        state = ParticleState(xs=rng.normal(size=(3, 2)), ys=rng.normal(size=(3, 2)), step=4)
        path = tmp_path / "snap.csv"
        save_snapshot(path, state)
        path.write_bytes(path.read_bytes().replace(b"\n", newline))
        loaded = load_snapshot(path)
        assert loaded == state


def test_second_moment_stability_probe():
    result = check_second_moment_stability(seed=0)
    assert result.passed, result.detail


def test_write_ascii_refuses_a_non_ascii_character(tmp_path):
    path = tmp_path / "out.csv"
    dynamics.write_ascii(path, "1,2\n")
    assert path.read_bytes() == b"1,2\n"
    with pytest.raises(UnicodeEncodeError):
        dynamics.write_ascii(tmp_path / "bad.csv", "é\n")
