"""The checkpoint record path keeps its bits while doing less per record.

Each rewritten piece is compared, over seeded grids at d = 1, 2 and 8,
with the form it replaced: the coupling distance with ``np.sum`` of the
stacked squared differences, the envelope over a list of steps with its
scalar calls, and the CSV and snapshot writers with one ``format(float(v),
".17g")`` per value; the overflow rule, now a class, keeps its errors and
restores numpy's error state.  The run-level tests pin what a record costs and keeps:
one envelope call per scored chunk, no particle array in a capture, and the
manifest's ``capture_s``.
"""

import json
import math

import numpy as np
import pytest

from minmax_langevin import GaussianDist, gaussian_kl, gaussian_w2, parse_config, run_experiment
from minmax_langevin import cli, experiment
from minmax_langevin.config import ConfigError
from minmax_langevin.dynamics import ParticleState, coupling_distance_sq, save_snapshot
from minmax_langevin.metrics import MetricsRecord
from minmax_langevin.oracle import transient_kl_envelope

DIMS = [1, 2, 8]

# Finite values whose .17g strings are the edge cases: a signed zero, the
# smallest subnormal and the largest magnitudes short of overflow.
EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]


def wide(rng, shape):
    """Normal draws scaled by e^u, u uniform on [-24, 24]: wide magnitudes."""
    return rng.normal(size=shape) * np.exp(rng.uniform(-24.0, 24.0, size=shape))


class TestCouplingDistance:
    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("n", [1, 3, 64, 512])
    def test_bits_of_the_stacked_sum(self, n, d):
        rng = np.random.default_rng(1000 * n + d)
        for _ in range(20):
            xs, ys = wide(rng, (2, 2, n, d))
            expected = float(np.sum(np.stack([xs[0] - xs[1], ys[0] - ys[1]]) ** 2))
            got = coupling_distance_sq(ParticleState(xs=xs, ys=ys))
            assert got.hex() == expected.hex()


class TestEnvelopeOverSteps:
    STEPS = [0, 1, 2, 7, 250, 4096, 10**6]

    @pytest.mark.parametrize("d", DIMS)
    def test_entries_are_the_scalar_calls(self, d):
        # kl0 and w20 of a d-dimensional init law against an equilibrium-like law.
        rng = np.random.default_rng(d)
        raw = rng.normal(size=(d, d))
        init = GaussianDist.isotropic(rng.normal(size=d), float(rng.uniform(0.1, 3.0)))
        reference = GaussianDist(mean=rng.normal(size=d), cov=raw @ raw.T + 0.5 * np.eye(d))
        kl0, w20 = float(gaussian_kl(init, reference)), float(gaussian_w2(init, reference))
        for alpha, smooth_l, tau, eta, bias, n in [(0.3, 1.7, 0.5, 0.005, 0.01, 1),
                                                   (1.0, 1.0, 2.0, 1e-3, 0.0, 512)]:
            args = (kl0, w20, alpha, smooth_l, tau, eta)
            got = transient_kl_envelope(*args, self.STEPS, bias, n)
            expected = [transient_kl_envelope(*args, k, bias, n) for k in self.STEPS]
            assert [v.hex() for v in got] == [v.hex() for v in expected]

    def test_a_tuple_range_and_empty_sequence(self):
        args = (3.0, 2.0, 1.0, 1.0, 1.0, 0.1)
        assert transient_kl_envelope(*args, range(3), 0.0, 4) == [
            transient_kl_envelope(*args, k, 0.0, 4) for k in range(3)]
        assert transient_kl_envelope(*args, (5,), 0.0, 4) == [
            transient_kl_envelope(*args, 5, 0.0, 4)]
        assert transient_kl_envelope(*args, [], 0.0, 4) == []

    @pytest.mark.parametrize("steps", [[0, 5, -1], [3, math.nan, 4], [math.nan]])
    def test_a_negative_or_nan_step_raises(self, steps):
        with pytest.raises(ValueError, match="^k must be nonnegative$"):
            transient_kl_envelope(3.0, 2.0, 1.0, 1.0, 1.0, 0.1, steps, 0.0, 4)


class TestOverflowRule:
    @pytest.mark.parametrize("statistic, named", [
        (lambda: np.array([1e308]) * 10.0, True),  # numpy overflow
        (lambda: np.sqrt(np.array([-1.0])), True),  # numpy invalid operation
        (lambda: 1.0 / 0.0, True),  # Python-float ZeroDivisionError
        (lambda: math.exp(1e3), True),  # Python-float OverflowError
        (lambda: experiment._finite(math.inf), True),
        (lambda: int("x"), False),  # not arithmetic: passes through
    ])
    def test_raises_the_named_error_and_restores_numpy_state(self, statistic, named):
        before = np.geterr()
        error = ConfigError("named")
        with pytest.raises(ValueError) as info:
            with experiment._overflow_raises(error):
                statistic()
        assert (info.value is error) == named
        assert np.geterr() == before

    def test_a_finite_statistic_passes(self):
        before = np.geterr()
        with experiment._overflow_raises(ConfigError("named")):
            assert np.array([1.0]) * 2.0 == 2.0
        assert np.geterr() == before


def cell(value):
    return "" if value is None else format(float(value), ".17g")


def per_value_row(record):
    """The metrics.csv line with one format(float(v), ".17g") per value."""
    cells = [str(record.step), *(cell(v) for v in record.avg_mean)]
    cells += [cell(getattr(record, name)) for name in experiment._SCALAR_COLUMNS]
    return ",".join(cells)


class TestCsvRow:
    @pytest.mark.parametrize("d", DIMS)
    def test_bytes_of_the_per_value_writer(self, d):
        rng = np.random.default_rng(20 + d)
        specials = [None, *EDGE_VALUES, math.inf]
        for step in range(40):
            scalars = wide(rng, 7).tolist()
            for i in rng.choice(7, size=3, replace=False):
                scalars[i] = specials[rng.integers(len(specials))]
            for i in (1, 2):  # KL and W2 must be nonnegative
                scalars[i] = None if scalars[i] is None else abs(scalars[i])
            avg_mean = wide(rng, 2 * d)
            avg_mean[rng.integers(2 * d)] = EDGE_VALUES[step % len(EDGE_VALUES)]
            record = MetricsRecord(step, 0.0, avg_mean, *scalars)
            assert experiment._csv_row(record) == per_value_row(record)

    def test_none_cells_are_empty(self):
        record = MetricsRecord(3, 0.0, np.array([-0.0, 5e-324]), 0.0)
        assert experiment._csv_row(record) == "3,-0,4.9406564584124654e-324,0,,,,,,"


def per_value_snapshot(path, state):
    """The snapshot writer with one format(v, ".17g") per value."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{state.n_particles},{state.dim},{state.step}\n")
        for row in np.vstack([state.xs, state.ys]):
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


class TestSnapshotBytes:
    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_bytes_of_the_per_value_writer(self, tmp_path, n, d):
        rng = np.random.default_rng(100 * n + d)
        xs, ys = wide(rng, (2, n, d))
        edges = np.resize(EDGE_VALUES, min(xs.size, len(EDGE_VALUES)))
        xs.flat[:edges.size] = edges
        state = ParticleState(xs=xs, ys=ys, step=17)
        save_snapshot(tmp_path / "new.csv", state)
        per_value_snapshot(tmp_path / "old.csv", state)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


COUPLED = """\
payoff.kind = QuadraticBilinear
payoff.dim = 2
payoff.A = [1.0, 0.2, 0.2, 0.8]
payoff.B = [0.9, -0.1, -0.1, 1.1]
payoff.C = [0.3, -0.2, 0.1, 0.4]
tau = 0.5
seed = 8
checkpoint_every = 1
algorithm.eta = 0.005
algorithm.n_particles = 8
algorithm.steps = {steps}
init.mean_mode = zero
coupled.mean_mode = explicit
coupled.mean = [1.0, -1.0, 0.5, 0.5]
"""


class TestRecordPath:
    def test_one_envelope_call_per_chunk(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[6])
            return transient_kl_envelope(*args)

        monkeypatch.setattr(experiment, "transient_kl_envelope", counted)
        monkeypatch.setattr(experiment, "_SCORE_CHUNK", 100)
        run_experiment(parse_config(COUPLED.format(steps=300)), tmp_path)
        # The check of step 0 before the first step, then chunks of 100, 100, 100, 1.
        assert calls == [0, list(range(100)), list(range(100, 200)),
                         list(range(200, 300)), [300]]

    def test_captures_hold_no_particle_arrays(self, tmp_path, monkeypatch):
        captures, capture = [], experiment._Capture

        def kept(*fields):
            captures.append(capture(*fields))
            return captures[-1]

        monkeypatch.setattr(experiment, "_Capture", kept)
        run_experiment(parse_config(COUPLED.format(steps=20)), tmp_path)
        assert len(captures) == 21
        for c in captures:
            assert c.avg_mean.shape == (4,) and c.cov.shape == (4, 4)
            assert c.avg_mean.base is None and c.cov.base is None  # no view of a cloud
            assert isinstance(c.distance, float)

    @pytest.mark.parametrize("coupled", [False, True])
    def test_manifest_times_the_captures(self, tmp_path, coupled):
        text = COUPLED.format(steps=50)
        if not coupled:
            text = text.split("coupled.")[0]
        bundle = run_experiment(parse_config(text), tmp_path)
        timings = json.loads(bundle.manifest_path.read_text())["timings"]
        assert 0.0 <= timings["capture_s"] <= timings["loop_s"]


class TestCoupleVerdict:
    def test_a_nan_distance_fails_the_decay_check(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "couple.cfg"
        cfg.write_text(COUPLED.format(steps=2))
        records = [MetricsRecord(k, 0.0, np.zeros(4), 0.0, coupling_dist_sq=dist)
                   for k, dist in enumerate([1.0, math.nan, 0.5])]

        class Bundle:
            csv_path = tmp_path / "metrics.csv"

        Bundle.records = records
        monkeypatch.setattr(cli, "run_experiment", lambda config, output_dir=None: Bundle)
        assert cli.main(["couple", "--config", str(cfg)]) == cli.EXIT_PROPERTY
        assert "coupling decay violated at step 1: nan" in capsys.readouterr().err
