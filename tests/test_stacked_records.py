"""Checkpoint records scored in stacked chunks.

A run captures one Gaussian fit per checkpoint and scores the captures in
chunks: one stacked ``GaussianDist`` and one KL, W2 and gap call per chunk.
Every stacked value must be the bits of its row's own unstacked call, the
chunk size must not show in any output byte, and an overflow must name the
checkpoint it happened at.
"""

import json

import numpy as np
import pytest

from minmax_langevin import (
    GaussianDist,
    JointPoint,
    PerturbedQuadratic,
    QuadraticBilinear,
    duality_gap_bound,
    gaussian_kl,
    gaussian_w2,
    joint_equilibrium,
    parse_config,
    run_experiment,
)
from minmax_langevin import experiment
from minmax_langevin.cli import main
from minmax_langevin.deterministic import grad_norm
from minmax_langevin.dynamics import DivergenceError


def dense_quadratic(rng, d):
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


def stacked_laws(rng, m, k=40):
    """k dense Gaussians on R^m; rows 3 and 17 rank one, row 29 zero."""
    raw = rng.normal(size=(k, m, m))
    covs = raw @ np.swapaxes(raw, 1, 2) / m + 0.05 * np.eye(m)
    vec = rng.normal(size=m)
    covs[3] = np.outer(vec, vec)
    covs[17] = 1e3 * np.outer(vec, vec)
    covs[29] = 0.0
    return GaussianDist(mean=3.0 * rng.normal(size=(k, m)), cov=covs)


class TestStackedForms:
    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_kl_and_w2_rows_are_their_own_calls(self, d):
        rng = np.random.default_rng(40 + d)
        reference = joint_equilibrium(dense_quadratic(rng, d), 0.7)
        stack = stacked_laws(rng, 2 * d)
        rows = [GaussianDist(mean=mean, cov=cov) for mean, cov in zip(stack.mean, stack.cov)]
        degenerate = [row.degenerate for row in rows]
        assert stack.degenerate.tolist() == degenerate
        if d > 1:  # a rank-one 2x2 covariance may round above the clip
            assert degenerate[3] and degenerate[17]
        assert degenerate[29] and degenerate.count(True) <= 3
        assert np.array_equal(stack.logdet, [row.logdet for row in rows])
        kl = gaussian_kl(stack, reference)
        w2 = gaussian_w2(stack, reference)
        assert np.array_equal(kl, [gaussian_kl(row, reference) for row in rows])
        assert np.array_equal(w2, [gaussian_w2(row, reference) for row in rows])
        assert np.isinf(kl[29]) and np.isfinite(w2).all()
        assert type(gaussian_kl(rows[0], reference)) is float
        assert type(gaussian_w2(rows[0], reference)) is float
        assert type(rows[0].degenerate) is bool and type(rows[0].logdet) is float

    @pytest.mark.parametrize("d", [1, 2, 8])
    @pytest.mark.parametrize("family", ["quadratic", "perturbed"])
    def test_gap_rows_are_their_own_calls(self, d, family):
        rng = np.random.default_rng(70 + d)
        spec = dense_quadratic(rng, d)
        if family == "perturbed":
            spec = PerturbedQuadratic(base=spec, amplitude=0.02, frequency=1.5)
        points = 10.0 * rng.normal(size=(400, 2 * d))
        stacked = JointPoint(x=points[:, :d], y=points[:, d:])
        single = [JointPoint(x=p[:d], y=p[d:]) for p in points]
        assert np.array_equal(grad_norm(spec, stacked), [grad_norm(spec, z) for z in single])
        gaps = duality_gap_bound(spec, stacked)
        assert gaps.shape == (400,)
        assert np.array_equal(gaps, [duality_gap_bound(spec, z) for z in single])
        assert type(duality_gap_bound(spec, single[0])) is float

    def test_psd_tolerance_is_relative_to_the_largest_eigenvalue(self):
        # Rounding of a rank-deficient covariance at scale 1e6 can leave an
        # eigenvalue near -1e-10; a sign error at scale 1 is still one.
        at_scale = GaussianDist(mean=np.zeros(2), cov=np.diag([1e6, -1e-5]))
        assert at_scale.degenerate
        for cov in (np.diag([1.0, -1e-5]), -np.eye(2), -1e6 * np.eye(2)):
            with pytest.raises(ValueError, match="^cov must be positive semidefinite$"):
                GaussianDist(mean=np.zeros(2), cov=cov)


COUPLED_DENSE = """\
payoff.kind = QuadraticBilinear
payoff.dim = 2
payoff.A = [1.0, 0.2, 0.2, 0.8]
payoff.B = [0.9, -0.1, -0.1, 1.1]
payoff.C = [0.3, -0.2, 0.1, 0.4]
tau = 0.5
seed = 8
checkpoint_every = 1
algorithm.eta = 0.005
algorithm.n_particles = {n}
algorithm.steps = {steps}
init.mean_mode = zero
"""

COUPLING = """\
coupled.mean_mode = explicit
coupled.mean = [1.0, -1.0, 0.5, 0.5]
"""


class TestChunkedRun:
    def test_the_chunk_size_leaves_every_byte(self, tmp_path, monkeypatch):
        config = parse_config(COUPLED_DENSE.format(n=8, steps=300) + COUPLING)
        outputs = []
        for chunk in (experiment._SCORE_CHUNK, 1, 7):
            monkeypatch.setattr(experiment, "_SCORE_CHUNK", chunk)
            bundle = run_experiment(config, tmp_path / f"chunk{chunk}")
            outputs.append(bundle.csv_path.read_bytes())
        assert len(bundle.records) == 301 > experiment._SCORE_CHUNK
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_scoring_calls_once_per_chunk_and_fits_once_per_checkpoint(
            self, tmp_path, monkeypatch):
        calls = {"fit": 0, "kl": 0, "w2": 0, "gap": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name, attr in (("fit", "fit_gaussian"), ("kl", "gaussian_kl"),
                           ("w2", "gaussian_w2"), ("gap", "duality_gap_bound")):
            monkeypatch.setattr(experiment, attr, counted(name, getattr(experiment, attr)))
        monkeypatch.setattr(experiment, "_SCORE_CHUNK", 100)
        # 301 checkpoints: chunks of 100, 100, 100 and 1.  The envelope's
        # initial KL and W2 are one call each.
        run_experiment(parse_config(COUPLED_DENSE.format(n=8, steps=300)), tmp_path)
        assert calls == {"fit": 301, "kl": 5, "w2": 5, "gap": 4}

    def test_manifest_times_the_phases(self, tmp_path):
        config = parse_config(COUPLED_DENSE.format(n=8, steps=20))
        bundle = run_experiment(config, tmp_path)
        timings = json.loads(bundle.manifest_path.read_text())["timings"]
        assert list(timings) == ["setup_s", "loop_s", "score_s", "write_s", "steps_per_s"]
        assert all(value >= 0.0 for value in timings.values())
        assert timings["steps_per_s"] == pytest.approx(20 / timings["loop_s"])


# Noise at tau = 8e154 grows the fit's covariance about linearly in the step,
# until tau times it, the W2 cross term, overflows: first at step 2, the third
# row of the one chunk, while the fits themselves stay finite.
OVERFLOW_AT_STEP_2 = """\
payoff.kind = QuadraticBilinear
payoff.dim = 1
payoff.A = [1.0]
payoff.B = [1.0]
payoff.C = [0.5]
tau = 8e154
seed = 8
checkpoint_every = 1
algorithm.eta = 0.01
algorithm.n_particles = 512
algorithm.steps = 6
init.mean_mode = zero
init.cov_scale = 0.01
"""


class TestScoringOverflow:
    @pytest.mark.parametrize("chunk", [256, 1])
    def test_the_overflowing_row_names_its_step(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(experiment, "_SCORE_CHUNK", chunk)
        with pytest.raises(DivergenceError, match="^step 2: checkpoint statistics overflowed$"):
            run_experiment(parse_config(OVERFLOW_AT_STEP_2), tmp_path)

    def test_a_later_divergence_in_the_loop_names_the_earlier_step(self, tmp_path):
        # At tau = 1e306 the W2 cross term overflows from step 1, and the fit
        # itself at step 20, inside the loop, while step 1 is still buffered.
        text = OVERFLOW_AT_STEP_2.replace("tau = 8e154", "tau = 1e306").replace(
            "algorithm.steps = 6", "algorithm.steps = 40")
        with pytest.raises(DivergenceError, match="^step 1: checkpoint statistics overflowed$"):
            run_experiment(parse_config(text), tmp_path)

    def test_the_cli_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(OVERFLOW_AT_STEP_2)
        assert main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "o")]) == 3
        assert "divergence: step 2: checkpoint statistics overflowed" in capsys.readouterr().err


class TestRankDeficientFitAtScale:
    # Three particles in R^4 fit a rank-2 covariance; at init.cov_scale = 1e6
    # its zero eigenvalues round to about -1e-10, which the PSD test once
    # read as a sign error (ValueError, exit 1).
    @pytest.mark.parametrize("command, n, extra", [
        ("run", 3, ""), ("couple", 2, COUPLING)], ids=["run", "couple"])
    def test_runs_to_the_end(self, tmp_path, command, n, extra):
        text = COUPLED_DENSE.format(n=n, steps=250) + "init.cov_scale = 1e6\n" + extra
        cfg = tmp_path / "scale.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--output-dir", str(out)]) == 0
        rows = (out / "metrics.csv").read_text().splitlines()
        assert len(rows) == 252
