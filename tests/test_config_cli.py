import dataclasses
import json

import numpy as np
import pytest

from minmax_langevin import (
    AlgorithmParams,
    ConfigError,
    KeyedNoise,
    coupled_contraction_run,
    load_snapshot,
    parse_config,
    run_experiment,
    save_snapshot,
    serialize_config,
)
from minmax_langevin.cli import main
from minmax_langevin.dynamics import ParticleState
from minmax_langevin.experiment import csv_header, initial_state

MINIMAL = """
payoff.kind = QuadraticBilinear
payoff.dim = 1
payoff.A = [1.0]
payoff.B = [1.0]
payoff.C = [0.5]
tau = 1.0
seed = 7
algorithm.eta = 0.005
algorithm.n_particles = 8
algorithm.steps = 60
output.dir = {out}
"""


def minimal_config(tmp_path, **extra_lines):
    text = MINIMAL.format(out=tmp_path / "run")
    for key, value in extra_lines.items():
        text += f"{key.replace('__', '.')} = {value}\n"
    return text


def config_with(tmp_path, settings):
    """The minimal config with ``settings`` replacing or adding keys."""
    lines = [line for line in minimal_config(tmp_path).splitlines()
             if line.split("=", 1)[0].strip() not in settings]
    lines += [f"{key} = {value}" for key, value in settings.items()]
    return "\n".join(lines) + "\n"


# (key, nonfinite value, other keys that make the key meaningful)
NONFINITE_FIELDS = [
    ("tau", "inf", {}),
    ("algorithm.eta", "nan", {}),
    ("init.cov_scale", "inf", {}),
    ("init.mean", "[0.0, inf]", {"init.mean_mode": "explicit"}),
    ("coupled.mean", "[nan, 0.0]",
     {"coupled.mean_mode": "explicit", "coupled.cov_scale": "0.5"}),
    ("payoff.amplitude", "inf",
     {"payoff.kind": "PerturbedQuadratic", "payoff.frequency": "1.0"}),
    ("payoff.frequency", "nan",
     {"payoff.kind": "PerturbedQuadratic", "payoff.amplitude": "0.1"}),
    ("payoff.A", "[inf]", {}),
    ("payoff.B", "[-inf]", {}),
    ("payoff.C", "[nan]", {}),
    ("payoff.u", "[inf]", {}),
    ("payoff.v", "[nan]", {}),
]


# (key, value of the wrong type, other keys that make the key meaningful)
MISTYPED_FIELDS = [
    ("init.mean", "5", {"init.mean_mode": "explicit"}),
    ("init.mean", "abc", {"init.mean_mode": "explicit"}),
    ("init.cov_scale", "abc", {}),
    ("init.cov_scale", "[1.0]", {}),
    ("init.cov_scale", "true", {}),
    ("coupled.mean", "0.5", {"coupled.mean_mode": "explicit"}),
    ("payoff.dim", "true", {}),
    ("algorithm.n_particles", "true", {}),
    ("algorithm.steps", "true", {}),
    ("seed", "true", {}),
]


class TestParsing:
    def test_defaults_applied(self, tmp_path):
        cfg = parse_config(minimal_config(tmp_path))
        c = cfg.payoff.constants()
        assert cfg.init.cov_scale == pytest.approx(cfg.tau / c.smooth_L)
        assert cfg.checkpoint_every == max(1, 60 // 200)
        assert cfg.init.mean_mode == "warm_start"

    def test_tau_is_stored_once(self, tmp_path):
        cfg = parse_config(minimal_config(tmp_path))
        with pytest.raises(TypeError):
            dataclasses.replace(cfg, tau=0.25)
        hotter = dataclasses.replace(
            cfg, algorithm=dataclasses.replace(cfg.algorithm, tau=0.25)
        )
        assert hotter.tau == hotter.algorithm.tau == 0.25

    def test_strict_eta_rejection_names_regime(self, tmp_path):
        text = minimal_config(tmp_path, algorithm__strict_eta="true",
                              checkpoint_every=10)
        text = text.replace("algorithm.eta = 0.005", "algorithm.eta = 0.025")
        with pytest.raises(ConfigError, match=r"alpha/\(64 L\^2\)"):
            parse_config(text)

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(minimal_config(tmp_path) + "mystery.key = 1\n")

    def test_field_level_messages(self, tmp_path):
        bad = minimal_config(tmp_path).replace("payoff.B = [1.0]", "payoff.B = [-1.0]")
        with pytest.raises(ConfigError, match="positive definite"):
            parse_config(bad)

    def test_round_trip_equality(self, tmp_path):
        text = minimal_config(tmp_path, init__mean_mode="explicit",
                              init__mean="[0.25, -0.5]", init__cov_scale="0.3",
                              coupled__mean_mode="zero", coupled__cov_scale="0.3",
                              payoff__u="[0.1]", payoff__v="[-0.2]")
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_snapshot_init_round_trip(self, tmp_path):
        text = minimal_config(tmp_path, init__kind="snapshot",
                              init__snapshot="init.csv", init__cov_scale="0.5",
                              coupled__kind="snapshot", coupled__snapshot="b.csv")
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_perturbed_round_trip(self, tmp_path):
        text = minimal_config(tmp_path, payoff__amplitude="0.1",
                              payoff__frequency="2.0")
        text = text.replace("payoff.kind = QuadraticBilinear",
                            "payoff.kind = PerturbedQuadratic")
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_hash_in_a_value_starts_a_comment(self, tmp_path):
        cfg = parse_config(config_with(tmp_path, {"output.dir": "runs/#3"}))
        assert cfg.output_dir == "runs/"

    def test_zero_tau_requires_explicit_cov_scale(self, tmp_path):
        text = minimal_config(tmp_path).replace("tau = 1.0", "tau = 0.0")
        with pytest.raises(ConfigError, match="cov_scale"):
            parse_config(text)


class TestRunArtifacts:
    def test_csv_layout_and_row_count(self, tmp_path):
        for steps, every in [(60, 10), (7, 3), (5, 1)]:
            text = minimal_config(tmp_path, checkpoint_every=every)
            text = text.replace("algorithm.steps = 60", f"algorithm.steps = {steps}")
            bundle = run_experiment(parse_config(text))
            lines = bundle.csv_path.read_text().splitlines()
            assert lines[0] == csv_header(1)
            expected = 1 + steps // every + (1 if steps % every else 0)
            assert len(lines) - 1 == expected

    def test_seventeen_significant_digits(self, tmp_path):
        bundle = run_experiment(parse_config(minimal_config(tmp_path,
                                                            checkpoint_every=30)))
        row = bundle.csv_path.read_text().splitlines()[1].split(",")
        value = row[1]
        assert value == format(float(value), ".17g")

    def test_reproducible_bodies(self, tmp_path):
        cfg = parse_config(minimal_config(tmp_path, checkpoint_every=15))
        first = run_experiment(cfg).csv_path.read_bytes()
        second = run_experiment(cfg).csv_path.read_bytes()
        assert first == second

    def test_manifest_contents(self, tmp_path):
        bundle = run_experiment(parse_config(minimal_config(tmp_path,
                                                            checkpoint_every=30)))
        manifest = json.loads(bundle.manifest_path.read_text())
        assert manifest["seed"] == 7
        assert manifest["alpha"] == pytest.approx(1.0)
        assert manifest["smooth_L"] == pytest.approx(np.sqrt(1.25))
        assert manifest["regime_checks"]["stability_eta_lt_alpha_over_2L2"]
        assert manifest["variance_reading"] == "exact"
        assert "config" in manifest and "payoff.kind" in manifest["config"]
        assert manifest["drift_scheme"].startswith("mean-field")
        assert set(manifest["versions"]) >= {"numpy", "scipy", "python"}

    def test_envelope_columns_populated_for_quadratic(self, tmp_path):
        bundle = run_experiment(parse_config(minimal_config(tmp_path,
                                                            checkpoint_every=30)))
        rec = bundle.records[-1]
        assert rec.envelope_kl is not None and rec.envelope_kl >= rec.bias_bound

    def test_perturbed_runs_label_proxy_reference(self, tmp_path):
        text = minimal_config(tmp_path, payoff__amplitude="0.1",
                              payoff__frequency="1.0", checkpoint_every=30)
        text = text.replace("payoff.kind = QuadraticBilinear",
                            "payoff.kind = PerturbedQuadratic")
        bundle = run_experiment(parse_config(text))
        manifest = json.loads(bundle.manifest_path.read_text())
        assert manifest["equilibrium_reference"] == "gaussian_proxy"
        assert bundle.records[-1].envelope_kl is None

    def test_snapshot_outputs(self, tmp_path):
        text = minimal_config(tmp_path, checkpoint_every=30,
                              output__snapshots="all")
        bundle = run_experiment(parse_config(text))
        dumps = sorted(bundle.output_dir.glob("snapshot_*.csv"))
        assert [int(p.stem.split("_")[1]) for p in dumps] == [0, 30, 60]
        text = minimal_config(tmp_path, checkpoint_every=30,
                              output__snapshots="final")
        bundle = run_experiment(parse_config(text))
        final = bundle.output_dir / "final_state.csv"
        loaded = load_snapshot(final)
        assert loaded.step == 60
        np.testing.assert_array_equal(loaded.xs, bundle.final_state.xs)

    def test_snapshot_init(self, tmp_path):
        snap = tmp_path / "init.csv"
        state = ParticleState(xs=np.full((8, 1), 0.2), ys=np.full((8, 1), -0.1))
        save_snapshot(snap, state)
        text = minimal_config(tmp_path, init__kind="snapshot",
                              init__snapshot=str(snap), checkpoint_every=30)
        bundle = run_experiment(parse_config(text))
        assert bundle.records[0].avg_mean[0] == pytest.approx(0.2)


class TestCliCommands:
    def test_plan_fragment_reparses(self, tmp_path, capsys):
        out = tmp_path / "plan.cfg"
        code = main(["plan", "--alpha", "1", "--smooth-l", "1", "--tau", "1",
                     "--dim", "1", "--eps", "0.1", "--out", str(out)])
        assert code == 0
        cfg = parse_config(out.read_text())
        assert cfg.algorithm.eta == pytest.approx(1.3333333333333333e-05)
        assert cfg.algorithm.n_particles == 2700
        text = capsys.readouterr().out
        assert "662291" in text

    def test_plan_fragment_is_serialized_config(self, tmp_path):
        out = tmp_path / "plan.cfg"
        assert main(["plan", "--alpha", "0.5", "--smooth-l", "1.25", "--tau",
                     "0.3", "--dim", "2", "--eps", "0.05", "--seed", "3",
                     "--out", str(out)]) == 0
        fragment = out.read_text()
        assert fragment == serialize_config(parse_config(fragment))

    def test_plan_realizes_requested_constants(self, tmp_path):
        out = tmp_path / "plan.cfg"
        main(["plan", "--alpha", "0.5", "--smooth-l", "1.25", "--tau", "0.3",
              "--dim", "2", "--eps", "0.05", "--out", str(out)])
        cfg = parse_config(out.read_text())
        c = cfg.payoff.constants()
        assert c.alpha == pytest.approx(0.5, abs=1e-12)
        assert c.smooth_L == pytest.approx(1.25, abs=1e-9)

    def test_plan_rejects_large_eps(self, capsys):
        code = main(["plan", "--alpha", "1", "--smooth-l", "1", "--tau", "1",
                     "--dim", "1", "--eps", "1000"])
        assert code == 2
        assert "regime" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--alpha", "--smooth-l", "--tau", "--eps"])
    def test_plan_rejects_nonfinite_flag(self, flag, value, capsys):
        argv = {"--alpha": "1", "--smooth-l": "1", "--tau": "1", "--eps": "0.1"}
        argv[flag] = value
        code = main(["plan", "--dim", "1", *(t for kv in argv.items() for t in kv)])
        assert code == 2
        captured = capsys.readouterr()
        assert f"config error: {flag} must be a finite number" in captured.err
        assert captured.out == ""

    def test_run_and_reproducibility_via_cli(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(minimal_config(tmp_path, checkpoint_every=20))
        assert main(["run", "--config", str(cfg_path),
                     "--output-dir", str(tmp_path / "a")]) == 0
        assert main(["run", "--config", str(cfg_path),
                     "--output-dir", str(tmp_path / "b")]) == 0
        body_a = (tmp_path / "a" / "metrics.csv").read_bytes()
        body_b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert body_a == body_b

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("payoff.kind = Nonsense\n")
        assert main(["run", "--config", str(cfg_path)]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path):
        snap = tmp_path / "huge.csv"
        state = ParticleState(
            xs=np.full((8, 1), 1.5e308), ys=np.full((8, 1), 1.2e308)
        )
        save_snapshot(snap, state)
        cfg_path = tmp_path / "diverge.cfg"
        cfg_path.write_text(minimal_config(tmp_path, init__kind="snapshot",
                                           init__snapshot=str(snap)))
        assert main(["run", "--config", str(cfg_path)]) == 3

    def test_couple_adds_column_and_decays(self, tmp_path):
        n, d = 8, 1  # matches algorithm.n_particles in the minimal config
        offset = repr(float(1.0 / np.sqrt(2 * d * n)))
        text = minimal_config(
            tmp_path,
            checkpoint_every=10,
            init__mean_mode="explicit", init__mean="[0.0, 0.0]",
            init__cov_scale="0.5",
            coupled__mean_mode="explicit",
            coupled__mean=f"[{offset}, {offset}]",
            coupled__cov_scale="0.5",
        )
        text = text.replace("algorithm.eta = 0.005", "algorithm.eta = 0.0125")
        cfg_path = tmp_path / "couple.cfg"
        cfg_path.write_text(text)
        assert main(["couple", "--config", str(cfg_path),
                     "--output-dir", str(tmp_path / "c")]) == 0
        lines = (tmp_path / "c" / "metrics.csv").read_text().splitlines()
        header = lines[0].split(",")
        idx = header.index("coupling_dist_sq")
        first = float(lines[1].split(",")[idx])
        last = float(lines[-1].split(",")[idx])
        assert first == pytest.approx(1.0)
        assert last < first

    def test_couple_system_a_matches_plain_run(self, tmp_path):
        # The coupled run steps A and B stacked; A's columns and final state
        # must be the bytes of the plain run, and the distance column the
        # coupled_contraction_run trajectory at each checkpoint.
        plain_text = minimal_config(tmp_path, checkpoint_every=7,
                                    output__snapshots="final")
        couple_text = plain_text + (
            "coupled.mean_mode = explicit\n"
            "coupled.mean = [0.75, -0.25]\n"
            "coupled.cov_scale = 0.5\n"
        )
        plain = run_experiment(parse_config(plain_text), tmp_path / "plain")
        config = parse_config(couple_text)
        coupled = run_experiment(config, tmp_path / "couple")
        idx = csv_header(1).split(",").index("coupling_dist_sq")
        plain_rows = plain.csv_path.read_text().splitlines()
        couple_rows = coupled.csv_path.read_text().splitlines()
        assert len(plain_rows) == len(couple_rows)
        for plain_row, couple_row in zip(plain_rows, couple_rows):
            plain_cells, couple_cells = plain_row.split(","), couple_row.split(",")
            del plain_cells[idx], couple_cells[idx]
            assert plain_cells == couple_cells
        assert ((tmp_path / "couple" / "final_state.csv").read_bytes()
                == (tmp_path / "plain" / "final_state.csv").read_bytes())

        noise = KeyedNoise(config.seed)
        init_a, _ = initial_state(config, config.init, noise)
        init_b, _ = initial_state(config, config.coupled, noise)
        distances = coupled_contraction_run(
            config.payoff, init_a, init_b, config.algorithm, config.seed
        )
        steps = [record.step for record in coupled.records]
        assert steps == [0, 7, 14, 21, 28, 35, 42, 49, 56, 60]
        for record, row in zip(coupled.records, couple_rows[1:]):
            assert record.coupling_dist_sq == distances[record.step]
            assert float(row.split(",")[idx]) == distances[record.step]

    @pytest.mark.parametrize("key,value,context", NONFINITE_FIELDS,
                             ids=[field[0] for field in NONFINITE_FIELDS])
    def test_nonfinite_number_is_config_error(self, tmp_path, capsys, key, value,
                                              context):
        cfg_path = tmp_path / "nonfinite.cfg"
        cfg_path.write_text(config_with(tmp_path, {**context, key: value}))
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert key in err and "finite" in err

    @pytest.mark.parametrize("key,value,context", MISTYPED_FIELDS,
                             ids=[f"{f[0]}={f[1]}" for f in MISTYPED_FIELDS])
    def test_mistyped_value_is_config_error(self, tmp_path, capsys, key, value,
                                            context):
        cfg_path = tmp_path / "mistyped.cfg"
        cfg_path.write_text(config_with(tmp_path, {**context, key: value}))
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    def test_moments_metric_is_unknown(self, tmp_path, capsys):
        cfg_path = tmp_path / "moments.cfg"
        cfg_path.write_text(minimal_config(tmp_path, metrics="moments,kl"))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_missing_snapshot_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "nosnap.cfg"
        cfg_path.write_text(minimal_config(
            tmp_path, init__kind="snapshot", init__snapshot=tmp_path / "absent.csv"
        ))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "init.snapshot" in capsys.readouterr().err

    def test_output_dir_under_a_file_is_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "regular_file"
        blocker.write_text("not a directory\n")
        cfg_path = tmp_path / "outdir.cfg"
        cfg_path.write_text(config_with(tmp_path, {"output.dir": blocker / "run"}))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "output.dir" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        "8,1\n" + "0.0\n" * 16,
        "8,1,zero\n" + "0.0\n" * 16,
        "8,1,0\n" + "0.0\n" * 15 + "abc\n",
        "8,1,0\n" + "0.0\n" * 15,
        "8,1,0\n" + "0.0\n" * 15 + "nan\n",
        "4,1,0\n" + "0.0\n" * 8,
        "8,1,0\n",
    ], ids=["short-header", "bad-step", "non-numeric", "missing-row",
            "nonfinite", "wrong-particle-count", "header-only"])
    def test_malformed_snapshot_is_config_error(self, tmp_path, capsys, body):
        snap = tmp_path / "bad_snapshot.csv"
        snap.write_text(body)
        cfg_path = tmp_path / "badsnap.cfg"
        cfg_path.write_text(minimal_config(
            tmp_path, init__kind="snapshot", init__snapshot=snap
        ))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "init.snapshot" in capsys.readouterr().err

    def test_coupled_snapshot_error_names_coupled_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "coupledsnap.cfg"
        cfg_path.write_text(minimal_config(
            tmp_path, coupled__kind="snapshot",
            coupled__snapshot=tmp_path / "absent.csv",
        ))
        assert main(["couple", "--config", str(cfg_path)]) == 2
        assert "coupled.snapshot" in capsys.readouterr().err

    def test_couple_requires_coupled_section(self, tmp_path):
        cfg_path = tmp_path / "nc.cfg"
        cfg_path.write_text(minimal_config(tmp_path))
        assert main(["couple", "--config", str(cfg_path)]) == 2

    def test_gradcheck_passes(self):
        assert main(["gradcheck", "--points", "20"]) == 0

    def test_check_command_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_equilibrium_prints_gaussians(self, tmp_path, capsys):
        cfg_path = tmp_path / "eq.cfg"
        cfg_path.write_text(minimal_config(tmp_path))
        assert main(["equilibrium", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "nu_X" in out and "nu_Y" in out


class TestCliEdgePaths:
    @pytest.mark.parametrize("alpha, smooth_l", [("1", "1e100"), ("1e-100", "1")])
    def test_plan_on_extreme_finite_flags_is_config_error(self, alpha, smooth_l,
                                                          capsys):
        code = main(["plan", "--alpha", alpha, "--smooth-l", smooth_l, "--tau",
                     "1", "--dim", "1", "--eps", "0.1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert f"--alpha {float(alpha)}" in captured.err
        assert f"--smooth-l {float(smooth_l)}" in captured.err
        assert "floating-point range" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("points", ["0", "-5"])
    def test_gradcheck_rejects_nonpositive_points(self, points, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gradcheck", "--points", points])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "--points: must be a positive integer" in captured.err
        assert captured.out == ""

    def test_plan_with_unrunnable_counts_is_config_error(self, capsys):
        code = main(["plan", "--alpha", "1", "--smooth-l", "1", "--tau", "1",
                     "--dim", "1", "--eps", "1e-300"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: n_particles must be between 1 "
                                       "and 9223372036854775807")
        assert captured.out == ""

    def test_run_with_unrunnable_particle_count_is_config_error(self, tmp_path,
                                                                capsys):
        cfg_path = tmp_path / "huge.cfg"
        cfg_path.write_text(config_with(tmp_path, {"algorithm.n_particles": str(10**20)}))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: algorithm: n_particles must be between"
        )
        assert not (tmp_path / "run").exists()

    def test_algorithm_counts_stop_at_int64_max(self):
        top = int(np.iinfo(np.int64).max)
        AlgorithmParams(eta=0.01, tau=1.0, n_particles=top, steps=top)
        with pytest.raises(ValueError, match="n_particles must be between"):
            AlgorithmParams(eta=0.01, tau=1.0, n_particles=top + 1, steps=1)
        with pytest.raises(ValueError, match="steps must be between"):
            AlgorithmParams(eta=0.01, tau=1.0, n_particles=1, steps=top + 1)

    def test_coupled_value_is_quoted_as_written(self, tmp_path):
        text = minimal_config(tmp_path, coupled__mean_mode="init.zero")
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        message = str(info.value)
        assert message.startswith("coupled.mean_mode must be")
        assert "got 'init.zero'" in message

    def test_couple_decay_violation_exits_4(self, tmp_path, capsys, monkeypatch):
        # A contraction factor far below the true one puts the certified cap
        # under the measured coupling distance at the first step.
        monkeypatch.setattr("minmax_langevin.cli.contraction_factor",
                            lambda alpha, smooth_l, eta: 0.5)
        cfg_path = tmp_path / "couple.cfg"
        cfg_path.write_text(minimal_config(
            tmp_path, checkpoint_every=10,
            init__mean_mode="explicit", init__mean="[0.0, 0.0]",
            coupled__mean_mode="explicit", coupled__mean="[0.25, 0.25]",
        ))
        assert main(["couple", "--config", str(cfg_path),
                     "--output-dir", str(tmp_path / "c")]) == 4
        assert "coupling decay violated at step 10" in capsys.readouterr().err

    def test_check_failure_exits_4(self, capsys, monkeypatch):
        from minmax_langevin.checks import CheckResult
        results = [CheckResult("ok", True, "fine"),
                   CheckResult("broken", False, "worst 2 > 1")]
        monkeypatch.setattr("minmax_langevin.cli.run_all_checks",
                            lambda seed: results)
        assert main(["check", "--seed", "5"]) == 4
        captured = capsys.readouterr()
        assert "[PASS] ok: fine" in captured.out
        assert "[FAIL] broken: worst 2 > 1" in captured.out
        assert "1 property check(s) failed" in captured.err

    def test_equilibrium_on_perturbed_payoff(self, tmp_path, capsys):
        text = minimal_config(tmp_path, payoff__amplitude="0.1",
                              payoff__frequency="1.0")
        text = text.replace("payoff.kind = QuadraticBilinear",
                            "payoff.kind = PerturbedQuadratic")
        cfg_path = tmp_path / "pert.cfg"
        cfg_path.write_text(text)
        assert main(["equilibrium", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "z* (x*):" in out and "z* (y*):" in out
        assert "no closed-form equilibrium distribution" in out
        assert "nu_X" not in out
