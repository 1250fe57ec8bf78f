"""The property suites fail on NaN samples, and every suite ends in a verdict.

A suite that folded its samples with Python ``max``/``min`` would skip a NaN
and report PASS; these tests pin the numpy reduction that makes it FAIL.
"""

import collections
import inspect
import math

import numpy as np
import pytest

from minmax_langevin import (ParticleState, QuadraticBilinear, check_gradient_fd, checks,
                             cli, dynamics, solve_equilibrium)

QUAD, PERT = checks.default_specs()


@pytest.fixture
def nan_grad_y(monkeypatch):
    """Make grad_y return NaN for both families (the perturbed one wraps it)."""

    def grad_y(self, x, y):
        return np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), np.nan)

    monkeypatch.setattr(QuadraticBilinear, "grad_y", grad_y)


@pytest.fixture
def nan_grad_y_off_origin(monkeypatch):
    """grad_y NaN wherever x or y is nonzero: z* = 0 of QUAD still solves."""
    exact = QuadraticBilinear.grad_y

    def grad_y(self, x, y):
        off = np.any((np.asarray(x) != 0) | (np.asarray(y) != 0), axis=-1, keepdims=True)
        return np.where(off, np.nan, exact(self, x, y))

    monkeypatch.setattr(QuadraticBilinear, "grad_y", grad_y)


@pytest.mark.parametrize("spec", [QUAD, PERT], ids=["quadratic", "perturbed"])
@pytest.mark.parametrize("check, kwargs", [
    (checks.check_gradients, {"tol": 1e-6}),
    (checks.check_monotonicity, {}),
    (checks.check_lipschitz, {}),
    (checks.check_contraction, {}),
    (checks.check_permutation_equivariance, {}),
], ids=["gradient_fd", "monotonicity", "lipschitz", "contraction", "permutation"])
def test_nan_gradient_fails_the_probe(nan_grad_y, spec, check, kwargs):
    result = check(spec, **kwargs)
    assert not result.passed
    assert "nan" in result.detail


@pytest.mark.parametrize("chunk", [999, 7])
@pytest.mark.parametrize("spec", [QUAD, PERT], ids=["quadratic", "perturbed"])
@pytest.mark.parametrize("check", [checks.check_lipschitz, checks.check_contraction],
                         ids=["lipschitz", "contraction"])
def test_pair_sweep_details_do_not_depend_on_the_chunk(monkeypatch, check, spec, chunk):
    # A pair is a function of (seed, tag, pair index) alone, so any chunk
    # size probes the same pairs; a wrong chunk offset would move them.
    default = check(spec, seed=3).detail
    monkeypatch.setattr(checks, "_PROBE_CHUNK", chunk)
    assert check(spec, seed=3).detail == default


def test_gradient_fd_of_a_nan_gradient_is_nan(nan_grad_y):
    assert math.isnan(check_gradient_fd(QUAD, np.zeros(2), np.ones(2)))


@pytest.mark.parametrize("name", ["gaussian_kl", "gaussian_w2"])
def test_nan_divergence_fails_talagrand_and_log_sobolev(monkeypatch, name):
    monkeypatch.setattr(checks, name, lambda p, q: math.nan)
    result = checks.check_functional_inequalities()
    assert result.name == "talagrand_and_log_sobolev"
    assert not result.passed


def test_nan_w2_fails_the_triangle_inequality(monkeypatch):
    monkeypatch.setattr(checks, "gaussian_w2", lambda p, q: math.nan)
    result = checks.check_w2_triangle()
    assert result.name == "gaussian_w2_triangle"
    assert not result.passed


def test_each_suite_makes_one_call_per_law_function(monkeypatch):
    calls = collections.Counter()
    for name in ("gaussian_kl", "gaussian_w2", "gaussian_relative_fi"):
        def counted(p, q, name=name, law=getattr(checks, name)):
            calls[name] += 1
            return law(p, q)
        monkeypatch.setattr(checks, name, counted)
    assert checks.check_functional_inequalities(seed=3).passed
    assert calls == {"gaussian_kl": 1, "gaussian_w2": 1, "gaussian_relative_fi": 1}
    calls.clear()
    assert checks.check_w2_triangle(seed=3).passed
    assert calls == {"gaussian_w2": 3}


@pytest.mark.parametrize("count", [0, -5])
@pytest.mark.parametrize("call, name", [
    (lambda n: checks.check_gradients(QUAD, tol=1e-8, points=n), "points"),
], ids=["gradients"])
def test_fewer_than_one_sample_is_rejected(call, name, count):
    with pytest.raises(ValueError, match=f"{name} must be at least 1"):
        call(count)


def test_nan_gradient_fails_the_gd_envelope(nan_grad_y_off_origin):
    # A NaN iterate fails the audit's comparison and names its step, so the
    # suite reports FAIL instead of raising out of `check`.
    result = checks.check_gd_envelope(QUAD, seed=8)
    assert not result.passed
    assert result.detail == "step 1: distance^2 nan exceeds envelope 4.571382e+00"
    assert "nan" in checks.check_gd_envelope(QUAD).detail


def test_a_diverged_run_fails_the_second_moment_suite(nan_grad_y_off_origin):
    # z* = 0 solves, and the run's first drift away from it is NaN.
    result = checks.check_second_moment_stability(seed=8)
    assert not result.passed
    assert result.detail == "step 0: drift is nonfinite"


def test_a_nan_residual_fails_the_quadratic_solve(nan_grad_y):
    with pytest.raises(RuntimeError, match="nan"):
        solve_equilibrium(QUAD)


@pytest.mark.parametrize("suite, tol", [
    (lambda: checks.check_equilibrium_drift(QUAD), "1e-12"),
    (lambda: checks.check_equilibrium_drift(PERT), "1e-12"),
    (lambda: checks.check_gd_envelope(QUAD, seed=8), "1e-10"),
    (lambda: checks.check_gd_envelope(PERT, seed=8), "1e-10"),
    (lambda: checks.check_functional_inequalities(seed=8), "1e-10"),
    (lambda: checks.check_second_moment_stability(seed=8), "1e-10"),
], ids=["equilibrium-quadratic", "equilibrium-perturbed", "gd-quadratic",
        "gd-perturbed", "functional", "second-moment"])
def test_a_failed_solve_of_z_star_is_the_suites_fail_detail(nan_grad_y, suite, tol):
    # The solve's RuntimeError text is the verdict; no suite raises it.
    result = suite()
    assert not result.passed
    assert result.detail == (f"equilibrium solve stopped at residual nan > tol={tol} "
                             "after 0 steps")


def test_the_seed_is_each_suites_only_option():
    # Only the gradcheck suites keep a sample count, which `gradcheck` sets.
    suites = [fn for name, fn in vars(checks).items() if name.startswith("check_")
              and fn.__module__ == checks.__name__ and name != "check_gradients"]
    assert len(suites) == 10
    for suite in suites:
        assert set(inspect.signature(suite).parameters) <= {"spec", "seed"}, suite


def test_every_suite_ends_in_a_verdict_under_a_nan_gradient(nan_grad_y, capsys):
    # A failed solve of z* and a diverged run are FAIL lines, not a crash.
    assert cli.main(["check", "--seed", "8"]) == cli.EXIT_PROPERTY == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 18
    passed = [line for line in lines if line.startswith("[PASS] ")]
    assert [line.split(":")[0] for line in passed] == [
        "[PASS] gaussian_w2_triangle", "[PASS] rng_stream_consistency"]
    assert sum(line.startswith("[FAIL] ") for line in lines) == 16


@pytest.mark.parametrize("seed", range(32))
def test_the_second_moment_suite_passes_at_fresh_seeds(seed):
    # Its exact line fails a correct chain at about 1e-4 of seeds (|z| > 4
    # under the exact weighted chi-square law), so 32 seeds all pass.
    result = checks.check_second_moment_stability(seed=seed)
    assert result.passed, result.detail
    assert "exact 33.69 +/- 1.16 (z = " in result.detail


class TestSecondMomentBits:
    """The stacked pass scores each state with the bits of a per-step ``np.sum``.

    ``check`` prints the running mean to 3 decimals, so its golden stdout pin
    cannot see a last-bit change in the squared distances; these tests can.
    """

    @staticmethod
    def one_state(xs, ys, z_pair):
        # The per-step statistic the run once recorded through on_checkpoint.
        return float(np.sum((np.stack([xs, ys]) - z_pair) ** 2))

    @pytest.mark.parametrize("seed", range(4))
    def test_stacked_pass_equals_the_per_step_callback(self, monkeypatch, seed):
        run, score = dynamics.run_algorithm, checks._squared_distances
        seen = {}

        def capturing_run(*args, **kwargs):
            seen["args"], seen["kwargs"] = args, kwargs
            return run(*args, **kwargs)

        def capturing_score(states, z_pair):
            seen["z_pair"], seen["stacked"] = z_pair, score(states, z_pair)
            return seen["stacked"]

        monkeypatch.setattr(dynamics, "run_algorithm", capturing_run)
        monkeypatch.setattr(checks, "_squared_distances", capturing_score)
        assert checks.check_second_moment_stability(seed=seed).passed
        # The same run again, scored step by step as the suite once did.
        checkpoints, _ = run(
            *seen["args"], **seen["kwargs"],
            on_checkpoint=lambda k, s: self.one_state(s.xs, s.ys, seen["z_pair"]),
        )
        reference = np.array([v for _, v in checkpoints])
        assert reference.shape == (501,)
        assert seen["stacked"].tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 16, 512])
    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_a_stacked_row_sums_as_it_does_alone(self, n, d):
        rng = np.random.default_rng(1000 * n + d)
        xs, ys = rng.normal(size=(2, 5, n, d))
        z_pair = rng.normal(size=(2, 1, d))
        stacked = checks._squared_distances(ParticleState(xs=xs, ys=ys), z_pair)
        alone = [self.one_state(x, y, z_pair) for x, y in zip(xs, ys)]
        assert stacked.tobytes() == np.array(alone).tobytes()
