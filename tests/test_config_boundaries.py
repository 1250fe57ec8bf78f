"""Generated boundary tests: the config key table writes the bad inputs.

Each example starts from a valid config that sets every key and replaces the
values of one to three keys with tokens from a fixed pool of edge cases:
zero, negatives, nonfinite and extreme finite numbers, integers past 64 bits,
empty values, lists of the wrong length and values of the wrong type.  The
keys are ``config._KEYS`` plus ``payoff.kind``, so a key added to the table is
generated here without a change to this file.  Generation is derandomized, so
every run sees the same cases.

The same edits, on the valid config cut to 4 steps, drive ``run`` and
``couple``: an invalid input exits 2 and a diverging run 3, never 1.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from minmax_langevin import ConfigError, parse_config, serialize_config
from minmax_langevin.cli import main
from minmax_langevin.config import _KEYS

KEYS = ("payoff.kind", *_KEYS)

# A valid config that sets every key: a perturbed payoff (both payoff
# sections), explicit init and coupled sections, and every optional key.
VALID = {
    "payoff.kind": "PerturbedQuadratic",
    "payoff.dim": "1",
    "payoff.A": "[1.0]",
    "payoff.B": "[1.0]",
    "payoff.C": "[0.5]",
    "payoff.u": "[0.25]",
    "payoff.v": "[-0.25]",
    "payoff.amplitude": "0.1",
    "payoff.frequency": "1.0",
    "tau": "1.0",
    "seed": "7",
    "checkpoint_every": "5",
    "algorithm.eta": "0.005",
    "algorithm.n_particles": "8",
    "algorithm.steps": "60",
    "algorithm.strict_eta": "false",
    "init.kind": "gaussian",
    "init.mean_mode": "explicit",
    "init.mean": "[0.5, -0.5]",
    "init.cov_scale": "0.5",
    "init.snapshot": "init.csv",
    "coupled.kind": "gaussian",
    "coupled.mean_mode": "zero",
    "coupled.mean": "[0.25, 0.25]",
    "coupled.cov_scale": "0.25",
    "coupled.snapshot": "coupled.csv",
    "output.dir": "runs/boundary",
    "output.snapshots": "final",
}

NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1e308", "1e200", "1e-320", str(2**64)]
# Lists of one and two numbers fit some keys' lengths; the others are wrong
# for every key.
LISTS = ["[]", "[1.0, 1.0, 1.0]", *(f"[{n}]" for n in NUMBERS),
         *(f"[{n}, {n}]" for n in NUMBERS)]
TOKENS = NUMBERS + LISTS + ["", "1.5", "true", "abc", "QuadraticBilinear"]
EDITS = st.dictionaries(st.sampled_from(KEYS), st.sampled_from(TOKENS),
                        min_size=1, max_size=3)

# A message names a key, or the section whose object rejected the values.
NAMES = (*KEYS, "payoff:", "algorithm:")


def config_text(edits: dict, base: dict = VALID) -> str:
    return "".join(f"{key} = {value}\n" for key, value in {**base, **edits}.items())


def test_the_valid_config_sets_every_key():
    assert set(VALID) == set(KEYS)
    config = parse_config(config_text({}))
    assert parse_config(serialize_config(config)) == config


@settings(max_examples=200, deadline=None, derandomize=True)
@given(edits=EDITS)
# Finite values whose squares overflow inside the payoff's constants.
@example(edits={"payoff.frequency": "1e200"})
@example(edits={"payoff.A": "[1e200]"})
@example(edits={"payoff.B": "[1e200]"})
@example(edits={"payoff.C": "[1e200]"})
def test_a_config_round_trips_or_its_error_names_a_key(edits):
    try:
        config = parse_config(config_text(edits))
    except ConfigError as exc:
        assert any(name in str(exc) for name in NAMES), str(exc)
        return
    assert parse_config(serialize_config(config)) == config


# The valid config on the quadratic family, which takes no ripple section.
BASES = {
    "perturbed": VALID,
    "quadratic": {**{key: value for key, value in VALID.items()
                     if key not in ("payoff.amplitude", "payoff.frequency")},
                  "payoff.kind": "QuadraticBilinear"},
}
# A reference N(z*, tau H^-1) under the degeneracy clip, and linear terms
# whose rounding residual beat an absolute equilibrium-solve tolerance.
TAU_BELOW_CLIP = {"tau": "1e-13"}
HUGE_U_WARM_START = {"payoff.u": "[1e150]", "init.mean_mode": "warm_start"}


def run_main(tmp_path, command, edits, family):
    path = tmp_path / "boundary.cfg"
    path.write_text(config_text({"algorithm.steps": "4", **edits}, BASES[family]))
    return main([command, "--config", str(path), "--output-dir", str(tmp_path / "out")])


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["run", "couple"]), edits=EDITS,
       family=st.sampled_from(sorted(BASES)))
@example(command="run", edits=TAU_BELOW_CLIP, family="quadratic")
@example(command="run", edits=TAU_BELOW_CLIP, family="perturbed")
@example(command="run", edits=HUGE_U_WARM_START, family="quadratic")
@example(command="run", edits=HUGE_U_WARM_START, family="perturbed")
def test_run_and_couple_never_exit_1(tmp_path, command, edits, family):
    assert run_main(tmp_path, command, edits, family) in (0, 2, 3, 4)


@pytest.mark.parametrize("family", sorted(BASES))
@pytest.mark.parametrize("edits, code, stderr", [
    (TAU_BELOW_CLIP, 2, "config error: tau, payoff: "),
    (HUGE_U_WARM_START, 0, ""),
], ids=["tau-below-clip", "huge-u-warm-start"])
def test_a_run_level_hole_exits_2_naming_its_keys_or_runs(tmp_path, capsys, family,
                                                          edits, code, stderr):
    assert run_main(tmp_path, "run", edits, family) == code
    assert capsys.readouterr().err.startswith(stderr)
