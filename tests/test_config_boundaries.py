"""Generated boundary tests: the config key table writes the bad inputs.

Each example starts from a valid config that sets every key and replaces the
values of one to three keys with tokens from a fixed pool of edge cases:
zero, negatives, nonfinite and extreme finite numbers, integers past 64 bits,
empty values, lists of the wrong length and values of the wrong type.  The
keys are ``config._KEYS`` plus ``payoff.kind``, so a key added to the table is
generated here without a change to this file.  Generation is derandomized, so
every run sees the same cases.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from minmax_langevin import ConfigError, parse_config, serialize_config
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


def config_text(edits: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in {**VALID, **edits}.items())


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
