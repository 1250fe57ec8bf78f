"""One-particle runs: ``algorithm.n_particles = 1`` goes through the scoring
path of every other run.

A single particle's fit is its point mass: zero covariance, a degenerate
law, so ``avg_cov_trace`` is 0 and the KL and W2 cells are empty, while the
mean, the duality-gap bound and the envelopes are scored as for any N.  The
digests pin the bytes of each ``metrics.csv``.
"""

import hashlib
import math

import pytest

from minmax_langevin import parse_config
from minmax_langevin.cli import main
from minmax_langevin.experiment import csv_header

QUADRATIC = """\
payoff.kind = QuadraticBilinear
payoff.dim = 2
payoff.A = [1.0, 0.2, 0.2, 0.8]
payoff.B = [0.9, -0.1, -0.1, 1.1]
payoff.C = [0.3, -0.2, 0.1, 0.4]
tau = 0.5
seed = 8
checkpoint_every = 5
algorithm.eta = 0.005
algorithm.n_particles = 1
algorithm.steps = 40
init.mean_mode = explicit
init.mean = [1.0, -1.0, 0.5, 0.5]
init.cov_scale = 0.25
"""

PERTURBED = """\
payoff.kind = PerturbedQuadratic
payoff.dim = 1
payoff.A = [1.0]
payoff.B = [1.0]
payoff.C = [0.5]
payoff.amplitude = 0.1
payoff.frequency = 1.5
tau = 1.0
seed = 8
checkpoint_every = 4
algorithm.eta = 0.002
algorithm.n_particles = 1
algorithm.steps = 20
init.mean_mode = warm_start
"""

COUPLED = QUADRATIC + """\
coupled.mean_mode = zero
output.snapshots = final
"""

DIGESTS = {
    "quadratic":
        "93d4a9276a880dea2fab7f8e32cf71b530c34af413bafe7034b3f4b5859904f3",
    "perturbed":
        "e082c9378184940ce2ced9eeb146499cf5fcf487b7ce232d964de2a30a4073cd",
    "coupled":
        "a14af55cb432df06193036c16cf17c822d15240950e8f030a8e3e1573884b187",
}

CONFIGS = {"quadratic": QUADRATIC, "perturbed": PERTURBED, "coupled": COUPLED}
_COLUMNS = {
    "quadratic": csv_header(2).split(","),
    "perturbed": csv_header(1).split(","),
    "coupled": csv_header(2).split(","),
}


def _run(tmp_path, name: str) -> list[dict]:
    config = tmp_path / "one.cfg"
    config.write_text(CONFIGS[name])
    out = tmp_path / "out"
    command = "couple" if name == "coupled" else "run"
    assert main([command, "--config", str(config), "--output-dir", str(out)]) == 0
    body = (out / "metrics.csv").read_bytes()
    assert hashlib.sha256(body).hexdigest() == DIGESTS[name]
    lines = body.decode("ascii").splitlines()
    assert lines[0].split(",") == _COLUMNS[name]
    return [dict(zip(_COLUMNS[name], line.split(","))) for line in lines[1:]]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_one_particle_scores_its_point_mass(tmp_path, name):
    rows = _run(tmp_path, name)
    steps = parse_config(CONFIGS[name]).algorithm.steps
    assert [int(row["step"]) for row in rows][-1] == steps
    for row in rows:
        assert row["avg_cov_trace"] == "0"
        assert row["kl_fit_to_eq"] == "" and row["w2_fit_to_eq_sq"] == ""
        assert math.isfinite(float(row["grad_gap_bound"]))
        assert all(math.isfinite(float(row[f"avg_mean_{i}"]))
                   for i in range(len(_COLUMNS[name]) - 8))


def test_one_particle_couple_reports_its_coupling(tmp_path):
    rows = _run(tmp_path, "coupled")
    distances = [float(row["coupling_dist_sq"]) for row in rows]
    assert distances[0] > 0.0 and all(math.isfinite(v) for v in distances)
    # Quadratic rows carry their envelopes too.
    assert all(row["envelope_kl"] and row["bias_bound"] for row in rows)
