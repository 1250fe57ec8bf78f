"""Pinned output bytes of `run`, `couple` and `check`.

A refactor that keeps every number must keep these digests.  A deliberate
numeric change (a new summation order, noise scheme or metric rule) fails
here and must update the pins together with its declaration in CHANGES.md
and, where it applies, the manifest's ``*_scheme`` string.  The bits of
every variate are numpy's ``log``/``sqrt``/``sin``/``cos``, chosen by the
SIMD targets the manifest records; the digests were taken on an x86-64 host
with AVX512_SPR (numpy 2.4).
"""

import hashlib

import pytest

from minmax_langevin import parse_config, run_experiment
from minmax_langevin.cli import main

# The three solver configs at seed 8: a transient quadratic run from a far
# init (d=1, N=512), a perturbed run from a warm start (d=8, N=512), and a
# coupled dense quadratic run with a record every step (d=2, N=64).
TRANSIENT = """\
payoff.kind = QuadraticBilinear
payoff.dim = 1
payoff.A = [1.0]
payoff.B = [1.0]
payoff.C = [0.5]
tau = 1.0
seed = 8
checkpoint_every = 10
algorithm.eta = 0.01
algorithm.n_particles = 512
algorithm.steps = 450
algorithm.strict_eta = true
init.mean_mode = explicit
init.mean = [3.0, -3.0]
init.cov_scale = 0.25
"""

_EYE8 = "[" + ", ".join("1.0" if i % 9 == 0 else "0.0" for i in range(64)) + "]"
_HALF_EYE8 = "[" + ", ".join("0.5" if i % 9 == 0 else "0.0" for i in range(64)) + "]"

PERTURBED = f"""\
payoff.kind = PerturbedQuadratic
payoff.dim = 8
payoff.A = {_EYE8}
payoff.B = {_EYE8}
payoff.C = {_HALF_EYE8}
payoff.amplitude = 0.1
payoff.frequency = 1.5
tau = 1.0
seed = 8
algorithm.eta = 0.002
algorithm.n_particles = 512
algorithm.steps = 20
init.mean_mode = warm_start
"""

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
algorithm.n_particles = 64
algorithm.steps = 250
init.mean_mode = zero
coupled.mean_mode = explicit
coupled.mean = [1.0, -1.0, 0.5, 0.5]
output.snapshots = final
"""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestOutputGolden:
    @pytest.mark.parametrize("config, expected", [
        (TRANSIENT, {
            "metrics.csv":
                "025e9aecef7d7f468d6555b80c04c997aae65908d4539a1bfb279ad94ccbbf35",
        }),
        (PERTURBED, {
            "metrics.csv":
                "2efa97d121defb0c9307577c5c3b7807d3b08dba665f0e98bc41c8db79f81d6d",
        }),
        (COUPLED, {
            "metrics.csv":
                "25220810bd5e89f3eaea06016d5ee9a9bb487b969ef36681a95e708ee5c16f21",
            "final_state.csv":
                "8d400fd2a94c6b1481687f37a2910e0cfb0a6039b59661d47cb9b0c0f11f48be",
        }),
    ], ids=["transient-quad-1d", "pairwise-pert-8d", "coupled-dense-2d"])
    def test_run_artifacts(self, tmp_path, config, expected):
        run_experiment(parse_config(config), output_dir=tmp_path)
        digests = {name: _sha256((tmp_path / name).read_bytes()) for name in expected}
        assert digests == expected

    def test_check_stdout(self, capsys):
        assert main(["check", "--seed", "8"]) == 0
        assert _sha256(capsys.readouterr().out.encode()) == (
            "afbdc09468d0b1fa2729a4531054a3fd41d0263537a80dc6ac9a7ece9a4734ee"
        )

    @pytest.mark.parametrize("seed, expected", [
        (0, "282847b6cd6087d1497f9b6e8857f66efdda5148f32f7b40bbf51302213816c8"),
        (3, "7d4eed735fe7fb37926492c4188ef99da0a614639fe1812c1eab331c3b7959c7"),
    ], ids=["0", "3"])
    def test_check_stdout_at_more_seeds(self, capsys, seed, expected):
        assert main(["check", "--seed", str(seed)]) == 0
        assert _sha256(capsys.readouterr().out.encode()) == expected
