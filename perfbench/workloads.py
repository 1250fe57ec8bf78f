"""The benchmark's four workloads: inputs, work size and correctness target.

Each workload is one CLI call.  Its inputs are a pure function of the
benchmark seed, which becomes the config's ``seed`` (or ``check --seed``).
README.md in this directory gives the reason for each choice.
"""

from __future__ import annotations

from dataclasses import dataclass


def _flat(matrix_rows):
    return "[" + ", ".join(repr(float(v)) for row in matrix_rows for v in row) + "]"


def _scaled_identity(dim, scale):
    return _flat([[scale if i == j else 0.0 for j in range(dim)] for i in range(dim)])


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # run | couple | check
    config: str           # config template with a {seed} field; "" for check
    particle_steps: int   # N x steps x systems integrated by the call
    kl_target: float | None = None  # time_to_kl_s target; None: no target

    def argv(self, seed, config_path, output_dir):
        if self.command == "check":
            return ["check", "--seed", str(seed)]
        return [self.command, "--config", str(config_path),
                "--output-dir", str(output_dir)]

    def config_text(self, seed):
        return self.config.format(seed=seed)


_TRANSIENT_STEPS = 450
_PAIRWISE_STEPS = 20
_COUPLED_STEPS = 250

TRANSIENT = Workload(
    name="transient-quad-1d",
    command="run",
    config=f"""\
payoff.kind = QuadraticBilinear
payoff.dim = 1
payoff.A = [1.0]
payoff.B = [1.0]
payoff.C = [0.5]
tau = 1.0
seed = {{seed}}
checkpoint_every = 10
algorithm.eta = 0.01
algorithm.n_particles = 512
algorithm.steps = {_TRANSIENT_STEPS}
algorithm.strict_eta = true
init.mean_mode = explicit
init.mean = [3.0, -3.0]
init.cov_scale = 0.25
""",
    particle_steps=512 * _TRANSIENT_STEPS,
    kl_target=0.05,
)

PAIRWISE = Workload(
    name="pairwise-pert-8d",
    command="run",
    config=f"""\
payoff.kind = PerturbedQuadratic
payoff.dim = 8
payoff.A = {_scaled_identity(8, 1.0)}
payoff.B = {_scaled_identity(8, 1.0)}
payoff.C = {_scaled_identity(8, 0.5)}
payoff.amplitude = 0.1
payoff.frequency = 1.5
tau = 1.0
seed = {{seed}}
algorithm.eta = 0.002
algorithm.n_particles = 512
algorithm.steps = {_PAIRWISE_STEPS}
init.mean_mode = warm_start
""",
    particle_steps=512 * _PAIRWISE_STEPS,
)

COUPLED = Workload(
    name="coupled-dense-2d",
    command="couple",
    config=f"""\
payoff.kind = QuadraticBilinear
payoff.dim = 2
payoff.A = {_flat([[1.0, 0.2], [0.2, 0.8]])}
payoff.B = {_flat([[0.9, -0.1], [-0.1, 1.1]])}
payoff.C = {_flat([[0.3, -0.2], [0.1, 0.4]])}
tau = 0.5
seed = {{seed}}
checkpoint_every = 1
algorithm.eta = 0.005
algorithm.n_particles = 64
algorithm.steps = {_COUPLED_STEPS}
init.mean_mode = zero
coupled.mean_mode = explicit
coupled.mean = [1.0, -1.0, 0.5, 0.5]
output.snapshots = final
""",
    particle_steps=64 * _COUPLED_STEPS * 2,
)

CHECK = Workload(
    name="check-suite",
    command="check",
    config="",
    # The suite's one particle run, check_second_moment_stability: N=16 for
    # 2000 steps.  The probes evaluate drifts but advance no particles.
    particle_steps=16 * 2000,
)

WORKLOADS = {w.name: w for w in (TRANSIENT, PAIRWISE, COUPLED, CHECK)}
