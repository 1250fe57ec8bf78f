"""Finite-particle drift fields and the discrete-time min-max Langevin update.

The state is a pair of particle clouds ``x^1..x^N`` and ``y^1..y^N`` in R^d.
Each step moves every particle along the empirical-mean gradient field

    b_X[i] = -(1/N) sum_j grad_x V(x^i, y^j)
    b_Y[i] = +(1/N) sum_j grad_y V(x^j, y^i)

and adds ``sqrt(2 * tau * eta)``-scaled Gaussian noise addressed by
(role, step, particle), so trajectories are reproducible and
independent of evaluation order and of the total particle count.

Clouds of shape ``(..., N, d)`` stack systems on the leading axes.  The
drift averages over the particle axis only and each step's ``(N, d)`` noise
block broadcasts over the stack, so a stacked pair is two systems driven by
the same noise: the synchronous coupling of the contraction argument.

Both payoff families have ``grad_x`` affine in ``y`` and ``grad_y`` affine
in ``x`` (the bilinear term is linear in the opponent and the cosine ripple
is separable), so the opponent average passes through the gradient exactly:

    b_X[i] = -grad_x V(x^i, mean_j y^j)
    b_Y[i] = +grad_y V(mean_j x^j, y^i)

Each drift therefore costs one gradient call per role on ``N x d`` inputs
rather than an ``N x N x d`` pairwise tensor, and the summation order (one
fixed numpy reduction over the particle axis) never varies between runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .deterministic import JointPoint
from .payoff import Constants, PayoffSpec, require, same_fields
from .rng import KeyedNoise

__all__ = [
    "ParticleState",
    "AlgorithmParams",
    "DivergenceError",
    "drift_particles",
    "joint_drift",
    "step_algorithm",
    "run_algorithm",
    "coupled_contraction_run",
    "coupling_distance_sq",
    "contraction_factor",
    "replicate_point",
    "save_snapshot",
    "load_snapshot",
]

# The drift above as run manifests record it; a new summation order changes it.
DRIFT_SCHEME = ("mean-field: b_X[i] = -grad_x V(x^i, mean_j y^j), "
                "b_Y[i] = grad_y V(mean_j x^j, y^i); particle means by numpy mean "
                "over the particle axis")


class DivergenceError(RuntimeError):
    """A particle trajectory produced nonfinite coordinates."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


@dataclass(frozen=True, eq=False)
class ParticleState:
    """Particle clouds ``xs``, ``ys`` of shape (..., N, d) plus a step counter."""

    xs: np.ndarray
    ys: np.ndarray
    step: int = 0

    __eq__ = same_fields

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim < 2 or xs.shape != ys.shape:
            raise ValueError(
                f"xs and ys must share shape (..., N, d), got {xs.shape} "
                f"and {ys.shape}"
            )
        require("nonnegative", step=self.step)
        if xs is not self.xs or ys is not self.ys:
            object.__setattr__(self, "xs", xs)
            object.__setattr__(self, "ys", ys)

    @property
    def n_particles(self) -> int:
        return self.xs.shape[-2]

    @property
    def dim(self) -> int:
        return self.xs.shape[-1]

    @classmethod
    def stacked(cls, *states: "ParticleState") -> "ParticleState":
        """One state whose leading axis indexes ``states``, at the first's step."""
        return cls(
            xs=np.stack([s.xs for s in states]),
            ys=np.stack([s.ys for s in states]),
            step=states[0].step,
        )

    def system(self, i: int) -> "ParticleState":
        """System ``i`` of a stacked state, as (N, d) views."""
        return ParticleState(xs=self.xs[i], ys=self.ys[i], step=self.step)

    def pairs(self) -> np.ndarray:
        """Per-particle joint samples (x^i, y^i) as an (..., N, 2d) array."""
        return np.concatenate([self.xs, self.ys], axis=-1)


def replicate_point(z: JointPoint, n: int) -> ParticleState:
    """All n particles sitting at the joint point z, at step 0."""
    return ParticleState(xs=np.tile(z.x, (n, 1)), ys=np.tile(z.y, (n, 1)))


# Particle and step counts size numpy arrays and loop ranges: int64 at most.
_MAX_COUNT = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class AlgorithmParams:
    """Step size, temperature, particle count and horizon for one run.

    ``tau = 0`` is allowed as a deterministic test mode (it reduces the
    update to min-max gradient descent on every particle).  ``eta <
    eta_stable`` of the payoff's constants is always required; ``strict_eta``
    also enforces the bias-guarantee regime ``eta <= eta_strict``.
    """

    eta: float
    tau: float
    n_particles: int
    steps: int
    strict_eta: bool = False

    def __post_init__(self):
        require("positive", eta=self.eta)
        require("nonnegative", tau=self.tau)
        if not 1 <= self.n_particles <= _MAX_COUNT:
            raise ValueError(f"n_particles must be between 1 and {_MAX_COUNT}")
        if not 0 <= self.steps <= _MAX_COUNT:
            raise ValueError(f"steps must be between 0 and {_MAX_COUNT}")

    def validate_for(self, spec: PayoffSpec) -> None:
        c = spec.constants()
        if not self.eta < c.eta_stable:
            raise ValueError(
                f"eta={self.eta} violates the stability regime "
                f"eta < alpha/(2 L^2) = {c.eta_stable}"
            )
        if self.strict_eta and self.eta > c.eta_strict:
            raise ValueError(
                f"eta={self.eta} violates the strict bias regime "
                f"eta <= alpha/(64 L^2) = {c.eta_strict}"
            )


def drift_particles(spec: PayoffSpec, state: ParticleState):
    """Empirical-mean drift fields (b_X, b_Y), each of the state's shape.

    The means run over the particle axis only, as ``np.add.reduce(...) / n``
    (numpy's ``mean`` bit for bit, without its per-call dispatch), so each
    system of a stack drifts on its own, as it would unstacked.
    """
    if state.dim != spec.dim:
        raise ValueError(f"state dimension {state.dim} != payoff dimension {spec.dim}")
    n = state.n_particles
    x_bar = np.add.reduce(state.xs, axis=-2, keepdims=True) / n
    y_bar = np.add.reduce(state.ys, axis=-2, keepdims=True) / n
    return -spec.grad_x(state.xs, y_bar), spec.grad_y(x_bar, state.ys)


def joint_drift(spec: PayoffSpec, state: ParticleState) -> np.ndarray:
    """b_Z(z) in R^{2Nd} per stacked system: shape (..., 2Nd), 1-d for (N, d)."""
    b_x, b_y = drift_particles(spec, state)
    row = state.xs.shape[:-2] + (state.n_particles * state.dim,)
    return np.concatenate([b_x.reshape(row), b_y.reshape(row)], axis=-1)


def batched_joint_drift(spec: PayoffSpec, zs: np.ndarray, n: int, d: int) -> np.ndarray:
    """b_Z at each row of a (B, 2*n*d) batch, for the property probes:
    :func:`joint_drift` on the (B, n, d) stack whose systems are the rows."""
    zs = np.asarray(zs, dtype=float)
    if zs.ndim != 2 or zs.shape[1] != 2 * n * d:
        raise ValueError(f"batch must have shape (B, {2 * n * d})")
    stack = zs.reshape(zs.shape[0], 2, n, d)
    return joint_drift(spec, ParticleState(xs=stack[:, 0], ys=stack[:, 1]))


def contraction_factor(alpha: float, smooth_l: float, eta: float) -> float:
    """Certified Lipschitz constant M = sqrt(1 - 2 eta alpha + 4 eta^2 L^2).

    Valid (and in [0, 1]) for eta <= alpha / (2 L^2).
    """
    Constants(alpha, smooth_l)
    require("positive", eta=eta)
    m_sq = 1.0 - 2.0 * eta * alpha + 4.0 * eta**2 * smooth_l**2
    return float(np.sqrt(max(m_sq, 0.0)))


def step_algorithm(
    spec: PayoffSpec,
    state: ParticleState,
    params: AlgorithmParams,
    noise: KeyedNoise,
) -> ParticleState:
    """One discrete update x += eta*b_X + sqrt(2 tau eta)*zeta (same for y).

    Noise for particle i is row i of the ``(role, state.step)`` block, which
    no other particle's row depends on; with tau = 0 no noise is drawn.  A
    stacked state shares each step's noise block across its systems.
    """
    params.validate_for(spec)
    n, d = state.n_particles, state.dim
    b_x, b_y = drift_particles(spec, state)
    xs = state.xs + params.eta * b_x
    ys = state.ys + params.eta * b_y
    if params.tau > 0.0:
        scale = math.sqrt(2.0 * params.tau * params.eta)
        xs += scale * noise.block("x", n, state.step, d)
        ys += scale * noise.block("y", n, state.step, d)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        # A nonfinite drift always gives a nonfinite update (eta > 0 and
        # every variate is finite), so the drift is only inspected here.
        if not (np.isfinite(b_x).all() and np.isfinite(b_y).all()):
            raise DivergenceError(state.step, "drift is nonfinite")
        raise DivergenceError(state.step, "state overflowed to nonfinite values")
    return ParticleState(xs=xs, ys=ys, step=state.step + 1)


def run_algorithm(
    spec: PayoffSpec,
    init: ParticleState,
    params: AlgorithmParams,
    seed: int,
    checkpoint_every: int,
    on_checkpoint=None,
):
    """Iterate the particle update, recording checkpoints.

    Checkpoints land on step 0, every ``checkpoint_every`` steps, and the
    final step, counted from ``init``.  Each checkpoint entry is ``(step,
    payload)`` where payload is the state snapshot, or whatever
    ``on_checkpoint(step, state)`` returns when a callback is supplied
    (useful to record metrics without holding snapshots for long runs).

    Returns ``(checkpoints, final_state)``.
    """
    require("at least 1", checkpoint_every=checkpoint_every)
    params.validate_for(spec)
    if init.n_particles != params.n_particles:
        raise ValueError(
            f"init has {init.n_particles} particles, params say {params.n_particles}"
        )
    noise = KeyedNoise(seed, horizon=init.step + params.steps)
    record = (lambda k, s: s) if on_checkpoint is None else on_checkpoint

    def shaped(s: ParticleState, to: tuple) -> ParticleState:
        if s.xs.shape == to:
            return s
        return ParticleState(xs=s.xs.reshape(to), ys=s.ys.reshape(to), step=s.step)

    # A stack of one steps as its (N, d) cloud, bit for bit and cheaper per
    # step; checkpoints and the final state get init's shape back as views.
    shape = init.xs.shape
    state = shaped(init, shape[-2:] if set(shape[:-2]) == {1} else shape)
    checkpoints = [(0, record(0, init))]
    for k in range(1, params.steps + 1):
        state = step_algorithm(spec, state, params, noise)
        if k % checkpoint_every == 0 or k == params.steps:
            checkpoints.append((k, record(k, shaped(state, shape))))
    return checkpoints, shaped(state, shape)


def save_snapshot(path, state: ParticleState) -> None:
    """CSV snapshot: header line ``N,d,step`` then xs rows then ys rows."""
    n, d = state.n_particles, state.dim
    rows = np.vstack([state.xs, state.ys]).tolist()
    line = ",".join(["%.17g"] * d) + "\n"  # one pass per row: format(v, ".17g")'s bytes
    text = f"{n},{d},{state.step}\n" + "".join(line % tuple(row) for row in rows)
    write_ascii(path, text)


def write_ascii(path, text: str) -> None:
    """Write ``text`` as ASCII bytes; a non-ASCII character raises.

    ``str.encode("ascii")`` needs no codec lookup, where a text-mode file
    imports ``encodings.ascii`` on a process's first use (about 0.6 ms).
    """
    data = text.encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)


def load_snapshot(path) -> ParticleState:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        if len(header) != 3:
            raise ValueError(f"{path}: malformed snapshot header")
        n, d, step = (int(v) for v in header)
        with warnings.catch_warnings():
            # An empty body is reported by the shape check below.
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (2 * n, d):
        raise ValueError(
            f"{path}: expected {2 * n} rows of {d} values, got {data.shape}"
        )
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: snapshot values must be finite")
    return ParticleState(xs=data[:n], ys=data[n:], step=step)


def coupling_distance_sq(pair: ParticleState) -> float:
    """``|z^A - z^B|^2`` of a stacked pair, summed in z = (x^1..x^N, y^1..y^N) order."""
    xs, ys = pair.xs, pair.ys
    if xs.shape[:-2] != (2,):
        raise ValueError(f"need a stacked pair of shape (2, N, d), got {xs.shape}")
    # One flat vector summed by one pairwise reduction: np.sum's bits over the
    # stacked (2, N, d) differences, without the stack and the power.
    dz = np.concatenate([xs[0] - xs[1], ys[0] - ys[1]], axis=None)
    return float(np.add.reduce(dz * dz))


def coupled_contraction_run(
    spec: PayoffSpec,
    init_a: ParticleState,
    init_b: ParticleState,
    params: AlgorithmParams,
    seed: int,
):
    """Advance two systems with identical noise; return squared distances.

    The returned list holds ``|z_k^A - z_k^B|^2`` for k = 0..steps.  The
    pair runs stacked, so the difference evolves through the deterministic
    map G alone and each ratio is certified to stay below M^2 (the caller
    checks; this function only produces the trajectory).
    """
    checkpoints, _ = run_algorithm(
        spec, ParticleState.stacked(init_a, init_b), params, seed,
        checkpoint_every=1,
        on_checkpoint=lambda _k, state: coupling_distance_sq(state),
    )
    return [distance for _, distance in checkpoints]
