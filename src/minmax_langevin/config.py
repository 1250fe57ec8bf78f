"""Experiment configuration: a flat key-value document with dotted sections.

Example::

    payoff.kind = QuadraticBilinear
    payoff.dim = 1
    payoff.A = [1.0]
    payoff.B = [1.0]
    payoff.C = [0.5]
    tau = 1.0
    seed = 7
    algorithm.eta = 0.001
    algorithm.n_particles = 512
    algorithm.steps = 20000
    init.mean_mode = warm_start
    output.dir = runs/demo

Matrices are row-major bracketed lists; booleans are ``true``/``false``;
``#`` starts a comment.  Numbers must be finite (``inf`` and ``nan`` are
rejected).  Unknown keys are rejected, and every invariant is checked at
parse time with a field-level message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import AlgorithmParams
from .payoff import PayoffSpec, PerturbedQuadratic, QuadraticBilinear

__all__ = [
    "ConfigError",
    "InitSpec",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "KNOWN_METRICS",
]

KNOWN_METRICS = ("kl", "w2", "grad_gap")

_INIT_FIELDS = {"kind", "mean_mode", "mean", "cov_scale", "snapshot"}


class ConfigError(ValueError):
    """Malformed or invalid experiment configuration."""


@dataclass(frozen=True)
class InitSpec:
    """Particle initialization: i.i.d. Gaussian or an explicit snapshot file."""

    kind: str = "gaussian"              # gaussian | snapshot
    mean_mode: str = "warm_start"       # zero | warm_start | explicit
    mean: tuple = ()                    # joint 2d-vector for mean_mode=explicit
    cov_scale: float | None = None      # default tau / L
    snapshot: str = ""                  # path for kind=snapshot

    def __post_init__(self):
        if self.kind not in ("gaussian", "snapshot"):
            raise ConfigError(f"init.kind must be gaussian or snapshot, got {self.kind!r}")
        if self.kind == "gaussian":
            if self.mean_mode not in ("zero", "warm_start", "explicit"):
                raise ConfigError(
                    f"init.mean_mode must be zero, warm_start or explicit, "
                    f"got {self.mean_mode!r}"
                )
            if self.mean_mode == "explicit" and not self.mean:
                raise ConfigError("init.mean is required for mean_mode=explicit")
            if self.cov_scale is not None and not self.cov_scale > 0.0:
                raise ConfigError("init.cov_scale must be positive")
        elif not self.snapshot:
            raise ConfigError("init.snapshot path is required for kind=snapshot")


@dataclass(frozen=True)
class ExperimentConfig:
    payoff: PayoffSpec
    algorithm: AlgorithmParams
    seed: int
    checkpoint_every: int
    metrics: tuple = KNOWN_METRICS
    init: InitSpec = field(default_factory=InitSpec)
    coupled: InitSpec | None = None
    output_dir: str = "runs"
    snapshots: str = "none"  # none | final | all: particle dumps at checkpoints

    @property
    def tau(self) -> float:
        """The entropy temperature, stored once in ``algorithm``."""
        return self.algorithm.tau

    def __post_init__(self):
        if self.seed < 0 or self.seed >= 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be at least 1")
        if self.snapshots not in ("none", "final", "all"):
            raise ConfigError("output.snapshots must be none, final or all")
        unknown = set(self.metrics) - set(KNOWN_METRICS)
        if unknown:
            raise ConfigError(f"unknown metrics: {sorted(unknown)}")


def _finite(key: str, raw: str, value: float) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{key}: numbers must be finite, got {raw!r}")
    return value


def _parse_scalar(key: str, raw: str):
    raw = raw.strip()
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        if not inner:
            return ()
        try:
            values = tuple(float(tok) for tok in inner.split(","))
        except ValueError as exc:
            raise ConfigError(f"{key}: malformed bracketed list {raw!r}") from exc
        return tuple(_finite(key, raw, v) for v in values)
    if raw in ("true", "false"):
        return raw == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        value = float(raw)
    except ValueError:
        return raw
    return _finite(key, raw, value)


def _tokenize(text: str) -> dict:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_scalar(key, raw)
    return values


def _take(values: dict, key: str, typ, default=None, required=False):
    if key not in values:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    val = values.pop(key)
    if typ is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if typ is not None and not isinstance(val, typ):
        raise ConfigError(f"{key}: expected {typ.__name__}, got {val!r}")
    return val


def _matrix(key: str, raw, dim: int) -> np.ndarray:
    if raw is None:
        raise ConfigError(f"missing required key {key!r}")
    if not isinstance(raw, tuple) or len(raw) != dim * dim:
        raise ConfigError(f"{key}: expected a row-major list of {dim * dim} numbers")
    return np.array(raw, dtype=float).reshape(dim, dim)


def _vector(key: str, raw, dim: int):
    if raw is None:
        return None
    if not isinstance(raw, tuple) or len(raw) != dim:
        raise ConfigError(f"{key}: expected a list of {dim} numbers")
    return np.array(raw, dtype=float)


def _parse_payoff(values: dict) -> PayoffSpec:
    kind = _take(values, "payoff.kind", str, required=True)
    dim = _take(values, "payoff.dim", int, required=True)
    if dim < 1:
        raise ConfigError("payoff.dim must be a positive integer")
    a = _matrix("payoff.A", values.pop("payoff.A", None), dim)
    b = _matrix("payoff.B", values.pop("payoff.B", None), dim)
    c = _matrix("payoff.C", values.pop("payoff.C", None), dim)
    u = _vector("payoff.u", values.pop("payoff.u", None), dim)
    v = _vector("payoff.v", values.pop("payoff.v", None), dim)
    try:
        base = QuadraticBilinear(dim=dim, A=a, B=b, C=c, u=u, v=v)
        if kind == "QuadraticBilinear":
            if "payoff.amplitude" in values or "payoff.frequency" in values:
                raise ConfigError(
                    "payoff.amplitude/frequency apply only to PerturbedQuadratic"
                )
            return base
        if kind == "PerturbedQuadratic":
            amplitude = _take(values, "payoff.amplitude", float, required=True)
            frequency = _take(values, "payoff.frequency", float, required=True)
            return PerturbedQuadratic(base=base, amplitude=amplitude, frequency=frequency)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"payoff: {exc}") from exc
    raise ConfigError(f"payoff.kind must be QuadraticBilinear or PerturbedQuadratic, "
                      f"got {kind!r}")


def _parse_init(values: dict, prefix: str, tau: float, spec) -> InitSpec | None:
    picked = {k: values.pop(k) for k in list(values) if k.startswith(prefix + ".")}
    if not picked and prefix == "coupled":
        return None
    fields = {}
    for key, val in picked.items():
        name = key[len(prefix) + 1 :]
        if name not in _INIT_FIELDS:
            raise ConfigError(f"unknown key {key!r}")
        fields[name] = val
    kind = fields.pop("kind", "gaussian")
    mean_mode = fields.pop("mean_mode", "warm_start")
    mean = fields.pop("mean", ())
    cov_scale = fields.pop("cov_scale", None)
    snapshot = fields.pop("snapshot", "")
    if cov_scale is not None:
        cov_scale = float(cov_scale)
    elif kind == "gaussian":
        c = spec.constants()
        cov_scale = tau / c.smooth_L
        if cov_scale <= 0.0:
            raise ConfigError(
                f"{prefix}.cov_scale: the default tau/L is not positive for "
                f"tau={tau}; set {prefix}.cov_scale explicitly"
            )
    if isinstance(mean, tuple) and mean and len(mean) != 2 * spec.dim:
        raise ConfigError(f"{prefix}.mean must list {2 * spec.dim} numbers")
    try:
        return InitSpec(
            kind=kind, mean_mode=mean_mode, mean=tuple(float(m) for m in mean),
            cov_scale=cov_scale, snapshot=str(snapshot),
        )
    except ConfigError as exc:
        raise ConfigError(str(exc).replace("init.", prefix + ".")) from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document; unknown keys are errors."""
    values = _tokenize(text)
    spec = _parse_payoff(values)
    tau = _take(values, "tau", float, required=True)
    if tau < 0.0:
        raise ConfigError("tau must be nonnegative")
    seed = _take(values, "seed", int, required=True)
    eta = _take(values, "algorithm.eta", float, required=True)
    n_particles = _take(values, "algorithm.n_particles", int, required=True)
    steps = _take(values, "algorithm.steps", int, required=True)
    strict_eta = _take(values, "algorithm.strict_eta", bool, default=False)
    checkpoint_every = _take(
        values, "checkpoint_every", int, default=max(1, steps // 200)
    )
    metrics_raw = _take(values, "metrics", str, default=",".join(KNOWN_METRICS))
    metrics = tuple(m.strip() for m in metrics_raw.split(",") if m.strip())
    init = _parse_init(values, "init", tau, spec)
    coupled = _parse_init(values, "coupled", tau, spec)
    output_dir = _take(values, "output.dir", str, default="runs")
    snapshots = _take(values, "output.snapshots", str, default="none")
    if values:
        raise ConfigError(f"unknown keys: {sorted(values)}")
    try:
        algorithm = AlgorithmParams(
            eta=eta, tau=tau, n_particles=n_particles, steps=steps,
            strict_eta=strict_eta,
        )
        algorithm.validate_for(spec)
    except ValueError as exc:
        raise ConfigError(f"algorithm: {exc}") from exc
    try:
        return ExperimentConfig(
            payoff=spec, algorithm=algorithm, seed=seed,
            checkpoint_every=checkpoint_every, metrics=metrics, init=init,
            coupled=coupled, output_dir=output_dir, snapshots=snapshots,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple) or isinstance(value, np.ndarray):
        flat = np.asarray(value, dtype=float).ravel()
        return "[" + ", ".join(repr(float(x)) for x in flat) + "]"
    return str(value)


def serialize_config(config: ExperimentConfig) -> str:
    """Emit a document that parses back to an equal config."""
    spec = config.payoff
    base = spec.base if isinstance(spec, PerturbedQuadratic) else spec
    lines = [
        f"payoff.kind = {type(spec).__name__}",
        f"payoff.dim = {base.dim}",
        f"payoff.A = {_fmt(base.A)}",
        f"payoff.B = {_fmt(base.B)}",
        f"payoff.C = {_fmt(base.C)}",
        f"payoff.u = {_fmt(base.u)}",
        f"payoff.v = {_fmt(base.v)}",
    ]
    if isinstance(spec, PerturbedQuadratic):
        lines.append(f"payoff.amplitude = {_fmt(spec.amplitude)}")
        lines.append(f"payoff.frequency = {_fmt(spec.frequency)}")
    lines += [
        f"tau = {_fmt(config.tau)}",
        f"seed = {config.seed}",
        f"checkpoint_every = {config.checkpoint_every}",
        f"metrics = {','.join(config.metrics)}",
        f"algorithm.eta = {_fmt(config.algorithm.eta)}",
        f"algorithm.n_particles = {config.algorithm.n_particles}",
        f"algorithm.steps = {config.algorithm.steps}",
        f"algorithm.strict_eta = {_fmt(config.algorithm.strict_eta)}",
    ]
    for prefix, init in (("init", config.init), ("coupled", config.coupled)):
        if init is None:
            continue
        lines.append(f"{prefix}.kind = {init.kind}")
        if init.kind == "gaussian":
            lines.append(f"{prefix}.mean_mode = {init.mean_mode}")
            if init.mean:
                lines.append(f"{prefix}.mean = {_fmt(init.mean)}")
            lines.append(f"{prefix}.cov_scale = {_fmt(init.cov_scale)}")
        else:
            lines.append(f"{prefix}.snapshot = {init.snapshot}")
    lines.append(f"output.dir = {config.output_dir}")
    lines.append(f"output.snapshots = {config.snapshots}")
    return "\n".join(lines) + "\n"
