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

Every key has one type, and its text is read as that type alone: integers,
finite numbers (``inf`` and ``nan`` are rejected), ``true``/``false``,
row-major bracketed lists of numbers, or plain text.  ``#`` always starts a
comment, also inside a value, so ``output.dir = runs/#3`` means ``runs/``.
An absent optional key takes the default of its dataclass field.  Unknown
keys are rejected, and every invariant is checked at parse time with a
field-level message.  So is a key the run would ignore: ``init.mean``
without ``init.mean_mode = explicit``, ``init.snapshot`` without
``init.kind = snapshot``, and with it ``init.mean``, ``init.cov_scale`` or
an ``init.mean_mode`` other than its default (the same for ``coupled.*``).
One table of keys, ``_KEYS``, drives ``parse_config`` and
``serialize_config``, the one emitter of the format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import AlgorithmParams
from .payoff import PayoffSpec, PerturbedQuadratic, QuadraticBilinear

__all__ = [
    "ConfigError",
    "InitSpec",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
]


class ConfigError(ValueError):
    """Malformed or invalid experiment configuration."""


@dataclass(frozen=True)
class InitSpec:
    """Particle initialization: i.i.d. Gaussian or an explicit snapshot file."""

    kind: str = "gaussian"              # gaussian | snapshot
    mean_mode: str = "warm_start"       # zero | warm_start | explicit
    mean: tuple = ()                    # joint 2d-vector for mean_mode=explicit
    cov_scale: float | None = None      # None: tau / L, set by ExperimentConfig
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
    checkpoint_every: int | None = None  # None: max(1, steps // 200)
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
        if self.checkpoint_every is None:
            every = max(1, self.algorithm.steps // 200)
            object.__setattr__(self, "checkpoint_every", every)
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be at least 1")
        if self.snapshots not in ("none", "final", "all"):
            raise ConfigError("output.snapshots must be none, final or all")
        object.__setattr__(self, "init", self._resolved(self.init, "init"))
        if self.coupled is not None:
            object.__setattr__(self, "coupled", self._resolved(self.coupled, "coupled"))

    def _resolved(self, init: InitSpec, prefix: str) -> InitSpec:
        """``init`` checked against the payoff, with cov_scale defaulted to
        tau / L.  A key the run would ignore is an error that names it and
        the key that makes it ignored."""
        if init.snapshot and init.kind != "snapshot":
            raise ConfigError(f"{prefix}.snapshot is ignored unless {prefix}.kind = "
                              f"snapshot, got {prefix}.kind = {init.kind}")
        if init.kind == "snapshot":  # a Gaussian key set off its default
            for name in ("mean_mode", "mean", "cov_scale"):
                if getattr(init, name) != getattr(InitSpec, name):
                    raise ConfigError(f"{prefix}.{name} is ignored unless {prefix}.kind "
                                      f"= gaussian, got {prefix}.kind = snapshot")
        if init.kind == "gaussian" and init.mean and init.mean_mode != "explicit":
            raise ConfigError(f"{prefix}.mean is ignored unless {prefix}.mean_mode = "
                              f"explicit, got {prefix}.mean_mode = {init.mean_mode}")
        if init.mean and len(init.mean) != 2 * self.payoff.dim:
            raise ConfigError(f"{prefix}.mean must list {2 * self.payoff.dim} numbers")
        if init.kind != "gaussian" or init.cov_scale is not None:
            return init
        cov_scale = self.tau / self.payoff.constants().smooth_L
        if not cov_scale > 0.0:
            raise ConfigError(
                f"{prefix}.cov_scale: the default tau/L is not positive for "
                f"tau={self.tau}; set {prefix}.cov_scale explicitly"
            )
        return replace(init, cov_scale=cov_scale)


def _list(raw: str) -> tuple:
    if not (raw.startswith("[") and raw.endswith("]")):
        raise ValueError(raw)
    inner = raw[1:-1].strip()
    return tuple(float(tok) for tok in inner.split(",")) if inner else ()


# type -> (reader of a value's text, how an error message names the type)
_READERS = {
    str: (str, "text"),
    int: (int, "an integer"),
    float: (float, "a number"),
    bool: ({"true": True, "false": False}.__getitem__, "true or false"),
    tuple: (_list, "a bracketed list of numbers"),
}

# InitSpec field -> type; the keys are ``init.<field>`` and ``coupled.<field>``.
_INIT_TYPES = {
    "kind": str, "mean_mode": str, "mean": tuple, "cov_scale": float, "snapshot": str,
}

_MATRICES = ("A", "B", "C")  # the payoff keys read as row-major dim x dim lists

# Every key but ``payoff.kind``, which names the payoff class and comes first:
# key -> (type, section, dataclass field, required), in emit order.  A section
# names the object holding the field: "payoff" (QuadraticBilinear, or the base
# of a PerturbedQuadratic), "ripple" (PerturbedQuadratic), "algorithm"
# (AlgorithmParams), "experiment" (ExperimentConfig), "init"/"coupled" (InitSpec).
_KEYS = {
    "payoff.dim": (int, "payoff", "dim", True),
    **{f"payoff.{name}": (tuple, "payoff", name, name in _MATRICES)
       for name in (*_MATRICES, "u", "v")},
    "payoff.amplitude": (float, "ripple", "amplitude", True),
    "payoff.frequency": (float, "ripple", "frequency", True),
    "tau": (float, "algorithm", "tau", True),
    "seed": (int, "experiment", "seed", True),
    "checkpoint_every": (int, "experiment", "checkpoint_every", False),
    "algorithm.eta": (float, "algorithm", "eta", True),
    "algorithm.n_particles": (int, "algorithm", "n_particles", True),
    "algorithm.steps": (int, "algorithm", "steps", True),
    "algorithm.strict_eta": (bool, "algorithm", "strict_eta", False),
    **{f"{prefix}.{name}": (typ, prefix, name, False)
       for prefix in ("init", "coupled") for name, typ in _INIT_TYPES.items()},
    "output.dir": (str, "experiment", "output_dir", False),
    "output.snapshots": (str, "experiment", "snapshots", False),
}


def _tokenize(text: str) -> dict:
    """Map each key to the stripped text of its value."""
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
        values[key] = raw.strip()
    return values


def _take(values: dict, key: str, typ, required=False):
    """Pop ``key`` and read its text as ``typ``; None if an optional key is absent."""
    if key not in values:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return None
    raw = values.pop(key)
    read, name = _READERS[typ]
    try:
        value = read(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{key}: expected {name}, got {raw!r}") from None
    numbers = value if typ is tuple else (value,) if typ is float else ()
    if not all(math.isfinite(v) for v in numbers):
        raise ConfigError(f"{key}: numbers must be finite, got {raw!r}")
    return value


def _fields(values: dict, section: str) -> dict:
    """The present keys of ``section``, read and named by dataclass field."""
    taken = {name: _take(values, key, typ, required)
             for key, (typ, sec, name, required) in _KEYS.items() if sec == section}
    return {name: value for name, value in taken.items() if value is not None}


def _parse_payoff(values: dict) -> PayoffSpec:
    kind = _take(values, "payoff.kind", str, required=True)
    if kind not in ("QuadraticBilinear", "PerturbedQuadratic"):
        raise ConfigError(f"payoff.kind must be QuadraticBilinear or PerturbedQuadratic, "
                          f"got {kind!r}")
    fields = _fields(values, "payoff")
    dim = fields.pop("dim")
    if dim < 1:
        raise ConfigError("payoff.dim must be a positive integer")
    for name, value in fields.items():
        matrix = name in _MATRICES
        size = dim * dim if matrix else dim
        if len(value) != size:
            layout = "a row-major list" if matrix else "a list"
            raise ConfigError(f"payoff.{name}: expected {layout} of {size} numbers")
        fields[name] = np.reshape(value, (dim, dim) if matrix else dim)
    perturbed = kind == "PerturbedQuadratic"
    ripple = _fields(values, "ripple") if perturbed else {}
    if "payoff.amplitude" in values or "payoff.frequency" in values:
        raise ConfigError("payoff.amplitude/frequency apply only to PerturbedQuadratic")
    try:
        base = QuadraticBilinear(dim=dim, **fields)
        return PerturbedQuadratic(base=base, **ripple) if perturbed else base
    except ValueError as exc:
        raise ConfigError(f"payoff: {exc}") from exc


def _parse_init(values: dict, prefix: str) -> InitSpec | None:
    fields = _fields(values, prefix)
    if not fields and prefix == "coupled":
        return None
    try:
        return InitSpec(**fields)
    except ConfigError as exc:
        # Every InitSpec message starts with its key; rename only that.
        raise ConfigError(prefix + str(exc).removeprefix("init")) from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document; unknown keys are errors."""
    values = _tokenize(text)
    spec = _parse_payoff(values)
    algorithm = _fields(values, "algorithm")
    experiment = _fields(values, "experiment")
    init = _parse_init(values, "init")
    coupled = _parse_init(values, "coupled")
    if values:
        raise ConfigError(f"unknown keys: {sorted(values)}")
    try:
        params = AlgorithmParams(**algorithm)
        params.validate_for(spec)
    except ValueError as exc:
        raise ConfigError(f"algorithm: {exc}") from exc
    return ExperimentConfig(payoff=spec, algorithm=params, init=init,
                            coupled=coupled, **experiment)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple) or isinstance(value, np.ndarray):
        flat = np.asarray(value, dtype=float).ravel()
        return "[" + ", ".join(repr(float(x)) for x in flat) + "]"
    return str(value)


def serialize_config(config: ExperimentConfig) -> str:
    """Emit a document that parses back to an equal config."""
    spec = config.payoff
    ripple = spec if isinstance(spec, PerturbedQuadratic) else None
    owners = {"payoff": spec if ripple is None else spec.base, "ripple": ripple,
              "algorithm": config.algorithm, "experiment": config,
              "init": config.init, "coupled": config.coupled}
    lines = [f"payoff.kind = {type(spec).__name__}"]
    for key, (_, section, name, _) in _KEYS.items():
        owner = owners[section]
        value = None if owner is None else getattr(owner, name)
        # Not written, since each reads back as it is: an absent ripple or
        # coupled section, None, and an empty text or list equal to its default.
        if value is None or (isinstance(value, (str, tuple)) and not value
                             and value == getattr(type(owner), name)):
            continue
        lines.append(f"{key} = {_fmt(value)}")
    return "\n".join(lines) + "\n"
