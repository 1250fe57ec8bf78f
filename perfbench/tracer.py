"""Per-layer tracing of minmax_langevin from outside the package.

Each public function of a layer is replaced, at the name its caller looks
up, by a wrapper that opens a span, times it and tallies counts.  A span's
self time is its duration minus the time of the spans it directly contains,
so every second of a traced call lands in exactly one layer.  A call that
re-enters the span it is already in (``PerturbedQuadratic.grad_x`` calling
the base ``grad_x``, ``joint_drift`` calling ``drift_particles``) is part of
the enclosing span, not a new one.

``patched`` installs the wrappers and always restores the original objects,
also when the traced call raises.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict


class Tracer:
    """Span self times, span entry counts and work counters of one call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []  # open spans as [name, seconds spent in children]

    def wrap(self, span, fn, count=None, callback=None):
        """``fn`` timed as ``span``.

        ``count(counts, result)`` tallies work from the return value.
        ``callback = (keyword, span)`` also times the function passed as
        that keyword argument (a checkpoint callback) as its own span.
        """

        def traced(*args, **kwargs):
            stack = self._stack
            if stack and stack[-1][0] == span:
                return fn(*args, **kwargs)
            if callback is not None and kwargs.get(callback[0]) is not None:
                kwargs[callback[0]] = self.wrap(callback[1], kwargs[callback[0]])
            frame = [span, 0.0]
            stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                stack.pop()
                self.self_s[span] += elapsed - frame[1]
                self.calls[span] += 1
                if stack:
                    stack[-1][1] += elapsed
            if count is not None:
                count(self.counts, result)
            return result

        return functools.update_wrapper(traced, fn)


def _count_size(key):
    def count(counts, result):
        counts[key] += result.size

    return count


def _count_rows(key):
    def count(counts, result):
        counts[key] += result.shape[0]

    return count


def _count_one(key):
    def count(counts, result):
        counts[key] += 1

    return count


def _count_coupled_steps(counts, distances):
    # distances holds one entry per step plus the initial one; two systems.
    counts["dynamics.steps"] += 2 * (len(distances) - 1)


_GRAD = ("payoff.grad", _count_size("payoff.grad_elems"))
_RECORD_CALLBACK = ("on_checkpoint", "experiment")

# (owner, attribute, span, counter, callback): the owner is the module whose
# globals the caller reads, or "module:Class" for a method.
LAYER_PATCHES = (
    ("minmax_langevin.cli", "main", "cli", None, None),
    ("minmax_langevin.cli", "parse_config", "config.parse", None, None),
    ("minmax_langevin.cli", "run_experiment", "experiment", None, None),
    ("minmax_langevin.cli", "run_all_checks", "checks", None, None),
    ("minmax_langevin.config", "parse_config", "config.parse", None, None),
    ("minmax_langevin.experiment", "initial_state", "experiment.init", None, None),
    ("minmax_langevin.experiment", "run_algorithm", "dynamics.run", None,
     _RECORD_CALLBACK),
    ("minmax_langevin.experiment", "coupled_contraction_run", "dynamics.coupled",
     _count_coupled_steps, None),
    ("minmax_langevin.experiment", "fit_gaussian", "metrics.fit", None, None),
    ("minmax_langevin.experiment", "gaussian_kl", "metrics.kl", None, None),
    ("minmax_langevin.experiment", "gaussian_w2", "metrics.w2", None, None),
    ("minmax_langevin.experiment", "duality_gap_bound", "deterministic.gap",
     None, None),
    ("minmax_langevin.experiment", "solve_equilibrium", "deterministic.solve",
     None, None),
    ("minmax_langevin.experiment", "transient_kl_envelope", "oracle.envelope",
     None, None),
    ("minmax_langevin.experiment", "joint_equilibrium", "oracle.reference",
     None, None),
    ("minmax_langevin.experiment", "equilibrium_variance", "oracle.reference",
     None, None),
    ("minmax_langevin.experiment", "kl_bias_bound", "oracle.reference", None, None),
    ("minmax_langevin.dynamics", "drift_particles", "dynamics.drift", None, None),
    ("minmax_langevin.dynamics", "step_algorithm", "dynamics.step",
     _count_one("dynamics.steps"), None),
    ("minmax_langevin.dynamics", "run_algorithm", "dynamics.run", None, None),
    ("minmax_langevin.checks", "batched_joint_drift", "dynamics.drift",
     _count_rows("checks.probes"), None),
    ("minmax_langevin.checks", "joint_drift", "dynamics.drift", None, None),
    ("minmax_langevin.checks", "solve_equilibrium", "deterministic.solve",
     None, None),
    ("minmax_langevin.checks", "gaussian_kl", "metrics.kl", None, None),
    ("minmax_langevin.checks", "gaussian_w2", "metrics.w2", None, None),
    ("minmax_langevin.checks", "derive_stream_id", "rng.stream_id", None, None),
    ("minmax_langevin.checks", "standard_normal_block", "rng.stream_draw",
     _count_size("rng.variates"), None),
    ("minmax_langevin.deterministic", "solve_equilibrium", "deterministic.solve",
     None, None),
    ("minmax_langevin.rng", "derive_stream_id", "rng.stream_id", None, None),
    ("minmax_langevin.rng:KeyedNoise", "block", "rng.block",
     _count_size("rng.variates"), None),
    ("minmax_langevin.metrics", "standard_normal_block", "rng.stream_draw",
     _count_size("rng.variates"), None),
    ("minmax_langevin.payoff:QuadraticBilinear", "grad_x", *_GRAD, None),
    ("minmax_langevin.payoff:QuadraticBilinear", "grad_y", *_GRAD, None),
    ("minmax_langevin.payoff:PerturbedQuadratic", "grad_x", *_GRAD, None),
    ("minmax_langevin.payoff:PerturbedQuadratic", "grad_y", *_GRAD, None),
)


def resolve(table=LAYER_PATCHES):
    """Replace each owner name by the module or class it names."""
    resolved = []
    for owner, attr, span, count, callback in table:
        module_name, _, class_name = owner.partition(":")
        target = importlib.import_module(module_name)
        if class_name:
            target = getattr(target, class_name)
        resolved.append((target, attr, span, count, callback))
    return resolved


@contextlib.contextmanager
def patched(tracer, resolved):
    """Install ``tracer`` wrappers for every resolved entry, then restore."""
    saved = []
    try:
        for owner, attr, span, count, callback in resolved:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(span, original, count, callback))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
