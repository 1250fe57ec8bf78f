"""Experiment orchestration: warm start, particle run, metrics, CSV report.

A run executes, in order: (1) equilibrium warm start when requested, (2)
i.i.d. Gaussian particle initialization from keyed noise streams, (3) for
quadratic payoffs, the statistics the config alone fixes (exact variance,
initial KL and W2, bias bound, KL envelope), and (4) the particle algorithm
with metric checkpoints, each row carrying step (3)'s envelopes.

In step (4) a checkpoint keeps only what needs the live state: the snapshot,
the sample moments, the coupling distance and the wall time.  It holds no
particle array, so buffered captures cost O(d^2) each, not O(N d).  Captures
are scored ``_SCORE_CHUNK`` at a time: the fits as one stacked
``GaussianDist``, then one KL, W2, gap and envelope call, each row with the
bits its own call would give.  An overflow in a chunk is re-scored row by
row, so the error names the first checkpoint that overflowed.

Outputs are a metrics CSV whose body is a pure function of the config (so
reruns are byte-identical) and a JSON manifest holding everything else:
config echo, certified constants, regime checks, which variance reading fed
the envelopes, library versions and timing (``runtime_seconds`` and the
per-phase ``timings``).
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, InitSpec, serialize_config
from .deterministic import (
    JointPoint,
    duality_gap_bound,
    solve_equilibrium,
    warm_start_tolerance,
)
# coupled_contraction_run stays bound: perfbench/tracer.py patches it by name.
from .dynamics import (
    DRIFT_SCHEME,
    DivergenceError,
    ParticleState,
    coupled_contraction_run,
    contraction_factor,
    coupling_distance_sq,
    load_snapshot,
    run_algorithm,
    save_snapshot,
    write_ascii,
)
from .metrics import MetricsRecord, fit_gaussian, gaussian_kl, gaussian_w2
from .oracle import (
    PSD_CLIP,
    GaussianDist,
    equilibrium_variance,
    joint_equilibrium,
    kl_bias_bound,
    transient_kl_envelope,
)
from .payoff import CONSTANTS_SCHEME, QuadraticBilinear
from .rng import NOISE_SCHEME, KeyedNoise

__all__ = ["ReportBundle", "run_experiment", "csv_header", "initial_state"]


@dataclass(frozen=True)
class ReportBundle:
    """Paths of the artifacts one run produced."""

    output_dir: Path
    csv_path: Path
    manifest_path: Path
    final_state: ParticleState
    records: list


# Checkpoints scored together in one stacked pass: O(chunk d^2) memory.
_SCORE_CHUNK = 256


class _Capture(NamedTuple):
    """What a checkpoint keeps of the live state until it is scored."""

    step: int
    wall_time: float
    avg_mean: np.ndarray
    cov: np.ndarray
    distance: float | None


# The MetricsRecord fields written after the per-coordinate means, in
# metrics.csv column order.
_SCALAR_COLUMNS = ("avg_cov_trace", "kl_fit_to_eq", "w2_fit_to_eq_sq", "grad_gap_bound",
                   "coupling_dist_sq", "envelope_kl", "bias_bound")


def csv_header(dim: int) -> str:
    mean_cols = [f"avg_mean_{i}" for i in range(2 * dim)]
    return ",".join(["step", *mean_cols, *_SCALAR_COLUMNS])


def _csv_row(record: MetricsRecord) -> str:
    """One metrics.csv line: each value by one ``%.17g`` conversion, which gives
    the bytes of ``format(float(value), ".17g")``; a None value is an empty cell."""
    values = [*record.avg_mean.tolist(), *[getattr(record, name) for name in _SCALAR_COLUMNS]]
    return ",".join([str(record.step), *["" if v is None else "%.17g" % v for v in values]])


def _resolve_mean(config: ExperimentConfig, init: InitSpec) -> np.ndarray:
    spec = config.payoff
    if init.mean_mode == "zero":
        return np.zeros(2 * spec.dim)
    if init.mean_mode == "explicit":
        return np.asarray(init.mean, dtype=float)
    tol = max(warm_start_tolerance(spec, config.tau), 1e-10)
    z_star, _ = solve_equilibrium(spec, tol=tol)
    return z_star.vector


def initial_state(config: ExperimentConfig, init: InitSpec, noise: KeyedNoise):
    """Draw the i.i.d. particle initialization (or load a snapshot).

    Returns ``(state, gaussian_or_none)`` where the Gaussian describes the
    initialization law (used for the transient envelope).
    """
    spec = config.payoff
    n, d = config.algorithm.n_particles, spec.dim
    if init.kind == "snapshot":
        key = "coupled.snapshot" if init is config.coupled else "init.snapshot"
        try:
            state = load_snapshot(init.snapshot)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{key}: cannot load snapshot: {exc}") from exc
        if state.xs.shape != (n, d):
            raise ConfigError(
                f"{key}: snapshot shape {state.xs.shape} does not match run ({n}, {d})"
            )
        return ParticleState(xs=state.xs, ys=state.ys, step=0), None
    mean = _resolve_mean(config, init)
    scale = np.sqrt(init.cov_scale)
    xs = mean[:d] + scale * noise.block("init-x", n, 0, d)
    ys = mean[d:] + scale * noise.block("init-y", n, 0, d)
    law = GaussianDist.isotropic(mean, float(init.cov_scale))
    return ParticleState(xs=xs, ys=ys, step=0), law


def _numpy_simd() -> dict:
    """numpy's compiled SIMD baseline and the dispatch targets this CPU runs.

    numpy picks its ``log``/``sqrt``/``sin``/``cos`` kernels by these
    targets, and those kernels set the bits of every noise variate.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    found = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    return {"baseline": list(umath.__cpu_baseline__), "found": found}


class _overflow_raises:
    """The overflow rule: raise ``error`` (a named ``ConfigError`` before the first
    step, a ``DivergenceError`` at a checkpoint) where a statistic of finite inputs
    comes out nonfinite: a numpy overflow or invalid operation, a Python-float
    ``ZeroDivisionError`` or ``OverflowError``, or a value ``_finite`` rejects.

    A class, not a generator context manager: every checkpoint enters it, and a
    class's entry and exit cost about a third less."""

    __slots__ = ("error", "_errstate")

    def __init__(self, error: Exception):
        self.error = error
        self._errstate = np.errstate(over="raise", invalid="raise")

    def __enter__(self):
        self._errstate.__enter__()

    def __exit__(self, kind, value, traceback):
        self._errstate.__exit__(kind, value, traceback)
        if isinstance(value, ArithmeticError):
            raise self.error from None


def _finite(value):
    """``value``, or ``FloatingPointError`` if it is not finite (a Python-float overflow)."""
    if not np.isfinite(value).all():
        raise FloatingPointError
    return value


def run_experiment(config: ExperimentConfig, output_dir=None) -> ReportBundle:
    """Execute a configured run and write metrics.csv + manifest.json."""
    t_start = time.perf_counter()
    spec = config.payoff
    constants = spec.constants()
    d = spec.dim
    n, eta = config.algorithm.n_particles, config.algorithm.eta
    out = Path(output_dir if output_dir is not None else config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        key = "output.dir" if output_dir is None else "--output-dir"
        raise ConfigError(f"{key}: cannot create {out}: {exc}") from exc

    # Every run steps a stack of systems that share each step's noise: system
    # A, plus system B when coupled.* is set.  Every output but the coupling
    # distance is system A's.
    noise = KeyedNoise(config.seed)
    systems = [initial_state(config, init, noise)
               for init in (config.init, config.coupled) if init is not None]
    init_law = systems[0][1]
    coupled = config.coupled is not None

    quadratic = isinstance(spec, QuadraticBilinear)
    reference = joint_equilibrium(spec, config.tau) if config.tau > 0.0 else None
    if reference is not None and reference.degenerate:
        # No KL is finite against it: tau is too small for the curvature.
        raise ConfigError(f"tau, payoff: the equilibrium reference N(z*, tau H^-1) "
                          f"is degenerate (an eigenvalue <= {PSD_CLIP:g})")

    # Theory envelopes only exist for the quadratic family with a Gaussian init
    # law and tau > 0.  Set by the config alone, they are checked before any step.
    envelope = bias_value = None
    if quadratic and config.tau > 0.0 and init_law is not None:
        init_keys = "tau, init.mean, init.cov_scale"
        with _overflow_raises(ConfigError(
                f"{init_keys}: the exact variance or initial KL/W2 overflows")):
            var_exact = equilibrium_variance(spec, config.tau)
            kl0 = gaussian_kl(init_law, reference)
            w20 = gaussian_w2(init_law, reference)
        with _overflow_raises(ConfigError(f"payoff: bias_bound is not finite (alpha = "
                                          f"{constants.alpha:g}, L = {constants.smooth_L:g})")):
            bias_value = _finite(kl_bias_bound(constants.alpha, constants.smooth_L,
                                               config.tau, d, n, eta, var_exact))

        def envelope(steps):
            # N i.i.d. particles: joint KL_0 = N kl0 and W2_0^2 = N w20, divided by N.
            return transient_kl_envelope(kl0, w20, constants.alpha, constants.smooth_L,
                                         config.tau, eta, steps, bias_value, 1)

        # Step 0 bounds every row: exp(-alpha eta k) <= 1.
        with _overflow_raises(ConfigError(f"{init_keys}: envelope_kl is not finite")):
            _finite(envelope(0))

    # A checkpoint captures in the loop what needs the live state; buffered
    # captures are scored _SCORE_CHUNK at a time in one stacked pass.
    captured, records = [], []
    score_seconds = capture_seconds = 0.0

    def capture(step: int, stack: ParticleState) -> None:
        nonlocal capture_seconds
        entered = time.perf_counter()
        if config.snapshots == "all":
            save_snapshot(out / f"snapshot_{step:08d}.csv", stack.system(0))
        pairs = np.concatenate([stack.xs[0], stack.ys[0]], axis=1)  # system A's (x^i, y^i)
        with _overflow_raises(DivergenceError(step, "checkpoint statistics overflowed")):
            avg_mean, cov = fit_gaussian(pairs)
            distance = coupling_distance_sq(stack) if coupled else None
        now = time.perf_counter()
        captured.append(_Capture(step, now - t_start, avg_mean, cov, distance))
        capture_seconds += now - entered
        if len(captured) == _SCORE_CHUNK:
            flush()

    def score(chunk: list) -> list:
        """The chunk's MetricsRecords: trace, KL, W2 and gap in one stacked
        pass, KL and W2 left out for a degenerate fit (all at N = 1) or no reference."""
        k = len(chunk)
        envelopes = envelope([c.step for c in chunk]) if envelope is not None else [None] * k
        means = np.array([c.avg_mean for c in chunk])
        gaps = _finite(duality_gap_bound(spec, JointPoint(x=means[:, :d], y=means[:, d:])))
        kls, w2s = [None] * k, [None] * k
        fits = GaussianDist(mean=means, cov=np.array([c.cov for c in chunk]))
        traces = np.trace(fits.cov, axis1=1, axis2=2).tolist()
        rows = np.flatnonzero(~fits.degenerate)
        if reference is not None and rows.size:
            if rows.size < k:  # no degenerate fit reaches KL or W2
                fits = GaussianDist(mean=means[rows], cov=fits.cov[rows])
            for i, kl, w2 in zip(rows.tolist(), gaussian_kl(fits, reference).tolist(),
                                 gaussian_w2(fits, reference).tolist()):
                kls[i], w2s[i] = kl, w2
        return [MetricsRecord(
            step=c.step,
            wall_time=c.wall_time,
            avg_mean=c.avg_mean,
            avg_cov_trace=trace,
            kl_fit_to_eq=kl,
            w2_fit_to_eq_sq=w2,
            grad_gap_bound=gap,
            coupling_dist_sq=c.distance,
            envelope_kl=env,
            bias_bound=bias_value,
        ) for c, trace, kl, w2, gap, env in zip(chunk, traces, kls, w2s, gaps.tolist(),
                                                envelopes)]

    def flush() -> None:
        nonlocal score_seconds
        if not captured:
            return
        start = time.perf_counter()
        chunk = captured[:]
        captured.clear()
        try:
            with _overflow_raises(FloatingPointError()):
                records.extend(score(chunk))
        except FloatingPointError:
            # Each row's statistics are its own: re-scored one at a time, the
            # first that overflows names its step.
            for c in chunk:
                overflow = DivergenceError(c.step, "checkpoint statistics overflowed")
                with _overflow_raises(overflow):
                    records.extend(score([c]))
        score_seconds += time.perf_counter() - start

    t_loop = time.perf_counter()
    try:
        _, final = run_algorithm(
            spec, ParticleState.stacked(*(state for state, _ in systems)),
            config.algorithm, config.seed, config.checkpoint_every, on_checkpoint=capture,
        )
    except DivergenceError:
        flush()  # a buffered checkpoint that overflows came first
        raise
    loop_seconds = time.perf_counter() - t_loop - score_seconds
    flush()
    t_write = time.perf_counter()
    final_state = final.system(0)
    if config.snapshots == "final":
        save_snapshot(out / "final_state.csv", final_state)

    csv_path = out / "metrics.csv"
    body = "\n".join([csv_header(d)] + [_csv_row(r) for r in records]) + "\n"
    write_ascii(csv_path, body)

    manifest = {
        "seed": config.seed,
        "alpha": constants.alpha,
        "smooth_L": constants.smooth_L,
        "eta": eta,
        "regime_checks": {
            "stability_eta_lt_alpha_over_2L2": bool(eta < constants.eta_stable),
            "strict_eta_le_alpha_over_64L2": bool(eta <= constants.eta_strict),
            "strict_eta_enforced": config.algorithm.strict_eta,
        },
        "variance_reading": "exact" if envelope is not None else "n/a",
        "equilibrium_reference": ("none" if reference is None else
                                  "exact" if quadratic else "gaussian_proxy"),
        "contraction_factor_M": contraction_factor(
            constants.alpha, constants.smooth_L, eta
        ),
        "coupling_enabled": coupled,
        "noise_scheme": NOISE_SCHEME,
        "drift_scheme": DRIFT_SCHEME,
        "constants_scheme": CONSTANTS_SCHEME,
        "config": serialize_config(config),
        "versions": {
            "minmax_langevin": __version__,
            "numpy": np.__version__,
            "numpy_simd": _numpy_simd(),
            "python": platform.python_version(),
        },
        "created_unix": time.time(),
        "runtime_seconds": time.perf_counter() - t_start,
        "timings": {
            "setup_s": t_loop - t_start,
            "loop_s": loop_seconds,
            "capture_s": capture_seconds,
            "score_s": score_seconds,
            "write_s": time.perf_counter() - t_write,
            "steps_per_s": config.algorithm.steps / loop_seconds,
        },
    }
    manifest_path = out / "manifest.json"
    write_ascii(manifest_path, json.dumps(manifest, indent=2) + "\n")
    return ReportBundle(
        output_dir=out,
        csv_path=csv_path,
        manifest_path=manifest_path,
        final_state=final_state,
        records=records,
    )
