"""Experiment orchestration: warm start, particle run, metrics, CSV report.

A run executes, in order: (1) equilibrium warm start when requested, (2)
i.i.d. Gaussian particle initialization from keyed noise streams, (3) the
particle algorithm with metric checkpoints, and (4), for quadratic payoffs,
attachment of the one-sided theory envelopes to every checkpoint row.

Outputs are a metrics CSV whose body is a pure function of the config (so
reruns are byte-identical) and a JSON manifest holding everything else:
config echo, certified constants, regime checks, which variance reading fed
the envelopes, library versions and timing.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

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
    DivergenceError,
    ParticleState,
    coupled_contraction_run,
    contraction_factor,
    coupling_distance_sq,
    load_snapshot,
    run_algorithm,
    save_snapshot,
)
from .metrics import MetricsRecord, fit_gaussian, gaussian_kl, gaussian_w2
from .oracle import (
    GaussianDist,
    equilibrium_variance,
    joint_equilibrium,
    kl_bias_bound,
    transient_kl_envelope,
)
from .payoff import PerturbedQuadratic, QuadraticBilinear
from .rng import KeyedNoise

__all__ = ["ReportBundle", "run_experiment", "csv_header", "initial_state"]


@dataclass(frozen=True)
class ReportBundle:
    """Paths of the artifacts one run produced."""

    output_dir: Path
    csv_path: Path
    manifest_path: Path
    final_state: ParticleState
    records: list


def csv_header(dim: int) -> str:
    mean_cols = ",".join(f"avg_mean_{i}" for i in range(2 * dim))
    return (
        f"step,{mean_cols},avg_cov_trace,kl_fit_to_eq,w2_fit_to_eq_sq,"
        f"grad_gap_bound,coupling_dist_sq,envelope_kl,bias_bound"
    )


def _cell(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".17g")


def _csv_row(record: MetricsRecord) -> str:
    cells = [str(record.step)]
    cells += [_cell(v) for v in record.avg_mean]
    cells += [
        _cell(record.avg_cov_trace),
        _cell(record.kl_fit_to_eq),
        _cell(record.w2_fit_to_eq_sq),
        _cell(record.grad_gap_bound),
        _cell(record.coupling_dist_sq),
        _cell(record.envelope_kl),
        _cell(record.bias_bound),
    ]
    return ",".join(cells)


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


def _equilibrium_reference(spec, tau: float):
    """The KL/W2 reference distribution and how it should be labeled.

    Quadratic payoffs have the exact Gaussian equilibrium.  For the perturbed
    family the reference is the curvature-matched Gaussian at the saddle
    point (a proxy: the true equilibrium is non-Gaussian), labeled so in the
    manifest.
    """
    if tau <= 0.0:
        return None, "none"
    if isinstance(spec, QuadraticBilinear):
        return joint_equilibrium(spec, tau), "exact"
    assert isinstance(spec, PerturbedQuadratic)
    z_star, _ = solve_equilibrium(spec)
    shift = spec.amplitude * spec.frequency**2
    d = spec.dim
    h_x = spec.base.A - shift * np.diag(np.cos(spec.frequency * z_star.x))
    h_y = spec.base.B - shift * np.diag(np.cos(spec.frequency * z_star.y))
    cov = np.zeros((2 * d, 2 * d))
    cov[:d, :d] = tau * np.linalg.inv(h_x)
    cov[d:, d:] = tau * np.linalg.inv(h_y)
    return GaussianDist(mean=z_star.vector, cov=cov), "gaussian_proxy"


def run_experiment(config: ExperimentConfig, output_dir=None) -> ReportBundle:
    """Execute a configured run and write metrics.csv + manifest.json."""
    t_start = time.perf_counter()
    spec = config.payoff
    constants = spec.constants()
    d = spec.dim
    n = config.algorithm.n_particles
    out = Path(output_dir if output_dir is not None else config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        key = "output.dir" if output_dir is None else "--output-dir"
        raise ConfigError(f"{key}: cannot create {out}: {exc}") from exc

    noise = KeyedNoise(config.seed)
    init_state_a, init_law = initial_state(config, config.init, noise)

    reference, reference_mode = _equilibrium_reference(spec, config.tau)
    quadratic = isinstance(spec, QuadraticBilinear)

    # Theory envelopes only exist for the quadratic family with a Gaussian
    # initialization law and positive temperature.
    envelope = None
    bias_value = None
    variance_reading = "n/a"
    if quadratic and config.tau > 0.0 and init_law is not None:
        var_exact = equilibrium_variance(spec, config.tau)
        variance_reading = "exact"
        bias_value = kl_bias_bound(
            constants.alpha, constants.smooth_L, config.tau, d, n,
            config.algorithm.eta, var_exact,
        )
        kl0 = gaussian_kl(init_law, reference)
        w20 = gaussian_w2(init_law, reference)

        def envelope(step: int, _bias=bias_value) -> float:
            return transient_kl_envelope(
                n * kl0, n * w20, constants.alpha, constants.smooth_L,
                config.tau, config.algorithm.eta, step, _bias, n,
            )

    # A coupled run steps systems A and B as one stacked pair sharing each
    # step's noise; every output but the coupling distance is system A's.
    coupled = config.coupled is not None
    init = init_state_a
    if coupled:
        init_state_b, _ = initial_state(config, config.coupled, noise)
        init = ParticleState.stacked(init_state_a, init_state_b)

    def record(step: int, pair: ParticleState) -> MetricsRecord:
        state = pair.system(0) if coupled else pair
        if config.snapshots == "all":
            save_snapshot(out / f"snapshot_{step:08d}.csv", state)
        pairs = state.pairs()
        avg_mean = pairs.mean(axis=0)
        if not np.isfinite(avg_mean).all():
            raise DivergenceError(step, "checkpoint statistics overflowed")
        fit, degenerate = (None, True)
        if state.n_particles >= 2:
            fit, degenerate = fit_gaussian(pairs)
        cov_trace = float(np.trace(fit.cov)) if fit is not None else 0.0
        kl = w2 = None
        if reference is not None and fit is not None and not degenerate:
            kl = gaussian_kl(fit, reference)
            w2 = gaussian_w2(fit, reference)
        gap = duality_gap_bound(spec, JointPoint(x=avg_mean[:d], y=avg_mean[d:]))
        return MetricsRecord(
            step=step,
            wall_time=time.perf_counter() - t_start,
            avg_mean=avg_mean,
            avg_cov_trace=cov_trace,
            kl_fit_to_eq=kl,
            w2_fit_to_eq_sq=w2,
            grad_gap_bound=gap,
            coupling_dist_sq=coupling_distance_sq(pair) if coupled else None,
            envelope_kl=envelope(step) if envelope is not None else None,
            bias_bound=bias_value,
        )

    checkpoints, final = run_algorithm(
        spec, init, config.algorithm, config.seed,
        config.checkpoint_every, on_checkpoint=record,
    )
    final_state = final.system(0) if coupled else final
    records = [rec for _, rec in checkpoints]
    if config.snapshots == "final":
        save_snapshot(out / "final_state.csv", final_state)

    csv_path = out / "metrics.csv"
    body = "\n".join([csv_header(d)] + [_csv_row(r) for r in records]) + "\n"
    csv_path.write_text(body, encoding="ascii")

    manifest = {
        "seed": config.seed,
        "alpha": constants.alpha,
        "smooth_L": constants.smooth_L,
        "eta": config.algorithm.eta,
        "regime_checks": {
            "stability_eta_lt_alpha_over_2L2": bool(
                config.algorithm.eta < constants.alpha / (2 * constants.smooth_L**2)
            ),
            "strict_eta_le_alpha_over_64L2": bool(
                config.algorithm.eta <= constants.alpha / (64 * constants.smooth_L**2)
            ),
            "strict_eta_enforced": config.algorithm.strict_eta,
        },
        "variance_reading": variance_reading,
        "equilibrium_reference": reference_mode,
        "contraction_factor_M": contraction_factor(
            constants.alpha, constants.smooth_L, config.algorithm.eta
        ),
        "coupling_enabled": coupled,
        "noise_scheme": "v2: numpy philox4x64-10; particle block row i = "
        "words i*d..i*d+d-1 at key (seed, sha256 role code), counter word 1 = "
        "step; u = ((w >> 12) + 0.5) * 2**-52; inverse-CDF gaussians",
        "drift_scheme": "mean-field: b_X[i] = -grad_x V(x^i, mean_j y^j), "
        "b_Y[i] = grad_y V(mean_j x^j, y^i); particle means by numpy mean "
        "over the particle axis",
        "config": serialize_config(config),
        "versions": {
            "minmax_langevin": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "created_unix": time.time(),
        "runtime_seconds": time.perf_counter() - t_start,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="ascii")
    return ReportBundle(
        output_dir=out,
        csv_path=csv_path,
        manifest_path=manifest_path,
        final_state=final_state,
        records=records,
    )
