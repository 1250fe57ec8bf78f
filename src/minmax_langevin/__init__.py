"""Particle-based solver for entropy-regularized zero-sum games on R^d.

The package computes quantal response equilibria with the discrete-time
finite-particle min-max Langevin algorithm and ships the closed-form
Gaussian oracles, theory-bound calculators, and diagnostics used to verify
its certified convergence behavior.
"""

__version__ = "0.1.0"

from .payoff import (
    Constants,
    PerturbedQuadratic,
    QuadraticBilinear,
    check_gradient_fd,
)
from .rng import KeyedNoise, create_stream, derive_stream_id, standard_normal_block
from .deterministic import (
    EnvelopeViolation,
    JointPoint,
    duality_gap_bound,
    gd_rate_audit,
    gd_step,
    solve_equilibrium,
)
from .dynamics import (
    AlgorithmParams,
    DivergenceError,
    ParticleState,
    contraction_factor,
    coupled_contraction_run,
    drift_particles,
    joint_drift,
    load_snapshot,
    replicate_point,
    run_algorithm,
    save_snapshot,
    step_algorithm,
)
from .oracle import (
    GaussianDist,
    Plan,
    equilibrium_variance,
    gaussian_best_response,
    joint_equilibrium,
    kl_bias_bound,
    plan_parameters,
    quadratic_equilibrium,
    transient_kl_envelope,
    variance_and_fisher_bounds,
)
from .metrics import (
    MetricsRecord,
    empirical_w2_1d,
    fit_gaussian,
    gaussian_kl,
    gaussian_relative_fi,
    gaussian_w2,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    InitSpec,
    parse_config,
    serialize_config,
)
from .experiment import ReportBundle, run_experiment

__all__ = [
    "Constants",
    "QuadraticBilinear",
    "PerturbedQuadratic",
    "check_gradient_fd",
    "KeyedNoise",
    "create_stream",
    "derive_stream_id",
    "standard_normal_block",
    "JointPoint",
    "EnvelopeViolation",
    "gd_step",
    "solve_equilibrium",
    "duality_gap_bound",
    "gd_rate_audit",
    "ParticleState",
    "AlgorithmParams",
    "DivergenceError",
    "drift_particles",
    "joint_drift",
    "step_algorithm",
    "run_algorithm",
    "coupled_contraction_run",
    "contraction_factor",
    "replicate_point",
    "save_snapshot",
    "load_snapshot",
    "GaussianDist",
    "Plan",
    "gaussian_best_response",
    "quadratic_equilibrium",
    "joint_equilibrium",
    "equilibrium_variance",
    "plan_parameters",
    "variance_and_fisher_bounds",
    "kl_bias_bound",
    "transient_kl_envelope",
    "MetricsRecord",
    "fit_gaussian",
    "gaussian_kl",
    "gaussian_w2",
    "gaussian_relative_fi",
    "empirical_w2_1d",
    "ConfigError",
    "InitSpec",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "ReportBundle",
    "run_experiment",
]
