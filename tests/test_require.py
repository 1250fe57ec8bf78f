"""The one sign rule: every sign-constrained argument fails, NaN included,
with a message that names the argument."""

import math

import numpy as np
import pytest

from minmax_langevin import (
    GaussianDist,
    JointPoint,
    MetricsRecord,
    ParticleState,
    PerturbedQuadratic,
    QuadraticBilinear,
    contraction_factor,
    gd_step,
    kl_bias_bound,
    plan_parameters,
    transient_kl_envelope,
    variance_and_fisher_bounds,
)
from minmax_langevin.deterministic import gd_rate_audit
from minmax_langevin.payoff import require
from minmax_langevin.rng import KeyedNoise, standard_normal_block

NAN = math.nan
QUAD = QuadraticBilinear(dim=2, A=np.eye(2), B=np.eye(2), C=0.5 * np.eye(2))
ORIGIN = JointPoint(x=np.zeros(2), y=np.zeros(2))


def metrics_record(**divergences):
    return MetricsRecord(step=0, wall_time=0.0, avg_mean=np.zeros(4),
                         avg_cov_trace=1.0, **divergences)


@pytest.mark.parametrize("rule, good, bad", [
    ("positive", [1e-300, 2, math.inf], [0, -1.0, NAN, -math.inf]),
    ("nonnegative", [0, 0.0, 3], [-1, -1e-300, NAN]),
    ("at least 1", [1, 1.0, 7], [0, 0.5, -2, NAN]),
])
def test_each_rule_rejects_nan_and_out_of_range_values(rule, good, bad):
    for value in good:
        require(rule, x=value)
    for value in bad:
        with pytest.raises(ValueError, match=f"^x must be {rule}$"):
            require(rule, x=value)


def test_the_first_failing_value_is_named():
    with pytest.raises(ValueError, match="^b must be positive$"):
        require("positive", a=1.0, b=0.0, c=NAN)


@pytest.mark.parametrize("call, message", [
    (lambda: PerturbedQuadratic(base=QUAD, amplitude=NAN, frequency=1.0),
     "amplitude must be nonnegative"),
    (lambda: PerturbedQuadratic(base=QUAD, amplitude=0.1, frequency=NAN),
     "frequency must be positive"),
    (lambda: PerturbedQuadratic(base=QUAD, amplitude=0.1, frequency=1e200),
     r"frequency\*\*2 is outside floating-point range, got frequency=1e\+200"),
    (lambda: PerturbedQuadratic(base=QUAD, amplitude=0.0, frequency=math.inf),
     r"frequency\*\*2 is outside floating-point range, got frequency=inf"),
    (lambda: PerturbedQuadratic(base=QUAD, amplitude=0.1, frequency=10**200),
     rf"frequency\*\*2 is outside floating-point range, got frequency={10**200}"),
    (lambda: QuadraticBilinear(dim=1, A=[[NAN]], B=[[1.0]], C=[[0.5]]),
     "A must be finite"),
    (lambda: QuadraticBilinear(dim=1, A=[[math.inf]], B=[[1.0]], C=[[0.5]]),
     "A must be finite"),
    (lambda: QuadraticBilinear(dim=1, A=[[1.0]], B=[[NAN]], C=[[0.5]]),
     "B must be finite"),
    (lambda: QuadraticBilinear(dim=1, A=[[1.0]], B=[[math.inf]], C=[[0.5]]),
     "B must be finite"),
    (lambda: QuadraticBilinear(dim=1, A=[[1.0]], B=[[1.0]], C=[[NAN]]),
     "C must be finite"),
    (lambda: QuadraticBilinear(dim=1, A=[[1.0]], B=[[1.0]], C=[[-math.inf]]),
     "C must be finite"),
    (lambda: QuadraticBilinear(dim=1, A=[[1.0]], B=[[1.0]], C=[[0.5]], u=[NAN]),
     "u must be finite"),
    (lambda: QuadraticBilinear(dim=1, A=[[1.0]], B=[[1.0]], C=[[0.5]], u=[math.inf]),
     "u must be finite"),
    (lambda: QuadraticBilinear(dim=1, A=[[1.0]], B=[[1.0]], C=[[0.5]], v=[NAN]),
     "v must be finite"),
    (lambda: QuadraticBilinear(dim=1, A=[[1.0]], B=[[1.0]], C=[[0.5]], v=[-math.inf]),
     "v must be finite"),
    (lambda: QuadraticBilinear(dim=1, A=[[1e200]], B=[[1.0]], C=[[0.5]]),
     r"smooth_L\*\*4 is outside floating-point range, got smooth_L=1e\+200"),
    (lambda: QuadraticBilinear(dim=1, A=[[1e100]], B=[[1.0]], C=[[0.5]]),
     r"smooth_L\*\*4 is outside floating-point range, got smooth_L=1e\+100"),
    (lambda: gd_step(QUAD, ORIGIN, NAN), "eta_gd must be nonnegative"),
    (lambda: metrics_record(kl_fit_to_eq=NAN), "kl_fit_to_eq must be nonnegative"),
    (lambda: metrics_record(w2_fit_to_eq_sq=NAN),
     "w2_fit_to_eq_sq must be nonnegative"),
    (lambda: contraction_factor(1.0, 1.0, NAN), "eta must be positive"),
    (lambda: transient_kl_envelope(3.0, 2.0, 1.0, 1.0, 1.0, 0.1, NAN, 0.0, 4),
     "k must be nonnegative"),
    (lambda: kl_bias_bound(1.0, 1.0, 1.0, NAN, 8, 0.01, 1.0), "d must be at least 1"),
    (lambda: kl_bias_bound(1.0, 1.0, 1.0, 1, NAN, 0.01, 1.0),
     "n_particles must be at least 1"),
    (lambda: variance_and_fisher_bounds(1.0, 1.0, 1.0, NAN), "d must be at least 1"),
    (lambda: plan_parameters(1.0, 1.0, 1.0, NAN, 0.1), "d must be at least 1"),
    (lambda: ParticleState(np.zeros((3, 2)), np.zeros((3, 2)), step=NAN),
     "step must be nonnegative"),
    (lambda: GaussianDist.isotropic(np.zeros(2), NAN), "scale must be nonnegative"),
    (lambda: KeyedNoise(0).block("x", 2, NAN, 1), "step must be nonnegative"),
    (lambda: standard_normal_block(0, 1, 0, NAN), "n must be at least 1"),
    (lambda: GaussianDist(mean=[NAN, 0.0], cov=np.eye(2)), "mean and cov must be finite"),
    (lambda: GaussianDist(mean=[math.inf, 0.0], cov=np.eye(2)),
     "mean and cov must be finite"),
    (lambda: GaussianDist(mean=np.zeros(2), cov=np.diag([math.inf, 1.0])),
     "mean and cov must be finite"),
    (lambda: GaussianDist(mean=np.zeros(2), cov=np.diag([NAN, 1.0])),
     "mean and cov must be finite"),
], ids=["amplitude", "frequency", "frequency-squared", "frequency-inf",
        "frequency-int",
        "A-nan", "A-inf", "B-nan", "B-inf", "C-nan", "C-inf", "u-nan", "u-inf",
        "v-nan", "v-inf", "smooth_L-1e200", "smooth_L-1e100",
        "gd_step", "record-kl", "record-w2", "contraction", "envelope-k", "bias-d",
        "bias-n", "fisher-d", "plan-d", "state-step", "isotropic",
        "keyed-step", "block-n", "gaussian-nan-mean",
        "gaussian-inf-mean", "gaussian-inf-cov", "gaussian-nan-cov"])
def test_an_unchecked_argument_is_rejected_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: plan_parameters(1.0, 1.0, 1.0, 0, 0.1), "d must be at least 1"),
    (lambda: kl_bias_bound(1.0, 1.0, 1.0, 1, 0, 0.01, 1.0),
     "n_particles must be at least 1"),
    (lambda: transient_kl_envelope(3.0, 2.0, 1.0, 1.0, 1.0, 0.1, -1, 0.0, 4),
     "k must be nonnegative"),
], ids=["plan-d", "bias-n", "envelope-k"])
def test_a_shared_message_now_names_its_field(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_contraction_factor_checks_its_constants():
    with pytest.raises(ValueError, match="alpha <= smooth_L"):
        contraction_factor(2.0, 1.0, 0.1)


@pytest.mark.parametrize("eta_gd, steps, message", [
    (QUAD.constants().eta_gd, -3, "steps must be nonnegative"),
    (NAN, 0, "eta_gd must be nonnegative"),
    (NAN, 5, "eta_gd must be nonnegative"),
], ids=["negative-steps", "nan-eta-no-steps", "nan-eta"])
def test_gd_rate_audit_rejects_bad_arguments(eta_gd, steps, message):
    # Before: steps=-3 audited nothing and returned [], and a NaN eta_gd with
    # steps=0 recorded a NaN envelope.
    with pytest.raises(ValueError, match=f"^{message}$"):
        gd_rate_audit(QUAD, ORIGIN, eta_gd, steps)
