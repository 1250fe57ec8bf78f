"""Certified constants: exact, computed once, and recorded in the manifest."""

import json
import math

import numpy as np
import pytest

from minmax_langevin import (
    AlgorithmParams,
    GaussianDist,
    PerturbedQuadratic,
    QuadraticBilinear,
    equilibrium_variance,
    gaussian_best_response,
    kl_bias_bound,
    parse_config,
    plan_parameters,
    quadratic_equilibrium,
    run_experiment,
    solve_equilibrium,
    transient_kl_envelope,
    variance_and_fisher_bounds,
)
from minmax_langevin.cli import main

EYE2 = np.eye(2)

# Payoffs whose top Hessian eigenvector is orthogonal to the all-ones vector,
# with their exact smoothness constants.
ORTHOGONAL_START = [
    (QuadraticBilinear(dim=2, A=[[2.0, -1.0], [-1.0, 2.0]], B=EYE2,
                       C=np.zeros((2, 2))), 3.0),
    (QuadraticBilinear(dim=2, A=EYE2, B=EYE2, C=[[1.5, -1.5], [-1.5, 1.5]]),
     math.sqrt(10.0)),
]


def random_dense_spec(rng):
    d = int(rng.integers(1, 7))
    a = rng.normal(size=(d, d))
    b = rng.normal(size=(d, d))
    return QuadraticBilinear(
        dim=d,
        A=a @ a.T + 0.1 * np.eye(d),
        B=b @ b.T + 0.1 * np.eye(d),
        C=rng.normal(size=(d, d)),
    )


class TestExactConstants:
    def test_smooth_l_is_the_spectral_norm_of_random_dense_specs(self):
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            spec = random_dense_spec(rng)
            norm = np.linalg.norm(spec.hessian_joint(), 2)  # SVD-based
            assert spec.constants().smooth_L == pytest.approx(norm, rel=1e-12)

    @pytest.mark.parametrize("spec, exact", ORTHOGONAL_START)
    def test_smooth_l_when_the_top_eigenvector_is_orthogonal_to_ones(
        self, spec, exact
    ):
        norm = np.linalg.norm(spec.hessian_joint(), 2)
        assert norm == pytest.approx(exact, rel=1e-15)
        assert spec.constants().smooth_L == pytest.approx(exact, rel=1e-12)

    def test_perturbed_constants_shift_the_base(self):
        base = ORTHOGONAL_START[1][0]
        spec = PerturbedQuadratic(base=base, amplitude=0.1, frequency=1.5)
        shift = 0.1 * 1.5**2
        c, cb = spec.constants(), base.constants()
        assert c.alpha == cb.alpha - shift
        assert c.smooth_L == cb.smooth_L + shift

    def test_perturbed_amplitude_cap_uses_base_alpha(self):
        base = ORTHOGONAL_START[0][0]  # alpha = 1
        PerturbedQuadratic(base=base, amplitude=0.5, frequency=1.0)
        with pytest.raises(ValueError, match="exceeds half"):
            PerturbedQuadratic(base=base, amplitude=0.5 + 1e-12, frequency=1.0)


UNDER_REPORTED = """
payoff.kind = QuadraticBilinear
payoff.dim = 2
payoff.A = [1.0, 0.0, 0.0, 1.0]
payoff.B = [1.0, 0.0, 0.0, 1.0]
payoff.C = [1.5, -1.5, -1.5, 1.5]
tau = 1.0
seed = 3
algorithm.eta = 0.4
algorithm.n_particles = 8
algorithm.steps = 200
output.dir = {out}
"""


class TestCertifiedRegime:
    def test_run_rejects_a_step_size_outside_the_true_stability_regime(
        self, tmp_path, capsys
    ):
        # eta_stable = 1 / (2 * 10) = 0.05; an L of 1 would certify eta < 0.5.
        cfg_path = tmp_path / "under.cfg"
        cfg_path.write_text(UNDER_REPORTED.format(out=tmp_path / "run"))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "stability regime" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_manifest_pins_the_constants_scheme(self, tmp_path):
        text = UNDER_REPORTED.format(out=tmp_path / "run")
        text = text.replace("algorithm.eta = 0.4", "algorithm.eta = 0.01")
        text = text.replace("algorithm.steps = 200", "algorithm.steps = 2")
        bundle = run_experiment(parse_config(text))
        manifest = json.loads(bundle.manifest_path.read_text())
        assert manifest["constants_scheme"] == (
            "exact: alpha = min(eigvalsh(A), eigvalsh(B)), "
            "L = max |eigvalsh([[A, C], [C', -B]])|; perturbed: "
            "alpha - amp*freq**2, L + amp*freq**2"
        )
        assert manifest["smooth_L"] == pytest.approx(math.sqrt(10.0), rel=1e-12)


NAN = float("nan")


class TestNanParameters:
    def test_plan_rejects_nan_tau(self):
        with pytest.raises(ValueError, match="tau must be positive"):
            plan_parameters(1, 1, NAN, 1, 0.1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"eps": NAN}, "eps must be positive"),
        ({"z_star_norm_sq": NAN}, "z_star_norm_sq must be nonnegative"),
    ])
    def test_plan_rejects_nan_eps_and_distance(self, kwargs, message):
        args = {"eps": 0.1, "z_star_norm_sq": 0.0, **kwargs}
        with pytest.raises(ValueError, match=message):
            plan_parameters(1.0, 1.0, 1.0, 1, **args)

    def test_algorithm_params_reject_nan_tau(self):
        with pytest.raises(ValueError, match="tau must be nonnegative"):
            AlgorithmParams(eta=0.01, tau=NAN, n_particles=4, steps=3)

    def test_algorithm_params_reject_nan_eta(self):
        with pytest.raises(ValueError, match="eta must be positive"):
            AlgorithmParams(eta=NAN, tau=1.0, n_particles=4, steps=3)

    def test_bounds_reject_nan_tau_eta_and_distance(self):
        with pytest.raises(ValueError):
            variance_and_fisher_bounds(1.0, 1.0, NAN, 1)
        with pytest.raises(ValueError):
            variance_and_fisher_bounds(1.0, 1.0, 1.0, 1, NAN)
        with pytest.raises(ValueError):
            kl_bias_bound(1.0, 1.0, NAN, 1, 8, 0.01, 1.0)
        with pytest.raises(ValueError):
            kl_bias_bound(1.0, 1.0, 1.0, 1, 8, NAN, 1.0)
        with pytest.raises(ValueError):
            transient_kl_envelope(3.0, 2.0, 1.0, 1.0, NAN, 0.1, 0, 0.0, 4)
        with pytest.raises(ValueError):
            transient_kl_envelope(3.0, 2.0, 1.0, 1.0, 1.0, NAN, 0, 0.0, 4)

    def test_best_response_rejects_nan_tau(self):
        rho = GaussianDist.isotropic(np.zeros(2), 1.0)
        with pytest.raises(ValueError, match="tau must be positive"):
            gaussian_best_response(ORTHOGONAL_START[0][0], NAN, rho, rho)

    def test_quadratic_equilibrium_rejects_nan_tau(self):
        with pytest.raises(ValueError, match="tau must be positive"):
            quadratic_equilibrium(ORTHOGONAL_START[0][0], NAN)

    def test_equilibrium_variance_rejects_nan_tau(self):
        with pytest.raises(ValueError, match="tau must be positive"):
            equilibrium_variance(ORTHOGONAL_START[0][0], NAN)

    @pytest.mark.parametrize("position", [0, 1, 7], ids=["kl", "w2", "bias"])
    def test_transient_envelope_rejects_nan_divergence_or_bias(self, position):
        args = [3.0, 2.0, 1.0, 1.0, 1.0, 0.1, 0, 0.0, 4]
        args[position] = NAN
        with pytest.raises(ValueError, match="must be nonnegative"):
            transient_kl_envelope(*args)

    def test_kl_bias_bound_rejects_nan_variance(self):
        with pytest.raises(ValueError, match="must be positive"):
            kl_bias_bound(1.0, 1.0, 1.0, 1, 8, 0.01, NAN)

    def test_solve_equilibrium_rejects_nan_tol(self):
        pert = PerturbedQuadratic(base=ORTHOGONAL_START[0][0], amplitude=0.1,
                                  frequency=1.0)
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_equilibrium(pert, tol=NAN)
