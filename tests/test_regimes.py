"""The three step-size regimes of ``Constants``, checked at their float edges.

``eta_stable`` is an exclusive bound and ``eta_strict`` / ``eta_gd`` are
inclusive, so each consumer must accept the last admissible float and reject
the next one.
"""

import json

import numpy as np
import pytest

from minmax_langevin.checks import default_specs
from minmax_langevin.cli import main
from minmax_langevin.config import ExperimentConfig
from minmax_langevin.deterministic import JointPoint, gd_rate_audit
from minmax_langevin.dynamics import AlgorithmParams
from minmax_langevin.experiment import run_experiment
from minmax_langevin.payoff import QuadraticBilinear


def _dense_spec(dim=3, seed=0):
    rng = np.random.default_rng(seed)

    def spd():
        m = rng.standard_normal((dim, dim))
        a = m @ m.T + np.eye(dim)
        return 0.5 * (a + a.T)

    return QuadraticBilinear(dim=dim, A=spd(), B=spd(), C=rng.standard_normal((dim, dim)))


SPECS = [*default_specs(), _dense_spec()]
SPEC_IDS = ["quadratic", "perturbed", "dense"]


def _params(eta, strict_eta=False):
    return AlgorithmParams(eta=float(eta), tau=1.0, n_particles=2, steps=1,
                           strict_eta=strict_eta)


def _accepts(spec, eta, strict_eta=False):
    try:
        _params(eta, strict_eta).validate_for(spec)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_stability_bound_is_exclusive(spec):
    c = spec.constants()
    _params(np.nextafter(c.eta_stable, 0.0)).validate_for(spec)
    with pytest.raises(ValueError, match="stability regime"):
        _params(c.eta_stable).validate_for(spec)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_strict_bound_is_inclusive(spec):
    c = spec.constants()
    _params(c.eta_strict, strict_eta=True).validate_for(spec)
    with pytest.raises(ValueError, match="strict bias regime"):
        _params(np.nextafter(c.eta_strict, np.inf), strict_eta=True).validate_for(spec)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_gd_rate_bound_is_inclusive(spec):
    c = spec.constants()
    z0 = JointPoint(x=np.ones(spec.dim), y=-np.ones(spec.dim))
    records = gd_rate_audit(spec, z0, c.eta_gd, steps=5)
    assert len(records) == 6
    with pytest.raises(ValueError, match="eta_gd <= alpha"):
        gd_rate_audit(spec, z0, float(np.nextafter(c.eta_gd, np.inf)), steps=5)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_manifest_regime_flags_agree_with_validate_for(spec, tmp_path):
    c = spec.constants()
    edges = [c.eta_stable, np.nextafter(c.eta_stable, 0.0), c.eta_strict,
             np.nextafter(c.eta_strict, np.inf)]
    for i, eta in enumerate(edges):
        config = ExperimentConfig(payoff=spec, algorithm=_params(eta), seed=0,
                                  output_dir=str(tmp_path / f"run{i}"))
        if not _accepts(spec, eta):
            with pytest.raises(ValueError, match="stability regime"):
                run_experiment(config)
            continue
        manifest = json.loads(run_experiment(config).manifest_path.read_text())
        flags = manifest["regime_checks"]
        assert flags["stability_eta_lt_alpha_over_2L2"]
        assert flags["strict_eta_le_alpha_over_64L2"] == _accepts(spec, eta, True)


def test_plan_rejects_smooth_l_below_alpha(capsys):
    code = main(["plan", "--alpha", "1", "--smooth-l", "0.5", "--tau", "1",
                 "--dim", "1", "--eps", "0.1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("config error:")
    assert "alpha <= smooth_L" in err
