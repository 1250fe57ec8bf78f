"""The property suites fail on NaN samples and refuse empty sample counts.

A suite that folded its samples with Python ``max``/``min`` would skip a NaN
and report PASS; these tests pin the numpy reduction that makes it FAIL.
"""

import math

import numpy as np
import pytest

from minmax_langevin import QuadraticBilinear, check_gradient_fd, checks

QUAD, PERT = checks.default_specs()


@pytest.fixture
def nan_grad_y(monkeypatch):
    """Make grad_y return NaN for both families (the perturbed one wraps it)."""

    def grad_y(self, x, y):
        return np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), np.nan)

    monkeypatch.setattr(QuadraticBilinear, "grad_y", grad_y)


@pytest.mark.parametrize("spec", [QUAD, PERT], ids=["quadratic", "perturbed"])
@pytest.mark.parametrize("check, kwargs", [
    (checks.check_gradients, {"tol": 1e-6}),
    (checks.check_monotonicity, {}),
    (checks.check_lipschitz, {}),
    (checks.check_contraction, {}),
    (checks.check_permutation_equivariance, {}),
], ids=["gradient_fd", "monotonicity", "lipschitz", "contraction", "permutation"])
def test_nan_gradient_fails_the_probe(nan_grad_y, spec, check, kwargs):
    result = check(spec, **kwargs)
    assert not result.passed
    assert "nan" in result.detail


def test_gradient_fd_of_a_nan_gradient_is_nan(nan_grad_y):
    assert math.isnan(check_gradient_fd(QUAD, np.zeros(2), np.ones(2)))


@pytest.mark.parametrize("name", ["gaussian_kl", "gaussian_w2"])
def test_nan_divergence_fails_talagrand_and_log_sobolev(monkeypatch, name):
    monkeypatch.setattr(checks, name, lambda p, q: math.nan)
    result = checks.check_functional_inequalities()
    assert result.name == "talagrand_and_log_sobolev"
    assert not result.passed


def test_nan_w2_fails_the_triangle_inequality(monkeypatch):
    monkeypatch.setattr(checks, "gaussian_w2", lambda p, q: math.nan)
    result = checks.check_w2_triangle()
    assert result.name == "gaussian_w2_triangle"
    assert not result.passed


@pytest.mark.parametrize("count", [0, -5])
@pytest.mark.parametrize("call, name", [
    (lambda n: checks.check_gradients(QUAD, tol=1e-8, points=n), "points"),
    (lambda n: checks.check_monotonicity(QUAD, pairs=n), "pairs"),
    (lambda n: checks.check_functional_inequalities(pairs=n), "pairs"),
    (lambda n: checks.check_w2_triangle(triples=n), "triples"),
], ids=["gradients", "pair-sweep", "functional", "triangle"])
def test_fewer_than_one_sample_is_rejected(call, name, count):
    with pytest.raises(ValueError, match=f"{name} must be at least 1"):
        call(count)
