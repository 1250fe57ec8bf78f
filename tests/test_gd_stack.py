"""The GD envelope suite's stacked descent: both default families as one.

``run_all_checks`` descends the quadratic payoff and the perturbed payoff
built on it as one ``(2, 1, d)`` stack, taking the base's gradients once per
step and adding the ripple to the perturbed row only.  Each row must keep
the bits of the plain update on its own family at every step, and each
family's result must be the one its single-payoff check gives.
"""

import dataclasses

import numpy as np
import pytest
from test_mutants import SHIFTED

from minmax_langevin import checks, deterministic
from minmax_langevin.deterministic import _gd_update
from minmax_langevin.payoff import Constants, PerturbedQuadratic


def descent_identity_holds(pert, seed=0, steps=500):
    """Whether each row of the stacked descent of ``pert``'s base and
    ``pert`` equals, at every step, ``_gd_update`` iterated on its own
    family from the same point at its own ``eta_gd``."""
    specs = (pert.base, pert)
    etas = [spec.constants().eta_gd for spec in specs]
    x0, y0 = checks._normals(seed, "gd-envelope", 2, pert.dim)
    xs, ys = checks._descend_stack(pert, x0, y0, etas, steps)
    for row, (spec, eta) in enumerate(zip(specs, etas)):
        x, y = x0, y0
        for k in range(1, steps + 1):
            x, y = _gd_update(spec, x, y, eta)
            if not (np.array_equal(xs[k, row, 0], x) and np.array_equal(ys[k, row, 0], y)):
                return False
    return True


PAYOFFS = {
    **{f"default-{dim}d": checks.default_specs(dim)[1] for dim in (1, 2, 8)},
    "shifted-2d": PerturbedQuadratic(base=SHIFTED, amplitude=0.1, frequency=1.0),
}


@pytest.mark.parametrize("pert", PAYOFFS.values(), ids=PAYOFFS.keys())
@pytest.mark.parametrize("seed", [0, 9])
def test_each_row_of_the_stack_is_its_own_family_descent(pert, seed):
    assert descent_identity_holds(pert, seed=seed)


@pytest.mark.parametrize("seed", [0, 8])
def test_the_stacked_suite_is_each_family_check(seed):
    specs = checks.default_specs(2)
    results = checks._gd_envelope(specs, seed)
    assert results == [checks.check_gd_envelope(spec, seed=seed) for spec in specs]
    assert all(result.passed for result in results)


def with_constants(spec, alpha, smooth_L):
    """``spec`` with other certified constants; a PerturbedQuadratic built
    on it beforehand keeps its own."""
    object.__setattr__(spec, "_constants", Constants(alpha, smooth_L))
    return spec


def test_a_family_above_its_envelope_fails_as_its_own_check():
    quad, pert = checks.default_specs(2)
    # alpha = L = 10: an envelope of exp(-1/4) a step, at eta_gd = 1/40.
    with_constants(quad, 10.0, 10.0)
    results = checks._gd_envelope((quad, pert), 0)
    assert results == [checks.check_gd_envelope(spec, seed=0) for spec in (quad, pert)]
    assert [result.passed for result in results] == [False, True]
    assert results[0].detail.startswith("step ")


def test_a_family_whose_descent_goes_nan_fails_as_its_own_check():
    quad, pert = checks.default_specs(2)
    # alpha = L = 1e-3, so eta_gd = 250: the quadratic row overflows, then
    # turns NaN.
    with_constants(quad, 1e-3, 1e-3)
    with np.errstate(all="ignore"):
        xs, _ = checks._descend_stack(pert, *checks._normals(0, "gd-envelope", 2, 2),
                                      [quad.constants().eta_gd, pert.constants().eta_gd],
                                      checks._GD_STEPS)
    assert np.isnan(xs[-1, 0]).all() and np.isfinite(xs[:, 1]).all()
    results = checks._gd_envelope((quad, pert), 0)
    assert results == [checks.check_gd_envelope(spec, seed=0) for spec in (quad, pert)]
    assert [result.passed for result in results] == [False, True]


def test_a_failed_solve_keeps_its_own_fail_line(monkeypatch):
    # Off z* = 0 the perturbed solve needs steps, and gets none.
    monkeypatch.setattr(deterministic, "_MAX_ITERS", 0)
    specs = (SHIFTED, PAYOFFS["shifted-2d"])
    results = checks._gd_envelope(specs, 0)
    assert results == [checks.check_gd_envelope(spec, seed=0) for spec in specs]
    # The quadratic z* is solved directly, so only the perturbed line says so.
    assert not results[1].passed
    assert [result.detail.startswith("equilibrium solve stopped")
            for result in results] == [False, True]


def test_specs_that_are_not_base_plus_ripple_descend_one_by_one(monkeypatch):
    quad, pert = checks.default_specs(2)
    other = dataclasses.replace(quad)  # equal to quad, but not pert's base

    def refused(*args):
        raise AssertionError("stacked descent taken")

    monkeypatch.setattr(checks, "_descend_stack", refused)
    for specs in [(other, pert), (pert, quad), (quad,), (pert,), (quad, pert, pert)]:
        assert checks._gd_envelope(specs, 0) == [
            checks.check_gd_envelope(spec, seed=0) for spec in specs]

