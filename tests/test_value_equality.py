"""Equality of the value types that hold arrays: one rule, ``payoff.same_fields``.

Two values are equal when they have the same type and every dataclass field
is equal, arrays compared by ``np.array_equal``.  So ``==`` is a bool on every
such type, including the three whose generated dataclass ``==`` compared
arrays with ``==`` and raised; all of them stay unhashable.
"""

import dataclasses

import numpy as np
import pytest

from minmax_langevin import (
    GaussianDist,
    JointPoint,
    MetricsRecord,
    ParticleState,
    PerturbedQuadratic,
    QuadraticBilinear,
)
from minmax_langevin.payoff import same_fields


def _quadratic(c=0.5, u=None):
    return QuadraticBilinear(dim=2, A=np.eye(2), B=2.0 * np.eye(2), C=c * np.eye(2), u=u)


def _record(avg_mean=(1.0, 2.0), kl=0.25):
    return MetricsRecord(step=3, wall_time=0.5, avg_mean=np.array(avg_mean),
                         avg_cov_trace=1.5, kl_fit_to_eq=kl)


# name -> (build one value, the same value from fresh arrays, values that differ
# in one field each: an array entry, then a scalar where the type has one).
CASES = {
    "QuadraticBilinear": (
        lambda: _quadratic(),
        [lambda: _quadratic(u=[0.0, 0.0])],
        [lambda: _quadratic(c=0.25), lambda: _quadratic(u=[0.0, 1e-300])],
    ),
    "PerturbedQuadratic": (
        lambda: PerturbedQuadratic(base=_quadratic(), amplitude=0.1, frequency=1.0),
        [],
        [lambda: PerturbedQuadratic(base=_quadratic(c=0.25), amplitude=0.1, frequency=1.0),
         lambda: PerturbedQuadratic(base=_quadratic(), amplitude=0.2, frequency=1.0)],
    ),
    "GaussianDist": (
        lambda: GaussianDist(mean=np.zeros(2), cov=np.eye(2)),
        [lambda: GaussianDist.isotropic([0.0, 0.0], 1.0)],
        [lambda: GaussianDist(mean=np.zeros(2), cov=2.0 * np.eye(2)),
         lambda: GaussianDist(mean=np.ones(2), cov=np.eye(2))],
    ),
    "JointPoint": (
        lambda: JointPoint(np.ones(2), np.ones(2)),
        [lambda: JointPoint([1.0, 1.0], [1.0, 1.0])],
        [lambda: JointPoint(np.ones(2), np.array([1.0, 2.0])),
         lambda: JointPoint(np.ones((1, 2)), np.ones((1, 2)))],
    ),
    "ParticleState": (
        lambda: ParticleState(xs=np.ones((3, 2)), ys=np.zeros((3, 2)), step=4),
        [lambda: ParticleState(xs=np.ones((3, 2)).tolist(), ys=np.zeros((3, 2)), step=4)],
        [lambda: ParticleState(xs=np.ones((3, 2)), ys=np.ones((3, 2)), step=4),
         lambda: ParticleState(xs=np.ones((3, 2)), ys=np.zeros((3, 2)), step=5)],
    ),
    "MetricsRecord": (
        lambda: _record(),
        [],
        [lambda: _record(avg_mean=(1.0, 3.0)), lambda: _record(kl=None)],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
class TestOneEqualityRule:
    def test_equal_values_from_fresh_arrays(self, name):
        build, same, _ = CASES[name]
        value = build()
        for other in [build, *same]:
            assert (value == other()) is True
            assert (value != other()) is False

    def test_one_differing_field_is_unequal(self, name):
        build, _, different = CASES[name]
        for other in different:
            assert (build() == other()) is False
            assert (build() != other()) is True

    def test_another_type_is_unequal(self, name):
        value = CASES[name][0]()
        assert value != object() and value != None  # noqa: E711
        assert same_fields(value, object()) is NotImplemented

    def test_it_is_the_shared_rule(self, name):
        value = CASES[name][0]()
        assert type(value).__eq__ is same_fields
        assert dataclasses.is_dataclass(value)

    def test_unhashable(self, name):
        with pytest.raises(TypeError):
            hash(CASES[name][0]())


def test_a_stacked_law_compares_its_degenerate_flags():
    # GaussianDist's derived `degenerate` is a field: a bool, or an array of them.
    stack = GaussianDist(mean=np.zeros((2, 1)), cov=np.array([[[1.0]], [[0.0]]]))
    again = GaussianDist(mean=np.zeros((2, 1)), cov=np.array([[[1.0]], [[0.0]]]))
    assert stack == again
    assert stack != GaussianDist(mean=np.zeros((2, 1)), cov=np.array([[[1.0]], [[1.0]]]))


def test_array_fields_compare_by_value_not_identity():
    xs = np.arange(6.0).reshape(3, 2)
    state = ParticleState(xs=xs, ys=xs)
    copy = ParticleState(xs=xs.copy(), ys=xs.copy())
    assert state == copy
    copy.xs[0, 0] = -1.0
    assert state != copy
