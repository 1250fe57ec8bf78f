"""The drift's particle sum: one ``einsum`` pass on packed d-vector rows at
d >= 2, ``np.add.reduce`` on every other layout, with the bits of
``np.add.reduce(v, axis=-2, keepdims=True)`` on all of them (a NaN's payload
aside: NaN is compared with NaN)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from minmax_langevin import dynamics
from minmax_langevin.checks import default_specs
from minmax_langevin.dynamics import ParticleState, drift_particles

# Signed zeros, infinities and NaN, numbers within a few decades of 1, and
# any finite float, from subnormals to the largest.
ELEMENTS = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
                     st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False))

# The layouts einsum takes (a packed cloud, a probe stack's ``stack[:, 0]``
# or ``stack[:, 1]`` view) and the ones that keep add.reduce.
PACKED = ("packed", "probe view")
FALLBACK = ("d = 1", "F-ordered", "reversed")


@st.composite
def clouds(draw, count=1):
    """``count`` ``(..., n, d)`` clouds of one shape in one of the layouts above."""
    layout = draw(st.sampled_from(PACKED + FALLBACK))
    n = draw(st.integers(1, 24))
    d = 1 if layout == "d = 1" else draw(st.integers(2, 8))
    if layout == "probe view":
        lead = (draw(st.integers(1, 4)),)
        side = draw(st.integers(0, 1))
        return tuple(draw(arrays(float, lead + (2, n, d), elements=ELEMENTS))[:, side]
                     for _ in range(count))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    vs = [draw(arrays(float, lead + (n, d), elements=ELEMENTS)) for _ in range(count)]
    if layout == "F-ordered":
        vs = [np.asfortranarray(v) for v in vs]
    elif layout == "reversed":
        vs = [v[..., ::-1, :] for v in vs]
    return tuple(vs)


def reduced(v, by=lambda v: np.add.reduce(v, axis=-2, keepdims=True)):
    """``v`` summed over its particle axis, by add.reduce unless ``by`` is
    given, with numpy's warnings off: a sum of specials may overflow."""
    with np.errstate(all="ignore"):
        return by(v)


def same_bits(got, want):
    """Equal shapes and bytes, NaN against NaN whatever its payload."""
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(vs=clouds())
def test_the_particle_sum_has_add_reduce_bits_on_every_layout(vs):
    assert same_bits(reduced(vs[0], by=dynamics._particle_sum), reduced(vs[0]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pair=clouds(count=2), family=st.sampled_from([0, 1]))
def test_the_drift_takes_the_means_of_add_reduce(pair, family):
    xs, ys = pair
    spec = default_specs(xs.shape[-1])[family]
    n = xs.shape[-2]
    with np.errstate(all="ignore"):
        b_x, b_y = drift_particles(spec, ParticleState(xs=xs, ys=ys))
        want_x = -spec.grad_x(xs, reduced(ys) / n)
        want_y = spec.grad_y(reduced(xs) / n, ys)
    assert same_bits(b_x, want_x) and same_bits(b_y, want_y)


@pytest.mark.parametrize("shape", [(512, 8), (2, 64, 2), (3, 2000, 3)])
def test_long_clouds_over_many_decades_sum_as_add_reduce(shape):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-12, 12, shape[:-1] + (1,))
    assert reduced(v, by=dynamics._particle_sum).tobytes() == reduced(v).tobytes()


@pytest.mark.parametrize("make, packed", [
    (lambda: np.ones((512, 8)), True),
    (lambda: np.ones((2, 64, 2)), True),
    (lambda: np.ones((2000, 2, 8, 2))[:, 0], True),
    (lambda: np.ones((512, 1)), False),
    (lambda: np.asfortranarray(np.ones((3, 8, 2))), False),
    (lambda: np.ones((8, 2))[::-1], False),
], ids=["cloud", "coupled stack", "probe view", "d = 1", "F-ordered", "reversed"])
def test_einsum_runs_on_packed_rows_alone(monkeypatch, make, packed):
    calls = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args: calls.append(args) or einsum(*args))
    dynamics._particle_sum(make())
    assert len(calls) == packed
