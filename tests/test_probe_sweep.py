"""The pair suites' shared sweep: one draw per chunk for every payoff family.

``run_all_checks`` runs each pair suite's body on both default payoffs at
once; a family's result must be the one its single-payoff check gives, at
any chunk size, and the two families must share each chunk's draw.  The
sweep drifts each chunk once, under the quadratic base, and the perturbed
family adds its ripple; the identity that allows this is checked here
value for value.
"""

import dataclasses

import numpy as np
import pytest
from test_probe_driver import _load_tracer

from minmax_langevin import checks
from minmax_langevin.dynamics import (ParticleState, batched_joint_drift,
                                      drift_particles, joint_drift)

SUITES = [(checks._monotonicity, checks.check_monotonicity),
          (checks._lipschitz, checks.check_lipschitz),
          (checks._contraction, checks.check_contraction)]


@pytest.mark.parametrize("chunk", [2000, 999])
@pytest.mark.parametrize("body, check", SUITES, ids=["monotone", "lipschitz", "contraction"])
def test_each_family_of_a_shared_sweep_is_its_own_check(monkeypatch, chunk, body, check):
    monkeypatch.setattr(checks, "_PROBE_CHUNK", chunk)
    specs = checks.default_specs(2)
    assert body(specs, 3) == [check(spec, seed=3) for spec in specs]


def test_two_families_share_each_chunk_draw_under_the_tracer(monkeypatch):
    tracer = _load_tracer()
    monkeypatch.setattr(checks, "_PROBE_CHUNK", 999)
    t = tracer.Tracer()
    with tracer.patched(t, tracer.resolve()):
        results = checks._lipschitz(checks.default_specs(2), 0)
    assert all(result.passed for result in results)
    # 1000 pairs as 999 + 1: one draw per chunk, both point sets of both
    # families drifted from it.
    assert t.calls["rng.stream_draw"] == 2
    assert t.counts["checks.probes"] == 2000


def perturbed_payoffs(dim):
    """The default perturbed payoff and one with another amplitude and
    frequency, on the same quadratic base."""
    _, pert = checks.default_specs(dim)
    return [pert, dataclasses.replace(pert, amplitude=0.05, frequency=2.0)]


def ripple_identity_holds(pert, seed=0, n=8):
    """Whether the drift of ``pert`` is, value for value, its base's drift
    plus ``ripple`` of the point: batched over rows of joint vectors, on a
    plain (n, d) cloud and on a stack of three, and per role."""
    rng = np.random.default_rng(seed)
    d = pert.dim
    base = pert.base
    zs = 2.0 * rng.standard_normal((5, 2 * n * d))
    zs[0, :3] = 0.0  # sin(0) = 0: the ripple adds an exact zero
    same = [np.array_equal(batched_joint_drift(pert, zs, n, d),
                           batched_joint_drift(base, zs, n, d) + pert.ripple(zs))]
    for shape in [(n, d), (3, n, d)]:
        state = ParticleState(xs=rng.standard_normal(shape),
                              ys=rng.standard_normal(shape))
        z = np.concatenate([state.xs.reshape(shape[:-2] + (-1,)),
                            state.ys.reshape(shape[:-2] + (-1,))], axis=-1)
        same.append(np.array_equal(joint_drift(pert, state),
                                   joint_drift(base, state) + pert.ripple(z)))
        (b_x, b_y), (g_x, g_y) = drift_particles(pert, state), drift_particles(base, state)
        same.append(np.array_equal(b_x, g_x + pert.ripple(state.xs)))
        same.append(np.array_equal(b_y, g_y + pert.ripple(state.ys)))
    return all(same)


@pytest.mark.parametrize("dim", [1, 2, 8])
@pytest.mark.parametrize("which", [0, 1], ids=["default", "other_ripple"])
def test_perturbed_drift_is_its_base_drift_plus_the_ripple(dim, which):
    pert = perturbed_payoffs(dim)[which]
    assert ripple_identity_holds(pert, seed=dim)


def test_the_sweep_drifts_a_chunk_once_for_a_family_built_on_the_one_before(monkeypatch):
    quad, pert = checks.default_specs(2)
    other = dataclasses.replace(quad)  # equal to quad, but not pert's base
    drifted = []

    def recording(spec, zs, n, d):
        drifted.append(spec)
        return batched_joint_drift(spec, zs, n, d)

    monkeypatch.setattr(checks, "batched_joint_drift", recording)
    for specs, expected in [((quad, pert), [quad, quad]),
                            ((other, pert), [other, other, pert, pert]),
                            ((pert, quad), [pert, pert, quad, quad])]:
        drifted.clear()
        checks._lipschitz(specs, 0)  # 1000 pairs: one chunk
        assert [id(spec) for spec in drifted] == [id(spec) for spec in expected]
