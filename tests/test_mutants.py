"""Plausible bugs that the property suites must catch.

Each mutant is a monkeypatch of one line of the solver; nothing in ``src/``
is edited.  A test pins the suite that catches its mutant at seed 8 (the
seed ``check`` is pinned at), and that the unmutated suite passes there.

The three noise mutants are caught in ``check`` only by their own line's
self-test, ``rng_stream_consistency``; that pin is kept too, and for the
scalar stream's mutant, which every probe suite draws through, so is the
pin that no other suite fails.
The sign of C flipped in the drift alone fails no suite of ``check``: the
flipped drift has the same monotonicity, Lipschitz and contraction
constants, and the default payoffs have z* = 0, where the flip changes
nothing.  The equilibrium-drift suite catches it on a payoff with z* != 0,
which is pinned here.
A chain at tau / 2 or 2 tau passes the second-moment suite's bound line
(so does one at 5 tau, mostly) and fails its exact line by 14 and 29 s.d.
A noise scale of x1.05 (tau x1.1025) moves the exact mean by about 3 s.d.,
under the line's 4, and passes at seed 8; it is not pinned here.
The ripple's sign flipped in ``PerturbedQuadratic.grad_x`` alone (``ripple``
unchanged) fails only ``gradient_fd[PerturbedQuadratic]`` of ``check`` at
seed 8: the pair sweep drifts the perturbed family as its base's drift plus
``ripple`` and never calls its ``grad_x``.  The drift identity of
``test_probe_sweep`` fails under it too; both are pinned.
"""

import dataclasses

import numpy as np
import pytest

from test_probe_sweep import perturbed_payoffs, ripple_identity_holds

from minmax_langevin import checks, dynamics, rng
from minmax_langevin.payoff import PerturbedQuadratic

QUAD, _ = checks.default_specs()
# QUAD moved off the origin: u and v put its equilibrium at z* != 0.
SHIFTED = dataclasses.replace(QUAD, u=[1.0, -1.0], v=[0.5, 0.25])
SEED = 8
_BLOCK = rng.KeyedNoise.block
_STEP = dynamics.step_algorithm


def opponent_mean_over_every_leading_axis(spec, state):
    """Averages over the stacked systems too, so a probe batch mixes its rows."""
    axes = tuple(range(state.xs.ndim - 1))
    x_bar = np.mean(state.xs, axis=axes, keepdims=True)
    y_bar = np.mean(state.ys, axis=axes, keepdims=True)
    return -spec.grad_x(state.xs, y_bar), spec.grad_y(x_bar, state.ys)


def c_sign_flipped_in_the_drift(spec, state):
    """The opponent's mean enters each drift with C's sign flipped."""
    x_bar = np.mean(state.xs, axis=-2, keepdims=True)
    y_bar = np.mean(state.ys, axis=-2, keepdims=True)
    return -spec.grad_x(state.xs, -y_bar), spec.grad_y(-x_bar, state.ys)


def chain_at_half_tau(spec, state, params, noise):
    """Every step runs at tau / 2: its noise scale is sqrt(tau eta)."""
    return _STEP(spec, state, dataclasses.replace(params, tau=params.tau / 2), noise)


def chain_at_double_tau(spec, state, params, noise):
    """Every step runs at 2 tau: its noise scale is 2 sqrt(tau eta)."""
    return _STEP(spec, state, dataclasses.replace(params, tau=params.tau * 2), noise)


def noise_read_one_step_late(self, role, n, step, dim):
    """Step k draws the words of step k - 1 (step 0 its own)."""
    return _BLOCK(self, role, n, max(step - 1, 0), dim)


def y_takes_the_x_cosine_variate(self, role, n, step, dim):
    """Each second role of a pair returns its first role's cosine variates."""
    first = {"y": "x", "init-y": "init-x"}.get(role, role)
    return _BLOCK(self, first, n, step, dim)


def scalar_stream_takes_the_cosine_half_twice(seed, stream_id, start, n):
    """Odd draws repeat the cosine variate of their word, not its sine."""
    first = start // 2
    words = rng._philox_words(seed, stream_id, 0, first, (start + n + 1) // 2 - first)
    return np.repeat(rng._words_to_pairs(words)[0], 2)[start % 2:start % 2 + n]


def ripple_sign_flipped_in_grad_x(self, x, y):
    """grad_x adds the ripple where it must subtract it; ``ripple`` is intact."""
    x, y = self.base._check_point(x, y)
    return self.base.grad_x(x, y) + self.ripple(x)


# (mutant, patched owner, attribute, the suite that catches it, its result name)
MUTANTS = [
    (opponent_mean_over_every_leading_axis, dynamics, "drift_particles",
     lambda: checks.check_monotonicity(QUAD, seed=SEED),
     "strong_monotonicity[QuadraticBilinear]"),
    (c_sign_flipped_in_the_drift, dynamics, "drift_particles",
     lambda: checks.check_equilibrium_drift(SHIFTED),
     "equilibrium_drift_zero[QuadraticBilinear]"),
    (chain_at_half_tau, dynamics, "step_algorithm",
     lambda: checks.check_second_moment_stability(seed=SEED), "second_moment_stability"),
    (chain_at_double_tau, dynamics, "step_algorithm",
     lambda: checks.check_second_moment_stability(seed=SEED), "second_moment_stability"),
    (noise_read_one_step_late, rng.KeyedNoise, "block",
     checks.check_rng_consistency, "rng_stream_consistency"),
    (y_takes_the_x_cosine_variate, rng.KeyedNoise, "block",
     checks.check_rng_consistency, "rng_stream_consistency"),
    (scalar_stream_takes_the_cosine_half_twice, checks, "standard_normal_block",
     checks.check_rng_consistency, "rng_stream_consistency"),
    (ripple_sign_flipped_in_grad_x, PerturbedQuadratic, "grad_x",
     lambda: checks.gradient_checks(seed=SEED)[1], "gradient_fd[PerturbedQuadratic]"),
]


@pytest.mark.parametrize("mutant, owner, attr, suite, name", MUTANTS,
                         ids=[m[0].__name__ for m in MUTANTS])
def test_suite_catches_mutant(monkeypatch, mutant, owner, attr, suite, name):
    assert suite().passed
    monkeypatch.setattr(owner, attr, mutant)
    result = suite()
    assert result.name == name
    assert not result.passed, result.detail


def test_the_scalar_stream_mutant_fails_no_other_suite(monkeypatch):
    monkeypatch.setattr(checks, "standard_normal_block",
                        scalar_stream_takes_the_cosine_half_twice)
    failed = [r.name for r in checks.run_all_checks(seed=SEED) if not r.passed]
    assert failed == ["rng_stream_consistency"]


@pytest.mark.parametrize("dim", [1, 2, 8])
def test_the_drift_identity_catches_the_ripple_sign_flipped_in_grad_x(monkeypatch, dim):
    pert = perturbed_payoffs(dim)[0]
    assert ripple_identity_holds(pert, seed=SEED)
    monkeypatch.setattr(PerturbedQuadratic, "grad_x", ripple_sign_flipped_in_grad_x)
    assert not ripple_identity_holds(pert, seed=SEED)
