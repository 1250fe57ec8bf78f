"""Property suites: the certified inequalities probed at random points.

Each suite is a draw, a statistic and a bound.  Draws come from keyed noise
streams named by the suite's tag, so a given seed always probes the same
points: a one-shot draw is the first normals of its stream (:func:`_normals`);
the three pair inequalities of the drift b_Z (strong monotonicity, 2L
Lipschitz, contraction of z + eta b_Z(z)) share one chunked sweep,
:func:`_worst_over_pairs`, which draws and norms each chunk once for every
payoff family it probes; the functional and W2-triangle suites build each
law stack once and call each law function once; the second-moment run keeps
its states and scores them in one stacked pass, against the paper's bound
and, two-sided, against the exact law of its quadratic chain (500 steps
suffice for that line).  :func:`_result` names every
result, ``title[<payoff class>]`` when a payoff is probed.  Every bound has a
small float slack since several inequalities are tight (e.g. monotonicity of
a decoupled isotropic quadratic binds with equality).

A NaN sample fails its bound instead of being skipped (``np.max``/``np.min``
propagate NaN; the GD audit tests ``not distance <= envelope``); a failed
solve of z* or a diverged run fails its suite.  Suites take only a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deterministic import JointPoint, gd_rate_audit, solve_equilibrium
from .dynamics import (
    AlgorithmParams,
    ParticleState,
    batched_joint_drift,
    contraction_factor,
    joint_drift,
    replicate_point,
)
from .metrics import gaussian_kl, gaussian_relative_fi, gaussian_w2
from .oracle import GaussianDist, joint_equilibrium, running_sq_distance_law
from .payoff import (PayoffSpec, PerturbedQuadratic, QuadraticBilinear,
                     check_gradient_fd, require)
from .rng import (KeyedNoise, _philox_words, _role_code, _words_to_pairs,
                  derive_stream_id, standard_normal_block)

__all__ = ["CheckResult", "run_all_checks", "gradient_checks", "default_specs"]

_REL_SLACK = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def default_specs(dim: int = 2):
    """The canonical probe payoffs: one quadratic, one perturbed."""
    eye = np.eye(dim)
    quad = QuadraticBilinear(dim=dim, A=eye, B=eye, C=0.5 * eye)
    pert = PerturbedQuadratic(base=quad, amplitude=0.1, frequency=1.0)
    return quad, pert


def _normals(seed: int, tag: str, *shape: int) -> np.ndarray:
    """The first ``prod(shape)`` normals of the ``tag`` stream, in ``shape``."""
    return standard_normal_block(
        seed, derive_stream_id(tag), 0, int(np.prod(shape))).reshape(shape)


def _result(title: str, spec, passed: bool, detail: str) -> CheckResult:
    """``title[<payoff class>]`` when a payoff ``spec`` is probed, else ``title``."""
    name = title if spec is None else f"{title}[{type(spec).__name__}]"
    return CheckResult(name=name, passed=passed, detail=detail)


# Probe pairs per drawn-and-drifted chunk.  The chunk bounds memory only:
# drawing all 10,000 contraction pairs in one batch raises the peak RSS of
# the benchmark's check-suite workload from 61.8 to 74.9 MB (+21%), and of
# an in-process ``check --seed 8`` from 42.0 to 56.0 MB (2-vCPU x86-64 Linux
# host, numpy 2.4).  A pair's points depend on its index alone, not on the
# chunk, and a chunk is drawn once for every payoff family it probes.
_PROBE_CHUNK = 2000


def _worst_over_pairs(specs, tag: str, seed: int, pairs: int, n: int, statistic):
    """Per spec, the max over random pairs of ``statistic(spec, z1, z2, b1,
    b2, dz_norm)``, which gives one value per pair.

    Pair ``i`` is two joint vectors in R^{2nd}, z1 then z2: the ``tag``
    stream's draws ``2 i w .. 2 (i + 1) w - 1`` for ``w = 2nd``, scaled by 2.
    b1 and b2 are the spec's drift b_Z at them and ``dz_norm`` is
    ``max(|z1 - z2|, 1e-300)`` row by row.  Each chunk of pairs is drawn
    and normed once and drifted under every spec, which must share one dim.
    Only the norm is shared: holding the chunk's ``z1 - z2`` across the
    drifts raises the contraction suites' peak allocation from 4.8 to 5.3 MB.
    """
    stream_id = derive_stream_id(tag)
    d = specs[0].dim
    width = 2 * n * d
    stats = [[] for _ in specs]
    for start in range(0, pairs, _PROBE_CHUNK):
        m = min(_PROBE_CHUNK, pairs - start)
        z = 2.0 * standard_normal_block(
            seed, stream_id, 2 * start * width, 2 * m * width).reshape(m, 2, width)
        z1, z2 = z[:, 0], z[:, 1]
        dz_norm = np.maximum(np.linalg.norm(z1 - z2, axis=1), 1e-300)
        for spec, spec_stats in zip(specs, stats):
            b1 = batched_joint_drift(spec, z1, n, d)
            b2 = batched_joint_drift(spec, z2, n, d)
            spec_stats.append(statistic(spec, z1, z2, b1, b2, dz_norm))
    return [float(np.max(np.concatenate(spec_stats))) for spec_stats in stats]


def _stretch(dv, dz_norm):
    """Row-wise |dv| / ``dz_norm``."""
    return np.linalg.norm(dv, axis=1) / dz_norm


def _random_gaussians(seed: int, tag: str, count: int, dim: int, ridge: float):
    """The moments ``(means, covs)`` of ``count`` Gaussians N(m, R R'/dim +
    ridge I), m and R drawn standard normal: the ``tag`` stream holds each
    Gaussian's m, then R row by row."""
    g = _normals(seed, tag, count, dim + 1, dim)
    r = g[:, 1:]
    return g[:, 0], r @ r.swapaxes(1, 2) / dim + ridge * np.eye(dim)


def check_gradients(spec: PayoffSpec, tol: float, seed: int = 0, points: int = 100):
    require("at least 1", points=points)
    x, y = _normals(seed, "gradcheck", points, 2, spec.dim).transpose(1, 0, 2)
    worst = check_gradient_fd(spec, x, y)
    return _result("gradient_fd", spec, worst <= tol,
                   f"max deviation {worst:.3e} (tol {tol:.0e}, {points} points)")


def gradient_checks(dim: int = 2, seed: int = 0, points: int = 100):
    """:func:`check_gradients` on both default payoffs of dimension ``dim``,
    each at its family's tolerance: 1e-8 quadratic, 1e-6 perturbed."""
    quad, pert = default_specs(dim)
    return [check_gradients(quad, tol=1e-8, seed=seed, points=points),
            check_gradients(pert, tol=1e-6, seed=seed, points=points)]


# The three pair suites: each body probes a tuple of specs of one dim on one
# sweep and returns one result per spec; the public check runs it on one.
def _monotonicity(specs, seed: int):
    def violation(spec, z1, z2, b1, b2, dz_norm):
        alpha = spec.constants().alpha
        dz, db = z1 - z2, b1 - b2
        dist_sq = np.sum(dz * dz, axis=1)
        margin = np.sum(db * dz, axis=1) + alpha * dist_sq  # must be <= 0
        return margin / np.maximum(dist_sq, 1e-300)

    worsts = _worst_over_pairs(specs, "monotone", seed, 1000, 4, violation)
    return [_result("strong_monotonicity", spec, worst <= _REL_SLACK,
                    f"max normalized violation {worst:.3e} over 1000 pairs")
            for spec, worst in zip(specs, worsts)]


def _lipschitz(specs, seed: int):
    worsts = _worst_over_pairs(
        specs, "lipschitz", seed, 1000, 4,
        lambda spec, z1, z2, b1, b2, dz_norm: _stretch(b1 - b2, dz_norm),
    )
    bounds = [2.0 * spec.constants().smooth_L for spec in specs]
    return [_result("drift_lipschitz", spec, worst <= bound * (1.0 + _REL_SLACK),
                    f"max ratio {worst:.6f} vs 2L = {bound:.6f}")
            for spec, worst, bound in zip(specs, worsts, bounds)]


def _contraction(specs, seed: int):
    def stretch(spec, z1, z2, b1, b2, dz_norm):
        eta = spec.constants().eta_strict
        return _stretch((z1 + eta * b1) - (z2 + eta * b2), dz_norm)

    worsts = _worst_over_pairs(specs, "contraction", seed, 10_000, 8, stretch)
    factors = [contraction_factor(c.alpha, c.smooth_L, c.eta_strict)
               for c in (spec.constants() for spec in specs)]
    return [_result("one_step_contraction", spec, worst <= m * (1.0 + 1e-10),
                    f"max ratio {worst:.12f} vs M = {m:.12f} (10000 pairs)")
            for spec, worst, m in zip(specs, worsts, factors)]


def check_monotonicity(spec: PayoffSpec, seed: int = 0):
    """<b_Z(z) - b_Z(z'), z - z'> <= -alpha |z - z'|^2 on random pairs."""
    return _monotonicity((spec,), seed)[0]


def check_lipschitz(spec: PayoffSpec, seed: int = 0):
    """|b_Z(z) - b_Z(z')| <= 2 L |z - z'| on random pairs."""
    return _lipschitz((spec,), seed)[0]


def check_contraction(spec: PayoffSpec, seed: int = 0):
    """|G(z) - G(z')| <= M |z - z'| at eta = alpha / (64 L^2)."""
    return _contraction((spec,), seed)[0]


def check_equilibrium_drift(spec: PayoffSpec):
    """b_Z vanishes when every particle sits at the equilibrium point."""
    try:
        z_star, _ = solve_equilibrium(spec, tol=1e-12)
    except RuntimeError as exc:  # z* not solved: FAIL, not a crash
        return _result("equilibrium_drift_zero", spec, False, str(exc))
    state = replicate_point(z_star, 8)
    norm = float(np.max(np.abs(joint_drift(spec, state))))
    return _result("equilibrium_drift_zero", spec, norm <= 1e-11,
                   f"max |b_Z| component {norm:.3e} at the all-equilibrium state")


def check_permutation_equivariance(spec: PayoffSpec, seed: int = 0):
    """Permuting particles permutes the drift rows identically."""
    # Imported at call time: perfbench/tracer.py patches drift_particles in
    # dynamics' globals, and a module-level import would bind the unpatched one.
    from .dynamics import drift_particles

    xs, ys = 2.0 * _normals(seed, "permute", 2, 6, spec.dim)
    perm = np.arange(6)[::-1]
    b_x, b_y = drift_particles(spec, ParticleState(xs=xs, ys=ys))
    pb_x, pb_y = drift_particles(spec, ParticleState(xs=xs[perm], ys=ys[perm]))
    err = float(np.max(np.abs(np.stack([b_x[perm] - pb_x, b_y[perm] - pb_y]))))
    return _result("permutation_equivariance", spec, err <= 1e-12,
                   f"max row discrepancy {err:.3e}")


def check_gd_envelope(spec: PayoffSpec, seed: int = 0):
    """Min-max GD stays below exp(-alpha eta k) * initial squared distance."""
    x, y = _normals(seed, "gd-envelope", 2, spec.dim)
    try:
        gd_rate_audit(spec, JointPoint(x=x, y=y), spec.constants().eta_gd, 500)
        ok, detail = True, "500 steps below envelope"
    except RuntimeError as exc:  # an envelope violation or a failed solve of z*
        ok, detail = False, str(exc)
    return _result("gd_rate_envelope", spec, ok, detail)


def check_functional_inequalities(seed: int = 0):
    """Talagrand and log-Sobolev against the quadratic equilibrium.

    The equilibrium is (alpha/tau)-strongly log-concave, so for every
    Gaussian p:  KL(p||nu) >= (alpha/(2 tau)) W2(p, nu)^2  and
    FI(p||nu) >= 2 (alpha/tau) KL(p||nu).
    """
    quad, _ = default_specs(dim=2)
    tau = 0.7
    try:
        nu = joint_equilibrium(quad, tau)
    except RuntimeError as exc:
        return _result("talagrand_and_log_sobolev", None, False, str(exc))
    alpha = quad.constants().alpha
    p = GaussianDist(*_random_gaussians(seed, "functional", 200, nu.dim, 0.05))
    kl = gaussian_kl(p, nu)
    w2 = gaussian_w2(p, nu)
    fi = gaussian_relative_fi(p, nu)
    slack_t = kl - (alpha / (2.0 * tau)) * w2 + _REL_SLACK * (1 + kl)
    slack_ls = fi - 2.0 * (alpha / tau) * kl + _REL_SLACK * (1 + fi)
    worst_t, worst_ls = float(np.min(slack_t)), float(np.min(slack_ls))
    return _result("talagrand_and_log_sobolev", None, worst_t >= 0.0 and worst_ls >= 0.0,
                   f"min slack: talagrand {worst_t:.3e}, log-sobolev {worst_ls:.3e}")


def check_w2_triangle(seed: int = 0):
    means, covs = _random_gaussians(seed, "triangle", 300, 3, 0.1)
    p, q, r = (GaussianDist(mean=means[i::3], cov=covs[i::3]) for i in range(3))
    w_pr, w_pq, w_qr = (np.sqrt(gaussian_w2(a, b)) for a, b in ((p, r), (p, q), (q, r)))
    worst = float(np.max(w_pr - (w_pq + w_qr)))  # W2(p,r) - W2(p,q) - W2(q,r)
    return _result("gaussian_w2_triangle", None, worst <= _REL_SLACK,
                   f"max violation {worst:.3e} over 100 triples")


def _squared_distances(states: ParticleState, z_pair: np.ndarray) -> np.ndarray:
    """|z_k - z*|^2 per system k of a stack, z* as ``z_pair`` (2, 1, d): one
    row of 2Nd entries each, so each value has its own system's np.sum bits."""
    dz = np.stack([states.xs, states.ys], axis=-3) - z_pair
    return np.add.reduce((dz**2).reshape(len(dz), -1), axis=1)


def check_second_moment_stability(seed: int = 0):
    """The running mean of |z_k - z*|^2 over 500 steps from N(z*, I) obeys the
    paper's noise-floor recursion bound and lies within 4 s.d. of its exact
    mean (:func:`running_sq_distance_law`), which a chain at the wrong
    temperature misses; the run's states are kept (no copy) and scored in
    one stacked pass."""
    # Imported at call time: perfbench/tracer.py patches run_algorithm in
    # dynamics' globals, and a module-level import would bind the unpatched one.
    from .dynamics import run_algorithm

    quad, _ = default_specs(dim=1)
    c = quad.constants()
    d, tau, n, steps = 1, 1.0, 16, 500
    eta = c.alpha / (8.0 * c.smooth_L**2)
    params = AlgorithmParams(eta=eta, tau=tau, n_particles=n, steps=steps)
    try:  # a failed solve or a diverged run (DivergenceError) is a FAIL
        z_star, _ = solve_equilibrium(quad)
        z_pair = np.stack([z_star.x, z_star.y])[:, None]  # (2, 1, d): x row, y row
        xs, ys = z_pair + _normals(seed, "moment-init", 2, n, d)
        checkpoints, _ = run_algorithm(
            quad, ParticleState(xs=xs, ys=ys), params, seed=seed, checkpoint_every=1)
    except RuntimeError as exc:
        return _result("second_moment_stability", None, False, str(exc))
    sq = _squared_distances(ParticleState.stacked(*(s for _, s in checkpoints)), z_pair)
    m = contraction_factor(c.alpha, c.smooth_L, eta)
    bound = 2.0 * float(sq[0]) + 8.0 * tau * eta * d * n / (1.0 - m**2)
    running_mean = float(np.mean(sq))
    exact, sd = running_sq_distance_law(quad, tau, eta, n, steps)
    z = (running_mean - exact) / sd
    return _result("second_moment_stability", None,
                   running_mean <= bound * 1.25  # Monte-Carlo slack
                   and abs(z) <= 4.0,
                   f"running mean {running_mean:.3f} vs bound {bound:.3f}; "
                   f"exact {exact:.2f} +/- {sd:.2f} (z = {z:.2f})")


def check_rng_consistency():
    """Adjacent ranges 0..2 and 3..7 of a stream concatenate to its range
    0..7, the variate pairs of words 0..3; each row of an x/y block pair is
    the pair of variates of its own words, and a smaller particle block is a
    prefix of a larger one, whichever rows the last slab holds."""
    whole = standard_normal_block(123, 42, 0, 8)
    ok_split = np.array_equal(whole, np.concatenate(
        [standard_normal_block(123, 42, 0, 3), standard_normal_block(123, 42, 3, 5)]))
    ok_pairs = np.array_equal(
        whole, np.stack(_words_to_pairs(_philox_words(123, 42, 0, 0, 4)), axis=1).ravel())
    noise = KeyedNoise(123)
    x5, y9 = noise.block("x", 5, 3, 7), noise.block("y", 9, 3, 7)
    y5, x9 = noise.block("y", 5, 3, 7), noise.block("x", 9, 3, 7)
    rows_ok = all(
        np.array_equal(
            np.stack([x5[i], y5[i]]),
            np.stack(_words_to_pairs(_philox_words(123, _role_code("x"), 3, 7 * i, 7))),
        )
        for i in range(5)
    )
    prefix_ok = (x9.shape == y9.shape == (9, 7) and np.array_equal(x5, x9[:5])
                 and np.array_equal(y5, y9[:5]))
    return _result("rng_stream_consistency", None,
                   ok_split and ok_pairs and rows_ok and prefix_ok,
                   f"block split {ok_split}, word pairs {ok_pairs}, keyed rows {rows_ok}, "
                   f"particle prefix {prefix_ok}")


def run_all_checks(seed: int = 0) -> list[CheckResult]:
    """Every suite in report order, each per-family one on both default specs."""
    specs = default_specs(dim=2)
    return [
        *gradient_checks(seed=seed),
        *(result for body in (_monotonicity, _lipschitz, _contraction)
          for result in body(specs, seed)),
        *(check_equilibrium_drift(spec) for spec in specs),
        *(check(spec, seed=seed) for check in
          (check_permutation_equivariance, check_gd_envelope) for spec in specs),
        check_functional_inequalities(seed=seed),
        check_w2_triangle(seed=seed),
        check_second_moment_stability(seed=seed),
        check_rng_consistency(),
    ]
