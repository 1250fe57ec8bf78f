"""Property suites: the certified inequalities probed at random points.

Each suite draws its randomness from keyed noise streams, so a given seed
always probes the same points.  The suites back the ``check`` command and
are reused by the test suite; every bound carries a small float slack since
several inequalities are tight (e.g. monotonicity of a decoupled isotropic
quadratic binds with equality).

The three pair inequalities of the drift b_Z (strong monotonicity, 2L
Lipschitz, contraction of z + eta b_Z(z)) share one probe sweep,
:func:`_worst_over_pairs`, and supply only their per-pair statistic.

Every suite reduces its per-sample statistics with ``np.max``/``np.min``,
which propagate NaN, so a NaN sample fails its bound instead of being
skipped; a suite asked for fewer than one sample raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deterministic import JointPoint, gd_rate_audit, solve_equilibrium
from .dynamics import (
    ParticleState,
    batched_joint_drift,
    contraction_factor,
    joint_drift,
    replicate_point,
)
from .metrics import gaussian_kl, gaussian_relative_fi, gaussian_w2
from .oracle import GaussianDist, joint_equilibrium
from .payoff import PayoffSpec, PerturbedQuadratic, QuadraticBilinear, check_gradient_fd
from .rng import (KeyedNoise, _philox_words, _role_code, _words_to_normals,
                  create_stream, derive_stream_id, standard_normal_block)

__all__ = ["CheckResult", "run_all_checks", "default_specs"]

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


def _stream(seed: int, tag: str):
    return create_stream(seed, derive_stream_id(tag, 0, 0))


# Probe pairs per drawn-and-drifted chunk.  The chunk bounds memory, not
# time: drawing all 10,000 contraction pairs in one batch raises the peak RSS
# of ``check --seed 8`` from 62.9 to 76.0 MB (+21%, on a 2-vCPU x86-64 Linux
# host).
_PROBE_CHUNK = 2000


def _worst_over_pairs(spec, tag: str, seed: int, pairs: int, n: int, statistic):
    """Max over random pairs of ``statistic(z1, z2, b1, b2)``, one value per row.

    Each chunk of m pairs is one ``tag`` stream block, scaled by 2, of 2m
    joint vectors in R^{2nd}: z1 then z2, with b1, b2 the drift b_Z at them.
    """
    if pairs < 1:
        raise ValueError("pairs must be at least 1")
    stream = _stream(seed, tag)
    d = spec.dim
    width = 2 * n * d
    stats = []
    for start in range(0, pairs, _PROBE_CHUNK):
        m = min(_PROBE_CHUNK, pairs - start)
        z = 2.0 * standard_normal_block(stream, 2 * m * width).reshape(2 * m, width)
        z1, z2 = z[:m], z[m:]
        b1 = batched_joint_drift(spec, z1, n, d)
        b2 = batched_joint_drift(spec, z2, n, d)
        stats.append(statistic(z1, z2, b1, b2))
    return float(np.max(np.concatenate(stats)))


def _stretch(dv, z1, z2):
    """Row-wise |dv| / |z1 - z2|."""
    return np.linalg.norm(dv, axis=1) / np.maximum(
        np.linalg.norm(z1 - z2, axis=1), 1e-300
    )


def _random_gaussians(stream, count: int, dim: int, ridge: float) -> list:
    """``count`` Gaussians N(m, R R'/dim + ridge I), m and R drawn standard
    normal: one stream block holds each Gaussian's m, then R row by row."""
    draws = standard_normal_block(stream, count * (dim + 1) * dim)
    return [
        GaussianDist(mean=g[0], cov=g[1:] @ g[1:].T / dim + ridge * np.eye(dim))
        for g in draws.reshape(count, dim + 1, dim)
    ]


def check_gradients(spec: PayoffSpec, tol: float, seed: int = 0, points: int = 100):
    if points < 1:
        raise ValueError("points must be at least 1")
    draws = standard_normal_block(_stream(seed, "gradcheck"), 2 * points * spec.dim)
    worst = float(np.max([check_gradient_fd(spec, x, y, h=1e-5)
                          for x, y in draws.reshape(points, 2, spec.dim)]))
    return CheckResult(
        name=f"gradient_fd[{type(spec).__name__}]",
        passed=worst <= tol,
        detail=f"max deviation {worst:.3e} (tol {tol:.0e}, {points} points)",
    )


def check_monotonicity(spec: PayoffSpec, seed: int = 0, pairs: int = 1000, n: int = 4):
    """<b_Z(z) - b_Z(z'), z - z'> <= -alpha |z - z'|^2 on random pairs."""
    alpha = spec.constants().alpha

    def violation(z1, z2, b1, b2):
        dz, db = z1 - z2, b1 - b2
        dist_sq = np.sum(dz * dz, axis=1)
        margin = np.sum(db * dz, axis=1) + alpha * dist_sq  # must be <= 0
        return margin / np.maximum(dist_sq, 1e-300)

    worst = _worst_over_pairs(spec, "monotone", seed, pairs, n, violation)
    return CheckResult(
        name=f"strong_monotonicity[{type(spec).__name__}]",
        passed=worst <= _REL_SLACK,
        detail=f"max normalized violation {worst:.3e} over {pairs} pairs",
    )


def check_lipschitz(spec: PayoffSpec, seed: int = 0, pairs: int = 1000, n: int = 4):
    """|b_Z(z) - b_Z(z')| <= 2 L |z - z'| on random pairs."""
    worst = _worst_over_pairs(
        spec, "lipschitz", seed, pairs, n,
        lambda z1, z2, b1, b2: _stretch(b1 - b2, z1, z2),
    )
    bound = 2.0 * spec.constants().smooth_L
    return CheckResult(
        name=f"drift_lipschitz[{type(spec).__name__}]",
        passed=worst <= bound * (1.0 + _REL_SLACK),
        detail=f"max ratio {worst:.6f} vs 2L = {bound:.6f}",
    )


def check_contraction(spec: PayoffSpec, seed: int = 0, pairs: int = 10_000,
                      n: int = 8, slack: float = 1e-10):
    """|G(z) - G(z')| <= M |z - z'| at eta = alpha / (64 L^2)."""
    c = spec.constants()
    eta = c.eta_strict
    m = contraction_factor(c.alpha, c.smooth_L, eta)
    worst = _worst_over_pairs(
        spec, "contraction", seed, pairs, n,
        lambda z1, z2, b1, b2: _stretch((z1 + eta * b1) - (z2 + eta * b2), z1, z2),
    )
    return CheckResult(
        name=f"one_step_contraction[{type(spec).__name__}]",
        passed=worst <= m * (1.0 + slack),
        detail=f"max ratio {worst:.12f} vs M = {m:.12f} ({pairs} pairs)",
    )


def check_equilibrium_drift(spec: PayoffSpec, n: int = 8):
    """b_Z vanishes when every particle sits at the equilibrium point."""
    z_star, _ = solve_equilibrium(spec, tol=1e-12)
    state = replicate_point(z_star, n)
    norm = float(np.max(np.abs(joint_drift(spec, state))))
    return CheckResult(
        name=f"equilibrium_drift_zero[{type(spec).__name__}]",
        passed=norm <= 1e-11,
        detail=f"max |b_Z| component {norm:.3e} at the all-equilibrium state",
    )


def check_permutation_equivariance(spec: PayoffSpec, seed: int = 0, n: int = 6):
    """Permuting particles permutes the drift rows identically."""
    from .dynamics import drift_particles

    vec = 2.0 * standard_normal_block(_stream(seed, "permute"), 2 * n * spec.dim)
    xs, ys = vec.reshape(2, n, spec.dim)
    perm = np.arange(n)[::-1]
    b_x, b_y = drift_particles(spec, ParticleState(xs=xs, ys=ys))
    pb_x, pb_y = drift_particles(spec, ParticleState(xs=xs[perm], ys=ys[perm]))
    err = float(np.max(np.abs(np.stack([b_x[perm] - pb_x, b_y[perm] - pb_y]))))
    return CheckResult(
        name=f"permutation_equivariance[{type(spec).__name__}]",
        passed=err <= 1e-12,
        detail=f"max row discrepancy {err:.3e}",
    )


def check_gd_envelope(spec: PayoffSpec, seed: int = 0, steps: int = 500):
    """Min-max GD stays below exp(-alpha eta k) * initial squared distance."""
    draws = standard_normal_block(_stream(seed, "gd-envelope"), 2 * spec.dim)
    x, y = draws.reshape(2, spec.dim)
    try:
        gd_rate_audit(spec, JointPoint(x=x, y=y), spec.constants().eta_gd, steps)
        ok, detail = True, f"{steps} steps below envelope"
    except Exception as exc:  # EnvelopeViolation carries the step info
        ok, detail = False, str(exc)
    return CheckResult(
        name=f"gd_rate_envelope[{type(spec).__name__}]", passed=ok, detail=detail
    )


def check_functional_inequalities(seed: int = 0, pairs: int = 200):
    """Talagrand and log-Sobolev against the quadratic equilibrium.

    The equilibrium is (alpha/tau)-strongly log-concave, so for every
    Gaussian p:  KL(p||nu) >= (alpha/(2 tau)) W2(p, nu)^2  and
    FI(p||nu) >= 2 (alpha/tau) KL(p||nu).
    """
    if pairs < 1:
        raise ValueError("pairs must be at least 1")
    quad, _ = default_specs(dim=2)
    tau = 0.7
    nu = joint_equilibrium(quad, tau)
    alpha = quad.constants().alpha
    slack_t, slack_ls = [], []
    for p in _random_gaussians(_stream(seed, "functional"), pairs, nu.dim, 0.05):
        kl = gaussian_kl(p, nu)
        w2 = gaussian_w2(p, nu)
        fi = gaussian_relative_fi(p, nu)
        slack_t.append(kl - (alpha / (2.0 * tau)) * w2 + _REL_SLACK * (1 + kl))
        slack_ls.append(fi - 2.0 * (alpha / tau) * kl + _REL_SLACK * (1 + fi))
    worst_t, worst_ls = float(np.min(slack_t)), float(np.min(slack_ls))
    ok = worst_t >= 0.0 and worst_ls >= 0.0
    return CheckResult(
        name="talagrand_and_log_sobolev",
        passed=ok,
        detail=f"min slack: talagrand {worst_t:.3e}, log-sobolev {worst_ls:.3e}",
    )


def check_w2_triangle(seed: int = 0, triples: int = 100, dim: int = 3):
    if triples < 1:
        raise ValueError("triples must be at least 1")
    gs = _random_gaussians(_stream(seed, "triangle"), 3 * triples, dim, 0.1)
    w = np.sqrt([[gaussian_w2(p, r), gaussian_w2(p, q), gaussian_w2(q, r)]
                 for p, q, r in zip(gs[::3], gs[1::3], gs[2::3])])
    worst = float(np.max(w[:, 0] - (w[:, 1] + w[:, 2])))  # W2(p,r) - W2(p,q) - W2(q,r)
    return CheckResult(
        name="gaussian_w2_triangle",
        passed=worst <= _REL_SLACK,
        detail=f"max violation {worst:.3e} over {triples} triples",
    )


def check_second_moment_stability(seed: int = 0):
    """Long-run mean of |z_k - z*|^2 obeys the noise-floor recursion bound."""
    from .dynamics import AlgorithmParams, run_algorithm

    quad, _ = default_specs(dim=1)
    c = quad.constants()
    d, tau, n, steps = 1, 1.0, 16, 2000
    eta = c.alpha / (8.0 * c.smooth_L**2)
    params = AlgorithmParams(eta=eta, tau=tau, n_particles=n, steps=steps)
    z_star, _ = solve_equilibrium(quad)
    z_rep = replicate_point(z_star, n)
    z_star_rep = np.stack([z_rep.xs, z_rep.ys])  # (2, n, d): x block, y block
    noise = standard_normal_block(_stream(seed, "moment-init"), 2 * n * d)
    xs, ys = z_star_rep + noise.reshape(2, n, d)
    checkpoints, _ = run_algorithm(
        quad, ParticleState(xs=xs, ys=ys), params, seed=seed, checkpoint_every=1,
        on_checkpoint=lambda k, s: float(
            np.sum((np.stack([s.xs, s.ys]) - z_star_rep) ** 2)
        ),
    )
    sq = [v for _, v in checkpoints]
    m = contraction_factor(c.alpha, c.smooth_L, eta)
    bound = 2.0 * sq[0] + 8.0 * tau * eta * d * n / (1.0 - m**2)
    running_mean = float(np.mean(sq))
    return CheckResult(
        name="second_moment_stability",
        passed=running_mean <= bound * 1.25,  # Monte-Carlo slack
        detail=f"running mean {running_mean:.3f} vs bound {bound:.3f}",
    )


def check_rng_consistency(seed: int = 123):
    """Split blocks match one block; keyed rows are addressable alone and
    a smaller particle block is a prefix of a larger one."""
    s1 = create_stream(seed, 42)
    whole = standard_normal_block(s1, 8)
    s2 = create_stream(seed, 42)
    halves = np.concatenate(
        [standard_normal_block(s2, 3), standard_normal_block(s2, 5)]
    )
    ok_split = np.array_equal(whole, halves)
    noise = KeyedNoise(seed)
    keyed = noise.block("x", 5, 3, 7)
    rows_ok = all(
        np.array_equal(
            keyed[i],
            _words_to_normals(_philox_words(seed, _role_code("x"), 3, 7 * i, 7)),
        )
        for i in range(5)
    )
    prefix_ok = np.array_equal(keyed, noise.block("x", 9, 3, 7)[:5])
    return CheckResult(
        name="rng_stream_consistency",
        passed=ok_split and rows_ok and prefix_ok,
        detail=f"block split {ok_split}, keyed rows {rows_ok}, "
        f"particle prefix {prefix_ok}",
    )


def run_all_checks(seed: int = 0) -> list[CheckResult]:
    quad, pert = default_specs(dim=2)
    results = [
        check_gradients(quad, tol=1e-8, seed=seed),
        check_gradients(pert, tol=1e-6, seed=seed),
        check_monotonicity(quad, seed=seed),
        check_monotonicity(pert, seed=seed),
        check_lipschitz(quad, seed=seed),
        check_lipschitz(pert, seed=seed),
        check_contraction(quad, seed=seed),
        check_contraction(pert, seed=seed),
        check_equilibrium_drift(quad),
        check_equilibrium_drift(pert),
        check_permutation_equivariance(quad, seed=seed),
        check_permutation_equivariance(pert, seed=seed),
        check_gd_envelope(quad, seed=seed),
        check_gd_envelope(pert, seed=seed),
        check_functional_inequalities(seed=seed),
        check_w2_triangle(seed=seed),
        check_second_moment_stability(seed=seed),
        check_rng_consistency(),
    ]
    return results
