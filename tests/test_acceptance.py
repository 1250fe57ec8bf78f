"""Acceptance gate: one test per certified behavior, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from minmax_langevin import (
    AlgorithmParams,
    GaussianDist,
    JointPoint,
    KeyedNoise,
    QuadraticBilinear,
    contraction_factor,
    coupled_contraction_run,
    equilibrium_variance,
    fit_gaussian,
    gaussian_best_response,
    gaussian_kl,
    gd_rate_audit,
    joint_equilibrium,
    kl_bias_bound,
    parse_config,
    plan_parameters,
    quadratic_equilibrium,
    run_algorithm,
    solve_equilibrium,
)
from minmax_langevin.checks import (
    check_contraction,
    check_functional_inequalities,
    check_gradients,
    default_specs,
)
from minmax_langevin.cli import main
from minmax_langevin.experiment import initial_state


def _report(criterion: int, ok: bool, detail: str):
    print(f"\n[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def stationary_config(out_dir: str) -> str:
    return f"""
payoff.kind = QuadraticBilinear
payoff.dim = 1
payoff.A = [1.0]
payoff.B = [1.0]
payoff.C = [0.5]
tau = 1.0
seed = 2024
algorithm.eta = 0.001
algorithm.n_particles = 512
algorithm.steps = 20000
algorithm.strict_eta = true
init.mean_mode = warm_start
output.dir = {out_dir}
"""


@pytest.fixture(scope="module")
def stationary_run(tmp_path_factory):
    """The long stationary run shared by criteria 4 and 5."""
    out = tmp_path_factory.mktemp("stationary")
    config = parse_config(stationary_config(str(out)))
    spec = config.payoff
    init, _ = initial_state(config, config.init, KeyedNoise(config.seed))
    pool_from = config.algorithm.steps - 10 * config.checkpoint_every + 1

    t0 = time.perf_counter()
    checkpoints, _ = run_algorithm(
        spec, init, config.algorithm, config.seed, config.checkpoint_every,
        on_checkpoint=lambda k, s: s.pairs() if k >= pool_from else None,
    )
    elapsed = time.perf_counter() - t0
    pooled = np.vstack([p for _, p in checkpoints if p is not None])
    return {
        "config": config,
        "spec": spec,
        "pooled": pooled,
        "elapsed": elapsed,
    }


def test_criterion_1_deterministic_gd_rate():
    spec = QuadraticBilinear(dim=2, A=np.eye(2), B=np.eye(2), C=0.5 * np.eye(2))
    c = spec.constants()
    eta = c.alpha / (4.0 * c.smooth_L**2)
    z0 = JointPoint(x=np.array([0.5, 0.5]), y=np.array([0.5, 0.5]))  # |z0 - z*| = 1
    t0 = time.perf_counter()
    records = gd_rate_audit(spec, z0, eta, 200)  # raises on any violation
    elapsed = time.perf_counter() - t0
    worst = max(
        (dist / env if env > 0 else 0.0) for _, dist, env in records[1:]
    )
    ok = len(records) == 201 and worst <= 1.0 + 1e-9 and elapsed < 0.1
    _report(1, ok, f"200 steps under exp(-alpha*eta*k) envelope, "
                   f"worst dist/env {worst:.3e}, {elapsed * 1e3:.0f} ms")


def test_criterion_2_one_step_contraction():
    quad, pert = default_specs(dim=2)
    t0 = time.perf_counter()
    res_q = check_contraction(quad, seed=0)
    res_p = check_contraction(pert, seed=0)
    elapsed = time.perf_counter() - t0
    assert "(10000 pairs)" in res_q.detail and "(10000 pairs)" in res_p.detail
    ok = res_q.passed and res_p.passed and elapsed < 5.0
    _report(2, ok, f"quadratic: {res_q.detail}; perturbed: {res_p.detail}; "
                   f"{elapsed:.2f} s")


def test_criterion_3_synchronous_coupling_decay():
    n, d, steps = 4, 1, 2000
    spec = QuadraticBilinear(dim=d, A=np.eye(d), B=np.eye(d), C=0.5 * np.eye(d))
    c = spec.constants()
    eta = c.alpha / (64.0 * c.smooth_L**2)
    params = AlgorithmParams(eta=eta, tau=1.0, n_particles=n, steps=steps,
                             strict_eta=True)
    from minmax_langevin.dynamics import ParticleState

    offset = 1.0 / np.sqrt(2 * d * n)  # joint distance exactly 1
    init_a = ParticleState(xs=np.zeros((n, d)), ys=np.zeros((n, d)))
    init_b = ParticleState(
        xs=np.full((n, d), offset), ys=np.full((n, d), offset)
    )
    t0 = time.perf_counter()
    distances = coupled_contraction_run(spec, init_a, init_b, params, seed=41)
    elapsed = time.perf_counter() - t0
    m_sq = contraction_factor(c.alpha, c.smooth_L, eta) ** 2
    ratios = [distances[k + 1] / distances[k] for k in range(steps)]
    worst = max(ratios)
    final_ok = distances[-1] <= m_sq**steps * distances[0] * (1 + 1e-9)
    ok = (
        distances[0] == pytest.approx(1.0, abs=1e-12)
        and worst <= m_sq * (1 + 1e-9)
        and final_ok
        and elapsed < 10.0
    )
    _report(3, ok, f"max per-step ratio {worst:.12f} <= M^2 = {m_sq:.12f}, "
                   f"final dist^2 {distances[-1]:.3e}, {elapsed:.2f} s")


def test_criterion_4_stationary_bias_envelope(stationary_run):
    config = stationary_run["config"]
    spec = stationary_run["spec"]
    pooled = stationary_run["pooled"]
    elapsed = stationary_run["elapsed"]
    c = spec.constants()
    tau = config.tau
    n = config.algorithm.n_particles

    fit = GaussianDist(*fit_gaussian(pooled))
    nu_z = joint_equilibrium(spec, tau)
    kl = gaussian_kl(fit, nu_z)
    bound = kl_bias_bound(
        c.alpha, c.smooth_L, tau, spec.dim, n, config.algorithm.eta,
        equilibrium_variance(spec, tau),
    )
    z_star, _ = solve_equilibrium(spec)
    mean_err = float(np.linalg.norm(fit.mean - z_star.vector))
    mean_tol = 4.0 * np.sqrt(np.trace(nu_z.cov) / pooled.shape[0])
    ok = (
        not fit.degenerate
        and kl <= bound
        and mean_err <= mean_tol
        and elapsed < 60.0
    )
    _report(4, ok, f"KL(fit || nu_Z) = {kl:.2e} <= bias bound {bound:.3f}, "
                   f"|mean - z*| = {mean_err:.4f} <= {mean_tol:.4f}, "
                   f"{elapsed:.1f} s")


def test_criterion_5_variance_bound(stationary_run):
    config = stationary_run["config"]
    spec = stationary_run["spec"]
    pooled = stationary_run["pooled"]
    c = spec.constants()
    tau = config.tau
    joint_dim_bound = 2.0 * tau * (2 * spec.dim) / c.alpha
    fit = GaussianDist(*fit_gaussian(pooled))
    empirical_trace = float(np.trace(fit.cov))
    exact_trace = equilibrium_variance(spec, tau)
    ok = (
        empirical_trace <= joint_dim_bound * 1.05
        and exact_trace <= joint_dim_bound
    )
    _report(5, ok, f"empirical trace {empirical_trace:.3f} <= "
                   f"{joint_dim_bound * 1.05:.3f}; exact trace "
                   f"{exact_trace:.3f} <= {joint_dim_bound:.3f}")


def test_criterion_6_parameter_recipe():
    plan = plan_parameters(1.0, 1.0, 1.0, 1, 0.1, 0.0)
    # Hand evaluation of the recipe: eta = 0.1/7500, N = 270/0.1 = 2700,
    # iters = ceil(75000 * ln(6840)) with ln(6840) = 8.830543010616596,
    # i.e. ceil(662290.7257962447) = 662291, and gd_eta = 1/4.
    eta_ref = 1.3333333333333333e-05
    ok = (
        abs(plan.eta - eta_ref) / eta_ref <= 1e-12
        and plan.n_particles == 2700
        and plan.iters == 662291
        and plan.gd_eta == 0.25
    )
    _report(6, ok, f"eta={plan.eta!r}, N={plan.n_particles}, k={plan.iters}, "
                   f"gd_eta={plan.gd_eta}")


def test_criterion_7_oracle_fixed_point():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        q1 = np.linalg.qr(rng.normal(size=(d, d)))[0]
        q2 = np.linalg.qr(rng.normal(size=(d, d)))[0]
        spec = QuadraticBilinear(
            dim=d,
            A=q1 @ np.diag(rng.uniform(0.5, 2.0, d)) @ q1.T,
            B=q2 @ np.diag(rng.uniform(0.5, 2.0, d)) @ q2.T,
            C=0.3 * rng.normal(size=(d, d)),
            u=rng.normal(size=d),
            v=rng.normal(size=d),
        )
        tau = float(rng.uniform(0.2, 2.0))
        nu_x, nu_y = quadratic_equilibrium(spec, tau)
        br_x, br_y = gaussian_best_response(spec, tau, nu_x, nu_y)
        residual = max(
            np.max(np.abs(br_x.mean - nu_x.mean)),
            np.max(np.abs(br_y.mean - nu_y.mean)),
            np.max(np.abs(br_x.cov - nu_x.cov)),
            np.max(np.abs(br_y.cov - nu_y.cov)),
        )
        worst = max(worst, float(residual))
    ok = worst <= 1e-12
    _report(7, ok, f"max fixed-point residual {worst:.3e} over 20 random "
                   f"quadratic games")


def test_criterion_8_functional_inequalities():
    result = check_functional_inequalities(seed=0)
    _report(8, result.passed, result.detail)


def test_criterion_9_gradient_correctness():
    quad, pert = default_specs(dim=2)
    res_q = check_gradients(quad, tol=1e-8, seed=0, points=100)
    res_p = check_gradients(pert, tol=1e-6, seed=0, points=100)
    ok = res_q.passed and res_p.passed
    _report(9, ok, f"quadratic: {res_q.detail}; perturbed: {res_p.detail}")


def test_criterion_10_reproducibility(tmp_path):
    cfg_path = tmp_path / "repro.cfg"
    cfg_path.write_text(f"""
payoff.kind = QuadraticBilinear
payoff.dim = 2
payoff.A = [1.0, 0.0, 0.0, 1.0]
payoff.B = [1.0, 0.0, 0.0, 1.0]
payoff.C = [0.5, 0.0, 0.0, 0.5]
tau = 0.8
seed = 99
checkpoint_every = 50
algorithm.eta = 0.005
algorithm.n_particles = 32
algorithm.steps = 300
output.dir = {tmp_path / 'default'}
""")
    assert main(["run", "--config", str(cfg_path),
                 "--output-dir", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", str(cfg_path),
                 "--output-dir", str(tmp_path / "b")]) == 0
    body_a = (tmp_path / "a" / "metrics.csv").read_bytes()
    body_b = (tmp_path / "b" / "metrics.csv").read_bytes()
    ok = body_a == body_b and len(body_a) > 0
    _report(10, ok, f"two `run` invocations produced byte-identical CSV "
                    f"bodies ({len(body_a)} bytes)")
