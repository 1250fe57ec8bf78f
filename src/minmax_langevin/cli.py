"""Command-line surface: plan / equilibrium / run / couple / check / gradcheck.

Exit codes: 0 success, 2 configuration error, 3 divergence during a run,
4 property-suite failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .checks import check_gradients, default_specs, run_all_checks
from .config import (
    ConfigError,
    ExperimentConfig,
    InitSpec,
    parse_config,
    serialize_config,
)
from .deterministic import solve_equilibrium
from .dynamics import AlgorithmParams, DivergenceError, contraction_factor
from .experiment import run_experiment
from .oracle import plan_parameters, quadratic_equilibrium
from .payoff import QuadraticBilinear

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_PROPERTY = 4


def _load_config(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _plan_config(args, plan) -> ExperimentConfig:
    """A complete, runnable config whose payoff realizes (alpha, L) exactly.

    A = B = alpha*I with C = sqrt(L^2 - alpha^2)*I gives a joint Hessian of
    operator norm exactly L while keeping the convexity modulus alpha;
    ``plan_parameters`` has already checked ``alpha <= L``.
    """
    eye = np.eye(args.dim)
    c_scale = float(np.sqrt(args.smooth_l**2 - args.alpha**2))
    spec = QuadraticBilinear(
        dim=args.dim, A=args.alpha * eye, B=args.alpha * eye, C=c_scale * eye
    )
    algorithm = AlgorithmParams(
        eta=plan.eta, tau=args.tau, n_particles=plan.n_particles,
        steps=plan.iters, strict_eta=True,
    )
    return ExperimentConfig(
        payoff=spec, algorithm=algorithm, seed=args.seed,
        init=InitSpec(cov_scale=plan.init_cov_scale), output_dir="runs/plan",
    )


def _cmd_plan(args) -> int:
    flags = {"--" + dest.replace("_", "-"): getattr(args, dest)
             for dest in ("alpha", "smooth_l", "tau", "eps", "z_star_norm_sq")}
    try:
        for flag, value in flags.items():
            if not math.isfinite(value):
                raise ValueError(f"{flag} must be a finite number, got {value}")
        try:
            plan = plan_parameters(
                args.alpha, args.smooth_l, args.tau, args.dim, args.eps,
                args.z_star_norm_sq,
            )
            text = serialize_config(_plan_config(args, plan))
        except (OverflowError, ZeroDivisionError) as exc:
            # args[-1] is the text; a float ** overflow puts an errno first.
            given = ", ".join(f"{flag} {value}" for flag, value in flags.items())
            raise ValueError(f"the plan for {given} is outside floating-point "
                             f"range: {exc.args[-1]}") from exc
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"eta            = {plan.eta:.17g}")
    print(f"n_particles    = {plan.n_particles}")
    print(f"iters          = {plan.iters}")
    print(f"gd_eta         = {plan.gd_eta:.17g}")
    print(f"gd_iters       = {plan.gd_iters}")
    print(f"init_cov_scale = {plan.init_cov_scale:.17g}")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote config fragment to {args.out}")
    else:
        print("# ---- config fragment ----")
        print(text, end="")
    return EXIT_OK


def _cmd_equilibrium(args) -> int:
    config = _load_config(args.config)
    spec = config.payoff
    z_star, iters = solve_equilibrium(spec)
    print(f"z* (x*): {np.array2string(z_star.x, precision=12)}")
    print(f"z* (y*): {np.array2string(z_star.y, precision=12)}")
    if isinstance(spec, QuadraticBilinear) and config.tau > 0:
        nu_x, nu_y = quadratic_equilibrium(spec, config.tau)
        print(f"nu_X: mean {np.array2string(nu_x.mean, precision=12)}, "
              f"cov =\n{np.array2string(nu_x.cov, precision=12)}")
        print(f"nu_Y: mean {np.array2string(nu_y.mean, precision=12)}, "
              f"cov =\n{np.array2string(nu_y.cov, precision=12)}")
    else:
        print(f"(no closed-form equilibrium distribution; solver used "
              f"{iters} iterations)")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    bundle = run_experiment(config, output_dir=args.output_dir)
    print(f"metrics:  {bundle.csv_path}")
    print(f"manifest: {bundle.manifest_path}")
    return EXIT_OK


def _cmd_couple(args) -> int:
    config = _load_config(args.config)
    if config.coupled is None:
        raise ConfigError("couple requires a coupled.* section in the config")
    bundle = run_experiment(config, output_dir=args.output_dir)
    c = config.payoff.constants()
    m_sq = contraction_factor(c.alpha, c.smooth_L, config.algorithm.eta) ** 2
    dists = [r.coupling_dist_sq for r in bundle.records]
    print(f"metrics:  {bundle.csv_path}")
    print(f"M^2 = {m_sq:.12f}; checkpoint coupling distances: "
          f"{dists[0]:.3e} -> {dists[-1]:.3e}")
    # Certified decay: each checkpoint must sit under M^(2k) * initial.
    initial = dists[0]
    for record in bundle.records:
        cap = initial * m_sq ** record.step
        if record.coupling_dist_sq > cap * (1.0 + 1e-9) + 1e-300:
            print(
                f"coupling decay violated at step {record.step}: "
                f"{record.coupling_dist_sq:.6e} > {cap:.6e}",
                file=sys.stderr,
            )
            return EXIT_PROPERTY
    return EXIT_OK


def _report(results) -> int:
    """Print one PASS/FAIL line per check result; return how many failed."""
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
    return sum(not res.passed for res in results)


def _cmd_check(args) -> int:
    results = run_all_checks(seed=args.seed)
    failures = _report(results)
    if failures:
        print(f"{failures} property check(s) failed", file=sys.stderr)
        return EXIT_PROPERTY
    print(f"all {len(results)} property checks passed")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    quad, pert = default_specs(dim=args.dim)
    results = [
        check_gradients(quad, tol=1e-8, seed=args.seed, points=args.points),
        check_gradients(pert, tol=1e-6, seed=args.seed, points=args.points),
    ]
    return EXIT_PROPERTY if _report(results) else EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minmax-langevin",
        description="Particle-based equilibrium computation for "
        "entropy-regularized zero-sum games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="derive step size / particle / iteration counts")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--smooth-l", dest="smooth_l", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--z-star-norm-sq", dest="z_star_norm_sq", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default="")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("equilibrium", help="print z* and the Gaussian equilibrium")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_equilibrium)

    p = sub.add_parser("run", help="run a configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("couple", help="synchronously coupled pair run")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=_cmd_couple)

    p = sub.add_parser("check", help="run the property suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=_positive_int, default=100)
    p.add_argument("--dim", type=int, default=2)
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
