"""Command-line surface: plan / equilibrium / run / couple / check / gradcheck.

Exit codes: 0 success, 2 configuration error, 3 divergence during a run,
4 property-suite failure.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .checks import gradient_checks, run_all_checks
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
             for dest in ("alpha", "smooth_l", "tau", "dim", "eps", "z_star_norm_sq")}
    given = ", ".join(f"{flag} {value}" for flag, value in flags.items())
    for flag, value in flags.items():
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be a finite number, got {value}")
    try:
        plan = plan_parameters(
            args.alpha, args.smooth_l, args.tau, args.dim, args.eps,
            args.z_star_norm_sq,
        )
        text = serialize_config(_plan_config(args, plan))
    except (OverflowError, ZeroDivisionError) as exc:
        # args[-1] is the text; a float ** overflow puts an errno first.
        raise ConfigError(f"the plan for {given} is outside floating-point "
                          f"range: {exc.args[-1]}") from exc
    except ValueError as exc:
        raise ConfigError(f"{exc}, in the plan for {given}") from exc
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
    # Certified decay: each checkpoint must sit under M^(2k) * initial, a
    # comparison that a NaN distance fails.
    initial = dists[0]
    for record in bundle.records:
        cap = initial * m_sq ** record.step
        if not record.coupling_dist_sq <= cap * (1.0 + 1e-9) + 1e-300:
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
    try:
        results = gradient_checks(args.dim, seed=args.seed, points=args.points)
    except ValueError as exc:  # numpy cannot size the draw or the payoff
        raise ConfigError(f"--points {args.points}, --dim {args.dim}: numpy cannot "
                          f"size the gradient check: {exc}") from exc
    except MemoryError as exc:  # numpy can size the draw but not allocate it
        raise ConfigError(f"--points {args.points}, --dim {args.dim}: the gradient "
                          f"check does not fit in memory: {exc}") from exc
    return EXIT_PROPERTY if _report(results) else EXIT_OK


def _type_error() -> type:
    """argparse's ``ArgumentTypeError``, whose text argparse prints after the
    flag.  Called only on an error path (an ``except`` clause's tuple is
    evaluated only when an exception reaches it), so a canonical call never
    imports argparse."""
    from argparse import ArgumentTypeError

    return ArgumentTypeError


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise _type_error()(f"must be a positive integer, got {text}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise _type_error()(f"must be an unsigned 64-bit integer, got {text}")
    return value


class _Flag(NamedTuple):
    """``--name VALUE``, converted by ``type``: required, or else ``default``."""

    name: str
    type: Callable[[str], object] = str
    required: bool = False
    default: object = None

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")  # argparse's own rule


class _Command(NamedTuple):
    handler: Callable[[SimpleNamespace], int]
    help: str
    flags: tuple[_Flag, ...]


# The command line, in help order.  argparse is built from it, and the
# canonical spelling is read from it directly (_read_canonical), so argparse
# and gettext are imported only for help, other spellings and errors.
_COMMANDS = {
    "plan": _Command(_cmd_plan, "derive step size / particle / iteration counts", (
        _Flag("--alpha", float, required=True),
        _Flag("--smooth-l", float, required=True),
        _Flag("--tau", float, required=True),
        _Flag("--dim", _positive_int, required=True),
        _Flag("--eps", float, required=True),
        _Flag("--z-star-norm-sq", float, default=0.0),
        _Flag("--seed", _seed, default=0),
        _Flag("--out", default=""),
    )),
    "equilibrium": _Command(_cmd_equilibrium, "print z* and the Gaussian equilibrium", (
        _Flag("--config", required=True),
    )),
    "run": _Command(_cmd_run, "run a configured experiment", (
        _Flag("--config", required=True),
        _Flag("--output-dir"),
    )),
    "couple": _Command(_cmd_couple, "synchronously coupled pair run", (
        _Flag("--config", required=True),
        _Flag("--output-dir"),
    )),
    "check": _Command(_cmd_check, "run the property suites", (
        _Flag("--seed", _seed, default=0),
    )),
    "gradcheck": _Command(_cmd_gradcheck, "finite-difference gradient verification", (
        _Flag("--seed", _seed, default=0),
        _Flag("--points", _positive_int, default=100),
        _Flag("--dim", _positive_int, default=2),
    )),
}


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="minmax-langevin",
        description="Particle-based equilibrium computation for "
        "entropy-regularized zero-sum games",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            p.add_argument(flag.name, dest=flag.dest, type=flag.type,
                           required=flag.required, default=flag.default)
        p.set_defaults(func=command.handler)
    return parser


def _read_canonical(argv: list) -> SimpleNamespace | None:
    """The attributes of the Namespace argparse builds for ``COMMAND
    (--flag VALUE)*``, read without argparse; None for any other argv,
    which argparse then reads.

    Every flag must be spelled as in ``_COMMANDS`` and given at most once,
    no value may start with ``-``, every required flag must be present and
    every value must convert.  Help, ``--flag=VALUE``, abbreviations,
    repeats, negative numbers and every error are argparse's.
    """
    if len(argv) % 2 == 0 or not all(isinstance(token, str) for token in argv):
        return None
    command = _COMMANDS.get(argv[0])
    if command is None:
        return None
    flags = {flag.name: flag for flag in command.flags}
    values = {}
    for name, text in zip(argv[1::2], argv[2::2]):
        flag = flags.get(name)
        if flag is None or flag.dest in values or text.startswith("-"):
            return None
        try:
            values[flag.dest] = flag.type(text)
        except (TypeError, ValueError, _type_error()):  # argparse's catch
            return None
    if any(flag.required and flag.dest not in values for flag in command.flags):
        return None
    return SimpleNamespace(
        command=argv[0], func=command.handler,
        **{flag.dest: values.get(flag.dest, flag.default) for flag in command.flags},
    )


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _read_canonical(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
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
