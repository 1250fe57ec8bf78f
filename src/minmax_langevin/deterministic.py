"""Deterministic min-max gradient descent: equilibrium solver and rate audit.

The update ``x' = x - eta * grad_x V(x, y)``, ``y' = y + eta * grad_y V(x, y)``
contracts toward the unique saddle point ``z* = (x*, y*)`` at rate
``exp(-alpha * eta * k)`` in squared distance whenever
``eta <= alpha / (4 L**2)``.  It doubles as the warm-start routine for the
particle algorithm: the default solve tolerance ``sqrt(tau * d * L**2 /
alpha**3)`` matches the mean-accuracy the particle initialization recipe
asks for.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .payoff import PayoffSpec, QuadraticBilinear, require

__all__ = [
    "JointPoint",
    "gd_step",
    "solve_equilibrium",
    "duality_gap_bound",
    "gd_rate_audit",
    "EnvelopeViolation",
    "warm_start_tolerance",
]


class EnvelopeViolation(RuntimeError):
    """A measured trajectory exceeded its certified decay envelope."""


@dataclass(frozen=True)
class JointPoint:
    """A joint point z = (x, y) of the two players."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("joint point must have finite entries")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def vector(self) -> np.ndarray:
        """Concatenated (x, y) in R^{2d}."""
        return np.concatenate([self.x, self.y])


def grad_norm(spec: PayoffSpec, z: JointPoint, scale: float = 1.0) -> float:
    """|grad V(z)| / scale over both players, scaled before it is squared."""
    gx = spec.grad_x(z.x, z.y) / scale
    gy = spec.grad_y(z.x, z.y) / scale
    return float(np.sqrt(gx @ gx + gy @ gy))


def gd_step(spec: PayoffSpec, z: JointPoint, eta_gd: float) -> JointPoint:
    """One descent-ascent step; warns outside the certified rate regime."""
    require("nonnegative", eta_gd=eta_gd)
    if eta_gd > spec.constants().eta_gd:
        warnings.warn(
            "eta_gd exceeds alpha / (4 L^2); the exponential rate guarantee "
            "does not apply",
            stacklevel=2,
        )
    gx = spec.grad_x(z.x, z.y)
    gy = spec.grad_y(z.x, z.y)
    return JointPoint(x=z.x - eta_gd * gx, y=z.y + eta_gd * gy)


def _solve_quadratic(spec: QuadraticBilinear) -> JointPoint:
    # Stationarity: A x + C y + u = 0 and -B y + C'x + v = 0.  The block
    # matrix is invertible whenever A, B are positive definite.
    d = spec.dim
    K = spec.hessian_joint()
    rhs = np.concatenate([-spec.u, -spec.v])
    z = np.linalg.solve(K, rhs)
    # One step of iterative refinement keeps the residual near rounding level.
    z = z + np.linalg.solve(K, rhs - K @ z)
    return JointPoint(x=z[:d], y=z[d:])


def warm_start_tolerance(spec: PayoffSpec, tau: float) -> float:
    """Gradient-norm target sqrt(tau * d * L^2 / alpha^3) for warm starts."""
    c = spec.constants()
    return float(np.sqrt(tau * spec.dim * c.smooth_L**2 / c.alpha**3))


def solve_equilibrium(
    spec: PayoffSpec, tol: float = 1e-10, max_iters: int = 1_000_000
) -> tuple[JointPoint, int]:
    """Equilibrium point with |grad V(z*)| <= tol * s, plus iterations used.

    The scale ``s = max(1, |grad V(0)|) = max(1, |(u, v)|)`` makes the test
    relative to the linear terms, whose size the rounding residual of any
    solve grows with.  Quadratic payoffs are solved directly (0 iterations);
    the perturbed family runs gradient descent-ascent at eta = alpha / (4 L^2)
    from the base-quadratic solution.
    """
    require("positive", tol=tol)
    require("nonnegative", max_iters=max_iters)
    base = spec if isinstance(spec, QuadraticBilinear) else spec.base
    scale = max(1.0, math.hypot(*base.u, *base.v))
    z = _solve_quadratic(base)
    if base is spec:
        if grad_norm(spec, z, scale) > tol:
            raise RuntimeError(
                "direct linear solve failed to reach the requested residual; "
                "the system should be invertible under the payoff invariants"
            )
        return z, 0
    eta = spec.constants().eta_gd
    for k in range(max_iters):
        if grad_norm(spec, z, scale) <= tol:
            return z, k
        z = gd_step(spec, z, eta)
    if grad_norm(spec, z, scale) <= tol:
        return z, max_iters
    raise RuntimeError(f"equilibrium solve did not reach tol={tol} "
                       f"within {max_iters} iterations")


def duality_gap_bound(spec: PayoffSpec, z: JointPoint) -> float:
    """Upper bound |grad V(z)|^2 / (2 alpha) on the duality gap at z."""
    c = spec.constants()
    return grad_norm(spec, z) ** 2 / (2.0 * c.alpha)


def gd_rate_audit(
    spec: PayoffSpec, z0: JointPoint, eta_gd: float, steps: int
) -> list[tuple[int, float, float]]:
    """Track ``|z_k - z*|^2`` against the envelope ``exp(-alpha eta k) |z_0 - z*|^2``.

    Returns ``(k, distance_sq, envelope)`` triples for k = 0..steps and raises
    :class:`EnvelopeViolation` if any distance exceeds its envelope by more
    than 1e-9 relative slack, which would indicate a constants or update bug.
    """
    require("nonnegative", eta_gd=eta_gd, steps=steps)
    c = spec.constants()
    if not eta_gd <= c.eta_gd:
        raise ValueError("rate audit requires eta_gd <= alpha / (4 L^2)")
    z_star, _ = solve_equilibrium(spec)
    d0 = float(np.sum((z0.vector - z_star.vector) ** 2))
    records = []
    z = z0
    for k in range(steps + 1):
        dist_sq = float(np.sum((z.vector - z_star.vector) ** 2))
        envelope = np.exp(-c.alpha * eta_gd * k) * d0
        records.append((k, dist_sq, envelope))
        if dist_sq > envelope * (1.0 + 1e-9):
            raise EnvelopeViolation(
                f"step {k}: distance^2 {dist_sq:.6e} exceeds envelope "
                f"{envelope:.6e}"
            )
        if k < steps:
            z = gd_step(spec, z, eta_gd)
    return records
