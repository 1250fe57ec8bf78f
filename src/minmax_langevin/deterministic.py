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

from .payoff import PayoffSpec, QuadraticBilinear, require, same_fields, unstacked

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


@dataclass(frozen=True, eq=False)
class JointPoint:
    """A joint point z = (x, y) of the two players, or a stack of them:
    ``(..., d)`` arrays whose leading axes index the points."""

    x: np.ndarray
    y: np.ndarray

    __eq__ = same_fields

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.shape != y.shape or x.ndim < 1:
            raise ValueError("x and y must be (..., d) arrays of equal shape")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("joint point must have finite entries")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def vector(self) -> np.ndarray:
        """Concatenated (x, y) in R^{2d}."""
        return np.concatenate([self.x, self.y], axis=-1)


def grad_norm(spec: PayoffSpec, z: JointPoint, scale: float = 1.0):
    """|grad V(z)| / scale over both players, scaled before it is squared.

    A float, or an array over the leading axes of a stacked ``z``.  The
    gradients and squares are taken on (..., 1, d) rows, so each entry has
    the bits of its own unstacked call (a (K, d) gradient would be one gemm,
    whose rounding differs from the per-point gemv).
    """
    x, y = z.x[..., None, :], z.y[..., None, :]
    gx = spec.grad_x(x, y) / scale
    gy = spec.grad_y(x, y) / scale
    squared = gx @ gx.swapaxes(-1, -2) + gy @ gy.swapaxes(-1, -2)
    return unstacked(np.sqrt(squared[..., 0, 0]))


def gd_step(spec: PayoffSpec, z: JointPoint, eta_gd: float) -> JointPoint:
    """One descent-ascent step; warns outside the certified rate regime."""
    require("nonnegative", eta_gd=eta_gd)
    if eta_gd > spec.constants().eta_gd:
        warnings.warn(
            "eta_gd exceeds alpha / (4 L^2); the exponential rate guarantee "
            "does not apply",
            stacklevel=2,
        )
    return JointPoint(*_gd_update(spec, z.x, z.y, eta_gd))


def _gd_update(spec: PayoffSpec, x: np.ndarray, y: np.ndarray, eta_gd: float):
    """The descent-ascent update on plain arrays, unchecked: ``gd_step``'s body."""
    return x - eta_gd * spec.grad_x(x, y), y + eta_gd * spec.grad_y(x, y)


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
    cube = c.alpha**3  # where it underflows to 0, the target is its limit, inf
    return float(np.sqrt(tau * spec.dim * c.smooth_L**2 / cube)) if cube else math.inf


_MAX_ITERS = 1_000_000  # the step cap of solve_equilibrium's descent-ascent


def solve_equilibrium(spec: PayoffSpec, tol: float = 1e-10) -> tuple[JointPoint, int]:
    """Equilibrium point with |grad V(z*)| <= tol * s, plus iterations used.

    The scale ``s = max(1, |grad V(0)|) = max(1, |(u, v)|)`` makes the test
    relative to the linear terms, whose size the rounding residual of any
    solve grows with.  Quadratic payoffs are solved directly (0 iterations);
    the perturbed family runs gradient descent-ascent at eta = alpha / (4 L^2)
    from the base-quadratic solution.  A residual still above ``tol`` after
    the last step, or not finite (NaN) at any step, raises ``RuntimeError``.
    """
    require("positive", tol=tol)
    base = spec if isinstance(spec, QuadraticBilinear) else spec.base
    scale = max(1.0, math.hypot(*base.u, *base.v))
    z = _solve_quadratic(base)
    iters = 0 if base is spec else _MAX_ITERS
    eta = spec.constants().eta_gd
    for k in range(iters + 1):
        norm = grad_norm(spec, z, scale)
        if norm <= tol:
            return z, k
        if k == iters or not math.isfinite(norm):
            raise RuntimeError(f"equilibrium solve stopped at residual {norm:.3e} "
                               f"> tol={tol} after {k} steps")
        z = JointPoint(*_gd_update(spec, z.x, z.y, eta))


def duality_gap_bound(spec: PayoffSpec, z: JointPoint):
    """Upper bound |grad V(z)|^2 / (2 alpha) on the duality gap at z.

    Over a stacked ``z``, an array of each point's own bound, bit for bit.
    The norm is squared per point as a Python float (libm ``pow``), whose
    last bit numpy's array square does not always reproduce.
    """
    c = spec.constants()
    norms = grad_norm(spec, z)
    gaps = [float(norm) ** 2 / (2.0 * c.alpha) for norm in np.ravel(norms)]
    return gaps[0] if np.ndim(norms) == 0 else np.reshape(gaps, np.shape(norms))


def gd_rate_audit(
    spec: PayoffSpec, z0: JointPoint, eta_gd: float, steps: int
) -> list[tuple[int, float, float]]:
    """Track ``|z_k - z*|^2`` against the envelope ``exp(-alpha eta k) |z_0 - z*|^2``.

    Returns ``(k, distance_sq, envelope)`` triples for k = 0..steps and raises
    :class:`EnvelopeViolation` if any distance exceeds its envelope by more
    than 1e-9 relative slack, or is NaN, which would indicate a constants or
    update bug.  Arguments are checked once; each step is ``gd_step``'s update.
    The whole trajectory is stepped first, with numpy's warnings off, then
    scored in one pass; the first violating step is the one reported.
    """
    require("nonnegative", eta_gd=eta_gd, steps=steps)
    c = spec.constants()
    if not eta_gd <= c.eta_gd:
        raise ValueError("rate audit requires eta_gd <= alpha / (4 L^2)")
    star = solve_equilibrium(spec)[0].vector
    x, y = z0.x, z0.y
    xs, ys = np.empty((steps + 1,) + x.shape), np.empty((steps + 1,) + y.shape)
    xs[0], ys[0] = x, y
    with np.errstate(all="ignore"):  # a diverging trajectory fails its envelope
        for k in range(1, steps + 1):
            x, y = _gd_update(spec, x, y, eta_gd)
            xs[k], ys[k] = x, y
        dz = (np.concatenate([xs, ys], axis=-1) - star).reshape(steps + 1, -1)
        dist_sq = np.add.reduce(dz * dz, axis=1)  # each step's np.sum bits
        envelopes = np.exp(-c.alpha * eta_gd * np.arange(steps + 1)) * dist_sq[0]
        below = dist_sq <= envelopes * (1.0 + 1e-9)
    records = list(zip(range(steps + 1), dist_sq.tolist(), envelopes))
    if not below.all():
        k, dist, envelope = records[np.argmin(below)]
        raise EnvelopeViolation(
            f"step {k}: distance^2 {dist:.6e} exceeds envelope {envelope:.6e}")
    return records
