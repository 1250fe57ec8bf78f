"""Strongly convex-concave payoff families with analytic gradients.

Two families are provided:

* :class:`QuadraticBilinear` -
  ``V(x, y) = 1/2 x'Ax - 1/2 y'By + x'Cy + u'x + v'y`` with ``A, B`` symmetric
  positive definite.  The Hessian ``H = [[A, C], [C', -B]]`` is constant, so
  both constants are exact and are computed once, at construction, by
  symmetric eigensolves: ``alpha = min(lmin(A), lmin(B))`` and
  ``L = max |eig(H)|``, which is the operator norm of the symmetric ``H``.
* :class:`PerturbedQuadratic`: the quadratic base plus a separable cosine
  ripple ``amp * sum_i (cos(freq*x_i) - cos(freq*y_i))``.  The ripple keeps
  the payoff four-times continuously differentiable and shifts every Hessian
  eigenvalue by at most ``amp * freq**2``, so certified (not tight) constants
  follow from the base's: ``alpha - amp * freq**2`` and ``L + amp * freq**2``.

Both families expose elementwise-broadcasting gradients: ``grad_x``/``grad_y``
accept inputs of shape ``(..., d)`` and return the broadcast shape.  The
particle drift also relies on ``grad_x`` being affine in ``y`` and ``grad_y``
affine in ``x`` (true here: the cross term ``x'Cy`` is bilinear and the
ripple is separable), so an average over opponents equals the gradient at
the opponents' mean.  A new family must keep both properties.

:class:`Constants` also states the step-size regimes of the guarantees once:
stability at ``eta < alpha / (2 L**2)``, the min-max GD rate at
``eta <= alpha / (4 L**2)`` and the stationary-bias bound at
``eta <= alpha / (64 L**2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Constants",
    "QuadraticBilinear",
    "PerturbedQuadratic",
    "PayoffSpec",
    "CONSTANTS_SCHEME",
    "check_gradient_fd",
]

# How the constants are computed, as run manifests record it; a change to the
# computed alpha or L changes it.
CONSTANTS_SCHEME = ("exact: alpha = min(eigvalsh(A), eigvalsh(B)), "
                    "L = max |eigvalsh([[A, C], [C', -B]])|; perturbed: "
                    "alpha - amp*freq**2, L + amp*freq**2")


@dataclass(frozen=True)
class Constants:
    """Certified constants 0 < alpha <= smooth_L (the convexity-concavity
    modulus and a bound on the joint Hessian's operator norm, computed once
    per payoff at construction as the module docstring says), and the three
    step-size regimes they fix: ``eta_stable``, ``eta_gd``, ``eta_strict``."""

    alpha: float
    smooth_L: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= self.smooth_L):
            raise ValueError(
                f"constants must satisfy 0 < alpha <= smooth_L, "
                f"got alpha={self.alpha}, smooth_L={self.smooth_L}"
            )

    @property
    def eta_stable(self) -> float:  # the particle update needs eta < eta_stable
        return self.alpha / (2.0 * self.smooth_L**2)

    @property
    def eta_gd(self) -> float:  # min-max GD keeps its rate for eta <= eta_gd
        return self.alpha / (4.0 * self.smooth_L**2)

    @property
    def eta_strict(self) -> float:  # the stationary-bias bound: eta <= eta_strict
        return self.alpha / (64.0 * self.smooth_L**2)


def _as_matrix(m, dim: int, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (dim, dim):
        raise ValueError(f"{name} must have shape ({dim}, {dim}), got {m.shape}")
    return m


def _as_vector(v, dim: int, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (dim,):
        raise ValueError(f"{name} must have shape ({dim},), got {v.shape}")
    return v


@dataclass(frozen=True, eq=False)
class QuadraticBilinear:
    """Quadratic-bilinear payoff ``1/2 x'Ax - 1/2 y'By + x'Cy + u'x + v'y``."""

    dim: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    u: np.ndarray = None
    v: np.ndarray = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        object.__setattr__(self, "A", _as_matrix(self.A, self.dim, "A"))
        object.__setattr__(self, "B", _as_matrix(self.B, self.dim, "B"))
        object.__setattr__(self, "C", _as_matrix(self.C, self.dim, "C"))
        u = np.zeros(self.dim) if self.u is None else _as_vector(self.u, self.dim, "u")
        v = np.zeros(self.dim) if self.v is None else _as_vector(self.v, self.dim, "v")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        lmin = []
        for name, m in (("A", self.A), ("B", self.B)):
            if not np.allclose(m, m.T, atol=1e-12):
                raise ValueError(f"{name} must be symmetric")
            lmin.append(np.linalg.eigvalsh(m).min())
            if lmin[-1] <= 0.0:
                raise ValueError(f"{name} must be positive definite")
        eig_h = np.linalg.eigvalsh(self.hessian_joint())
        constants = Constants(float(min(lmin)), float(np.abs(eig_h).max()))
        object.__setattr__(self, "_constants", constants)

    def __eq__(self, other):
        if not isinstance(other, QuadraticBilinear):
            return NotImplemented
        return self.dim == other.dim and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("A", "B", "C", "u", "v")
        )

    def _check_point(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape[-1:] != (self.dim,) or y.shape[-1:] != (self.dim,):
            raise ValueError(
                f"x and y must have trailing dimension {self.dim}, "
                f"got {x.shape} and {y.shape}"
            )
        return x, y

    def value(self, x, y):
        """V(x, y); broadcasts over leading axes."""
        x, y = self._check_point(x, y)
        qx = 0.5 * np.sum((x @ self.A) * x, axis=-1)
        qy = 0.5 * np.sum((y @ self.B) * y, axis=-1)
        cross = np.sum(x * (y @ self.C.T), axis=-1)
        return qx - qy + cross + x @ self.u + y @ self.v

    def grad_x(self, x, y):
        """∇_x V = Ax + Cy + u; broadcasts."""
        x, y = self._check_point(x, y)
        return (x @ self.A.T + self.u) + y @ self.C.T

    def grad_y(self, x, y):
        """∇_y V = -By + C'x + v; broadcasts."""
        x, y = self._check_point(x, y)
        return (-(y @ self.B.T) + self.v) + x @ self.C

    def hessian_joint(self) -> np.ndarray:
        """The constant 2d x 2d Hessian [[A, C], [C', -B]]."""
        return np.block([[self.A, self.C], [self.C.T, -self.B]])

    def constants(self) -> Constants:
        return self._constants


@dataclass(frozen=True, eq=False)
class PerturbedQuadratic:
    """Quadratic base plus ``amp * sum_i (cos(freq*x_i) - cos(freq*y_i))``.

    The cap ``amp * freq**2 <= min(lmin(A), lmin(B)) / 2`` keeps the Hessian
    blocks uniformly definite; ``constants()`` returns the certified bounds
    ``alpha = min lmin - amp*freq**2`` and ``L = |H_base|_op + amp*freq**2``,
    which are conservative rather than tight for amp > 0.
    """

    base: QuadraticBilinear
    amplitude: float
    frequency: float

    def __post_init__(self):
        if self.amplitude < 0.0:
            raise ValueError("amplitude must be nonnegative")
        if self.frequency <= 0.0:
            raise ValueError("frequency must be positive")
        shift = self.amplitude * self.frequency**2
        base = self.base.constants()
        if shift > 0.5 * base.alpha:
            raise ValueError(
                "amplitude * frequency**2 exceeds half the smallest Hessian "
                "eigenvalue; strong convexity-concavity would be lost"
            )
        constants = Constants(base.alpha - shift, base.smooth_L + shift)
        object.__setattr__(self, "_constants", constants)

    def __eq__(self, other):
        if not isinstance(other, PerturbedQuadratic):
            return NotImplemented
        return (
            self.base == other.base
            and self.amplitude == other.amplitude
            and self.frequency == other.frequency
        )

    @property
    def dim(self) -> int:
        return self.base.dim

    def value(self, x, y):
        x, y = self.base._check_point(x, y)
        f = self.frequency
        ripple = np.sum(np.cos(f * x), axis=-1) - np.sum(np.cos(f * y), axis=-1)
        return self.base.value(x, y) + self.amplitude * ripple

    def grad_x(self, x, y):
        x, y = self.base._check_point(x, y)
        f = self.frequency
        return self.base.grad_x(x, y) - self.amplitude * f * np.sin(f * x)

    def grad_y(self, x, y):
        x, y = self.base._check_point(x, y)
        f = self.frequency
        return self.base.grad_y(x, y) + self.amplitude * f * np.sin(f * y)

    def constants(self) -> Constants:
        return self._constants


# Either payoff family; both expose value / grad_x / grad_y / constants / dim.
PayoffSpec = QuadraticBilinear | PerturbedQuadratic


def check_gradient_fd(spec: PayoffSpec, x, y, h: float = 1e-5) -> float:
    """Max deviation of the analytic gradient from central finite differences.

    Deviations are measured per component relative to max(1, |component|),
    so near-zero gradient components are compared absolutely.  A NaN
    gradient or value gives NaN, which fails every ``<= tol`` test.
    """
    if not h > 0.0:
        raise ValueError("finite-difference step h must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    grad = np.stack([spec.grad_x(x, y), spec.grad_y(x, y)])
    fd = np.empty_like(grad)
    for k, e in enumerate(h * np.eye(spec.dim)):
        fd[0, k] = spec.value(x + e, y) - spec.value(x - e, y)
        fd[1, k] = spec.value(x, y + e) - spec.value(x, y - e)
    deviation = np.abs(fd / (2.0 * h) - grad) / np.maximum(1.0, np.abs(grad))
    return float(np.max(deviation))
