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

Every function of payoff points broadcasts over ``(..., d)`` inputs, and
``curvature(z)`` gives the Hessian blocks ``(∇²ₓₓV, −∇²ᵧᵧV)`` at one point.
In ``grad_x`` and ``grad_y``, a cloud or a stack of any number of systems of
at least two rows each meets each matrix in one gemm through ``np.dot``,
with every system's own ``@`` bits.
Matrices and vectors must be finite.  The particle drift also relies on
``grad_x`` being affine in ``y`` and ``grad_y`` affine in ``x`` (true here:
the cross term ``x'Cy`` is bilinear and the ripple is separable), so an
average over opponents equals the gradient at the opponents' mean.  A new
family must keep both properties.

:class:`Constants` also states the step-size regimes of the guarantees once:
stability at ``eta < alpha / (2 L**2)``, the min-max GD rate at
``eta <= alpha / (4 L**2)`` and the stationary-bias bound at
``eta <= alpha / (64 L**2)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "Constants",
    "QuadraticBilinear",
    "PerturbedQuadratic",
    "PayoffSpec",
    "CONSTANTS_SCHEME",
    "check_gradient_fd",
    "require",
]

# Each rule is a comparison that NaN fails, so no rule lets a NaN through.
_RULES = {"positive": lambda v: v > 0, "nonnegative": lambda v: v >= 0,
          "at least 1": lambda v: v >= 1}


def require(rule: str, **values) -> None:
    """Raise ``ValueError("<name> must be <rule>")`` for the first of ``values``
    that breaks ``rule``: "positive", "nonnegative" or "at least 1"."""
    test = _RULES[rule]
    for name, value in values.items():
        if not test(value):
            raise ValueError(f"{name} must be {rule}")


def unstacked(value):
    """A 0-d numpy result as a Python float or bool; a stacked one unchanged."""
    return value.item() if value.ndim == 0 else value


def same_fields(self, other):
    """``__eq__`` of a dataclass that holds arrays: the same type and every
    field equal, arrays by ``np.array_equal``.  Set in the body of a
    ``dataclass(eq=False)``, it leaves the class unhashable."""
    if type(other) is not type(self):
        return NotImplemented
    pairs = [(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)]
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
               else a == b for a, b in pairs)


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
        # smooth_L**4 is the largest power a run takes (the KL bias bound;
        # alpha**3 <= smooth_L**3), so no power a run takes overflows.
        squared = self.smooth_L * self.smooth_L
        if not math.isfinite(squared * squared):
            raise ValueError(f"smooth_L**4 is outside floating-point range, "
                             f"got smooth_L={self.smooth_L}")

    @property
    def eta_stable(self) -> float:  # the particle update needs eta < eta_stable
        return self.alpha / (2.0 * self.smooth_L**2)

    @property
    def eta_gd(self) -> float:  # min-max GD keeps its rate for eta <= eta_gd
        return self.alpha / (4.0 * self.smooth_L**2)

    @property
    def eta_strict(self) -> float:  # the stationary-bias bound: eta <= eta_strict
        return self.alpha / (64.0 * self.smooth_L**2)


def _as_array(value, shape: tuple, name: str) -> np.ndarray:
    """``value`` as a float array of ``shape`` with finite entries."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite")
    return value


def _times(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``v @ m`` for a square payoff matrix ``m``, with ``@``'s bits.  A
    cloud or a stack of systems of at least two rows each runs as one
    ``np.dot`` on its ``(rows, d)`` view: one gemm, at less than half of
    ``matmul``'s call cost when ``d = 1``.  One row per system keeps ``@``:
    a stack of rows runs as a gemv per row, whose bits one gemm does not
    reproduce, and ``np.dot`` of a lone element by a 1 x 1 ``m`` is a bare
    product, ``-0.0`` for ``0.0`` times a negative entry where ``@`` gives
    ``+0.0``."""
    if v.ndim == 1 or v.shape[-2] == 1:
        return v @ m
    if v.ndim == 2:  # unreshaped: at 16 rows two views cost more than np.dot saves
        return np.dot(v, m)
    return np.dot(v.reshape(-1, v.shape[-1]), m).reshape(v.shape)


@dataclass(frozen=True, eq=False)
class QuadraticBilinear:
    """Quadratic-bilinear payoff ``1/2 x'Ax - 1/2 y'By + x'Cy + u'x + v'y``."""

    dim: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    u: np.ndarray = None
    v: np.ndarray = None

    __eq__ = same_fields

    def __post_init__(self):
        require("at least 1", dim=self.dim)
        square, vector = (self.dim, self.dim), (self.dim,)
        for name, shape in (("A", square), ("B", square), ("C", square),
                            ("u", vector), ("v", vector)):
            value = getattr(self, name)
            if value is None and shape == vector:  # u and v default to zero
                value = np.zeros(vector)
            object.__setattr__(self, name, _as_array(value, shape, name))
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
        return (_times(x, self.A.T) + self.u) + _times(y, self.C.T)

    def grad_y(self, x, y):
        """∇_y V = -By + C'x + v; broadcasts."""
        x, y = self._check_point(x, y)
        return (-_times(y, self.B.T) + self.v) + _times(x, self.C)

    def hessian_joint(self) -> np.ndarray:
        """The constant 2d x 2d Hessian [[A, C], [C', -B]]."""
        return np.block([[self.A, self.C], [self.C.T, -self.B]])

    def curvature(self, z):
        """(∇²ₓₓV, −∇²ᵧᵧV) at z: (A, B) everywhere."""
        return self.A, self.B

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

    __eq__ = same_fields

    def __post_init__(self):
        require("nonnegative", amplitude=self.amplitude)
        require("positive", frequency=self.frequency)
        # Not math.isfinite: an int frequency can square past every float.
        if not self.frequency * self.frequency <= sys.float_info.max:
            raise ValueError(f"frequency**2 is outside floating-point range, "
                             f"got frequency={self.frequency}")
        shift = self.amplitude * self.frequency**2
        base = self.base.constants()
        if shift > 0.5 * base.alpha:
            raise ValueError(
                "amplitude * frequency**2 exceeds half the smallest Hessian "
                "eigenvalue; strong convexity-concavity would be lost"
            )
        constants = Constants(base.alpha - shift, base.smooth_L + shift)
        object.__setattr__(self, "_constants", constants)

    @property
    def dim(self) -> int:
        return self.base.dim

    def value(self, x, y):
        x, y = self.base._check_point(x, y)
        f = self.frequency
        ripple = np.sum(np.cos(f * x), axis=-1) - np.sum(np.cos(f * y), axis=-1)
        return self.base.value(x, y) + self.amplitude * ripple

    def ripple(self, v):
        """``amp * freq * sin(freq * v)`` per coordinate: what ``grad_x``
        subtracts from the base's and ``grad_y`` adds to it.  So the drift
        b_Z is the base's plus the ripple of z (up to the sign of a zero)."""
        f = self.frequency
        return self.amplitude * f * np.sin(f * v)

    def grad_x(self, x, y):
        x, y = self.base._check_point(x, y)
        return self.base.grad_x(x, y) - self.ripple(x)

    def grad_y(self, x, y):
        x, y = self.base._check_point(x, y)
        return self.base.grad_y(x, y) + self.ripple(y)

    def curvature(self, z):
        """(∇²ₓₓV, −∇²ᵧᵧV) at z: the base's (A, B) shifted by the ripple."""
        shift = self.amplitude * self.frequency**2
        return (self.base.A - shift * np.diag(np.cos(self.frequency * z.x)),
                self.base.B - shift * np.diag(np.cos(self.frequency * z.y)))

    def constants(self) -> Constants:
        return self._constants


# Either payoff family: value, grad_x, grad_y, curvature, constants, dim.
PayoffSpec = QuadraticBilinear | PerturbedQuadratic


_FD_STEP = 1e-5  # the central finite-difference step of check_gradient_fd


def check_gradient_fd(spec: PayoffSpec, x, y) -> float:
    """Max deviation, over all points, of the analytic gradient from central FD.

    Deviations are measured per component relative to max(1, |component|),
    so near-zero gradient components are compared absolutely.  A NaN
    gradient or value gives NaN, which fails every ``<= tol`` test.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    grad = np.stack([spec.grad_x(x, y), spec.grad_y(x, y)])
    fd = np.empty_like(grad)
    for k, e in enumerate(_FD_STEP * np.eye(spec.dim)):
        fd[0, ..., k] = spec.value(x + e, y) - spec.value(x - e, y)
        fd[1, ..., k] = spec.value(x, y + e) - spec.value(x, y - e)
    deviation = np.abs(fd / (2.0 * _FD_STEP) - grad) / np.maximum(1.0, np.abs(grad))
    return float(np.max(deviation))
