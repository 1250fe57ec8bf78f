"""Closed-form equilibria for quadratic payoffs and theory-bound calculators.

For the quadratic-bilinear family the best-response fixed point is Gaussian
with the saddle point as mean and covariances set by the temperature:

    nu_X = N(x*, tau * A^{-1}),    nu_Y = N(y*, tau * B^{-1}).

The symbolic best-response map (:func:`gaussian_best_response`) is kept as an
independent route to the same object: applying it once to the output of
:func:`quadratic_equilibrium` must return the pair unchanged.

The remaining functions evaluate the bias/variance/initialization bounds and
the parameter recipe used as one-sided acceptance envelopes.  Their numeric
constants (45, 55, 2475, 7500, 270, 684, ...) are proof artifacts, not tight
values; all envelopes are upper bounds only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deterministic import JointPoint, solve_equilibrium
from .payoff import Constants, PayoffSpec, QuadraticBilinear

__all__ = [
    "GaussianDist",
    "Plan",
    "gaussian_best_response",
    "quadratic_equilibrium",
    "joint_equilibrium",
    "equilibrium_variance",
    "plan_parameters",
    "variance_and_fisher_bounds",
    "kl_bias_bound",
    "transient_kl_envelope",
]


@dataclass(frozen=True, eq=False)
class GaussianDist:
    """Gaussian with mean vector and (symmetric PSD) covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        m = mean.shape[0]
        if mean.ndim != 1 or cov.shape != (m, m):
            raise ValueError("mean must be (m,) and cov (m, m)")
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ValueError("cov must be symmetric")
        if np.linalg.eigvalsh(cov).min() < -1e-10:
            raise ValueError("cov must be positive semidefinite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @classmethod
    def isotropic(cls, mean, scale: float) -> "GaussianDist":
        """Shorthand for N(mean, scale * I)."""
        mean = np.asarray(mean, dtype=float)
        return cls(mean=mean, cov=scale * np.eye(mean.shape[0]))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def __eq__(self, other):
        if not isinstance(other, GaussianDist):
            return NotImplemented
        return np.array_equal(self.mean, other.mean) and np.array_equal(
            self.cov, other.cov
        )


def _require_quadratic(spec: PayoffSpec) -> QuadraticBilinear:
    if not isinstance(spec, QuadraticBilinear):
        raise ValueError(
            "closed-form equilibria exist only for the quadratic-bilinear family"
        )
    return spec


def gaussian_best_response(
    spec: PayoffSpec, tau: float, rho_x: GaussianDist, rho_y: GaussianDist
):
    """Best responses to Gaussian opponents under a quadratic payoff.

    The response to ``rho_y`` is the Gibbs distribution proportional to
    ``exp(-E_{rho_y} V(x, Y) / tau)``; for quadratic V this is the Gaussian
    ``N(-A^{-1} (C m_y + u), tau A^{-1})`` and depends on the opponent only
    through its mean (and symmetrically for the other player).
    """
    spec = _require_quadratic(spec)
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    nu_x = GaussianDist(
        mean=np.linalg.solve(spec.A, -(spec.C @ rho_y.mean + spec.u)),
        cov=tau * np.linalg.inv(spec.A),
    )
    nu_y = GaussianDist(
        mean=np.linalg.solve(spec.B, spec.C.T @ rho_x.mean + spec.v),
        cov=tau * np.linalg.inv(spec.B),
    )
    return nu_x, nu_y


def quadratic_equilibrium(spec: PayoffSpec, tau: float):
    """The equilibrium pair (nu_X, nu_Y) = (N(x*, tau A^-1), N(y*, tau B^-1))."""
    spec = _require_quadratic(spec)
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    z_star, _ = solve_equilibrium(spec)
    nu_x = GaussianDist(mean=z_star.x, cov=tau * np.linalg.inv(spec.A))
    nu_y = GaussianDist(mean=z_star.y, cov=tau * np.linalg.inv(spec.B))
    return nu_x, nu_y


def joint_equilibrium(spec: PayoffSpec, tau: float) -> GaussianDist:
    """The product nu_Z = nu_X (x) nu_Y as one block-diagonal Gaussian on R^{2d}."""
    nu_x, nu_y = quadratic_equilibrium(spec, tau)
    d = nu_x.dim
    cov = np.zeros((2 * d, 2 * d))
    cov[:d, :d] = nu_x.cov
    cov[d:, d:] = nu_y.cov
    return GaussianDist(mean=np.concatenate([nu_x.mean, nu_y.mean]), cov=cov)


def equilibrium_variance(spec: PayoffSpec, tau: float) -> float:
    """Exact equilibrium variance tr(tau A^-1) + tr(tau B^-1)."""
    spec = _require_quadratic(spec)
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    return float(
        tau * np.trace(np.linalg.inv(spec.A)) + tau * np.trace(np.linalg.inv(spec.B))
    )


@dataclass(frozen=True)
class Plan:
    """Algorithm parameters produced by the accuracy-driven recipe."""

    eta: float
    n_particles: int
    iters: int
    gd_iters: int
    gd_eta: float
    init_cov_scale: float

    def __post_init__(self):
        if min(self.n_particles, self.iters, self.gd_iters) < 0:
            raise ValueError("counts must be nonnegative")


def _clamped_log(arg: float) -> float:
    # Log arguments at or below 1 mean the target is already met: 0 iterations.
    return math.log(arg) if arg > 1.0 else 0.0


def plan_parameters(
    alpha: float,
    smooth_l: float,
    tau: float,
    d: int,
    eps: float,
    z_star_norm_sq: float = 0.0,
) -> Plan:
    """Step size, particle count and iteration counts for target accuracy eps.

    Evaluates, with L = smooth_l:

        eta     = eps * alpha^3 / (7500 d L^4)
        N       = ceil(270 d L^4 / (eps alpha^4))
        iters   = ceil((7500 d L^4 / (eps alpha^4)) * log(684 d L^6 / (eps alpha^6)))
        gd_eta  = alpha / (4 L^2)
        gd_iters= ceil((4 L^2 / alpha^2) * log(alpha^3 |z*|^2 / (tau d L^2)))

    Counts are ceilings; log arguments are clamped below at 1.  ``(alpha,
    smooth_l)`` must be valid :class:`Constants` (``0 < alpha <= L``), and
    requests with eps so large that eta would exceed alpha / (64 L^2) fall
    outside the guarantee regime; both are rejected.
    """
    c = Constants(alpha, smooth_l)
    if not tau > 0.0 or d < 1:
        raise ValueError("alpha, smooth_l, tau must be positive and d >= 1")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if not z_star_norm_sq >= 0.0:
        raise ValueError("z_star_norm_sq must be nonnegative")
    eta = eps * alpha**3 / (7500.0 * d * smooth_l**4)
    if eta > c.eta_strict:
        raise ValueError(
            "eps is too large: the recipe step size would leave the "
            "eta <= alpha/(64 L^2) regime"
        )
    n_particles = math.ceil(270.0 * d * smooth_l**4 / (eps * alpha**4))
    iters = math.ceil(
        (7500.0 * d * smooth_l**4 / (eps * alpha**4))
        * _clamped_log(684.0 * d * smooth_l**6 / (eps * alpha**6))
    )
    gd_iters = math.ceil(
        (4.0 * smooth_l**2 / alpha**2)
        * _clamped_log(alpha**3 * z_star_norm_sq / (tau * d * smooth_l**2))
    )
    return Plan(
        eta=eta,
        n_particles=n_particles,
        iters=iters,
        gd_iters=gd_iters,
        gd_eta=c.eta_gd,
        init_cov_scale=tau / smooth_l,
    )


def variance_and_fisher_bounds(
    alpha: float, smooth_l: float, tau: float, d: int, z_star_norm_sq: float = 0.0
):
    """(variance bound, initialization Fisher bound) for the equilibrium.

    ``var_bound = 2 tau d / alpha`` bounds the variance of a strongly
    log-concave equilibrium on R^d; pass the per-player dimension for the
    single-player reading or 2d for the joint distribution (the acceptance
    suite uses the joint reading).  ``fi_bound = 2 d (1 + L^2/tau^2) +
    L^2 |z*|^2 / tau^2`` bounds the relative Fisher information of the
    centered Gaussian initialization N(0, tau^2/L^2 I) to its best response.
    """
    Constants(alpha, smooth_l)
    if not tau > 0.0 or d < 1:
        raise ValueError("tau must be positive and d >= 1")
    if not z_star_norm_sq >= 0.0:
        raise ValueError("z_star_norm_sq must be nonnegative")
    var_bound = 2.0 * tau * d / alpha
    fi_bound = (
        2.0 * d * (1.0 + smooth_l**2 / tau**2)
        + smooth_l**2 * z_star_norm_sq / tau**2
    )
    return var_bound, fi_bound


def kl_bias_bound(
    alpha: float,
    smooth_l: float,
    tau: float,
    d: int,
    n_particles: int,
    eta: float,
    var_value: float,
) -> float:
    """Stationary KL bias of the average particle.

        45 L^4 Var / (alpha^3 tau N)  +  2475 eta d L^4 / alpha^3

    ``var_value`` is either the exact equilibrium variance (quadratic family:
    tr(tau A^-1) + tr(tau B^-1)) or the 2 tau d / alpha bound.
    """
    Constants(alpha, smooth_l)
    if not (tau > 0.0 and eta > 0.0 and var_value > 0.0) or d < 1 or n_particles < 1:
        raise ValueError("parameters must be positive")
    first = 45.0 * smooth_l**4 * var_value / (alpha**3 * tau * n_particles)
    second = 2475.0 * eta * d * smooth_l**4 / alpha**3
    return first + second


def transient_kl_envelope(
    initial_kl: float,
    initial_w2_sq: float,
    alpha: float,
    smooth_l: float,
    tau: float,
    eta: float,
    k: int,
    bias: float,
    n_particles: int,
) -> float:
    """Average-particle KL envelope at step k:

        exp(-alpha eta k) * (KL_0 + 9 L^2 / (alpha tau) * W2_0^2) / N + bias

    where KL_0 and W2_0^2 are the joint-state divergences of the particle
    initialization from the tensorized equilibrium (for i.i.d. Gaussian
    initialization, N times the per-particle quantities).
    """
    if not (initial_kl >= 0.0 and initial_w2_sq >= 0.0 and bias >= 0.0):
        raise ValueError("divergences and bias must be nonnegative")
    Constants(alpha, smooth_l)
    if not (tau > 0.0 and eta > 0.0) or k < 0 or n_particles < 1:
        raise ValueError("parameters must be positive and k nonnegative")
    transient = initial_kl + 9.0 * smooth_l**2 * initial_w2_sq / (alpha * tau)
    return math.exp(-alpha * eta * k) * transient / n_particles + bias
