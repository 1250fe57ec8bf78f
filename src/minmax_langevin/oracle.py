"""Gibbs-law equilibria of both payoff families and theory-bound calculators.

For the quadratic-bilinear family the best-response fixed point is Gaussian
with the saddle point as mean and covariances set by the temperature:

    nu_X = N(x*, tau * A^{-1}),    nu_Y = N(y*, tau * B^{-1}).

:func:`joint_equilibrium` builds it from the payoff's ``curvature`` at z*
with :func:`gibbs_product`, the one Gibbs-law builder; for the perturbed
family, whose equilibrium is not Gaussian, the result is a proxy.  The symbolic
best-response map (:func:`gaussian_best_response`) is kept as an independent
route to the same object: applying it once to the output of
:func:`quadratic_equilibrium` must return the pair unchanged.

The finite-(N, eta) chain of the quadratic family is linear too:
:func:`particle_modes` splits it into the particle mean's mode and the
deviation modes, and :func:`running_sq_distance_law` gives the exact mean and
s.d. of the second-moment suite's running mean from that split.

The remaining functions evaluate the bias/variance/initialization bounds and
the parameter recipe used as one-sided acceptance envelopes.  Their numeric
constants (45, 55, 2475, 7500, 270, 684, ...) are proof artifacts, not tight
values; all envelopes are upper bounds only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .deterministic import JointPoint, solve_equilibrium
from .payoff import Constants, PayoffSpec, QuadraticBilinear, require, unstacked

__all__ = [
    "GaussianDist",
    "Plan",
    "gibbs_product",
    "gaussian_best_response",
    "quadratic_equilibrium",
    "joint_equilibrium",
    "equilibrium_variance",
    "particle_modes",
    "running_sq_distance_law",
    "plan_parameters",
    "variance_and_fisher_bounds",
    "kl_bias_bound",
    "transient_kl_envelope",
]


# Eigenvalues at or below this count as zero: the one degeneracy rule.
PSD_CLIP = 1e-12


def sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, clipping at zero;
    over the leading axes of a stack of matrices too."""
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.swapaxes(-1, -2)


@dataclass(frozen=True, eq=False)
class GaussianDist:
    """Gaussian with mean vector and (symmetric PSD) covariance matrix.

    The one home of covariance algebra: the eigensolve that checks ``cov``
    also sets ``degenerate`` (smallest eigenvalue <= PSD_CLIP), and
    ``precision``, ``logdet`` and ``root`` are computed once, on first use.

    A stack of K Gaussians is one ``GaussianDist`` with ``(K, m)`` means and
    ``(K, m, m)`` covariances: every check and factor runs per row, and
    ``degenerate`` and ``logdet`` are arrays over the leading axes (a bool
    and a float without them).  Each row's numbers are those of its own
    unstacked ``GaussianDist``, bit for bit.
    """

    mean: np.ndarray
    cov: np.ndarray
    degenerate: bool = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim < 1 or cov.shape != mean.shape + mean.shape[-1:]:
            raise ValueError("mean must be (..., m) and cov (..., m, m)")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and cov must be finite")
        # np.allclose's rule, written out: the inputs are already finite.
        cov_t = cov.swapaxes(-1, -2)
        if not (np.abs(cov - cov_t) <= 1e-10 + 1e-5 * np.abs(cov_t)).all():
            raise ValueError("cov must be symmetric")
        vals = np.linalg.eigvalsh(cov)  # ascending
        smallest = vals[..., 0]
        # Relative to the largest eigenvalue: rounding a PSD matrix at scale
        # s can leave an eigenvalue near -1e-16 s, which is not a sign error.
        if (smallest < -1e-10 * np.maximum(1.0, vals[..., -1])).any():
            raise ValueError("cov must be positive semidefinite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "degenerate", unstacked(smallest <= PSD_CLIP))

    @functools.cached_property
    def precision(self) -> np.ndarray:
        return np.linalg.inv(self.cov)

    @functools.cached_property
    def logdet(self):
        """ln det cov; -inf unless the determinant's sign is +1."""
        sign, logdet = np.linalg.slogdet(self.cov)
        return unstacked(np.where(sign == 1, logdet, -math.inf))

    @functools.cached_property
    def root(self) -> np.ndarray:
        return sqrtm_psd(self.cov)

    @classmethod
    def isotropic(cls, mean, scale: float) -> "GaussianDist":
        """Shorthand for N(mean, scale * I)."""
        require("nonnegative", scale=scale)
        mean = np.asarray(mean, dtype=float)
        return cls(mean=mean, cov=scale * np.eye(mean.shape[0]))

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]

    def __eq__(self, other):
        if not isinstance(other, GaussianDist):
            return NotImplemented
        return np.array_equal(self.mean, other.mean) and np.array_equal(
            self.cov, other.cov
        )


def _require_quadratic(spec: PayoffSpec) -> QuadraticBilinear:
    if not isinstance(spec, QuadraticBilinear):
        raise ValueError(
            "closed-form laws exist only for the quadratic-bilinear family"
        )
    return spec


def gibbs_product(tau: float, z: JointPoint, h_x, h_y) -> GaussianDist:
    """N(x, tau h_x^-1) (x) N(y, tau h_y^-1) for z = (x, y), as one
    block-diagonal Gaussian on R^{2d}: the Gibbs law of a quadratic energy."""
    require("positive", tau=tau)
    d = z.x.shape[0]
    cov = np.zeros((2 * d, 2 * d))
    cov[:d, :d] = tau * np.linalg.inv(h_x)
    cov[d:, d:] = tau * np.linalg.inv(h_y)
    return GaussianDist(mean=z.vector, cov=cov)


def _split(joint: GaussianDist):
    """The two players' factors of a block-diagonal joint Gaussian."""
    d = joint.dim // 2
    return tuple(GaussianDist(mean=joint.mean[s], cov=joint.cov[s, s])
                 for s in (slice(None, d), slice(d, None)))


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
    z = JointPoint(x=np.linalg.solve(spec.A, -(spec.C @ rho_y.mean + spec.u)),
                   y=np.linalg.solve(spec.B, spec.C.T @ rho_x.mean + spec.v))
    return _split(gibbs_product(tau, z, spec.A, spec.B))


def quadratic_equilibrium(spec: PayoffSpec, tau: float):
    """The equilibrium pair (nu_X, nu_Y) = (N(x*, tau A^-1), N(y*, tau B^-1))."""
    return _split(joint_equilibrium(_require_quadratic(spec), tau))


def joint_equilibrium(spec: PayoffSpec, tau: float) -> GaussianDist:
    """N(z*, tau H^-1) on R^{2d}, H the curvature at the saddle point z*: the
    product nu_Z = nu_X (x) nu_Y for quadratic payoffs, else the proxy."""
    z_star, _ = solve_equilibrium(spec)
    return gibbs_product(tau, z_star, *spec.curvature(z_star))


def equilibrium_variance(spec: PayoffSpec, tau: float) -> float:
    """Exact equilibrium variance tr(tau A^-1) + tr(tau B^-1)."""
    spec = _require_quadratic(spec)
    require("positive", tau=tau)
    return float(
        tau * np.trace(np.linalg.inv(spec.A)) + tau * np.trace(np.linalg.inv(spec.B))
    )


def particle_modes(spec: PayoffSpec, eta: float, n: int):
    """The quadratic particle map z -> z + eta b_Z(z) about z*, split into
    orthogonal modes ``(matrix, count)``: the particle mean's
    ``G = [[I - eta A, -eta C], [eta C', I - eta B]]`` once, and each player's
    deviations from it, ``I - eta A`` and ``I - eta B``, n - 1 times each.
    Isotropic noise stays isotropic and independent across modes."""
    spec = _require_quadratic(spec)
    require("positive", eta=eta)
    require("at least 1", n=n)
    eye = np.eye(spec.dim)
    mean_mode = np.block([[eye - eta * spec.A, -eta * spec.C],
                          [eta * spec.C.T, eye - eta * spec.B]])
    return (mean_mode, 1), (eye - eta * spec.A, n - 1), (eye - eta * spec.B, n - 1)


def _powers(m: np.ndarray, k: int) -> np.ndarray:
    """M^0 .. M^k as a (k + 1, n, n) stack, by doubling."""
    stack, square = np.eye(len(m))[None], m
    while len(stack) <= k:
        stack = np.concatenate([stack, stack @ square])
        square = square @ square
    return stack[:k + 1]


def running_sq_distance_law(spec: PayoffSpec, tau: float, eta: float, n: int,
                            steps: int):
    """Exact (mean, s.d.) of ``mean_{k=0..steps} |z_k - z*|^2`` for n particles
    of the quadratic chain from N(z*, I), at step ``eta`` and temperature tau.

    The modes of :func:`particle_modes` are independent, so their means and
    variances add.  A mode M's coordinates e_k have covariance
    ``V_k = M^k M'^k + 2 tau eta sum_{j<k} M^j M'^j`` and, for j >= l,
    ``Cov(e_j, e_l) = M^{j-l} V_l``; with K = steps,

        Var sum_k |e_k|^2 = 2 (2 sum_l tr(V_l^2 R_{K-l}) - sum_l |V_l|_F^2),

    ``R_m = sum_{j<=m} M'^j M^j``.  Every sum is a cumulative sum over the
    powers of M, so the cost is O(steps) small products, with no sum over
    pairs of steps.
    """
    require("nonnegative", tau=tau, steps=steps)
    total, var = 0.0, 0.0
    for m, count in particle_modes(spec, eta, n):
        power = _powers(m, steps)
        power_t = power.swapaxes(1, 2)
        outer = power @ power_t
        cov = outer + 2.0 * tau * eta * (np.cumsum(outer, axis=0) - outer)
        tail = np.cumsum(power_t @ power, axis=0)[::-1]  # R_{K-l} at row l
        cov_sq = cov @ cov
        total += count * np.einsum("kii->", cov)
        var += count * 2.0 * (2.0 * np.einsum("kij,kji->", cov_sq, tail)
                              - np.einsum("kii->", cov_sq))
    return float(total) / (steps + 1), math.sqrt(var) / (steps + 1)


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
        require("nonnegative", n_particles=self.n_particles, iters=self.iters,
                gd_iters=self.gd_iters)


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
    require("positive", tau=tau, eps=eps)
    require("at least 1", d=d)
    require("nonnegative", z_star_norm_sq=z_star_norm_sq)
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
    require("positive", tau=tau)
    require("at least 1", d=d)
    require("nonnegative", z_star_norm_sq=z_star_norm_sq)
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
    require("positive", tau=tau, eta=eta, var_value=var_value)
    require("at least 1", d=d, n_particles=n_particles)
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
    k: int | list[int],
    bias: float,
    n_particles: int,
) -> float | list[float]:
    """Average-particle KL envelope at step k:

        exp(-alpha eta k) * (KL_0 + 9 L^2 / (alpha tau) * W2_0^2) / N + bias

    where KL_0 and W2_0^2 are the joint-state divergences of the particle
    initialization from the tensorized equilibrium (for i.i.d. Gaussian
    initialization, N times the per-particle quantities).

    ``k`` may be a sequence of steps: the arguments are then checked once and
    the result is a list, each entry the bits of its own scalar call.
    """
    scalar = np.ndim(k) == 0
    steps = [k] if scalar else list(k)
    # The smallest step, or NaN if a step is NaN (np.min propagates it): one
    # check covers every step.
    require("nonnegative", initial_kl=initial_kl, initial_w2_sq=initial_w2_sq,
            bias=bias, k=np.min(steps, initial=0))
    Constants(alpha, smooth_l)
    require("positive", tau=tau, eta=eta)
    require("at least 1", n_particles=n_particles)
    transient = initial_kl + 9.0 * smooth_l**2 * initial_w2_sq / (alpha * tau)
    values = [math.exp(-alpha * eta * step) * transient / n_particles + bias
              for step in steps]
    return values[0] if scalar else values
