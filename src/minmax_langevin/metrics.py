"""Distributional diagnostics: Gaussian closed forms and sample estimators.

Closed-form divergences between Gaussians (KL, squared Wasserstein-2,
relative Fisher information) evaluate the theory envelopes exactly; the
empirical side is a sample's plug-in moments (a caller builds the law, or a
stack of them) plus exact 1-d optimal transport.  The divergences read
:class:`GaussianDist`'s cached factors and its one degeneracy rule, so a
degenerate fit has infinite KL and no Fisher information.  Either argument
of KL, W2 and Fisher may be a stack of laws: one formula serves both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import GaussianDist, sqrtm_psd
from .payoff import require, unstacked
# standard_normal_block stays bound: perfbench/tracer.py patches it by name.
from .rng import standard_normal_block

__all__ = [
    "MetricsRecord",
    "fit_gaussian",
    "gaussian_kl",
    "gaussian_w2",
    "gaussian_relative_fi",
    "empirical_w2_1d",
]


@dataclass
class MetricsRecord:
    """Per-checkpoint diagnostics; optional fields stay None when unused."""

    step: int
    wall_time: float
    avg_mean: np.ndarray
    avg_cov_trace: float
    kl_fit_to_eq: float | None = None
    w2_fit_to_eq_sq: float | None = None
    grad_gap_bound: float | None = None
    coupling_dist_sq: float | None = None
    envelope_kl: float | None = None
    bias_bound: float | None = None

    def __post_init__(self):
        for name in ("kl_fit_to_eq", "w2_fit_to_eq_sq"):
            if getattr(self, name) is not None:
                require("nonnegative", **{name: getattr(self, name)})


def fit_gaussian(samples: np.ndarray):
    """Plug-in Gaussian moments: sample mean and unbiased (n-1) covariance.

    Returns ``(mean, cov)``, ``cov`` symmetrized.  The fitted law is
    ``GaussianDist(*fit_gaussian(x))``; its ``degenerate`` flag marks a
    rank-deficient covariance (smallest eigenvalue at or below the PSD clip).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("need an (n, m) sample matrix with n >= 2")
    mean = np.add.reduce(samples, axis=0) / samples.shape[0]  # np.mean's bits
    centered = samples - mean
    cov = centered.T @ centered / (samples.shape[0] - 1)
    return mean, 0.5 * (cov + cov.T)


def _check_dims(p: GaussianDist, q: GaussianDist):
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")


def _dot(a: np.ndarray, b: np.ndarray, mat=None) -> np.ndarray:
    """a' b, or a' mat b, over leading axes: matmuls of (..., 1, m) rows,
    which give each row the bits of its own unstacked product."""
    left = a[..., None, :] if mat is None else a[..., None, :] @ mat
    return (left @ b[..., :, None])[..., 0, 0]


def _clamped(value):
    # max(value, 0.0) per row: a NaN or -0.0 passes through, as with max.
    return unstacked(np.where(value < 0.0, 0.0, value))


def gaussian_kl(p: GaussianDist, q: GaussianDist):
    """KL(p || q) = (tr(Sq^-1 Sp) + dm' Sq^-1 dm - m + ln det Sq - ln det Sp) / 2.

    ``p`` and ``q`` may each be a stack (see :class:`GaussianDist`): the
    result is then an array over their broadcast leading axes, each entry
    the bits of that row's own call.  A degenerate row of ``p`` is +inf.
    """
    _check_dims(p, q)
    if np.any(q.degenerate):
        raise ValueError("q.cov must be nonsingular")
    dm = q.mean - p.mean
    trace = (q.precision @ p.cov).trace(0, -2, -1)
    kl = 0.5 * (trace + _dot(dm, dm, q.precision) - p.dim + q.logdet - p.logdet)
    return _clamped(np.where(p.degenerate, np.inf, kl))


def gaussian_w2(p: GaussianDist, q: GaussianDist):
    """Squared W2: |dm|^2 + tr(Sp + Sq - 2 (Sq^1/2 Sp Sq^1/2)^1/2).

    Over stacks ``p`` and/or ``q``, an array of the rows' own values, bitwise.
    """
    _check_dims(p, q)
    dm = p.mean - q.mean
    cross = sqrtm_psd(q.root @ p.cov @ q.root)
    return _clamped(_dot(dm, dm) + (
        p.cov.trace(0, -2, -1) + q.cov.trace(0, -2, -1) - 2.0 * cross.trace(0, -2, -1)
    ))


def gaussian_relative_fi(p: GaussianDist, q: GaussianDist):
    """Relative Fisher information E_p |grad log(p/q)|^2 in closed form:

        |Sq^-1 dm|^2 + tr((Sq^-1 - Sp^-1) Sp (Sq^-1 - Sp^-1))

    Stacks as in :func:`gaussian_w2`; a degenerate row of either side raises.
    """
    _check_dims(p, q)
    for name, dist in (("p", p), ("q", q)):
        if np.any(dist.degenerate):
            raise ValueError(f"{name}.cov must be nonsingular")
    dm = (q.precision @ (p.mean - q.mean)[..., None])[..., 0]
    diff = q.precision - p.precision
    return _clamped(_dot(dm, dm) + (diff @ p.cov @ diff).trace(0, -2, -1))


def empirical_w2_1d(a: np.ndarray, b: np.ndarray) -> float:
    """Exact 1-d W2 between equal-size empirical measures (sorted matching)."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != b.size or a.size == 0:
        raise ValueError("samples must be nonempty and of equal length")
    diff = np.sort(a) - np.sort(b)
    return float(np.sqrt(np.mean(diff**2)))
