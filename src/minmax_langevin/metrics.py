"""Distributional diagnostics: Gaussian closed forms and sample estimators.

Closed-form divergences between Gaussians (KL, squared Wasserstein-2,
relative Fisher information) evaluate the theory envelopes exactly; the
empirical side is a Gaussian plug-in fit (sample mean and covariance) plus
exact 1-d optimal transport.  The divergences read :class:`GaussianDist`'s
cached factors and its one degeneracy rule, so a degenerate fit has
infinite KL and no Fisher information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import GaussianDist, sqrtm_psd
from .payoff import require
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
    """Plug-in Gaussian fit: sample mean and unbiased (n-1) covariance.

    Returns ``(dist, dist.degenerate)``: the flag marks a rank-deficient
    covariance (smallest eigenvalue at or below the PSD clip).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("need an (n, m) sample matrix with n >= 2")
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / (samples.shape[0] - 1)
    cov = 0.5 * (cov + cov.T)
    dist = GaussianDist(mean=mean, cov=cov)
    return dist, dist.degenerate


def _check_dims(p: GaussianDist, q: GaussianDist):
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")


def gaussian_kl(p: GaussianDist, q: GaussianDist) -> float:
    """KL(p || q) = (tr(Sq^-1 Sp) + dm' Sq^-1 dm - m + ln det Sq - ln det Sp) / 2."""
    _check_dims(p, q)
    if q.degenerate:
        raise ValueError("q.cov must be nonsingular")
    if p.degenerate:
        # p degenerate: KL is +inf relative to any full-rank q.
        return float("inf")
    dm = q.mean - p.mean
    kl = 0.5 * (
        float(np.trace(q.precision @ p.cov)) + float(dm @ q.precision @ dm)
        - p.dim + q.logdet - p.logdet
    )
    return max(kl, 0.0)


def gaussian_w2(p: GaussianDist, q: GaussianDist) -> float:
    """Squared W2: |dm|^2 + tr(Sp + Sq - 2 (Sq^1/2 Sp Sq^1/2)^1/2)."""
    _check_dims(p, q)
    dm = p.mean - q.mean
    cross = sqrtm_psd(q.root @ p.cov @ q.root)
    value = float(dm @ dm) + float(
        np.trace(p.cov) + np.trace(q.cov) - 2.0 * np.trace(cross)
    )
    return max(value, 0.0)


def gaussian_relative_fi(p: GaussianDist, q: GaussianDist) -> float:
    """Relative Fisher information E_p |grad log(p/q)|^2 in closed form:

        |Sq^-1 dm|^2 + tr((Sq^-1 - Sp^-1) Sp (Sq^-1 - Sp^-1))
    """
    _check_dims(p, q)
    for name, dist in (("p", p), ("q", q)):
        if dist.degenerate:
            raise ValueError(f"{name}.cov must be nonsingular")
    dm = q.precision @ (p.mean - q.mean)
    diff = q.precision - p.precision
    value = float(dm @ dm) + float(np.trace(diff @ p.cov @ diff))
    return max(value, 0.0)


def empirical_w2_1d(a: np.ndarray, b: np.ndarray) -> float:
    """Exact 1-d W2 between equal-size empirical measures (sorted matching)."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != b.size or a.size == 0:
        raise ValueError("samples must be nonempty and of equal length")
    diff = np.sort(a) - np.sort(b)
    return float(np.sqrt(np.mean(diff**2)))
