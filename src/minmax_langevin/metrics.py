"""Distributional diagnostics: Gaussian closed forms and sample estimators.

Closed-form divergences between Gaussians (KL, squared Wasserstein-2,
relative Fisher information) evaluate the theory envelopes exactly; the
empirical side is a Gaussian plug-in fit (sample mean and covariance) plus
exact 1-d optimal transport.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import GaussianDist
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

# Eigenvalues below this are treated as zero when rooting covariances.
_PSD_CLIP = 1e-12


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

    Returns ``(dist, degenerate)`` where ``degenerate`` flags a rank-deficient
    covariance (smallest eigenvalue at or below the PSD clip).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("need an (n, m) sample matrix with n >= 2")
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / (samples.shape[0] - 1)
    cov = 0.5 * (cov + cov.T)
    degenerate = bool(np.linalg.eigvalsh(cov).min() <= _PSD_CLIP)
    return GaussianDist(mean=mean, cov=cov), degenerate


def _check_dims(p: GaussianDist, q: GaussianDist):
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")


def gaussian_kl(p: GaussianDist, q: GaussianDist) -> float:
    """KL(p || q) = (tr(Sq^-1 Sp) + dm' Sq^-1 dm - m + ln det Sq - ln det Sp) / 2."""
    _check_dims(p, q)
    m = p.dim
    sign_q, logdet_q = np.linalg.slogdet(q.cov)
    if sign_q <= 0:
        raise ValueError("q.cov must be nonsingular")
    sign_p, logdet_p = np.linalg.slogdet(p.cov)
    if sign_p <= 0:
        # p degenerate: KL is +inf relative to any full-rank q.
        return float("inf")
    q_inv = np.linalg.inv(q.cov)
    dm = q.mean - p.mean
    kl = 0.5 * (
        float(np.trace(q_inv @ p.cov)) + float(dm @ q_inv @ dm) - m
        + logdet_q - logdet_p
    )
    return max(kl, 0.0)


def _sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, clipping at zero."""
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def gaussian_w2(p: GaussianDist, q: GaussianDist) -> float:
    """Squared W2: |dm|^2 + tr(Sp + Sq - 2 (Sq^1/2 Sp Sq^1/2)^1/2)."""
    _check_dims(p, q)
    dm = p.mean - q.mean
    root_q = _sqrtm_psd(q.cov)
    cross = _sqrtm_psd(root_q @ p.cov @ root_q)
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
        if np.linalg.eigvalsh(dist.cov).min() <= _PSD_CLIP:
            raise ValueError(f"{name}.cov must be nonsingular")
    q_inv = np.linalg.inv(q.cov)
    p_inv = np.linalg.inv(p.cov)
    dm = q_inv @ (p.mean - q.mean)
    diff = q_inv - p_inv
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
