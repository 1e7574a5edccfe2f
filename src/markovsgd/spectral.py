"""Eigenvalue machinery behind the replay estimator's bias contraction.

The replay analysis controls the spectrum of a buffer's Gram matrix
``M = (1/B) X X^T`` through three desk-checkable facts:

1. the stationary covariance structure of B consecutive Gaussian AR samples
   is the Toeplitz matrix ``Z_ij = (1/B)(1-eps^2)^{|i-j|/2}``;
2. the circulant matrix C obtained by wrapping Z's first row has the explicit
   spectrum ``lambda_j = (2/B) sum_k (1-eps^2)^{k/2} cos(2 pi k j / B) - 1/B``
   and the perturbation ``P = Z - C`` is tiny in Frobenius norm;
3. sampled Gram matrices concentrate around Z at rate ``1/sqrt(d)``.

This module builds the matrices explicitly, evaluates the closed-form
spectrum, and measures the perturbation norms; acceptance criterion 8
(``markovsgd accept --suite spectra``) checks each fact numerically.  Only odd B is supported (the even-case
circulant row exists in the analysis but is never used).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import GaussianARSpec, GaussianPathCursor, _run_streams

__all__ = [
    "ToeplitzSpec",
    "CirculantSpec",
    "SpectralReport",
    "toeplitz_matrix",
    "circulant_matrix",
    "perturbation_matrix",
    "circulant_eigs_closed_form",
    "perturbation_norms",
    "gram_spectrum",
    "sample_buffer",
]


def _check_b_eps(B: int, epsilon: float, require_odd: bool) -> None:
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    if require_odd and B % 2 == 0:
        raise ValueError(f"B must be odd, got {B}")
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")


@dataclass(frozen=True)
class ToeplitzSpec:
    """Symmetric Toeplitz ``Z_ij = (1/B)(1-eps^2)^{|i-j|/2}`` (diagonal 1/B)."""

    B: int
    epsilon: float

    def __post_init__(self):
        _check_b_eps(self.B, self.epsilon, require_odd=False)


@dataclass(frozen=True)
class CirculantSpec:
    """Circulant wrap of the Toeplitz first row; odd sizes only.

    First row ``c[q] = z[min(q, B-q)]`` with ``z[k] = (1/B)(1-eps^2)^{k/2}``,
    so each row is a rotation of the first and C is symmetric.
    """

    B: int
    epsilon: float

    def __post_init__(self):
        _check_b_eps(self.B, self.epsilon, require_odd=True)

    @property
    def toeplitz(self) -> ToeplitzSpec:
        return ToeplitzSpec(self.B, self.epsilon)


@dataclass(frozen=True)
class SpectralReport:
    """Spectrum summary with the perturbation norms that accompany it.

    ``gram_perturbation`` is ``||M - Z||_F`` against the Toeplitz model Z
    when an ``epsilon`` was given, else ``None``.  ``rank_warning`` flags
    Gram matrices of more samples than ambient dimensions, whose trailing
    eigenvalues are structurally zero.
    """

    eigenvalues: np.ndarray  # sorted descending
    gram_perturbation: float | None = None
    rank_warning: bool = False

    def count_at_least(self, threshold: float) -> int:
        return int((self.eigenvalues >= threshold).sum())

    def to_json(self) -> dict:
        return {
            "eigenvalues": self.eigenvalues.tolist(),
            "gram_perturbation": self.gram_perturbation,
            "rank_warning": self.rank_warning,
        }


def _first_row(B: int, epsilon: float) -> np.ndarray:
    """z[k] = (1/B) (1-eps^2)^{k/2} for k = 0..B-1."""
    r = math.sqrt(max(0.0, 1.0 - epsilon**2))
    return (r ** np.arange(B)) / B


def toeplitz_matrix(spec: ToeplitzSpec) -> np.ndarray:
    z = _first_row(spec.B, spec.epsilon)
    idx = np.abs(np.subtract.outer(np.arange(spec.B), np.arange(spec.B)))
    return z[idx]


def circulant_matrix(spec: CirculantSpec) -> np.ndarray:
    B = spec.B
    z = _first_row(B, spec.epsilon)
    q = np.arange(B)
    c = z[np.minimum(q, B - q)]
    idx = (np.subtract.outer(q, q)) % B
    return c[idx]


def perturbation_matrix(spec: CirculantSpec) -> np.ndarray:
    """P = Z - C."""
    return toeplitz_matrix(spec.toeplitz) - circulant_matrix(spec)


def circulant_eigs_closed_form(spec: CirculantSpec) -> np.ndarray:
    """Closed-form circulant spectrum, in harmonic order j = 0..B-1.

    ``lambda_j = (2/B) sum_{k=0}^{(B-1)/2} (1-eps^2)^{k/2} cos(2 pi k j / B)
    - 1/B``; at eps=1 only the k=0 term survives, so every eigenvalue is 1/B.
    """
    B = spec.B
    r = math.sqrt(max(0.0, 1.0 - spec.epsilon**2))
    k = np.arange((B + 1) // 2)
    weights = r**k
    angles = 2.0 * math.pi * np.outer(np.arange(B), k) / B
    return (2.0 / B) * (np.cos(angles) @ weights) - 1.0 / B


def perturbation_norms(spec: CirculantSpec) -> tuple[float, float]:
    """(||P||_F^2, analytic bound 2(1-eps^2)/(B^2 eps^4)); computed <= bound."""
    P = perturbation_matrix(spec)
    fro_sq = float((P * P).sum())
    eps = spec.epsilon
    bound = 2.0 * (1.0 - eps**2) / (spec.B**2 * eps**4)
    return fro_sq, bound


def gram_spectrum(buffer: np.ndarray, epsilon: float | None = None) -> SpectralReport:
    """Spectrum of the buffer Gram matrix ``M = (1/B) X X^T``.

    ``buffer`` holds B sample vectors as rows.  When ``epsilon`` is given,
    the report also carries ``||M - Z||_F`` against the Toeplitz model of B
    consecutive stationary AR samples.  Buffers with more samples than
    dimensions are flagged (``rank_warning``) but still processed.
    """
    X = np.atleast_2d(np.asarray(buffer, dtype=float))
    B, d = X.shape
    M = (X @ X.T) / B
    eigs = np.linalg.eigvalsh(M)[::-1].copy()
    gram_pert = None
    if epsilon is not None:
        Z = toeplitz_matrix(ToeplitzSpec(B, epsilon))
        gram_pert = float(np.linalg.norm(M - Z, "fro"))
    return SpectralReport(
        eigenvalues=eigs,
        gram_perturbation=gram_pert,
        rank_warning=d < B,
    )


def sample_buffer(chain: GaussianARSpec, size: int, seed) -> np.ndarray:
    """B consecutive AR samples (stationary start) as a (B, d) array."""
    cursor = GaussianPathCursor(chain, *_run_streams([seed], (0,)))
    return cursor.take(size)[:, 0, :]

