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
spectrum, and measures the perturbation norms, so each ingredient can be
verified numerically at desk scale.  Only odd B is supported (the even-case
circulant row exists in the analysis but is never used).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import GaussianARSpec, GaussianPathCursor, _run_generators

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
    "spectra_property_checks",
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

    ``frobenius_P`` is ``||Z - C||_F`` (circulant reports), and
    ``gram_perturbation`` is ``||M - Z||_F`` (sampled-buffer reports);
    whichever does not apply is ``None``.  ``rank_warning`` flags Gram
    matrices of more samples than ambient dimensions, whose trailing
    eigenvalues are structurally zero.
    """

    eigenvalues: np.ndarray  # sorted descending
    frobenius_P: float | None = None
    gram_perturbation: float | None = None
    rank_warning: bool = False

    def count_at_least(self, threshold: float) -> int:
        return int((self.eigenvalues >= threshold).sum())

    def to_json(self) -> dict:
        return {
            "eigenvalues": self.eigenvalues.tolist(),
            "frobenius_P": self.frobenius_P,
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
    cursor = GaussianPathCursor(chain, [_run_generators(seed, (0,))[0]])
    return cursor.take(size)[:, 0, :]


# ---------------------------------------------------------------------------
# Property suite (backs the `validate spectra` CLI subcommand)
# ---------------------------------------------------------------------------


def spectra_property_checks() -> list[dict]:
    """Numerical checks of the three spectral facts; one record per check."""
    results = []

    def add(name, passed, detail):
        results.append({"check": name, "passed": bool(passed), "detail": detail})

    # circulant closed form vs dense spectrum, plus the trace identity
    worst = 0.0
    worst_trace = 0.0
    for B in (5, 21, 101):
        for eps in (0.1, 0.2, 0.3):
            spec = CirculantSpec(B, eps)
            closed = np.sort(circulant_eigs_closed_form(spec))
            dense = np.sort(np.linalg.eigvalsh(circulant_matrix(spec)))
            worst = max(worst, float(np.abs(closed - dense).max()))
            worst_trace = max(worst_trace, abs(float(closed.sum()) - 1.0))
    add("circulant-closed-form", worst <= 1e-9, f"max |closed - dense| = {worst:.3e}")
    add("circulant-trace", worst_trace <= 1e-9, f"max |sum - 1| = {worst_trace:.3e}")

    # perturbation: zero diagonal, paired spectrum, Frobenius bound, decay in B
    spec = CirculantSpec(201, 0.2)
    P = perturbation_matrix(spec)
    add("perturbation-diagonal", np.abs(np.diag(P)).max() == 0.0, "diag(P) = 0")
    eigs = np.sort(np.linalg.eigvalsh(P))
    pairing = float(np.abs(eigs + eigs[::-1]).max())
    add("perturbation-pairing", pairing <= 1e-8, f"max |lambda_k + lambda_(B+1-k)| = {pairing:.3e}")
    fro_sq, bound = perturbation_norms(spec)
    add("perturbation-bound", fro_sq <= bound, f"{fro_sq:.4e} <= {bound:.4e}")
    series = [perturbation_norms(CirculantSpec(B, 0.2))[0] for B in (101, 201, 401)]
    add(
        "perturbation-decay",
        series[0] > series[1] > series[2],
        "||P||_F^2 at B=101,201,401: " + ", ".join(f"{v:.3e}" for v in series),
    )

    # Gram concentration around the Toeplitz model
    chain = GaussianARSpec(dim=160000, epsilon=0.3)
    worst_gram = 0.0
    for seed in range(5):
        buf = sample_buffer(chain, 20, seed)
        rep = gram_spectrum(buf, epsilon=0.3)
        worst_gram = max(worst_gram, rep.gram_perturbation)
    limit = 10.0 * 20 / math.sqrt(160000)
    add("gram-concentration", worst_gram <= limit, f"max ||M - Z||_F = {worst_gram:.3e} <= {limit:.3e}")

    norms = []
    dims = (10**3, 10**4, 10**5)
    for d in dims:
        vals = [
            gram_spectrum(sample_buffer(GaussianARSpec(d, 0.3), 20, 100 + s), epsilon=0.3).gram_perturbation
            for s in range(3)
        ]
        norms.append(float(np.mean(vals)))
    slope = np.polyfit(np.log(dims), np.log(norms), 1)[0]
    add("gram-rate", -0.65 <= slope <= -0.35, f"log-log slope over d = {slope:.3f}")

    return results
