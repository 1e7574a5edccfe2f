"""Observation model, excess risk, noise covariance, and path coupling.

The learning problem is streaming least squares on a Markovian covariate
sequence: at time t the learner sees ``(X_t, Y_t)`` where ``X_t`` follows a
chain from :mod:`markovsgd.chains` and ``Y_t`` comes from one of three
observation models (independent additive Gaussian noise, a deterministic
per-state output rule, or noiseless).  The population loss is
``L(w) = E_pi (<w, X> - Y)^2``; its minimizer solves ``A w = E[X Y]`` with
``A = E_pi[X X^T]``.  Excess risk is the exact quadratic form
``(w - w*)^T A (w - w*)`` -- all population quantities here are analytic,
never estimated.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field, fields
from typing import Union

import numpy as np

from .chains import (
    ChainSpec,
    FiniteChainSpec,
    GaussianARSpec,
    _from_fields,
    chain_from_json,
    chain_to_json,
    check_float,
    check_float_field,
    check_keys,
    check_object,
    stationary,
    stationary_covariance,
)

__all__ = [
    "IndependentGaussian",
    "AgnosticDeterministic",
    "Noiseless",
    "NoiseModel",
    "Problem",
    "Observation",
    "NoiseCovariance",
    "CoupledTrajectory",
    "make_problem",
    "excess_risk",
    "agnostic_optimum",
    "noise_covariance",
    "problem_to_json",
    "problem_from_json",
]


@dataclass(frozen=True)
class IndependentGaussian:
    """Additive noise: ``y = <x, w*> + sigma * xi`` with iid ``xi ~ N(0,1)``.

    The noise stream is independent of the whole chain path (it is drawn from
    a dedicated generator, never from the chain's).
    """

    sigma: float

    def __post_init__(self):
        if check_float_field(self, "sigma") < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")


@dataclass(frozen=True)
class AgnosticDeterministic:
    """Outputs come from the chain's per-state output rule; no noise is added."""


@dataclass(frozen=True)
class Noiseless:
    """Exact linear outputs ``y = <x, w*>``."""


NoiseModel = Union[IndependentGaussian, AgnosticDeterministic, Noiseless]


@dataclass(frozen=True)
class Observation:
    x: np.ndarray
    y: float


@dataclass(frozen=True)
class NoiseCovariance:
    """Noise second-moment matrix ``Sigma = E_pi[n(x)^2 x x^T]``.

    ``upsilon`` is the diagnostic bound ``max_x E[y(x)^2]`` over the states of
    a finite chain (``None`` for the Gaussian AR chain, whose states are
    unbounded).
    """

    sigma_matrix: np.ndarray
    upsilon: float | None = None


@dataclass(frozen=True)
class Problem:
    """A chain, a target parameter, a noise model, and the cached covariance.

    Build through :func:`make_problem`, which fills the analytic fields and
    enforces the agnostic-optimum constraint.
    """

    chain: ChainSpec
    w_star: np.ndarray
    noise: NoiseModel
    A: np.ndarray = field(repr=False)
    unit_norm: bool = False

    @property
    def dim(self) -> int:
        return self.w_star.shape[0]


def make_problem(
    chain: ChainSpec,
    noise: NoiseModel,
    w_star=None,
    unit_norm: bool = False,
) -> Problem:
    """Assemble a :class:`Problem`, caching ``A`` and validating ``w_star``.

    With :class:`AgnosticDeterministic` noise the target is the population
    optimum computed from the chain's stationary law and output rule;
    passing an explicit ``w_star`` that disagrees with it is an error.
    ``unit_norm=True`` additionally requires ``||w_star|| <= 1`` (the
    parameter class used by the trajectory-divergence experiments).
    """
    A = stationary_covariance(chain)
    d = A.shape[0]
    if isinstance(noise, AgnosticDeterministic):
        if not isinstance(chain, FiniteChainSpec) or chain.outputs is None:
            raise ValueError("agnostic observations need a finite chain with an output rule")
        opt = agnostic_optimum(chain)
        if w_star is not None:
            w_star = np.asarray(w_star, dtype=float)
            if w_star.shape != opt.shape or not np.allclose(w_star, opt, atol=1e-9):
                raise ValueError("w_star must equal the population optimum for agnostic problems")
        w_star = opt
    else:
        if w_star is None:
            raise ValueError("w_star is required unless the noise model is agnostic")
        w_star = np.asarray(w_star, dtype=float)
        if w_star.shape != (d,):
            raise ValueError(f"w_star must have shape ({d},), got {w_star.shape}")
        if not np.isfinite(w_star).all():
            raise ValueError(f"w_star must be finite, got {w_star}")
    if unit_norm and np.linalg.norm(w_star) > 1.0 + 1e-12:
        raise ValueError("unit_norm problems require ||w_star|| <= 1")
    w = w_star.copy()
    w.flags.writeable = False
    return Problem(chain=chain, w_star=w, noise=noise, A=A, unit_norm=unit_norm)


def excess_risk(problem: Problem, w) -> float | np.ndarray:
    """``L(w) - L(w*) = (w - w*)^T A (w - w*)``, vectorized over leading axes."""
    w = np.asarray(w, dtype=float)
    r = w - problem.w_star
    out = np.einsum("...i,ij,...j->...", r, problem.A, r)
    out = np.maximum(out, 0.0)
    return float(out) if out.ndim == 0 else out


def agnostic_optimum(chain: FiniteChainSpec) -> np.ndarray:
    """Population least-squares optimum of a finite chain with outputs.

    Solves ``A w = E[X Y]`` on the analytic stationary moments.
    """
    if not isinstance(chain, FiniteChainSpec) or chain.outputs is None:
        raise ValueError("agnostic_optimum needs a finite chain with an output rule")
    pi = stationary(chain)
    A = stationary_covariance(chain)
    b = (pi * chain.outputs) @ chain.states
    try:
        w = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise ValueError("stationary covariance is singular; optimum undefined") from exc
    return w


def noise_covariance(problem: Problem) -> NoiseCovariance:
    """Analytic ``Sigma`` together with the per-state output bound ``upsilon``."""
    noise = problem.noise
    chain = problem.chain
    if isinstance(noise, Noiseless):
        sigma_matrix = np.zeros_like(problem.A)
    elif isinstance(noise, IndependentGaussian):
        sigma_matrix = noise.sigma**2 * problem.A
    else:  # agnostic: residuals n(x) = y(x) - <x, w*> against the optimum
        if not isinstance(chain, FiniteChainSpec):
            raise ValueError("agnostic noise covariance needs a finite chain")
        pi = stationary(chain)
        resid = chain.outputs - chain.states @ problem.w_star
        weights = pi * resid**2
        sigma_matrix = (chain.states * weights[:, None]).T @ chain.states
        sigma_matrix = 0.5 * (sigma_matrix + sigma_matrix.T)
    upsilon = None
    if isinstance(chain, FiniteChainSpec):
        mean_sq = (chain.states @ problem.w_star) ** 2
        if isinstance(noise, IndependentGaussian):
            mean_sq = mean_sq + noise.sigma**2
        elif isinstance(noise, AgnosticDeterministic):
            mean_sq = chain.outputs**2
        upsilon = float(mean_sq.max())
    return NoiseCovariance(sigma_matrix=sigma_matrix, upsilon=upsilon)


@dataclass(frozen=True)
class CoupledTrajectory:
    """Three iterate paths driven by one sample path and one noise path.

    * full: the ordinary run (actual labels, start ``w_1``);
    * bias: zero-noise labels ``y = <x, w*>``, start ``w_1``;
    * var: actual labels, start ``w*``.

    Because each SGD update is affine in (iterate, label), the error of the
    full path splits exactly into the two partial errors:
    ``w_t - w* = (w_t^bias - w*) + (w_t^var - w*)`` for every t.
    """

    iterates_full: np.ndarray
    iterates_bias: np.ndarray
    iterates_var: np.ndarray
    w_star: np.ndarray

    def identity_residuals(self) -> np.ndarray:
        """Componentwise residual of the exact decomposition, per step."""
        lhs = self.iterates_full - self.w_star
        rhs = (self.iterates_bias - self.w_star) + (self.iterates_var - self.w_star)
        return np.abs(lhs - rhs).max(axis=-1)

    def check_identity(self, tol: float = 1e-9) -> bool:
        scale = 1.0 + np.linalg.norm(self.iterates_full, axis=-1)
        return bool(np.all(self.identity_residuals() <= tol * scale))

    def excess_curves(self, problem: Problem) -> dict[str, np.ndarray]:
        return {
            "full": excess_risk(problem, self.iterates_full),
            "bias": excess_risk(problem, self.iterates_bias),
            "var": excess_risk(problem, self.iterates_var),
        }

    def to_csv(self, path, problem: Problem) -> None:
        curves = self.excess_curves(problem)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "excess_full", "excess_bias", "excess_var"])
            for t in range(len(curves["full"])):
                writer.writerow(
                    [
                        t,
                        repr(float(curves["full"][t])),
                        repr(float(curves["bias"][t])),
                        repr(float(curves["var"][t])),
                    ]
                )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_NOISE_TAGS = {
    IndependentGaussian: "independent_gaussian",
    AgnosticDeterministic: "agnostic",
    Noiseless: "noiseless",
}


def noise_to_json(noise: NoiseModel) -> dict:
    return {"kind": _NOISE_TAGS[type(noise)], **asdict(noise)}


def noise_from_json(doc: dict) -> NoiseModel:
    """Inverse of :func:`noise_to_json`: a kind's keys are its model's
    fields, and any other key is an error."""
    kind = check_object(doc, "noise").get("kind")
    cls = next((c for c, tag in _NOISE_TAGS.items() if tag == kind), None)
    if cls is None:
        raise ValueError(f"unknown noise kind {kind!r}")
    check_keys(doc, ["kind"] + [f.name for f in fields(cls)], f"{kind} noise")
    return _from_fields(cls, doc)


def problem_to_json(problem: Problem) -> dict:
    return {
        "chain": chain_to_json(problem.chain),
        "noise": noise_to_json(problem.noise),
        "w_star": problem.w_star.tolist(),
        "unit_norm": problem.unit_norm,
    }


def problem_from_json(doc: dict) -> Problem:
    """Inverse of :func:`problem_to_json`, under :func:`make_problem`'s rule
    for ``w_star``.

    Under non-agnostic noise ``w_star`` is a required vector of finite
    numbers.  Under agnostic noise it may be omitted or ``"agnostic"``, and
    a vector given must be the optimum the chain has, so a stale one is an
    error.  ``unit_norm`` is true or false; any other key is an error.
    """
    check_keys(doc, ("chain", "noise", "w_star", "unit_norm"), "problem")
    chain = chain_from_json(doc["chain"])
    noise = noise_from_json(doc["noise"])
    w_star = doc.get("w_star")
    if w_star is None or isinstance(w_star, str) and w_star == "agnostic":
        if not isinstance(noise, AgnosticDeterministic):
            raise ValueError(f"w_star must be a vector of numbers unless the noise is agnostic, got {w_star!r}")
        w_star = None
    elif isinstance(w_star, str) or np.ndim(w_star) != 1:
        raise ValueError(f'w_star must be a vector of numbers or "agnostic", got {w_star!r}')
    else:
        w_star = np.array([check_float(v, f"w_star[{i}]") for i, v in enumerate(w_star)])
    unit_norm = doc.get("unit_norm", False)
    if not isinstance(unit_norm, bool):
        raise ValueError(f"unit_norm must be true or false, got {unit_norm!r}")
    return make_problem(chain, noise, w_star=w_star, unit_norm=unit_norm)
