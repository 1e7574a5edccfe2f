"""Data-generating Markov chains and their analytic machinery.

Two families of chains are supported:

* a Gaussian autoregressive chain ``X_{t+1} = sqrt(1-eps^2) X_t + eps G_{t+1}``
  with ``G ~ N(0, I/d)``, whose stationary law is ``N(0, I/d)``;
* finite-state chains given by an explicit row-stochastic transition matrix
  over a list of state vectors, with an optional deterministic per-state
  output rule.

Besides the path cursors that sample them, the module computes stationary
distributions, stationary covariances, total-variation mixing times and the
KL divergence between the laws of stationary trajectories.  It also provides the standard
constructor chains used throughout the test-suite and the experiment harness
(two-state chain, clique walk, signed clique walk, two-point output-bias
chain).

Randomness is driven by counter-based Philox generators (``numpy.random``),
so sample paths are reproducible bit-for-bit for a fixed seed within one
release.  Normal variates use numpy's documented ziggurat sampler.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from typing import Sequence

import numpy as np

__all__ = [
    "GaussianARSpec",
    "FiniteChainSpec",
    "GaussianStationaryLaw",
    "MixingReport",
    "stationary",
    "stationary_covariance",
    "mixing_time",
    "total_variation_curve",
    "trajectory_kl",
    "make_mc3",
    "make_mc0",
    "make_mci",
    "make_agnostic_bias_chain",
    "make_iid_chain",
    "chain_to_json",
    "chain_from_json",
    "run_generators",
    "GaussianPathCursor",
    "FinitePathCursor",
    "make_cursor",
]

_ROW_SUM_TOL = 1e-12
_STATIONARY_TOL = 1e-12
_STATIONARY_CAP = 10**6


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GaussianARSpec:
    """Gaussian AR chain ``X_{t+1} = sqrt(1-eps^2) X_t + eps G_{t+1}``.

    ``G_t`` are iid ``N(0, I/d)`` vectors, so the stationary covariance is
    ``I/d`` and the condition number of the regression problem equals ``d``.
    """

    dim: int
    epsilon: float

    def __post_init__(self):
        if check_int_field(self, "dim") < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if not (0.0 < check_float_field(self, "epsilon") <= 1.0):
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")

    @property
    def decay(self) -> float:
        """Per-step correlation factor ``sqrt(1 - eps^2)``."""
        return math.sqrt(max(0.0, 1.0 - self.epsilon**2))


@dataclass(frozen=True)
class FiniteChainSpec:
    """Finite-state chain: state vectors, transition matrix, optional outputs.

    ``states`` has one row per state (each with norm at most 1), ``transition``
    is row-stochastic, and ``outputs`` is either ``None`` (the observation
    model supplies labels, e.g. regression with independent noise) or one
    deterministic output value per state.
    """

    states: np.ndarray
    transition: np.ndarray
    outputs: np.ndarray | None = None
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        P = np.asarray(self.transition, dtype=float)
        outputs = None if self.outputs is None else np.asarray(self.outputs, dtype=float)
        for name, values in (("states", states), ("transition", P), ("outputs", outputs)):
            if values is not None and not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        n = states.shape[0]
        if P.shape != (n, n):
            raise ValueError(f"transition must be {n}x{n}, got {P.shape}")
        if np.any(P < 0):
            raise ValueError("transition entries must be nonnegative")
        row_err = np.abs(P.sum(axis=1) - 1.0).max()
        if row_err > _ROW_SUM_TOL:
            raise ValueError(f"transition rows must sum to 1 (max error {row_err:.3e})")
        norms = np.linalg.norm(states, axis=1)
        if np.any(norms > 1.0 + 1e-12):
            raise ValueError("every state must have norm at most 1")
        if not _is_irreducible(P):
            raise ValueError("chain is not irreducible")
        if outputs is not None:
            if outputs.shape != (n,):
                raise ValueError(f"outputs must have shape ({n},), got {outputs.shape}")
            object.__setattr__(self, "outputs", _frozen_array(outputs))
        object.__setattr__(self, "states", _frozen_array(states))
        object.__setattr__(self, "transition", _frozen_array(P))

    @property
    def num_states(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def state_index(self, state) -> int:
        """Index of ``state`` among the chain's state vectors."""
        state = np.asarray(state, dtype=float)
        if state.shape != (self.dim,):
            raise ValueError(f"state must have shape ({self.dim},), got {state.shape}")
        matches = np.where(np.all(np.isclose(self.states, state, atol=1e-12), axis=1))[0]
        if matches.size == 0:
            raise ValueError("state is not one of the chain's states")
        return int(matches[0])

    def __eq__(self, other):
        if not isinstance(other, FiniteChainSpec):
            return NotImplemented
        return (
            np.array_equal(self.states, other.states)
            and np.array_equal(self.transition, other.transition)
            and (
                (self.outputs is None and other.outputs is None)
                or (
                    self.outputs is not None
                    and other.outputs is not None
                    and np.array_equal(self.outputs, other.outputs)
                )
            )
        )

    def __hash__(self):
        return hash((self.states.tobytes(), self.transition.tobytes()))


# A chain spec is either variant; operations dispatch on the type.
ChainSpec = GaussianARSpec | FiniteChainSpec


def _is_irreducible(P: np.ndarray) -> bool:
    """Reachability check on the support graph of ``P``."""
    n = P.shape[0]
    adj = P > 0
    reach = np.eye(n, dtype=bool)
    frontier = reach.copy()
    while frontier.any():
        nxt = (frontier @ adj) & ~reach
        reach |= nxt
        frontier = nxt
    return bool(reach.all())


@dataclass(frozen=True)
class GaussianStationaryLaw:
    """Descriptor of the ``N(0, I/d)`` stationary law of the Gaussian AR chain."""

    dim: int

    @property
    def mean(self) -> np.ndarray:
        return np.zeros(self.dim)

    @property
    def covariance(self) -> np.ndarray:
        return np.eye(self.dim) / self.dim


@dataclass(frozen=True)
class MixingReport:
    """Mixing time plus the total-variation curve used to certify it."""

    tau_mix: int
    dmix_curve: tuple
    method: str  # "numeric-finite" | "gaussian-ar-proxy"


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def stationary(spec: ChainSpec):
    """Stationary law: probability vector (finite) or ``N(0, I/d)`` descriptor.

    The finite case runs power iteration on the transposed transition matrix
    (tolerance 1e-12, capped at 1e6 iterations).
    """
    if isinstance(spec, GaussianARSpec):
        return GaussianStationaryLaw(spec.dim)
    P = spec.transition
    n = spec.num_states
    pi = np.full(n, 1.0 / n)
    for _ in range(_STATIONARY_CAP):
        nxt = pi @ P
        nxt /= nxt.sum()
        if np.abs(nxt - pi).max() <= _STATIONARY_TOL:
            return nxt
        pi = nxt
    raise RuntimeError(
        "power iteration did not converge within 1e6 iterations "
        "(is the chain periodic?)"
    )


def stationary_covariance(spec: ChainSpec) -> np.ndarray:
    """Second-moment matrix ``A = E_{X~pi}[X X^T]`` of the stationary law."""
    if isinstance(spec, GaussianARSpec):
        return np.eye(spec.dim) / spec.dim
    pi = stationary(spec)
    A = (spec.states * pi[:, None]).T @ spec.states
    return 0.5 * (A + A.T)  # symmetrize away roundoff


def _dmix(spec: FiniteChainSpec):
    """``d_mix(t)`` for t = 1, 2, ...: the worst row's TV distance of P^t
    to stationarity, powering P only when the next value is asked for."""
    pi = stationary(spec)
    M = spec.transition
    while True:
        yield 0.5 * np.abs(M - pi).sum(axis=1).max()
        M = M @ spec.transition


def total_variation_curve(spec: FiniteChainSpec, t_max: int) -> np.ndarray:
    """Worst-case TV distance to stationarity, ``d_mix(t)`` for t = 1..t_max."""
    if not isinstance(spec, FiniteChainSpec):
        raise TypeError("total_variation_curve requires a finite chain")
    return np.fromiter(itertools.islice(_dmix(spec), t_max), float, t_max)


def mixing_time(spec: ChainSpec, cap: int = 10**7) -> MixingReport:
    """Mixing time ``tau_mix = min{t : d_mix(t) <= 1/4}``.

    Finite chains are handled numerically by matrix powering.  For the
    Gaussian AR chain the total-variation curve has no convenient closed
    form, so we return the proxy ``ceil(ln(4 sqrt(d)) / -ln(1-eps^2))`` --
    the smallest t with ``(1-eps^2)^t <= 1/(4 sqrt(d))`` -- tagged with
    method "gaussian-ar-proxy".  The proxy matches the known
    ``Theta(log(d)/eps^2)`` rate.
    """
    if isinstance(spec, GaussianARSpec):
        if spec.epsilon >= 1.0:
            tau = 1
        else:
            rate = -math.log1p(-spec.epsilon**2)
            tau = max(1, math.ceil(math.log(4.0 * math.sqrt(spec.dim)) / rate))
        decay2 = 1.0 - spec.epsilon**2
        curve = []
        t = 1
        while t < tau:
            curve.append((t, min(1.0, math.sqrt(spec.dim) * decay2**t)))
            t *= 2
        curve.append((tau, min(1.0, math.sqrt(spec.dim) * decay2**tau)))
        return MixingReport(tau_mix=tau, dmix_curve=tuple(curve), method="gaussian-ar-proxy")

    curve = []
    for t, d in enumerate(itertools.islice(_dmix(spec), cap), 1):
        curve.append((t, float(d)))
        if d <= 0.25:
            return MixingReport(tau_mix=t, dmix_curve=tuple(curve), method="numeric-finite")
    raise TimeoutError(f"d_mix(t) did not reach 1/4 within the cap of {cap} steps")


def trajectory_kl(specJ: FiniteChainSpec, specI: FiniteChainSpec, horizon: int) -> float:
    """KL divergence between the laws of length-``horizon`` stationary paths.

    Uses the chain-rule identity
    ``KL(pi_J || pi_I) + (T-1) * sum_a pi_J(a) KL(P_J(a,.) || P_I(a,.))``,
    valid for chains on a common state set differing in any number of rows.
    Returns ``inf`` when the path law of J is not absolutely continuous with
    respect to that of I.
    """
    if not isinstance(specJ, FiniteChainSpec) or not isinstance(specI, FiniteChainSpec):
        raise TypeError("trajectory_kl requires finite chains")
    if not np.array_equal(specJ.states, specI.states):
        raise ValueError("chains must share one state set")
    if int(horizon) != horizon or horizon < 1:
        raise ValueError(f"horizon must be a positive integer, got {horizon}")
    piJ = stationary(specJ)
    piI = stationary(specI)

    def _kl(p, q):
        mask = p > 0
        if np.any(q[mask] <= 0):
            return math.inf
        return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))

    total = _kl(piJ, piI)
    if horizon > 1:
        rows = sum(
            piJ[a] * _kl(specJ.transition[a], specI.transition[a])
            for a in range(specJ.num_states)
        )
        total += (horizon - 1) * rows
    return max(0.0, total) if math.isfinite(total) else math.inf


# ---------------------------------------------------------------------------
# Constructor chains
# ---------------------------------------------------------------------------


def make_mc3(kappa: float, delta: float) -> FiniteChainSpec:
    """Two-state chain with transition ``[[1-eps, eps], [delta, 1-delta]]``.

    ``eps = delta/(kappa-1)``, states ``e1, e2`` in R^2; the stationary mass
    of the first state is ``delta/(delta+eps) = 1 - 1/kappa``.
    """
    if kappa < 2:
        raise ValueError(f"kappa must be at least 2, got {kappa}")
    if not (0.0 < delta <= 0.5):
        raise ValueError(f"delta must lie in (0, 1/2], got {delta}")
    eps = delta / (kappa - 1.0)
    P = np.array([[1.0 - eps, eps], [delta, 1.0 - delta]])
    states = np.eye(2)
    return FiniteChainSpec(
        states, P, meta={"family": "mc3", "kappa": float(kappa), "delta": float(delta)}
    )


def make_mc0(d: int, epsilon: float) -> FiniteChainSpec:
    """Symmetric clique walk on ``e_1..e_d``: stay w.p. 1-eps, else jump uniformly."""
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    if not (0.0 < epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    P = np.full((d, d), epsilon / (d - 1.0))
    np.fill_diagonal(P, 1.0 - epsilon)
    return FiniteChainSpec(np.eye(d), P, meta={"family": "mc0", "epsilon": float(epsilon)})


def make_mci(d: int, epsilon: float, delta: float, bits: Sequence[int]) -> FiniteChainSpec:
    """Signed clique walk on ``{e_i} U {-e_i}`` keyed by a bit pattern.

    States are ``a_i = e_i`` for i < d and ``a_{d+i} = -e_i``.  Rows with
    ``bits[i] = 1`` leave ``e_i`` with total probability ``eps + delta``
    (spread uniformly over the 2d-1 other states); all other rows leave with
    probability ``eps``.  Every state outputs 1.
    """
    bits = np.asarray(bits, dtype=int)
    if bits.shape != (d,) or np.any((bits != 0) & (bits != 1)):
        raise ValueError(f"bits must be a 0/1 vector of length {d}")
    if epsilon <= 0 or delta < 0:
        raise ValueError("epsilon must be positive and delta nonnegative")
    if epsilon + delta > 1.0:
        raise ValueError(f"epsilon + delta must not exceed 1, got {epsilon + delta}")
    n = 2 * d
    eye = np.eye(d)
    states = np.vstack([eye, -eye])
    leave = np.where(np.concatenate([bits, np.zeros(d, dtype=int)]) == 1, epsilon + delta, epsilon)
    P = np.empty((n, n))
    for i in range(n):
        P[i] = leave[i] / (n - 1.0)
        P[i, i] = 1.0 - leave[i]
    return FiniteChainSpec(
        states,
        P,
        outputs=np.ones(n),
        meta={
            "family": "mci",
            "epsilon": float(epsilon),
            "delta": float(delta),
            "bits": [int(b) for b in bits],
        },
    )


def make_agnostic_bias_chain(epsilon: float) -> FiniteChainSpec:
    """Two-point chain in R^1 with states 1/2 and -1, both outputting 1/2.

    Each state is held with probability ``1 - eps``.  The stationary law is
    uniform and the population least-squares optimum is ``w* = -1/5``,
    exposed in ``meta["optimum"]``.
    """
    if not (0.0 < epsilon <= 0.5):
        raise ValueError(f"epsilon must lie in (0, 1/2], got {epsilon}")
    states = np.array([[0.5], [-1.0]])
    P = np.array([[1.0 - epsilon, epsilon], [epsilon, 1.0 - epsilon]])
    return FiniteChainSpec(
        states,
        P,
        outputs=np.array([0.5, 0.5]),
        meta={"family": "agnostic_bias", "epsilon": float(epsilon), "optimum": -0.2},
    )


def make_iid_chain(spec: FiniteChainSpec) -> FiniteChainSpec:
    """Memoryless companion chain: every transition row equals ``stationary(spec)``.

    Sampling a path of this chain yields iid draws from the original chain's
    stationary law, which is the reference point for data-drop comparisons.
    """
    pi = stationary(spec)
    P = np.tile(pi, (spec.num_states, 1))
    meta = dict(spec.meta, iid_of=spec.meta.get("family", "finite"))
    return FiniteChainSpec(spec.states, P, outputs=spec.outputs, meta=meta)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def chain_to_json(spec: ChainSpec) -> dict:
    """Structured JSON document for a chain spec."""
    if isinstance(spec, GaussianARSpec):
        return {"kind": "gaussian_ar", "dim": spec.dim, "epsilon": spec.epsilon}
    doc = {
        "kind": "finite",
        "states": spec.states.tolist(),
        "transition": spec.transition.tolist(),
        "outputs": None if spec.outputs is None else spec.outputs.tolist(),
    }
    if spec.meta:
        doc["meta"] = json.loads(json.dumps(spec.meta))
    return doc


def check_keys(doc: dict, allowed, what: str) -> None:
    """Reject a JSON document holding keys outside ``allowed``, listing them."""
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} in {what}; allowed: {sorted(allowed)}")


def _from_fields(cls, doc: dict, **built):
    """Dataclass ``cls`` made of ``doc``'s values for its fields, its
    defaults filling the rest and ``built`` giving fields made already; a
    required field ``doc`` lacks raises ``KeyError`` naming it.  Keys that
    are not fields are the caller's to check."""
    values = {f.name: doc[f.name] for f in fields(cls) if f.name in doc}
    values.update(built)
    for f in fields(cls):
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise KeyError(f.name)
    return cls(**values)


def check_int(value, key: str) -> int:
    """A JSON document's integer field ``key``, which holds an integral
    number (``3`` or ``3.0``); a bool, a string or a fraction is an error."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{key} must be an integer, got {value!r}")


def check_int_field(obj, name: str) -> int:
    """A frozen dataclass's integer field ``name``, checked by
    :func:`check_int` and stored back as an int."""
    value = check_int(getattr(obj, name), name)
    object.__setattr__(obj, name, value)
    return value


def check_float(value, key: str) -> float:
    """A JSON document's real field ``key``, which holds a finite number
    (``1``, ``0.25`` or ``1e-3``); a bool, a string, NaN or an infinity is
    an error."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if real and math.isfinite(value):
        return float(value)
    raise ValueError(f"{key} must be a finite number, got {value!r}")


def check_float_field(obj, name: str) -> float:
    """A frozen dataclass's real field ``name``, checked by
    :func:`check_float` and stored back as a float."""
    value = check_float(getattr(obj, name), name)
    object.__setattr__(obj, name, value)
    return value


# Keys a chain document may hold besides ``kind``, per kind.
_CHAIN_KEYS = {
    "gaussian_ar": ("dim", "d", "epsilon"),
    "finite": ("states", "transition", "outputs", "meta"),
    "mc3": ("kappa", "delta"),
    "mc0": ("d", "epsilon"),
    "mci": ("d", "epsilon", "delta", "bits"),
    "agnostic_bias": ("epsilon",),
}


def chain_from_json(doc: dict) -> ChainSpec:
    """Inverse of :func:`chain_to_json`; also accepts constructor shorthands.

    Besides ``kind: "gaussian_ar" | "finite"``, the shorthand kinds
    ``"mc3" | "mc0" | "mci" | "agnostic_bias"`` expand through the
    corresponding constructor.  A key the kind does not use is an error.
    """
    kind = doc.get("kind")
    if kind not in _CHAIN_KEYS:
        raise ValueError(f"unknown chain kind {kind!r}")
    check_keys(doc, ("kind",) + _CHAIN_KEYS[kind], f"{kind} chain")
    if kind == "gaussian_ar":
        key = "dim" if "dim" in doc else "d"
        if doc.get(key) is None:
            raise ValueError("gaussian_ar chain needs a dimension field ('dim')")
        return GaussianARSpec(dim=check_int(doc[key], key), epsilon=doc["epsilon"])
    if kind == "finite":
        return FiniteChainSpec(
            states=np.array(doc["states"], dtype=float),
            transition=np.array(doc["transition"], dtype=float),
            outputs=None if doc.get("outputs") is None else np.array(doc["outputs"], dtype=float),
            meta=dict(doc.get("meta", {})),
        )
    if kind == "mc3":
        return make_mc3(check_float(doc["kappa"], "kappa"), check_float(doc["delta"], "delta"))
    epsilon = check_float(doc["epsilon"], "epsilon")
    if kind == "mc0":
        return make_mc0(check_int(doc["d"], "d"), epsilon)
    if kind == "mci":
        return make_mci(check_int(doc["d"], "d"), epsilon, check_float(doc["delta"], "delta"), doc["bits"])
    return make_agnostic_bias_chain(epsilon)


# ---------------------------------------------------------------------------
# Sample-path cursors
# ---------------------------------------------------------------------------
#
# All simulation code -- the single-run reference runners and the batched
# multi-run engines -- draws sample paths through the cursors below, so the
# two code paths consume identical random streams and produce bitwise
# identical paths for equal seeds.
#
# Per-run randomness contract: a run with seed s owns four Philox child
# generators spawned from SeedSequence(s), in order
#   (chain path, observation noise, algorithm-internal draws, initial points).
# The engine seeds the children it draws from for all its runs in one
# compiled call (_run_streams; see markovsgd._kernel): the same streams,
# without a Generator per run.  When the library loads, draws from those
# streams are checked against these generators on fixed seeds; where the
# library is missing or the check fails, _run_streams builds the generators
# themselves.


def run_generators(seed) -> tuple[np.random.Generator, ...]:
    """The four per-run Philox generators (chain, noise, algorithm, init)."""
    return _run_generators(seed, range(4))


def _seed_parts(seed) -> tuple:
    """The entropy, spawn key and pool size of a seed's SeedSequence.

    A seed is an integer or a SeedSequence; an integer's parts are those of
    ``SeedSequence(int(seed))``, found without building it.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed.entropy, seed.spawn_key, seed.pool_size
    if isinstance(seed, np.random.Generator):
        raise TypeError("pass an integer seed or SeedSequence, not a Generator")
    return int(seed), (), 4


def _run_generators(seed, children) -> tuple[np.random.Generator, ...]:
    """The per-run generators numbered ``children`` (0 chain ... 3 init).

    Child i is the i-th child a first ``SeedSequence.spawn`` gives, derived
    without spawning: a caller's SeedSequence is never advanced, so it gives
    the same streams every time it is passed, and children nobody draws from
    are never built.
    """
    entropy, key, pool = _seed_parts(seed)
    return tuple(
        np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy, spawn_key=(*key, i), pool_size=pool)))
        for i in children
    )


def _run_streams(seeds, children) -> list:
    """For each child number in ``children``, the draws of that child of
    every run, one run per seed: the streams :func:`_run_generators` gives.

    The compiled library seeds them all in one call; without it, or where
    its streams failed their check, each run's generators are built.
    """
    kern = _load_kernel()
    fills = None if kern is None else kern.streams([_seed_parts(s) for s in seeds], children)
    if fills is None:
        gens = [_run_generators(s, children) for s in seeds]
        fills = [_Draws([g[i] for g in gens]) for i in range(len(children))]
    return fills


def _load_kernel():
    """The compiled sampling loops, or None when the cursors run in numpy.

    :mod:`markovsgd._kernel` is imported here, when the first cursor is
    made, so that importing the package neither compiles nor loads anything.
    """
    from . import _kernel

    return _kernel.library()


class _Draws:
    """Each run's uniforms or normals, drawn through its generator's methods.

    ``fill(out, normal)`` fills row r of ``out`` ``(R, ...)``, whose rows
    are each contiguous, with what ``rngs[r].standard_normal(out=out[r])``
    (or, without ``normal``, ``rngs[r].random(out=out[r])``) gives, row by
    row, and returns ``out``.  The seeded streams of :func:`_run_streams`
    have the same ``fill`` and ``num_runs``.
    """

    def __init__(self, rngs: Sequence[np.random.Generator]):
        self._rngs = list(rngs)
        self.num_runs = len(self._rngs)

    @staticmethod
    def of(rngs):
        """``rngs`` if it is already draws, else the draws of its generators."""
        return rngs if hasattr(rngs, "num_runs") else _Draws(rngs)

    def fill(self, out: np.ndarray, normal: bool) -> np.ndarray:
        for rng, row in zip(self._rngs, out):
            (rng.standard_normal if normal else rng.random)(out=row)
        return out


class GaussianPathCursor:
    """Streams Gaussian AR paths for a batch of runs, one column per run.

    ``take(n)`` returns the next ``n`` states with shape ``(n, R, d)``.  The
    first state of the path is ``X_1 = G_1`` (a stationary start) unless an
    explicit ``start`` point is given.  The recursion
    ``X_t = c X_{t-1} + eps G_t`` runs step for step -- in the compiled
    loop, or through scipy's first-order IIR filter when the library is
    unavailable, with the same bits -- so a path is bit-identical however
    the ``take`` calls slice it.

    Each run's block is drawn and filtered in a per-run contiguous
    ``(R, n, d)`` buffer; ``take`` hands back its ``(n, R, d)`` transposed
    view, so indexing ``[t]`` gives a strided ``(R, d)`` view and
    ``[:, r]`` a contiguous ``(n, d)`` block.
    """

    def __init__(self, spec: GaussianARSpec, rngs, start=None):
        self.spec = spec
        self._draws = _Draws.of(rngs)
        self._scale = 1.0 / math.sqrt(spec.dim)
        self._emit_start = start is not None
        if start is None:
            self._x = None  # first innovation becomes X_1
        else:
            start = np.asarray(start, dtype=float)
            if start.shape != (spec.dim,):
                raise ValueError(f"start must have shape ({spec.dim},)")
            self._x = np.tile(start, (self.num_runs, 1))
        self._kern = _load_kernel()

    @property
    def num_runs(self) -> int:
        return self._draws.num_runs

    def take(self, n: int, with_innovations: bool = False):
        """Next ``n`` states, shape (n, R, d); optionally also the innovations.

        The 1/sqrt(d) innovation scale is folded into the filter coefficient,
        so the raw normals are only rescaled when innovations are requested.
        """
        c = self.spec.decay
        b = self.spec.epsilon * self._scale
        G = np.empty((self.num_runs, n, self.spec.dim))
        if n == 0:
            X = G.transpose(1, 0, 2)
            return (X, X) if with_innovations else X
        self._draws.fill(G, normal=True)
        first = None
        if self._x is None:
            first = G[:, 0] * self._scale  # stationary start: X_1 = G_1 / sqrt(d)
        elif self._emit_start:
            # the explicit start is the path's first state; G[:, 0] is drawn
            # but discarded, keeping the stream layout of the stationary case
            first = self._x
            self._emit_start = False
        # without innovations to return, the path overwrites the normals
        X = G if self._kern is not None and not with_innovations else np.empty_like(G)
        lo, prev = (0, self._x) if first is None else (1, first)
        if first is not None:
            X[:, 0] = first
        if n > lo:
            if self._kern is not None:
                self._kern.ar(G[:, lo:], X[:, lo:], b, c, prev)
            else:
                # scipy.signal takes over a second to import; only the
                # fallback needs it
                from scipy.signal import lfilter

                X[:, lo:], _ = lfilter([b], [1.0, -c], G[:, lo:], axis=1, zi=(c * prev)[:, None])
        self._x = X[:, -1].copy()
        X = X.transpose(1, 0, 2)
        if with_innovations:
            G *= self._scale
            return X, G.transpose(1, 0, 2)
        return X


# A finite-chain step is the random-mapping representation
#   next = f(state, u) = #{j : u >= cum[state, j]},  u ~ U[0, 1),
# i.e. inverse-CDF sampling from the state's cumulative transition row.
# cum[state, -1] = 1.0 > u never counts, so only the S-1 leading thresholds
# of each row matter.  The compiled walk (msgd_walk in _kernel.c) counts
# them for four runs side by side, step by step, so the CPU overlaps the
# steps of different runs, each of which waits on its run's last state
# (unrolled, with no loop between them, for up to 8 thresholds);
# without the library, _walk_words steps all runs at once with four ufunc
# calls per step.  Both evaluate exactly these
# comparisons, so they give the same path bit for bit.


def _walk_words(thresholds: np.ndarray, U: np.ndarray, state: np.ndarray, out: np.ndarray) -> None:
    """Vectorised walk: ``out[t, r]`` counts the thresholds of state
    ``out[t-1, r]`` that are ``<= U[r, t]`` (``state`` before the first row).
    ``out[t, r]`` may share its 8 bytes with ``U[r, t]``: step t reads all
    of ``U[:, t]`` before it writes ``out[t]``.

    ``thresholds`` is ``(S, width)`` with ``width`` 1, 2, 4 or a multiple of
    8, padded with 2.0 (never ``<= u``).  Each run's comparison bytes form one
    unsigned word (whole ``uint64`` words past 8), so the count is one
    ``bitwise_count`` of that word (a sum over its words past 8).
    """
    R, width = state.shape[0], thresholds.shape[1]
    row = np.empty((R, width))
    hits = np.empty((R, width), dtype=bool)
    words = hits.view(f"u{min(width, 8)}")
    take, greater_equal, bitwise_count = thresholds.take, np.greater_equal, np.bitwise_count
    U = U.T[:, :, None]
    if words.shape[1] == 1:
        words = words[:, 0]
        for u, nxt in zip(U, out):
            take(state, 0, row, "clip")
            greater_equal(u, row, hits)
            bitwise_count(words, nxt)
            state = nxt
    else:
        counts = np.empty(words.shape, dtype=np.uint8)
        for u, nxt in zip(U, out):
            take(state, 0, row, "clip")
            greater_equal(u, row, hits)
            bitwise_count(words, counts)
            counts.sum(axis=1, out=nxt)
            state = nxt


def _make_walk(lead: np.ndarray, kern):
    """The walk ``walk(U, state, out)`` of a chain whose rows of cumulative
    transition probabilities, without their last column, are ``lead``
    (S, S-1): run r steps on the uniforms ``U[r]`` from ``state[r]``, and
    ``out[t, r]`` is its state after step t, and may share its memory with
    ``U[r, t]``.  ``kern`` is the compiled library, or None for the numpy
    walk."""
    if kern is not None:
        return partial(kern.walk, np.ascontiguousarray(lead))
    S = lead.shape[0]
    width = 1 << (S - 2).bit_length() if S <= 9 else -(-(S - 1) // 8) * 8
    thresholds = np.full((S, width), 2.0)
    thresholds[:, : S - 1] = lead
    return partial(_walk_words, thresholds)


class FinitePathCursor:
    """Streams finite-chain state indices for a batch of runs.

    ``take(n)`` returns the next ``n`` state indices with shape ``(n, R)``.
    Without an explicit start the first state is drawn from the stationary
    law, consuming one uniform; every subsequent state consumes one uniform
    per run.

    The layout is per run.  ``take`` allocates one fresh ``(R, n)`` block
    of 8-byte words and draws run r's uniforms into row r of it, read as
    float64; the walk then overwrites each uniform, once read, with the
    int64 state it picks, so no separate uniform buffer exists.  ``take``
    hands back the block's ``(n, R)`` transposed view: indexing ``[t]``
    gives a strided ``(R,)`` view and ``[:, r]`` a contiguous ``(n,)`` row.
    The compiled walk reads and writes the rows as they are (the numpy walk,
    without the library, steps through the transposed views).  A caller
    that is done with a block may hand its memory in again (``out``).
    """

    def __init__(self, spec: FiniteChainSpec, rngs, start=None):
        self.spec = spec
        self._draws = _Draws.of(rngs)
        cum = np.cumsum(spec.transition, axis=1)
        cum /= cum[:, -1:]
        self._walk = _make_walk(cum[:, :-1], _load_kernel())
        if start is None:
            self._start_idx = None
        else:
            self._start_idx = int(
                start if isinstance(start, (int, np.integer)) else spec.state_index(start)
            )
            if not 0 <= self._start_idx < spec.num_states:
                raise ValueError(f"start index must lie in 0..{spec.num_states - 1}, got {start}")
        self._emitted_first = False
        self._state: np.ndarray | None = None
        cpi = np.cumsum(stationary(spec))
        cpi[-1] = 1.0
        self._cum_pi = cpi

    @property
    def num_runs(self) -> int:
        return self._draws.num_runs

    def take(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """Next ``n`` state indices, shape (n, R); always n uniforms per run.

        ``out``, if given, is where they go and what is returned: an int64
        ``(n, R)`` array whose transpose is C-contiguous, as the blocks
        ``take`` allocates are.  The engine hands in the same one for every
        block of a run, so it takes no fresh pages per block.
        """
        if out is None:
            out = np.empty((self.num_runs, n), dtype=np.int64).T
        elif not (out.shape == (n, self.num_runs) and out.dtype == np.int64 and out.T.flags.c_contiguous):
            raise ValueError(f"take: out must be an int64 ({n}, {self.num_runs}) array with a C-contiguous transpose")
        block = out.T
        if n == 0:
            return out
        # the uniforms go into the state block itself; each step overwrites
        # the uniform it has read with the state it picks
        U = self._draws.fill(block.view(np.float64), normal=False)
        lo = 0
        if not self._emitted_first:
            if self._start_idx is None:
                out[0] = np.searchsorted(self._cum_pi, U[:, 0], side="right")
            else:
                out[0] = self._start_idx  # U[:, 0] is discarded for layout parity
            self._emitted_first = True
            lo = 1
        state = out[0].copy() if lo else self._state  # the compiled walk reads it contiguous
        self._walk(U[:, lo:], state, out[lo:])
        self._state = out[-1].copy()
        return out


def make_cursor(spec: ChainSpec, rngs, start=None):
    """Path cursor for either chain family.

    ``rngs`` holds one generator per run, or is the draws of seeded streams
    (:func:`_run_streams`).
    """
    if isinstance(spec, GaussianARSpec):
        return GaussianPathCursor(spec, rngs, start=start)
    return FinitePathCursor(spec, rngs, start=start)
