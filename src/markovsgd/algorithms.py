"""The four streaming least-squares estimators and lower-bound diagnostics.

Estimators
----------
* :func:`run_sgd` -- constant-step SGD with tail averaging.
* :func:`run_sgd_dd` -- SGD with data drop: only every K-th sample enters an
  update, decorrelating consecutive update samples.
* :func:`run_parallel_sgd` -- K interleaved SGD instances; instance i updates
  on samples (t-1)K + i, so each instance sees a nearly independent stream.
* :func:`run_sgd_er` -- SGD with experience replay on a Gaussian AR stream:
  samples arrive in buffers of S = B + u, the first u per buffer are dropped,
  and B update samples are drawn uniformly with replacement from the retained
  pool.
* :func:`run_lower_bound_trace` -- noiseless SGD instrumented with the
  quantities (alpha_t, gamma_t) whose exact one-step identity drives the
  sequential lower bound.

Every estimator is implemented once as a batched engine that advances R
independent runs in lockstep (arrays shaped ``(runs, dim)``); the public
single-run functions are the R=1 case of the same engine, so single runs and
batched experiment runs produce bitwise-identical paths for equal seeds.

Tail-average windows follow the algorithm displays exactly; see
:func:`tail_window` and the per-runner docstrings for the frozen index
conventions.  Every update rule uses the descent sign
``w <- w - step * (<x, w> - y) x``.

Randomness: a run owns four Philox children (chain, noise, algorithm, init)
spawned from its seed -- see :func:`markovsgd.chains.run_generators`.  Noise
variates are drawn only for samples that can enter updates (all samples for
SGD and Parallel SGD; kept indices for data drop; retained pool samples for
replay), in stream order.  Replay's pool positions are drawn from the
algorithm generator as one block of B integers per buffer.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chains import GaussianARSpec, _run_generators, make_cursor, mixing_time
from .regression import (
    AgnosticDeterministic,
    CoupledTrajectory,
    IndependentGaussian,
    Noiseless,
    Observation,
    Problem,
    excess_risk,
)

__all__ = [
    "SgdConfig",
    "DataDropConfig",
    "ParallelConfig",
    "ReplayConfig",
    "RunResult",
    "BatchResult",
    "LowerBoundTrace",
    "sgd_step",
    "tail_window",
    "recommended_drop_interval",
    "recommended_parallel_instances",
    "theory_drop_prefix",
    "run_sgd",
    "run_sgd_dd",
    "run_parallel_sgd",
    "run_sgd_er",
    "run_lower_bound_trace",
    "run_many",
    "run_lower_bound_traces",
]

# Target number of array elements per streamed (samples, runs, dim) block.
_BLOCK_ELEMS = 4_000_000


# ---------------------------------------------------------------------------
# Configuration types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SgdConfig:
    """Step size and the fraction of iterates entering the tail average."""

    step_size: float
    tail_fraction: float = 0.5

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")
        if not (0.0 < self.tail_fraction <= 1.0):
            raise ValueError(f"tail_fraction must lie in (0, 1], got {self.tail_fraction}")


@dataclass(frozen=True)
class DataDropConfig:
    """Data-drop SGD: update on every K-th sample only.

    ``drop_interval`` may be given explicitly; when ``None`` it is derived at
    run time as ``K = tau_mix * ceil(L * log2(T))`` with ``L = log_constant``.
    """

    base: SgdConfig
    drop_interval: int | None = None
    log_constant: float = 5.0

    def __post_init__(self):
        if self.drop_interval is not None and self.drop_interval < 1:
            raise ValueError(f"drop_interval must be >= 1, got {self.drop_interval}")
        if self.log_constant <= 0:
            raise ValueError("log_constant must be positive")


@dataclass(frozen=True)
class ParallelConfig:
    """K interleaved SGD instances over one stream.

    ``initial_points`` is an optional (K, dim) array; by default every
    instance starts from the caller-supplied initial point.
    """

    base: SgdConfig
    num_instances: int
    initial_points: np.ndarray | None = None

    def __post_init__(self):
        if self.num_instances < 1:
            raise ValueError(f"num_instances must be >= 1, got {self.num_instances}")
        if self.initial_points is not None:
            pts = np.asarray(self.initial_points, dtype=float)
            if pts.ndim != 2 or pts.shape[0] != self.num_instances:
                raise ValueError(
                    f"initial_points must have shape ({self.num_instances}, dim)"
                )
            object.__setattr__(self, "initial_points", pts)


@dataclass(frozen=True)
class ReplayConfig:
    """Experience replay: buffers of S = B + u samples, B replayed steps each.

    ``drop_prefix`` (u) leading samples of every buffer are never replayed;
    each of the B inner steps samples uniformly from the B retained samples.
    The default step size 1/2 matches the analysis of the replay estimator.
    """

    buffer_size: int
    step_size: float = 0.5
    drop_prefix: int = 0
    tail_buffer_fraction: float = 0.5

    def __post_init__(self):
        if self.buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {self.buffer_size}")
        if self.drop_prefix < 0:
            raise ValueError(f"drop_prefix must be >= 0, got {self.drop_prefix}")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if not (0.0 < self.tail_buffer_fraction <= 1.0):
            raise ValueError("tail_buffer_fraction must lie in (0, 1]")

    @property
    def span(self) -> int:
        """Samples consumed per buffer, S = B + u."""
        return self.buffer_size + self.drop_prefix


def recommended_drop_interval(tau_mix: int, T: int, log_constant: float = 5.0) -> int:
    """``K = tau_mix * ceil(L * log2 T)`` -- the drop interval the theory asks for."""
    if T < 2:
        raise ValueError("T must be at least 2")
    return int(tau_mix) * math.ceil(log_constant * math.log2(T))


def recommended_parallel_instances(tau_mix: int, T: int, rate_constant: float = 6.0) -> int:
    """``K = tau_mix * ceil(r * log2 T)`` with r > 5, for parallel SGD."""
    if rate_constant <= 5.0:
        raise ValueError("rate_constant must exceed 5")
    if T < 2:
        raise ValueError("T must be at least 2")
    return int(tau_mix) * math.ceil(rate_constant * math.log2(T))


def theory_drop_prefix(d: int, epsilon: float, buffer_size: int) -> int:
    """The analysis' per-buffer drop ``u = ceil((2/eps^2) ln(300000 pi d B / eps))``.

    At realistic parameters this exceeds the buffer size itself, which is why
    experiments default to ``drop_prefix=0``; this helper exposes the
    theory-mode value.
    """
    arg = 300000.0 * math.pi * d * buffer_size / epsilon
    return math.ceil(2.0 / epsilon**2 * math.log(arg))


def tail_window(num_iterates: int, tail_fraction: float) -> tuple[int, int]:
    """0-based (start, count) of the tail block in a list of iterates.

    With iterates ``w_1 .. w_n`` stored at positions 0..n-1, the averaged
    block is positions ``floor(n (1-f)) .. n-1`` -- e.g. n=4, f=1/2 averages
    w_3 and w_4.
    """
    if not (0.0 < tail_fraction <= 1.0):
        raise ValueError(f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    if num_iterates < 1:
        raise ValueError("num_iterates must be >= 1")
    start = math.floor(num_iterates * (1.0 - tail_fraction))
    return start, num_iterates - start


# ---------------------------------------------------------------------------
# Result types
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """Outcome of one run: estimate, optional trajectory, optional coupling.

    ``iterates`` is algorithm specific: the full iterate sequence (SGD,
    shape (T+1, d)), the per-update sequence (data drop, (n_upd+1, d)),
    per-round per-instance iterates (parallel, (rounds+1, K, d)), or the
    after-buffer iterates (replay, (n_buf, d)).  ``window`` gives the rows of
    ``iterates`` whose mean is the estimate, as (first_row, count).
    """

    estimate: np.ndarray
    iterates: np.ndarray | None
    window: tuple[int, int]
    coupled: CoupledTrajectory | None = None
    sample_reads: np.ndarray | None = None
    discarded_samples: int = 0


@dataclass
class BatchResult:
    """Outcome of R runs advanced in lockstep.

    ``checkpoint_excess[c, r]`` is the excess risk of run r's current iterate
    after ``checkpoint_steps[c]`` stream samples (for parallel SGD the mean
    iterate over instances; for replay the last completed buffer's iterate).
    """

    estimates: np.ndarray  # (R, d)
    final_iterates: np.ndarray  # (R, d)
    checkpoint_steps: np.ndarray | None = None
    checkpoint_excess: np.ndarray | None = None
    discarded_samples: int = 0


@dataclass(frozen=True)
class LowerBoundTrace:
    """Per-step (alpha_t, gamma_t) along a noiseless SGD path.

    ``alphas[t-1] = <X_t, w_t - w*>`` and ``gammas[t-1] = ||w_t - w*||``;
    ``gammas`` has one extra trailing entry for the post-final iterate.  The
    exact one-step identity
    ``gamma_{t+1}^2 = gamma_t^2 - (2 eta - eta^2 ||X_t||^2) alpha_t^2``
    holds along every path; :meth:`identity_residuals` evaluates it.
    """

    alphas: np.ndarray
    gammas: np.ndarray
    x_sq_norms: np.ndarray
    eta: float

    def identity_residuals(self) -> np.ndarray:
        g2 = self.gammas**2
        predicted = g2[:-1] - (2.0 * self.eta - self.eta**2 * self.x_sq_norms) * self.alphas**2
        return np.abs(g2[1:] - predicted)

    @property
    def zeta(self) -> float:
        """Fitted contraction rate: gamma_t^2 ~ gamma_1^2 exp(-zeta (t-1))."""
        g2 = self.gammas**2
        mask = g2 > 0
        if mask.sum() < 2:
            return 0.0
        t = np.nonzero(mask)[0]
        slope = np.polyfit(t, np.log(g2[mask]), 1)[0]
        return float(-slope)


# ---------------------------------------------------------------------------
# Engine plumbing
# ---------------------------------------------------------------------------


def _rng_triples(rng, num_runs: int | None = None):
    """Normalize the rng argument into per-run (chain, noise, algo) triples.

    Accepts an integer seed or SeedSequence (one run), or a sequence of seeds
    (one run each).
    """
    if num_runs is None:
        return [_run_generators(rng, range(3))]
    return [_run_generators(s, range(3)) for s in rng]


def _initial_weights(problem: Problem, w_init, num_runs: int, coupled: bool) -> np.ndarray:
    d = problem.dim
    w1 = np.zeros(d) if w_init is None else np.asarray(w_init, dtype=float)
    m = 3 if coupled else 1
    W = np.empty((m, num_runs, d))
    W[0] = w1  # broadcasts (d,) or per-run (R, d) starts
    if coupled:
        W[1] = w1
        W[2] = problem.w_star
    return W


class _Stream:
    """Labelled sample blocks for R runs, drawn through one path cursor.

    A block of states from ``cursor.take`` is a Gaussian block of vectors
    ``(n, ..., d)`` or a finite-chain block of state indices ``(n, ...)``;
    :meth:`vectors`,
    :meth:`clean` and :meth:`labels` map either kind elementwise, so the
    engines may reorder a block (e.g. into parallel rounds) before use.
    """

    def __init__(self, problem: Problem, triples):
        chain = problem.chain
        self.cursor = make_cursor(chain, [tr[0] for tr in triples])
        self._noise_rngs = [tr[1] for tr in triples]
        self._sigma = problem.noise.sigma if isinstance(problem.noise, IndependentGaussian) else None
        self._w_star = problem.w_star
        self._outputs = chain.outputs if isinstance(problem.noise, AgnosticDeterministic) else None
        if isinstance(chain, GaussianARSpec):
            self._states = self._table = None
        else:
            self._states = chain.states
            self._table = np.vecdot(chain.states, problem.w_star)

    def noise(self, n: int) -> np.ndarray | None:
        """Unit noise for the next n samples, (n, R), or None without noise.

        Each run's variates fill one row of a per-run (R, n) buffer; the
        result is its transposed view.
        """
        if self._sigma is None:
            return None
        xi = np.empty((len(self._noise_rngs), n))
        for rng, row in zip(self._noise_rngs, xi):
            rng.standard_normal(out=row)
        return xi.T

    def vectors(self, s: np.ndarray) -> np.ndarray:
        return s if self._states is None else self._states.take(s, axis=0)

    def clean(self, s: np.ndarray) -> np.ndarray:
        """Noise-free labels <x, w*> for a block of states.

        Deliberately ``np.vecdot`` -- the identical row-wise reduction the
        engines use for predictions -- rather than a matmul, so that labels
        agree bit for bit with the engine's prediction whatever the batch
        shape.  This is what makes w* an *exact* fixed point of noiseless
        runs and keeps single-run and batched outputs byte-identical.  A
        finite chain looks its labels up in a per-state table of the same
        ``np.vecdot`` values.
        """
        if self._table is None:
            return np.vecdot(s, self._w_star)
        return self._table.take(s)

    def labels(self, s: np.ndarray, xi) -> np.ndarray:
        """Observed labels for a block of states; xi is its unit noise."""
        if self._outputs is not None:
            return self._outputs.take(s)
        y = self.clean(s)
        if xi is not None:
            y = y + self._sigma * xi
        return y


def _stack_branches(y_full: np.ndarray, y_clean, coupled: bool) -> np.ndarray:
    """Label rows per weight branch: (full, bias, var) when coupled."""
    if not coupled:
        return y_full[None]
    return np.stack((y_full, y_clean, y_full))


class _Checkpoints:
    """Maps requested sample counts onto an engine's update/round/buffer events.

    ``events`` holds the event numbers that carry a checkpoint; engines test
    ``event in ck.events`` before calling :meth:`record`.
    """

    def __init__(self, steps, to_event, num_events: int, num_runs: int):
        self.steps = None
        self.excess = None
        self.events: dict[int, list[int]] = {}
        if steps is None:
            return
        self.steps = np.asarray(sorted(int(s) for s in steps), dtype=np.int64)
        if np.any(self.steps < 0):
            raise ValueError("checkpoints must be nonnegative sample counts")
        self.excess = np.full((len(self.steps), num_runs), np.nan)
        for pos, s in enumerate(self.steps):
            e = min(to_event(int(s)), num_events)
            self.events.setdefault(e, []).append(pos)

    def record(self, event: int, problem: Problem, iterate: np.ndarray) -> None:
        rows = self.events.get(event)
        if rows:
            val = excess_risk(problem, iterate)
            for pos in rows:
                self.excess[pos] = val


def _block_sizes(num_runs: int, dim: int) -> int:
    """Samples per streamed block, keeping (n, R, d) arrays modest."""
    return max(1, min(65536, _BLOCK_ELEMS // max(1, num_runs * dim)))


def _check_finite(W: np.ndarray, triples, samples: int) -> None:
    """Raise if any weight is no longer finite after ``samples`` stream samples.

    ``W`` has the run axis second, as every engine lays it out.
    """
    if np.isfinite(W).all():
        return
    r = int(np.argmin(np.isfinite(W).all(axis=(0, *range(2, W.ndim)))))  # first bad run
    ss = triples[r][0].bit_generator.seed_seq  # the chain child of the run's seed
    seed = ss.entropy if len(ss.spawn_key) == 1 else f"{ss.entropy}, spawn key {ss.spawn_key[:-1]}"
    raise FloatingPointError(
        f"run with seed {seed} diverged: non-finite iterate after {samples} stream samples"
    )


# The least-squares update W <- W - (<W, x> - y) * (step * x), one sample at a
# time, for the m weight branches of R runs, W (m, R, d).  With one weight
# row (m = R = 1) the residual is a Python float, because numpy is slow on
# one-element operands: on a 2-CPU Xeon VM (numpy 2.4) an in-place subtract
# into a one-element array took 1.7-2.0 us against ~0.5 us on two elements,
# and the (1, 1, 1) x (1, d) broadcast multiply 1.6-1.9 us.  Both forms
# evaluate the same dot, the same IEEE subtraction and the same products in
# the same order, so they give the same bits.
_LABEL_CHUNK = 4096  # labels converted to a Python list at a time


def _descend(W: np.ndarray, X: np.ndarray, Xs: np.ndarray, Y: np.ndarray):
    """Update ``W`` in place on each sample of a block, yielding after each.

    ``X`` holds the block's vectors and ``Xs`` the same scaled by the step
    size, both ``(n, R, d)``; ``Y`` holds the labels of each weight branch,
    ``(m, n, R)``.
    """
    vecdot, subtract, multiply = np.vecdot, np.subtract, np.multiply
    if W.shape[:2] == (1, 1):
        w, X, Xs = W[0, 0], X[:, 0], Xs[:, 0]
        p = np.empty_like(w)
        r0 = np.empty(())
        for a in range(0, len(X), _LABEL_CHUNK):
            b = a + _LABEL_CHUNK
            for x, xs, y in zip(X[a:b], Xs[a:b], Y[0, a:b, 0].tolist()):
                vecdot(w, x, r0)
                multiply(r0.item() - y, xs, p)
                subtract(w, p, w)
                yield
    else:
        P = np.empty_like(W)
        rbuf = np.empty(W.shape[:2])
        r3 = rbuf[:, :, None]
        for x, xs, y in zip(X, Xs, np.ascontiguousarray(Y.transpose(1, 0, 2))):
            vecdot(W, x, rbuf)
            subtract(rbuf, y, rbuf)
            multiply(r3, xs, P)
            subtract(W, P, W)
            yield


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


def _sgd_engine(
    problem: Problem,
    T: int,
    config: SgdConfig,
    triples,
    *,
    w_init=None,
    coupled: bool = False,
    keep_iterates: bool = False,
    checkpoints=None,
    record_reads: bool = False,
):
    """Tail-averaged SGD: T updates, estimate = mean of w_{floor(T(1-f))+1} .. w_T."""
    if T < 2:
        raise ValueError(f"T must be at least 2, got {T}")
    R = len(triples)
    d = problem.dim
    alpha = config.step_size
    stream = _Stream(problem, triples)

    W = _initial_weights(problem, w_init, R, coupled)
    m = W.shape[0]
    start, count = tail_window(T, config.tail_fraction)
    acc = np.zeros_like(W)
    iters = np.empty((T + 1, m, R, d)) if keep_iterates else None
    if keep_iterates:
        iters[0] = W
    ck = _Checkpoints(checkpoints, lambda n: n, T, R)
    ck.record(0, problem, W[0])

    if start == 0:
        acc += W  # a full-length window opens on w_0
    events = ck.events
    block = _block_sizes(R, d)
    t = 0
    while t < T:
        n = min(block, T - t)
        s = stream.cursor.take(n)
        X = stream.vectors(s)
        Yf = stream.labels(s, stream.noise(n))
        Y = _stack_branches(Yf, stream.clean(s) if coupled else None, coupled)
        # after update `step`, W is row `step` of the iterate array, and the
        # window averages rows start .. T-1
        for step, _ in enumerate(_descend(W, X, alpha * X, Y), t + 1):
            if start <= step < T:
                acc += W
            if keep_iterates:
                iters[step] = W
            if step in events:
                ck.record(step, problem, W[0])
        t += n
        _check_finite(W, triples, t)

    return {
        "estimates": acc / count,
        "final": W.copy(),
        "iterates": iters,
        "window": (start, count),
        "checkpoints": ck,
        "discarded": 0,
        "reads": np.arange(1, T + 1, dtype=np.int64) if record_reads else None,
    }


def _dd_engine(
    problem: Problem,
    T: int,
    config: DataDropConfig,
    triples,
    *,
    w_init=None,
    coupled: bool = False,
    keep_iterates: bool = False,
    checkpoints=None,
    record_reads: bool = False,
):
    """Data-drop SGD: update s consumes sample sK; estimate window includes
    the final iterate (w_{s} for s = floor(n(1-f))+2 .. n_upd+1)."""
    K = resolve_drop_interval(config, problem, T)
    if K > T:
        raise ValueError(f"drop interval K={K} exceeds the horizon T={T}")
    n_upd = T // K
    R = len(triples)
    d = problem.dim
    alpha = config.base.step_size
    stream = _Stream(problem, triples)

    W = _initial_weights(problem, w_init, R, coupled)
    m = W.shape[0]
    start, count = tail_window(n_upd, config.base.tail_fraction)
    # averaged rows are start+1 .. start+count of the (n_upd+1)-row iterate array
    acc = np.zeros_like(W)
    iters = np.empty((n_upd + 1, m, R, d)) if keep_iterates else None
    if keep_iterates:
        iters[0] = W
    ck = _Checkpoints(checkpoints, lambda n: n // K, n_upd, R)
    ck.record(0, problem, W[0])

    events = ck.events
    per_chunk = max(1, _block_sizes(R, d) // K)
    s = 0
    while s < n_upd:
        nk = min(per_chunk, n_upd - s)
        kept = stream.cursor.take(nk * K)[K - 1 :: K]
        Xk = stream.vectors(kept)
        Yf = stream.labels(kept, stream.noise(nk))
        Y = _stack_branches(Yf, stream.clean(kept) if coupled else None, coupled)
        for upd, _ in enumerate(_descend(W, Xk, alpha * Xk, Y), s + 1):
            if upd > start:
                acc += W
            if keep_iterates:
                iters[upd] = W
            if upd in events:
                ck.record(upd, problem, W[0])
        s += nk
        _check_finite(W, triples, s * K)

    return {
        "estimates": acc / count,
        "final": W.copy(),
        "iterates": iters,
        "window": (start + 1, count),
        "checkpoints": ck,
        "discarded": T - n_upd * K,
        "reads": K * np.arange(1, n_upd + 1, dtype=np.int64) if record_reads else None,
    }


def _rounds(stream: _Stream, nr: int, K: int, coupled: bool):
    """Next nr rounds of K samples: vectors (nr, R, K, d), labels (m, nr, R, K).

    Stream order (nr*K, R, ...) becomes round order (nr, R, K, ...) as
    views; a finite chain reorders its int64 state indices and gathers the
    vectors and labels straight into round order.
    """
    s = stream.cursor.take(nr * K)
    s = s.reshape(nr, K, *s.shape[1:]).swapaxes(1, 2)
    if s.ndim == 3:
        # finite-chain indices: one contiguous copy here, not one per gather
        s = np.ascontiguousarray(s)
    xi = stream.noise(nr * K)
    if xi is not None:
        xi = xi.reshape(nr, K, -1).swapaxes(1, 2)
    labels = stream.labels(s, xi)
    return stream.vectors(s), _stack_branches(labels, stream.clean(s) if coupled else None, coupled)


def _parallel_engine(
    problem: Problem,
    T: int,
    config: ParallelConfig,
    triples,
    *,
    w_init=None,
    coupled: bool = False,
    keep_iterates: bool = False,
    checkpoints=None,
    record_reads: bool = False,
):
    """Parallel SGD: round t hands sample (t-1)K+i to instance i; the
    estimate averages all instances over rounds floor(n(1-f))+1 .. n."""
    K = config.num_instances
    T_used = (T // (2 * K)) * (2 * K)
    if T_used == 0:
        raise ValueError(f"num_instances K={K} exceeds T/2 (T={T})")
    n_rounds = T_used // K
    R = len(triples)
    d = problem.dim
    alpha = config.base.step_size
    stream = _Stream(problem, triples)

    m = 3 if coupled else 1
    if config.initial_points is not None:
        init_pts = config.initial_points
    else:
        init_pts = np.tile(
            np.zeros(d) if w_init is None else np.asarray(w_init, dtype=float), (K, 1)
        )
    if init_pts.shape != (K, d):
        raise ValueError(f"initial points must have shape ({K}, {d})")
    W = np.empty((m, R, K, d))
    W[0] = init_pts
    if coupled:
        W[1] = init_pts
        W[2] = problem.w_star

    start, count = tail_window(n_rounds, config.base.tail_fraction)
    acc = np.zeros_like(W)
    iters = np.empty((n_rounds + 1, m, R, K, d)) if keep_iterates else None
    if keep_iterates:
        iters[0] = W
    ck = _Checkpoints(checkpoints, lambda n: n // K, n_rounds, R)
    ck.record(0, problem, W[0].mean(axis=1))

    events = ck.events
    rounds_chunk = max(1, _block_sizes(R, d) // K)
    vecdot, subtract, multiply = np.vecdot, np.subtract, np.multiply
    P = np.empty_like(W)
    rbuf = np.empty(W.shape[:3])
    r4 = rbuf[..., None]
    r = 0
    while r < n_rounds:
        nr = min(rounds_chunk, n_rounds - r)
        Xr, Y = _rounds(stream, nr, K, coupled)
        for k in range(nr):
            rnd = r + k + 1
            if rnd > start:
                acc += W
            x = Xr[k]  # (R, K, d)
            vecdot(W, x, rbuf)
            subtract(rbuf, Y[:, k], rbuf)
            multiply(rbuf, alpha, rbuf)
            multiply(r4, x, P)
            subtract(W, P, W)
            if keep_iterates:
                iters[rnd] = W
            if rnd in events:
                ck.record(rnd, problem, W[0].mean(axis=1))
        r += nr
        _check_finite(W, triples, r * K)

    reads = None
    if record_reads:
        reads = np.arange(1, T_used + 1, dtype=np.int64).reshape(n_rounds, K)
    return {
        "estimates": acc.sum(axis=2) / (count * K),
        "final": W.mean(axis=2),
        "iterates": iters,
        "window": (start, count),
        "checkpoints": ck,
        "discarded": T - T_used,
        "reads": reads,
    }


def _replay_engine(
    problem: Problem,
    T: int,
    config: ReplayConfig,
    triples,
    *,
    w_init=None,
    coupled: bool = False,
    keep_iterates: bool = False,
    checkpoints=None,
    record_reads: bool = False,
):
    """Experience replay on a Gaussian AR stream; estimate = mean of the
    after-buffer iterates over the last ceil(f * n_buf) buffers."""
    if not isinstance(problem.chain, GaussianARSpec):
        raise ValueError("experience replay requires the Gaussian AR chain")
    B = config.buffer_size
    u = config.drop_prefix
    S = config.span
    if S > T:
        raise ValueError(f"buffer span S={S} exceeds the horizon T={T}")
    n_buf = T // S
    R = len(triples)
    d = problem.dim
    eta = config.step_size
    stream = _Stream(problem, triples)
    algo_rngs = [tr[2] for tr in triples]

    W = _initial_weights(problem, w_init, R, coupled)
    m = W.shape[0]
    count = math.ceil(config.tail_buffer_fraction * n_buf)
    first_avg = n_buf - count + 1  # 1-based buffer numbers first_avg .. n_buf
    acc = np.zeros_like(W)
    iters = np.empty((n_buf, m, R, d)) if keep_iterates else None
    ck = _Checkpoints(checkpoints, lambda n: n // S, n_buf, R)
    ck.record(0, problem, W[0])

    rr = np.arange(R)
    reads = [] if record_reads else None
    events = ck.events
    bufs_chunk = max(1, _block_sizes(R, d) // S)
    j = 0
    while j < n_buf:
        nb = min(bufs_chunk, n_buf - j)
        n = nb * S
        # per-run layout: row r * n + i of Xrun is sample i of run r's block
        Xrun = np.ascontiguousarray(stream.cursor.take(n).transpose(1, 0, 2))
        Xrun = Xrun.reshape(R * n, d)
        for b in range(nb):
            buf = j + b + 1
            xi = stream.noise(B)  # one variate per retained sample
            picks = np.stack([rng.integers(0, B, size=B) for rng in algo_rngs], axis=1)
            # gather the whole pass up front: step s of run r replays sample
            # picks[s, r] of the buffer's retained pool
            Xg = Xrun.take(rr * n + (b * S + u) + picks, axis=0)  # (B, R, d)
            if xi is not None:
                xi = xi.T.take(rr * B + picks)
            Yg = stream.labels(Xg, xi)[None]
            if coupled:
                Yg = np.stack((Yg[0], stream.clean(Xg), Yg[0]))
            for _ in _descend(W, Xg, eta * Xg, Yg):
                pass
            if buf >= first_avg:
                acc += W
            if keep_iterates:
                iters[buf - 1] = W
            if buf in events:
                ck.record(buf, problem, W[0])
            if record_reads:
                reads.append((buf - 1) * S + u + 1 + picks[:, 0])
        j += nb
        _check_finite(W, triples, j * S)

    return {
        "estimates": acc / count,
        "final": W.copy(),
        "iterates": iters,
        "window": (first_avg - 1, count),
        "checkpoints": ck,
        "discarded": T - n_buf * S,
        "reads": np.concatenate(reads) if record_reads else None,
    }


def _trace_engine(problem: Problem, T: int, eta: float, triples, *, w_init=None):
    """Noiseless SGD recording alpha_t, ||X_t||^2 and gamma_t per run."""
    R = len(triples)
    d = problem.dim
    chain_rngs = [tr[0] for tr in triples]
    cursor = make_cursor(problem.chain, chain_rngs)
    w_star = problem.w_star
    W = np.empty((R, d))
    W[:] = np.zeros(d) if w_init is None else np.asarray(w_init, dtype=float)

    alphas = np.empty((T, R))
    xsq = np.empty((T, R))
    gammas = np.empty((T + 1, R))
    gammas[0] = np.linalg.norm(W - w_star, axis=-1)

    block = _block_sizes(R, d)
    t = 0
    while t < T:
        n = min(block, T - t)
        X = cursor.take(n)
        for k in range(n):
            x = X[k]
            diff = W - w_star
            a = np.vecdot(x, diff)
            alphas[t + k] = a
            xsq[t + k] = np.vecdot(x, x)
            W -= eta * a[:, None] * x
            gammas[t + k + 1] = np.linalg.norm(W - w_star, axis=-1)
        t += n

    return {"alphas": alphas, "gammas": gammas, "x_sq_norms": xsq}


_ENGINES = {
    SgdConfig: _sgd_engine,
    DataDropConfig: _dd_engine,
    ParallelConfig: _parallel_engine,
    ReplayConfig: _replay_engine,
}


def resolve_drop_interval(config: DataDropConfig, problem: Problem, T: int) -> int:
    """Explicit K, or the derived K = tau_mix * ceil(L * log2 T)."""
    if config.drop_interval is not None:
        return config.drop_interval
    tau = mixing_time(problem.chain).tau_mix
    return recommended_drop_interval(tau, T, config.log_constant)


# ---------------------------------------------------------------------------
# Public API: single runs
# ---------------------------------------------------------------------------


def sgd_step(w, obs: Observation, alpha: float) -> np.ndarray:
    """One least-squares SGD update: ``w - alpha * x * (<x, w> - y)``."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(obs.x, dtype=float)
    if w.shape != x.shape:
        raise ValueError(f"shape mismatch: w {w.shape} vs x {x.shape}")
    return w - (np.vecdot(w, x) - obs.y) * (alpha * x)


def _single_run(engine, problem, T, config, rng, *, w_init, coupled, keep_iterates, record_reads):
    if coupled and not keep_iterates:
        raise ValueError("coupled runs need keep_iterates=True to expose the paths")
    out = engine(
        problem,
        T,
        config,
        _rng_triples(rng),
        w_init=w_init,
        coupled=coupled,
        keep_iterates=keep_iterates,
        record_reads=record_reads,
    )
    iters = out["iterates"]
    coupled_traj = None
    if iters is not None:
        # (steps, m, 1, ...) -> per-branch (steps, ...)
        paths = iters[:, :, 0]
        if coupled:
            coupled_traj = CoupledTrajectory(
                iterates_full=paths[:, 0],
                iterates_bias=paths[:, 1],
                iterates_var=paths[:, 2],
                w_star=problem.w_star,
            )
        iters = paths[:, 0]
    return RunResult(
        estimate=out["estimates"][0, 0],
        iterates=iters,
        window=out["window"],
        coupled=coupled_traj,
        sample_reads=out["reads"],
        discarded_samples=out["discarded"],
    )


def run_sgd(
    problem: Problem,
    T: int,
    config: SgdConfig,
    rng,
    *,
    w_init=None,
    coupled: bool = False,
    keep_iterates: bool = True,
    record_reads: bool = False,
) -> RunResult:
    """Tail-averaged SGD over T stationary-start stream samples.

    The estimate averages iterates ``w_{floor(T(1-f))+1} .. w_T`` (the update
    driven by the last sample is computed but, per the algorithm's displayed
    window, never averaged).  ``rng`` is an integer seed or SeedSequence.
    """
    return _single_run(
        _sgd_engine,
        problem,
        T,
        config,
        rng,
        w_init=w_init,
        coupled=coupled,
        keep_iterates=keep_iterates,
        record_reads=record_reads,
    )


def run_sgd_dd(
    problem: Problem,
    T: int,
    config: DataDropConfig,
    rng,
    *,
    w_init=None,
    coupled: bool = False,
    keep_iterates: bool = True,
    record_reads: bool = False,
) -> RunResult:
    """SGD with data drop: updates only on samples K, 2K, ..., floor(T/K) K.

    With n = floor(T/K) updates the estimate averages iterates
    ``w_{floor(n(1-f))+2} .. w_{n+1}`` -- one past the plain-SGD window, per
    the algorithm's displayed bounds, so the final iterate is included.
    """
    return _single_run(
        _dd_engine,
        problem,
        T,
        config,
        rng,
        w_init=w_init,
        coupled=coupled,
        keep_iterates=keep_iterates,
        record_reads=record_reads,
    )


def run_parallel_sgd(
    problem: Problem,
    T: int,
    config: ParallelConfig,
    rng,
    *,
    w_init=None,
    coupled: bool = False,
    keep_iterates: bool = True,
    record_reads: bool = False,
) -> RunResult:
    """K interleaved SGD instances; instance i updates on sample (t-1)K+i.

    T is truncated down to a multiple of 2K (the discarded count is
    reported).  The estimate averages every instance's iterates over rounds
    ``floor(n(1-f))+1 .. n`` where n = T/K.  Returned iterates have shape
    (rounds+1, K, d).
    """
    return _single_run(
        _parallel_engine,
        problem,
        T,
        config,
        rng,
        w_init=w_init,
        coupled=coupled,
        keep_iterates=keep_iterates,
        record_reads=record_reads,
    )


def run_sgd_er(
    problem: Problem,
    T: int,
    config: ReplayConfig,
    rng,
    *,
    w_init=None,
    coupled: bool = False,
    keep_iterates: bool = True,
    record_reads: bool = False,
) -> RunResult:
    """SGD with experience replay (Gaussian AR streams only).

    The stream is cut into floor(T/S) buffers of S = B + u samples; within
    buffer j the first u samples are dropped and B update samples are drawn
    uniformly with replacement from the retained pool (global indices
    Sj+u+1 .. Sj+S).  Returned iterates are the after-buffer weights, and the
    estimate averages them over the last ceil(f * n_buf) buffers.
    """
    return _single_run(
        _replay_engine,
        problem,
        T,
        config,
        rng,
        w_init=w_init,
        coupled=coupled,
        keep_iterates=keep_iterates,
        record_reads=record_reads,
    )


def _check_trace_regime(problem: Problem, eta: float) -> None:
    chain = problem.chain
    if not isinstance(chain, GaussianARSpec):
        raise ValueError("the lower-bound trace runs on the Gaussian AR chain")
    if not isinstance(problem.noise, Noiseless):
        raise ValueError("the lower-bound trace requires a noiseless problem")
    if eta > 0.05 or chain.epsilon**2 <= 0.5:
        warnings.warn(
            "outside the proof regime (needs eta <= 0.05 and epsilon^2 > 0.5); "
            "running anyway",
            stacklevel=3,
        )


def run_lower_bound_trace(problem: Problem, T: int, eta: float, rng, *, w_init=None) -> LowerBoundTrace:
    """Noiseless SGD instrumented with alpha_t = <X_t, w_t - w*> and gamma_t.

    The proof regime expects eta of at most 0.05 and epsilon^2 > 0.5; outside
    it a warning is emitted and the trace still runs.
    """
    _check_trace_regime(problem, eta)
    out = _trace_engine(problem, T, eta, _rng_triples(rng), w_init=w_init)
    return LowerBoundTrace(
        alphas=out["alphas"][:, 0],
        gammas=out["gammas"][:, 0],
        x_sq_norms=out["x_sq_norms"][:, 0],
        eta=eta,
    )


# ---------------------------------------------------------------------------
# Public API: batched runs
# ---------------------------------------------------------------------------


def run_many(
    problem: Problem,
    T: int,
    config,
    seeds: Sequence[int],
    *,
    w_init=None,
    checkpoints=None,
    workers: int = 1,
) -> BatchResult:
    """Advance one run per seed in lockstep and return per-run summaries.

    ``config`` picks the algorithm by type (SgdConfig, DataDropConfig,
    ParallelConfig, ReplayConfig).  Aggregation is deterministic: results are
    ordered by the position of each seed in ``seeds``.

    ``workers > 1`` splits the seeds -- with any per-run ``(R, d)`` rows of
    ``w_init`` -- into at most ``workers`` contiguous chunks, runs the chunks
    on a pool of spawned processes and joins them in seed order.  Every
    run's numbers are the same as in the serial call (the default).  As with
    any spawned pool, a script that calls this at import time must guard
    the call with ``if __name__ == "__main__":``.
    """
    if type(config) not in _ENGINES:
        raise TypeError(f"unsupported config type {type(config).__name__}")
    if int(workers) != workers or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    seeds = list(seeds)
    R = len(seeds)
    per_run = w_init is not None and np.ndim(w_init) == 2
    if per_run and np.shape(w_init)[0] != R:
        raise ValueError(f"per-run w_init must have one row per seed ({R}), got {np.shape(w_init)}")
    n_chunks = min(int(workers), R)
    if n_chunks <= 1:
        return _run_batch(problem, T, config, seeds, w_init, checkpoints)
    edges = [R * i // n_chunks for i in range(n_chunks + 1)]
    spans = list(zip(edges[:-1], edges[1:]))
    inits = [np.asarray(w_init)[lo:hi] if per_run else w_init for lo, hi in spans]
    # spawned workers start from a fresh import, so forking a caller that
    # runs threads (BLAS pools, test runners) can never deadlock a worker
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=n_chunks, mp_context=spawn) as pool:
        parts = list(
            pool.map(
                _run_batch,
                itertools.repeat(problem),
                itertools.repeat(T),
                itertools.repeat(config),
                [seeds[lo:hi] for lo, hi in spans],
                inits,
                itertools.repeat(checkpoints),
            )
        )
    first = parts[0]
    return BatchResult(
        estimates=np.concatenate([p.estimates for p in parts]),
        final_iterates=np.concatenate([p.final_iterates for p in parts]),
        checkpoint_steps=first.checkpoint_steps,
        checkpoint_excess=(
            None
            if first.checkpoint_excess is None
            else np.concatenate([p.checkpoint_excess for p in parts], axis=1)
        ),
        discarded_samples=first.discarded_samples,
    )


def _run_batch(problem: Problem, T: int, config, seeds, w_init, checkpoints) -> BatchResult:
    """Serial body of :func:`run_many`; module level so pools can pickle it."""
    out = _ENGINES[type(config)](
        problem,
        T,
        config,
        _rng_triples(seeds, num_runs=len(seeds)),
        w_init=w_init,
        coupled=False,
        keep_iterates=False,
        checkpoints=checkpoints,
    )
    ck = out["checkpoints"]
    return BatchResult(
        estimates=out["estimates"][0],
        final_iterates=out["final"][0],  # parallel engines hand back instance-averaged finals
        checkpoint_steps=ck.steps,
        checkpoint_excess=ck.excess,
        discarded_samples=out["discarded"],
    )


def run_lower_bound_traces(problem: Problem, T: int, eta: float, seeds, *, w_init=None):
    """Batched lower-bound traces: alphas (T, R), gammas (T+1, R), x_sq_norms (T, R)."""
    _check_trace_regime(problem, eta)
    out = _trace_engine(problem, T, eta, _rng_triples(seeds, num_runs=len(seeds)), w_init=w_init)
    return out["alphas"], out["gammas"], out["x_sq_norms"]
