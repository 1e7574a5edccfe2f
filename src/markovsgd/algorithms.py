"""The four streaming least-squares estimators and lower-bound diagnostics.

Estimators
----------
* :func:`run_sgd` -- constant-step SGD with tail averaging.
* :func:`run_sgd_dd` -- SGD with data drop: only every K-th sample enters an
  update, decorrelating consecutive update samples.
* :func:`run_parallel_sgd` -- K interleaved SGD instances; instance i updates
  on samples (t-1)K + i, so each instance sees a nearly independent stream.
* :func:`run_sgd_er` -- SGD with experience replay: samples arrive in
  buffers of S = B + u, the first u per buffer are dropped, and B update
  samples are drawn uniformly with replacement from the retained pool.
* :func:`run_lower_bound_trace` -- noiseless SGD instrumented with the
  quantities (alpha_t, gamma_t) whose exact one-step identity drives the
  sequential lower bound.

The four estimators are one constant-step update on four schedules over the
same stream.  One engine runs them all: a per-algorithm plan says how many
events (updates, rounds or buffers) a run has, how many samples each reads
and which, and which iterates the estimate averages; the engine advances R
independent runs in lockstep, with weights shaped ``(runs, instances,
dim)`` -- one instance per run outside parallel SGD.  The public single-run
functions are the R=1 case of the same engine, so single runs and batched
experiment runs produce bitwise-identical paths for equal seeds.  A coupled
single run is three such runs on one seed: the run itself, the run of the
noiseless problem from the same start (bias), and the run from w* (var).

Tail-average windows follow the algorithm displays exactly; see
:func:`tail_window` and the per-runner docstrings for the frozen index
conventions.  Every update rule uses the descent sign
``w <- w - step * (<x, w> - y) x``.  The per-sample loop runs in a compiled
kernel (``_kernel.c``, built on first use and cached; see
:func:`kernel_info`).  To the kernel every instance of every run is a
chain of its own -- parallel SGD's K instances never read each other --
and it takes each chain through a whole segment of updates, four chains
side by side so the CPU overlaps their updates, sums the tail window and
stores the iterates a single run keeps, after each update that ends an
event.  Below 16 dimensions it writes the BLAS dot out inline where a
check at load finds it bit-equal to ``np.vecdot``; there, on a CPU with
AVX2, it advances four chains in the lanes of one vector register, each
lane making the scalar loop's IEEE operations in the same order, so with
the same bits.  It reads every
sample by row number from a table: a finite chain's state index into the
chain's table of states, and a Gaussian sample's position in its block of
the path, whose per-run rows are the table -- so replay's picks are row
numbers too.  It makes every label itself: ``<x, w*>`` for a Gaussian
sample, and for a finite chain the state's entry in a per-state label
table; either adds the scaled unit noise.  So neither vectors nor labels
are gathered into blocks.  The numpy loop,
:func:`_descend`, is the fallback where the kernel is unavailable: it
takes the kernel's arguments and gives its bits.  Parallel SGD's sums over
its instances -- its estimates, finals and checkpoint iterates -- are the
kernel's one pass wherever a check at load finds it bit-equal to numpy's
``sum(axis=-2)`` (not at d = 1, where numpy sums pairwise).  A run's
finite-chain states and its noise are drawn, block after block, into two
per-run blocks its stream owns (see :class:`_Stream`), so the blocks after
the first take no fresh pages.
:func:`run_many` cuts its seeds into contiguous tiles and runs them on
threads of the calling process, by default one per usable CPU: one tile
per thread, or more where a tile's weights and tail sums -- twice runs x
instances x dim doubles -- would outgrow half the memory budget
``_TILE_ELEMS``, as parallel SGD's large K does.  That budget is the one
memory budget per busy thread, and it bounds the sum of what the thread
holds: each tile sizes its sample blocks for its own runs to fit the
budget beside their weights and tail sums, counting what the stream
keeps per sample and run (a finite state, or a Gaussian sample's d
coordinates, and its noise), with at least one event -- a round, a
buffer -- per block.  So a batch holds the weights, tail sums and sample
blocks of at most one tile per thread, not of all R runs, and together
they fit the budget unless one run's weights or one event outgrow it.
Runs are independent, and a cursor gives the same path however its
blocks slice it, so the result is the same for any tiling and any block
size.

Randomness: a run owns four Philox children (chain, noise, algorithm, init)
spawned from its seed -- see :func:`markovsgd.chains.run_generators`; the
engine seeds only those it draws from, for all its runs in one compiled
call, as numpy's ``SeedSequence`` and ``Philox`` would.  Noise
variates are drawn only for samples that can enter updates (all samples for
SGD and Parallel SGD; kept indices for data drop; retained pool samples for
replay), in stream order.  Each block's uniforms and normals are drawn for
every run in one call that releases the GIL, by the library's own
compiled copies of numpy's uniform and ziggurat normal algorithms, into
one row per run: the variates ``Generator.random`` and
``Generator.standard_normal`` give, run by run, as a check at load
confirms (see :mod:`markovsgd._kernel`).  Replay's pool positions are
drawn from the algorithm generator, a numpy ``Generator`` per run, as one
``(buffers, B)`` block of integers per streamed block.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .chains import GaussianARSpec, _run_generators, _run_streams, _seed_parts, check_float, check_int
from .chains import check_float_field, check_int_field, make_cursor, mixing_time
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
    "kernel_info",
]

# The one memory budget per busy thread, in eight-byte elements (2 MiB).
# It bounds the sum of what a thread holds for its tile: the weights (runs
# x instances x dim doubles), their tail sums and the sample block, counted
# as what the stream keeps per sample and run and what the plan's draw
# builds of it (replay's picks and the samples it gathers).  A tile's
# weights and tail sums fill at most half of it, unless one run holds
# more, and its blocks take the rest (see _block_sizes).  On a 2-CPU Xeon
# at K = 742 and R = 1000, such tiles ran parallel SGD 9-15% faster at
# T = 6000 than tiles whose weights alone filled the budget, and at the
# same speed at T = 2 * 10**5; tiles of an eighth ran T = 6000 no faster,
# and 5-run tiles (a sixteenth) 1.4x slower.
_TILE_ELEMS = 1 << 18


# ---------------------------------------------------------------------------
# Configuration types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SgdConfig:
    """Step size and the fraction of iterates entering the tail average."""

    step_size: float
    tail_fraction: float = 0.5

    def __post_init__(self):
        if check_float_field(self, "step_size") <= 0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")
        if not (0.0 < check_float_field(self, "tail_fraction") <= 1.0):
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
        if self.drop_interval is not None and check_int_field(self, "drop_interval") < 1:
            raise ValueError(f"drop_interval must be >= 1, got {self.drop_interval}")
        if check_float_field(self, "log_constant") <= 0:
            raise ValueError("log_constant must be positive")


@dataclass(frozen=True)
class ParallelConfig:
    """K interleaved SGD instances over one stream, all started at the run's
    initial point."""

    base: SgdConfig
    num_instances: int

    def __post_init__(self):
        if check_int_field(self, "num_instances") < 1:
            raise ValueError(f"num_instances must be >= 1, got {self.num_instances}")


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
        if check_int_field(self, "buffer_size") < 1:
            raise ValueError(f"buffer_size must be >= 1, got {self.buffer_size}")
        if check_int_field(self, "drop_prefix") < 0:
            raise ValueError(f"drop_prefix must be >= 0, got {self.drop_prefix}")
        if check_float_field(self, "step_size") <= 0:
            raise ValueError("step_size must be positive")
        if not (0.0 < check_float_field(self, "tail_buffer_fraction") <= 1.0):
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


def _starts(d: int, w_init, num_runs: int) -> np.ndarray:
    """The initial point: zeros, a shared (d,) start, or one (R, d) row per
    run, every entry finite."""
    w1 = np.zeros(d) if w_init is None else np.asarray(w_init, dtype=float)
    if w1.shape not in ((d,), (num_runs, d)):
        raise ValueError(f"w_init must have shape ({d},) or ({num_runs}, {d}), got {w1.shape}")
    if not np.isfinite(w1).all():
        raise ValueError("w_init must hold finite numbers")
    return w1


def _initial_weights(problem: Problem, w_init, num_runs: int, K: int) -> np.ndarray:
    """Weights ``(R, K, d)``: every instance of a run starts at its point."""
    W = np.empty((num_runs, K, problem.dim))
    W[:] = _starts(problem.dim, w_init, num_runs)[..., None, :]
    return W


class _Stream:
    """Sample blocks for R runs, drawn through one path cursor.

    ``chain_draws`` and ``noise_draws`` are the runs' chain and noise
    streams (see :func:`markovsgd.chains._run_streams`).
    A block of states from :meth:`states` is ``(n, R)`` int64 numbers of
    rows of ``table``: a finite chain's state indices into its ``(S, d)``
    states, or, on a Gaussian chain, the numbers ``r * n + i`` of the rows
    of the block's own ``(R * n, d)`` path, which :meth:`states` sets as
    ``table``.  The update loop takes either kind, reordered by the engine
    as it likes (e.g. into parallel rounds, or replay's picks), and makes
    each label from :meth:`labels` and the block's unit noise.

    The stream owns one per-run block of states and one of noise, which
    every block of the run reuses: a block is spent once the update loop
    has taken it, or once replay has gathered its picks out of it, so only
    the first block's pages are fresh.  (The Gaussian cursor's blocks are
    fresh each time; a Gaussian block's row numbers are kept from one block
    to the next.)  ``per_sample`` counts the elements a block keeps per
    sample and run: a finite state, or a Gaussian sample's d coordinates,
    and its noise.
    """

    def __init__(self, problem: Problem, chain_draws, noise_draws):
        chain = problem.chain
        self.cursor = make_cursor(chain, chain_draws)
        self._noise = noise_draws
        self._blocks: dict[str, np.ndarray] = {}
        self.sigma = problem.noise.sigma if isinstance(problem.noise, IndependentGaussian) else None
        self._w_star = np.ascontiguousarray(problem.w_star, dtype=float)
        self._outputs = chain.outputs if isinstance(problem.noise, AgnosticDeterministic) else None
        self._gaussian = isinstance(chain, GaussianARSpec)
        self.per_sample = (problem.dim if self._gaussian else 1) + (self.sigma is not None)
        self._rows = np.empty((0, self._noise.num_runs), dtype=np.int64)  # a Gaussian block's row numbers
        self.table = self._clean = None
        if not self._gaussian:
            self.table = chain.states
            self._clean = np.vecdot(chain.states, self._w_star)

    def _block(self, name: str, n: int, dtype) -> np.ndarray:
        """The stream's contiguous ``(R, n)`` block ``name``, in memory that
        the next call for ``name`` reuses; it grows only past its largest n."""
        R = self._noise.num_runs
        buf = self._blocks.get(name)
        if buf is None or len(buf) < R * n:
            buf = self._blocks[name] = np.empty(R * n, dtype)
        return buf[: R * n].reshape(R, n)

    def states(self, n: int) -> np.ndarray:
        """The next n states, as ``(n, R)`` numbers of rows of ``table``,
        which hold until the next call."""
        if not self._gaussian:
            return self.cursor.take(n, out=self._block("states", n, np.int64).T)
        X = self.cursor.take(n)  # the transposed view of a contiguous (R, n, d) block
        self.table = X.transpose(1, 0, 2).reshape(-1, X.shape[-1])
        if len(self._rows) != n:
            R = self._noise.num_runs
            self._rows = np.arange(R * n).reshape(R, n).T
        return self._rows

    def noise(self, n: int) -> np.ndarray | None:
        """Unit noise for the next n samples, (n, R), or None without noise.

        Each run's variates fill one row of the stream's per-run (R, n)
        block of noise, which holds until the next call, and the result is
        its transposed view.
        """
        if self.sigma is None:
            return None
        return self._noise.fill(self._block("noise", n, float), normal=True).T

    def labels(self) -> np.ndarray:
        """The update loop's ``labels``: the label rule before noise.

        For a Gaussian chain that is w*, as each sample's clean label is
        ``np.vecdot(x, w*)``: the reduction of the loop's predictions, so w*
        is an *exact* fixed point of noiseless runs.  For a finite chain it
        is a ``(1, S)`` table per state of the same clean labels, or under
        agnostic noise of the outputs.
        """
        if self._gaussian:
            return self._w_star
        return (self._clean if self._outputs is None else self._outputs)[None]


class _Checkpoints:
    """Maps requested sample counts onto an engine's update/round/buffer events.

    ``events`` holds the event numbers that carry a checkpoint; the engine
    stops its update loop after the updates that end them to :meth:`record`.
    """

    def __init__(self, steps, horizon: int, to_event, num_events: int, num_runs: int):
        self.steps = None
        self.excess = None
        self.events: dict[int, list[int]] = {}
        if steps is None:
            return
        self.steps = np.asarray(sorted(check_int(s, "checkpoint") for s in steps), dtype=np.int64)
        if np.any(self.steps < 0) or np.any(self.steps > horizon):
            raise ValueError(f"checkpoints must be sample counts in 0..{horizon} (T)")
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


def _block_sizes(num_runs: int, per_event: int, held: int = 0) -> int:
    """Events (updates, rounds or buffers) per streamed block of
    ``num_runs`` runs that keeps ``per_event`` elements per event and run,
    beside ``held`` elements the runs hold already (their weights and tail
    sums): as many as fit the budget ``_TILE_ELEMS`` together with them,
    and at least one."""
    return max(1, (_TILE_ELEMS - held) // (num_runs * per_event))


class _Diverged(Exception):
    """Run ``run`` of a batch (its position) is non-finite after update ``update``."""

    def __init__(self, run: int, update: int):
        super().__init__(run, update)
        self.run, self.update = run, update


def _divergence(seed, samples: int, what: str = "non-finite iterate") -> FloatingPointError:
    """The error naming a run's seed, what overflowed and the stream samples it had read."""
    entropy, key, _ = _seed_parts(seed)
    label = entropy if not key else f"{entropy}, spawn key {key}"
    return FloatingPointError(f"run with seed {label} diverged: {what} after {samples} stream samples")


def _descend(
    W, X, table, labels, alpha: float, scaled: bool, acc, lo: int, hi: int, bad, first: int,
    iters=None, xi=None, sigma: float = 0.0, every: int = 1,
) -> None:
    """The numpy update loop: :meth:`markovsgd._kernel.Kernel.advance`'s
    contract and bits, where the compiled kernel is unavailable.

    It takes the same arguments, gathers the samples' rows from ``table``
    (the one place that copies sample vectors), makes the same labels, sums
    and stores W after the same updates, runs a broken instance on to the
    end as the compiled loop does, and reports the same updates into
    ``bad``.  It checks the weights only after its last update; a second
    pass from the call's start then finds the update that first broke one
    of each run's instances.
    """
    rows, X = X, table.take(X, axis=0)
    Y = np.vecdot(X, labels) if labels.ndim == 1 else labels[0].take(rows)  # w*, or a table
    if xi is not None:
        Y = Y + sigma * xi
    Xs = X if scaled else alpha * X
    vecdot, subtract, multiply = np.vecdot, np.subtract, np.multiply
    P = np.empty_like(W)
    rbuf = np.empty(W.shape[:-1])
    r3 = rbuf[..., None]

    def updates(W):  # yields u after applying update u to W
        for u, x, xs, y in zip(range(first, first + len(X)), X, Xs, Y):
            vecdot(W, x, rbuf)
            subtract(rbuf, y, rbuf)
            if scaled:
                multiply(rbuf, alpha, rbuf)
            multiply(r3, xs, P)
            subtract(W, P, W)
            yield u

    start = W.copy()
    # a broken run overflows silently, as on the compiled loop: bad reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for u in updates(W):
            if acc is not None and lo <= u < hi and u % every == 0:  # u ends event u // every
                acc += W
            if iters is not None and u % every == 0:
                iters[u // every] = W
        broken = ~np.isfinite(W).all(axis=(1, 2))
        for u in updates(start) if broken.any() else ():
            bad[(bad < 0) & ~np.isfinite(start).all(axis=(1, 2))] = u
            if (bad[broken] >= 0).all():
                break


def _load_kernel(d: int):
    """The compiled kernel for weights of dimension d, or None for the numpy loop.

    :mod:`markovsgd._kernel` is imported here, on first use, so that
    importing the package neither compiles nor loads anything.
    """
    from . import _kernel

    return _kernel.load(d)


def _instance_sum(d: int) -> Callable:
    """The sum over the instance axis of contiguous ``(..., K, d)`` weights,
    numpy's ``sum(axis=-2)``: the kernel's one pass, where its check at d
    found the same bits, else numpy's."""
    kern = _load_kernel(d)
    if kern is not None and kern.sums(d):
        return kern.instance_sum
    return functools.partial(np.sum, axis=-2)


def _advance(
    W, s, xi, stream: _Stream, alpha: float, *, first=0, acc=None, window=(0, 0), events=(), iters=None,
    scaled=False, every=1,
):
    """Apply a block's updates to ``W`` in place, yielding at events.

    Sample i of ``s``, with unit noise ``xi[i]`` (or None), drives update
    ``first + i + 1``; ``s`` is ``(n, R, K)`` numbers of rows of
    ``stream.table``, and ``xi`` is ``(n, R, K)``.  The labels are made
    by the rule of :meth:`_Stream.labels`.
    Update u ends an event when it is a multiple of ``every``; then W is
    added into ``acc`` when ``window[0] <= u < window[1]`` and stored in
    ``iters[u // every]`` when ``iters`` is given.  The generator yields u
    after each update u in ``events``.  ``scaled`` selects parallel SGD's
    ``(alpha * r) * x`` order over ``r * (alpha * x)``.

    The block runs as segments that end at its events and at its end, each
    one call of the compiled kernel's ``advance``, or of :func:`_descend`
    where the kernel is unavailable (see :mod:`markovsgd._kernel`).  After
    a segment that left a run non-finite, the generator raises
    :class:`_Diverged` for the first such run, in seed order, and the
    update that broke it.
    """
    kern = _load_kernel(W.shape[-1])
    advance = _descend if kern is None else kern.advance
    labels = stream.labels()
    sigma = stream.sigma or 0.0
    bad = np.full(len(W), -1, dtype=np.int64)  # per run: the update that made it non-finite
    end = first + len(s)
    a = first
    for b in sorted({e for e in events if first < e < end} | {end}):
        # segment update i is update a + i + 1
        seg = slice(a - first, b - first)
        advance(
            W, s[seg], stream.table, labels, alpha, scaled, acc, *window, bad, a + 1, iters,
            None if xi is None else xi[seg], sigma, every,
        )
        if bad.max() >= 0:
            r = int(np.argmax(bad >= 0))
            raise _Diverged(r, int(bad[r]))
        if b in events:
            yield b
        a = b


# ---------------------------------------------------------------------------
# The engine: one skeleton, one plan per algorithm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Plan:
    """One algorithm's schedule over the stream, as :func:`_engine` runs it.

    A run is ``events`` events -- updates, rounds or buffers -- of
    ``per_event`` stream samples each.  ``draw(stream, j, n, reads)``
    returns the states -- numbers of rows of ``stream.table`` -- and unit
    noise that events j+1 .. j+n update on, in update order ``(updates,
    R[, K])``, and, when ``reads`` is set, the 1-based numbers of the
    samples run 0 reads (else None).  Each event applies ``updates``
    updates of size ``step`` to K instances per run; ``parallel`` keeps the
    instance axis in the outputs and updates in parallel SGD's order.  Row
    e of the iterates is the weight after event e, row 0 the start: the
    estimate averages ``window = (first row, count)``, and a runner returns
    the rows from ``first_row`` on.  ``drawn`` counts the elements per
    event and run that ``draw`` builds beside the stream's blocks.
    """

    events: int
    per_event: int
    window: tuple[int, int]
    step: float
    draw: Callable
    K: int = 1
    updates: int = 1
    parallel: bool = False
    first_row: int = 0
    drawn: int = 0


def _sgd_plan(problem: Problem, T: int, config: SgdConfig, seeds) -> _Plan:
    """Update t reads sample t; the window is w_{floor(T(1-f))+1} .. w_T."""
    if T < 2:
        raise ValueError(f"T must be at least 2, got {T}")

    def draw(stream, j, n, reads):
        return stream.states(n), stream.noise(n), np.arange(j + 1, j + n + 1) if reads else None

    return _Plan(T, 1, tail_window(T, config.tail_fraction), config.step_size, draw)


def _dd_plan(problem: Problem, T: int, config: DataDropConfig, seeds) -> _Plan:
    """Update s reads sample sK; the window, one row past plain SGD's,
    ends on the final iterate."""
    K = resolve_drop_interval(config, problem, T)
    if K > T:
        raise ValueError(f"drop interval K={K} exceeds the horizon T={T}")
    n_upd = T // K
    start, count = tail_window(n_upd, config.base.tail_fraction)

    def draw(stream, j, n, reads):
        read = K * np.arange(j + 1, j + n + 1) if reads else None
        return stream.states(n * K)[K - 1 :: K], stream.noise(n), read

    return _Plan(n_upd, K, (start + 1, count), config.base.step_size, draw)


def _rounds(stream: _Stream, j: int, nr: int, K: int, reads: bool = False):
    """Rounds j+1 .. j+nr of K samples: states (nr, R, K), noise (nr, R, K),
    and, if ``reads``, the sample numbers (nr, K).

    Stream order (nr*K, R) becomes round order (nr, R, K) as views.
    """
    s = stream.states(nr * K).reshape(nr, K, -1).swapaxes(1, 2)
    xi = stream.noise(nr * K)
    if xi is not None:
        xi = xi.reshape(nr, K, -1).swapaxes(1, 2)
    return s, xi, np.arange(j * K + 1, (j + nr) * K + 1).reshape(nr, K) if reads else None


def _parallel_plan(problem: Problem, T: int, config: ParallelConfig, seeds) -> _Plan:
    """Round t hands sample (t-1)K+i to instance i over T truncated to a
    multiple of 2K; the window averages all instances over rounds
    floor(n(1-f))+1 .. n."""
    K = config.num_instances
    n_rounds = 2 * (T // (2 * K))
    if n_rounds == 0:
        raise ValueError(f"num_instances K={K} exceeds T/2 (T={T})")
    window = tail_window(n_rounds, config.base.tail_fraction)
    draw = functools.partial(_rounds, K=K)
    return _Plan(n_rounds, K, window, config.base.step_size, draw, K=K, parallel=True)


def _replay_plan(problem: Problem, T: int, config: ReplayConfig, seeds) -> _Plan:
    """Buffer j+1 replays B picks from its last B samples; the window
    averages the after-buffer iterates of the last ceil(f * n_buf) buffers."""
    B, u, S = config.buffer_size, config.drop_prefix, config.span
    if S > T:
        raise ValueError(f"buffer span S={S} exceeds the horizon T={T}")
    n_buf = T // S
    count = math.ceil(config.tail_buffer_fraction * n_buf)
    algo_rngs = [_run_generators(s, (2,))[0] for s in seeds]
    rr = np.arange(len(seeds))[:, None]
    noisy = isinstance(problem.noise, IndependentGaussian)

    def draw(stream, j, nb, reads):
        states = stream.states(nb * S)
        xi = stream.noise(nb * B)  # one variate per retained sample
        # step s of run r in buffer b replays sample at[r, b, s] of that
        # buffer's retained pool
        at = np.empty((len(rr), nb, B), dtype=np.int64)
        for r, rng in enumerate(algo_rngs):
            at[r] = rng.integers(0, B, size=(nb, B))
        # per run, (R, updates), as the update loop takes one run at a time;
        # handed back in update order as transposed views
        flat = at.reshape(len(rr), -1)
        buf = np.arange(nb)[:, None]
        at += buf * B  # in place: the pick's position in the block's retained samples
        if xi is not None:
            xi = xi.T[rr, flat].T
        at += buf * (S - B) + u  # and in the block's samples
        return states.T[rr, flat].T, xi, j * S + 1 + flat[0] if reads else None

    # per buffer draw builds B positions, B gathered states and their noise
    drawn = B * (2 + noisy)
    return _Plan(n_buf, S, (n_buf - count + 1, count), config.step_size, draw, updates=B, first_row=1, drawn=drawn)


_PLANS = {
    SgdConfig: _sgd_plan,
    DataDropConfig: _dd_plan,
    ParallelConfig: _parallel_plan,
    ReplayConfig: _replay_plan,
}


def _engine(
    problem: Problem,
    T: int,
    config,
    seeds,
    *,
    w_init=None,
    keep_iterates: bool = False,
    checkpoints=None,
    record_reads: bool = False,
):
    """Run the plan of ``config``'s algorithm for R = len(seeds) runs in
    lockstep, in sample blocks sized for the R runs to fit ``_TILE_ELEMS``
    beside their weights and tail sums, and at least one event long."""
    plan = _PLANS[type(config)](problem, T, config, seeds)
    R, B, per_event = len(seeds), plan.updates, plan.per_event
    stream = _Stream(problem, *_run_streams(seeds, (0, 1)))
    isum = _instance_sum(problem.dim) if plan.parallel else None

    def point(w):  # each run's iterate: its instances' mean, or its one instance
        return isum(w) / plan.K if plan.parallel else w[..., 0, :]

    W = _initial_weights(problem, w_init, R, plan.K)
    lo, count = plan.window
    hi = lo + count
    acc = np.zeros(W.shape)  # fresh zero pages, with no pass to fill them
    if lo == 0:
        acc += W  # a full-length window opens on w_0
    iters = None
    if keep_iterates:
        iters = np.empty((plan.events + 1, *W.shape))
        iters[0] = W
    ck = _Checkpoints(checkpoints, T, lambda n: n // per_event, plan.events, R)
    if 0 in ck.events:  # parallel SGD's instance mean is a pass over W: only where it is recorded
        ck.record(0, problem, point(W))

    block = _block_sizes(R, stream.per_sample * per_event + plan.drawn, held=W.size + acc.size)
    stops = {e * B for e in ck.events}  # event e ends with update e * B
    reads = []
    j = 0
    try:
        while j < plan.events:
            n = min(block, plan.events - j)
            s, xi, read = plan.draw(stream, j, n, reads=record_reads)
            if not plan.parallel:  # one instance per run
                s = s[:, :, None]
                xi = None if xi is None else xi[..., None]
            if record_reads:
                reads.append(read)
            # the update loop sums and stores the rows of the events it ends
            for upd in _advance(
                W, s, xi, stream, plan.step, first=j * B, acc=acc, window=(lo * B, hi * B), events=stops,
                iters=iters, scaled=plan.parallel, every=B,
            ):
                ck.record(upd // B, problem, point(W))
            del s, xi  # replay's gathered samples, freed before the next block is drawn
            j += n
    except _Diverged as exc:
        raise _divergence(seeds[exc.run], -(-exc.update // B) * per_event) from None

    if iters is not None:
        iters = iters[plan.first_row :]
        if not plan.parallel:
            iters = iters[..., 0, :]
    return {
        "estimates": (isum(acc) if plan.parallel else acc[:, 0]) / (count * plan.K),
        "final": point(W),
        "iterates": iters,
        "window": (lo - plan.first_row, count),
        "checkpoints": ck,
        "discarded": T - plan.events * per_event,
        "reads": np.concatenate(reads) if record_reads else None,
    }


def _trace_engine(problem: Problem, T: int, eta: float, seeds, *, w_init=None):
    """Noiseless SGD recording alpha_t, ||X_t||^2 and gamma_t per run.

    After the block in which a run's alpha or gamma first turns non-finite,
    FloatingPointError is raised for the first such run in seed order, with
    the samples it had read then.  It names gamma's overflow where the
    iterate was still finite, else a non-finite iterate.
    """
    R = len(seeds)
    d = problem.dim
    W = np.empty((R, d))
    W[:] = _starts(d, w_init, R)
    cursor = make_cursor(problem.chain, *_run_streams(seeds, (0,)))
    w_star = problem.w_star

    alphas = np.empty((T, R))
    xsq = np.empty((T, R))
    gammas = np.empty((T + 1, R))
    gammas[0] = np.linalg.norm(W - w_star, axis=-1)

    block = _block_sizes(R, d)  # a block keeps each sample's d coordinates
    t = 0
    # a diverging run overflows silently, as in _descend: bad reports it
    with np.errstate(over="ignore", invalid="ignore"):
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
            # bad[i, r]: run r is non-finite after t + i samples
            bad = ~np.isfinite(gammas[t : t + n + 1])
            bad[1:] |= ~np.isfinite(alphas[t : t + n])
            failed = np.flatnonzero(bad.any(axis=0))
            t += n
            if failed.size:
                r = failed[0]
                s = t - n + int(bad[:, r].argmax())
                # the iterate after s samples is finite where the next alpha
                # is (a non-finite w - w* makes it so), or W at the block's end
                finite = np.isfinite(W[r] if s == t else alphas[s, r]).all()
                raise _divergence(seeds[r], s, "gamma = ||w - w*|| overflowed" if finite else "non-finite iterate")
    return {"alphas": alphas, "gammas": gammas, "x_sq_norms": xsq}


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


_COUPLED_DOC = """
    ``coupled=True`` adds the run's bias/variance split
    (:class:`~markovsgd.regression.CoupledTrajectory`): three plain runs on
    the one seed, so on the same chain, noise and replay picks -- the run
    itself, the run of the problem with noiseless labels from the same
    start (bias), and the run from w* (var).  A coupled run raises for the
    first of its paths to diverge, in the order full, bias, var.
    """


def _single_runner(kind: type, name: str, doc: str):
    """The public single-run function for configs of type ``kind``."""

    def run(
        problem: Problem,
        T: int,
        config,
        rng,
        *,
        w_init=None,
        coupled: bool = False,
        keep_iterates: bool = True,
        record_reads: bool = False,
    ) -> RunResult:
        if type(config) is not kind:
            raise TypeError(f"{name} takes a {kind.__name__}, got {type(config).__name__}")
        if coupled and not keep_iterates:
            raise ValueError("coupled runs need keep_iterates=True to expose the paths")
        T = check_int(T, "T")
        out = _engine(problem, T, config, [rng], w_init=w_init, keep_iterates=keep_iterates, record_reads=record_reads)
        iters = None if out["iterates"] is None else out["iterates"][:, 0]
        coupled_traj = None
        if coupled:
            # the same seed draws the same chain, noise and replay picks in each path
            bias = _engine(replace(problem, noise=Noiseless()), T, config, [rng], w_init=w_init, keep_iterates=True)
            var = _engine(problem, T, config, [rng], w_init=problem.w_star, keep_iterates=True)
            coupled_traj = CoupledTrajectory(
                iterates_full=iters,
                iterates_bias=bias["iterates"][:, 0],
                iterates_var=var["iterates"][:, 0],
                w_star=problem.w_star,
            )
        return RunResult(
            estimate=out["estimates"][0],
            iterates=iters,
            window=out["window"],
            coupled=coupled_traj,
            sample_reads=out["reads"],
            discarded_samples=out["discarded"],
        )

    run.__name__ = run.__qualname__ = name
    run.__doc__ = doc + _COUPLED_DOC
    run.__annotations__["config"] = kind.__name__
    return run


run_sgd = _single_runner(
    SgdConfig,
    "run_sgd",
    """Tail-averaged SGD over T stationary-start stream samples.

    The estimate averages iterates ``w_{floor(T(1-f))+1} .. w_T`` (the update
    driven by the last sample is computed but, per the algorithm's displayed
    window, never averaged).  ``rng`` is an integer seed or SeedSequence.
    """,
)

run_sgd_dd = _single_runner(
    DataDropConfig,
    "run_sgd_dd",
    """SGD with data drop: updates only on samples K, 2K, ..., floor(T/K) K.

    With n = floor(T/K) updates the estimate averages iterates
    ``w_{floor(n(1-f))+2} .. w_{n+1}`` -- one past the plain-SGD window, per
    the algorithm's displayed bounds, so the final iterate is included.
    """,
)

run_parallel_sgd = _single_runner(
    ParallelConfig,
    "run_parallel_sgd",
    """K interleaved SGD instances; instance i updates on sample (t-1)K+i.

    T is truncated down to a multiple of 2K (the discarded count is
    reported).  The estimate averages every instance's iterates over rounds
    ``floor(n(1-f))+1 .. n`` where n = T/K.  Returned iterates have shape
    (rounds+1, K, d).
    """,
)

run_sgd_er = _single_runner(
    ReplayConfig,
    "run_sgd_er",
    """SGD with experience replay, on any chain.

    The stream is cut into floor(T/S) buffers of S = B + u samples; within
    buffer j the first u samples are dropped and B update samples are drawn
    uniformly with replacement from the retained pool (global indices
    Sj+u+1 .. Sj+S).  Returned iterates are the after-buffer weights, and the
    estimate averages them over the last ceil(f * n_buf) buffers.
    """,
)


def _check_trace_inputs(problem: Problem, T, eta, seeds) -> int:
    """T as an int, after checking a trace's T, eta, seeds and regime."""
    T = check_int(T, "T")
    if T < 1:
        raise ValueError(f"T must be at least 1, got {T}")
    if check_float(eta, "eta") <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if len(seeds) == 0:
        raise ValueError("a trace needs at least one seed")
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
    return T


def run_lower_bound_trace(problem: Problem, T: int, eta: float, rng, *, w_init=None) -> LowerBoundTrace:
    """Noiseless SGD instrumented with alpha_t = <X_t, w_t - w*> and gamma_t.

    The proof regime expects eta of at most 0.05 and epsilon^2 > 0.5; outside
    it a warning is emitted and the trace still runs; a diverging trace
    raises FloatingPointError.
    """
    T = _check_trace_inputs(problem, T, eta, [rng])
    out = _trace_engine(problem, T, eta, [rng], w_init=w_init)
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
    workers: int | None = None,
) -> BatchResult:
    """Advance one run per seed in lockstep and return per-run summaries.

    ``config`` picks the algorithm by type (SgdConfig, DataDropConfig,
    ParallelConfig, ReplayConfig).  Aggregation is deterministic: results are
    ordered by the position of each seed in ``seeds``.

    The seeds -- with any per-run ``(R, d)`` rows of ``w_init`` -- are cut
    into contiguous tiles: one per worker, or more where that many tiles'
    weights and tail sums (twice runs x instances x dim doubles, ``2 * R *
    K * d`` in all for parallel SGD) would not each fit half the memory
    budget ``_TILE_ELEMS``.  At most ``workers`` threads of this process
    -- by default one per CPU the process may run on -- take the tiles in
    seed order and the results join in seed order.  Each tile sizes its
    sample blocks for its own runs to fit the same budget beside their
    weights and tail sums, at least one event (a round, a buffer) long, so
    each thread holds at most one tile's weights, tail sums and sample
    block, within the budget together.  If a tile raises (a diverging run,
    say), the tiles after it that have not started are dropped and the
    error of the first failed tile in seed order is raised.  Every run's
    numbers are the same for
    any ``workers`` and any tiling, and no thread outlives the call.
    """
    if type(config) not in _PLANS:
        raise TypeError(f"unsupported config type {type(config).__name__}")
    if workers is not None and check_int(workers, "workers") < 1:
        raise ValueError(f"workers must be a positive integer or None, got {workers!r}")
    T = check_int(T, "T")
    seeds = list(seeds)
    R = len(seeds)
    if R == 0:
        raise ValueError("run_many needs at least one seed")
    per_run = _starts(problem.dim, w_init, R).ndim == 2
    threads = _usable_cpus() if workers is None else int(workers)
    K = config.num_instances if isinstance(config, ParallelConfig) else 1
    per_tile = max(1, _TILE_ELEMS // (4 * K * problem.dim))  # runs whose weights and tail sums fit half the budget
    edges = _chunk_edges(R, max(threads, -(-R // per_tile)))
    tiles = len(edges) - 1
    busy = min(threads, tiles)
    # a flag per tile: a tile taken from the queue before one that fails
    # may not have reached its check yet, and must still run, as its error
    # is the one to raise
    raised = [False] * tiles

    def tile(i: int) -> BatchResult | None:
        if any(raised[:i]):  # a tile after one that raised is not started
            return None
        lo, hi = edges[i], edges[i + 1]
        init = np.asarray(w_init)[lo:hi] if per_run else w_init
        try:
            return _run_batch(problem, T, config, seeds[lo:hi], init, checkpoints)
        except Exception:
            raised[i] = True
            raise

    if busy == 1:  # tile after tile on this thread, up to the first that raises
        parts = list(map(tile, range(tiles)))
    else:
        # the heavy steps (random fills, the compiled loops, large gathers)
        # release the GIL, so the tiles' threads run on separate cores; the
        # join raises the first failed tile's error in seed order, as every
        # tile before it has run
        with ThreadPoolExecutor(max_workers=busy) as pool:
            parts = list(pool.map(tile, range(tiles)))
    if tiles == 1:
        return parts[0]
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


def _chunk_edges(R: int, n: int) -> list[int]:
    """Edges ``R * i // m`` of ``m = min(n, R)`` contiguous chunks of R runs."""
    m = min(n, R)
    return [R * i // m for i in range(m + 1)]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def kernel_info() -> dict:
    """Which update loop, dots and stream seeding run in this process.

    ``{"path": "c" | "numpy", "cache": <compiled library or None>, "blas":
    <BLAS library and ddot symbol or None>, "streams": "c" | "numpy",
    "fused_dims": [...], "lanes": 4 | 1}``.
    The path cursors' finite walk and AR filter run in C whenever ``cache``
    is set, even where the ddot check sent the update loop to numpy.
    ``streams`` says whether the runs' streams are seeded, and each block's
    variates drawn, for all runs in one compiled call each, or run by run.
    ``fused_dims`` lists the dimensions, of those the update loop has been
    checked at so far, at which it computes its dots as an inline chain of
    fused multiply-adds instead of calling ``ddot``.  ``lanes`` is 4 where
    the loop, at those dimensions, advances four chains (a chain is one
    instance of one run) per AVX2 register, with the scalar loop's bits,
    and 1 where it uses no vector lanes: a CPU without AVX2 and FMA, or the
    numpy loop.  The first call builds or loads the kernel (see
    :mod:`markovsgd._kernel`).
    """
    from . import _kernel

    return _kernel.info()


def _run_batch(problem: Problem, T: int, config, seeds, w_init, checkpoints) -> BatchResult:
    """One tile of :func:`run_many`."""
    out = _engine(problem, T, config, seeds, w_init=w_init, keep_iterates=False, checkpoints=checkpoints)
    ck = out["checkpoints"]
    return BatchResult(
        estimates=out["estimates"],
        final_iterates=out["final"],  # parallel SGD hands back instance-averaged finals
        checkpoint_steps=ck.steps,
        checkpoint_excess=ck.excess,
        discarded_samples=out["discarded"],
    )


def run_lower_bound_traces(problem: Problem, T: int, eta: float, seeds, *, w_init=None):
    """Batched lower-bound traces: alphas (T, R), gammas (T+1, R), x_sq_norms (T, R).

    A diverging run raises FloatingPointError, as in :func:`run_many`.
    """
    seeds = list(seeds)
    T = _check_trace_inputs(problem, T, eta, seeds)
    out = _trace_engine(problem, T, eta, seeds, w_init=w_init)
    return out["alphas"], out["gammas"], out["x_sq_norms"]
