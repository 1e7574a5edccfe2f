"""Build, cache and load the compiled loops (``_kernel.c``).

The engine of :mod:`markovsgd.algorithms` advances its weights through
:func:`load`, and the path cursors of :mod:`markovsgd.chains` walk finite
chains, filter Gaussian paths and draw every run's variates through
:func:`library`; both modules import this one on first use.  The first call on a machine compiles
``_kernel.c`` with the system ``cc`` into a per-user cache
(``$XDG_CACHE_HOME/markovsgd/``, by default ``~/.cache/markovsgd/``, or a
private directory under the system temporary directory when that one is
not writable), keyed by the sha256 of the source, the flags and
``cc --version``, and loads it with :mod:`ctypes`.  Later processes load the
cached file without starting a process, and refresh its mtime; a build
removes the libraries and compiler memos of the cache that no process has
loaded for 30 days.

The update loop takes each chain through a whole segment of updates.  A
chain is one instance of one run: a run of every algorithm but parallel
SGD is one chain, and parallel SGD's K instances, which never read each
other, are K.  The loop takes chains four at a time, update i of each in
turn, so that the CPU overlaps their updates, each of which waits on the
one before; the finite walk steps four runs at a time for the same
reason.  Chains never interact, so no chain's bits change.  Where the
loop takes the fused dot (below), on a CPU with AVX2 and FMA, it puts
those four chains in the four lanes of one 256-bit register
(:attr:`Kernel.lanes`, and :func:`info`'s ``lanes``).  Each lane makes the
scalar loop's IEEE operations in their order: ``vfmadd`` rounds as
``fma()`` does, and ``vmulpd``, ``vsubpd`` and ``vaddpd`` round each lane
as the scalar operations do, so the bits are the scalar loop's.  Chains
left over from groups of four, the dimensions that call ``ddot``, and
CPUs without AVX2 take the scalar loop.
The loop reads every sample one way, as a row of a table by its row
number: a finite chain's from the chain's table of states by its state
index, a Gaussian sample from the rows of its block of the path.  It makes
every label itself, by the rule its ``labels`` argument sets: a Gaussian
sample's label is ``<x, w*>``, and a finite chain's is its state's entry
in a label table.  Either label then adds ``sigma * xi`` when the call
has noise.  So no block of labels, or of gathered vectors, is built.

The update loop calls the ``ddot`` of numpy's bundled OpenBLAS, the function
``np.vecdot`` reduces float64 rows with, so it reproduces the numpy loop bit
for bit.  Before the loop first runs at a dimension, :meth:`Kernel.usable`
checks that ``ddot`` agrees with ``np.vecdot`` there.  When there is no
compiler, no such ``ddot``, or a disagreement, :func:`load` returns None, the
engine runs the numpy loop, and one ``RuntimeWarning`` says why.  Below 16
elements OpenBLAS's x86-64 ``ddot`` is one chain of fused multiply-adds;
the loop writes that chain out inline (the fused dot), compiled for the FMA
instructions by a target attribute and run only on a CPU that has them,
and takes it at each dimension where the same check, made in one call,
finds it equal to ``np.vecdot`` too; elsewhere, or where the check fails,
it calls ``ddot`` (same bits, slower) and nothing is reported but
:func:`info`'s ``fused_dims``.  One lock covers the build or load and each
dimension's check, so threads that ask at once still get one build, one
check and at most one warning.  The sampling loops call no BLAS and need no
such check: they run whenever the library loads, and the cursors fall back
to numpy (and scipy) only when it does not.

The engine's streams are seeded in C (``msgd_seed``): one call that
releases the GIL hashes every run's entropy as numpy's ``SeedSequence``
does and writes each child's Philox4x64-10 state, with numpy's buffering,
into one buffer (:meth:`Kernel.streams`).  No ``Generator`` is built and
no lock is taken per run.  The draw (``msgd_draw``) then fills every run's
row of uniforms or normals from those streams in one call that releases
the GIL.  The draws are the library's own: numpy's algorithms behind
``Generator.random(out=)`` (the top 53 bits of a word over 2**53) and
``Generator.standard_normal(out=)`` (its 256-layer ziggurat, with numpy's
tables compiled in) written out in C, stepping each stream exactly as
numpy's Philox does.  So the numbers are meant to be numpy's, and they are
checked: when the library loads, draws from the streams are compared once,
under the same lock, with the generators
:func:`markovsgd.chains._run_generators` builds, for fixed integer and
``SeedSequence`` seeds.  If any byte differs -- a numpy release that draws
otherwise -- the engine seeds numpy generators and draws run by run through
their methods, so a run's numbers stay those of numpy's ``Generator`` on
this numpy, and one ``RuntimeWarning`` says so.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
import time
import warnings

import numpy as np

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
# -ffp-contract=off: no fused multiply-adds but the fused dot's own fma()
# calls, so each product rounds as numpy's does
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# after the source: fma() is a libm call where the compiler cannot target FMA
_LIBS = ("-lm",)
# ILP64 CBLAS ddot in numpy's OpenBLAS builds: (n, x, incx, y, incy), 64-bit ints
_DDOT_SYMBOLS = ("scipy_cblas_ddot64_", "cblas_ddot64_")
# OpenBLAS's ddot runs one fused multiply-add chain below this many elements
_FUSED_BELOW = 16
# doubles per AVX2 register: the lanes of the update loop's four-wide path
_LANES = 4
# a cached library or compiler memo untouched this long is removed after a build
_STALE_S = 30 * 24 * 3600
_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
# 64-bit words of one philox_t of _kernel.c
_PHILOX_WORDS = 13


def _bind(fn, *argtypes):
    """A library function of no result, declared with its argument types."""
    fn.argtypes, fn.restype = argtypes, None
    return fn


class _Unavailable(Exception):
    """The compiled loop cannot be used in this process; the message says why."""


class Kernel:
    """The loaded library, the BLAS ``ddot`` it calls, and the checked dimensions."""

    def __init__(self, lib, blas, ddot: int, path: str, blas_name: str):
        self._lib = lib
        self._blas = blas  # keeps the BLAS handle, and so ddot, alive
        self._ddot = ddot
        self.path = path
        self.blas_name = blas_name
        self.mismatch = False
        self._checked: set[int] = set()
        self._fused: set[int] = set()  # checked dimensions whose dots are the fused dot
        self._summed: set[int] = set()  # checked dimensions whose instance sums are numpy's
        self.own_streams = False  # whether the seeded streams draw; set by check_streams
        self._dots = _bind(lib.msgd_dots, _PTR, _I64, _I64, _PTR, _PTR, _PTR)
        self._advance = _bind(
            lib.msgd_advance,
            *(_PTR, ctypes.c_int32, _PTR, _PTR, _PTR, _I64, _I64, _I64),
            *(_PTR, _PTR, _I64, _I64, _I64),
            *(_PTR, _I64),
            *(_PTR, _I64, _I64, _I64, ctypes.c_double),
            *(_I64, _I64, _I64, ctypes.c_double, ctypes.c_int32, _PTR, _I64, _I64),
        )
        cpu = lib.msgd_fused()
        self._has_fma = bool(cpu & 1)
        self._has_avx2 = bool(cpu & 2)  # and FMA: the four-wide path runs here
        self._fused_dots = _bind(lib.msgd_fused_dots, _I64, _I64, _PTR, _PTR, _PTR)
        self._draw = _bind(lib.msgd_draw, ctypes.c_int32, _PTR, _I64, _I64, _PTR, _I64)
        self._seed = _bind(lib.msgd_seed, _PTR, _PTR, _PTR, _I64, _PTR, _I64, _PTR, _PTR)
        self._walk = _bind(lib.msgd_walk, _PTR, _I64, _PTR, _I64, _PTR, _I64, _I64, _PTR, _I64, _I64)
        self._isum = _bind(lib.msgd_isum, _PTR, _I64, _I64, _I64, _PTR)
        self._ar = _bind(lib.msgd_ar, _PTR, _PTR, _I64, _I64, _I64, _I64, ctypes.c_double, ctypes.c_double, _PTR)

    def dots(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The loop's ``ddot`` of each pair of rows of two contiguous ``(n, d)`` float64 arrays, in one call."""
        _check_pairs("dots", a, b)
        out = np.empty(len(a))
        self._dots(self._ddot, len(a), a.shape[1], a.ctypes.data, b.ctypes.data, out.ctypes.data)
        return out

    def usable(self, d: int) -> bool:
        """Whether the loop reproduces numpy at dimension d; probes d once.

        The probe compares :meth:`dots` with ``np.vecdot`` bit for bit, in
        one call, on fixed vectors of widely spread scales, signed zeros
        among them.  A mismatch at any dimension retires the kernel for the
        process.  Below 16 elements, where this CPU has FMA instructions,
        the fused dot (see ``_kernel.c``) is compared too, in one call;
        where it agrees, the loop takes it at d instead of calling
        ``ddot``.  The instance sum is compared with numpy's
        ``sum(axis=-2)`` too, and where it agrees the engine takes it at d
        (:meth:`sums`); a disagreement there keeps numpy's sum and warns
        of nothing.  :func:`load` calls this under its lock, so each
        dimension is probed once and a mismatch warns once.
        """
        if d not in self._checked and not self.mismatch:
            a, b = _probe_vectors(d)
            want = np.vecdot(a, b)
            if self.dots(a, b).tobytes() == want.tobytes():
                self._checked.add(d)
                if self._has_fma and d < _FUSED_BELOW and self.fused_dots(a, b).tobytes() == want.tobytes():
                    self._fused.add(d)
                # at d = 1 numpy's sum runs along the instances, pairwise
                probes = _probe_instances(a, b) if d > 1 else ()
                if probes and all(self.instance_sum(v).tobytes() == v.sum(axis=-2).tobytes() for v in probes):
                    self._summed.add(d)
            else:
                self.mismatch = True
                warnings.warn(
                    f"markovsgd: {self.blas_name} disagrees with np.vecdot at dimension {d}; "
                    "the engine runs the numpy update loop",
                    RuntimeWarning,
                    stacklevel=3,
                )
        return not self.mismatch

    def fused_dots(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The fused dot of each pair of rows of two contiguous ``(n, d)``
        float64 arrays, d < 16, in one call; only where this CPU has FMA."""
        if not self._has_fma:
            raise RuntimeError("fused_dots: this CPU has no FMA instructions")
        _check_pairs("fused_dots", a, b)
        if not a.shape[1] < _FUSED_BELOW:
            raise ValueError(f"fused_dots takes rows of fewer than {_FUSED_BELOW} elements")
        out = np.empty(len(a))
        self._fused_dots(len(a), a.shape[1], a.ctypes.data, b.ctypes.data, out.ctypes.data)
        return out

    def instance_sum(self, a: np.ndarray) -> np.ndarray:
        """The sum over the instance axis of a contiguous float64 ``(..., K,
        d)``, K, d >= 1: the instances added in their order from 0.0, in one
        call (``msgd_isum``).  That is numpy's ``sum(axis=-2)`` wherever
        :meth:`sums` says so."""
        if a.ndim < 2 or 0 in a.shape[-2:] or not _is_f64(a, contiguous=True):
            raise ValueError("instance_sum takes a contiguous float64 (..., K, d) array with K, d >= 1")
        *lead, K, d = a.shape
        out = np.empty((*lead, d))
        self._isum(a.ctypes.data, out.size // d, K, d, out.ctypes.data)
        return out

    def sums(self, d: int) -> bool:
        """Whether :meth:`instance_sum` gave numpy's ``sum(axis=-2)`` bits
        at dimension d when :meth:`usable` probed it (never at d = 1, where
        numpy sums pairwise)."""
        return d in self._summed and not self.mismatch

    @property
    def lanes(self) -> int:
        """Lanes per register the update loop takes at its fused dimensions:
        4 on a CPU with AVX2 and FMA, else 1."""
        return _LANES if self._has_fma and self._has_avx2 else 1

    def advance(
        self, W, X, table, labels, alpha: float, scaled: bool, acc, lo: int, hi: int, bad, first: int,
        iters=None, xi=None, sigma: float = 0.0, every: int = 1,
    ) -> None:
        """Apply ``len(X)`` updates to W in place (see ``msgd_advance``).

        ``W`` and ``acc`` are contiguous ``(R, K, d)``.  ``X`` is an int64
        ``(n, R, K)`` block, possibly strided, of the numbers of the rows of
        ``table``, a contiguous ``(rows, d)``, that are the samples.
        ``labels`` sets the label rule: w*, a contiguous ``(d,)``, labels x
        with ``np.vecdot(x, w*)``, and a contiguous ``(1, rows)`` table
        gives the label per row.  When ``xi`` -- a float64 ``(n, R, K)``,
        possibly strided, or None -- is given, the label adds ``sigma *
        xi``.  After each update u that ends an event -- a multiple of
        ``every``, the updates per event -- W is added into ``acc`` if ``lo
        <= u < hi`` and stored in row ``u // every`` of ``iters``, a
        contiguous ``(rows, R, K, d)``; either may be None.
        An update (this call's i-th is number ``first + i``) that leaves an
        instance non-finite stops that instance: it is not updated again,
        and its rows of ``acc`` and ``iters`` are not written from that
        update on, while the run's other instances go on.  ``bad``, a
        contiguous int64 ``(R,)`` of -1, receives for each run the least
        such update over its instances, and stays -1 for a finite run.
        :func:`markovsgd.algorithms._descend` is the numpy loop of this
        contract.
        """
        R, K, d = W.shape
        n = len(X)
        if not (
            _is_f64(W, contiguous=True)
            and (acc is None or (acc.shape == W.shape and _is_f64(acc, contiguous=True)))
            and (iters is None or (iters.shape[1:] == W.shape and _is_f64(iters, contiguous=True)))
            and X.shape == (n, R, K)
            and X.dtype == np.int64
            and not any(s % 8 for s in X.strides)
            and table.ndim == 2
            and table.shape[1] == d
            and _is_f64(table, contiguous=True)
            and labels.shape in ((d,), (1, len(table)))
            and _is_f64(labels, contiguous=True)
            and (xi is None or (xi.shape == (n, R, K) and _is_f64(xi)))
            and bad.shape == (R,)
            and bad.dtype == np.int64
            and bad.flags.c_contiguous
        ):
            raise ValueError("advance: arrays of mismatched shape, dtype or layout")
        if n == 0:
            return
        if first < 0 or every < 1 or (iters is not None and (first + n - 1) // every >= len(iters)):
            raise ValueError(f"advance: updates {first} .. {first + n - 1}, {every} an event, have no rows")
        if X.view(np.uint64).max() >= len(table):  # negatives read as huge
            raise ValueError(f"advance: row numbers must lie in 0..{len(table) - 1}")
        ym = len(table) if labels.ndim == 2 else 0  # labels in the table; 0: labels is w*
        samples = (table.ctypes.data, X.ctypes.data, *(s // 8 for s in X.strides), labels.ctypes.data, ym)
        noise = (None, 0, 0, 0) if xi is None else (xi.ctypes.data, *(s // 8 for s in xi.strides))
        sums = (None if a is None else a.ctypes.data for a in (acc, iters))
        fused = self.lanes if d in self._fused else 0  # 0: ddot; 1: the fused dot; 4: in four lanes
        self._advance(
            self._ddot, fused, W.ctypes.data, *sums, R, K, d, *samples, *noise, sigma, n, lo, hi, alpha,
            bool(scaled), bad.ctypes.data, first, every,
        )

    def check_streams(self) -> None:
        """Check the seeded streams and their draws once; warn if unusable.

        The check draws from fixed integer and ``SeedSequence`` seeds --
        large and spawned ones, pool sizes 4 and 8 -- through
        :meth:`streams` and through the generators of
        :func:`markovsgd.chains._run_generators`, over successive uniform
        and normal fills, and needs every byte equal.  :func:`library`
        calls this under its lock, when the library loads.
        """
        self.own_streams = True
        try:
            if not self._streams_agree():
                raise _Unavailable("they disagree with numpy's Generator on Philox")
        except _Unavailable as exc:
            self.own_streams = False
            warnings.warn(
                f"markovsgd: seeded streams unusable ({exc}); the engine seeds numpy "
                "generators run by run",
                RuntimeWarning,
                stacklevel=5,
            )

    def _streams_agree(self) -> bool:
        from .chains import _run_generators, _seed_parts

        children = (3,)
        # integer seeds below 2**64 take a shorter way to their words
        for seeds in ([0, 2**32 + 1], [2**130 + 3, np.random.SeedSequence([5, 2**40], spawn_key=(2,), pool_size=8)]):
            got = self.streams([_seed_parts(s) for s in seeds], children)
            gens = [_run_generators(s, children) for s in seeds]
            for n, normal in ((3, False), (6, True), (1, False)):
                for fill, rngs in zip(got, zip(*gens)):
                    out, want = np.empty((len(seeds), n)), np.empty((len(seeds), n))
                    fill.fill(out, normal)
                    for rng, row in zip(rngs, want):
                        (rng.standard_normal if normal else rng.random)(out=row)
                    if out.tobytes() != want.tobytes():
                        return False
        return True

    def streams(self, parts, children) -> list[Fill] | None:
        """Children ``children`` of each run, seeded in one call: one
        :class:`Fill` per child, drawing row r from run r's stream; None
        where :meth:`check_streams` found the streams unusable.

        ``parts`` holds each run's ``(entropy, spawn key, pool size)``
        (see :func:`markovsgd.chains._seed_parts`); child c of a run is the
        stream of ``Generator(Philox(SeedSequence(entropy, spawn_key=(*key,
        c), pool_size=pool)))``.  The streams are this call's own, so the
        fills take no lock: each belongs to one engine.
        """
        if not self.own_streams:
            return None
        entropy, ends = _entropy(parts)
        pools = np.array([p[2] for p in parts], dtype=np.int64)
        kids = np.array(children, dtype=np.int64)
        R, C = len(parts), len(kids)
        states = np.empty((C, R, _PHILOX_WORDS), dtype=np.uint64)
        if R:
            scratch = np.empty(int(pools.max()), dtype=np.uint32)
            self._seed(
                entropy.ctypes.data, ends.ctypes.data, pools.ctypes.data, R, kids.ctypes.data, C,
                scratch.ctypes.data, states.ctypes.data,
            )
        return [Fill(self, states[c]) for c in range(C)]

    def walk(self, lead, U, state, out) -> None:
        """Walk ``U.shape[0]`` runs of a finite chain (see ``msgd_walk``).

        ``lead`` is the contiguous leading cumulative rows of an S-state
        chain, S-1 thresholds each: the S transition rows and any more rows
        a walk may start in, such as the finite cursor's stationary row.
        Run r starts in ``state[r]``, below the row count, and steps on
        ``U[r]``; ``out[i, r]`` is its state after step i.  ``U`` ``(R, n)``
        may be a view whose rows are strided, and ``out`` ``(n, R)`` int64
        a view of any strides.  ``out[i, r]`` may be the memory of
        ``U[r, i]``: the finite cursor draws into an ``(R, n)`` block and
        passes the block, as float64, for ``U`` and its transposed view, as
        int64, for ``out``, so each run's uniforms turn into its states in
        place.
        """
        rows, S = len(lead), lead.shape[-1] + 1
        R, n = U.shape
        if n == 0 or R == 0:  # (numpy may give an empty array zero strides)
            return
        if not (
            lead.ndim == 2
            and rows >= S
            and _is_f64(lead, contiguous=True)
            and _is_f64(U)
            and U.strides[1] == 8
            and state.shape == (R,)
            and state.dtype == np.int64
            and state.flags.c_contiguous
            and out.shape == (n, R)
            and out.dtype == np.int64
            and not any(s % 8 for s in out.strides)
        ):
            raise ValueError("walk: arrays of mismatched shape, dtype or layout")
        if state.min() < 0 or state.max() >= rows:
            raise ValueError(f"walk: start states must lie in 0..{rows - 1}")
        self._walk(
            lead.ctypes.data,
            S,
            U.ctypes.data,
            U.strides[0] // 8,
            state.ctypes.data,
            R,
            n,
            out.ctypes.data,
            out.strides[0] // 8,
            out.strides[1] // 8,
        )

    def ar(self, G, X, b: float, c: float, x0) -> None:
        """``X[r, i] = b * G[r, i] + c * X[r, i-1]``, from ``X[r, -1] = x0[r]``
        (see ``msgd_ar``).

        ``G`` and ``X`` are ``(R, n, d)`` with the same strides, each step's
        ``(d,)`` row contiguous and the ``(n, d)`` block of each run too
        (the runs may be strided); X may be G.  ``x0`` is a contiguous
        ``(R, d)``.
        """
        R, n, d = G.shape
        if G.size == 0:
            return
        if not (
            X.shape == G.shape
            and X.strides == G.strides
            and _is_f64(G)
            and _is_f64(X)
            and G.strides[1:] == (8 * d, 8)
            and x0.shape == (R, d)
            and _is_f64(x0, contiguous=True)
        ):
            raise ValueError("ar: arrays of mismatched shape, dtype or layout")
        self._ar(G.ctypes.data, X.ctypes.data, R, n, d, G.strides[0] // 8, b, c, x0.ctypes.data)


class Fill:
    """Draws for a fixed list of seeded streams: one row of an output per stream.

    ``fill(out, normal)`` fills row r of ``out`` -- a float64 ``(R, ...)``
    whose rows are each contiguous -- with what ``standard_normal(out=out[r])``
    (or, without ``normal``, ``random(out=out[r])``) of a ``Generator`` on
    stream r would, in one call of the library's own draw (``msgd_draw``)
    that releases the GIL, and returns ``out``.  ``states`` is the streams'
    contiguous ``(R, 13)`` uint64 ``philox_t`` block, which each fill steps
    on in place.
    """

    def __init__(self, kern: Kernel, states: np.ndarray):
        self.num_runs = len(states)
        self.states = states
        self._call = kern._draw

    def fill(self, out: np.ndarray, normal: bool) -> np.ndarray:
        R = self.num_runs
        if out.shape[:1] != (R,) or not _is_f64(out):
            raise ValueError("fill: arrays of mismatched shape, dtype or layout")
        if R == 0 or out.size == 0:
            return out
        row = out[0]
        # contiguous rows that do not overlap
        if not (row.flags.c_contiguous and (R == 1 or out.strides[0] >= row.nbytes)):
            raise ValueError("fill: arrays of mismatched shape, dtype or layout")
        self._call(bool(normal), self.states.ctypes.data, R, row.size, out.ctypes.data, out.strides[0] // 8)
        return out


def _entropy(parts) -> tuple[np.ndarray, np.ndarray]:
    """The words each run's child ``SeedSequence(entropy, spawn_key=(*key,
    c), pool_size=pool)`` mixes, but the last (the child's number c), as one
    uint32 array, and where each run's words end in it.

    A run's words are its entropy's, zero-padded to the pool size (numpy
    pads whenever the spawn key is not empty), then its key's.  The runs
    seeded by an integer below 2**64 alone -- two words, and two of
    padding -- are written all at once; only the others' words are built
    one run at a time.
    """
    low = [e if key == () and pool == 4 and type(e) is int and 0 <= e < 1 << 64 else None for e, key, pool in parts]
    others = {
        r: np.frombuffer(_words(e, pool) + b"".join(_words(k, 1) for k in key), dtype="<u4")
        for r, (e, key, pool) in enumerate(parts)
        if low[r] is None
    }
    sizes = np.full(len(parts), 4, dtype=np.int64)
    for r, w in others.items():
        sizes[r] = len(w)
    ends = np.cumsum(sizes)
    at = ends - sizes
    if others:
        at = at[[v is not None for v in low]]
        low = [v for v in low if v is not None]
    words = np.zeros(int(ends[-1]) if len(parts) else 0, dtype=np.uint32)
    low = np.array(low, dtype="<u8").view("<u4").reshape(-1, 2)
    words[at], words[at + 1] = low[:, 0], low[:, 1]
    for r, w in others.items():
        words[ends[r] - len(w) : ends[r]] = w
    return words, ends


def _words(x, pad: int) -> bytes:
    """``x`` as little-endian uint32 words, as numpy's SeedSequence reads
    it, zero-padded to ``pad`` words.

    Nonnegative ints are split here; anything else goes through numpy's own
    conversion, which also raises numpy's errors.
    """
    if isinstance(x, int) and x >= 0:
        return x.to_bytes(4 * max(pad, -(-x.bit_length() // 32)), "little")
    from numpy.random import bit_generator

    try:
        coerce = bit_generator._coerce_to_uint32_array
    except AttributeError as exc:
        raise _Unavailable("numpy.random has no SeedSequence entropy conversion") from exc
    w = coerce(x).astype("<u4")
    return w.tobytes() + bytes(4 * max(0, pad - len(w)))


def _probe_vectors(d: int) -> tuple[np.ndarray, np.ndarray]:
    """64 fixed pairs of contiguous d-vectors whose scales spread over 2**-30
    .. 2**30, with a -0.0 dot (numpy reads it as +0.0) and signed zeros."""
    # only the ufuncs the engine uses, so a worker pages in no new code
    i = np.arange(64.0 * d).reshape(64, d)
    scale = np.array([[2.0 ** (7 * k % 61 - 30)] for k in range(64)])
    a = (0.618 * i - 19.7 * d) * scale
    b = (7.3 - 1.414 * i) * scale[::-1]
    a[0], b[0] = -0.0, 1.0
    a[1, ::2], b[1, 1::2] = -0.0, -0.0  # every product a signed zero
    return a, b


def _probe_instances(a: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """The probe pairs' 128 rows, led by four of -0.0 (numpy's sum reads
    instances that are all -0.0 as +0.0), as runs of K instances, K from 1
    to all of them."""
    rows = np.concatenate([np.full((4, a.shape[1]), -0.0), a, b])[:128]
    return [rows.reshape(128 // K, K, -1) for K in (1, 2, 4, 8, 16, 128)]


def _check_pairs(name: str, a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape or a.ndim != 2 or not (_is_f64(a, contiguous=True) and _is_f64(b, contiguous=True)):
        raise ValueError(f"{name} takes two contiguous float64 arrays of one (n, d) shape")


def _is_f64(a: np.ndarray, contiguous: bool = False) -> bool:
    if a.dtype != np.float64 or any(s % 8 for s in a.strides):
        return False
    return a.flags.c_contiguous or not contiguous


# Held while the kernel is built or loaded and while a dimension is probed:
# run_many's threads may ask for it at once, and each step must happen once.
_LOCK = threading.Lock()


@functools.cache
def _library() -> Kernel | None:
    try:
        kern = _open()
    except (_Unavailable, OSError) as exc:  # OSError: the cache could not be written
        warnings.warn(
            f"markovsgd: compiled loops unavailable ({exc}); the path samplers and "
            "the engine's update loop run in numpy",
            RuntimeWarning,
            stacklevel=4,
        )
        return None
    kern.check_streams()
    return kern


def library() -> Kernel | None:
    """This process's kernel, built or loaded on the first call; None if unusable.

    A failure is reported once, as a ``RuntimeWarning``.  Safe to call from
    several threads: one of them builds or loads, the others wait for it.
    """
    with _LOCK:
        return _library()


def load(d: int) -> Kernel | None:
    """The kernel, when it may advance weights of dimension d; None for numpy."""
    with _LOCK:
        kern = _library()
        return kern if kern is not None and kern.usable(d) else None


def info() -> dict:
    """Which update loop, dots, lanes and stream seeding run here, with the library and BLAS used."""
    kern = library()
    if kern is None:
        return {"path": "numpy", "cache": None, "blas": None, "streams": "numpy", "fused_dims": [], "lanes": 1}
    return {
        "path": "numpy" if kern.mismatch else "c",
        "cache": kern.path,
        "blas": kern.blas_name,
        "streams": "c" if kern.own_streams else "numpy",
        "fused_dims": [] if kern.mismatch else sorted(kern._fused),
        "lanes": 1 if kern.mismatch else kern.lanes,
    }


def _open() -> Kernel:
    cc = shutil.which("cc")
    if cc is None:
        raise _Unavailable("no C compiler 'cc' on PATH")
    blas, ddot, blas_name = _find_ddot()
    cache = _cache_dir()
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
    except OSError as exc:
        raise _Unavailable(f"cannot read the kernel source: {exc}") from exc
    version, memo = _compiler_version(cc, cache)
    key = hashlib.sha256(b"\0".join([source, " ".join(_FLAGS + _LIBS).encode(), version])).hexdigest()
    path = os.path.join(cache, f"kernel-{key[:24]}.so")
    with contextlib.suppress(OSError):
        # in use: a concurrent build's _prune keeps it another _STALE_S.
        # Refreshed before the check, so a file pruned meanwhile is rebuilt
        os.utime(path)
    if not _intact(path):  # not built yet, damaged, or just pruned
        _build(cc, path)
        _prune(cache, keep=(path, memo))
    try:
        lib = ctypes.CDLL(path)
    except OSError as exc:
        raise _Unavailable(f"cannot load {path}: {exc}") from exc
    return Kernel(lib, blas, ddot, path, blas_name)


def _compiler_version(cc: str, cache: str) -> tuple[bytes, str]:
    """``cc --version`` and the cache file remembering it per compiler binary.

    The output is filed under the binary's path, size, mtime and inode, so
    a process with a warm cache starts no subprocess.  (Linux counts a
    child's peak memory from its parent's size at the fork, so each one
    would read as another copy of the caller in ``RUSAGE_CHILDREN``.)
    """
    real = os.path.realpath(cc)
    try:
        st = os.stat(real)
    except OSError as exc:
        raise _Unavailable(f"cannot stat {real}: {exc}") from exc
    ident = hashlib.sha256(f"{real}\0{st.st_size}\0{st.st_mtime_ns}\0{st.st_ino}".encode()).hexdigest()
    memo = os.path.join(cache, f"cc-{ident[:24]}.version")
    try:
        with open(memo, "rb") as fh:
            return fh.read(), memo
    except OSError:
        pass
    try:
        version = subprocess.run([cc, "--version"], capture_output=True, check=True, timeout=60).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        raise _Unavailable(f"'cc --version' failed: {exc}") from exc
    fd, tmp = tempfile.mkstemp(dir=cache, prefix=".version-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(version)
        os.replace(tmp, memo)  # atomic, as in _build
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return version, memo


def _intact(path: str) -> bool:
    """Whether a cached library holds every byte its ELF headers map.

    dlopen maps a library's segments without checking them against the file
    size, so loading a truncated file kills the process with SIGBUS instead
    of failing.  Only Linux (64-bit little-endian ELF) files are checked.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return False
    if not sys.platform.startswith("linux"):
        return True
    if len(data) < 64 or data[:6] != b"\x7fELF\x02\x01":
        return False
    phoff, shoff = struct.unpack_from("<QQ", data, 0x20)
    phentsize, phnum, shentsize, shnum = struct.unpack_from("<HHHH", data, 0x36)
    if phoff + phnum * phentsize > len(data) or shoff + shnum * shentsize > len(data):
        return False
    for i in range(phnum):
        offset = struct.unpack_from("<Q", data, phoff + i * phentsize + 8)[0]
        filesz = struct.unpack_from("<Q", data, phoff + i * phentsize + 32)[0]
        if offset + filesz > len(data):
            return False
    return True


def _find_ddot():
    """numpy's bundled OpenBLAS and the address of its ILP64 ``cblas_ddot``."""
    pkg = os.path.dirname(os.path.abspath(np.__file__))
    candidates = []
    for folder in (os.path.join(os.path.dirname(pkg), "numpy.libs"), os.path.join(pkg, ".dylibs")):
        if os.path.isdir(folder):
            candidates += sorted(os.path.join(folder, f) for f in os.listdir(folder) if "openblas" in f)
    for lib_path in candidates:
        try:
            blas = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for name in _DDOT_SYMBOLS:
            try:
                fn = getattr(blas, name)
            except AttributeError:
                continue
            return blas, ctypes.cast(fn, ctypes.c_void_p).value, f"{lib_path}:{name}"
    raise _Unavailable("no ILP64 cblas ddot in numpy's bundled OpenBLAS")


def _cache_dir() -> str:
    """A directory only this user can write to, created if need be."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    uid = os.getuid()
    for path in (os.path.join(base, "markovsgd"), os.path.join(tempfile.gettempdir(), f"markovsgd-{uid}")):
        try:
            os.makedirs(path, mode=0o700, exist_ok=True)
            st = os.stat(path)
        except OSError:
            continue
        # a library loaded from here runs as this user: nobody else may write here
        if st.st_uid == uid and not st.st_mode & 0o022 and os.access(path, os.W_OK | os.X_OK):
            return path
    raise _Unavailable("no private writable cache directory")


def _build(cc: str, path: str) -> None:
    """Compile into a temporary file and rename it over ``path``.

    The rename is atomic, so processes building at once each put a whole
    library in place and a reader never sees a partial one.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        try:
            proc = subprocess.run(
                [cc, *_FLAGS, "-o", tmp, _SOURCE, *_LIBS], capture_output=True, text=True, timeout=300
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise _Unavailable(f"cc failed: {exc}") from exc
        if proc.returncode != 0:
            raise _Unavailable(f"cc failed: {proc.stderr.strip()[-400:]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _prune(cache: str, keep) -> None:
    """Remove the libraries and compiler memos in ``cache`` unused for _STALE_S.

    Called after a build only, so a warm load never removes the library of
    another version of the package, such as one compared against this one.
    A file that cannot be removed stays.
    """
    cutoff = time.time() - _STALE_S
    for name in os.listdir(cache):
        path = os.path.join(cache, name)
        ours = (name.startswith("kernel-") and name.endswith(".so")) or (
            name.startswith("cc-") and name.endswith(".version")
        )
        with contextlib.suppress(OSError):
            if ours and path not in keep and os.stat(path).st_mtime < cutoff:
                os.unlink(path)
