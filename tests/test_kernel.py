"""The compiled loops: bit-identity with the numpy loops, divergence, loading."""

import contextlib
import ctypes
import hashlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import markovsgd
from markovsgd import _kernel, algorithms, chains
from markovsgd.algorithms import (
    DataDropConfig,
    ParallelConfig,
    ReplayConfig,
    SgdConfig,
    kernel_info,
    run_many,
    run_parallel_sgd,
    run_sgd,
    run_sgd_dd,
    run_sgd_er,
)
from markovsgd.chains import (
    FinitePathCursor,
    GaussianARSpec,
    GaussianPathCursor,
    make_agnostic_bias_chain,
    make_mc0,
    make_mc3,
    run_generators,
)
from markovsgd.regression import AgnosticDeterministic, IndependentGaussian, Noiseless, make_problem

SRC = os.path.dirname(os.path.dirname(os.path.abspath(markovsgd.__file__)))

requires_kernel = pytest.mark.skipif(
    kernel_info()["path"] != "c", reason="the compiled update loop is unavailable here"
)
requires_library = pytest.mark.skipif(kernel_info()["cache"] is None, reason="the kernel library is unavailable here")


@contextlib.contextmanager
def _numpy_loop():
    """Context in which the engines run the numpy update loop and the path
    cursors the numpy walk and scipy's lfilter."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algorithms, "_load_kernel", lambda d: None)
        mp.setattr(chains, "_load_kernel", lambda: None)
        yield


def _both_paths(*args, **kwargs):
    compiled = run_many(*args, **kwargs)
    with _numpy_loop():
        numpy = run_many(*args, **kwargs)
    return compiled, numpy


# ---------------------------------------------------------------------------
# Bit-identity with the numpy loop
# ---------------------------------------------------------------------------


@requires_kernel
class TestSameBits:
    @settings(max_examples=80, deadline=None)
    @given(
        algo=st.sampled_from(["sgd", "dd", "parallel", "er"]),
        R=st.sampled_from([1, 2, 10, 33]),
        d=st.sampled_from([1, 2, 4, 10, 17]),
        finite=st.booleans(),
        step=st.floats(0.01, 0.6),
        tail=st.sampled_from([0.2, 0.5, 1.0]),
        K=st.integers(1, 5),
        B=st.integers(1, 6),
        u=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 40),
        data=st.data(),
    )
    def test_compiled_equals_numpy(self, algo, R, d, finite, step, tail, K, B, u, seed, data):
        # agnostic outputs come from the two-point bias chain; replay runs on
        # Gaussian chains only
        kinds = ["none", "gaussian"] if algo == "er" else ["none", "gaussian", "agnostic"]
        noise = data.draw(st.sampled_from(kinds), label="noise")
        if noise == "agnostic":
            d = 1
        T = data.draw(st.integers(max(8, 2 * K, B + u), 120), label="T")
        entries = st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0)
        w_star = np.array(data.draw(st.lists(entries, min_size=d, max_size=d), label="w_star"))
        start = data.draw(st.sampled_from(["zeros", "w_star", "shared", "per_run"]), label="start")
        points = st.sampled_from([0, 1, T]) | st.integers(0, T)
        checkpoints = data.draw(st.none() | st.lists(points, max_size=5), label="checkpoints")

        if noise == "agnostic":
            problem = make_problem(make_agnostic_bias_chain(0.25), AgnosticDeterministic())
            w_star = problem.w_star
        else:
            chain = make_mc0(d, 0.25) if finite and d > 1 and algo != "er" else GaussianARSpec(dim=d, epsilon=0.3)
            model = Noiseless() if noise == "none" else IndependentGaussian(sigma=0.1)
            problem = make_problem(chain, model, w_star=w_star)
        rng = np.random.default_rng(seed)
        w_init = {
            "zeros": None,
            "w_star": w_star,
            "shared": rng.uniform(-1, 1, d),
            "per_run": rng.uniform(-1, 1, (R, d)),
        }[start]
        base = SgdConfig(step_size=step, tail_fraction=tail)
        cfg = {
            "sgd": base,
            "dd": DataDropConfig(base, drop_interval=K),
            "parallel": ParallelConfig(base, num_instances=K),
            "er": ReplayConfig(buffer_size=B, step_size=step, drop_prefix=u, tail_buffer_fraction=tail),
        }[algo]
        seeds = [seed + i for i in range(R)]
        compiled, numpy = _both_paths(problem, T, cfg, seeds, w_init=w_init, checkpoints=checkpoints)
        assert compiled.estimates.tobytes() == numpy.estimates.tobytes()
        assert compiled.final_iterates.tobytes() == numpy.final_iterates.tobytes()
        if checkpoints is None:
            assert compiled.checkpoint_excess is None and numpy.checkpoint_excess is None
        else:
            assert compiled.checkpoint_excess.tobytes() == numpy.checkpoint_excess.tobytes()

        # a single run keeps every iterate, on the compiled loop too; a
        # coupled run's bias path is a noiseless run, its var path one from w*
        coupled = data.draw(st.booleans(), label="coupled")
        runner = {"sgd": run_sgd, "dd": run_sgd_dd, "parallel": run_parallel_sgd, "er": run_sgd_er}[algo]
        w1 = w_init[0] if start == "per_run" else w_init
        compiled = runner(problem, T, cfg, seed, w_init=w1, coupled=coupled)
        with _numpy_loop():
            numpy = runner(problem, T, cfg, seed, w_init=w1, coupled=coupled)
        assert compiled.iterates.tobytes() == numpy.iterates.tobytes()
        assert compiled.estimate.tobytes() == numpy.estimate.tobytes()
        if coupled:
            for path in ("iterates_full", "iterates_bias", "iterates_var"):
                assert getattr(compiled.coupled, path).tobytes() == getattr(numpy.coupled, path).tobytes()

    @pytest.mark.parametrize("noise", ["none", "gaussian", "agnostic"])
    @pytest.mark.parametrize("algo", ["sgd", "dd", "parallel"])
    def test_coupled_finite_runs_equal_numpy(self, noise, algo):
        # the loop makes each path's labels: the bias path's are clean
        if noise == "agnostic":
            problem = make_problem(make_agnostic_bias_chain(0.25), AgnosticDeterministic())
        else:
            model = Noiseless() if noise == "none" else IndependentGaussian(sigma=0.1)
            problem = make_problem(make_mc0(4, 0.25), model, w_star=np.array([0.3, -0.0, -0.2, 0.5]))
        base = SgdConfig(step_size=0.3)
        cfg = {"sgd": base, "dd": DataDropConfig(base, drop_interval=3), "parallel": ParallelConfig(base, 4)}[algo]
        runner = {"sgd": run_sgd, "dd": run_sgd_dd, "parallel": run_parallel_sgd}[algo]
        compiled = runner(problem, 200, cfg, 17, coupled=True)
        with _numpy_loop():
            numpy = runner(problem, 200, cfg, 17, coupled=True)
        for path in ("iterates_full", "iterates_bias", "iterates_var"):
            assert getattr(compiled.coupled, path).tobytes() == getattr(numpy.coupled, path).tobytes()


# ---------------------------------------------------------------------------
# One update-loop contract: the kernel's advance and the numpy loop
# ---------------------------------------------------------------------------


def test_numpy_loop_takes_the_kernels_arguments():
    want = inspect.signature(_kernel.Kernel.advance)
    without_self = list(want.parameters.values())[1:]
    assert inspect.signature(algorithms._descend) == want.replace(parameters=without_self)


# a coupled run is three plain runs on one seed: the full path, the bias path
# (the noiseless problem, which reads no noise) and the var path (from w*)
_NOISY = (True, False, True)


@requires_kernel
class TestAdvanceContract:
    # d < 16 takes the fused dot, and on a CPU with AVX2 the four-wide path,
    # four chains a vector, a chain being one instance of one run: at K = 3
    # and 6 groups straddle runs.  A coupled run is three plain runs (full,
    # bias, var), and the bias run reads no noise
    @pytest.mark.parametrize("mode", ["w-star", "label-table"])
    @pytest.mark.parametrize("m", [1, 3], ids=["plain", "coupled"])
    @pytest.mark.parametrize("d", [1, 4, 2, 3, 5, 15])
    @pytest.mark.parametrize("K,scaled", [(1, False), (3, True), (6, True)], ids=["sgd", "parallel", "parallel-6"])
    @pytest.mark.parametrize("noise", [False, True], ids=["clean", "noisy"])
    @pytest.mark.parametrize("every", [1, 3])
    def test_compiled_equals_numpy_loop(self, mode, m, d, K, scaled, noise, every):
        for R in (4, 9):  # R*K chains: whole groups of four; then 1, 3 or 2 chains left over
            self._compare(mode, m, d, K, scaled, noise, every, R)

    def _compare(self, mode, m, d, K, scaled, noise, every, R):
        rng = np.random.default_rng(5)
        S, nr, sigma = 6, 10, 0.3

        def rounds(a):  # per-run rows (R, nr*K, ...) in round order (nr, R, K, ...): strided views
            return a.swapaxes(0, 1).reshape(nr, K, R, *a.shape[2:]).swapaxes(1, 2)

        if mode == "w-star":  # rows of a per-run table, as a Gaussian block's; each label is <x, w*>
            X, table = rounds(np.arange(R * nr * K).reshape(R, nr * K)), rng.uniform(-1, 1, (R * nr * K, d))
            labels = rng.uniform(-1, 1, d)
            table[X[0, 0, 0]] = 0.0  # a zero sample: its dot may read -0.0, its label +0.0
            labels[0] = -0.0
        else:  # the labels are a table per run of a coupled run and per state
            X, table = rounds(rng.integers(0, S, (R, nr * K))), rng.uniform(-1, 1, (S, d))
            labels = rng.uniform(-1, 1, (m, S))
            labels[:, 0] = -0.0  # a -0.0 label stays -0.0 without noise
        xi = rounds(rng.standard_normal((R, nr * K))) if noise else None
        if noise and R == 9:  # runs adjacent, instances strided: the four-wide path's other noise loads
            xi = np.ascontiguousarray(xi.transpose(0, 2, 1)).transpose(0, 2, 1)
        W0 = rng.uniform(-1, 1, (m, R, K, d))
        outs = []
        for advance in (_kernel.load(d).advance, algorithms._descend):
            for p in range(m):
                W, acc = W0[p].copy(), np.zeros_like(W0[p])
                iters = np.zeros((nr + 1, *W.shape))
                bad = np.full(R, -1, dtype=np.int64)
                path_labels = labels if mode == "w-star" else labels[p : p + 1]
                path_xi = xi if _NOISY[p] else None
                advance(W, X, table, path_labels, 0.3, scaled, acc, 2, 7, bad, 1, iters, path_xi, sigma, every)
                outs.append((W, acc, iters[1:], bad))
        for compiled, numpy in zip(outs[:m], outs[m:]):
            for a, b in zip(compiled, numpy):
                assert a.tobytes() == b.tobytes(), f"R = {R}"

    @pytest.mark.parametrize("R,K", [(1, 1), (4, 1), (1, 4)], ids=["scalar", "four-runs", "four-instances"])
    def test_a_dot_that_rounds_to_minus_zero_reads_plus_zero(self, R, K):
        # <w, x>: the first product underflows to -0.0, the second is -0.0, so
        # the fma chain ends on -0.0; numpy reads +0.0, and with a +0.0
        # label the residual is +0.0, which leaves the -0.0 weight -0.0
        table, labels = np.array([[1e-200, 0.5]]), np.zeros((1, 1))
        W0 = np.broadcast_to([-1e-200, -0.0], (R, K, 2)).copy()
        X = np.zeros((1, R, K), dtype=np.int64)
        outs = []
        for advance in (_kernel.load(2).advance, algorithms._descend):
            W, bad = W0.copy(), np.full(R, -1, dtype=np.int64)
            advance(W, X, table, labels, 0.3, K > 1, None, 0, 0, bad, 0)
            outs.append(W)
        assert np.signbit(outs[1][..., 1]).all()
        assert outs[0].tobytes() == outs[1].tobytes()

    @pytest.mark.parametrize("labels", [np.zeros((1, 6)), np.zeros(2)], ids=["label-table", "w-star"])
    @pytest.mark.parametrize("bad_row", [-1, 6])
    def test_rows_out_of_range_are_rejected(self, bad_row, labels):
        table = np.ones((6, 2))
        idx = np.zeros((3, 2, 1), dtype=np.int64)
        idx[1, 1, 0] = bad_row
        W, bad = np.zeros((2, 1, 2)), np.full(2, -1, dtype=np.int64)
        with pytest.raises(ValueError, match="row numbers"):
            _kernel.load(2).advance(W, idx, table, labels, 0.3, False, None, 0, 0, bad, 0)


# the ctypes type each kind of C parameter is bound with
_CTYPES = {"int64_t": ctypes.c_int64, "int32_t": ctypes.c_int32, "double": ctypes.c_double}


def _c_parameters(source: str) -> dict:
    """Each ``msgd_*`` function defined in ``source``: its parameters' ctypes
    types, ``c_void_p`` for a pointer or a ``ddot_fn``."""
    found = {}
    for name, params in re.findall(r"^\w[\w ]*?\b(msgd_\w+)\(([^)]*)\)\s*\{", source, re.M):
        kinds = []
        for param in filter(None, (p.strip() for p in params.split(","))):
            if param == "void":
                continue
            if "*" in param or param.startswith("ddot_fn"):
                kinds.append(ctypes.c_void_p)
            else:
                kinds.append(_CTYPES[param.replace("const ", "").split()[0]])
        found[name] = kinds
    return found


@requires_library
def test_the_bindings_match_the_c_definitions():
    # a binding with an argument too many or of the wrong kind passes garbage silently
    with open(_kernel._SOURCE) as fh:
        defined = _c_parameters(fh.read())
    kern = _kernel.library()
    bound = {f.__name__: list(f.argtypes) for f in vars(kern).values() if getattr(f, "argtypes", None) is not None}
    assert len(bound) == 8 and len(defined["msgd_advance"]) == 28
    for name, kinds in defined.items():
        # the unbound ones take nothing
        assert bound.get(name, []) == kinds, name


# ---------------------------------------------------------------------------
# Runs side by side, and the fused dot
# ---------------------------------------------------------------------------


def _lane_inputs(mode, m, R, d, K, n=40):
    """Per-run blocks in update order, as the engine hands them over, and
    starts for m paths: one, or a coupled run's full, bias and var paths."""
    rng = np.random.default_rng(11)
    S = 6
    if mode == "w-star":  # rows of a per-run table, as a Gaussian block's; the labels are w*
        X, table = np.arange(R * n * K).reshape(R, n, K).transpose(1, 0, 2), rng.uniform(-1, 1, (R * n * K, d))
        labels = rng.uniform(-1, 1, d)
    else:  # the labels are a table per path and state
        X, table = rng.integers(0, S, (R, n, K)).transpose(1, 0, 2), rng.uniform(-1, 1, (S, d))
        labels = rng.uniform(-1, 1, (m, S))
    xi = rng.standard_normal((R, n, K)).transpose(1, 0, 2)
    W0 = rng.uniform(-1, 1, (m, R, K, d))
    if mode == "w-star" and m == 3:
        W0[2] = labels  # the var path starts at w*
    return W0, X, labels, table, xi


def _advance_runs(W0, X, labels, table, xi, runs, loop=None):
    """W, acc, iters and bad of each path, stacked on a leading path axis
    (the second of iters), after advancing the runs ``runs`` (a slice)
    together, on the compiled loop or on ``loop``."""
    m, _, K, d = W0.shape
    outs = []
    for p in range(m):
        W = W0[p, runs].copy()
        acc, iters = np.zeros_like(W), np.zeros((len(X) + 1, *W.shape))
        bad = np.full(len(W), -1, dtype=np.int64)
        path_labels = labels if labels.ndim == 1 else labels[p : p + 1]
        with np.errstate(all="ignore"):
            (loop or _kernel.load(d).advance)(
                W, X[:, runs], table, path_labels, 0.3, K > 1, acc, 3, 30, bad, 1, iters,
                xi[:, runs] if _NOISY[p] else None, 0.2,
            )
        outs.append((W, acc, iters, bad))
    W, acc, iters, bad = zip(*outs)
    return np.stack(W), np.stack(acc), np.stack(iters, axis=1), np.stack(bad)


def _each_run(batch, r):
    """Run r's rows of _advance_runs' outputs."""
    W, acc, iters, bad = batch
    return W[:, r].tobytes(), acc[:, r].tobytes(), iters[:, :, r].tobytes(), bad[:, r].tolist()


@requires_kernel
class TestRunsSideBySide:
    """Chains -- runs, and the instances of parallel SGD's runs -- are
    advanced several at a time, and finite walks step several runs at a
    time; each run keeps the bits it has alone."""

    @pytest.mark.parametrize("R", [1, 3, 4, 5, 9])
    @pytest.mark.parametrize("mode", ["w-star", "label-table"])
    @pytest.mark.parametrize("m", [1, 3], ids=["plain", "coupled"])
    @pytest.mark.parametrize("d", [4, 17, 3, 15], ids=["fused-dims", "ddot-dims", "fused-3", "fused-15"])
    @pytest.mark.parametrize("K", [1, 3, 6], ids=["sgd", "parallel", "parallel-6"])
    def test_a_batch_equals_its_single_runs(self, R, mode, m, d, K):
        inputs = _lane_inputs(mode, m, R, d, K)
        batch = _advance_runs(*inputs, slice(None))
        for r in range(R):
            assert _each_run(batch, r) == _each_run(_advance_runs(*inputs, slice(r, r + 1)), 0)

    @pytest.mark.parametrize("mode", ["w-star", "label-table"])
    @pytest.mark.parametrize("m", [1, 3], ids=["plain", "coupled"])
    def test_a_run_that_breaks_among_its_lane_mates(self, mode, m):
        W0, X, labels, table, xi = _lane_inputs(mode, m, 9, 4, 1)
        xi[17, 5, 0] = np.inf  # run 5, in the second group of runs, breaks at update 1 + 17
        batch = _advance_runs(W0, X, labels, table, xi, slice(None))
        broken = [p for p in range(m) if _NOISY[p]]  # the bias path reads no noise, and runs on
        assert batch[3].tolist() == [[-1] * 5 + [18] + [-1] * 3 if p in broken else [-1] * 9 for p in range(m)]
        for r in range(9):
            alone = _advance_runs(W0, X, labels, table, xi, slice(r, r + 1))
            assert _each_run(batch, r) == _each_run(alone, 0)
        # the broken run stops there: no acc or iters row is written from update 18 on
        for p in broken:
            assert not np.isfinite(batch[0][p, 5]).all()
            assert not batch[2][18:, p, 5].any()

    # 5 runs of 6 instances are 30 chains, in groups of four: chains 12 .. 15
    # are instances 0 .. 3 of run 2, chains 16 .. 19 instances 4, 5 of run 2
    # and 0, 1 of run 3, and chains 28, 29 (run 4's instances 4, 5) are left over
    @pytest.mark.parametrize("mode", ["w-star", "label-table"])
    @pytest.mark.parametrize("m", [1, 3], ids=["plain", "coupled"])
    @pytest.mark.parametrize("r,k", [(2, 1), (2, 5), (4, 5)], ids=["in-a-group-of-four", "across-runs", "left-over"])
    def test_an_instance_that_breaks_mid_round(self, mode, m, r, k):
        self._break(mode, m, r, {k: 17})  # instance k of run r breaks in round 1 + 17

    @pytest.mark.parametrize("mode", ["w-star", "label-table"])
    @pytest.mark.parametrize("rounds", [(25, 9), (9, 25)], ids=["second-breaks-first", "first-breaks-first"])
    def test_two_instances_that_break_in_different_rounds(self, mode, rounds):
        # instance 1 (chain 13) is taken before instance 4 (chain 16, in the
        # next group): whichever breaks first, bad keeps the earlier round
        self._break(mode, 3, 2, dict(zip((1, 4), rounds)))

    def _break(self, mode, m, r, breaks):
        """Instance k of run r, of 5 runs of 6 instances, breaks in round 1 +
        breaks[k]: bad names the run's first broken round on both loops,
        every other chain keeps the bits it has unbroken, and on the
        compiled loop a broken instance's rows hold its rounds before its
        break alone."""
        W0, X, labels, table, xi = _lane_inputs(mode, m, 5, 4, 6)
        unbroken = _advance_runs(W0, X, labels, table, xi, slice(r, r + 1))
        for k, i in breaks.items():
            xi[i, r, k] = np.inf
        broken = [p for p in range(m) if _NOISY[p]]  # the bias path reads no noise, and runs on
        want = np.full((m, 5), -1)
        want[broken, r] = min(breaks.values()) + 1
        compiled = _advance_runs(W0, X, labels, table, xi, slice(None))
        numpy = _advance_runs(W0, X, labels, table, xi, slice(None), algorithms._descend)
        for loop, out in (("compiled", compiled), ("numpy", numpy)):
            W, acc, iters, bad = out
            assert bad.tolist() == want.tolist(), loop
            for q in set(range(5)) - {r}:
                alone = _advance_runs(W0, X, labels, table, xi, slice(q, q + 1))
                assert _each_run(out, q) == _each_run(alone, 0), loop
            # the run's other instances run to the end
            for p in range(m):
                ks = [k for k in range(6) if p not in broken or k not in breaks]
                assert W[p, r, ks].tobytes() == unbroken[0][p, 0, ks].tobytes(), loop
                assert acc[p, r, ks].tobytes() == unbroken[1][p, 0, ks].tobytes(), loop
                assert iters[:, p, r, ks].tobytes() == unbroken[2][:, p, 0, ks].tobytes(), loop
                for k in breaks if p in broken else ():
                    assert not np.isfinite(W[p, r, k]).all(), loop
        # the compiled loop stops a broken instance: its sums and iterates
        # are those of its rounds before the break
        W, acc, iters, _ = compiled
        for k, i in breaks.items():
            first = _advance_runs(W0, X[:i], labels, table, xi[:i], slice(r, r + 1))
            for p in broken:
                assert not iters[i + 1 :, p, r, k].any()
                assert acc[p, r, k].tobytes() == first[1][p, 0, k].tobytes()
                assert iters[: i + 1, p, r, k].tobytes() == first[2][:, p, 0, k].tobytes()

    def test_run_many_names_the_one_run_that_broke_among_its_lane_mates(self):
        problem = make_problem(GaussianARSpec(dim=3, epsilon=0.3), IndependentGaussian(0.1), w_star=np.ones(3))
        cfg = SgdConfig(step_size=50.0)
        errors = {}
        for seed in range(1, 10):
            with pytest.raises(FloatingPointError) as err:
                run_many(problem, 5000, cfg, [seed])
            errors[seed] = str(err.value)
        counts = {seed: int(re.search(r"after (\d+) stream samples", e).group(1)) for seed, e in errors.items()}
        first = min(counts, key=counts.get)
        assert sorted(counts.values())[:2] != [counts[first]] * 2  # the only one to break by then
        others = [seed for seed in counts if seed != first]
        seeds = others[:5] + [first] + others[5:]  # in the second group of runs
        with pytest.raises(FloatingPointError) as err:
            run_many(problem, counts[first], cfg, seeds, workers=1)
        assert str(err.value) == errors[first]
        # one sample sooner every run is finite, and each has its own bits
        batch = run_many(problem, counts[first] - 1, cfg, seeds, workers=1)
        solo = [run_many(problem, counts[first] - 1, cfg, [seed]).estimates for seed in seeds]
        assert batch.estimates.tobytes() == np.concatenate(solo).tobytes()

    @pytest.mark.parametrize("R", [1, 3, 4, 5, 9])
    def test_walk_equals_its_single_runs(self, R):
        spec = make_mc0(5, 0.3)
        cum = np.cumsum(spec.transition, axis=1)
        lead = np.ascontiguousarray(cum[:, :-1] / cum[:, -1:])
        rng = np.random.default_rng(R)
        U, state, n = rng.uniform(size=(R, 50)), rng.integers(0, 5, R), 50
        kern = _kernel.library()
        out = np.empty((n, R), dtype=np.int64)
        kern.walk(lead, U, state, out)
        block = U.copy()  # in place: each uniform turns into its state
        kern.walk(lead, block, state, block.view(np.int64).T)
        assert block.view(np.int64).T.tobytes() == out.tobytes()
        for r in range(R):
            alone = np.empty((n, 1), dtype=np.int64)
            kern.walk(lead, U[r : r + 1], state[r : r + 1].copy(), alone)
            assert alone[:, 0].tobytes() == out[:, r].tobytes()


def _has_fma() -> bool:
    kern = _kernel.library()
    return kern is not None and kern._has_fma


@requires_kernel
@pytest.mark.skipif(not _has_fma(), reason="this CPU has no FMA instructions")
class TestFusedDot:
    def test_agrees_with_vecdot_wherever_the_loop_takes_it(self):
        # signed zeros, cancellations and scales spread over 2**-30 .. 2**30
        rng = np.random.default_rng(4)
        for d in range(1, 16):
            if _kernel.load(d) is None or d not in kernel_info()["fused_dims"]:
                continue
            a = rng.standard_normal((4000, d)) * 2.0 ** rng.integers(-30, 31, (4000, d))
            b = rng.standard_normal((4000, d)) * 2.0 ** rng.integers(-30, 31, (4000, d))
            a[::7] = -0.0  # every product a signed zero
            b[1::5, 0] = -0.0
            a[2::9, -1], b[2::9, -1] = -a[2::9, 0], b[2::9, 0]  # the last product cancels the first
            assert _kernel.library().fused_dots(a, b).tobytes() == np.vecdot(a, b).tobytes()

    def test_the_probe_is_one_call_per_dimension(self, reset_loader, monkeypatch):
        calls = []
        fused_dots = _kernel.Kernel.fused_dots

        def counted(self, a, b):
            calls.append(a.shape)
            return fused_dots(self, a, b)

        monkeypatch.setattr(_kernel.Kernel, "fused_dots", counted)
        for d in (2, 2, 4, 15, 16, 17, 4):
            _kernel.load(d)
        assert calls == [(64, 2), (64, 4), (64, 15)]

    @pytest.mark.parametrize("why", ["no-fma", "disagrees"])
    def test_a_failed_probe_falls_back_to_ddot_with_the_same_bits(self, reset_loader, monkeypatch, why):
        _kernel.load(2)
        if kernel_info()["fused_dims"] != [2]:
            pytest.skip("the loop takes ddot at every dimension here")
        want = _pinned_outputs(), _wide_outputs()
        _kernel._library.cache_clear()
        if why == "no-fma":
            monkeypatch.setattr(_kernel.Kernel, "__init__", _without_fma(_kernel.Kernel.__init__))
        else:
            monkeypatch.setattr(_kernel.Kernel, "fused_dots", lambda self, a, b: np.vecdot(a, b) + 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the fallback is silent: it changes no bits
            got = _pinned_outputs(), _wide_outputs()
            info = kernel_info()
        assert info["path"] == "c" and info["fused_dims"] == []
        if why == "no-fma":  # no fused dot, so no four-wide path either
            assert info["lanes"] == 1
        assert got == want


def _without_fma(init):
    """Kernel.__init__, then the kernel reports a CPU without FMA."""

    def wrapped(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._has_fma = False

    return wrapped


def _cpu_flags() -> set:
    """The CPU flags /proc/cpuinfo lists (none where there is no such file)."""
    try:
        with open("/proc/cpuinfo") as fh:
            return next((set(line.split(":", 1)[1].split()) for line in fh if line.startswith("flags")), set())
    except OSError:
        return set()


def _wide_outputs() -> list:
    """sha256 of batches the four-wide path takes where it runs: sgd on two
    groups of four runs and one left over, and parallel SGD on 9 runs of 6
    instances, 13 groups of four chains (some straddling two runs) and two
    left over, for a finite and a Gaussian chain."""
    out = []
    for chain in (make_mc0(4, 0.25), GaussianARSpec(dim=3, epsilon=0.3)):
        problem = make_problem(chain, IndependentGaussian(0.1), w_star=np.linspace(-0.5, 0.5, chain.dim))
        for cfg in (SgdConfig(step_size=0.2), ParallelConfig(SgdConfig(step_size=0.2), num_instances=6)):
            batch = run_many(problem, 240, cfg, range(9), checkpoints=[0, 100, 240], workers=1)
            out += [_digest(batch.estimates), _digest(batch.final_iterates), _digest(batch.checkpoint_excess)]
    return out


@requires_kernel
class TestLanes:
    @pytest.mark.skipif(not {"avx2", "fma"} <= _cpu_flags(), reason="no AVX2 and FMA here, or no /proc/cpuinfo")
    def test_a_cpu_with_avx2_takes_four_lanes(self):
        assert kernel_info()["lanes"] == 4
        assert _kernel.library().lanes == 4

    def test_the_wide_path_equals_the_numpy_loop(self):
        got = _wide_outputs()
        with _numpy_loop():
            assert _wide_outputs() == got


def _instances(m, K, d, seed):
    """(m, 3, K, d) weights of spread scales, m leading blocks of 3 runs;
    run 0 of block 0 all -0.0, and every other instance of run 2 of the
    last block -0.0."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, 3, K, d)) * 2.0 ** rng.integers(-30, 31, (m, 3, K, d))
    a[0, 0] = -0.0
    a[-1, 2, ::2] = -0.0
    return a


@requires_kernel
class TestInstanceSum:
    @pytest.mark.parametrize("d", range(1, 18))
    def test_equals_numpys_sum_and_mean(self, d):
        kern = _kernel.load(d)
        assert kern.sums(d) == (d > 1)  # at d = 1 numpy sums pairwise
        for K in (1, 2, 3, 8, 9, 742):
            for m in (1, 3):
                a = _instances(m, K, d, seed=K * 32 + d)
                got = kern.instance_sum(a)
                assert not np.signbit(got[0, 0]).any()  # -0.0 instances read +0.0, as in numpy
                if d > 1:
                    assert got.tobytes() == a.sum(axis=-2).tobytes(), (K, m)
                    assert (got / K).tobytes() == a.mean(axis=-2).tobytes(), (K, m)

    @pytest.mark.parametrize(
        "a",
        [np.zeros((2, 0, 3)), np.zeros((2, 3, 0)), np.zeros(3), np.zeros((2, 6, 4))[:, ::2], np.zeros((2, 3, 4), "f4")],
        ids=["no-instances", "no-dims", "1-d", "strided", "float32"],
    )
    def test_rejects_what_it_cannot_read(self, a):
        with pytest.raises(ValueError, match="instance_sum"):
            _kernel.library().instance_sum(a)

    def test_at_one_dimension_numpys_sum_stays(self):
        a = _instances(1, 742, 1, seed=1)
        assert _kernel.library().instance_sum(a).tobytes() != a.sum(axis=-2).tobytes()  # pairwise there
        isum = algorithms._instance_sum(1)
        assert isum.func is np.sum and isum.keywords == {"axis": -2}
        assert algorithms._instance_sum(4) == _kernel.load(4).instance_sum

    def test_a_check_that_disagrees_keeps_numpys_sum_silently(self, reset_loader, monkeypatch):
        problem = make_problem(make_mc0(4, 0.25), IndependentGaussian(0.1), w_star=np.linspace(-0.5, 0.5, 4))
        cfg = ParallelConfig(SgdConfig(step_size=0.2), num_instances=6)

        def outputs():
            batch = run_many(problem, 240, cfg, range(5), checkpoints=[0, 100, 240], workers=1)
            run = run_parallel_sgd(problem, 240, cfg, 3, coupled=True)
            return [a.tobytes() for a in (batch.estimates, batch.final_iterates, batch.checkpoint_excess, run.estimate)]

        want = outputs()
        assert _kernel.load(4).sums(4)
        _kernel._library.cache_clear()
        isum = _kernel.Kernel.instance_sum
        monkeypatch.setattr(_kernel.Kernel, "instance_sum", lambda self, a: isum(self, a) + 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the fallback is silent: it changes no bits
            assert not _kernel.load(4).sums(4)
            got = outputs()
            info = kernel_info()
        assert info["path"] == "c" and 4 in info["fused_dims"]
        assert got == want


# ---------------------------------------------------------------------------
# Every run's variates in one call
# ---------------------------------------------------------------------------


def _method_draws(rngs, n, normal, width=None):
    """Row r: what ``rngs[r]`` gives for n variates, drawn through its method."""
    out = np.empty((len(rngs), n if width is None else width))[:, :n]
    for rng, row in zip(rngs, out):
        (rng.standard_normal if normal else rng.random)(out=row)
    return out


class TestGeneratorDraws:
    """Cursors handed generators draw through the Generator methods, row by row."""

    def test_gaussian_cursor_draws_the_method_normals(self):
        seeds, d, splits = [11, 12, 13], 3, (1, 40, 7)
        cursor = GaussianPathCursor(GaussianARSpec(dim=d, epsilon=0.2), [run_generators(s)[0] for s in seeds])
        got = np.concatenate([cursor.take(n, with_innovations=True)[1] for n in splits])
        rngs = [run_generators(s)[0] for s in seeds]
        want = np.concatenate([_method_draws(rngs, n * d, True).reshape(len(seeds), n, d) for n in splits], axis=1)
        assert got.tobytes() == np.ascontiguousarray((want * (1.0 / np.sqrt(d))).transpose(1, 0, 2)).tobytes()

    def test_finite_cursor_walks_the_method_uniforms(self):
        spec, seeds, splits = make_mc0(5, 0.3), [11, 12, 13], (1, 40, 7)
        cursor = FinitePathCursor(spec, [run_generators(s)[0] for s in seeds])
        got = np.concatenate([cursor.take(n) for n in splits])
        rngs = [run_generators(s)[0] for s in seeds]
        U = np.concatenate([_method_draws(rngs, n, False) for n in splits], axis=1)
        # inverse-CDF steps on the uniforms, the first from the stationary law
        cum = np.cumsum(spec.transition, axis=1)
        cum /= cum[:, -1:]
        cum_pi = np.cumsum(chains.stationary(spec))
        cum_pi[-1] = 1.0
        want = np.empty(U.T.shape, dtype=np.int64)
        for r, u in enumerate(U):
            s = int(np.searchsorted(cum_pi, u[0], side="right"))
            want[0, r] = s
            for t in range(1, len(u)):
                s = int(np.sum(u[t] >= cum[s, :-1]))
                want[t, r] = s
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Every run's streams seeded in one call
# ---------------------------------------------------------------------------

_INT_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130]
_SEED_SEQUENCES = [
    np.random.SeedSequence(5, spawn_key=(3,), pool_size=4),
    np.random.SeedSequence(2**70 + 9, spawn_key=(0, 2**33), pool_size=8),
    np.random.SeedSequence([1, 2**40, 7], spawn_key=(4, 1), pool_size=8),
    np.random.SeedSequence(12),
]


@requires_library
class TestSeededStreams:
    @pytest.mark.parametrize("seeds", [_INT_SEEDS, _SEED_SEQUENCES, _INT_SEEDS[:2] + _SEED_SEQUENCES[:2]],
                             ids=["ints", "seed-sequences", "mixed"])
    def test_keys_and_draws_equal_the_generators(self, seeds):
        assert kernel_info()["streams"] == "c"  # the check at load passed
        children = (0, 1, 2, 3)
        streams = chains._run_streams(seeds, children)
        gens = [chains._run_generators(s, children) for s in seeds]
        for c, draws in enumerate(streams):
            # numpy's Philox state: the key from SeedSequence, counter 0, buffer spent
            states = draws.states
            for r, g in enumerate(gens):
                want = g[c].bit_generator.state
                assert states[r, 4:6].tolist() == want["state"]["key"].tolist()
                assert states[r, :4].tolist() == want["state"]["counter"].tolist() == [0] * 4
                assert states[r, 10] == want["buffer_pos"] == 4
        # successive fills cross Philox's four-word buffer
        for n in (0, 1, 3, 5, 4097, 1, 3):
            for normal in (False, True):
                for draws, rngs in zip(streams, zip(*gens)):
                    got = draws.fill(np.empty((len(seeds), n)), normal)
                    assert got.tobytes() == _method_draws(rngs, n, normal).tobytes()

    def test_a_mixed_batch_builds_words_for_its_other_seeds_only(self, monkeypatch):
        # integers below 2**64 alone are written at once, wherever they stand
        seeds = [3, 2**64 + 5, 0, _SEED_SEQUENCES[0], 2**64 - 1, 2**32, _SEED_SEQUENCES[2], 7]
        children = (0, 1, 2)
        words = _kernel._words
        built = []

        def counted(x, pad):
            built.append(x)
            return words(x, pad)

        monkeypatch.setattr(_kernel, "_words", counted)
        streams = chains._run_streams(seeds, children)
        assert built == [2**64 + 5, 5, 3, _SEED_SEQUENCES[2].entropy, 4, 1]  # entropy, then the key's words
        gens = [chains._run_generators(s, children) for s in seeds]
        for n, normal in ((5, False), (4097, True), (3, False)):
            for draws, rngs in zip(streams, zip(*gens)):
                got = draws.fill(np.empty((len(seeds), n)), normal)
                assert got.tobytes() == _method_draws(rngs, n, normal).tobytes()

    @pytest.mark.parametrize("R", [1, 3, 50])
    def test_fill_equals_the_generator_methods(self, R):
        seeds = [300 + r for r in range(R)]
        (draws,) = chains._run_streams(seeds, (1,))
        rngs = [run_generators(s)[1] for s in seeds]
        # successive calls of both kinds, into rows of a wider buffer too
        for n, width in ((0, None), (1, None), (7, 9), (4097, None), (7, None), (1, 5)):
            for normal in (False, True):
                got = np.empty((R, n if width is None else width))[:, :n]
                draws.fill(got, normal)
                assert got.tobytes() == _method_draws(rngs, n, normal, width).tobytes()

    def test_fill_rejects_rows_it_cannot_write(self):
        (draws,) = chains._run_streams([1, 2], (0,))
        wrong = (np.empty((3, 4)), np.empty((2, 4), dtype=np.float32), np.empty((4, 2)).T, np.empty((2, 8))[:, ::2])
        for out in wrong:
            with pytest.raises(ValueError, match="layout"):
                draws.fill(out, False)

    def test_streams_stop_where_the_generators_do(self):
        # after mixed fills, each run's philox_t is numpy's Philox state
        seeds = [7, 2**64 + 1, _SEED_SEQUENCES[1]]
        (draws,) = chains._run_streams(seeds, (1,))
        rngs = [chains._run_generators(s, (1,))[0] for s in seeds]
        for n in (0, 1, 3, 5, 4097, 3, 1, 5):
            for normal in (n % 2 == 1, n % 2 == 0):
                got = draws.fill(np.empty((len(seeds), n)), normal)
                assert got.tobytes() == _method_draws(rngs, n, normal).tobytes()
                for state, rng in zip(draws.states.tolist(), rngs):
                    want = rng.bit_generator.state
                    assert state[:4] == want["state"]["counter"].tolist()
                    assert state[4:6] == want["state"]["key"].tolist()
                    assert state[6:10] == want["buffer"].tolist()
                    assert state[10:12] == [want["buffer_pos"], want["has_uint32"]]
                    assert state[11] == 0
        # and both go on alike
        for normal in (True, False):
            got = draws.fill(np.empty((len(seeds), 2)), normal)
            assert got.tobytes() == _method_draws(rngs, 2, normal).tobytes()

    def test_the_ziggurats_rare_paths_equal_the_generator(self):
        n = 2**20
        (draws,) = chains._run_streams([2024], (0,))
        got = draws.fill(np.empty((1, n)), True)
        assert got.tobytes() == chains._run_generators(2024, (0,))[0].standard_normal(n).tobytes()
        # the sample took the tail past r = 3.654...: only the tail returns |x| > r
        tails = np.count_nonzero(np.abs(got) > 3.6541528853610088)
        assert tails > 0
        # and the wedge, which reads a word more than the draw's first.  A
        # tail attempt reads two, and a tail takes about 1.08 attempts, so
        # the tails alone would explain about 2.2 extra words each
        counter, pos = int(draws.states[0, 0]), int(draws.states[0, 10])
        extra = 4 * counter - (4 - pos) - n
        assert extra > 10 * tails

    def test_bad_seeds_raise_the_errors_of_the_generators(self):
        problem = make_problem(make_mc3(2.0, 0.05), IndependentGaussian(0.1), w_star=np.array([0.5, -0.5]))
        with pytest.raises(ValueError, match="expected non-negative integer"):
            run_many(problem, 50, SgdConfig(0.3), [3, -1])
        with pytest.raises(TypeError, match="not a Generator"):
            run_many(problem, 50, SgdConfig(0.3), [3, np.random.default_rng(0)])

    def test_failed_check_seeds_generators_with_one_warning(self, reset_loader, monkeypatch):
        finite = make_mc0(4, 0.2)
        noisy = make_problem(finite, IndependentGaussian(0.1), w_star=np.linspace(-0.5, 0.5, 4))
        ar = make_problem(GaussianARSpec(dim=3, epsilon=0.3), IndependentGaussian(0.1), w_star=np.ones(3) / 3)
        seeds = [4, 2**64 + 5, np.random.SeedSequence(6, spawn_key=(1,), pool_size=8)]

        def outputs():
            return [
                run_many(noisy, 300, SgdConfig(0.3), seeds, checkpoints=[0, 100]).estimates.tobytes(),
                run_many(noisy, 300, ParallelConfig(SgdConfig(0.3), 3), seeds).estimates.tobytes(),
                run_many(ar, 300, ReplayConfig(buffer_size=5, step_size=0.2), seeds).estimates.tobytes(),
                algorithms.run_lower_bound_traces(
                    make_problem(GaussianARSpec(dim=3, epsilon=0.9), Noiseless(), w_star=np.zeros(3)), 40, 0.05, seeds
                )[1].tobytes(),
            ]

        want = outputs()
        monkeypatch.setattr(_kernel.Kernel, "_streams_agree", lambda self: False)
        _kernel._library.cache_clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = outputs()
            outputs()
            info = kernel_info()
        assert [w.category for w in caught] == [RuntimeWarning]
        message = str(caught[0].message)
        assert "seeded streams unusable" in message
        assert "disagree" in message
        assert info["streams"] == "numpy" and info["path"] == "c"
        assert got == want

    def test_divergence_names_the_first_seed_that_broke(self):
        # the seed comes from the seed list, as the chain generator's SeedSequence named it
        problem = make_problem(GaussianARSpec(dim=3, epsilon=0.3), IndependentGaussian(0.1), w_star=np.ones(3))
        cfg = SgdConfig(step_size=50.0)
        seeds = {"1": 1, "2": 2, "5, spawn key (3,)": np.random.SeedSequence(5, spawn_key=(3,))}
        counts = {}
        for label, seed in seeds.items():
            with pytest.raises(FloatingPointError, match=rf"^run with seed {re.escape(label)} diverged") as err:
                run_many(problem, 5000, cfg, [seed])
            counts[label] = re.search(r"after (\d+) stream samples", str(err.value)).group(1)
        # every run diverges; the first in seed order is named, with its own count
        for first, second in (("2", "1"), ("1", "2")):
            message = f"run with seed {first} diverged: non-finite iterate after {counts[first]} stream samples"
            with pytest.raises(FloatingPointError, match=f"^{message}$"):
                run_many(problem, 5000, cfg, [seeds[first], seeds[second], 3], workers=1)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_run_many_equals_its_single_runs(self, workers):
        finite = make_problem(make_mc0(4, 0.2), IndependentGaussian(0.1), w_star=np.linspace(-0.5, 0.5, 4))
        ar = make_problem(GaussianARSpec(dim=3, epsilon=0.3), IndependentGaussian(0.1), w_star=np.ones(3) / 3)
        seeds = [7, 2**32, 2**70, 8, np.random.SeedSequence(9, spawn_key=(2,))]
        base = SgdConfig(0.2)
        for problem, runner, cfg in (
            (finite, run_sgd, base),
            (finite, run_sgd_dd, DataDropConfig(base, drop_interval=3)),
            (finite, run_parallel_sgd, ParallelConfig(base, 3)),
            (ar, run_sgd_er, ReplayConfig(buffer_size=4, step_size=0.2)),
        ):
            batch = run_many(problem, 200, cfg, seeds, workers=workers)
            solo = np.array([runner(problem, 200, cfg, s, keep_iterates=False).estimate for s in seeds])
            assert batch.estimates.tobytes() == solo.tobytes()


# numpy's ziggurat tables: local symbols of one object of libnpyrandom.a, at
# these offsets into its .rodata (numpy 2.4.6)
_ZIGGURAT_OBJECT = "src_distributions_distributions.c.o"
_ZIGGURAT_TABLES = {"fi_double": (0x3000, "<f8"), "wi_double": (0x3800, "<f8"), "ki_double": (0x4000, "<u8")}


def test_the_ziggurat_tables_are_numpys(tmp_path):
    archive = os.path.join(os.path.dirname(np.random.__file__), "lib", "libnpyrandom.a")
    ar, objcopy = shutil.which("ar"), shutil.which("objcopy")
    if not os.path.exists(archive) or ar is None or objcopy is None:
        pytest.skip("numpy's libnpyrandom.a, ar or objcopy is absent")
    subprocess.run([ar, "x", archive, _ZIGGURAT_OBJECT], cwd=tmp_path, check=True)
    rodata = tmp_path / "rodata.bin"
    subprocess.run(
        [objcopy, "-O", "binary", "--only-section=.rodata", _ZIGGURAT_OBJECT, rodata], cwd=tmp_path, check=True
    )
    numpys = rodata.read_bytes()
    with open(_kernel._SOURCE) as fh:
        source = fh.read()
    for name, (offset, dtype) in _ZIGGURAT_TABLES.items():
        body = re.search(rf"\b{name}\[256\] = \{{(.*?)\}};", source, re.S).group(1)
        words = re.findall(r"UINT64_C\((0x[0-9A-F]+)\)", body)
        values = [int(w, 16) for w in words] if words else [float.fromhex(v) for v in re.findall(r"0x[^,\s]+", body)]
        assert np.array(values, dtype=dtype).tobytes() == numpys[offset : offset + 256 * 8], name


# ---------------------------------------------------------------------------
# Pinned bits: every output of every engine, against recorded digests
# ---------------------------------------------------------------------------

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned_bits.json")


def _blas_basename():
    """File name of numpy's bundled OpenBLAS, or None where there is none."""
    try:
        name = _kernel._find_ddot()[2]
    except _kernel._Unavailable:
        return None
    return os.path.basename(name.rpartition(":")[0])


def _digest(value) -> str:
    a = np.asarray(value)
    h = hashlib.sha256(f"{a.dtype.str} {a.shape} ".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _pinned_outputs() -> dict:
    """sha256 of every output of every runner on fixed inputs, by name.

    Single runs are coupled and record their reads, or plain; batches run
    three seeds with per-run starts and checkpoints.  T leaves a remainder for data
    drop, parallel SGD and replay alike.
    """
    T = 122
    base = SgdConfig(step_size=0.2)
    algos = {
        "sgd": (run_sgd, base),
        "dd": (run_sgd_dd, DataDropConfig(base, drop_interval=3)),
        "parallel": (run_parallel_sgd, ParallelConfig(base, num_instances=4)),
        "er": (run_sgd_er, ReplayConfig(buffer_size=4, step_size=0.2, drop_prefix=1)),
    }
    chains = {
        "mc3": (make_mc3(2.0, 0.05), [0.5, -0.5]),
        "ar": (GaussianARSpec(dim=3, epsilon=0.3), [0.3, -0.2, 0.1]),
    }
    out = {}
    for chain_name, (chain, w_star) in chains.items():
        problem = make_problem(chain, IndependentGaussian(0.1), w_star=np.array(w_star))
        d = problem.dim
        for algo, (runner, cfg) in algos.items():
            if algo == "er" and chain_name != "ar":
                continue
            w1 = np.linspace(-0.4, 0.6, d)
            run = runner(problem, T, cfg, 7, w_init=w1, coupled=True, record_reads=True)
            plain = runner(problem, T, cfg, 8, w_init=w1)  # one weight row
            batch = run_many(
                problem, T, cfg, [11, 12, 13], w_init=np.linspace(-1, 1, 3 * d).reshape(3, d),
                checkpoints=[0, 1, 50, T],
            )
            outputs = {
                "single.estimate": run.estimate,
                "single.iterates": run.iterates,
                "single.window": run.window,
                "single.sample_reads": run.sample_reads,
                "single.discarded": run.discarded_samples,
                "single.full": run.coupled.iterates_full,
                "single.bias": run.coupled.iterates_bias,
                "single.var": run.coupled.iterates_var,
                "plain.estimate": plain.estimate,
                "plain.iterates": plain.iterates,
                "batch.estimates": batch.estimates,
                "batch.finals": batch.final_iterates,
                "batch.checkpoint_excess": batch.checkpoint_excess,
                "batch.discarded": batch.discarded_samples,
            }
            out.update({f"{algo}/{chain_name}/{k}": _digest(v) for k, v in outputs.items()})
    return out


def _pinned_host() -> dict:
    return {"numpy": np.__version__, "blas": _blas_basename()}


class TestPinnedBits:
    """The outputs hash to the digests recorded in ``pinned_bits.json``.

    Bits are reproducible only within one numpy release and BLAS build, so
    another host skips.  ``PYTHONPATH=src python tests/test_kernel.py``
    records the digests anew.
    """

    @pytest.mark.parametrize("path", ["default", "numpy"])
    def test_outputs_match_the_pinned_digests(self, path):
        with open(PINNED) as fh:
            pinned = json.load(fh)
        if _pinned_host() != pinned["host"]:
            pytest.skip(f"digests recorded under {pinned['host']}, this host has {_pinned_host()}")
        with _numpy_loop() if path == "numpy" else contextlib.nullcontext():
            got = _pinned_outputs()
        assert got.keys() == pinned["digests"].keys()
        changed = sorted(k for k, v in got.items() if v != pinned["digests"][k])
        assert not changed, f"outputs changed: {changed}"


# ---------------------------------------------------------------------------
# Divergence on the compiled loop
# ---------------------------------------------------------------------------


@requires_kernel
class TestDivergenceLatency:
    CONFIGS = [
        SgdConfig(step_size=50.0),
        DataDropConfig(SgdConfig(step_size=50.0), drop_interval=2),
        ParallelConfig(SgdConfig(step_size=50.0), num_instances=4),
        ReplayConfig(buffer_size=10, step_size=50.0),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["sgd", "dd", "parallel", "er"])
    def test_stops_at_the_first_bad_update(self, cfg):
        problem = make_problem(GaussianARSpec(dim=3, epsilon=0.3), IndependentGaussian(0.1), w_star=np.ones(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow or invalid-value warning
            with pytest.raises(FloatingPointError, match=r"seed 1\b") as err:
                run_many(problem, 100_000, cfg, [1])
        samples = int(re.search(r"after (\d+) stream samples", str(err.value)).group(1))
        assert 0 < samples < 1000
        # the numpy loop names the same update
        with warnings.catch_warnings(), _numpy_loop():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError) as numpy_err:
                run_many(problem, 100_000, cfg, [1])
        assert str(numpy_err.value) == str(err.value)

    @pytest.mark.parametrize("scaled", [False, True], ids=["plain", "scaled"])
    def test_a_run_that_breaks_leaves_the_others_bits(self, scaled):
        rng = np.random.default_rng(9)
        R, K, d, n, lo, hi, alpha = 4, 2, 3, 40, 5, 30, 0.3
        X, table = np.arange(n * R * K).reshape(n, R, K), rng.uniform(-1, 1, (n * R * K, d))
        w_star = rng.uniform(-1, 1, d)
        xi = rng.standard_normal((n, R, K))
        xi[17, 2, 1] = np.inf  # run 2 turns non-finite at update 17, mid-segment
        W0 = rng.uniform(-1, 1, (R, K, d))
        outs = []
        for advance in (_kernel.load(d).advance, algorithms._descend):
            W, acc, iters = W0.copy(), np.zeros_like(W0), np.empty((n, *W0.shape))
            bad = np.full(R, -1, dtype=np.int64)
            with np.errstate(all="ignore"):
                advance(W, X, table, w_star, alpha, scaled, acc, lo, hi, bad, 0, iters, xi, 0.1)
            outs.append((W, acc, iters, bad))
        (W, acc, iters, bad), (Wn, accn, itersn, badn) = outs
        assert bad.tolist() == badn.tolist() == [-1, -1, 17, -1]  # both loops name the update that broke
        keep = [0, 1, 3]
        assert W[keep].tobytes() == Wn[keep].tobytes()
        assert acc[keep].tobytes() == accn[keep].tobytes()
        assert iters[:, keep].tobytes() == itersn[:, keep].tobytes()
        # the broken run stops at the update that broke it
        assert not np.isfinite(W[2]).all()
        assert iters[:17, 2].tobytes() == itersn[:17, 2].tobytes()

    def test_names_the_update_where_the_run_broke(self):
        # the count is the breaking update's own, not the end of its block:
        # a run that stops one sample earlier is finite on both loops
        problem = make_problem(GaussianARSpec(dim=3, epsilon=0.3), IndependentGaussian(0.1), w_star=np.ones(3))
        cfg = SgdConfig(step_size=50.0)
        with pytest.raises(FloatingPointError) as err:
            run_many(problem, 100_000, cfg, [1])
        n = int(re.search(r"after (\d+) stream samples", str(err.value)).group(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # neither loop warns of its overflows
            for loop in (contextlib.nullcontext, _numpy_loop):
                with loop():
                    assert np.isfinite(run_many(problem, n - 1, cfg, [1]).final_iterates).all()
                    assert np.isfinite(run_sgd(problem, n - 1, cfg, 1).iterates).all()
                    for T in (n, n + 1):  # past n too: the numpy loop steps again to find n
                        with pytest.raises(FloatingPointError, match=f"after {n} stream samples"):
                            run_many(problem, T, cfg, [1])
                        with pytest.raises(FloatingPointError, match=f"after {n} stream samples"):
                            run_sgd(problem, T, cfg, 1)  # a single run, which keeps its iterates


# ---------------------------------------------------------------------------
# The coupling identity
# ---------------------------------------------------------------------------


class TestCouplingIdentity:
    """full - w* = (bias - w*) + (var - w*) on every iterate of every runner.

    The three paths round separately, so the identity holds to a few ulps
    rather than bitwise; the bound is a thousand times tighter than
    ``check_identity``'s default.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        algo=st.sampled_from(["sgd", "dd", "parallel", "er"]),
        kind=st.sampled_from(["gaussian", "mc0", "mc3", "agnostic"]),
        d=st.integers(1, 6),
        T=st.integers(24, 300),
        step=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_identity_holds(self, algo, kind, d, T, step, seed):
        if algo == "er" or (kind == "mc0" and d == 1):
            kind = "gaussian"
        if kind == "mc3":
            d = 2
        if kind == "agnostic":
            problem = make_problem(make_agnostic_bias_chain(0.2), AgnosticDeterministic())
        else:
            chain = {
                "gaussian": lambda: GaussianARSpec(dim=d, epsilon=0.3),
                "mc0": lambda: make_mc0(d, 0.25),
                "mc3": lambda: make_mc3(2.0, 0.05),
            }[kind]()
            problem = make_problem(chain, IndependentGaussian(0.2), w_star=np.linspace(-0.5, 0.5, d))
        # a step small enough for every sample norm keeps the paths bounded
        step = step / max(1.0, problem.dim * 4.0)
        base = SgdConfig(step_size=step)
        runner, cfg = {
            "sgd": (run_sgd, base),
            "dd": (run_sgd_dd, DataDropConfig(base, drop_interval=3)),
            "parallel": (run_parallel_sgd, ParallelConfig(base, num_instances=3)),
            "er": (run_sgd_er, ReplayConfig(buffer_size=5, step_size=step)),
        }[algo]
        w1 = np.random.default_rng(seed).uniform(-1, 1, problem.dim)
        run = runner(problem, T, cfg, seed, w_init=w1, coupled=True)
        assert run.coupled.check_identity(tol=1e-12)


# ---------------------------------------------------------------------------
# Building and loading
# ---------------------------------------------------------------------------


@pytest.fixture
def reset_loader():
    """Drop this process's loaded kernel before and after the test."""
    _kernel._library.cache_clear()
    yield
    _kernel._library.cache_clear()


@pytest.fixture
def fresh_cache(reset_loader, monkeypatch, tmp_path):
    """An empty kernel cache for this test."""
    cache = tmp_path / "xdg"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    return cache / "markovsgd"


@pytest.fixture(scope="session")
def session_library():
    """The library this test session loaded, and its compiler's version memo."""
    path = _kernel.library().path
    return path, _kernel._compiler_version(shutil.which("cc"), os.path.dirname(path))[1]


def _seed_cache(cache, library):
    """Make the kernel cache ``cache`` hold copies of ``library``'s files."""
    cache.mkdir(parents=True, mode=0o700)
    for f in library:
        shutil.copy(f, cache)


@pytest.fixture
def seeded_cache(fresh_cache, session_library):
    """A kernel cache for this test that holds a copy of the session's
    library and compiler memo: loading from it builds nothing, for the
    tests that need a library but do not test its build."""
    _seed_cache(fresh_cache, session_library)
    return fresh_cache


def _load_in_subprocess(cache_home, count=1):
    """kernel_info() of ``count`` fresh interpreters started together."""
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_home), PYTHONPATH=SRC)
    code = "import json; from markovsgd.algorithms import kernel_info; print(json.dumps(kernel_info()))"
    procs = [
        subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True)
        for _ in range(count)
    ]
    outs = [p.communicate(timeout=120)[0] for p in procs]
    assert all(p.returncode == 0 for p in procs)
    return [json.loads(out.strip().splitlines()[-1]) for out in outs]


def _library_files(cache):
    """The cache's libraries; anything else there is a compiler-version memo."""
    names = sorted(os.listdir(cache))
    assert all(n.endswith(".so") or (n.startswith("cc-") and n.endswith(".version")) for n in names)
    return [n for n in names if n.endswith(".so")]


def _problem():
    return make_problem(make_mc3(2.0, 0.05), IndependentGaussian(0.1), w_star=np.array([0.5, -0.5]))


@requires_kernel
class TestLoader:
    def test_no_compiler_runs_numpy_with_one_warning(self, seeded_cache, monkeypatch, tmp_path):
        problem, cfg = _problem(), SgdConfig(step_size=0.3)
        want = run_many(problem, 500, cfg, [1, 2], checkpoints=[0, 250, 500])
        monkeypatch.setenv("PATH", str(tmp_path))  # no cc here
        _kernel._library.cache_clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = run_many(problem, 500, cfg, [1, 2], checkpoints=[0, 250, 500])
            run_many(problem, 500, ParallelConfig(cfg, 5), [3])
            info = kernel_info()
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "no C compiler" in str(caught[0].message)
        assert info == {"path": "numpy", "cache": None, "blas": None, "streams": "numpy", "fused_dims": [], "lanes": 1}
        assert got.estimates.tobytes() == want.estimates.tobytes()
        assert got.checkpoint_excess.tobytes() == want.checkpoint_excess.tobytes()

    def test_no_compiler_samples_the_same_paths_with_one_warning(self, seeded_cache, monkeypatch, tmp_path):
        finite, gaussian = make_mc0(6, 0.2), GaussianARSpec(dim=3, epsilon=0.2)
        seeds, splits = [4, 5, 6], (1, 40, 7)

        def paths():
            cursors = [
                FinitePathCursor(finite, [run_generators(s)[0] for s in seeds]),
                GaussianPathCursor(gaussian, [run_generators(s)[0] for s in seeds]),
                GaussianPathCursor(gaussian, [run_generators(s)[0] for s in seeds], start=[0.1, -0.0, 0.2]),
            ]
            return [np.concatenate([cur.take(n) for n in splits]).tobytes() for cur in cursors]

        want = paths()
        monkeypatch.setenv("PATH", str(tmp_path))  # no cc here
        _kernel._library.cache_clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = paths()
            paths()
            info = kernel_info()
        assert [w.category for w in caught] == [RuntimeWarning]
        message = str(caught[0].message)
        assert "no C compiler" in message
        assert "path samplers" in message and "update loop" in message
        assert info == {"path": "numpy", "cache": None, "blas": None, "streams": "numpy", "fused_dims": [], "lanes": 1}
        assert got == want

    def test_gaussian_paths_need_no_scipy_signal(self, tmp_path):
        # scipy.signal is the fallback's; the compiled path never imports it
        env = dict(os.environ, PYTHONPATH=SRC)
        code = (
            "import sys; from markovsgd.chains import GaussianARSpec, GaussianPathCursor, run_generators; "
            "GaussianPathCursor(GaussianARSpec(3, 0.2), [run_generators(1)[0]]).take(50); "
            "assert 'scipy.signal' not in sys.modules"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)

    @pytest.mark.parametrize("keep", [0.0, 0.01, 0.5, 0.99])
    def test_truncated_library_is_rebuilt(self, seeded_cache, keep):
        (built,) = _load_in_subprocess(seeded_cache.parent)
        assert built["path"] == "c"
        path = built["cache"]
        assert os.path.dirname(path) == str(seeded_cache)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(int(size * keep))  # loading it as it is would die of SIGBUS
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            info = kernel_info()  # this process never loaded the file
        assert info == built
        assert os.path.getsize(path) == size
        assert _library_files(seeded_cache) == [os.path.basename(path)]

    def test_probe_mismatch_falls_back(self, reset_loader, monkeypatch):
        problem, cfg = _problem(), DataDropConfig(SgdConfig(step_size=0.3), drop_interval=2)
        want = run_many(problem, 400, cfg, [5, 6])
        _kernel._library.cache_clear()
        monkeypatch.setattr(_kernel.Kernel, "dots", lambda self, a, b: np.vecdot(a, b) + 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = run_many(problem, 400, cfg, [5, 6])
            run_many(problem, 400, cfg, [7])
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "disagrees with np.vecdot" in str(caught[0].message)
        assert kernel_info()["path"] == "numpy"
        assert got.estimates.tobytes() == want.estimates.tobytes()

    @pytest.mark.parametrize("mismatch", [False, True], ids=["agrees", "disagrees"])
    def test_threads_build_once_and_probe_once(self, fresh_cache, monkeypatch, mismatch):
        builds, probes = [], []
        build, dots = _kernel._build, _kernel.Kernel.dots

        def counted_build(*args):
            builds.append(args)
            build(*args)

        def counted_dots(self, a, b):
            probes.append(a.shape)
            return dots(self, a, b) + (1.0 if mismatch else 0.0)

        monkeypatch.setattr(_kernel, "_build", counted_build)
        monkeypatch.setattr(_kernel.Kernel, "dots", counted_dots)
        n = 6
        barrier = threading.Barrier(n)
        loaded = []

        def load():
            barrier.wait(timeout=60)
            loaded.append(_kernel.load(3))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                threads = [threading.Thread(target=load) for _ in range(n)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(loaded) == n
        assert len(builds) == 1
        assert probes == [(64, 3)]  # one probe of dimension 3, in one call
        assert len(caught) == (1 if mismatch else 0)
        if mismatch:
            assert loaded == [None] * n
        else:
            assert loaded[0] is not None and all(k is loaded[0] for k in loaded)
        assert _library_files(fresh_cache) == [os.path.basename(_kernel.library().path)]

    def test_concurrent_builds_both_load(self, fresh_cache):
        first, second = _load_in_subprocess(fresh_cache.parent, count=2)
        assert first["path"] == second["path"] == "c"
        assert first["cache"] == second["cache"]
        # no temporary file is left behind, and the library loads here too
        assert _library_files(fresh_cache) == [os.path.basename(first["cache"])]
        assert kernel_info() == first

    def test_warm_cache_starts_no_process(self, seeded_cache, monkeypatch):
        assert kernel_info()["path"] == "c"  # loads the library and memo into this process
        _kernel._library.cache_clear()

        def no_process(*args, **kwargs):
            raise AssertionError("started a process")

        monkeypatch.setattr(subprocess, "run", no_process)
        assert kernel_info()["path"] == "c"

    def test_build_prunes_stale_files_and_warm_loads_prune_none(self, fresh_cache):
        fresh_cache.mkdir(parents=True, mode=0o700)
        month_ago = time.time() - 31 * 24 * 3600
        stale = [fresh_cache / "kernel-0123456789ab.so", fresh_cache / "cc-0123456789ab.version"]
        recent = fresh_cache / "kernel-ba9876543210.so"
        other = fresh_cache / "notes.txt"
        for f in (*stale, recent, other):
            f.write_bytes(b"")
        for f in (*stale, other):
            os.utime(f, (month_ago, month_ago))
        info = kernel_info()  # builds into the cache, then prunes it
        assert info["path"] == "c"
        assert not any(f.exists() for f in stale)
        assert recent.exists() and other.exists()
        # a warm load removes nothing and refreshes the library it loads
        for f in (*stale, info["cache"]):
            open(f, "ab").close()
            os.utime(f, (month_ago, month_ago))
        _kernel._library.cache_clear()
        assert kernel_info() == info
        assert all(f.exists() for f in stale)
        assert os.path.getmtime(info["cache"]) > time.time() - 3600

    def test_unusable_cache_home_falls_back_to_temp(self, reset_loader, session_library, monkeypatch, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(not_a_dir))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        _seed_cache(tmp_path / "tmp" / f"markovsgd-{os.getuid()}", session_library)
        info = kernel_info()
        assert info["path"] == "c"
        assert os.path.dirname(info["cache"]) == str(tmp_path / "tmp" / f"markovsgd-{os.getuid()}")

    def test_nothing_is_built_at_import(self, tmp_path):
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=SRC)
        code = (
            "import sys, markovsgd, markovsgd.experiments, markovsgd.acceptance; "
            "assert 'markovsgd._kernel' not in sys.modules"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
        assert os.listdir(tmp_path) == []


if __name__ == "__main__":
    with open(PINNED, "w") as fh:
        json.dump({"host": _pinned_host(), "digests": _pinned_outputs()}, fh, indent=1, sort_keys=True)
        fh.write("\n")
