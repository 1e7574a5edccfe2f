"""Stream SGD variants: windows, sample indexing, coupling, and batch parity."""

import dataclasses
import math
import re
import sys
import threading
import time
import tracemalloc
import types
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from markovsgd import algorithms
from markovsgd.algorithms import (
    BatchResult,
    DataDropConfig,
    ParallelConfig,
    ReplayConfig,
    SgdConfig,
    recommended_drop_interval,
    recommended_parallel_instances,
    resolve_drop_interval,
    run_lower_bound_trace,
    run_lower_bound_traces,
    run_many,
    run_parallel_sgd,
    run_sgd,
    run_sgd_dd,
    run_sgd_er,
    sgd_step,
    tail_window,
    theory_drop_prefix,
    _rounds,
    _Stream,
)
from markovsgd.chains import (
    GaussianARSpec,
    GaussianPathCursor,
    make_agnostic_bias_chain,
    make_cursor,
    make_iid_chain,
    make_mc0,
    make_mc3,
    make_mci,
    run_generators,
    _run_streams,
)
from markovsgd.regression import (
    AgnosticDeterministic,
    IndependentGaussian,
    Noiseless,
    Observation,
    excess_risk,
    make_problem,
)


def gaussian_problem(d=4, eps=0.3, sigma=0.1, w_star=None):
    w = np.linspace(0.1, 0.4, d) if w_star is None else np.asarray(w_star, float)
    noise = Noiseless() if sigma == 0.0 else IndependentGaussian(sigma=sigma)
    return make_problem(GaussianARSpec(dim=d, epsilon=eps), noise, w_star=w)


def finite_problem(sigma=0.1):
    noise = Noiseless() if sigma == 0.0 else IndependentGaussian(sigma=sigma)
    return make_problem(make_mc3(2.0, 0.05), noise, w_star=np.array([0.5, -0.5]))


# ---------------------------------------------------------------------------
# Windows and schedule helpers
# ---------------------------------------------------------------------------


class TestHelpers:
    @pytest.mark.parametrize(
        "n,f,expected",
        [
            (4, 0.5, (2, 2)),
            (10, 0.3, (7, 3)),
            (1, 1.0, (0, 1)),
            (5, 1.0, (0, 5)),
            (7, 0.5, (3, 4)),
        ],
    )
    def test_tail_window(self, n, f, expected):
        assert tail_window(n, f) == expected

    def test_tail_window_validation(self):
        with pytest.raises(ValueError):
            tail_window(10, 0.0)
        with pytest.raises(ValueError):
            tail_window(10, 1.5)
        with pytest.raises(ValueError):
            tail_window(0, 0.5)

    def test_drop_interval_goldens(self):
        assert recommended_drop_interval(7, 1024) == 350
        assert recommended_drop_interval(7, 10**6) == 700
        # formula check with an awkward log2
        assert recommended_drop_interval(3, 1000, 2.0) == 3 * math.ceil(
            2.0 * math.log2(1000)
        )

    def test_parallel_instances_goldens(self):
        assert recommended_parallel_instances(7, 2 * 10**5) == 742
        assert recommended_parallel_instances(26, 2 * 10**5) == 2756
        with pytest.raises(ValueError):
            recommended_parallel_instances(7, 1000, rate_constant=5.0)

    def test_theory_drop_prefix_golden(self):
        got = theory_drop_prefix(10, 0.01, 10**4)
        assert got == 597488
        want = math.ceil(
            2.0 / 0.01**2 * math.log(300000.0 * math.pi * 10 * 10**4 / 0.01)
        )
        assert got == want
        # far larger than any practical buffer, hence the drop_prefix=0 default
        assert got > 10**4

    def test_derived_drop_interval_uses_mixing_time(self):
        problem = finite_problem()  # tau_mix = 7
        cfg = DataDropConfig(SgdConfig(step_size=0.25))
        assert resolve_drop_interval(cfg, problem, 1024) == 350
        explicit = DataDropConfig(SgdConfig(step_size=0.25), drop_interval=11)
        assert resolve_drop_interval(explicit, problem, 1024) == 11

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SgdConfig(step_size=0.0)
        with pytest.raises(ValueError):
            SgdConfig(step_size=0.1, tail_fraction=0.0)
        with pytest.raises(ValueError):
            DataDropConfig(SgdConfig(step_size=0.1), drop_interval=0)
        with pytest.raises(ValueError):
            ParallelConfig(SgdConfig(step_size=0.1), num_instances=0)
        with pytest.raises(ValueError):
            ReplayConfig(buffer_size=0)
        with pytest.raises(ValueError):
            ReplayConfig(buffer_size=4, drop_prefix=-1)
        assert ReplayConfig(buffer_size=4, drop_prefix=2).span == 6


# ---------------------------------------------------------------------------
# Single-step reference
# ---------------------------------------------------------------------------


class TestSgdStep:
    def test_matches_formula(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal(6)
        x = rng.standard_normal(6)
        obs = Observation(x=x, y=0.7)
        got = sgd_step(w, obs, 0.3)
        want = w - 0.3 * (w @ x - 0.7) * x
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sgd_step(np.zeros(3), Observation(x=np.zeros(4), y=0.0), 0.1)

    def test_engine_agrees_step_by_step(self):
        # replay the engine's exact sample stream through the scalar step
        problem = gaussian_problem(d=5, eps=0.4, sigma=0.0, w_star=np.zeros(5))
        w_init = np.ones(5)
        run = run_sgd(problem, 3, SgdConfig(step_size=0.2), 31, w_init=w_init)
        X = GaussianPathCursor(problem.chain, [run_generators(31)[0]]).take(3)[:, 0, :]
        w = w_init
        for t, x in enumerate(X, start=1):
            w = sgd_step(w, Observation(x=x, y=0.0), 0.2)
            np.testing.assert_array_equal(run.iterates[t], w)


# ---------------------------------------------------------------------------
# Tail-averaged SGD
# ---------------------------------------------------------------------------


class TestSgd:
    def test_window_and_estimate_small(self):
        # T=4, f=1/2: average w_3 and w_4, never the post-final w_5
        problem = finite_problem()
        run = run_sgd(problem, 4, SgdConfig(step_size=0.3), 7, record_reads=True)
        assert run.window == (2, 2)
        assert run.iterates.shape == (5, 2)
        np.testing.assert_array_equal(
            run.estimate, (run.iterates[2] + run.iterates[3]) / 2.0
        )
        np.testing.assert_array_equal(run.sample_reads, [1, 2, 3, 4])
        assert run.discarded_samples == 0

    def test_estimate_matches_window_rows(self):
        problem = gaussian_problem()
        run = run_sgd(problem, 50, SgdConfig(step_size=0.2, tail_fraction=0.3), 19)
        lo, count = run.window
        assert (lo, count) == tail_window(50, 0.3)
        np.testing.assert_allclose(
            run.estimate, run.iterates[lo : lo + count].mean(axis=0), rtol=1e-13
        )

    def test_seed_sequence_reused_gives_the_same_run(self):
        problem = finite_problem()
        ss = np.random.SeedSequence(11)
        first = run_sgd(problem, 200, SgdConfig(step_size=0.25), ss)
        second = run_sgd(problem, 200, SgdConfig(step_size=0.25), ss)
        np.testing.assert_array_equal(first.estimate, second.estimate)
        assert ss.n_children_spawned == 0
        by_int = run_sgd(problem, 200, SgdConfig(step_size=0.25), 11)
        np.testing.assert_array_equal(first.estimate, by_int.estimate)

    def test_t_validation(self):
        with pytest.raises(ValueError):
            run_sgd(finite_problem(), 1, SgdConfig(step_size=0.1), 0)

    def test_keep_iterates_off(self):
        problem = finite_problem()
        full = run_sgd(problem, 20, SgdConfig(step_size=0.2), 3)
        slim = run_sgd(problem, 20, SgdConfig(step_size=0.2), 3, keep_iterates=False)
        assert slim.iterates is None
        np.testing.assert_array_equal(slim.estimate, full.estimate)


# ---------------------------------------------------------------------------
# Data-drop SGD
# ---------------------------------------------------------------------------


class TestDataDrop:
    def test_update_schedule_and_window(self):
        # T=10, K=3: updates on samples 3, 6, 9; sample 10 discarded.
        # n=3 updates, f=1/2: average the rows after updates 2 and 3.
        problem = finite_problem()
        cfg = DataDropConfig(SgdConfig(step_size=0.3), drop_interval=3)
        run = run_sgd_dd(problem, 10, cfg, 7, record_reads=True)
        np.testing.assert_array_equal(run.sample_reads, [3, 6, 9])
        assert run.discarded_samples == 1
        assert run.window == (2, 2)
        assert run.iterates.shape == (4, 2)
        np.testing.assert_array_equal(
            run.estimate, (run.iterates[2] + run.iterates[3]) / 2.0
        )

    def test_final_iterate_is_averaged(self):
        # unlike plain SGD the last row is inside the window
        problem = finite_problem()
        cfg = DataDropConfig(SgdConfig(step_size=0.3), drop_interval=2)
        run = run_sgd_dd(problem, 12, cfg, 11)
        lo, count = run.window
        assert lo + count == len(run.iterates)

    def test_k_exceeding_horizon(self):
        cfg = DataDropConfig(SgdConfig(step_size=0.3), drop_interval=11)
        with pytest.raises(ValueError):
            run_sgd_dd(finite_problem(), 10, cfg, 0)

    @pytest.mark.parametrize("problem", [gaussian_problem(), finite_problem()], ids=["gauss", "mc3"])
    def test_k1_equals_plain_sgd(self, problem):
        # with K=1 the two engines must agree bit for bit
        sgd = run_sgd(problem, 40, SgdConfig(step_size=0.25), 13)
        dd = run_sgd_dd(
            problem, 40, DataDropConfig(SgdConfig(step_size=0.25), drop_interval=1), 13
        )
        np.testing.assert_array_equal(dd.iterates, sgd.iterates)
        # windows differ by one row (dd averages through the final iterate)
        assert dd.window == (sgd.window[0] + 1, sgd.window[1])

    def test_state_consumption_is_contiguous(self):
        # T=11 and T=9 run the same three updates: the tail of the stream
        # beyond n_upd * K is never drawn
        problem = gaussian_problem()
        cfg = DataDropConfig(SgdConfig(step_size=0.3), drop_interval=3)
        a = run_sgd_dd(problem, 11, cfg, 5)
        b = run_sgd_dd(problem, 9, cfg, 5)
        np.testing.assert_array_equal(a.iterates, b.iterates)
        assert a.discarded_samples == 2
        assert b.discarded_samples == 0


# ---------------------------------------------------------------------------
# Parallel SGD
# ---------------------------------------------------------------------------


class TestParallel:
    def test_sample_grid_and_window(self):
        # T=12, K=3: rounds feed instances samples [[1,2,3],[4,5,6],...]
        problem = finite_problem()
        cfg = ParallelConfig(SgdConfig(step_size=0.3), num_instances=3)
        run = run_parallel_sgd(problem, 12, cfg, 7, record_reads=True)
        np.testing.assert_array_equal(
            run.sample_reads, np.arange(1, 13).reshape(4, 3)
        )
        np.testing.assert_array_equal(run.sample_reads[:, 1], [2, 5, 8, 11])
        assert run.window == (2, 2)
        assert run.iterates.shape == (5, 3, 2)
        est = (run.iterates[2] + run.iterates[3]).sum(axis=0) / 6.0
        np.testing.assert_allclose(run.estimate, est, rtol=1e-13)

    def test_horizon_truncated_to_round_multiple(self):
        problem = finite_problem()
        cfg = ParallelConfig(SgdConfig(step_size=0.3), num_instances=3)
        a = run_parallel_sgd(problem, 13, cfg, 5)
        b = run_parallel_sgd(problem, 12, cfg, 5)
        np.testing.assert_array_equal(a.iterates, b.iterates)
        assert a.discarded_samples == 1

    def test_too_many_instances(self):
        cfg = ParallelConfig(SgdConfig(step_size=0.3), num_instances=3)
        with pytest.raises(ValueError):
            run_parallel_sgd(finite_problem(), 5, cfg, 0)



# ---------------------------------------------------------------------------
# Experience-replay SGD
# ---------------------------------------------------------------------------


class TestReplay:
    def test_span_exceeding_horizon(self):
        cfg = ReplayConfig(buffer_size=8, drop_prefix=3)
        with pytest.raises(ValueError):
            run_sgd_er(gaussian_problem(), 10, cfg, 0)

    def test_window_and_estimate(self):
        # T=20, B=3, u=2: S=5, four buffers, last ceil(4/2)=2 averaged
        problem = gaussian_problem()
        cfg = ReplayConfig(buffer_size=3, drop_prefix=2, step_size=0.3)
        run = run_sgd_er(problem, 20, cfg, 9)
        assert run.iterates.shape == (4, 4)
        assert run.window == (2, 2)
        assert run.discarded_samples == 0
        np.testing.assert_array_equal(
            run.estimate, (run.iterates[2] + run.iterates[3]) / 2.0
        )

    def test_replayed_indices_stay_in_pool(self):
        # every replayed sample must come from its buffer's retained block
        problem = gaussian_problem()
        cfg = ReplayConfig(buffer_size=3, drop_prefix=2, step_size=0.3)
        run = run_sgd_er(problem, 20, cfg, 9, record_reads=True)
        reads = run.sample_reads.reshape(4, 3)
        for j, block in enumerate(reads):
            lo = j * 5 + 2  # u samples dropped at the head of buffer j+1
            assert np.all(block >= lo + 1)
            assert np.all(block <= (j + 1) * 5)

    def test_unit_buffer_reduces_to_sgd(self):
        # B=1, u=0 leaves a single candidate per buffer: the fresh sample
        problem = gaussian_problem(sigma=0.1)
        sgd = run_sgd(problem, 30, SgdConfig(step_size=0.3), 17)
        er = run_sgd_er(problem, 30, ReplayConfig(buffer_size=1, step_size=0.3), 17)
        np.testing.assert_array_equal(er.iterates, sgd.iterates[1:])

    def test_replay_reuses_buffer_samples(self):
        # with a large buffer some samples are replayed more than once
        problem = gaussian_problem()
        cfg = ReplayConfig(buffer_size=16, step_size=0.3)
        run = run_sgd_er(problem, 32, cfg, 3, record_reads=True)
        assert len(run.sample_reads) == 32
        assert len(np.unique(run.sample_reads)) < 32

    @pytest.mark.parametrize("loop", ["compiled", "numpy"])
    @pytest.mark.parametrize("B", [1, 3, 7])
    @pytest.mark.parametrize("u", [0, 2])
    def test_outputs_do_not_depend_on_how_buffers_fall_into_blocks(self, B, u, loop, monkeypatch):
        if loop == "numpy":
            monkeypatch.setattr(algorithms, "_load_kernel", lambda d: None)
        problem = gaussian_problem(sigma=0.1)
        cfg = ReplayConfig(buffer_size=B, drop_prefix=u, step_size=0.2)
        S = B + u
        T = 20 * S + 1
        starts = np.linspace(-0.5, 0.5, 12).reshape(3, 4)
        # by default the whole run is one block, so all but the last checkpoint fall inside it
        cks = [0, 1, 2 * S + 1, 7 * S, T]

        def outputs():
            run = run_sgd_er(problem, T, cfg, 5, w_init=starts[0], coupled=True, record_reads=True)
            batch = run_many(problem, T, cfg, [5, 6, 7], w_init=starts, checkpoints=cks, workers=1)
            return [
                a.tobytes()
                for a in (
                    run.estimate, run.iterates, run.coupled.iterates_bias, run.coupled.iterates_var,
                    run.sample_reads, batch.estimates, batch.final_iterates, batch.checkpoint_excess,
                )
            ]

        want = outputs()
        monkeypatch.setattr(algorithms, "_TILE_ELEMS", 1)  # one buffer per block, one run per tile
        assert outputs() == want

    @pytest.mark.parametrize("loop", ["compiled", "numpy"])
    def test_one_update_loop_call_per_block_and_per_checkpoint_inside_it(self, loop, monkeypatch):
        kern = algorithms._load_kernel(4)
        if loop == "compiled" and kern is None:
            pytest.skip("the compiled update loop is unavailable here")
        advance = kern.advance if loop == "compiled" else algorithms._descend
        calls = []

        def counted(W, X, *args):
            calls.append(len(X))
            return advance(W, X, *args)

        monkeypatch.setattr(algorithms, "_load_kernel", lambda d: types.SimpleNamespace(advance=counted))
        # 20 samples of d = 4 coordinates and noise: five buffers a block
        monkeypatch.setattr(algorithms, "_TILE_ELEMS", 20 * (4 + 1))
        cfg = ReplayConfig(buffer_size=3, drop_prefix=1, step_size=0.2)
        run_many(gaussian_problem(), 48, cfg, [5], checkpoints=[0, 9, 22, 30, 48])
        # blocks of buffers 1-5, 6-10 and 11-12; checkpoints end buffers 0, 2,
        # 5, 7 and 12, and buffers 2 and 7 end inside a block
        assert calls == [6, 9, 6, 9, 6]


def replay_finite_problem(kind):
    """A finite chain under agnostic outputs (the hard chain) or independent noise."""
    if kind == "agnostic":
        return make_problem(make_mci(4, 1 / 8, 1 / 16, (1, 0, 1, 0)), AgnosticDeterministic())
    return mc0_problem(sigma=0.2)


class TestReplayOnFiniteChains:
    """Replay reads a finite chain's states by the row numbers it reads a
    Gaussian block's samples by, with the same contracts (batches against
    single runs: ``TestSingleRow``; coupling: ``TestFixedPointAndCoupling``)."""

    CFG = ReplayConfig(buffer_size=4, drop_prefix=1, step_size=0.2)
    SEEDS = [61, 62, 63, 64, 65]

    @staticmethod
    def _outputs(problem, T, cfg, seeds, **kwargs):
        d = problem.dim
        starts = np.linspace(-0.5, 0.5, len(seeds) * d).reshape(len(seeds), d)
        run = run_sgd_er(problem, T, cfg, seeds[0], w_init=starts[0], coupled=True, record_reads=True)
        batch = run_many(problem, T, cfg, seeds, w_init=starts, workers=1, **kwargs)
        return [
            a.tobytes()
            for a in (
                run.estimate, run.iterates, run.coupled.iterates_bias, run.coupled.iterates_var,
                run.sample_reads, batch.estimates, batch.final_iterates, batch.checkpoint_excess,
            )
        ]

    @pytest.mark.parametrize("kind", ["agnostic", "independent"])
    def test_compiled_and_numpy_loops_agree(self, kind, monkeypatch):
        problem = replay_finite_problem(kind)
        want = self._outputs(problem, 203, self.CFG, self.SEEDS, checkpoints=[0, 1, 50, 203])
        monkeypatch.setattr(algorithms, "_load_kernel", lambda d: None)
        assert self._outputs(problem, 203, self.CFG, self.SEEDS, checkpoints=[0, 1, 50, 203]) == want

    @pytest.mark.parametrize("loop", ["compiled", "numpy"])
    @pytest.mark.parametrize("kind", ["agnostic", "independent"])
    def test_outputs_do_not_depend_on_block_size(self, kind, loop, monkeypatch):
        if loop == "numpy":
            monkeypatch.setattr(algorithms, "_load_kernel", lambda d: None)
        problem = replay_finite_problem(kind)
        cfg = ReplayConfig(buffer_size=3, drop_prefix=2, step_size=0.2)
        T = 20 * 5 + 1
        want = self._outputs(problem, T, cfg, self.SEEDS[:3], checkpoints=[0, 1, 11, 35, T])
        monkeypatch.setattr(algorithms, "_TILE_ELEMS", 1)  # one buffer per block, one run per tile
        assert self._outputs(problem, T, cfg, self.SEEDS[:3], checkpoints=[0, 1, 11, 35, T]) == want

    @pytest.mark.parametrize("kind", ["agnostic", "independent"])
    def test_updates_on_the_states_it_reads_from_the_retained_pool(self, kind):
        # the reference: the run's path from its chain stream, and the update
        # w <- w - alpha (<x, w> - y) x on each read sample in turn
        problem = replay_finite_problem(kind)
        chain = problem.chain
        B, u, S, T = 4, 1, 5, 60
        run = run_sgd_er(problem, T, self.CFG, 7, w_init=np.zeros(problem.dim), record_reads=True)
        reads = run.sample_reads.reshape(-1, B)
        lo = (np.arange(len(reads)) * S + u)[:, None]
        assert np.all((reads > lo) & (reads <= lo + B))
        path = make_cursor(chain, [run_generators(7)[0]]).take(T)[:, 0]
        retained = (np.arange(T) % S) >= u  # the samples noise is drawn for, in stream order
        noise = np.zeros(T)
        if kind == "independent":
            noise[retained] = run_generators(7)[1].standard_normal(int(retained.sum()))
        w = np.zeros(problem.dim)
        for b, block in enumerate(reads):
            for t in block:
                x = chain.states[path[t - 1]]
                y = chain.outputs[path[t - 1]] if kind == "agnostic" else x @ problem.w_star + 0.2 * noise[t - 1]
                w = w - 0.2 * (x @ w - y) * x
            np.testing.assert_allclose(run.iterates[b], w, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# Exact fixed points and coupled decompositions
# ---------------------------------------------------------------------------


def _run_all_four(problem, seed, *, w_init, coupled):
    alpha = SgdConfig(step_size=0.3)
    return {
        "sgd": run_sgd(problem, 48, alpha, seed, w_init=w_init, coupled=coupled),
        "dd": run_sgd_dd(
            problem,
            48,
            DataDropConfig(alpha, drop_interval=3),
            seed,
            w_init=w_init,
            coupled=coupled,
        ),
        "parallel": run_parallel_sgd(
            problem,
            48,
            ParallelConfig(alpha, num_instances=4),
            seed,
            w_init=w_init,
            coupled=coupled,
        ),
        "er": run_sgd_er(
            problem,
            48,
            ReplayConfig(buffer_size=4, drop_prefix=2, step_size=0.3),
            seed,
            w_init=w_init,
            coupled=coupled,
        ),
    }


class TestFixedPointAndCoupling:
    def test_noiseless_start_at_optimum_is_exact(self):
        # w* is an exact fixed point: every iterate equals w* bit for bit
        w_star = np.array([0.3, -0.2, 0.1, 0.25])
        problem = gaussian_problem(sigma=0.0, w_star=w_star)
        runs = _run_all_four(problem, 23, w_init=w_star, coupled=False)
        np.testing.assert_array_equal(
            runs["sgd"].iterates, np.broadcast_to(w_star, (49, 4))
        )
        np.testing.assert_array_equal(
            runs["dd"].iterates, np.broadcast_to(w_star, (17, 4))
        )
        np.testing.assert_array_equal(
            runs["parallel"].iterates, np.broadcast_to(w_star, (13, 4, 4))
        )
        np.testing.assert_array_equal(
            runs["er"].iterates, np.broadcast_to(w_star, (8, 4))
        )
        for run in runs.values():
            np.testing.assert_allclose(run.estimate, w_star, rtol=1e-14)

    def test_coupled_decomposition_all_algorithms(self):
        problem = gaussian_problem(sigma=0.2)
        w1 = np.array([0.5, 0.0, -0.5, 0.2])
        runs = _run_all_four(problem, 29, w_init=w1, coupled=True)
        for name, run in runs.items():
            assert run.coupled is not None, name
            assert run.coupled.check_identity(tol=1e-9), name
            np.testing.assert_array_equal(run.coupled.iterates_full, run.iterates)

    def test_coupling_needs_iterates(self):
        with pytest.raises(ValueError):
            run_sgd(
                finite_problem(),
                10,
                SgdConfig(step_size=0.2),
                0,
                coupled=True,
                keep_iterates=False,
            )

    def test_coupling_does_not_disturb_the_run(self):
        # the bias and var paths are runs of their own, which leave the full one as it is
        problem = gaussian_problem(sigma=0.2)
        cfg = ReplayConfig(buffer_size=4, step_size=0.3)
        plain = run_sgd_er(problem, 40, cfg, 37)
        coupled = run_sgd_er(problem, 40, cfg, 37, coupled=True)
        np.testing.assert_array_equal(coupled.iterates, plain.iterates)
        np.testing.assert_array_equal(coupled.estimate, plain.estimate)

    @pytest.mark.parametrize("loop", ["compiled", "numpy"])
    @pytest.mark.parametrize("seed", [29, np.random.SeedSequence(29, spawn_key=(3,))], ids=["int", "seed-sequence"])
    @pytest.mark.parametrize(
        "kind,algo",
        [(k, a) for k in ("finite", "gaussian", "agnostic") for a in ("sgd", "dd", "parallel", "er")],
    )
    def test_coupled_paths_are_plain_runs_on_one_seed(self, kind, algo, seed, loop, monkeypatch):
        # bias: the noiseless problem from the same start; var: the problem from w*
        if loop == "numpy":
            monkeypatch.setattr(algorithms, "_load_kernel", lambda d: None)
        problem = {
            "finite": lambda: mc0_problem(sigma=0.2),
            "gaussian": lambda: gaussian_problem(sigma=0.2),
            "agnostic": lambda: make_problem(make_agnostic_bias_chain(0.25), AgnosticDeterministic()),
        }[kind]()
        base = SgdConfig(step_size=0.3)
        runner, cfg = {
            "sgd": (run_sgd, base),
            "dd": (run_sgd_dd, DataDropConfig(base, drop_interval=3)),
            "parallel": (run_parallel_sgd, ParallelConfig(base, num_instances=4)),
            "er": (run_sgd_er, ReplayConfig(buffer_size=4, drop_prefix=1, step_size=0.3)),
        }[algo]
        w1 = np.linspace(-0.5, 0.5, problem.dim)
        run = runner(problem, 60, cfg, seed, w_init=w1, coupled=True)
        plain = runner(problem, 60, cfg, seed, w_init=w1)
        bias = runner(dataclasses.replace(problem, noise=Noiseless()), 60, cfg, seed, w_init=w1)
        var = runner(problem, 60, cfg, seed, w_init=problem.w_star)
        assert run.coupled.iterates_full.tobytes() == run.iterates.tobytes() == plain.iterates.tobytes()
        assert run.coupled.iterates_bias.tobytes() == bias.iterates.tobytes()
        assert run.coupled.iterates_var.tobytes() == var.iterates.tobytes()
        assert run.coupled.check_identity(tol=1e-9)


# ---------------------------------------------------------------------------
# Batched runs
# ---------------------------------------------------------------------------


class TestRunMany:
    SEEDS = [101, 102, 103]

    @pytest.mark.parametrize(
        "cfg,runner",
        [
            (SgdConfig(step_size=0.3), run_sgd),
            (DataDropConfig(SgdConfig(step_size=0.3), drop_interval=3), run_sgd_dd),
            (ParallelConfig(SgdConfig(step_size=0.3), num_instances=4), run_parallel_sgd),
            (ReplayConfig(buffer_size=4, drop_prefix=2, step_size=0.3), run_sgd_er),
        ],
        ids=["sgd", "dd", "parallel", "er"],
    )
    def test_batch_matches_single_runs(self, cfg, runner):
        problem = gaussian_problem(sigma=0.1)
        batch = run_many(problem, 48, cfg, self.SEEDS)
        assert isinstance(batch, BatchResult)
        assert batch.estimates.shape == (3, 4)
        for i, seed in enumerate(self.SEEDS):
            single = runner(problem, 48, cfg, seed)
            np.testing.assert_array_equal(batch.estimates[i], single.estimate)

    def test_final_iterates_match_singles(self):
        problem = gaussian_problem(sigma=0.1)
        cfg = SgdConfig(step_size=0.3)
        batch = run_many(problem, 30, cfg, self.SEEDS)
        for i, seed in enumerate(self.SEEDS):
            single = run_sgd(problem, 30, cfg, seed)
            np.testing.assert_array_equal(batch.final_iterates[i], single.iterates[-1])

    def test_parallel_final_is_instance_mean(self):
        problem = gaussian_problem(sigma=0.1)
        cfg = ParallelConfig(SgdConfig(step_size=0.3), num_instances=4)
        batch = run_many(problem, 48, cfg, self.SEEDS)
        single = run_parallel_sgd(problem, 48, cfg, self.SEEDS[0])
        np.testing.assert_array_equal(
            batch.final_iterates[0], single.iterates[-1].mean(axis=0)
        )

    def test_checkpoint_excess_matches_iterates(self):
        problem = gaussian_problem(sigma=0.1)
        cfg = SgdConfig(step_size=0.3)
        batch = run_many(problem, 20, cfg, self.SEEDS, checkpoints=[0, 7, 20])
        np.testing.assert_array_equal(batch.checkpoint_steps, [0, 7, 20])
        assert batch.checkpoint_excess.shape == (3, 3)
        for i, seed in enumerate(self.SEEDS):
            single = run_sgd(problem, 20, cfg, seed)
            for c, t in enumerate([0, 7, 20]):
                want = excess_risk(problem, single.iterates[t])
                assert batch.checkpoint_excess[c, i] == want

    def test_replay_checkpoints_land_on_buffers(self):
        problem = gaussian_problem(sigma=0.1)
        cfg = ReplayConfig(buffer_size=5, step_size=0.3)
        batch = run_many(problem, 40, cfg, self.SEEDS, checkpoints=[0, 12, 40])
        single = run_sgd_er(problem, 40, cfg, self.SEEDS[0])
        # 12 samples = 2 whole buffers; 40 samples = all 8
        assert batch.checkpoint_excess[1, 0] == excess_risk(problem, single.iterates[1])
        assert batch.checkpoint_excess[2, 0] == excess_risk(problem, single.iterates[7])

    def test_unknown_config_type(self):
        with pytest.raises(TypeError):
            run_many(finite_problem(), 20, object(), [0, 1])

    def test_repeat_is_deterministic(self):
        problem = finite_problem()
        cfg = SgdConfig(step_size=0.3)
        a = run_many(problem, 25, cfg, self.SEEDS)
        b = run_many(problem, 25, cfg, self.SEEDS)
        np.testing.assert_array_equal(a.estimates, b.estimates)

    def test_per_run_initial_points(self):
        problem = gaussian_problem(sigma=0.1)
        cfg = SgdConfig(step_size=0.3)
        starts = np.array([[0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]])
        batch = run_many(problem, 20, cfg, [11, 12], w_init=starts)
        for i, seed in enumerate([11, 12]):
            single = run_sgd(problem, 20, cfg, seed, w_init=starts[i])
            np.testing.assert_array_equal(batch.estimates[i], single.estimate)

    @pytest.mark.parametrize("loop", ["compiled", "numpy"])
    def test_per_run_initial_points_parallel(self, loop, monkeypatch):
        # each run's K instances all start from that run's row
        if loop == "numpy":
            monkeypatch.setattr(algorithms, "_load_kernel", lambda d: None)
        problem = gaussian_problem(sigma=0.1)
        cfg = ParallelConfig(SgdConfig(step_size=0.3), num_instances=3)
        starts = np.array([[0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1], [-0.2, 0.0, 0.5, -0.1]])
        seeds = [11, 12, 13]
        batch = run_many(problem, 60, cfg, seeds, w_init=starts, checkpoints=[0, 30, 60])
        for i, seed in enumerate(seeds):
            single = run_many(problem, 60, cfg, [seed], w_init=starts[i], checkpoints=[0, 30, 60])
            assert batch.estimates[i].tobytes() == single.estimates[0].tobytes()
            assert batch.final_iterates[i].tobytes() == single.final_iterates[0].tobytes()
            assert batch.checkpoint_excess[:, i].tobytes() == single.checkpoint_excess[:, 0].tobytes()
            run = run_parallel_sgd(problem, 60, cfg, seed, w_init=starts[i])
            np.testing.assert_array_equal(run.iterates[0], np.tile(starts[i], (3, 1)))
            assert run.estimate.tobytes() == single.estimates[0].tobytes()


# ---------------------------------------------------------------------------
# Bad input fails at the entry
# ---------------------------------------------------------------------------

_CONFIGS = {
    run_sgd: SgdConfig(step_size=0.3),
    run_sgd_dd: DataDropConfig(SgdConfig(step_size=0.3), drop_interval=3),
    run_parallel_sgd: ParallelConfig(SgdConfig(step_size=0.3), num_instances=4),
    run_sgd_er: ReplayConfig(buffer_size=4, step_size=0.3),
}


class TestEntryChecks:
    def test_no_seeds(self):
        with pytest.raises(ValueError, match="at least one seed"):
            run_many(gaussian_problem(), 48, SgdConfig(step_size=0.3), [])

    @pytest.mark.parametrize("cfg", _CONFIGS.values(), ids=["sgd", "dd", "parallel", "er"])
    @pytest.mark.parametrize("shape", [(3,), (2, 4), (3, 4, 1), ()])
    def test_bad_start_shape_names_both_shapes(self, cfg, shape):
        problem = gaussian_problem()  # d = 4, three seeds below
        with pytest.raises(ValueError, match=re.escape("shape (4,) or (3, 4)")):
            run_many(problem, 48, cfg, [1, 2, 3], w_init=np.zeros(shape))
        with pytest.raises(ValueError, match=re.escape("shape (4,) or (3, 4)")):
            run_many(problem, 48, cfg, [1, 2, 3], w_init=np.zeros(shape), workers=2)
        runner = next(r for r, c in _CONFIGS.items() if c is cfg)
        with pytest.raises(ValueError, match=re.escape("shape (4,) or (1, 4)")):
            runner(problem, 48, cfg, 1, w_init=np.zeros(shape))

    @pytest.mark.parametrize("runner", _CONFIGS, ids=lambda r: r.__name__)
    def test_runner_rejects_another_algorithms_config(self, runner):
        want = type(_CONFIGS[runner]).__name__
        for other in _CONFIGS.values():
            if type(other) is not type(_CONFIGS[runner]):
                with pytest.raises(TypeError, match=f"{runner.__name__} takes a {want}"):
                    runner(gaussian_problem(), 48, other, 1)

    def test_runners_keep_their_names_and_docs(self):
        for runner, cfg in _CONFIGS.items():
            assert runner.__module__ == "markovsgd.algorithms"
            assert getattr(algorithms, runner.__name__) is runner
            assert runner.__doc__ and runner.__annotations__["config"] == type(cfg).__name__

    @pytest.mark.parametrize("cks", [[2000], [0, 1001]])
    def test_run_many_rejects_a_checkpoint_past_the_horizon(self, cks):
        with pytest.raises(ValueError, match=r"checkpoints must be sample counts in 0\.\.1000"):
            run_many(gaussian_problem(), 1000, SgdConfig(step_size=0.3), [1], checkpoints=cks)
        run_many(gaussian_problem(), 1000, SgdConfig(step_size=0.3), [1], checkpoints=[0, 1000])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_run_many_rejects_a_non_finite_start(self, value):
        start = [value, 0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="w_init must hold finite numbers"):
            run_many(gaussian_problem(), 50, SgdConfig(step_size=0.1), [1, 2], w_init=start)
        with pytest.raises(ValueError, match="w_init must hold finite numbers"):
            run_many(gaussian_problem(), 50, SgdConfig(step_size=0.1), [1, 2], w_init=[start, [0.0] * 4])

    @pytest.mark.parametrize("runner", _CONFIGS, ids=lambda r: r.__name__)
    def test_runner_rejects_a_non_finite_start(self, runner):
        for coupled in (False, True):
            with pytest.raises(ValueError, match="w_init must hold finite numbers"):
                runner(gaussian_problem(), 48, _CONFIGS[runner], 1, w_init=[0.0, math.nan, 0.0, 0.0], coupled=coupled)

    @pytest.mark.parametrize("T", [50.5, True, "50", None], ids=["fraction", "bool", "string", "none"])
    def test_run_many_rejects_a_non_integer_horizon(self, T):
        with pytest.raises(ValueError, match="T must be an integer"):
            run_many(gaussian_problem(), T, SgdConfig(step_size=0.1), [1, 2])

    @pytest.mark.parametrize("runner", _CONFIGS, ids=lambda r: r.__name__)
    def test_runner_rejects_a_non_integer_horizon(self, runner):
        for T in (48.5, True):
            with pytest.raises(ValueError, match="T must be an integer"):
                runner(gaussian_problem(), T, _CONFIGS[runner], 1)

    def test_an_integral_float_horizon_reads_as_its_integer(self):
        cfg = SgdConfig(step_size=0.1)
        assert run_many(gaussian_problem(), 50.0, cfg, [1]).estimates.tobytes() == (
            run_many(gaussian_problem(), 50, cfg, [1]).estimates.tobytes()
        )
        assert run_sgd(gaussian_problem(), 50.0, cfg, 1).iterates.tobytes() == (
            run_sgd(gaussian_problem(), 50, cfg, 1).iterates.tobytes()
        )

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_sgd_config_rejects_a_non_finite_step_size(self, value):
        with pytest.raises(ValueError, match="step_size must be a finite number"):
            SgdConfig(step_size=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_data_drop_config_rejects_a_non_finite_log_constant(self, value):
        with pytest.raises(ValueError, match="log_constant must be a finite number"):
            DataDropConfig(SgdConfig(step_size=0.3), log_constant=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_replay_config_rejects_a_non_finite_step_size(self, value):
        with pytest.raises(ValueError, match="step_size must be a finite number"):
            ReplayConfig(buffer_size=4, step_size=value)

    @pytest.mark.parametrize("value", [True, "0.5", math.nan, 1], ids=["bool", "string", "nan", "int"])
    @pytest.mark.parametrize(
        "make,name",
        [
            (lambda v: SgdConfig(step_size=v), "step_size"),
            (lambda v: SgdConfig(step_size=0.1, tail_fraction=v), "tail_fraction"),
            (lambda v: DataDropConfig(SgdConfig(step_size=0.1), log_constant=v), "log_constant"),
            (lambda v: ReplayConfig(buffer_size=4, step_size=v), "step_size"),
            (lambda v: ReplayConfig(buffer_size=4, tail_buffer_fraction=v), "tail_buffer_fraction"),
            (lambda v: GaussianARSpec(dim=3, epsilon=v), "epsilon"),
            (lambda v: IndependentGaussian(sigma=v), "sigma"),
        ],
        ids=["sgd-step", "sgd-tail", "dd-log-constant", "er-step", "er-tail", "ar-epsilon", "noise-sigma"],
    )
    def test_real_fields_are_checked_where_they_are_built(self, make, name, value):
        # a bool, a string or NaN is an error at construction; 1 reads as 1.0
        if type(value) is int:
            got = getattr(make(value), name)
            assert type(got) is float and got == 1.0
        else:
            with pytest.raises(ValueError, match=f"{name} must be a finite number"):
                make(value)


# ---------------------------------------------------------------------------
# Agnostic fixed point of the averaged iterate
# ---------------------------------------------------------------------------


class TestAgnosticEstimates:
    def test_memoryless_stream_centers_on_optimum(self):
        # at eps = 1/2 the chain is iid, so tail-averaged SGD is unbiased
        chain = make_agnostic_bias_chain(0.5)
        problem = make_problem(chain, AgnosticDeterministic())
        batch = run_many(problem, 2000, SgdConfig(step_size=0.1), range(300))
        mean = batch.estimates.mean()
        se = batch.estimates.std(ddof=1) / math.sqrt(300)
        assert abs(mean - (-0.2)) < 5 * se

    def test_correlated_stream_is_biased(self):
        # at eps = 1/4 the estimate concentrates away from the optimum
        chain = make_agnostic_bias_chain(0.25)
        problem = make_problem(chain, AgnosticDeterministic())
        batch = run_many(problem, 2000, SgdConfig(step_size=0.1), range(300))
        mean = batch.estimates.mean()
        se = batch.estimates.std(ddof=1) / math.sqrt(300)
        asymptote = 0.5 * (0.1 - 2.0) / (2.0 * 0.1 + 5.0)
        assert abs(mean - asymptote) < 5 * se
        assert abs(mean - (-0.2)) > 10 * se

    def test_iid_companion_matches_memoryless(self):
        # make_iid_chain of the eps=1/4 chain has the same stationary law,
        # so plain SGD on it matches the eps=1/2 construction statistically
        chain = make_iid_chain(make_agnostic_bias_chain(0.25))
        problem = make_problem(chain, AgnosticDeterministic())
        batch = run_many(problem, 2000, SgdConfig(step_size=0.1), range(300))
        mean = batch.estimates.mean()
        se = batch.estimates.std(ddof=1) / math.sqrt(300)
        assert abs(mean - (-0.2)) < 5 * se


# ---------------------------------------------------------------------------
# Contraction traces
# ---------------------------------------------------------------------------


class TestLowerBoundTrace:
    def _problem(self, d=4, eps=0.9):
        return make_problem(
            GaussianARSpec(dim=d, epsilon=eps), Noiseless(), w_star=np.zeros(d)
        )

    def test_one_step_identity(self):
        problem = self._problem()
        e1 = np.eye(4)[0]
        trace = run_lower_bound_trace(problem, 400, 0.04, 3, w_init=e1)
        assert trace.gammas[0] == 1.0
        assert trace.alphas.shape == (400,)
        assert trace.gammas.shape == (401,)
        assert trace.identity_residuals().max() <= 1e-12

    def test_gamma_contracts_monotonically(self):
        # eta ||X||^2 stays far below 2, so every step shrinks the distance
        problem = self._problem()
        trace = run_lower_bound_trace(problem, 800, 0.04, 5, w_init=np.eye(4)[0])
        assert np.all(np.diff(trace.gammas) <= 0.0)
        assert trace.gammas[-1] < trace.gammas[0]
        assert 0.001 < trace.zeta < 0.2

    def test_alpha_recorded_before_update(self):
        # alpha_1 uses the initial point, so it is reproducible by hand
        problem = self._problem()
        w1 = np.array([0.5, 0.5, -0.5, 0.5])
        trace = run_lower_bound_trace(problem, 5, 0.04, 11, w_init=w1)
        X = GaussianPathCursor(problem.chain, [run_generators(11)[0]]).take(5)[:, 0, :]
        assert trace.alphas[0] == np.vecdot(X[0], w1 - problem.w_star)
        np.testing.assert_allclose(trace.x_sq_norms, (X**2).sum(axis=1), rtol=1e-12)

    def test_regime_warnings(self):
        problem = self._problem()
        with pytest.warns(UserWarning):
            run_lower_bound_trace(problem, 50, 0.1, 0)  # eta too large
        with pytest.warns(UserWarning):
            run_lower_bound_trace(self._problem(eps=0.5), 50, 0.04, 0)  # eps^2 <= 1/2

    def test_requires_noiseless_gaussian(self):
        noisy = gaussian_problem(d=4, eps=0.9, sigma=0.1, w_star=np.zeros(4))
        with pytest.raises(ValueError):
            run_lower_bound_trace(noisy, 50, 0.04, 0)
        with pytest.raises(ValueError):
            run_lower_bound_trace(finite_problem(sigma=0.0), 50, 0.04, 0)

    @pytest.mark.parametrize("eta", [math.nan, math.inf, 0.0, -0.04, True, "0.04"],
                             ids=["nan", "inf", "zero", "negative", "bool", "string"])
    def test_rejects_an_eta_that_is_not_a_positive_number(self, eta):
        problem = self._problem()
        with pytest.raises(ValueError, match="eta must be"):
            run_lower_bound_trace(problem, 50, eta, 0)
        with pytest.raises(ValueError, match="eta must be"):
            run_lower_bound_traces(problem, 50, eta, [0, 1])

    @pytest.mark.parametrize("T", [0, -3, 50.5, True], ids=["zero", "negative", "fraction", "bool"])
    def test_rejects_a_horizon_that_is_not_a_positive_integer(self, T):
        problem = self._problem()
        with pytest.raises(ValueError, match="T must be"):
            run_lower_bound_trace(problem, T, 0.04, 0)
        with pytest.raises(ValueError, match="T must be"):
            run_lower_bound_traces(problem, T, 0.04, [0, 1])

    @pytest.mark.parametrize("w_init", [1.0, [1.0], np.ones((3, 4))], ids=["scalar", "one-entry", "three-rows"])
    def test_rejects_a_start_of_another_shape(self, w_init):
        problem = self._problem()  # d = 4
        with pytest.raises(ValueError, match=re.escape("w_init must have shape (4,)")):
            run_lower_bound_trace(problem, 50, 0.04, 0, w_init=w_init)
        with pytest.raises(ValueError, match=re.escape("w_init must have shape (4,) or (2, 4)")):
            run_lower_bound_traces(problem, 50, 0.04, [0, 1], w_init=w_init)

    def test_rejects_a_non_finite_start(self):
        problem = self._problem()
        with pytest.raises(ValueError, match="w_init must hold finite numbers"):
            run_lower_bound_trace(problem, 50, 0.04, 0, w_init=[math.nan, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="w_init must hold finite numbers"):
            run_lower_bound_traces(problem, 50, 0.04, [0, 1], w_init=[[0.0] * 4, [0.0, math.inf, 0.0, 0.0]])

    def test_rejects_an_empty_seed_list(self):
        with pytest.raises(ValueError, match="at least one seed"):
            run_lower_bound_traces(self._problem(), 50, 0.04, [])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:outside the proof regime:UserWarning")
    def test_a_diverging_trace_raises(self):
        # eta = 50 blows up every run from a unit start: gamma overflows after
        # 137 samples on seed 1 and after 126 on seed 3
        problem = self._problem(d=3)
        e1 = np.eye(3)[0]
        message = re.escape("run with seed 1 diverged: gamma = ||w - w*|| overflowed after 137 stream samples")
        with pytest.raises(FloatingPointError, match=f"^{message}$"):
            run_lower_bound_trace(problem, 2000, 50.0, 1, w_init=e1)
        # seed 7 starts at w* and never moves; seed 1 is the first to fail in
        # seed order, though seed 3 fails sooner
        with pytest.raises(FloatingPointError, match=f"^{message}$"):
            run_lower_bound_traces(problem, 2000, 50.0, [7, 1, 3], w_init=[np.zeros(3), e1, e1])
        # one sample sooner the trace is finite
        trace = run_lower_bound_trace(problem, 136, 50.0, 1, w_init=e1)
        assert np.isfinite(trace.gammas).all() and np.isfinite(trace.alphas).all()

    def test_a_diverging_trace_raises_without_numeric_warnings(self):
        # the overflow on the way is not a signal of its own: the raise is
        problem = self._problem(d=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "outside the proof regime", UserWarning)
            message = "run with seed 1 diverged: gamma = ||w - w*|| overflowed after 137 "
            with pytest.raises(FloatingPointError, match=f"^{re.escape(message)}"):
                run_lower_bound_traces(problem, 2000, 50.0, [1], w_init=np.eye(3)[0])

    @pytest.mark.filterwarnings("ignore:outside the proof regime:UserWarning")
    @pytest.mark.parametrize(
        "budget,takes",
        [(None, [(1 << 18) // 3]), (3 * 100, [100, 100]), (3 * 137, [137]), (3 * 136, [136, 136])],
        ids=["default", "100", "137", "136"],
    )
    def test_a_diverging_trace_stops_after_the_block_it_diverged_in(self, budget, takes, monkeypatch):
        # gamma overflows after 137 samples (as above), so of T = 10**5 the
        # trace takes the blocks up to the one holding sample 137: blocks of
        # 2**18 // 3 samples of d = 3 by default, or of 100, 137 or 136
        if budget is not None:
            monkeypatch.setattr(algorithms, "_TILE_ELEMS", budget)
        calls = []
        take = GaussianPathCursor.take
        monkeypatch.setattr(GaussianPathCursor, "take", lambda cursor, n: calls.append(n) or take(cursor, n))
        message = "run with seed 1 diverged: gamma = ||w - w*|| overflowed after 137 stream samples"
        with pytest.raises(FloatingPointError, match=f"^{re.escape(message)}$"):
            run_lower_bound_traces(self._problem(d=3), 10**5, 50.0, [1], w_init=np.eye(3)[0])
        assert calls == takes

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:outside the proof regime:UserWarning")
    def test_a_diverging_trace_names_what_overflowed(self):
        problem = self._problem(d=3)
        e1 = np.eye(3)[0]
        # at eta = 50 gamma overflows after 137 samples, and the iterate,
        # which run_many's SGD checks, only after 265
        with pytest.raises(FloatingPointError, match=re.escape(": gamma = ||w - w*|| overflowed after 137 ")):
            run_lower_bound_trace(problem, 2000, 50.0, 1, w_init=e1)
        with pytest.raises(FloatingPointError, match=": non-finite iterate after 265 "):
            run_many(problem, 2000, SgdConfig(50.0), [1], w_init=e1)
        # at eta = 1e308 the first step overflows the iterate itself
        for run in (
            lambda: run_lower_bound_trace(problem, 2000, 1e308, 1, w_init=10 * e1),
            lambda: run_many(problem, 2000, SgdConfig(1e308), [1], w_init=10 * e1),
        ):
            with pytest.raises(FloatingPointError, match=": non-finite iterate after 1 stream samples$"):
                run()

    def test_takes_one_start_per_run(self):
        problem = self._problem()
        starts = np.eye(4)[:2]
        _, gammas, _ = run_lower_bound_traces(problem, 20, 0.04, [5, 6], w_init=starts)
        for i, seed in enumerate([5, 6]):
            solo = run_lower_bound_trace(problem, 20, 0.04, seed, w_init=starts[i])
            assert gammas[:, i].tobytes() == solo.gammas.tobytes()

    def test_batch_matches_singles(self):
        problem = self._problem()
        alphas, gammas, xsq = run_lower_bound_traces(
            problem, 60, 0.04, [5, 6], w_init=np.eye(4)[0]
        )
        assert alphas.shape == (60, 2)
        assert gammas.shape == (61, 2)
        for i, seed in enumerate([5, 6]):
            solo = run_lower_bound_trace(problem, 60, 0.04, seed, w_init=np.eye(4)[0])
            np.testing.assert_array_equal(alphas[:, i], solo.alphas)
            np.testing.assert_array_equal(gammas[:, i], solo.gammas)
            np.testing.assert_array_equal(xsq[:, i], solo.x_sq_norms)


# ---------------------------------------------------------------------------
# Data layer: the per-run layouts against the stacked reference
# ---------------------------------------------------------------------------


def _stacked_noise(rngs, n):
    return np.stack([g[1].standard_normal(n) for g in rngs], axis=1)


class TestDataLayer:
    SEEDS = [41, 42, 43]

    @pytest.mark.parametrize(
        "chain",
        [make_mc3(2.0, 0.05), make_mc0(4, 0.1), make_mci(3, 0.1, 0.05, (1, 0, 1))],
        ids=["mc3", "mc0", "mci"],
    )
    def test_label_rows_match_vecdot_over_gathered_states(self, chain):
        w_star = np.linspace(-0.7, 0.6, chain.dim)
        problem = make_problem(chain, IndependentGaussian(0.1), w_star=w_star)
        stream = _Stream(problem, *_run_streams(self.SEEDS, (0, 1)))
        ref_noise = [run_generators(s) for s in self.SEEDS]
        idx = stream.cursor.take(48)
        labels = stream.labels()
        # a table stays 2-D, even where it has d entries (mc0 has S = d states)
        assert labels.shape == (1, len(chain.states))
        blocks = (idx, idx[3::4], idx.reshape(12, 4, 3).swapaxes(1, 2))
        for s in blocks:
            X = chain.states[s]
            np.testing.assert_array_equal(stream.table[s], X)
            np.testing.assert_array_equal(labels[0][s], np.vecdot(X, w_star))
        assert stream.sigma == 0.1
        np.testing.assert_array_equal(stream.noise(48), _stacked_noise(ref_noise, 48))
        # the noiseless problem keeps the clean labels and draws no noise
        clean = _Stream(dataclasses.replace(problem, noise=Noiseless()), *_run_streams(self.SEEDS, (0, 1)))
        np.testing.assert_array_equal(clean.labels(), labels)
        assert clean.sigma is None and clean.noise(48) is None

    def test_agnostic_labels_are_state_outputs(self):
        chain = make_agnostic_bias_chain(0.25)
        problem = make_problem(chain, AgnosticDeterministic())
        stream = _Stream(problem, *_run_streams([1, 2], (0, 1)))
        idx = stream.cursor.take(20)
        assert stream.noise(20) is None
        labels = stream.labels()
        assert labels.shape == (1, len(chain.states))
        np.testing.assert_array_equal(labels[0][idx], chain.outputs[idx])
        # the bias path's problem labels each state <x, w*> instead
        clean = _Stream(dataclasses.replace(problem, noise=Noiseless()), *_run_streams([1, 2], (0, 1)))
        np.testing.assert_array_equal(clean.labels()[0], np.vecdot(chain.states, problem.w_star))

    @pytest.mark.parametrize("kind", ["finite", "gaussian"])
    def test_blocks_reuse_the_streams_memory(self, kind):
        chain = make_mc0(4, 0.1) if kind == "finite" else GaussianARSpec(dim=3, epsilon=0.4)
        problem = make_problem(chain, IndependentGaussian(0.2), w_star=np.linspace(-0.5, 0.5, chain.dim))
        stream = _Stream(problem, *_run_streams(self.SEEDS, (0, 1)))
        ref = [run_generators(s) for s in self.SEEDS]
        cursor = make_cursor(chain, [g[0] for g in ref])
        blocks = []
        for n in (5, 9, 2, 2):  # the blocks grow once, then are reused
            s, xi = stream.states(n), stream.noise(n)
            want = cursor.take(n)  # a Gaussian block's vectors, or a finite chain's state indices
            np.testing.assert_array_equal(stream.table[s], want if kind == "gaussian" else chain.states[want])
            np.testing.assert_array_equal(xi, _stacked_noise(ref, n))
            blocks.append((s, xi, stream.table))
        (_, _, _), (s1, xi1, _), (s2, xi2, table2), (s3, _, table3) = blocks
        assert np.shares_memory(xi1, xi2)
        # a finite chain's states reuse the stream's block, and a Gaussian
        # block's row numbers are kept for the next block of the same size
        assert np.shares_memory(s1, s2) == (kind == "finite")
        assert np.shares_memory(s2, s3)
        # the Gaussian cursor's blocks, which are the table, are fresh
        assert np.shares_memory(table2, table3) == (kind == "finite")

    @pytest.mark.parametrize("loop", ["compiled", "numpy"])
    @pytest.mark.parametrize("algo", ["sgd", "dd", "parallel"])
    @pytest.mark.parametrize("samples", [0, 11], ids=["one-event-blocks", "uneven-blocks"])
    @pytest.mark.parametrize("kind", ["finite", "gaussian"])
    def test_outputs_do_not_depend_on_block_size(self, kind, algo, loop, samples, monkeypatch):
        if loop == "numpy":
            monkeypatch.setattr(algorithms, "_load_kernel", lambda d: None)
        problem = mc0_problem() if kind == "finite" else gaussian_problem(d=3)
        base = SgdConfig(step_size=0.2)
        cfg = {"sgd": base, "dd": DataDropConfig(base, drop_interval=3), "parallel": ParallelConfig(base, 4)}[algo]
        runner = {"sgd": run_sgd, "dd": run_sgd_dd, "parallel": run_parallel_sgd}[algo]
        T = 97
        starts = np.linspace(-0.5, 0.5, 9).reshape(3, 3)
        cks = [0, 1, 40, 41, T]

        def outputs():
            run = runner(problem, T, cfg, 5, w_init=starts[0], coupled=True, record_reads=True)
            batch = run_many(problem, T, cfg, [5, 6, 7], w_init=starts, checkpoints=cks, workers=1)
            return [
                a.tobytes()
                for a in (
                    run.estimate, run.iterates, run.coupled.iterates_bias, run.coupled.iterates_var,
                    run.sample_reads, batch.estimates, batch.final_iterates, batch.checkpoint_excess,
                )
            ]

        want = outputs()  # the whole run is one block
        # 0: a budget of one element, so one update (data drop) or one round
        # (parallel) per block; 11: blocks of 11 samples over 3 runs, each
        # sample a finite state or 3 coordinates, and noise; the last block
        # shorter
        per_sample = 2 if kind == "finite" else 3 + 1
        monkeypatch.setattr(algorithms, "_TILE_ELEMS", max(1, samples * 3 * per_sample))
        assert outputs() == want

    @pytest.mark.parametrize("kind", ["finite", "gaussian"])
    @pytest.mark.parametrize("coupled", [False, True], ids=["plain", "coupled"])
    def test_rounds_match_transposed_blocks(self, kind, coupled):
        if kind == "finite":
            chain = make_mc0(4, 0.1)
        else:
            chain = GaussianARSpec(dim=3, epsilon=0.4)
        w_star = np.linspace(-0.5, 0.5, chain.dim)
        problem = make_problem(chain, IndependentGaussian(0.2), w_star=w_star)
        R, K, d = len(self.SEEDS), 5, chain.dim
        stream = _Stream(problem, *_run_streams(self.SEEDS, (0, 1)))
        ref = [run_generators(s) for s in self.SEEDS]
        cursor = make_cursor(chain, [tr[0] for tr in ref])
        labels = stream.labels()
        # a coupled run's bias path reads the noiseless problem on the same seeds
        bias = _Stream(dataclasses.replace(problem, noise=Noiseless()), *_run_streams(self.SEEDS, (0, 1))) if coupled else None
        for nr in (3, 2):  # two consecutive blocks
            s, xi, _ = _rounds(stream, 0, nr, K)
            Xr = stream.table[s]
            if coupled:  # the same samples, with clean labels and no noise
                sb, xib, _ = _rounds(bias, 0, nr, K)
                Xb = bias.table[sb]
                Yb = np.vecdot(Xb, bias.labels()) if kind == "gaussian" else bias.labels()[0][sb]
                assert xib is None
            # the update loop's label rule: <x, w*> or the state's entry, plus sigma * xi
            clean = np.vecdot(Xr, labels) if kind == "gaussian" else labels[0][s]
            Y = clean + 0.2 * xi
            # the reference: stream-order vectors and labels, then transposed
            s = cursor.take(nr * K)
            X = s if kind == "gaussian" else chain.states[s]
            Yf = np.vecdot(X, w_star) + 0.2 * _stacked_noise(ref, nr * K)
            want_X = np.ascontiguousarray(X.reshape(nr, K, R, d).transpose(0, 2, 1, 3))
            want_Y = np.ascontiguousarray(Yf.reshape(nr, K, R).transpose(0, 2, 1))
            np.testing.assert_array_equal(Xr, want_X)
            assert Y.shape == (nr, R, K)
            np.testing.assert_array_equal(Y, want_Y)
            if coupled:
                np.testing.assert_array_equal(Xb, want_X)
                np.testing.assert_array_equal(Yb, np.vecdot(want_X, w_star))


# ---------------------------------------------------------------------------
# Worker-count invariance of run_many
# ---------------------------------------------------------------------------


class TestWorkers:
    SEEDS = [301, 302, 303, 304, 305]  # R = 5 does not split evenly
    CASES = [
        ("gaussian", SgdConfig(step_size=0.3)),
        ("gaussian", DataDropConfig(SgdConfig(step_size=0.3), drop_interval=3)),
        ("gaussian", ParallelConfig(SgdConfig(step_size=0.3), num_instances=4)),
        ("gaussian", ReplayConfig(buffer_size=4, drop_prefix=2, step_size=0.3)),
        ("finite", SgdConfig(step_size=0.3)),
        ("finite", DataDropConfig(SgdConfig(step_size=0.3), drop_interval=3)),
        ("finite", ParallelConfig(SgdConfig(step_size=0.3), num_instances=4)),
        ("finite", ReplayConfig(buffer_size=4, drop_prefix=2, step_size=0.3)),
    ]

    @staticmethod
    def _assert_same(pooled, serial):
        for field in ("estimates", "final_iterates", "checkpoint_steps", "checkpoint_excess"):
            want, got = getattr(serial, field), getattr(pooled, field)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), field
        assert pooled.discarded_samples == serial.discarded_samples

    @pytest.mark.parametrize("workers", [None, 2, 3])
    @pytest.mark.parametrize(
        "kind,cfg",
        CASES,
        ids=["sgd", "dd", "parallel", "er", "finite-sgd", "finite-dd", "finite-parallel", "finite-er"],
    )
    def test_pooled_equals_serial(self, kind, cfg, workers):
        problem = gaussian_problem(sigma=0.1) if kind == "gaussian" else finite_problem()
        d, R = problem.dim, len(self.SEEDS)
        if isinstance(cfg, ParallelConfig):
            w_init = np.full(d, 0.1)  # instances share one start per run
        else:
            w_init = np.linspace(-0.5, 0.5, R * d).reshape(R, d)
        kw = dict(w_init=w_init, checkpoints=[0, 9, 30, 48])
        serial = run_many(problem, 48, cfg, self.SEEDS, workers=1, **kw)
        threads = threading.enumerate()
        self._assert_same(run_many(problem, 48, cfg, self.SEEDS, workers=workers, **kw), serial)
        assert threading.enumerate() == threads  # no thread outlives the call

    def test_forced_numpy_loop_reaches_every_chunk(self, monkeypatch):
        problem, cfg = finite_problem(), SgdConfig(step_size=0.3)
        kw = dict(w_init=np.full(problem.dim, 0.1), checkpoints=[0, 9, 30, 48])
        compiled = run_many(problem, 48, cfg, self.SEEDS, workers=1, **kw)
        calls = []
        descend = algorithms._descend

        def counted(*args, **kwargs):
            calls.append(1)
            return descend(*args, **kwargs)

        monkeypatch.setattr(algorithms, "_load_kernel", lambda d: None)
        monkeypatch.setattr(algorithms, "_descend", counted)
        serial = run_many(problem, 48, cfg, self.SEEDS, workers=1, **kw)
        assert len(calls) == 3  # one block, one call per segment: updates 1-9, 10-30, 31-48
        calls.clear()
        pooled = run_many(problem, 48, cfg, self.SEEDS, workers=2, **kw)
        assert len(calls) == 6  # each chunk took the numpy loop, segment by segment
        self._assert_same(pooled, serial)
        self._assert_same(pooled, compiled)

    def test_more_workers_than_runs(self):
        problem = gaussian_problem(sigma=0.1)
        cfg = ReplayConfig(buffer_size=4, drop_prefix=2, step_size=0.3)
        seeds = self.SEEDS[:3]
        kw = dict(w_init=np.eye(4)[:3], checkpoints=[0, 12, 48])
        serial = run_many(problem, 48, cfg, seeds, **kw)
        self._assert_same(run_many(problem, 48, cfg, seeds, workers=4, **kw), serial)

    def test_pooled_without_checkpoints(self):
        problem = gaussian_problem(sigma=0.1)
        cfg = SgdConfig(step_size=0.3)
        serial = run_many(problem, 30, cfg, self.SEEDS[:3])
        pooled = run_many(problem, 30, cfg, self.SEEDS[:3], workers=2)
        assert pooled.checkpoint_steps is None and pooled.checkpoint_excess is None
        assert pooled.estimates.tobytes() == serial.estimates.tobytes()

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True, False, "2"])
    def test_invalid_worker_counts_rejected(self, workers):
        with pytest.raises(ValueError):
            run_many(gaussian_problem(), 20, SgdConfig(step_size=0.3), self.SEEDS, workers=workers)

    def test_per_run_starts_need_one_row_per_seed(self):
        with pytest.raises(ValueError):
            run_many(
                gaussian_problem(), 20, SgdConfig(step_size=0.3), self.SEEDS,
                w_init=np.zeros((3, 4)), workers=2,
            )


# ---------------------------------------------------------------------------
# Tiles: run_many cuts a batch whose weights outgrow a cache into tiles
# ---------------------------------------------------------------------------


def _count_engine_calls(monkeypatch, before=None):
    """Count the engine's calls, each one tile's; ``before(seeds)`` runs
    ahead of each."""
    calls = []
    engine = algorithms._engine

    def counted(problem, T, config, seeds, **kwargs):
        calls.append(list(seeds))
        if before is not None:
            before(seeds)
        return engine(problem, T, config, seeds, **kwargs)

    monkeypatch.setattr(algorithms, "_engine", counted)
    return calls


class TestTiles:
    SEEDS = [401, 402, 403, 404, 405]

    @staticmethod
    def _weights_per_run(cfg, d):
        return (cfg.num_instances if isinstance(cfg, ParallelConfig) else 1) * d

    @pytest.mark.parametrize(
        "kind,cfg", TestWorkers.CASES,
        ids=["sgd", "dd", "parallel", "er", "finite-sgd", "finite-dd", "finite-parallel", "finite-er"],
    )
    def test_every_tiling_gives_the_single_runs_bits(self, kind, cfg, monkeypatch):
        problem = gaussian_problem(sigma=0.1) if kind == "gaussian" else finite_problem()
        d, R = problem.dim, len(self.SEEDS)
        starts = np.linspace(-0.5, 0.5, R * d).reshape(R, d)
        kw = dict(checkpoints=[0, 9, 30, 48])
        singles = [run_many(problem, 48, cfg, [s], w_init=starts[i], workers=1, **kw) for i, s in enumerate(self.SEEDS)]
        calls = _count_engine_calls(monkeypatch)
        want = None
        # tiles of R runs (one tile, or one per worker), of 3 runs (2 tiles) and of one run
        for runs, tiles in ((R, 1), (3, 2), (1, R)):
            monkeypatch.setattr(algorithms, "_TILE_ELEMS", runs * self._weights_per_run(cfg, d))
            for workers in (1, 2, 3):
                calls.clear()
                batch = run_many(problem, 48, cfg, self.SEEDS, w_init=starts, workers=workers, **kw)
                assert len(calls) == max(tiles, workers)
                assert sorted(s for c in calls for s in c) == self.SEEDS
                for i, one in enumerate(singles):
                    _assert_run_equal(batch, i, one)
                got = [batch.estimates.tobytes(), batch.final_iterates.tobytes(), batch.checkpoint_excess.tobytes()]
                assert want is None or got == want
                want = got

    def test_a_large_parallel_batch_is_tiled_and_each_tile_sizes_its_own_blocks(self, monkeypatch):
        # R * K * d = 64 * 4096 * 4 doubles: 4 tiles of 16 runs
        problem = make_problem(make_mc0(4, 0.2), IndependentGaussian(0.1), w_star=np.zeros(4))
        cfg = ParallelConfig(SgdConfig(0.2), 4096)
        seeds = list(range(64))
        sized = []
        block_sizes = algorithms._block_sizes
        monkeypatch.setattr(
            algorithms, "_block_sizes", lambda runs, per_sample: sized.append(runs) or block_sizes(runs, per_sample)
        )
        calls = _count_engine_calls(monkeypatch)
        for workers in (1, 2):
            calls.clear()
            sized.clear()
            run_many(problem, 16384, cfg, seeds, workers=workers)
            assert [len(c) for c in calls] == [16] * 4
            assert sized == [16] * 4  # a tile's runs, however many threads are busy

    def test_batches_that_fit_keep_one_chunk_per_worker(self, monkeypatch):
        problem = finite_problem()
        calls = _count_engine_calls(monkeypatch)
        sized = []
        block_sizes = algorithms._block_sizes
        monkeypatch.setattr(
            algorithms, "_block_sizes", lambda runs, per_sample: sized.append(runs) or block_sizes(runs, per_sample)
        )
        seeds = list(range(1000))
        run_many(problem, 40, ParallelConfig(SgdConfig(0.2), 20), seeds, workers=2)
        assert [len(c) for c in calls] == [500, 500]
        assert sized == [500, 500]  # each chunk's blocks sized for its own runs

    def test_each_thread_holds_sample_blocks_within_the_budget(self, monkeypatch):
        # finite SGD at R = 1000, d = 4 on two threads: two tiles of 500 runs,
        # whose streams keep a state and its noise per sample and run, so
        # blocks of 2**18 // (500 * 2) = 262 samples
        problem = make_problem(make_mc0(4, 1 / 8), IndependentGaussian(0.1), w_star=np.zeros(4))
        blocks = {}  # per stream: the bytes of each block it allocated
        block = _Stream._block

        def recorded(stream, name, n, dtype):
            out = block(stream, name, n, dtype)
            blocks.setdefault(stream, []).append((name, out.nbytes))
            return out

        monkeypatch.setattr(_Stream, "_block", recorded)
        run_many(problem, 2000, SgdConfig(0.25), list(range(1000)), workers=2)
        assert len(blocks) == 2
        for sizes in blocks.values():
            largest = {name: max(n for other, n in sizes if other == name) for name, _ in sizes}
            assert largest == {"states": 500 * 262 * 8, "noise": 500 * 262 * 8}
            assert sum(largest.values()) <= algorithms._TILE_ELEMS * 8

    @pytest.mark.parametrize("loop", ["compiled", "numpy"])
    def test_peak_memory_stays_that_of_one_tile(self, loop, monkeypatch):
        if loop == "compiled" and algorithms._load_kernel(4) is None:
            pytest.skip("the compiled update loop is unavailable here")
        if loop == "numpy":
            monkeypatch.setattr(algorithms, "_load_kernel", lambda d: None)
        # R * K * d = 64 * 4096 * 4 doubles: 4 tiles of 16 runs
        problem = make_problem(make_mc0(4, 0.2), IndependentGaussian(0.1), w_star=np.zeros(4))
        cfg = ParallelConfig(SgdConfig(0.2), 4096)
        R, K, d = 64, 4096, 4

        def peak(runs: int) -> int:
            tracemalloc.start()  # numpy reports its buffers to it
            try:
                run_many(problem, 16384, cfg, list(range(runs)), workers=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_many(problem, 16384, cfg, [0, 1], workers=1)  # the kernel loaded, its checks run
        one_tile, batch = peak(16), peak(R)
        # untiled, four tiles' runs peaked 3.4-3.5 times one tile's (28.0
        # against 8.0 MiB on the compiled loop, 77.1 against 22.8 on numpy's)
        assert batch < 1.25 * one_tile
        if loop == "compiled":
            # and W and its tail sums alone took this
            assert batch < 2 * R * K * d * 8

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_the_earlier_tile_names_its_first_diverging_run(self, workers, monkeypatch):
        # runs at w* are fixed points of the noiseless problem; the others
        # diverge: position 3 (tile 1 of four tiles of two runs), after 228
        # samples, and positions 4 and 5 (tile 2), seed 13 after 207
        problem = gaussian_problem(d=3, sigma=0.0)
        seeds = [10, 11, 12, 14, 13, 15, 16, 17]
        starts = np.tile(problem.w_star, (8, 1))
        starts[[3, 4, 5]] = 1.0
        monkeypatch.setattr(algorithms, "_TILE_ELEMS", 2 * 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the threads interleave as finely as they can
        try:
            for _ in range(5):
                # a checkpoint between the two: one batch would name seed 13
                with pytest.raises(FloatingPointError, match=r"seed 14\b.* after 228 "):
                    run_many(
                        problem, 4000, SgdConfig(step_size=50.0), seeds, w_init=starts, checkpoints=[220],
                        workers=workers,
                    )
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failed_tile_drops_the_tiles_not_started(self, workers, monkeypatch):
        problem = gaussian_problem(d=3, sigma=0.0)
        seeds = list(range(20, 28))
        starts = np.tile(problem.w_star, (8, 1))
        starts[0] = 1.0  # the first tile diverges
        monkeypatch.setattr(algorithms, "_TILE_ELEMS", 3)  # one run per tile
        started, first_failed = threading.Barrier(workers, timeout=10), threading.Event()

        def hold(tile_seeds):
            if tile_seeds[0] in seeds[:workers]:  # every thread has a tile before the first fails
                started.wait()
            if tile_seeds[0] != seeds[0]:  # and the others finish after it
                first_failed.wait(timeout=10)
                time.sleep(0.05)

        calls = _count_engine_calls(monkeypatch, before=hold)
        engine = algorithms._engine

        def failing(*args, **kwargs):
            try:
                return engine(*args, **kwargs)
            except FloatingPointError:
                first_failed.set()
                raise

        monkeypatch.setattr(algorithms, "_engine", failing)
        threads = threading.enumerate()
        with pytest.raises(FloatingPointError, match=r"seed 20\b"):
            run_many(problem, 4000, SgdConfig(step_size=50.0), seeds, w_init=starts, workers=workers)
        assert len(calls) == workers  # the tiles running when the first failed, and no more
        assert threading.enumerate() == threads  # no thread outlives the call


# ---------------------------------------------------------------------------
# One weight row: single runs against batches
# ---------------------------------------------------------------------------


def mc0_problem(sigma=0.1, w_star=(0.2, -0.1, 0.4)):
    noise = Noiseless() if sigma == 0.0 else IndependentGaussian(sigma=sigma)
    w = np.asarray(w_star, dtype=float)
    return make_problem(make_mc0(len(w), 0.25), noise, w_star=w)


_RUNNERS = {"sgd": run_sgd, "dd": run_sgd_dd, "er": run_sgd_er}


def _assert_run_equal(batch, i, one):
    """Run i of a batch equals the one-seed batch ``one`` bit for bit."""
    assert batch.estimates[i].tobytes() == one.estimates[0].tobytes()
    assert batch.final_iterates[i].tobytes() == one.final_iterates[0].tobytes()
    if one.checkpoint_excess is not None:
        assert batch.checkpoint_excess[:, i].tobytes() == one.checkpoint_excess[:, 0].tobytes()


class TestSingleRow:
    """A run on its own has one weight row; batches have more.  Both must
    agree bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(
            [
                ("gaussian", "sgd"),
                ("gaussian", "dd"),
                ("gaussian", "er"),
                ("mc3", "sgd"),
                ("mc3", "dd"),
                ("mc0", "sgd"),
                ("mc0", "dd"),
                ("mc3", "er"),
                ("mc0", "er"),
                ("mci", "er"),
            ]
        ),
        R=st.integers(1, 5),
        T=st.integers(8, 150),
        step=st.floats(0.05, 0.6),
        tail=st.sampled_from([0.3, 0.5, 1.0]),
        K=st.integers(1, 4),
        B=st.integers(1, 6),
        u=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 8),
        starts=st.none() | st.integers(0, 2**32 - 1),
        checkpoints=st.none() | st.lists(st.integers(0, 200), max_size=5),
    )
    def test_batch_equals_single_runs(self, case, R, T, step, tail, K, B, u, seed, starts, checkpoints):
        kind, algo = case
        problem = {
            "gaussian": lambda: gaussian_problem(d=3),
            "mc3": finite_problem,
            "mc0": mc0_problem,
            "mci": lambda: replay_finite_problem("agnostic"),
        }[kind]()
        if algo == "sgd":
            cfg = SgdConfig(step_size=step, tail_fraction=tail)
        elif algo == "dd":
            cfg = DataDropConfig(SgdConfig(step_size=step, tail_fraction=tail), drop_interval=K)
        else:
            cfg = ReplayConfig(buffer_size=B, step_size=step, drop_prefix=u, tail_buffer_fraction=tail)
        seeds = [seed + i for i in range(R)]
        if checkpoints is not None:  # run_many rejects checkpoints past T
            checkpoints = [min(c, T) for c in checkpoints]
        rows = None if starts is None else np.random.default_rng(starts).uniform(-1, 1, (R, problem.dim))
        batch = run_many(problem, T, cfg, seeds, w_init=rows, checkpoints=checkpoints)
        for i, s in enumerate(seeds):
            w1 = None if rows is None else rows[i]
            one = run_many(problem, T, cfg, [s], w_init=w1, checkpoints=checkpoints)
            _assert_run_equal(batch, i, one)
            single = _RUNNERS[algo](problem, T, cfg, s, w_init=w1)
            assert single.estimate.tobytes() == one.estimates[0].tobytes()
            assert single.iterates[-1].tobytes() == one.final_iterates[0].tobytes()

    @pytest.mark.parametrize(
        "cfg",
        [SgdConfig(step_size=0.3), DataDropConfig(SgdConfig(step_size=0.3), drop_interval=2)],
        ids=["sgd", "dd"],
    )
    def test_one_dimensional_weights(self, cfg):
        problem = make_problem(make_agnostic_bias_chain(0.2), AgnosticDeterministic())
        assert problem.dim == 1
        seeds, cks = [5, 6, 7], [0, 1, 30, 60]
        batch = run_many(problem, 60, cfg, seeds, checkpoints=cks)
        for i, s in enumerate(seeds):
            _assert_run_equal(batch, i, run_many(problem, 60, cfg, [s], checkpoints=cks))

    def test_blocks_longer_than_the_label_chunk(self):
        problem = finite_problem()
        cfg = SgdConfig(step_size=0.3)
        T, seeds = 2 * 4096 + 3, [13, 14]
        cks = [4095, 4096, 4097, T]
        batch = run_many(problem, T, cfg, seeds, checkpoints=cks)
        for i, s in enumerate(seeds):
            _assert_run_equal(batch, i, run_many(problem, T, cfg, [s], checkpoints=cks))

    @pytest.mark.parametrize(
        "kind,algo",
        [("gaussian", "sgd"), ("gaussian", "dd"), ("gaussian", "er"), ("mc3", "sgd"), ("mc3", "dd")],
    )
    def test_coupled_run_keeps_the_plain_path(self, kind, algo):
        # a coupled run's full path is the plain run
        problem = gaussian_problem(sigma=0.2) if kind == "gaussian" else finite_problem()
        cfg = {
            "sgd": SgdConfig(step_size=0.3),
            "dd": DataDropConfig(SgdConfig(step_size=0.3), drop_interval=3),
            "er": ReplayConfig(buffer_size=4, drop_prefix=2, step_size=0.3),
        }[algo]
        w1 = np.linspace(-0.5, 0.5, problem.dim)
        plain = _RUNNERS[algo](problem, 48, cfg, 17, w_init=w1)
        coupled = _RUNNERS[algo](problem, 48, cfg, 17, w_init=w1, coupled=True)
        assert coupled.iterates.tobytes() == plain.iterates.tobytes()
        assert coupled.estimate.tobytes() == plain.estimate.tobytes()
        assert coupled.coupled.check_identity(tol=1e-9)

    @pytest.mark.parametrize("kind", ["gaussian", "mc0"])
    def test_signed_zero_fixed_point(self, kind):
        w_star = np.array([0.0, -0.0, 0.3, -0.2])
        if kind == "gaussian":
            problem = gaussian_problem(sigma=0.0, w_star=w_star)
        else:
            problem = mc0_problem(sigma=0.0, w_star=w_star)
        seeds = [3, 4]
        for cfg, runner in (
            (SgdConfig(step_size=0.3), run_sgd),
            (DataDropConfig(SgdConfig(step_size=0.3), drop_interval=2), run_sgd_dd),
        ):
            batch = run_many(problem, 40, cfg, seeds, w_init=w_star)
            for i, s in enumerate(seeds):
                single = runner(problem, 40, cfg, s, w_init=w_star)
                np.testing.assert_array_equal(single.iterates, np.broadcast_to(w_star, single.iterates.shape))
                if kind == "mc0":
                    # basis-vector samples only ever subtract +0.0 from the -0.0 weight
                    assert np.signbit(single.iterates[:, 1]).all()
                assert batch.final_iterates[i].tobytes() == single.iterates[-1].tobytes()
                assert batch.estimates[i].tobytes() == single.estimate.tobytes()

    @pytest.mark.parametrize("kind", ["gaussian", "mc3"])
    def test_checkpoints_at_zero_one_and_horizon(self, kind):
        problem = gaussian_problem(sigma=0.1) if kind == "gaussian" else finite_problem()
        T, seeds, cks = 30, [8, 9], [0, 1, 30]
        cases = [
            (SgdConfig(step_size=0.3), run_sgd, list(cks)),
            (DataDropConfig(SgdConfig(step_size=0.3), drop_interval=1), run_sgd_dd, list(cks)),
        ]
        if kind == "gaussian":
            # one-sample buffers: checkpoint t > 0 is after-buffer iterate t - 1
            cases.append((ReplayConfig(buffer_size=1, step_size=0.3), run_sgd_er, [None, 0, T - 1]))
        for cfg, runner, rows in cases:
            batch = run_many(problem, T, cfg, seeds, checkpoints=cks)
            for i, s in enumerate(seeds):
                one = run_many(problem, T, cfg, [s], checkpoints=cks)
                single = runner(problem, T, cfg, s)
                want = [
                    excess_risk(problem, np.zeros(problem.dim) if r is None else single.iterates[r])
                    for r in rows
                ]
                assert one.checkpoint_excess[:, 0].tolist() == want
                assert batch.checkpoint_excess[:, i].tolist() == want


# ---------------------------------------------------------------------------
# Divergence
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestDivergence:
    CONFIGS = [
        SgdConfig(step_size=50.0),
        DataDropConfig(SgdConfig(step_size=50.0), drop_interval=2),
        ParallelConfig(SgdConfig(step_size=50.0), num_instances=4),
        ReplayConfig(buffer_size=10, step_size=50.0),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["sgd", "dd", "parallel", "er"])
    def test_diverging_run_raises(self, cfg):
        problem = gaussian_problem(d=3, sigma=0.1)
        with pytest.raises(FloatingPointError, match=r"seed 1\b.* after \d+ stream samples"):
            run_many(problem, 4000, cfg, [1, 2])

    def test_names_the_first_diverging_run(self):
        # seed 2 starts at w*, a fixed point of a noiseless run; seed 3 diverges
        problem = gaussian_problem(d=3, sigma=0.0)
        starts = np.stack([problem.w_star, np.ones(3)])
        with pytest.raises(FloatingPointError, match=r"seed 3\b"):
            run_many(problem, 4000, SgdConfig(step_size=50.0), [2, 3], w_init=starts)

    def test_single_run_raises(self):
        with pytest.raises(FloatingPointError, match=r"seed 1\b"):
            run_sgd(gaussian_problem(d=3, sigma=0.1), 4000, SgdConfig(step_size=50.0), 1)

    @pytest.mark.parametrize(
        "cfg,runner", zip(CONFIGS, (run_sgd, run_sgd_dd, run_parallel_sgd, run_sgd_er)), ids=["sgd", "dd", "parallel", "er"]
    )
    def test_a_coupled_run_raises_for_its_full_path_first(self, cfg, runner):
        problem = gaussian_problem(d=3, sigma=0.1)
        with pytest.raises(FloatingPointError) as plain:
            runner(problem, 4000, cfg, 1)
        with pytest.raises(FloatingPointError) as coupled:
            runner(problem, 4000, cfg, 1, coupled=True)
        assert str(coupled.value) == str(plain.value)

    def test_pooled_run_raises(self):
        problem = gaussian_problem(d=3, sigma=0.1)
        with pytest.raises(FloatingPointError, match=r"seed 1\b"):
            run_many(problem, 4000, SgdConfig(step_size=50.0), [1, 2], workers=2)
