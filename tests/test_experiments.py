"""Experiment configs, runners, CSV/JSON emission, sweeps, and the CLI."""

import json
import os
import tempfile
import time
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from markovsgd import experiments
from markovsgd.algorithms import (
    DataDropConfig,
    ParallelConfig,
    ReplayConfig,
    SgdConfig,
)
from markovsgd.chains import GaussianARSpec, run_generators
from markovsgd.cli import main
from markovsgd.experiments import (
    ExperimentConfig,
    build_algorithm,
    build_problem,
    config_hash,
    default_checkpoints,
    load_summary_csv,
    resolve_w_init,
    run_experiment,
    sweep,
)
from markovsgd.regression import Noiseless, make_problem


def sgd_doc(**overrides):
    doc = {
        "chain": {"kind": "mc3", "kappa": 2.0, "delta": 0.05},
        "noise": {"kind": "independent_gaussian", "sigma": 0.1},
        "w_star": [0.5, -0.5],
        "algorithms": [{"name": "sgd", "step_size": 0.25}],
        "T": 200,
        "num_runs": 5,
        "seed": 7,
        "checkpoints": [50, 100, 200],
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


class TestConfig:
    def test_default_checkpoints(self):
        assert default_checkpoints(1000) == [100, 150, 225, 338, 506, 759, 1000]
        assert default_checkpoints(100) == [100]
        assert default_checkpoints(150) == [100, 150]
        assert default_checkpoints(2) == [2]

    def test_from_json_single_algorithm_block(self):
        doc = sgd_doc()
        doc.pop("algorithms")
        doc["algorithm"] = {"name": "sgd", "step_size": 0.25}
        config = ExperimentConfig.from_json(doc)
        assert len(config.algorithms) == 1
        assert config.algorithms[0]["name"] == "sgd"

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(sgd_doc(T=1))
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(sgd_doc(num_runs=0))
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(sgd_doc(workers=0))
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(sgd_doc(algorithms=[]))
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(
                sgd_doc(algorithms=[{"name": "gradient_descent"}])
            )
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(sgd_doc(checkpoints=[100, 100]))
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(sgd_doc(checkpoints=[100, 50]))
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(sgd_doc(checkpoints=[100, 500]))
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(sgd_doc(checkpoints=[-1, 100]))

    def test_hash_ignores_presentation_fields(self):
        base = ExperimentConfig.from_json(sgd_doc())
        restyled = ExperimentConfig.from_json(
            sgd_doc(name="other", output="/tmp/x", workers=4, figure=True)
        )
        assert config_hash(base) == config_hash(restyled)

    def test_hash_tracks_semantic_fields(self):
        base = ExperimentConfig.from_json(sgd_doc())
        assert config_hash(base) != config_hash(ExperimentConfig.from_json(sgd_doc(seed=8)))
        assert config_hash(base) != config_hash(ExperimentConfig.from_json(sgd_doc(T=201)))

    def test_hash_ignores_series_labels(self):
        plain = ExperimentConfig.from_json(sgd_doc())
        labelled = ExperimentConfig.from_json(
            sgd_doc(algorithms=[{"name": "sgd", "step_size": 0.25, "label": "fast"}])
        )
        assert config_hash(plain) == config_hash(labelled)

    def test_hash_resolves_the_default_schedule(self):
        implicit = ExperimentConfig.from_json(sgd_doc(T=1000, checkpoints=None))
        explicit = ExperimentConfig.from_json(sgd_doc(T=1000, checkpoints=default_checkpoints(1000)))
        other = ExperimentConfig.from_json(sgd_doc(T=1000, checkpoints=[100, 1000]))
        assert config_hash(implicit) == config_hash(explicit)
        assert config_hash(implicit) != config_hash(other)

    def test_unknown_keys_rejected_at_load(self):
        with pytest.raises(ValueError, match="num_run.*allowed.*num_runs"):
            ExperimentConfig.from_json(sgd_doc(num_run=3))
        blocks = [{"name": "sgd", "step_size": 0.25}, {"name": "sgd_dd", "step_size": 0.25, "drop_intervall": 3}]
        with pytest.raises(ValueError, match="drop_intervall"):
            ExperimentConfig.from_json(sgd_doc(algorithms=blocks))


class TestBuildAlgorithm:
    def test_sgd(self):
        cfg = build_algorithm({"name": "sgd", "step_size": 0.25})
        assert cfg == SgdConfig(step_size=0.25, tail_fraction=0.5)

    def test_sgd_dd(self):
        cfg = build_algorithm({"name": "sgd_dd", "step_size": 0.25, "drop_interval": 7})
        assert isinstance(cfg, DataDropConfig)
        assert cfg.drop_interval == 7
        derived = build_algorithm({"name": "sgd_dd", "step_size": 0.25})
        assert derived.drop_interval is None
        assert derived.log_constant == 5.0

    def test_parallel(self):
        cfg = build_algorithm(
            {"name": "parallel_sgd", "step_size": 0.25, "num_instances": 8}
        )
        assert isinstance(cfg, ParallelConfig)
        assert cfg.num_instances == 8

    def test_replay(self):
        cfg = build_algorithm({"name": "sgd_er", "buffer_size": 100})
        assert cfg == ReplayConfig(
            buffer_size=100, step_size=0.5, drop_prefix=0, tail_buffer_fraction=0.5
        )

    def test_trace_returns_tagged_eta(self):
        assert build_algorithm({"name": "lower_bound_trace", "eta": 0.04}) == (
            "lower_bound_trace",
            0.04,
        )

    def test_unknown(self):
        with pytest.raises(ValueError):
            build_algorithm({"name": "adam"})

    def test_misspelt_key_rejected(self):
        # it would otherwise fall back to the K derived from the mixing time
        with pytest.raises(ValueError, match="drop_intervall.*allowed.*'drop_interval'"):
            build_algorithm({"name": "sgd_dd", "step_size": 0.25, "drop_intervall": 3})

    @pytest.mark.parametrize(
        "doc",
        [
            {"name": "sgd", "step_size": 0.25, "num_instances": 4},
            {"name": "parallel_sgd", "step_size": 0.25, "num_instances": 4, "buffer_size": 8},
            {"name": "sgd_er", "buffer_size": 8, "tail_fraction": 0.5},
            {"name": "lower_bound_trace", "eta": 0.04, "step_size": 0.04},
        ],
        ids=["sgd", "parallel", "er", "trace"],
    )
    def test_key_of_another_algorithm_rejected(self, doc):
        with pytest.raises(ValueError, match="allowed"):
            build_algorithm(doc)

    def test_label_allowed(self):
        cfg = build_algorithm({"name": "sgd", "step_size": 0.25, "label": "fast"})
        assert cfg == SgdConfig(step_size=0.25)


class TestBuildProblem:
    def test_explicit_w_star(self):
        problem = build_problem(ExperimentConfig.from_json(sgd_doc()))
        np.testing.assert_array_equal(problem.w_star, [0.5, -0.5])

    def test_agnostic(self):
        doc = sgd_doc(
            chain={"kind": "agnostic_bias", "epsilon": 0.25},
            noise={"kind": "agnostic"},
            w_star="agnostic",
        )
        problem = build_problem(ExperimentConfig.from_json(doc))
        np.testing.assert_allclose(problem.w_star, [-0.2], atol=1e-12)

    def test_agnostic_keyword_needs_agnostic_noise(self):
        with pytest.raises(ValueError):
            build_problem(ExperimentConfig.from_json(sgd_doc(w_star="agnostic")))

    def test_w_star_required(self):
        with pytest.raises(ValueError):
            build_problem(ExperimentConfig.from_json(sgd_doc(w_star=None)))


class TestResolveWInit:
    def _problem(self):
        return build_problem(ExperimentConfig.from_json(sgd_doc()))

    def test_zeros_rules(self):
        assert resolve_w_init(None, self._problem(), [0]) is None
        assert resolve_w_init("zeros", self._problem(), [0]) is None

    def test_w_star_rule(self):
        problem = self._problem()
        np.testing.assert_array_equal(
            resolve_w_init("w_star", problem, [0]), problem.w_star
        )

    def test_random_unit_rule(self):
        problem = self._problem()
        out = resolve_w_init("random_unit", problem, [11, 12])
        assert out.shape == (2, 2)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, rtol=1e-12)
        # per-run determinism through the dedicated init generator
        g = run_generators(11)[3].standard_normal(2)
        np.testing.assert_array_equal(out[0], g / np.linalg.norm(g))

    @pytest.mark.parametrize("criterion", [2, 3])
    def test_random_unit_rows_pin_replay_criteria_starts(self, criterion):
        # criteria 2 and 3 start from these rows: 20 seeds, d = 10
        from markovsgd.acceptance import _SEEDS

        d = 10
        seeds = [_SEEDS[criterion] + i for i in range(20)]
        problem = make_problem(GaussianARSpec(d, 0.01), Noiseless(), w_star=np.zeros(d))
        want = np.empty((len(seeds), d))
        for i, s in enumerate(seeds):
            g = run_generators(s)[3].standard_normal(d)
            want[i] = g / np.linalg.norm(g)
        np.testing.assert_array_equal(resolve_w_init("random_unit", problem, seeds), want)

    def test_vector_rule(self):
        out = resolve_w_init([0.1, 0.2], self._problem(), [0])
        np.testing.assert_array_equal(out, [0.1, 0.2])
        with pytest.raises(ValueError):
            resolve_w_init([0.1, 0.2, 0.3], self._problem(), [0])


# ---------------------------------------------------------------------------
# Experiment runs
# ---------------------------------------------------------------------------


class TestRunExperiment:
    def test_summary_and_files(self, tmp_path):
        config = ExperimentConfig.from_json(sgd_doc(output=str(tmp_path)))
        summaries = run_experiment(config)
        assert len(summaries) == 1
        s = summaries[0]
        assert s.algorithm == "sgd"
        np.testing.assert_array_equal(s.checkpoints, [50, 100, 200])
        assert s.mean_excess.shape == (3,)
        assert np.all(np.isfinite(s.mean_excess))
        assert np.all(s.stderr >= 0.0)
        assert np.all(s.min_excess <= s.mean_excess)
        assert np.all(s.mean_excess <= s.max_excess)
        assert s.num_runs == 5
        assert np.isfinite(s.estimator["mean_excess"])
        csv_path = tmp_path / "experiment_sgd.csv"
        json_path = tmp_path / "experiment_sgd.json"
        assert csv_path.exists() and json_path.exists()
        assert s.csv_path == str(csv_path)
        loaded = load_summary_csv(str(csv_path))
        np.testing.assert_array_equal(loaded["t"], s.checkpoints)
        np.testing.assert_array_equal(loaded["mean_excess"], s.mean_excess)
        np.testing.assert_array_equal(loaded["stderr"], s.stderr)
        meta = json.loads(json_path.read_text())
        assert meta["config_hash"] == s.config_hash
        assert meta["num_runs"] == 5

    def test_default_checkpoints_used(self):
        config = ExperimentConfig.from_json(sgd_doc(checkpoints=None))
        (s,) = run_experiment(config)
        np.testing.assert_array_equal(s.checkpoints, [100, 150, 200])

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiment(ExperimentConfig.from_json(sgd_doc(output=str(a))))
        run_experiment(ExperimentConfig.from_json(sgd_doc(output=str(b))))
        assert (a / "experiment_sgd.csv").read_bytes() == (
            b / "experiment_sgd.csv"
        ).read_bytes()

    def test_noiseless_at_optimum_is_flat_zero(self):
        doc = sgd_doc(noise={"kind": "noiseless"}, w_init="w_star")
        (s,) = run_experiment(ExperimentConfig.from_json(doc))
        np.testing.assert_array_equal(s.mean_excess, np.zeros(3))
        assert s.estimator["mean_excess"] == 0.0

    def test_duplicate_series_get_distinct_stems(self, tmp_path):
        doc = sgd_doc(
            output=str(tmp_path),
            algorithms=[
                {"name": "sgd", "step_size": 0.25},
                {"name": "sgd", "step_size": 0.25},
            ],
        )
        run_experiment(ExperimentConfig.from_json(doc))
        first = tmp_path / "experiment_sgd.csv"
        second = tmp_path / "experiment_sgd2.csv"
        assert first.exists() and second.exists()
        # identical blocks share seeds, so the series agree byte for byte
        assert first.read_bytes() == second.read_bytes()

    def test_series_labels_override_stems(self, tmp_path):
        doc = sgd_doc(
            output=str(tmp_path),
            algorithms=[{"name": "sgd", "step_size": 0.25, "label": "warm"}],
        )
        run_experiment(ExperimentConfig.from_json(doc))
        assert (tmp_path / "experiment_warm.csv").exists()

    def test_worker_pool_matches_serial(self, tmp_path):
        serial = tmp_path / "serial"
        pooled = tmp_path / "pooled"
        run_experiment(ExperimentConfig.from_json(sgd_doc(output=str(serial))))
        run_experiment(
            ExperimentConfig.from_json(sgd_doc(output=str(pooled), workers=2))
        )
        assert (serial / "experiment_sgd.csv").read_bytes() == (
            pooled / "experiment_sgd.csv"
        ).read_bytes()

    def test_relative_output_resolves_under_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MARKOVSGD_OUTPUT", str(tmp_path))
        run_experiment(ExperimentConfig.from_json(sgd_doc(output="nested/run")))
        assert (tmp_path / "nested" / "run" / "experiment_sgd.csv").exists()

    def test_figure_emitted(self, tmp_path):
        doc = sgd_doc(output=str(tmp_path), figure=True)
        run_experiment(ExperimentConfig.from_json(doc))
        svg = (tmp_path / "experiment.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_trace_series(self):
        doc = {
            "chain": {"kind": "gaussian_ar", "dim": 4, "epsilon": 0.9},
            "noise": {"kind": "noiseless"},
            "w_star": [0.0, 0.0, 0.0, 0.0],
            "w_init": "random_unit",
            "algorithms": [{"name": "lower_bound_trace", "eta": 0.04}],
            "T": 50,
            "num_runs": 4,
            "seed": 3,
            "checkpoints": [0, 25, 50],
        }
        (s,) = run_experiment(ExperimentConfig.from_json(doc))
        # excess is gamma_t^2 / d; unit-norm starts give exactly 1/4 at t=0
        assert s.mean_excess[0] == pytest.approx(0.25, rel=1e-12)
        assert s.mean_excess[2] < s.mean_excess[0]
        assert s.estimator["mean_excess"] == pytest.approx(s.mean_excess[2], rel=1e-12)


THREE_SERIES = (
    {"name": "sgd", "step_size": 0.25},
    {"name": "sgd_dd", "step_size": 0.25, "drop_interval": 3},
    {"name": "parallel_sgd", "step_size": 0.25, "num_instances": 4},
)


def trace_doc(**overrides):
    doc = {
        "chain": {"kind": "gaussian_ar", "dim": 3, "epsilon": 0.9},
        "noise": {"kind": "noiseless"},
        "w_star": [0.0, 0.0, 0.0],
        "w_init": "random_unit",
        "algorithms": [{"name": "lower_bound_trace", "eta": 0.04}, {"name": "sgd", "step_size": 0.1}],
        "T": 60,
        "seed": 3,
        "checkpoints": [0, 30, 60],
    }
    doc.update(overrides)
    return doc


def outputs(outdir: Path) -> dict:
    """Every file of a run: CSV bytes, and JSON summaries without run-specific fields."""
    files = {}
    for path in sorted(outdir.iterdir()):
        if path.suffix == ".json":
            doc = json.loads(path.read_text())
            del doc["wall_time_s"], doc["csv"]
            files[path.name] = doc
        else:
            files[path.name] = path.read_bytes()
    return files


def pooled_equals_serial(doc: dict, workers: int, root: Path) -> None:
    serial, pooled = root / "serial", root / "pooled"
    run_experiment(ExperimentConfig.from_json({**doc, "output": str(serial), "workers": 1}))
    run_experiment(ExperimentConfig.from_json({**doc, "output": str(pooled), "workers": workers}))
    assert outputs(pooled) == outputs(serial)
    assert len(outputs(serial)) == 2 * len(doc["algorithms"])


@pytest.fixture
def pools(monkeypatch):
    """Records the size of every pool run_experiment starts, and how it stops."""
    real = experiments.ProcessPoolExecutor
    log = {"sizes": [], "cancelled": []}

    class Recording(real):
        def __init__(self, *args, **kwargs):
            log["sizes"].append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

        def shutdown(self, wait=True, *, cancel_futures=False):
            log["cancelled"].append(cancel_futures)
            super().shutdown(wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", Recording)
    return log


def diverging_doc(**overrides):
    # the middle series' step size makes every run blow up
    doc = {
        "chain": {"kind": "gaussian_ar", "dim": 3, "epsilon": 0.5},
        "noise": {"kind": "independent_gaussian", "sigma": 0.1},
        "w_star": [0.3, -0.2, 0.1],
        "algorithms": [
            {"name": "sgd", "step_size": 0.1, "label": "first"},
            {"name": "sgd", "step_size": 50.0, "label": "bad"},
            {"name": "sgd", "step_size": 0.1, "label": "last"},
        ],
        "T": 4000,
        "num_runs": 3,
        "seed": 7,
    }
    doc.update(overrides)
    return doc


class TestWorkerPool:
    @pytest.mark.parametrize("workers", [2, 3, 4])
    @pytest.mark.parametrize("num_runs", [1, 2, 3, 5])
    def test_pooled_equals_serial(self, tmp_path, num_runs, workers):
        doc = sgd_doc(algorithms=list(THREE_SERIES), num_runs=num_runs)
        pooled_equals_serial(doc, workers, tmp_path)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("num_runs", [1, 4])
    def test_trace_series_pooled_equals_serial(self, tmp_path, num_runs, workers):
        pooled_equals_serial(trace_doc(num_runs=num_runs), workers, tmp_path)

    @settings(max_examples=20, deadline=None)
    @given(
        num_runs=st.sampled_from([1, 2, 3, 5]),
        workers=st.sampled_from([2, 3, 4]),
        series=st.lists(st.sampled_from(range(3)), min_size=1, max_size=3),
        seed=st.integers(0, 2**32),
        T=st.integers(8, 120),  # parallel_sgd needs T >= 2K
    )
    def test_worker_count_never_changes_outputs(self, num_runs, workers, series, seed, T):
        doc = sgd_doc(
            algorithms=[THREE_SERIES[i] for i in series],
            num_runs=num_runs,
            seed=seed,
            T=T,
            checkpoints=None,
        )
        with tempfile.TemporaryDirectory() as root:
            pooled_equals_serial(doc, workers, Path(root))

    @pytest.mark.parametrize(
        "num_runs, workers, series, sizes",
        [
            (2, 2, 3, [2]),  # six chunks on one pool of two
            (5, 3, 3, [3]),
            (1, 4, 3, [3]),  # one run per series: the series run side by side
            (3, 1, 3, []),  # serial
            (1, 4, 1, []),  # a single chunk
        ],
    )
    def test_one_pool_per_experiment(self, pools, num_runs, workers, series, sizes):
        doc = sgd_doc(algorithms=list(THREE_SERIES[:series]), num_runs=num_runs, workers=workers)
        run_experiment(ExperimentConfig.from_json(doc))
        assert pools["sizes"] == sizes

    def test_wall_time_is_the_slowest_chunk(self, tmp_path):
        for workers in (1, 2):
            t0 = time.perf_counter()
            summaries = run_experiment(
                ExperimentConfig.from_json(sgd_doc(algorithms=list(THREE_SERIES), workers=workers))
            )
            elapsed = time.perf_counter() - t0
            for s in summaries:
                assert 0.0 < s.wall_time < elapsed

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_failed_chunk_stops_the_experiment(self, tmp_path, pools, workers):
        with pytest.raises(FloatingPointError) as serial:
            run_experiment(ExperimentConfig.from_json(diverging_doc()))
        outdir = tmp_path / "out"
        with pytest.raises(FloatingPointError) as pooled:
            run_experiment(ExperimentConfig.from_json(diverging_doc(output=str(outdir), workers=workers)))
        assert str(pooled.value) == str(serial.value)
        assert str(serial.value).startswith("run with seed 7 diverged")
        # the series joined before the failure keep their files; no later one writes
        assert sorted(p.name for p in outdir.iterdir()) == ["experiment_first.csv", "experiment_first.json"]
        assert pools["cancelled"] == ([True] if workers > 1 else [])


class TestCsvRoundTrip:
    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_summary_csv(str(path))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_summary_csv(str(tmp_path / "absent.csv"))


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


class TestSweep:
    def test_grid_cells(self, tmp_path):
        doc = sgd_doc(output=str(tmp_path), T=150, num_runs=2, checkpoints=None)
        grid = {
            "chain.delta": [0.05, 0.1],
            "algorithms.0.step_size": [0.1, 0.2, 0.3],
        }
        index = sweep(doc, grid)
        assert index["num_cells"] == 6
        names = {c["cell"] for c in index["cells"]}
        # cells are keyed by sorted dotted path, shown by leaf name
        assert "step_size-0.1_delta-0.05" in names
        hashes = {c["config_hash"] for c in index["cells"]}
        assert len(hashes) == 6  # every cell is semantically distinct
        for cell in index["cells"]:
            assert os.path.isdir(cell["output"])
            assert cell["series"] == ["sgd"]
        assert (tmp_path / "index.json").exists()
        on_disk = json.loads((tmp_path / "index.json").read_text())
        assert on_disk["num_cells"] == 6

    def test_empty_grid_runs_base_cell(self, tmp_path):
        doc = sgd_doc(output=str(tmp_path), T=150, num_runs=2, checkpoints=None)
        index = sweep(doc, {})
        assert index["num_cells"] == 1
        assert index["cells"][0]["cell"] == "base"

    def test_cell_cap(self):
        doc = sgd_doc()
        grid = {"chain.delta": [0.05, 0.1], "algorithms.0.step_size": [0.1, 0.2, 0.3]}
        with pytest.raises(ValueError):
            sweep(doc, grid, max_cells=5)


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------


class TestCli:
    def test_simulate(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(sgd_doc(output=str(tmp_path / "out"))))
        assert main(["simulate", "--config", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out[0]["algorithm"] == "sgd"
        assert (tmp_path / "out" / "experiment_sgd.csv").exists()

    def test_simulate_seed_override(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(sgd_doc()))
        assert main(["simulate", "--config", str(cfg), "--seed", "99"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out[0]["seed"] == 99

    def test_simulate_missing_config(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--config", str(tmp_path / "nope.json")])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_simulate_reports_divergence(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(sgd_doc(algorithms=[{"name": "sgd", "step_size": 50.0}], T=4000)))
        with pytest.raises(SystemExit, match="error: run with seed 7 diverged"):
            main(["simulate", "--config", str(cfg)])

    def test_mixing(self, tmp_path, capsys):
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps({"kind": "mc3", "kappa": 2.0, "delta": 0.05}))
        assert main(["mixing", "--chain", str(chain)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tau_mix"] == 7
        assert doc["method"] == "numeric-finite"
        assert doc["dmix_curve"][-1][1] <= 0.25

    def test_validate_spectra(self, capsys):
        assert main(["validate", "spectra"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"]

    def test_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                sgd_doc(output=str(tmp_path / "grid"), T=150, num_runs=2, checkpoints=None)
            )
        )
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"chain.delta": [0.05, 0.1]}))
        assert main(["sweep", "--config", str(cfg), "--grid", str(grid)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_cells"] == 2
