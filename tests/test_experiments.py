"""Experiment configs, runners, CSV/JSON emission, sweeps, and the CLI."""

import json
import os

import numpy as np
import pytest

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
