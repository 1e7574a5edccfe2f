"""Experiment configs, runners, CSV/JSON emission, sweeps, and the CLI."""

import json
import os
import pickle
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import markovsgd
from markovsgd import algorithms, experiments
from markovsgd.algorithms import (
    DataDropConfig,
    ParallelConfig,
    ReplayConfig,
    SgdConfig,
    kernel_info,
    run_many,
)
from markovsgd.chains import GaussianARSpec, chain_from_json, run_generators
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


# a config built directly with each integer field set to a value
_INT_FIELDS = {
    "num_instances": lambda v: ParallelConfig(SgdConfig(0.1), v),
    "drop_interval": lambda v: DataDropConfig(SgdConfig(0.1), drop_interval=v),
    "buffer_size": lambda v: ReplayConfig(buffer_size=v),
    "drop_prefix": lambda v: ReplayConfig(buffer_size=4, drop_prefix=v),
    **{
        name: lambda v, name=name: ExperimentConfig(**sgd_doc(checkpoints=None, **{name: v}))
        for name in ("T", "num_runs", "seed", "workers")
    },
}


class TestConfig:
    @pytest.mark.parametrize("name", list(_INT_FIELDS))
    def test_integer_fields_are_checked_where_configs_are_built(self, name):
        for value in (True, 2.5, "4"):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}"):
                _INT_FIELDS[name](value)
        value = getattr(_INT_FIELDS[name](4.0), name)
        assert value == 4 and type(value) is int

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

    def test_algorithm_beside_algorithms_rejected(self):
        # the single block used to be dropped without a word
        with pytest.raises(ValueError, match='"algorithm" or "algorithms", not both'):
            ExperimentConfig.from_json(sgd_doc(algorithm={"name": "sgd", "step_size": 0.5}))

    def test_defaults_are_the_dataclass_defaults(self):
        doc = {k: v for k, v in sgd_doc().items() if k not in ("num_runs", "seed", "checkpoints")}
        config = ExperimentConfig.from_json(doc)
        assert config == ExperimentConfig(**doc)
        defaults = {"num_runs": 1, "seed": 0, "w_init": "zeros", "checkpoints": None}
        defaults.update(output=None, name="experiment", workers=1, figure=False)
        assert config.to_json() == {**doc, **defaults}
        assert ExperimentConfig.from_json(config.to_json()) == config

    @pytest.mark.parametrize("field", ["chain", "noise", "T"])
    def test_missing_required_field_names_itself(self, field):
        doc = sgd_doc()
        doc.pop(field)
        with pytest.raises(KeyError, match=f"^'{field}'$"):
            ExperimentConfig.from_json(doc)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(sgd_doc(T=1))
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(sgd_doc(num_runs=0))
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(sgd_doc(workers=0))
        for none in ([], None):  # a null list holds no blocks
            with pytest.raises(ValueError, match="at least one algorithm block"):
                ExperimentConfig.from_json(sgd_doc(algorithms=none))
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

    @pytest.mark.parametrize(
        "doc, digest",
        [
            (sgd_doc(), "a6278ec4dfb6d552765a3cb0f2a90db8237fa708e868258b5a821608983c3e6d"),
            (
                {
                    "chain": {"kind": "agnostic_bias", "epsilon": 0.25},
                    "noise": {"kind": "agnostic"},
                    "w_star": "agnostic",
                    "algorithms": [{"name": "sgd", "step_size": 0.25}],
                    "T": 1000,
                },
                "b79a9bb4590e4593db9c6b21fe72592f1cfd04be732b50a71caebef9cceaddeb",
            ),
            (
                sgd_doc(
                    w_init="random_unit",
                    algorithms=[
                        {"name": "sgd", "step_size": 0.25, "label": "plain"},
                        {"name": "sgd_dd", "step_size": 0.25, "drop_interval": 4, "label": "dd"},
                        {"name": "parallel_sgd", "step_size": 0.25, "num_instances": 8, "label": "par"},
                        {"name": "sgd_er", "buffer_size": 16, "drop_prefix": 2, "label": "er"},
                    ],
                ),
                "c56c0f7781716e1adfac90a0cb20e36a593434c55d180993e0530b6f54615952",
            ),
            (
                {
                    "chain": {"kind": "gaussian_ar", "dim": 3, "epsilon": 0.5},
                    "noise": {"kind": "noiseless"},
                    "w_star": [0.3, -0.2, 0.1],
                    "algorithms": [{"name": "lower_bound_trace", "eta": 0.04}],
                    "T": 400,
                    "num_runs": 3,
                    "seed": 11,
                    "w_init": "w_star",
                },
                "7b0ff90eeeccfaa5234e249935df1aecbddc5be2b995b187e0faa37429560016",
            ),
        ],
        ids=["plain", "agnostic", "labelled-blocks", "trace"],
    )
    def test_hash_is_pinned(self, doc, digest):
        # every summary records this digest; a change to what it covers or
        # how it is written shows here
        assert config_hash(ExperimentConfig.from_json(doc)) == digest

    def test_hash_resolves_the_default_schedule(self):
        implicit = ExperimentConfig.from_json(sgd_doc(T=1000, checkpoints=None))
        explicit = ExperimentConfig.from_json(sgd_doc(T=1000, checkpoints=default_checkpoints(1000)))
        other = ExperimentConfig.from_json(sgd_doc(T=1000, checkpoints=[100, 1000]))
        assert config_hash(implicit) == config_hash(explicit)
        assert config_hash(implicit) != config_hash(other)

    @pytest.mark.parametrize(
        "where, key, value",
        [
            ("config", "T", 1000.7),
            ("config", "T", "200"),
            ("config", "num_runs", 2.9),
            ("config", "num_runs", True),
            ("config", "seed", 7.5),
            ("config", "workers", 2.9),
            ("config", "figure", "false"),
            ("config", "figure", 1),
            ("sgd_er", "buffer_size", 3.5),
            ("sgd_er", "drop_prefix", 1.5),
            ("sgd_dd", "drop_interval", 2.5),
            ("parallel_sgd", "num_instances", 4.2),
            ("gaussian_ar", "dim", 3.7),
            ("gaussian_ar", "d", 3.7),
            ("mc0", "d", 4.5),
            ("mci", "d", 2.5),
        ],
    )
    def test_misused_values_rejected_at_load(self, where, key, value):
        blocks = {
            "sgd_er": {"name": "sgd_er", "buffer_size": 4},
            "sgd_dd": {"name": "sgd_dd", "step_size": 0.25},
            "parallel_sgd": {"name": "parallel_sgd", "step_size": 0.25, "num_instances": 4},
        }
        chains = {
            "gaussian_ar": {"kind": "gaussian_ar", "epsilon": 0.5},
            "mc0": {"kind": "mc0", "epsilon": 0.2},
            "mci": {"kind": "mci", "epsilon": 0.2, "delta": 0.1, "bits": [1, 0]},
        }
        with pytest.raises(ValueError, match=rf"^{key} must be"):
            if where == "config":
                ExperimentConfig.from_json(sgd_doc(**{key: value}))
            elif where in blocks:
                ExperimentConfig.from_json(sgd_doc(algorithms=[{**blocks[where], key: value}]))
            else:
                chain_from_json({**chains[where], key: value})

    def test_integral_numbers_load_as_ints(self):
        block = {"name": "parallel_sgd", "step_size": 0.25, "num_instances": 4.0}
        config = ExperimentConfig.from_json(sgd_doc(T=200.0, num_runs=np.int64(3), seed=7.0, algorithms=[block]))
        assert (config.T, config.num_runs, config.seed) == (200, 3, 7)
        assert all(type(v) is int for v in (config.T, config.num_runs, config.seed))
        assert build_algorithm(block).num_instances == 4
        assert chain_from_json({"kind": "gaussian_ar", "dim": 3.0, "epsilon": 0.5}).dim == 3

    def test_seed_chunks_split_as_run_many_does(self):
        config = ExperimentConfig.from_json(sgd_doc(num_runs=5, workers=2))
        assert experiments._seed_chunks(config) == [[7, 8], [9, 10, 11]]
        config = ExperimentConfig.from_json(sgd_doc(num_runs=2, workers=4))
        assert experiments._seed_chunks(config) == [[7], [8]]

    def test_unknown_keys_rejected_at_load(self):
        with pytest.raises(ValueError, match="num_run.*allowed.*num_runs"):
            ExperimentConfig.from_json(sgd_doc(num_run=3))
        blocks = [{"name": "sgd", "step_size": 0.25}, {"name": "sgd_dd", "step_size": 0.25, "drop_intervall": 3}]
        with pytest.raises(ValueError, match="drop_intervall"):
            ExperimentConfig.from_json(sgd_doc(algorithms=blocks))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"chain": {"kind": "mc0", "d": 4.5, "epsilon": 0.2}}, "^d must be an integer"),
            ({"chain": {"kind": "mc0", "d": 4, "epsilon": "0.2"}}, "^epsilon must be a finite number"),
            ({"chain": {"kind": "mc3", "kappa": 2.0, "delta": True}}, "^delta must be a finite number"),
            ({"chain": {"kind": "gaussian_ar", "dim": 2, "epsilon": float("nan")}}, "^epsilon must be"),
            ({"noise": {"kind": "nope"}}, "unknown noise kind 'nope'"),
            ({"noise": {"kind": "independent_gaussian", "sigma": "0.1"}}, "^sigma must be a finite number"),
            ({"chain": {"kind": "mc0", "d": 4, "epsilon": 0.2}, "w_star": [0.5]}, r"w_star must have shape \(4,\)"),
            ({"w_init": "bogus"}, "^w_init must be one of"),
            ({"w_init": [0.1, 0.2, 0.3]}, "a vector of 2 numbers"),
            ({"w_init": [0.1, "0.2"]}, r"^w_init\[1\] must be a finite number"),
            ({"algorithms": [{"name": "sgd", "step_size": "0.25"}]}, "^step_size must be a finite number"),
            ({"algorithms": [{"name": "sgd", "step_size": 0.25, "tail_fraction": True}]}, "^tail_fraction must be"),
            ({"algorithms": [{"name": "sgd_dd", "step_size": 0.25, "log_constant": "5"}]}, "^log_constant must be"),
            ({"algorithms": [{"name": "sgd_er", "buffer_size": 4, "tail_buffer_fraction": False}]},
             "^tail_buffer_fraction must be"),
            ({"algorithms": [{"name": "lower_bound_trace", "eta": "0.04"}]}, "^eta must be"),
        ],
    )
    def test_misused_problem_and_reals_rejected_at_load(self, overrides, message):
        # each of these used to load, and failed (if at all) in a worker
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json(sgd_doc(**overrides))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"checkpoints": [True, 100]}, r"^checkpoints\[0\] must be an integer, got True"),
            ({"checkpoints": [50, False]}, r"^checkpoints\[1\] must be an integer"),
            ({"checkpoints": [50, 100.5]}, r"^checkpoints\[1\] must be an integer"),
            ({"w_star": [True, False]}, r"^w_star\[0\] must be a finite number, got True"),
            ({"w_star": [0.5, float("nan")]}, r"^w_star\[1\] must be a finite number"),
            ({"w_star": [0.5, "0.5"]}, r"^w_star\[1\] must be a finite number"),
            ({"w_star": 0.5}, "^w_star must be a vector"),
        ],
    )
    def test_bools_in_checkpoints_and_w_star_rejected_at_load(self, overrides, message):
        # bools used to load as 1 and 0
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json(sgd_doc(**overrides))

    def test_integral_checkpoints_and_w_star_load_as_numbers(self):
        config = ExperimentConfig.from_json(sgd_doc(checkpoints=[50.0, np.int64(100)], w_star=[1, np.float32(0.5)]))
        assert config.checkpoints == (50, 100) and all(type(p) is int for p in config.checkpoints)
        assert config.problem.w_star.tolist() == [1.0, 0.5]

    def test_reals_load_as_floats(self):
        config = ExperimentConfig.from_json(
            sgd_doc(chain={"kind": "mc3", "kappa": 2, "delta": np.float64(0.05)}, w_init=[1, 0])
        )
        assert build_algorithm({"name": "sgd", "step_size": 1}) == SgdConfig(step_size=1.0)
        assert chain_from_json(config.chain) == chain_from_json({"kind": "mc3", "kappa": 2.0, "delta": 0.05})
        assert resolve_w_init(config.w_init, build_problem(config), [0]).tolist() == [1.0, 0.0]


def _dot_at(info: dict, dim: int) -> str:
    """The dot kernel_info says the update loop takes at a checked dimension."""
    if info["path"] != "c":
        return "numpy"
    return "fma" if dim in info["fused_dims"] else "ddot"


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

    @pytest.mark.parametrize("name", ["sgd_dd", "parallel_sgd"])
    def test_base_is_not_a_key(self, name):
        doc = {"name": name, "step_size": 0.25, "num_instances": 4, "base": {"step_size": 0.5}}
        if name == "sgd_dd":
            doc.pop("num_instances")
        with pytest.raises(ValueError, match=r"unknown key\(s\) \['base'\]"):
            build_algorithm(doc)

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"name": "sgd"}, "step_size"),
            ({"name": "sgd_dd", "drop_interval": 3}, "step_size"),
            ({"name": "parallel_sgd", "step_size": 0.25}, "num_instances"),
            ({"name": "sgd_er", "step_size": 0.25}, "buffer_size"),
            ({"name": "lower_bound_trace"}, "eta"),
        ],
    )
    def test_missing_required_field_names_itself(self, doc, field):
        with pytest.raises(KeyError, match=f"^'{field}'$"):
            build_algorithm(doc)


class TestBuildProblem:
    def test_explicit_w_star(self):
        problem = build_problem(ExperimentConfig.from_json(sgd_doc()))
        np.testing.assert_array_equal(problem.w_star, [0.5, -0.5])

    def test_a_chunk_runs_the_problem_built_at_load(self, monkeypatch):
        built = []

        def counted(config):
            built.append(build_problem(config))
            return built[-1]

        monkeypatch.setattr(experiments, "build_problem", counted)
        doc = sgd_doc()
        config = ExperimentConfig.from_json(doc)
        assert built == [config.problem]
        algo = build_algorithm(doc["algorithms"][0])
        got = experiments._execute_chunk(config, algo, [7, 8], [50, 100, 200])
        # a pool's worker gets the config with its problem, pickled
        sent = pickle.loads(pickle.dumps((config, algo)))
        assert sent == (config, algo) and sent[0].problem.dim == config.problem.dim
        again = experiments._execute_chunk(*sent, [7, 8], [50, 100, 200])
        assert len(built) == 1  # the chunks build nothing
        monkeypatch.undo()
        want = experiments._execute_chunk(ExperimentConfig.from_json(doc), algo, [7, 8], [50, 100, 200])
        for a, b, c in zip(got[:3], again[:3], want[:3]):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes() == np.asarray(c).tobytes()

    def test_agnostic(self):
        doc = sgd_doc(
            chain={"kind": "agnostic_bias", "epsilon": 0.25},
            noise={"kind": "agnostic"},
            w_star="agnostic",
        )
        problem = build_problem(ExperimentConfig.from_json(doc))
        np.testing.assert_allclose(problem.w_star, [-0.2], atol=1e-12)

    def test_agnostic_w_star_must_be_the_optimum(self):
        doc = sgd_doc(chain={"kind": "agnostic_bias", "epsilon": 0.25}, noise={"kind": "agnostic"})
        for omitted in (None, "agnostic"):
            np.testing.assert_allclose(ExperimentConfig.from_json({**doc, "w_star": omitted}).problem.w_star, [-0.2])
        # a stale vector used to load and run at the optimum
        for stale in ([5.0, 7.0], [-0.2, -0.2, -0.2], [0.3]):
            with pytest.raises(ValueError, match="population optimum"):
                ExperimentConfig.from_json({**doc, "w_star": stale})

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

    def test_summary_records_provenance(self, tmp_path):
        import platform

        import scipy

        import markovsgd

        (s,) = run_experiment(ExperimentConfig.from_json(sgd_doc(output=str(tmp_path))))
        meta = json.loads((tmp_path / "experiment_sgd.json").read_text())
        info = kernel_info()
        assert meta["provenance"] == s.provenance == {
            "markovsgd": markovsgd.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "kernel": info["path"],
            "blas": info["blas"],
            "streams": info["streams"],
            "dot": _dot_at(info, 2),  # the two-state chain's dimension
            "lanes": info["lanes"] if _dot_at(info, 2) == "fma" else 1,
            "cpu_count": algorithms._usable_cpus(),
        }

    @pytest.mark.parametrize("dim", [1, 2, 4, 15, 16, 17])
    def test_provenance_names_the_dot_at_its_dimension(self, dim):
        prov = experiments._provenance(dim)
        dot = prov["dot"]
        info = kernel_info()
        assert dot == _dot_at(info, dim)
        if dim >= 16:  # the fused dot runs below 16 elements only
            assert dot in ("ddot", "numpy")
        # four lanes a register only with the fused dot, on a CPU with AVX2
        assert prov["lanes"] == (info["lanes"] if dot == "fma" else 1)

    def test_provenance_counts_the_cpus_it_may_run_on(self, monkeypatch):
        # the count run_many sizes its threads by: the affinity mask, not every CPU
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert experiments._provenance(2)["cpu_count"] == 1

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

    def test_parallel_series_with_per_run_starts(self):
        # "random_unit" gives every run its own start, which each of its K
        # parallel instances begins from
        doc = sgd_doc(
            w_init="random_unit",
            algorithms=[{"name": "parallel_sgd", "step_size": 0.25, "num_instances": 4}],
        )
        config = ExperimentConfig.from_json(doc)
        (s,) = run_experiment(config)
        seeds = [config.seed + i for i in range(config.num_runs)]
        problem = build_problem(config)
        starts = resolve_w_init("random_unit", problem, seeds)
        algo = build_algorithm(doc["algorithms"][0])
        want = [
            run_many(problem, config.T, algo, [seed], w_init=start, checkpoints=s.checkpoints).checkpoint_excess
            for seed, start in zip(seeds, starts)
        ]
        np.testing.assert_array_equal(s.mean_excess, np.concatenate(want, axis=1).mean(axis=1))


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

    def test_grid_reaches_a_block_by_its_index(self):
        block = {"name": "parallel_sgd", "step_size": 0.25, "num_instances": 4}
        doc = sgd_doc(T=400, num_runs=2, checkpoints=None, algorithms=[block])
        index = sweep(doc, {"algorithms.0.num_instances": [5, 50]})
        assert len({c["config_hash"] for c in index["cells"]}) == 2
        # "algorithm.num_instances" makes a one-block "algorithm" beside the list;
        # it used to be dropped, so both cells ran the same config
        with pytest.raises(ValueError, match="not both"):
            sweep(doc, {"algorithm.num_instances": [5, 50]})

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

    @pytest.mark.parametrize(
        "doc, field",
        [
            (sgd_doc(algorithms=[{"name": "sgd", "tail_fraction": 0.5}]), "step_size"),
            ({k: v for k, v in sgd_doc().items() if k != "chain"}, "chain"),
        ],
        ids=["block", "config"],
    )
    def test_simulate_names_a_missing_field(self, tmp_path, doc, field):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        src = os.path.dirname(os.path.dirname(markovsgd.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "markovsgd.cli", "simulate", "--config", str(cfg)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"error: missing config field '{field}'\n"

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

    def test_accept_spectra(self, capsys):
        # criterion 8 is the one command for the spectral checks
        assert main(["accept", "--suite", "spectra", "--fast"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] and doc["fast"]
        assert [c["criterion"] for c in doc["criteria"]] == [8]

    def test_validate_is_gone(self):
        with pytest.raises(SystemExit):
            main(["validate", "spectra"])

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
