"""The benchmark's workloads.

Each workload builds its inputs from the benchmark seed when it is created,
runs one operation through the package's public API in ``run_op``, and
checks that operation's outputs.  BENCHMARK.md next to this file says why
each workload exists and which layer it loads.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from spans import count_updates

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_package():
    """Import ``markovsgd`` from this checkout's source tree, never elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "markovsgd", "__init__.py")):
        raise SystemExit(f"perfbench: no package source at {SRC}/markovsgd")
    sys.path.insert(0, SRC)
    import markovsgd

    if os.path.dirname(os.path.dirname(os.path.abspath(markovsgd.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported markovsgd from {markovsgd.__file__}, not {SRC}")
    return markovsgd


def run_seeds(seed: int, count: int) -> list[int]:
    """The package seeds of one workload op, derived from the benchmark seed."""
    base = int(np.random.SeedSequence(seed).generate_state(1)[0])
    return [base + i for i in range(count)]


@dataclass
class OpResult:
    wall_s: float
    states: int  # stream samples x runs drawn by the op
    counters: dict  # exact counts known from the op's results, without tracing
    digest: str  # sha256 of the op's estimates (reported, not gated)
    problems: list  # failed output checks; empty when the op passed


def _check_mean(problems, label, mean, references) -> None:
    """A series' mean excess must be finite and within its reference band."""
    reference, factor = references[label]
    if not np.isfinite(mean):
        problems.append(f"{label}: mean excess {mean!r}")
    elif not reference / factor <= mean <= reference * factor:
        problems.append(f"{label}: mean excess {mean!r} not within {factor}x of {reference!r}")


class FiniteWide:
    """Plain and parallel SGD on the clique walk at R = 1000: a slice of criterion 4."""

    name = "finite_wide"
    # Median over benchmark seeds 1..10 of each series' mean excess,
    # measured at the first commit with this benchmark, and the factor the
    # mean must stay within.  The seeds spread within +-5% of it at the full
    # size and within -28%/+15% at the tiny size.
    REFERENCES = {"sgd": (2.88e-5, 1.25), "parallel_sgd": (7.69e-7, 1.25)}
    TINY_REFERENCES = {"sgd": (5.45e-5, 1.5), "parallel_sgd": (4.24e-7, 1.5)}

    def __init__(self, ms, seed: int, tiny: bool):
        d, sigma, alpha = 4, 0.1, 0.25
        self.T = 3_000 if tiny else 6_000
        chain = ms.make_mc0(d, 1 / 8)
        K = ms.recommended_parallel_instances(ms.mixing_time(chain).tau_mix, 200_000)
        self.problem = ms.make_problem(chain, ms.IndependentGaussian(sigma), w_star=np.zeros(d))
        self.configs = (
            ("sgd", ms.SgdConfig(alpha)),
            ("parallel_sgd", ms.ParallelConfig(ms.SgdConfig(alpha), K)),
        )
        self.seeds = run_seeds(seed, 50 if tiny else 1000)
        self.references = self.TINY_REFERENCES if tiny else self.REFERENCES

    def run_op(self, ms) -> OpResult:
        problem, T, seeds = self.problem, self.T, self.seeds
        t0 = time.perf_counter()
        outs = [ms.run_many(problem, T, cfg, seeds, w_init=problem.w_star) for _, cfg in self.configs]
        wall = time.perf_counter() - t0
        R = len(seeds)
        states = sum((T - o.discarded_samples) * R for o in outs)
        counters = {
            "chains.states": states,
            "algorithms.updates": sum(
                count_updates(ms, problem, T, cfg, R, o.discarded_samples)
                for (_, cfg), o in zip(self.configs, outs)
            ),
            "algorithms.discarded_samples": sum(o.discarded_samples * R for o in outs),
            "experiments.bytes_written": 0,
        }
        digest = hashlib.sha256()
        problems = []
        for (label, _), o in zip(self.configs, outs):
            digest.update(np.ascontiguousarray(o.estimates).tobytes())
            excess = ms.excess_risk(problem, o.estimates)
            _check_mean(problems, label, float(np.mean(excess)), self.references)
        return OpResult(wall, states, counters, digest.hexdigest(), problems)

    def start_pool(self) -> None:
        pass

    def close(self) -> None:
        pass


def _worker_pid(_) -> int:
    return os.getpid()


class NarrowPool:
    """One pooled experiment on the two-state chain at two runs per series."""

    name = "narrow_pool"
    # As for FiniteWide, over seeds 1..20 at the full size and 1..10 at the
    # tiny size.  A mean of two runs is a wide statistic (seeds spread from
    # 1/25 to 3.3 times the median), so the band only catches gross errors;
    # the exact comparison with an in-process recomputation does the fine
    # checking.
    REFERENCES = {"sgd": (1.8e-6, 100.0), "sgd_dd": (2.5e-4, 100.0), "parallel_sgd": (7.5e-7, 100.0)}
    TINY_REFERENCES = {"sgd": (8.3e-6, 100.0), "sgd_dd": (6.95e-3, 100.0), "parallel_sgd": (3.71e-6, 100.0)}
    WORKERS = 2

    def __init__(self, ms, seed: int, tiny: bool):
        self.outdir = os.path.join(ROOT, ".perfbench_out", f"narrow_pool-{os.getpid()}")
        doc = {
            "name": "narrow_pool",
            "chain": {"kind": "mc3", "kappa": 2.0, "delta": 0.05},
            "noise": {"kind": "independent_gaussian", "sigma": 0.1},
            "w_star": [0.5, -0.5],
            "algorithms": [
                {"name": "sgd", "step_size": 0.25},
                {"name": "sgd_dd", "step_size": 0.25},
                {"name": "parallel_sgd", "step_size": 0.25, "num_instances": 50},
            ],
            "T": 10_000 if tiny else 50_000,
            "num_runs": 2,
            "seed": run_seeds(seed, 1)[0],
            "workers": self.WORKERS,
            "output": self.outdir,
        }
        self.config = ms.ExperimentConfig.from_json(doc)
        self.problem = ms.experiments.build_problem(self.config)
        self.algorithms = [ms.experiments.build_algorithm(a) for a in self.config.algorithms]
        self.references = self.TINY_REFERENCES if tiny else self.REFERENCES
        self.first_csv: list | None = None
        self.in_process: dict | None = None

    def _in_process_means(self, ms) -> dict:
        """Mean excess of each series' estimates, recomputed without the pool."""
        cfg = self.config
        seeds = [cfg.seed + i for i in range(cfg.num_runs)]
        means = {}
        for doc, algo in zip(cfg.algorithms, self.algorithms):
            out = ms.run_many(self.problem, cfg.T, algo, seeds)
            means[doc["name"]] = float(np.mean(ms.excess_risk(self.problem, out.estimates)))
        return means

    def start_pool(self) -> None:
        """Start and stop a pool of the experiment's size, as a series does."""
        with ProcessPoolExecutor(max_workers=self.WORKERS) as pool:
            list(pool.map(_worker_pid, range(self.WORKERS)))

    def run_op(self, ms) -> OpResult:
        cfg = self.config
        t0 = time.perf_counter()
        summaries = ms.run_experiment(cfg)
        wall = time.perf_counter() - t0
        if self.in_process is None:  # once, on the first op, which is never traced
            self.in_process = self._in_process_means(ms)
        problems = []
        blobs = []
        for s in summaries:
            with open(s.csv_path, "rb") as fh:
                blobs.append(fh.read())
            curve = ms.load_summary_csv(s.csv_path)
            if not all(np.all(np.isfinite(v)) for v in curve.values()):
                problems.append(f"{s.algorithm}: non-finite values in {s.csv_path}")
            mean = s.estimator["mean_excess"]
            _check_mean(problems, s.algorithm, mean, self.references)
            if mean != self.in_process[s.algorithm]:
                problems.append(
                    f"{s.algorithm}: pooled mean excess {mean!r} != in-process {self.in_process[s.algorithm]!r}"
                )
        if self.first_csv is None:
            self.first_csv = blobs
        elif blobs != self.first_csv:
            problems.append("CSV files differ from the first repetition's")
        runs = cfg.num_runs
        states = sum((cfg.T - s.discarded_samples) * runs for s in summaries)
        counters = {
            "chains.states": states,
            "algorithms.updates": sum(
                count_updates(ms, self.problem, cfg.T, algo, runs, s.discarded_samples)
                for algo, s in zip(self.algorithms, summaries)
            ),
            "algorithms.discarded_samples": sum(s.discarded_samples * runs for s in summaries),
            "experiments.bytes_written": sum(len(b) for b in blobs),
        }
        digest = hashlib.sha256(b"".join(blobs)).hexdigest()
        return OpResult(wall, states, counters, digest, problems)

    def close(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (FiniteWide, NarrowPool)}
