"""Experiment engine: seeded multi-run simulations, sweeps, and reports.

An experiment is described by a JSON document (chain, noise model, target
parameter rule, one or more algorithm blocks, horizon T, number of runs R,
base seed, checkpoint schedule, output location).  Run i uses seed
``seed + i``; all algorithm series within one experiment share the per-run
seeds, hence the same data streams.  Results are aggregated across runs into
per-checkpoint mean/stderr/min/max excess-risk curves, written as CSV with
the fixed header ``t,mean_excess,stderr,min,max`` plus a JSON summary
(config hash, seed, wall time, tail-averaged-estimator statistics).

Determinism: a config maps to byte-identical outputs for equal seeds.  With
``workers > 1`` an experiment runs on one process pool: each series' runs are
split into ``min(workers, num_runs)`` contiguous seed chunks, and every
series' chunks are submitted at once, so series run side by side -- with
``num_runs = 1`` too, one chunk per series.  Series are joined in config
order and their chunks in seed order, so the worker count never changes the
result; each series writes its files as soon as it joins.  A summary's
``wall_time_s`` is the longest time one of its chunks took, as timed inside
the chunk, since overlapping series cannot be timed from the parent.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import itertools
import json
import math
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .algorithms import (
    DataDropConfig,
    ParallelConfig,
    ReplayConfig,
    SgdConfig,
    run_lower_bound_traces,
    run_many,
)
from .chains import _run_generators, chain_from_json, check_keys
from .regression import (
    AgnosticDeterministic,
    Problem,
    excess_risk,
    make_problem,
    noise_from_json,
)

__all__ = [
    "ExperimentConfig",
    "RunSummary",
    "build_algorithm",
    "default_checkpoints",
    "config_hash",
    "build_problem",
    "resolve_w_init",
    "run_experiment",
    "sweep",
    "accept",
    "write_summary_csv",
    "load_summary_csv",
    "output_root",
]

# Keys an algorithm block may hold besides ``name`` and ``label``, per name.
_ALGORITHM_KEYS = {
    "sgd": ("step_size", "tail_fraction"),
    "sgd_dd": ("step_size", "tail_fraction", "drop_interval", "log_constant"),
    "parallel_sgd": ("step_size", "tail_fraction", "num_instances"),
    "sgd_er": ("buffer_size", "step_size", "drop_prefix", "tail_buffer_fraction"),
    "lower_bound_trace": ("eta",),
}

_OUTPUT_ENV = "MARKOVSGD_OUTPUT"

# Config keys that do not affect results and are excluded from the hash.
_NON_SEMANTIC_KEYS = ("output", "name", "workers", "figure")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; build with :meth:`from_json`."""

    chain: dict
    noise: dict
    algorithms: tuple
    T: int
    num_runs: int
    seed: int
    w_star: object = None  # explicit vector (list) or "agnostic"
    w_init: object = "zeros"  # "zeros" | "w_star" | "random_unit" | vector
    checkpoints: tuple | None = None
    output: str | None = None
    name: str = "experiment"
    workers: int = 1
    figure: bool = False

    def __post_init__(self):
        if self.T < 2:
            raise ValueError(f"T must be at least 2, got {self.T}")
        if self.num_runs < 1:
            raise ValueError(f"num_runs must be >= 1, got {self.num_runs}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not self.algorithms:
            raise ValueError("at least one algorithm block is required")
        for doc in self.algorithms:
            build_algorithm(doc)  # unknown names, keys and values fail at load
        if self.checkpoints is not None:
            pts = list(self.checkpoints)
            if any(int(p) != p or p < 0 for p in pts):
                raise ValueError("checkpoints must be nonnegative integers")
            if any(b <= a for a, b in zip(pts, pts[1:])):
                raise ValueError("checkpoints must be strictly increasing")
            if pts and pts[-1] > self.T:
                raise ValueError("checkpoints must not exceed T")
            object.__setattr__(self, "checkpoints", tuple(int(p) for p in pts))

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        # the fields, with "algorithm" for a single block
        check_keys(doc, [f.name for f in fields(cls)] + ["algorithm"], "experiment config")
        doc = dict(doc)
        algos = doc.pop("algorithms", None)
        single = doc.pop("algorithm", None)
        if algos is None:
            algos = [single] if single is not None else []
        return cls(
            chain=doc["chain"],
            noise=doc["noise"],
            algorithms=tuple(dict(a) for a in algos),
            T=int(doc["T"]),
            num_runs=int(doc.get("num_runs", 1)),
            seed=int(doc.get("seed", 0)),
            w_star=doc.get("w_star"),
            w_init=doc.get("w_init", "zeros"),
            checkpoints=None if doc.get("checkpoints") is None else tuple(doc["checkpoints"]),
            output=doc.get("output"),
            name=str(doc.get("name", "experiment")),
            workers=int(doc.get("workers", 1)),
            figure=bool(doc.get("figure", False)),
        )

    def to_json(self) -> dict:
        doc = {
            "chain": self.chain,
            "noise": self.noise,
            "algorithms": [dict(a) for a in self.algorithms],
            "T": self.T,
            "num_runs": self.num_runs,
            "seed": self.seed,
            "w_star": self.w_star,
            "w_init": self.w_init,
            "checkpoints": None if self.checkpoints is None else list(self.checkpoints),
            "output": self.output,
            "name": self.name,
            "workers": self.workers,
            "figure": self.figure,
        }
        return doc


@dataclass
class RunSummary:
    """Aggregated outcome of one algorithm series across R runs."""

    algorithm: str
    checkpoints: np.ndarray
    mean_excess: np.ndarray
    stderr: np.ndarray
    min_excess: np.ndarray
    max_excess: np.ndarray
    config_hash: str
    seed: int
    num_runs: int
    wall_time: float
    estimator: dict
    discarded_samples: int = 0
    csv_path: str | None = None

    def to_json(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "num_runs": self.num_runs,
            "wall_time_s": self.wall_time,
            "estimator": self.estimator,
            "discarded_samples": self.discarded_samples,
            "csv": self.csv_path,
        }


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def build_algorithm(doc: dict):
    """Typed algorithm config from a JSON block (keyed by ``name``).

    ``label`` names the series' output files; any key the algorithm does not
    use is an error.
    """
    name = doc.get("name")
    if name not in _ALGORITHM_KEYS:
        raise ValueError(f"unknown algorithm {name!r}")
    check_keys(doc, ("name", "label") + _ALGORITHM_KEYS[name], f"{name} block")
    if name == "sgd_er":
        return ReplayConfig(
            buffer_size=int(doc["buffer_size"]),
            step_size=float(doc.get("step_size", 0.5)),
            drop_prefix=int(doc.get("drop_prefix", 0)),
            tail_buffer_fraction=float(doc.get("tail_buffer_fraction", 0.5)),
        )
    if name == "lower_bound_trace":
        return ("lower_bound_trace", float(doc["eta"]))
    base = SgdConfig(
        step_size=float(doc["step_size"]),
        tail_fraction=float(doc.get("tail_fraction", 0.5)),
    )
    if name == "sgd":
        return base
    if name == "sgd_dd":
        drop = doc.get("drop_interval")
        return DataDropConfig(
            base=base,
            drop_interval=None if drop is None else int(drop),
            log_constant=float(doc.get("log_constant", 5.0)),
        )
    return ParallelConfig(base=base, num_instances=int(doc["num_instances"]))


def default_checkpoints(T: int) -> list[int]:
    """Geometric schedule: x1.5 steps from 100 up to and including T."""
    pts = []
    v = 100.0
    while v < T:
        pts.append(int(round(v)))
        v *= 1.5
    pts.append(T)
    seen = sorted(set(pts))
    return [p for p in seen if p <= T]


def _checkpoint_schedule(config: ExperimentConfig) -> list[int]:
    """The config's checkpoints, or the default schedule for its horizon."""
    if config.checkpoints is None:
        return default_checkpoints(config.T)
    return list(config.checkpoints)


def config_hash(config: ExperimentConfig) -> str:
    """sha256 of the canonical JSON of the semantic fields.

    Names, series labels, paths and worker counts stay out of it, and the
    checkpoints enter as the schedule that runs, so an omitted schedule and
    the default one written out hash the same.
    """
    doc = config.to_json()
    for key in _NON_SEMANTIC_KEYS:
        doc.pop(key, None)
    doc["algorithms"] = [{k: v for k, v in a.items() if k != "label"} for a in doc["algorithms"]]
    doc["checkpoints"] = _checkpoint_schedule(config)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build_problem(config: ExperimentConfig) -> Problem:
    chain = chain_from_json(config.chain)
    noise = noise_from_json(config.noise)
    w_star = config.w_star
    if isinstance(noise, AgnosticDeterministic) or w_star == "agnostic":
        w_star = None
        if not isinstance(noise, AgnosticDeterministic):
            raise ValueError('w_star "agnostic" requires the agnostic noise model')
    elif w_star is None:
        raise ValueError("w_star is required for non-agnostic noise models")
    else:
        w_star = np.asarray(w_star, dtype=float)
    return make_problem(chain, noise, w_star=w_star)


def resolve_w_init(rule, problem: Problem, seeds) -> np.ndarray | None:
    """Initial-point rule -> engine argument (None, (d,) or per-run (R, d)).

    ``"random_unit"`` draws one uniform unit vector per run from the run's
    init generator (the fourth Philox child of its seed).
    """
    if rule is None or rule == "zeros":
        return None
    if rule == "w_star":
        return problem.w_star
    if rule == "random_unit":
        d = problem.dim
        out = np.empty((len(seeds), d))
        for i, s in enumerate(seeds):
            (init,) = _run_generators(s, (3,))
            g = init.standard_normal(d)
            out[i] = g / np.linalg.norm(g)
        return out
    arr = np.asarray(rule, dtype=float)
    if arr.shape != (problem.dim,):
        raise ValueError(f"w_init vector must have shape ({problem.dim},)")
    return arr


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _execute_chunk(config_doc: dict, algo_doc: dict, seeds: list, checkpoints: list):
    """Run one seed chunk of one algorithm series; picklable for worker pools.

    Returns the per-run estimate excess, the (checkpoints, runs) excess, the
    per-run discarded sample count and the chunk's own wall seconds.
    """
    t0 = time.perf_counter()
    config = ExperimentConfig.from_json(config_doc)
    problem = build_problem(config)
    w_init = resolve_w_init(config.w_init, problem, seeds)
    algo = build_algorithm(algo_doc)
    if isinstance(algo, tuple):  # lower-bound trace: excess = gamma^2 / d
        _, eta = algo
        _, gammas, _ = run_lower_bound_traces(problem, config.T, eta, seeds, w_init=w_init)
        excess = gammas**2 / problem.dim
        steps = np.minimum(np.asarray(checkpoints, dtype=np.int64), config.T)
        return excess[config.T], excess[steps], 0, time.perf_counter() - t0
    result = run_many(
        problem, config.T, algo, seeds, w_init=w_init, checkpoints=checkpoints
    )
    est_excess = excess_risk(problem, result.estimates)
    return est_excess, result.checkpoint_excess, result.discarded_samples, time.perf_counter() - t0


def _seed_chunks(config: ExperimentConfig) -> list[list[int]]:
    """Each series' runs as ``min(workers, num_runs)`` contiguous seed chunks."""
    seeds = [config.seed + i for i in range(config.num_runs)]
    parts = np.array_split(np.arange(config.num_runs), min(config.workers, config.num_runs))
    return [seeds[p[0] : p[-1] + 1] for p in parts]


def _aggregate(values: np.ndarray) -> dict:
    """mean / stderr (sample std over sqrt R) / min / max along the run axis."""
    R = values.shape[-1]
    std = values.std(axis=-1, ddof=1) if R > 1 else np.zeros(values.shape[:-1])
    return {
        "mean": values.mean(axis=-1),
        "stderr": std / math.sqrt(R),
        "min": values.min(axis=-1),
        "max": values.max(axis=-1),
    }


def output_root() -> str:
    """Directory under which relative output paths are resolved."""
    return os.environ.get(_OUTPUT_ENV, ".")


def _resolve_output(path: str | None) -> str | None:
    if path is None:
        return None
    if os.path.isabs(path):
        return path
    return os.path.join(output_root(), path)


def _series_stem(config: ExperimentConfig, algo_doc: dict, taken: set) -> str:
    label = algo_doc.get("label") or algo_doc["name"]
    stem = f"{config.name}_{label}"
    base, k = stem, 2
    while stem in taken:
        stem = f"{base}{k}"
        k += 1
    taken.add(stem)
    return stem


def _series_summary(
    config: ExperimentConfig, algo_doc: dict, parts: list, checkpoints: list, digest: str
) -> RunSummary:
    """Join one series' chunk results, in seed order, into its summary."""
    curve = _aggregate(np.concatenate([p[1] for p in parts], axis=1))
    est = _aggregate(np.concatenate([p[0] for p in parts])[None, :])
    return RunSummary(
        algorithm=algo_doc["name"],
        checkpoints=np.asarray(checkpoints, dtype=np.int64),
        mean_excess=curve["mean"],
        stderr=curve["stderr"],
        min_excess=curve["min"],
        max_excess=curve["max"],
        config_hash=digest,
        seed=config.seed,
        num_runs=config.num_runs,
        wall_time=max(p[3] for p in parts),  # series may overlap: the slowest chunk's own time
        estimator={
            "mean_excess": float(np.asarray(est["mean"]).reshape(())),
            "stderr": float(np.asarray(est["stderr"]).reshape(())),
            "min": float(np.asarray(est["min"]).reshape(())),
            "max": float(np.asarray(est["max"]).reshape(())),
        },
        discarded_samples=int(parts[0][2]),
    )


def run_experiment(config: ExperimentConfig) -> list[RunSummary]:
    """Execute every algorithm series of the config; returns one summary each.

    When the config names an output directory, each series writes
    ``<name>_<algorithm>.csv`` plus a matching ``.json`` summary there (and a
    combined ``<name>.svg`` when ``figure`` is set).
    """
    checkpoints = _checkpoint_schedule(config)
    outdir = _resolve_output(config.output)
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
    digest = config_hash(config)
    doc = config.to_json()
    chunks = _seed_chunks(config)
    jobs = [
        (doc, algo_doc, seeds, checkpoints) for algo_doc in config.algorithms for seeds in chunks
    ]
    summaries = []
    svg_series = []
    taken: set = set()
    pool = None
    if config.workers > 1 and len(jobs) > 1:
        # The default start method (fork on Linux) hands the workers this
        # process's modules as they are, including a wrapper installed on
        # _execute_chunk at run time; the pool never outlives this call.
        pool = ProcessPoolExecutor(max_workers=min(config.workers, len(jobs)))
    try:
        if pool is None:
            parts = itertools.starmap(_execute_chunk, jobs)
        else:  # every series' chunks in flight at once, joined in seed order
            futures = [pool.submit(_execute_chunk, *job) for job in jobs]
            parts = (f.result() for f in futures)
        for algo_doc in config.algorithms:
            series = [next(parts) for _ in chunks]
            summary = _series_summary(config, algo_doc, series, checkpoints, digest)
            if outdir is not None:
                stem = _series_stem(config, algo_doc, taken)
                csv_path = os.path.join(outdir, stem + ".csv")
                write_summary_csv(csv_path, summary)
                summary.csv_path = csv_path
                _write_json(os.path.join(outdir, stem + ".json"), summary.to_json())
                svg_series.append((stem, summary.checkpoints, summary.mean_excess))
            summaries.append(summary)
    finally:
        if pool is not None:  # after a failed chunk, drop the chunks not yet started
            pool.shutdown(cancel_futures=True)
    if outdir is not None and config.figure:
        _write_svg(os.path.join(outdir, config.name + ".svg"), svg_series)
    return summaries


# ---------------------------------------------------------------------------
# CSV / JSON / SVG emission
# ---------------------------------------------------------------------------


def write_summary_csv(path: str, summary: RunSummary) -> None:
    """Fixed schema ``t,mean_excess,stderr,min,max``; floats via repr (lossless)."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "mean_excess", "stderr", "min", "max"])
            for i, t in enumerate(summary.checkpoints):
                writer.writerow(
                    [
                        int(t),
                        repr(float(summary.mean_excess[i])),
                        repr(float(summary.stderr[i])),
                        repr(float(summary.min_excess[i])),
                        repr(float(summary.max_excess[i])),
                    ]
                )
    except OSError as exc:
        raise OSError(f"while writing CSV {path}: {exc}") from exc


def load_summary_csv(path: str) -> dict:
    """Read a summary CSV back into arrays keyed by column name."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
    except OSError as exc:
        raise OSError(f"while reading CSV {path}: {exc}") from exc
    if header != ["t", "mean_excess", "stderr", "min", "max"]:
        raise ValueError(f"unexpected CSV header in {path}: {header}")
    cols = list(zip(*rows)) if rows else [[]] * 5
    return {
        "t": np.array([int(v) for v in cols[0]], dtype=np.int64),
        "mean_excess": np.array([float(v) for v in cols[1]]),
        "stderr": np.array([float(v) for v in cols[2]]),
        "min": np.array([float(v) for v in cols[3]]),
        "max": np.array([float(v) for v in cols[4]]),
    }


def _write_json(path: str, doc: dict) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"while writing JSON {path}: {exc}") from exc


def _write_svg(path: str, series: list) -> None:
    """Minimal log-log line chart of mean excess risk per series."""
    W, H, pad = 640, 440, 56
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
    pts = []
    for _, t, y in series:
        mask = (np.asarray(t) > 0) & (np.asarray(y) > 0)
        if mask.any():
            pts.append((np.log10(np.asarray(t)[mask]), np.log10(np.asarray(y)[mask])))
    if not pts:
        return
    x_lo = min(p[0].min() for p in pts)
    x_hi = max(p[0].max() for p in pts)
    y_lo = min(p[1].min() for p in pts)
    y_hi = max(p[1].max() for p in pts)
    x_span = max(x_hi - x_lo, 1e-9)
    y_span = max(y_hi - y_lo, 1e-9)

    def sx(v):
        return pad + (v - x_lo) / x_span * (W - 2 * pad)

    def sy(v):
        return H - pad - (v - y_lo) / y_span * (H - 2 * pad)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {W} {H}" '
        f'font-family="sans-serif" font-size="11">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{pad}" y1="{H - pad}" x2="{W - pad}" y2="{H - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H - pad}" stroke="black"/>',
        f'<text x="{W / 2:.0f}" y="{H - 12}" text-anchor="middle">log10 samples</text>',
        f'<text x="14" y="{H / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {H / 2:.0f})">log10 excess risk</text>',
    ]
    for i, ((label, _, _), (lx, ly)) in enumerate(zip(series, pts)):
        color = colors[i % len(colors)]
        path_pts = " ".join(f"{sx(a):.1f},{sy(b):.1f}" for a, b in zip(lx, ly))
        lines.append(f'<polyline points="{path_pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        lines.append(f'<text x="{W - pad + 4}" y="{pad + 14 * i}" fill="{color}">{label}</text>')
    lines.append("</svg>")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"while writing SVG {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _set_by_path(doc: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        node = node[int(part)] if part.isdigit() else node.setdefault(part, {})
    leaf = parts[-1]
    if leaf.isdigit():
        node[int(leaf)] = value
    else:
        node[leaf] = value


def _cell_name(params: dict) -> str:
    if not params:
        return "base"
    bits = []
    for key in sorted(params):
        leaf = key.rsplit(".", 1)[-1]
        val = re.sub(r"[^A-Za-z0-9.+-]", "", str(params[key]))
        bits.append(f"{leaf}-{val}")
    return "_".join(bits)


def sweep(config_doc: dict, grid: dict, max_cells: int = 10**4) -> dict:
    """Cartesian product of grid overrides; one output directory per cell.

    ``grid`` maps dotted config paths (e.g. ``"chain.epsilon"``,
    ``"algorithm.num_instances"``) to lists of values.  Refuses grids larger
    than ``max_cells``.  Returns the index document (also written as
    ``index.json`` under the sweep output directory when one is set).
    """
    keys = sorted(grid)
    values = [grid[k] for k in keys]
    n_cells = int(np.prod([len(v) for v in values])) if keys else 1
    if n_cells > max_cells:
        raise ValueError(f"grid has {n_cells} cells, exceeding the cap of {max_cells}")
    base_output = config_doc.get("output")
    cells = []
    for combo in itertools.product(*values) if keys else [()]:
        params = dict(zip(keys, combo))
        doc = copy.deepcopy(config_doc)
        for k, v in params.items():
            _set_by_path(doc, k, v)
        name = _cell_name(params)
        if base_output is not None:
            doc["output"] = os.path.join(base_output, name)
        config = ExperimentConfig.from_json(doc)
        summaries = run_experiment(config)
        cells.append(
            {
                "cell": name,
                "params": params,
                "config_hash": config_hash(config),
                "output": doc.get("output"),
                "series": [s.algorithm for s in summaries],
            }
        )
    index = {"num_cells": len(cells), "cells": cells}
    if base_output is not None:
        root = _resolve_output(base_output)
        os.makedirs(root, exist_ok=True)
        _write_json(os.path.join(root, "index.json"), index)
    return index


def accept(suite: str, fast: bool = False) -> dict:
    """Run an acceptance suite and return its machine-readable report."""
    from .acceptance import run_suite

    return run_suite(suite, fast=fast)
