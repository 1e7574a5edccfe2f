"""Experiment engine: seeded multi-run simulations, sweeps, and reports.

An experiment is described by a JSON document (chain, noise model, target
parameter rule, one or more algorithm blocks, horizon T, number of runs R,
base seed, checkpoint schedule, output location).  Run i uses seed
``seed + i``; all algorithm series within one experiment share the per-run
seeds, hence the same data streams.  Results are aggregated across runs into
per-checkpoint mean/stderr/min/max excess-risk curves, written as CSV with
the fixed header ``t,mean_excess,stderr,min,max`` plus a JSON summary
(config hash, seed, wall time, tail-averaged-estimator statistics, and the
package, Python, numpy and scipy versions, update loop, BLAS, stream seeding
and the number of CPUs it could run on).

Determinism: a config maps to byte-identical outputs for equal seeds.  Each series'
runs are split into ``min(workers, num_runs)`` contiguous seed chunks, and the
chunks of every series, in config order, are the experiment's jobs, which the
calling process and W - 1 forked processes share (see :func:`run_experiment`),
so series run side by side -- with ``num_runs = 1`` too, one chunk per series.
Series are joined in config order and their chunks in seed order, so the worker
count never changes the result.  A summary's ``wall_time_s`` is the longest time
one of its chunks took, as timed inside the chunk, since overlapping series
cannot be timed from the parent.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import platform
import re
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .algorithms import (
    DataDropConfig,
    ParallelConfig,
    ReplayConfig,
    SgdConfig,
    _chunk_edges,
    _load_kernel,
    _usable_cpus,
    kernel_info,
    run_lower_bound_traces,
    run_many,
)
from .chains import _from_fields, _run_streams, check_float, check_int, check_int_field, check_keys, check_object
from .regression import Problem, excess_risk, problem_from_json

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

# The config each algorithm block builds; a block's keys are its fields.
_ALGORITHMS = {"sgd": SgdConfig, "sgd_dd": DataDropConfig, "parallel_sgd": ParallelConfig, "sgd_er": ReplayConfig}

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
    num_runs: int = 1
    seed: int = 0
    w_star: object = None  # explicit vector (list) or "agnostic"
    w_init: object = "zeros"  # "zeros" | "w_star" | "random_unit" | vector
    checkpoints: tuple | None = None
    output: str | None = None
    name: str = "experiment"
    workers: int = 1
    figure: bool = False

    def __post_init__(self):
        # the config keeps copies, so a document changed after load changes
        # neither the config nor its hash
        for name in ("chain", "noise", "w_star", "w_init"):
            object.__setattr__(self, name, copy.deepcopy(getattr(self, name)))
        if not isinstance(self.figure, bool):
            raise ValueError(f"figure must be true or false, got {self.figure!r}")
        object.__setattr__(self, "name", str(self.name))
        if not isinstance(self.algorithms, (list, tuple, type(None))):
            raise ValueError(f"algorithms must be a list of algorithm blocks, got {self.algorithms!r:.60}")
        blocks = tuple(dict(check_object(a, f"algorithms[{i}]")) for i, a in enumerate(self.algorithms or ()))
        object.__setattr__(self, "algorithms", blocks)
        if check_int_field(self, "T") < 2:
            raise ValueError(f"T must be at least 2, got {self.T}")
        if check_int_field(self, "num_runs") < 1:
            raise ValueError(f"num_runs must be >= 1, got {self.num_runs}")
        if check_int_field(self, "seed") < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if check_int_field(self, "workers") < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not self.algorithms:
            raise ValueError("at least one algorithm block is required")
        for doc in self.algorithms:
            build_algorithm(doc)  # unknown names, keys and values fail at load
        # so do the chain, the noise, w_star and the w_init rule; the problem
        # built here is the one the config's chunks run
        problem = build_problem(self)
        _start_vector(self.w_init, problem.dim)
        object.__setattr__(self, "_problem", problem)
        if self.checkpoints is not None:
            if not isinstance(self.checkpoints, (list, tuple)):
                raise ValueError(f"checkpoints must be a list of integers, got {self.checkpoints!r:.60}")
            pts = [check_int(p, f"checkpoints[{i}]") for i, p in enumerate(self.checkpoints)]
            if any(p < 0 for p in pts):
                raise ValueError("checkpoints must be nonnegative integers")
            if any(b <= a for a, b in zip(pts, pts[1:])):
                raise ValueError("checkpoints must be strictly increasing")
            if pts and pts[-1] > self.T:
                raise ValueError("checkpoints must not exceed T")
            object.__setattr__(self, "checkpoints", tuple(pts))

    @property
    def problem(self) -> Problem:
        """The problem :func:`build_problem` made of this config when it loaded."""
        return self._problem

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        """The config whose fields a JSON document gives, ``algorithm``
        standing for a one-block ``algorithms``; a null ``algorithms`` holds
        no blocks."""
        check_keys(doc, [f.name for f in fields(cls)] + ["algorithm"], "experiment config")
        doc = dict(doc)
        if "algorithm" in doc:
            if "algorithms" in doc:
                raise ValueError('an experiment config holds "algorithm" or "algorithms", not both')
            single = doc.pop("algorithm")
            doc["algorithms"] = None if single is None else [single]
        return _from_fields(cls, {"algorithms": None, **doc})

    def to_json(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["algorithms"] = list(self.algorithms)
        if self.checkpoints is not None:
            doc["checkpoints"] = list(self.checkpoints)
        return copy.deepcopy(doc)


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
    provenance: dict = field(default_factory=dict)

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
            "provenance": self.provenance,
        }


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def build_algorithm(doc: dict):
    """Typed algorithm config from a JSON block (keyed by ``name``).

    A block's keys are the fields of its config class, with that class's
    defaults; a data-drop or parallel block holds its ``SgdConfig``'s
    fields beside its own.  ``label`` names the series' output files; any
    other key is an error.  ``lower_bound_trace`` takes ``eta`` alone.
    """
    name = check_object(doc, "algorithm block").get("name")
    if name == "lower_bound_trace":
        check_keys(doc, ("name", "label", "eta"), f"{name} block")
        return (name, check_float(doc["eta"], "eta"))
    if name not in _ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}")
    cls = _ALGORITHMS[name]
    keys = [f.name for f in fields(cls)]
    nested = "base" in keys  # data-drop and parallel SGD: a base SgdConfig's fields beside their own
    if nested:
        keys = [k for k in keys if k != "base"] + [f.name for f in fields(SgdConfig)]
    check_keys(doc, ["name", "label"] + keys, f"{name} block")
    if nested:
        return _from_fields(cls, doc, base=_from_fields(SgdConfig, doc))
    return _from_fields(cls, doc)


def default_checkpoints(T: int) -> list[int]:
    """Geometric schedule: x1.5 steps from 100 up to and including T."""
    pts = []
    v = 100.0
    while v < T:
        pts.append(int(round(v)))
        v *= 1.5
    pts.append(T)
    return sorted(set(pts))  # v < T rounds to at most T


def _checkpoint_schedule(config: ExperimentConfig) -> list[int]:
    """The config's checkpoints, or the default schedule for its horizon."""
    return default_checkpoints(config.T) if config.checkpoints is None else list(config.checkpoints)


def config_hash(config: ExperimentConfig) -> str:
    """sha256 of the canonical JSON of the semantic fields.

    Names, series labels, paths and worker counts stay out of it, and the
    checkpoints enter as the schedule that runs, so an omitted schedule and
    the default one written out hash the same.  Numpy scalars and arrays
    enter as the Python numbers and lists they hold, and a w_star or
    w_init vector as floats, so ``[1, 0.5]`` and ``[1.0, 0.5]`` hash the
    same.
    """
    doc = config.to_json()
    for key in _NON_SEMANTIC_KEYS:
        doc.pop(key, None)
    doc["algorithms"] = [{k: v for k, v in a.items() if k != "label"} for a in doc["algorithms"]]
    doc["checkpoints"] = _checkpoint_schedule(config)
    for key in ("w_star", "w_init"):
        if doc[key] is not None and not isinstance(doc[key], str):
            doc[key] = [float(v) for v in doc[key]]
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_json_number)
    return hashlib.sha256(blob.encode()).hexdigest()


def _json_number(value):
    """A numpy scalar's Python number, or an array's nested list, for :mod:`json`."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def build_problem(config: ExperimentConfig) -> Problem:
    """The config's problem, read as :func:`markovsgd.regression.problem_from_json` reads one."""
    return problem_from_json({"chain": config.chain, "noise": config.noise, "w_star": config.w_star})


_W_INIT_RULES = ("zeros", "w_star", "random_unit")


def _start_vector(rule, dim: int) -> np.ndarray | None:
    """The start a ``w_init`` rule gives as a vector of ``dim`` finite
    numbers, or None for a named rule; anything else is an error."""
    if rule is None or (isinstance(rule, str) and rule in _W_INIT_RULES):
        return None
    if isinstance(rule, str) or np.ndim(rule) != 1 or len(rule) != dim:
        raise ValueError(f"w_init must be one of {list(_W_INIT_RULES)} or a vector of {dim} numbers, got {rule!r}")
    return np.array([check_float(v, f"w_init[{i}]") for i, v in enumerate(rule)])


def resolve_w_init(rule, problem: Problem, seeds) -> np.ndarray | None:
    """Initial-point rule -> engine argument (None, (d,) or per-run (R, d)).

    ``"random_unit"`` draws one uniform unit vector per run from the run's
    init generator (the fourth Philox child of its seed): d normals, divided
    by their norm.  Every run's normals are drawn in one fill.
    """
    vector = _start_vector(rule, problem.dim)
    if vector is not None or rule in (None, "zeros"):
        return vector
    if rule == "w_star":
        return problem.w_star
    if rule == "random_unit":
        (init,) = _run_streams(seeds, (3,))
        out = init.fill(np.empty((len(seeds), problem.dim)), normal=True)
        for row in out:
            row /= np.linalg.norm(row)
        return out


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _execute_chunk(config: ExperimentConfig, algo, seeds: list, checkpoints: list):
    """Run one seed chunk of one algorithm series, ``algo`` as :func:`build_algorithm`
    built it; a forked worker inherits the arguments, and only the result is pickled.

    Returns the per-run estimate excess, the (checkpoints, runs) excess, the
    per-run discarded sample count and the chunk's own wall seconds.
    """
    t0 = time.perf_counter()
    problem = config.problem
    w_init = resolve_w_init(config.w_init, problem, seeds)
    if isinstance(algo, tuple):  # lower-bound trace: excess = gamma^2 / d
        _, eta = algo
        _, gammas, _ = run_lower_bound_traces(problem, config.T, eta, seeds, w_init=w_init)
        excess = gammas**2 / problem.dim
        steps = np.minimum(np.asarray(checkpoints, dtype=np.int64), config.T)
        return excess[config.T], excess[steps], 0, time.perf_counter() - t0
    # one thread per chunk: the experiment's own ``workers`` spreads its chunks
    result = run_many(
        problem, config.T, algo, seeds, w_init=w_init, checkpoints=checkpoints, workers=1
    )
    est_excess = excess_risk(problem, result.estimates)
    return est_excess, result.checkpoint_excess, result.discarded_samples, time.perf_counter() - t0


def _seed_chunks(config: ExperimentConfig) -> list[list[int]]:
    """Each series' runs as ``min(workers, num_runs)`` contiguous seed
    chunks, split as :func:`markovsgd.algorithms.run_many` splits a batch
    whose weights fit one tile per worker; each chunk's ``run_many`` call
    cuts it into tiles of its own where they do not."""
    edges = _chunk_edges(config.num_runs, config.workers)
    return [[config.seed + i for i in range(lo, hi)] for lo, hi in zip(edges, edges[1:])]


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
    # joined to an absolute path, the root drops out
    return None if path is None else os.path.join(output_root(), path)


def _series_stem(config: ExperimentConfig, algo_doc: dict, taken: set) -> str:
    label = algo_doc.get("label") or algo_doc["name"]
    stem = f"{config.name}_{label}"
    base, k = stem, 2
    while stem in taken:
        stem = f"{base}{k}"
        k += 1
    taken.add(stem)
    return stem


def _provenance(dim: int) -> dict:
    """What a run of dimension ``dim`` ran under, with the dot its update
    loop takes ("fma", "ddot" or "numpy") and the lanes per register it
    may take there (4 or 1); bitwise reproducibility holds within one
    numpy release, whatever the lanes."""
    import scipy

    from . import __version__

    kern = _load_kernel(dim)  # checks the dimension
    info = kernel_info()
    dot = "numpy" if kern is None else "fma" if dim in info["fused_dims"] else "ddot"
    return {
        "markovsgd": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernel": info["path"],
        "blas": info["blas"],
        "streams": info["streams"],
        "dot": dot,
        "lanes": info["lanes"] if dot == "fma" else 1,
        "cpu_count": _usable_cpus(),
    }


def _series_summary(
    config: ExperimentConfig, algo_doc: dict, parts: list, checkpoints: list, digest: str, provenance: dict
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
            name: float(np.asarray(est[key]).reshape(()))
            for name, key in (("mean_excess", "mean"), ("stderr", "stderr"), ("min", "min"), ("max", "max"))
        },
        discarded_samples=int(parts[0][2]),
        provenance=provenance,
    )


def _raise_if_error(part):
    if isinstance(part, Exception):
        raise part
    return part


def _take_jobs(first: int, jobs: list, next_job) -> list:
    """Runs job ``first``, then the next job no process has taken, until
    none is left or one fails; returns ``(index, result)`` pairs, with the
    error in place of a failed job's result.  A failure stops every process
    from taking another job."""
    done = []
    j = first
    while j < len(jobs):
        try:
            done.append((j, _execute_chunk(*jobs[j])))
        except Exception as exc:  # raised when the join reaches job j
            done.append((j, exc))
            next_job.value = len(jobs)
            break
        with next_job.get_lock():
            j = next_job.value
            next_job.value = j + 1
    return done


def _flush_std_streams() -> None:
    import sys

    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError, ValueError):  # a stream set to None, closed or broken
            pass


def _fork_worker(first: int, jobs: list, next_job) -> tuple:
    """Forks a process that runs :func:`_take_jobs` from job ``first``, writes the pickled
    pairs to a pipe of its own and leaves through ``os._exit``; returns its pid and the read end."""
    import pickle
    import traceback

    r, w = os.pipe()
    _flush_std_streams()  # else the child writes the caller's buffered output again
    pid = os.fork()
    if pid == 0:  # never returns into the caller's code
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as fh:
                fh.write(pickle.dumps(_take_jobs(first, jobs, next_job)))
            code = 0
        except Exception:  # a result that does not pickle, say: the caller sees the status
            traceback.print_exc()
        finally:
            try:
                _flush_std_streams()
            finally:
                os._exit(code)
    os.close(w)  # so the read ends when the child exits
    return pid, r


def run_experiment(config: ExperimentConfig) -> list[RunSummary]:
    """Execute every algorithm series of the config; returns one summary each.

    The jobs, each series' seed chunks in config order, run on
    ``W = min(workers, jobs)`` processes, this one included: it forks ``W - 1``,
    which open with jobs 1 .. W - 1, this one with job 0, and from then on each
    process that is free takes the next job no process has taken, through a
    counter they share.  A forked process sends its results back pickled
    through its own pipe and is reaped before this call returns or raises; one
    that exits without sending them is a ``RuntimeError``.  Jobs join in order,
    so series in config order and chunks in seed order.  The first failing job
    in job order raises the serial run's error: once a job fails no process
    takes another, and a job no process ran follows the failed one.

    When the config names an output directory, each series writes
    ``<name>_<algorithm>.csv`` plus a matching ``.json`` summary there (and a
    combined ``<name>.svg`` when ``figure`` is set).
    """
    import pickle

    checkpoints = _checkpoint_schedule(config)
    outdir = _resolve_output(config.output)
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
    digest = config_hash(config)
    kernel_info()  # builds or loads the update kernel here, so forked workers inherit it
    provenance = None
    chunks = _seed_chunks(config)
    jobs = [
        (config, build_algorithm(algo_doc), seeds, checkpoints) for algo_doc in config.algorithms for seeds in chunks
    ]
    summaries = []
    svg_series = []
    taken: set = set()
    W = min(config.workers, len(jobs))  # processes that run jobs, this one included
    next_job = multiprocessing.Value("q", W)  # jobs 1 .. W - 1 open the forked processes
    # A fork hands the workers this process's modules as they are, including
    # a wrapper installed on _execute_chunk at run time.
    forked = []  # (pid, read end of its result pipe)
    sent = []  # (pid, pickled results, wait status)
    try:
        for j in range(1, W):
            forked.append(_fork_worker(j, jobs, next_job))
        results = dict(_take_jobs(0, jobs, next_job))
    finally:
        next_job.value = len(jobs)  # after a failure here, no process takes a job
        for pid, r in forked:
            with open(r, "rb") as fh:
                sent.append((pid, fh.read(), os.waitpid(pid, 0)[1]))
    for pid, data, status in sent:
        if status or not data:  # killed, or left through os._exit in a chunk
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"worker process {pid} exited with status {code} before it sent its results")
        results.update(pickle.loads(data))
    # series join in config order, chunks in seed order; a job that no
    # process ran follows a failed one, which raises first
    parts = (_raise_if_error(results[i]) for i in range(len(jobs)))
    for algo_doc in config.algorithms:
        series = [next(parts) for _ in chunks]
        if provenance is None:
            # checks the dimension only once the workers run: a check
            # made before they fork adds ~0.5 MB to the peak memory
            provenance = _provenance(config.problem.dim)
        summary = _series_summary(config, algo_doc, series, checkpoints, digest, provenance)
        if outdir is not None:
            stem = _series_stem(config, algo_doc, taken)
            csv_path = os.path.join(outdir, stem + ".csv")
            write_summary_csv(csv_path, summary)
            summary.csv_path = csv_path
            _write_json(os.path.join(outdir, stem + ".json"), summary.to_json())
            svg_series.append((stem, summary.checkpoints, summary.mean_excess))
        summaries.append(summary)
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
            columns = (summary.mean_excess, summary.stderr, summary.min_excess, summary.max_excess)
            for i, t in enumerate(summary.checkpoints):
                writer.writerow([int(t)] + [repr(float(c[i])) for c in columns])
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
    floats = {name: np.array([float(v) for v in col]) for name, col in zip(header[1:], cols[1:])}
    return {"t": np.array([int(v) for v in cols[0]], dtype=np.int64), **floats}


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
    """Set the field of ``doc`` at ``dotted``, whose number parts index
    lists, making the objects it passes through that ``doc`` lacks."""
    parts = dotted.split(".")
    node = doc
    try:
        for part in parts[:-1]:
            node = node[int(part)] if part.isdigit() else node.setdefault(part, {})
        node[int(parts[-1]) if parts[-1].isdigit() else parts[-1]] = value
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        raise ValueError(f"grid path {dotted!r} names no field of the config") from exc


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
    ``"algorithms.0.num_instances"``) to lists of values.  Refuses grids larger
    than ``max_cells``.  Every cell's config is loaded, and so checked,
    before any cell runs.  Returns the index document (also written as
    ``index.json`` under the sweep output directory when one is set).
    """
    check_object(grid, "grid")
    for key, vals in grid.items():
        if not isinstance(key, str) or not isinstance(vals, list) or not vals:
            raise ValueError(f"grid path {key!r} must map to a non-empty list of values, got {vals!r:.60}")
    keys = sorted(grid)
    values = [grid[k] for k in keys]
    n_cells = int(np.prod([len(v) for v in values])) if keys else 1
    if n_cells > max_cells:
        raise ValueError(f"grid has {n_cells} cells, exceeding the cap of {max_cells}")
    base_output = check_object(config_doc, "experiment config").get("output")
    loaded = []
    for combo in itertools.product(*values):
        params = dict(zip(keys, combo))
        doc = copy.deepcopy(config_doc)
        for k, v in params.items():
            _set_by_path(doc, k, v)
        name = _cell_name(params)
        if base_output is not None:
            doc["output"] = os.path.join(base_output, name)
        loaded.append((name, params, doc, ExperimentConfig.from_json(doc)))
    cells = []
    for name, params, doc, config in loaded:
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
