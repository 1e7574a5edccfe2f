"""markovsgd benchmark: run one workload for a fixed time and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload finite_wide --seed 1 --seconds 40 --trace 0

Workloads and metrics are declared in BENCHMARK.json at the root; why each
one exists is in perfbench/BENCHMARK.md.  The benchmark repeats the
workload's op until ``--seconds`` have passed and checks every op's outputs.

* ``--trace 0`` prints the end-to-end metrics: medians over the ops, set-up
  time as the median of fresh-interpreter set-ups, peak memory.
* ``--trace 1`` alternates untraced and traced ops and prints the per-layer
  metrics of the traced ones, with the tracing overhead against the
  untraced ops; the spans go to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
record provenance and the sha256 of each workload's estimates.
"""

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# Set before numpy loads; pool workers and set-up probes inherit them.
# One BLAS/OpenMP thread per process, so the benchmark and its pool workers
# never ask for more cores than the machine has.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# No huge-page advice on numpy's large arrays: where the kernel compacts
# memory on demand for advised regions, the stalls vary from run to run
# with the host's memory state, and they swamped the program's own costs
# (BENCHMARK.md, "Steadiness").
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import spans  # noqa: E402
import workloads  # noqa: E402  (imports numpy)

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(workloads.ROOT, ".perfbench_out")
SETUP_PROBES = 9


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(workloads.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"  # the benchmark may run from an export without .git


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(ms) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "markovsgd": ms.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "mp_start_method": multiprocessing.get_context().get_start_method(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
    }


def setup_seconds(workload: str, seed: int, tiny: bool) -> list[float]:
    """Set-up times of fresh interpreters, one probe after another."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
    if tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(1 if tiny else SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the inputs (smoke test)")
    args = parser.parse_args(argv)

    ms = workloads.import_package()
    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](ms, args.seed, args.tiny)
    tracer = spans.Tracer(ms) if args.trace else None

    plain, traced, layer = [], [], []
    failed = 0
    try:
        start = time.perf_counter()
        laps = []  # loop time per op, checks included
        op = 0
        while True:
            lap_start = time.perf_counter()
            with_trace = tracer is not None and op % 2 == 1
            if with_trace:
                tracer.op = op
                tracer.install()
            try:
                result = workload.run_op(ms)
            finally:
                if with_trace:
                    tracer.uninstall()
            (traced if with_trace else plain).append(result)
            if with_trace:
                got = spans.layer_metrics([s for s in tracer.spans if s.op == op], tracer.pid)
                layer.append(got)
                for name, want in result.counters.items():
                    if got[name] != want:
                        result.problems.append(f"traced {name} = {got[name]}, untraced count {want}")
                if any(got[k] != layer[0][k] for k in spans.EXACT_COUNTS):
                    result.problems.append("exact layer counts differ from the first traced op's")
            if result.counters != plain[0].counters:
                result.problems.append("exact counts differ from the first op's")
            status = "ok" if not result.problems else "FAILED: " + "; ".join(result.problems)
            failed += bool(result.problems)
            print(f"op {op}{' traced' if with_trace else ''}: {result.wall_s:.3f} s {status}", file=sys.stderr)
            op += 1
            now = time.perf_counter()
            laps.append(now - lap_start)
            # stop before an op that would likely end past the measuring time
            if now - start + statistics.median(laps) > args.seconds and (tracer is None or traced):
                break
    finally:
        workload.close()

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # pool workers
    attempted = len(plain) + len(traced)
    print(json.dumps({"provenance": provenance(ms)}))
    print(json.dumps({"estimates_sha256": sorted({r.digest for r in plain + traced})}))
    print(json.dumps({"untraced_op_walls_s": [r.wall_s for r in plain]}))

    if tracer is None:
        wall = statistics.median(r.wall_s for r in plain)
        setup = setup_seconds(args.workload, args.seed, args.tiny)
        metrics = {
            "samples_per_s": _metric(plain[0].states / wall, "1/s"),
            "wall_s": _metric(wall, "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric((rss + rss_children) / 1024.0, "MB"),
            "passed_frac": _metric((attempted - failed) / attempted, "ratio"),
        }
    else:
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        metrics = {
            name: _metric(
                layer[0][name] if name in spans.EXACT_COUNTS else statistics.median(m[name] for m in layer),
                unit,
            )
            for name, unit in spans.LAYER_UNITS.items()
        }
        untraced = statistics.median(r.wall_s for r in plain)
        traced_wall = statistics.median(r.wall_s for r in traced)
        metrics["trace.untraced_wall_s"] = _metric(untraced, "s")
        metrics["trace.traced_wall_s"] = _metric(traced_wall, "s")
        metrics["trace.overhead_ratio"] = _metric(traced_wall / untraced, "ratio")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
