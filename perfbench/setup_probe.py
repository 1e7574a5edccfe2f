"""Time one set-up of a workload in a fresh interpreter and print it as JSON.

Usage: python3 perfbench/setup_probe.py <workload> <seed> [--tiny]

The timed part imports the package, builds the workload's inputs (problem,
configs, mixing time where used) and, for the pooled workload, starts and
stops a worker pool of the experiment's size.  ``run.py`` starts this probe
a few times per run and reports the median as ``setup_s``.
"""

import json
import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (numpy's import belongs to the timed set-up)

ms = workloads.import_package()
workload = workloads.WORKLOADS[sys.argv[1]](ms, int(sys.argv[2]), "--tiny" in sys.argv[3:])
workload.start_pool()
setup_s = time.perf_counter() - t0
workload.close()
print(json.dumps({"setup_s": setup_s}))
