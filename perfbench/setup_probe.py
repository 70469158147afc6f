"""Child process of the set-up measurement: prints its own set-up seconds.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED  (src/ on PYTHONPATH)

Times the import of dualnewton plus building the workload's problem
through the public constructors; interpreter start-up is not counted.
The time is scaled to the reference speed of ``speed.py`` by three probes
taken right after it.
"""

import sys
import time

start = time.perf_counter()
import dualnewton  # noqa: E402,F401

imported = time.perf_counter()

import workloads  # noqa: E402

cfg = workloads.configs(sys.argv[1], int(sys.argv[2]))[0]
built = time.perf_counter()
workloads.build_problem(cfg)
seconds = (imported - start) + (time.perf_counter() - built)

import speed  # noqa: E402

probes = sorted(speed.probe_seconds() for _ in range(3))
print(repr(seconds * speed.PROBE_REF_S / probes[1]))
