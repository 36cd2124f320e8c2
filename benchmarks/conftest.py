"""Shared helpers for the figure-regeneration benchmarks.

Each ``bench_*`` file regenerates one paper table/figure.  The series is
computed once (``rounds=1`` — the simulations are themselves
deterministic, so repetition adds nothing) and printed so that running

    pytest benchmarks/ --benchmark-only -s

reproduces every row/series the paper reports.
"""

import json
import os
import sys
import time

import pytest

# The reference list scheduler lives with the tests
# (tests/timing/sched_oracle.py); the event-core benches time and check
# the scheduler against it.
_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO, "tests", "timing"))

#: Where ablation/benchmark JSON outputs land; CI uploads these as
#: workflow artifacts and gates them against the committed
#: ``benchmarks/BENCH_*.json`` baselines (see check_regression.py).
OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

# Host wall-clock seconds of the most recent ``once`` run, so that
# dump_json can stamp every BENCH_*.json with the simulator's *host*
# throughput alongside the virtual-time results it already records.
_last_wall = {"seconds": None}


def _sum_makespans(payload):
    """Total virtual cycles simulated: the sum of every ``makespan``
    leaf anywhere in the payload."""
    if isinstance(payload, dict):
        return sum(
            value if key == "makespan" and isinstance(value, (int, float))
            else _sum_makespans(value)
            for key, value in payload.items())
    if isinstance(payload, list):
        return sum(_sum_makespans(item) for item in payload)
    return 0


def dump_json(name, payload):
    """Write one benchmark's machine-readable results to out/``name``.

    Top-level dict payloads produced under the ``once`` fixture gain two
    host-throughput keys: ``host_wall_s`` (wall seconds of the run) and
    ``sim_cycles_per_host_s`` (sum of all ``makespan`` leaves divided by
    that wall time).  check_regression.py gates the latter *downward* —
    a >25% host-side slowdown fails CI even when every virtual-time
    metric is unchanged.
    """
    wall = _last_wall["seconds"]
    if wall and isinstance(payload, dict):
        cycles = _sum_makespans(payload)
        payload = dict(payload)
        payload["host_wall_s"] = round(wall, 6)
        payload["sim_cycles_per_host_s"] = int(cycles / wall)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark, recording its
    host wall time for dump_json's throughput stamp."""
    start = time.perf_counter()
    try:
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)
    finally:
        _last_wall["seconds"] = time.perf_counter() - start


@pytest.fixture
def once(benchmark):
    def _run(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return _run
