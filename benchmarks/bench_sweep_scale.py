"""Nightly scale sweep: 64-1024 fat-tree nodes through the event core.

The event-driven scheduler core exists so that high-node-count sweeps
are affordable; this nightly-only bench proves the claim where it
matters.  A wide md5-circuit (one sibling per node — the maximally
shardable shape) runs serially at 64, 256 and 1024 fat-tree nodes; each
recorded trace then replays through the event core and the list
scheduler oracle (``tests/timing/sched_oracle.py``), which must agree
bit for bit at every size.  At 64 nodes the whole guest run also
repeats under ``shard_workers`` and must reproduce the serial machine's
makespan and value with every forked sibling adopted.

Host-speedup numbers are recorded but not asserted: sharded wall clock
scales with *available cores* (on a single-core runner forked workers
time-slice and the run is wall-neutral by design), while bit-identity
and full adoption must hold on any host.

Results land in ``benchmarks/out/SWEEP_scale.json`` — uploaded as a CI
artifact for trend inspection, deliberately outside the ``BENCH_*.json``
prefix so the PR-time regression gate (which runs no slow_cluster
benches) does not demand it.
"""

import time

import pytest
from conftest import dump_json
from sched_oracle import schedule_list

from repro.bench import cluster_workloads as cw
from repro.timing.schedule import schedule

NODE_COUNTS = (64, 256, 1024)
TOPOLOGY = "fat_tree:4"
SHARD_NODES = 64
SHARD_WORKERS = 8


def _replay_seconds(trace, cpus, scheduler, reps=5):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        scheduler(trace, cpus_per_node=cpus)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.slow_cluster
def test_scale_sweep_event_core(once):
    def run_all():
        results = {}
        for nodes in NODE_COUNTS:
            makespan, machine, value = cw.run_cluster(
                cw.md5_circuit_main(3), nodes, topology=TOPOLOGY)
            trace = machine.trace
            cpus = {node: 1 for node in range(nodes)}
            event = schedule(trace, cpus_per_node=cpus)
            oracle, _ = schedule_list(trace, cpus_per_node=cpus)
            results[str(nodes)] = {
                "makespan": makespan,
                "value": value,
                "segments": len(trace.segments),
                "oracle_identical": (
                    event.makespan == oracle.makespan
                    and event.busy == oracle.busy
                    and dict(event.finish) == dict(oracle.finish)
                    and dict(event.link_busy) == dict(oracle.link_busy)
                    and dict(event.stall_cycles) == dict(oracle.stall_cycles)
                    and event.grants == oracle.grants
                ),
                "event_replay_us": round(
                    _replay_seconds(trace, cpus, schedule) * 1e6, 1),
                "list_replay_us": round(
                    _replay_seconds(trace, cpus, schedule_list) * 1e6, 1),
            }
        serial_mk, _, serial_v = cw.run_cluster(
            cw.md5_circuit_main(3), SHARD_NODES, topology=TOPOLOGY)
        shard_mk, shard_m, shard_v = cw.run_cluster(
            cw.md5_circuit_main(3), SHARD_NODES, topology=TOPOLOGY,
            shard_workers=SHARD_WORKERS)
        results["shard"] = {
            "nodes": SHARD_NODES,
            "forked": shard_m.shard.forked,
            "adopted": shard_m.shard.adopted,
            "fallbacks": shard_m.shard.fallbacks,
            "identical": shard_mk == serial_mk and shard_v == serial_v,
        }
        return results

    results = once(run_all)
    print()
    print(f"Scale sweep (md5-circuit, {TOPOLOGY}):")
    for nodes in NODE_COUNTS:
        row = results[str(nodes)]
        speedup = row["list_replay_us"] / row["event_replay_us"]
        print(f"  {nodes:>5} nodes  {row['segments']:>6} segments"
              f"  replay event {row['event_replay_us']:>9.1f} us"
              f"  list {row['list_replay_us']:>9.1f} us"
              f"  ({speedup:.2f}x)")
    shard = results["shard"]
    print(f"  shard@{shard['nodes']}: {shard['adopted']}/{shard['forked']} "
          f"adopted, {shard['fallbacks']} fallbacks")

    for nodes in NODE_COUNTS:
        assert results[str(nodes)]["oracle_identical"]
    values = {results[str(nodes)]["value"] for nodes in NODE_COUNTS}
    assert len(values) == 1  # distribution is semantically transparent
    assert shard["identical"]
    assert shard["adopted"] == shard["forked"] == shard["nodes"]
    assert shard["fallbacks"] == 0

    dump_json("SWEEP_scale.json", results)
