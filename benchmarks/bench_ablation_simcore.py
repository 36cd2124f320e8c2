"""Ablation: event-driven scheduler core + sharded host execution.

The simulator's inner loop is trace *replay*: every sweep point
re-schedules a recorded segment DAG under a different CPU/topology
configuration.  The scheduler is a discrete-event core (compiled CSR
adjacency, packed-int event heap); the original list scheduler is kept
as its oracle in ``tests/timing/sched_oracle.py``.  Forked host workers
(``Machine(shard_workers=N)``) run sibling subtrees in parallel between
snap/merge barriers.

This ablation replays the matmult-tree trace (8 fat-tree nodes, the
shape the 64-1024-node sweeps scale up) through the event core and the
oracle and reports

* ``replay_speedup_x`` — oracle replay time / event-core replay time
  (min over repetitions; both sides measured in this same process, so
  the ratio is robust to machine speed).  check_regression.py gates it
  *downward*: losing more than 25% of the committed speedup fails CI.
* bit-identity — every ScheduleResult field, link grants included,
  must match between the event core and the oracle, and the sharded
  guest run must reproduce the serial makespan with every forked
  worker adopted (no fallbacks).

Results land in ``benchmarks/out/BENCH_simcore.json``; the committed
``benchmarks/BENCH_simcore.json`` is the baseline.
"""

import time

from conftest import dump_json
from sched_oracle import schedule_list

from repro.bench import cluster_workloads as cw
from repro.timing.schedule import schedule

N = 128
NODES = 8
TOPOLOGY = "fat_tree:2"
REPS = 200


def _result_fields(result):
    return (result.makespan, result.busy, dict(result.start),
            dict(result.finish), result.cpu_count, dict(result.link_busy),
            dict(result.class_busy), dict(result.stall_cycles),
            list(result.grants))


def _time_replay(trace, cpus, scheduler):
    best = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        scheduler(trace, cpus_per_node=cpus)
        best = min(best, time.perf_counter() - start)
    return best


def test_ablation_simcore(once):
    def run_all():
        _, machine, _ = cw.run_cluster(cw.matmult_tree_main(N), NODES,
                                       topology=TOPOLOGY)
        trace = machine.trace
        cpus = {node: 1 for node in range(NODES)}
        event = schedule(trace, cpus_per_node=cpus)
        oracle, _ = schedule_list(trace, cpus_per_node=cpus)
        identical = _result_fields(event) == _result_fields(oracle)
        # The first event run compiled and cached the plan; the timed
        # replays below measure the steady-state sweep loop.
        event_s = _time_replay(trace, cpus, schedule)
        list_s = _time_replay(trace, cpus, schedule_list)

        serial_mk, _, serial_v = cw.run_cluster(
            cw.md5_circuit_main(3), NODES, topology=TOPOLOGY)
        shard_mk, shard_m, shard_v = cw.run_cluster(
            cw.md5_circuit_main(3), NODES, topology=TOPOLOGY,
            shard_workers=4)
        return {
            "replay": {
                "segments": len(trace.segments),
                "makespan": event.makespan,
                "event_us": round(event_s * 1e6, 1),
                "list_us": round(list_s * 1e6, 1),
                "replay_speedup_x": round(list_s / event_s, 2),
                "identical": identical,
            },
            "shard": {
                "makespan": shard_mk,
                "forked": shard_m.shard.forked,
                "adopted": shard_m.shard.adopted,
                "fallbacks": shard_m.shard.fallbacks,
                "identical": (shard_mk == serial_mk
                              and shard_v == serial_v),
            },
        }

    results = once(run_all)
    replay, shard = results["replay"], results["shard"]
    print()
    print(f"Event-core ablation (matmult-tree n={N}, {NODES}-node "
          f"{TOPOLOGY}, {replay['segments']} segments):")
    print(f"  replay: event {replay['event_us']:>8.1f} us"
          f"   list {replay['list_us']:>8.1f} us"
          f"   speedup {replay['replay_speedup_x']:.2f}x")
    print(f"  shard : {shard['adopted']}/{shard['forked']} siblings "
          f"adopted, {shard['fallbacks']} fallbacks, "
          f"makespan {shard['makespan']:,}")

    # Bit-identity with the oracle pins the scheduling policy, and lets
    # sharded sweeps gate against serial ones.
    assert replay["identical"]
    assert shard["identical"]
    assert shard["forked"] == NODES
    assert shard["adopted"] == shard["forked"]
    assert shard["fallbacks"] == 0
    # The event core must actually be faster; the committed baseline
    # (via check_regression's throughput gate) holds the real bar.
    assert replay["replay_speedup_x"] > 1.5

    dump_json("BENCH_simcore.json", results)
