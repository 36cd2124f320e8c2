"""Bit-identity of the event-driven scheduler core vs the list oracle.

``schedule`` (the event core) and ``sched_oracle.schedule_list`` (the
original list scheduler, kept in the tests) implement the identical
policy; every field of their ScheduleResults — including the link
grants, in order — must match exactly on every trace, and the
per-transfer intervals :class:`~repro.timing.timeline.Timeline` builds
from the core's grants must equal the ones the oracle records.  These
tests drive both over real workload traces (the cluster workloads
across fabrics, ship modes and lossy links) and over synthetic traces
that exercise link contention, stall attribution and the error paths.
"""

import random

import pytest
from sched_oracle import schedule_list

from repro.bench import cluster_workloads as cw
from repro.timing import Trace
from repro.timing.schedule import schedule
from repro.timing.timeline import Timeline


def result_fields(result):
    """Every observable field of a ScheduleResult, dict-normalized."""
    return {
        "makespan": result.makespan,
        "busy": result.busy,
        "start": dict(result.start),
        "finish": dict(result.finish),
        "cpu_count": result.cpu_count,
        "link_busy": dict(result.link_busy),
        "class_busy": dict(result.class_busy),
        "stall_cycles": dict(result.stall_cycles),
        "grants": list(result.grants),
    }


def interval_fields(timeline):
    """A Timeline's transfers as the oracle's interval tuples."""
    return [(t.src, t.dst, t.link, t.start, t.end, t.arrival, t.cls, t.kind)
            for t in timeline.transfers]


def assert_matches_oracle(trace, **kwargs):
    event = result_fields(schedule(trace, **kwargs))
    oracle, intervals = schedule_list(trace, **kwargs)
    assert event == result_fields(oracle)
    assert interval_fields(Timeline(trace, **kwargs)) == intervals
    return event


# -- real workload traces -------------------------------------------------

WORKLOADS = [
    ("md5_tree", cw.md5_tree_main(3)),
    ("matmult_tree", cw.matmult_tree_main(32)),
]
TOPOLOGIES = [None, "two_tier:2", "fat_tree:2"]
SHIP_MODES = ["delta", "full", "demand"]


@pytest.mark.parametrize("topology", TOPOLOGIES,
                         ids=["flat", "two_tier", "fat_tree"])
@pytest.mark.parametrize("workload", [w for w, _ in WORKLOADS])
def test_workload_traces_identical_across_fabrics(workload, topology):
    builder = dict(WORKLOADS)[workload]
    _, machine, _ = cw.run_cluster(builder, 4, topology=topology)
    fields = assert_matches_oracle(
        machine.trace, cpus_per_node={n: 1 for n in range(4)})
    assert fields["makespan"] > 0


@pytest.mark.parametrize("ship_mode", SHIP_MODES)
def test_workload_traces_identical_across_ship_modes(ship_mode):
    _, machine, _ = cw.run_cluster(cw.matmult_tree_main(32), 4,
                                   topology="fat_tree:2", ship_mode=ship_mode)
    assert_matches_oracle(machine.trace,
                         cpus_per_node={n: 1 for n in range(4)})


def test_workload_trace_identical_with_loss():
    # Retransmissions add extra link transfers; the core and the oracle
    # must charge them to the same links, classes and stall kinds.
    _, machine, _ = cw.run_cluster(cw.matmult_tree_main(32), 4,
                                   topology="two_tier:2", loss=0.05)
    fields = assert_matches_oracle(
        machine.trace, cpus_per_node={n: 1 for n in range(4)})
    assert fields["link_busy"]


@pytest.mark.parametrize("ncpus", [1, 2, 10**9])
def test_workload_trace_identical_across_cpu_counts(ncpus):
    _, machine, _ = cw.run_cluster(cw.md5_tree_main(3), 4)
    assert_matches_oracle(machine.trace, ncpus=ncpus)


# -- synthetic traces -----------------------------------------------------

def random_trace(rng, ncontexts=6, ncuts=8):
    """A random closed DAG with plain edges and contended link edges."""
    tr = Trace()
    closed = []
    for c in range(ncontexts):
        tr.begin(f"c{c}", node=c % 3)
        tr.charge(f"c{c}", rng.randrange(1, 50))
    for _ in range(ncuts):
        uid = f"c{rng.randrange(ncontexts)}"
        seg, _ = tr.cut(uid)
        tr.charge(uid, rng.randrange(1, 50))
        closed.append(seg)
        if closed and rng.random() < 0.7:
            src = rng.choice(closed)
            dst = tr._open[uid]
            if src.id < dst.id:
                if rng.random() < 0.5:
                    tr.edge(src, dst, latency=rng.randrange(0, 20))
                else:
                    tr.link_edge(src, dst, link=(src.node, dst.node),
                                 busy=rng.randrange(0, 30),
                                 latency=rng.randrange(0, 10),
                                 cls="rack" if rng.random() < 0.5 else "core",
                                 kind=rng.choice(["fetch", "migrate", None]))
    tr.finish()
    return tr


@pytest.mark.parametrize("seed", range(8))
def test_random_traces_identical(seed):
    rng = random.Random(seed)
    tr = random_trace(rng)
    for ncpus in (1, 2, 10**9):
        assert_matches_oracle(tr, ncpus=ncpus)
    assert_matches_oracle(tr, cpus_per_node={0: 1, 1: 2, 2: 1})


def test_empty_trace_identical():
    assert_matches_oracle(Trace())


def test_plan_cache_reuse_stays_identical():
    # Replaying the same trace repeatedly (the sweep/CI pattern) reuses
    # the event core's compiled plan; results must not drift.
    tr = random_trace(random.Random(99))
    first = result_fields(schedule(tr, ncpus=2))
    for _ in range(3):
        assert result_fields(schedule(tr, ncpus=2)) == first
    assert result_fields(schedule_list(tr, ncpus=2)[0]) == first


@pytest.mark.parametrize("scheduler", [schedule, schedule_list],
                         ids=["event", "list"])
def test_cycle_detection_identical(scheduler):
    tr = Trace()
    tr.begin("a")
    tr.charge("a", 5)
    s0, s1 = tr.cut("a")
    tr.charge("a", 5)
    tr.finish()
    tr.edge(s1, s0)  # back edge: s1 -> s0 while s0 -> s1 already exists
    with pytest.raises(ValueError, match="cycle or dangling"):
        scheduler(tr)
