"""The benchmark's four workloads.

Each workload builds its inputs and its own reference answers from the
seed when constructed (that is set-up), and then runs one iteration per
:meth:`iterate` call through the program's public entry points.  An
iteration returns an :class:`Outcome`: how many operations it attempted,
how many failed the reference check, and its virtual results, which the
caller compares with the first iteration's (a free determinism check).
"""

import hashlib
import os
import statistics

import numpy as np

from repro import Cluster, ClusterSpec, ReproError, run_backend, serve_trace
from repro.bench import cluster_workloads
from repro.bench.harness import run_determinator
from repro.bench.workloads import lu
from repro.bench.workloads import serving as serving_workload
from repro.bench.workloads.blackscholes import make_options
from repro.cluster.backend import image_digest
from repro.timing import schedule


class Outcome:
    """One iteration's result."""

    def __init__(self, attempted, failed, virtual, runs, extra=None):
        #: Operations attempted and those that failed a reference check.
        self.attempted = attempted
        self.failed = failed
        #: Everything virtual the iteration produced; must repeat exactly.
        self.virtual = virtual
        #: ``(machine, cpus_per_node)`` of every run, for layer counters.
        self.runs = runs
        #: Workload-specific report fields.
        self.extra = extra or {}

    @property
    def makespan_cycles(self):
        return self.virtual["makespan_cycles"]


def _trapped(attempted, error):
    """An iteration that trapped: every operation in it failed."""
    return Outcome(attempted, attempted, {"trap": repr(error)}, [],
                   {"trap": repr(error)})


def _matmult_checksum(n, seed):
    """numpy ``A @ B`` checksum of matmult's seeded int32 inputs."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 100, size=(n, n), dtype=np.int32).astype(np.int64)
    b = rng.integers(0, 100, size=(n, n), dtype=np.int32).astype(np.int64)
    return int((a @ b).sum() & 0xFFFFFFFF)


def _letters(index, length):
    """Base-26 little-endian candidate string (md5 search space)."""
    out = []
    for _ in range(length):
        index, rem = divmod(index, 26)
        out.append(chr(ord("a") + rem))
    return "".join(out)


class Threads:
    """Fine-grained LU (lu_noncont) on private-workspace threads, one
    node: the paper's costly case, dominated by Snap/Merge/COW."""

    def __init__(self, seed, cfg):
        n = cfg["n"]
        self.workers = cfg["workers"]
        self.params = lu.default_params(self.workers, n=n,
                                        block=cfg["block"], contiguous=False,
                                        seed=seed)
        # Reference: unblocked Doolittle LU of the same seeded matrix.
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        for k in range(n - 1):
            a[k + 1:, k] /= a[k, k]
            a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
        self.reference = float(np.abs(a).sum())

    def iterate(self):
        try:
            run = run_determinator(lu, self.params)
        except (ReproError, RuntimeError) as exc:
            return _trapped(1, exc)
        verified, checksum = run.value
        ok = verified and abs(checksum - self.reference) <= (
            0.006 + 1e-9 * abs(self.reference))
        makespan = run.makespan(ncpus=self.workers)
        return Outcome(1, 0 if ok else 1,
                       {"value": run.value, "makespan_cycles": makespan},
                       [(run.machine, {0: self.workers})],
                       {"wire_bytes": run.machine.transport.bytes_total})


class Paging:
    """matmult-tree on four nodes with demand paging, a deep prefetch
    queue and wire compression: bulk PAGE_BATCH traffic."""

    def __init__(self, seed, cfg):
        self.nodes = cfg["nodes"]
        self.n = cfg["n"]
        self.spec = ClusterSpec(topology=cfg["topology"],
                                ship_mode=cfg["ship_mode"],
                                prefetch_depth=cfg["prefetch_depth"],
                                compression=cfg["compression"])
        self.entry = cluster_workloads.matmult_tree_main(n=self.n, seed=seed)
        self.reference = _matmult_checksum(self.n, seed)

    def iterate(self):
        try:
            result = Cluster(self.nodes, spec=self.spec).run(
                self.entry, (self.nodes,))
        except (ReproError, RuntimeError) as exc:
            return _trapped(1, exc)
        machine = result.machine
        wire = machine.transport.bytes_total
        return Outcome(
            1, 0 if result.value == self.reference else 1,
            {"value": result.value, "makespan_cycles": result.makespan(),
             "wire_bytes": wire},
            [(machine, {node: 1 for node in range(self.nodes)})],
            {"wire_bytes": wire})


def _request_reference(rid):
    """A serving request's value, recomputed from its id alone."""
    w = serving_workload
    salt = hashlib.md5(b"serving-data-%d" % (rid % w.NDATA_PAGES)).digest()
    tag = b"%d" % rid
    if w.KINDS[rid % len(w.KINDS)] == "md5":
        space = 26 ** w.MD5_LENGTH
        target = hashlib.md5(
            _letters(space * 7 // 10, w.MD5_LENGTH).encode()).hexdigest()
        start = (rid * 131) % space
        for index in range(start, start + w.MD5_PROBES):
            text = _letters(index % space, w.MD5_LENGTH)
            if hashlib.md5(text.encode()).hexdigest() == target:
                return index % space + 1
        return int.from_bytes(hashlib.md5(salt + tag).digest()[:4], "little")
    row = make_options(w.NOPTIONS, w.OPTIONS_SEED)[rid % w.NOPTIONS]
    return int.from_bytes(
        hashlib.md5(row.tobytes() + salt + tag).digest()[:4], "little")


class Serving:
    """Open-loop request serving on four nodes at fixed rates, one of
    them past saturation: many small MIGRATEs, one guest per request."""

    def __init__(self, seed, cfg):
        self.cfg = cfg
        self.seed = seed
        self.nodes = cfg["nodes"]
        self.requests = cfg["requests"]
        self.rates = cfg["rates_rpgc"]
        self.reference = [_request_reference(rid)
                          for rid in range(self.requests)]

    def _serve(self, index, rate):
        # One arrival seed per rate: the same seed would make every
        # rate's trace a rescaled copy of one gap sequence.
        return serve_trace(self.nodes, requests=self.requests,
                           mean_gap=10 ** 9 // rate,
                           seed=self.seed * len(self.rates) + index,
                           segments=((1, 1),), compression=False)

    def iterate(self):
        attempted = self.requests * len(self.rates)
        failed = 0
        virtual = {"makespan_cycles": 0}
        runs = []
        sweep = []
        for index, rate in enumerate(self.rates):
            try:
                result = self._serve(index, rate)
            except (ReproError, RuntimeError) as exc:
                return _trapped(attempted, exc)
            failed += sum(value != ref for value, ref in
                          zip(result.values, self.reference))
            lat = result.latencies
            half = len(lat) // 2
            first, second = statistics.median(lat[:half]), \
                statistics.median(lat[half:])
            row = {
                "rate_rpgc": rate,
                "p50_cycles": result.p50,
                "p99_cycles": result.p99,
                "goodput_rpgc": result.goodput,
                "half1_p50_cycles": first,
                "half2_p50_cycles": second,
                "within_limit": result.p99 <= self.cfg["p99_limit_cycles"],
                "no_backlog": second <= first * (
                    1 + self.cfg["backlog_margin"]),
                "wire_bytes": result.machine.transport.bytes_total,
            }
            sweep.append(row)
            virtual[rate] = (result.latencies, result.values, result.span)
            virtual["makespan_cycles"] += result.span
            runs.append((result.machine,
                         {node: 1 for node in range(self.nodes)}))
        nominal = next(row for row in sweep
                       if row["rate_rpgc"] == self.cfg["nominal_rpgc"])
        passing = [row["rate_rpgc"] for row in sweep
                   if row["within_limit"] and row["no_backlog"]]
        extra = {
            "wire_bytes": sum(row["wire_bytes"] for row in sweep),
            "p50_cycles": nominal["p50_cycles"],
            "p99_cycles": nominal["p99_cycles"],
            "p99_samples": self.requests,
            "goodput_rpgc": nominal["goodput_rpgc"],
            "max_rate_rpgc": max(passing, default=0),
            "sweep": sweep,
        }
        return Outcome(attempted, failed, virtual, runs, extra)


class Real:
    """md5-circuit and a compressed matmult-tree on real forked host
    processes speaking the wire protocol over localhost sockets; the
    simulated run made during set-up is the oracle."""

    def __init__(self, seed, cfg):
        self.nodes = cfg["nodes"]
        # No more worker processes at once than CPUs this process may use.
        workers = min(self.nodes, len(os.sched_getaffinity(0)))
        length = cfg["md5_length"]
        space = 26 ** length
        self.cases = [
            ("md5_circuit", cluster_workloads.md5_circuit_main(length), {},
             _letters(space * 7 // 10, length)),
            ("matmult_tree",
             cluster_workloads.matmult_tree_main(n=cfg["matmult_n"],
                                                 seed=seed),
             {"compression": True},
             _matmult_checksum(cfg["matmult_n"], seed)),
        ]
        self.specs = {
            name: ClusterSpec(backend="real", shard_workers=workers, **knobs)
            for name, _entry, knobs, _ref in self.cases}
        self.oracle = {}
        for name, entry, knobs, _ref in self.cases:
            sim = run_backend(entry, self.nodes,
                              spec=ClusterSpec(backend="sim", **knobs))
            self.oracle[name] = (sim.value, image_digest(sim.image),
                                 sim.makespan)

    def iterate(self):
        attempted = len(self.cases)
        failed = 0
        virtual = {"makespan_cycles": 0}
        runs = []
        wire_frames = wire_bytes = sim_bytes = 0
        forked = 0
        for name, entry, _knobs, reference in self.cases:
            try:
                result = run_backend(entry, self.nodes,
                                     spec=self.specs[name])
            except (ReproError, RuntimeError) as exc:
                return _trapped(attempted, exc)
            got = (result.value, image_digest(result.image),
                   result.makespan)
            if got != self.oracle[name] or result.value != reference \
                    or not result.wire_ok:
                failed += 1
            virtual[name] = got
            virtual["makespan_cycles"] += result.makespan
            runs.append((result.machine,
                         {node: 1 for node in range(self.nodes)}))
            for link in result.wire.values():
                wire_frames += link["frames"]
                wire_bytes += link["bytes"]
            sim_bytes += result.machine.transport.bytes_total
            forked += result.shard_stats["forked"]
        return Outcome(attempted, failed, virtual, runs, {
            "wire_bytes": sim_bytes, "real_frames": wire_frames,
            "real_bytes": wire_bytes, "forked": forked})


WORKLOADS = {"threads": Threads, "paging": Paging, "serving": Serving,
             "real": Real}


def layer_counters(outcome):
    """Virtual per-layer counters of one iteration's runs (``outcome``
    is None when every iteration trapped)."""
    fetched = prefetched = used = stall = segments = migrations = 0
    raw = comp = forked = adopted = 0
    runs, extra = (outcome.runs, outcome.extra) if outcome else ([], {})
    for machine, cpus in runs:
        transport = machine.transport
        fetched += machine.pages_fetched
        prefetched += transport.pages_prefetched
        used += transport.prefetch_used
        migrations += transport.migrations
        if machine.compression:
            raw += transport.raw_total
            comp += transport.comp_total
        segments += len(machine.trace.segments)
        stalls = schedule(machine.trace, cpus_per_node=cpus).stall_cycles
        stall += stalls.get("fetch", 0) + stalls.get("prefetch", 0)
        shard = machine.shard
        if shard is not None:
            forked += shard.forked
            adopted += shard.adopted
    return {
        "cluster.transport.pages_fetched": fetched,
        "cluster.transport.prefetch_useful_ratio":
            used / prefetched if prefetched else 0.0,
        "cluster.transport.demand_stall_cycles": stall,
        "cluster.compress.comp_ratio": raw / comp if comp else 0.0,
        "timing.segments": segments,
        "kernel.migrations": migrations,
        "shard.adopted_per_forked": adopted / forked if forked else 0.0,
        "realnet.frames": extra.get("real_frames", 0),
        "realnet.bytes": extra.get("real_bytes", 0),
    }
