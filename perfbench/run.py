"""Host-speed and virtual-result benchmark of the Determinator reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload threads --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``threads``, ``paging``, ``serving``
and ``real``.  The program is imported from ``src/``; nothing is
installed.  One process sets the workload up ``setup_rounds`` times
(inputs, the benchmark's own reference answers, the ``real`` workload's
simulated oracle run, and one untimed warm iteration), then times warm
iterations for ``--seconds``.  Every iteration is checked against the
references and against the first iteration's virtual results.

``--trace 0`` reports the end-to-end metrics, measured untraced.  Host
seconds are rescaled to a reference host by a probe timed around every
iteration (:class:`ReferenceProbe`); the raw seconds are printed too.
``--trace 1`` spends half the time on untraced iterations and half on
iterations traced layer by layer (``layers.py``), prints the per-layer
table, writes the first traced iteration's spans to
``.perfbench_out/`` and reports the per-layer metrics, per iteration.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it are the human-readable report.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("threads", "paging", "serving", "real"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class ReferenceProbe:
    """The host reference: fixed pieces of the kinds of host work the
    program does (a pure-Python loop, a regex scan over bytes, a numpy
    page diff, thread baton handoffs), none of it the program's own
    code, timed in this process around every iteration.

    Raw host seconds on a shared host swing by up to 2x between runs
    minutes apart, with the code unchanged.  The reference slows down
    with the host, so each iteration's seconds are rescaled to a host on
    which one probe takes :data:`REF_PROBE_S`.
    """

    #: Seconds one probe takes on the reference host (a 2-vCPU x86
    #: container running CPython 3.11 and numpy 2.4).
    REF_PROBE_S = 0.02

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        old = rng.integers(0, 256, size=(256, 4096), dtype=np.uint8)
        new = old.copy()
        new[::3, ::97] ^= 1
        page = rng.integers(0, 100, 1024, dtype=np.int32).tobytes()
        zero_runs = re.compile(rb"\x00{3,}")

        def python_loop():
            total = 0
            for i in range(60_000):
                total = (total + i * i) % 1_000_003

        def bytes_scan():
            for _ in range(6):
                pieces, pos = [], 0
                for match in zero_runs.finditer(page):
                    pieces.append(page[pos:match.start()])
                    pos = match.end()
                b"".join(pieces)

        def page_diff():
            for _ in range(4):
                np.count_nonzero(old != new, axis=1).sum()

        self._parts = (("python", python_loop), ("bytes", bytes_scan),
                       ("pagediff", page_diff),
                       ("handoffs", lambda: _handoffs(300)))
        #: Part name -> seconds of every probe.
        self.part_s = {name: [] for name, _part in self._parts}
        self.total_s = []

    def measure(self):
        """Run the reference once; returns its seconds."""
        total = 0.0
        for name, part in self._parts:
            start = time.perf_counter()
            part()
            elapsed = time.perf_counter() - start
            self.part_s[name].append(elapsed)
            total += elapsed
        self.total_s.append(total)
        return total

    def median_s(self):
        return statistics.median(self.total_s)

    def stamp(self):
        """The host reference as one report line (not a metric)."""
        parts = ", ".join(f"{name} {statistics.median(times):.5f} s"
                          for name, times in self.part_s.items())
        return (f"host reference: median of {len(self.total_s)} probes "
                f"{self.median_s():.5f} s ({parts}); reference host "
                f"{self.REF_PROBE_S} s")


def _handoffs(count):
    """Start a thread and pass a baton to it and back ``count`` times,
    the way the guest engine does."""
    cv = threading.Condition()
    turn = [0]

    def partner():
        with cv:
            for _ in range(count):
                while turn[0] != 1:
                    cv.wait()
                turn[0] = 0
                cv.notify()

    thread = threading.Thread(target=partner)
    thread.start()
    with cv:
        for _ in range(count):
            turn[0] = 1
            cv.notify()
            while turn[0] != 0:
                cv.wait()
    thread.join()


class Run:
    """Iteration loop with correctness and determinism accounting."""

    def __init__(self, workload):
        self.workload = workload
        self.probe = ReferenceProbe()
        #: The first iteration's virtual results.
        self.reference = None
        self.attempted = 0
        self.failed = 0
        #: The last iteration that did not trap.
        self.last = None

    def step(self, tracer=None):
        """One checked iteration; returns its raw host seconds and the
        same seconds rescaled to the reference host."""
        gc.collect()
        before = self.probe.measure()
        if tracer:
            tracer.start()
        start = time.perf_counter()
        outcome = self.workload.iterate()
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.stop()
        after = self.probe.measure()
        failed = outcome.failed
        trapped = "trap" in outcome.virtual
        if self.reference is None and not trapped:
            self.reference = outcome.virtual
        elif outcome.virtual != self.reference:
            failed = outcome.attempted
        self.attempted += outcome.attempted
        self.failed += failed
        if not trapped:
            self.last = outcome
        scale = ReferenceProbe.REF_PROBE_S / ((before + after) / 2)
        return elapsed, elapsed * scale

    def loop(self, seconds, minimum, tracer=None):
        """Iterate for ``seconds``; returns (raw, normalized) seconds."""
        raw, norm = [], []
        end = time.perf_counter() + seconds
        while len(raw) < minimum or time.perf_counter() < end:
            if tracer:
                tracer.keep_spans = not raw
            elapsed, scaled = self.step(tracer)
            raw.append(elapsed)
            norm.append(scaled)
        return raw, norm


def pin_to_one_cpu():
    """Keep every thread of this process on the CPU it runs on now.

    The simulator runs one guest thread at a time (the engine's baton),
    so a second CPU cannot speed it up; but each iteration starts fresh
    guest threads, and where the scheduler puts them decides whether
    they share a CPU with the reference probe.  Pinned, the probe
    measures the CPU the workload ran on.  The ``real`` workload is not
    pinned: its forked workers run in parallel.
    """
    with open("/proc/self/stat") as handle:
        # Split after the parenthesized command name, which may contain
        # spaces: the rest starts at field 3, so field 39 (the CPU last
        # run on) is item 36.
        cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


def metric(value, unit):
    return {"value": value, "unit": unit}


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def traced_metrics(run, seconds, minimum, name, seed):
    """Half the time untraced, half traced; the per-layer metrics."""
    from layers import Tracer
    from workloads import layer_counters

    untraced, _ = run.loop(seconds / 2, minimum)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = run.loop(seconds / 2, minimum, tracer)
    finally:
        tracer.uninstall()
    its = len(traced)
    selfs = tracer.layer_self_s()
    calls = tracer.layer_calls()
    waits = tracer.waits()
    counters = layer_counters(run.last)
    per_it = {key: value / its for key, value in tracer.counts.items()}
    overhead = statistics.median(traced) - statistics.median(untraced)

    def seconds_of(layer):
        return metric(selfs.get(layer, 0.0) / its, "s")

    def calls_of(layer):
        return metric(calls.get(layer, 0) / its, "count")

    kernel_syscalls = sum(tracer.named_calls("kernel", f"Kernel.{call}")
                          for call in ("sys_put", "sys_get", "sys_ret"))
    metrics = {
        "mem.calls": calls_of("mem"),
        "mem.self_s": seconds_of("mem"),
        "mem.cow_breaks": metric(per_it.get("mem.cow_breaks", 0), "count"),
        "mem.merge_pages": metric(per_it.get("mem.merge_pages", 0), "count"),
        "kernel.calls": calls_of("kernel"),
        "kernel.self_s": seconds_of("kernel"),
        "kernel.syscalls": metric(kernel_syscalls / its, "count"),
        "kernel.migrations": metric(counters["kernel.migrations"], "count"),
        "engine.handoffs": metric(tracer.named_calls(
            "engine", "GuestContext.resume_and_wait") / its, "count"),
        "engine.handoff_wait_s": metric(waits["engine"] / its, "s"),
        "engine.threads_started": metric(tracer.named_calls(
            "engine", "GuestContext.__init__") / its, "count"),
        "cluster.transport.calls": calls_of("cluster.transport"),
        "cluster.transport.self_s": seconds_of("cluster.transport"),
        "cluster.transport.pages_fetched": metric(
            counters["cluster.transport.pages_fetched"], "count"),
        "cluster.transport.prefetch_useful_ratio": metric(
            counters["cluster.transport.prefetch_useful_ratio"], "ratio"),
        "cluster.transport.demand_stall_cycles": metric(
            counters["cluster.transport.demand_stall_cycles"], "cycles"),
        "cluster.compress.calls": calls_of("cluster.compress"),
        "cluster.compress.self_s": seconds_of("cluster.compress"),
        "cluster.compress.comp_ratio": metric(
            counters["cluster.compress.comp_ratio"], "ratio"),
        "timing.calls": calls_of("timing"),
        "timing.self_s": seconds_of("timing"),
        "timing.segments": metric(counters["timing.segments"], "count"),
        "shard.self_s": seconds_of("shard"),
        "shard.wait_s": metric(waits["shard"] / its, "s"),
        "shard.adopted_per_forked": metric(
            counters["shard.adopted_per_forked"], "ratio"),
        "realnet.frames": metric(counters["realnet.frames"], "count"),
        "realnet.bytes": metric(counters["realnet.bytes"], "bytes"),
        "realnet.self_s": seconds_of("realnet"),
        "realnet.recv_wait_s": metric(waits["realnet"] / its, "s"),
        "runtime.self_s": seconds_of("runtime"),
        "workload.self_s": seconds_of("workload"),
        "unattributed_s": seconds_of("unattributed"),
        "trace.wall_s": metric(tracer.wall_s / its, "s"),
        "trace.overhead_s": metric(overhead, "s"),
    }
    print(f"traced iterations: {its} (untraced: {len(untraced)}); "
          f"traced wall/it {statistics.median(traced):.4f} s, "
          f"untraced {statistics.median(untraced):.4f} s, "
          f"tracing overhead {overhead:.4f} s/it")
    print(tracer.table(its))
    check_split(name, selfs, calls)
    path = os.path.join(ROOT, ".perfbench_out",
                        f"spans-{name}-seed{seed}.tsv.gz")
    tracer.write_spans(path)
    print(f"spans of the first traced iteration: "
          f"{os.path.relpath(path, ROOT)} ({len(tracer.spans)} spans)")
    return metrics


def check_split(name, selfs, calls):
    """Print how the measured split compares with the predictions."""
    layers = {k: v for k, v in selfs.items() if k != "unattributed"}
    largest = max(layers, key=layers.get) if layers else None
    checks = []
    if name == "threads":
        checks.append(("mem.self_s is the largest layer", largest == "mem"))
    if name == "paging":
        checks.append(("cluster.compress.self_s is the largest layer",
                       largest == "cluster.compress"))
    if name in ("threads", "serving"):
        checks.append(("cluster.compress has zero calls",
                       calls.get("cluster.compress", 0) == 0))
    if name != "real":
        checks.append(("shard.* and realnet.* are zero",
                       not calls.get("shard") and not calls.get("realnet")))
    for text, ok in checks:
        print(f"prediction {'holds' if ok else 'DIFFERS'}: {text} "
              f"(largest layer measured: {largest})")


def report(name, outcome):
    """Workload-specific virtual results (not gated)."""
    if outcome is None:
        print("virtual: every iteration trapped")
        return
    extra = outcome.extra
    print(f"virtual: makespan_cycles={outcome.makespan_cycles} "
          f"wire_bytes={extra.get('wire_bytes')}")
    if name == "serving":
        for row in extra["sweep"]:
            print("  rate {rate_rpgc:>5} rpgc: p50 {p50_cycles:>9} "
                  "p99 {p99_cycles:>9} goodput {goodput_rpgc:>5} "
                  "half-medians {half1_p50_cycles:>10} -> "
                  "{half2_p50_cycles:>10} within_limit={within_limit} "
                  "no_backlog={no_backlog}".format(**row))
        print(f"  nominal: p50_cycles={extra['p50_cycles']} "
              f"p99_cycles={extra['p99_cycles']} "
              f"(n={extra['p99_samples']}) "
              f"goodput_rpgc={extra['goodput_rpgc']} "
              f"max_rate_rpgc={extra['max_rate_rpgc']}")
    if name == "real":
        print(f"  real wire: frames={extra['real_frames']} "
              f"bytes={extra['real_bytes']} forked={extra['forked']}")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload != "real":
        pin_to_one_cpu()
    from workloads import WORKLOADS
    import_s = time.perf_counter() - T0
    with open(os.path.join(HERE, "config.json")) as handle:
        config = json.load(handle)
    cfg = config[args.workload]
    minimum = config["min_iterations"]

    rounds = []
    run = None
    for _ in range(config["setup_rounds"]):
        start = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, cfg)
        built = time.perf_counter() - start
        if run is None:
            run = Run(workload)
        else:
            run.workload = workload
        warm, _ = run.step()        # untimed warm iteration, checked
        rounds.append(built + warm)
    setup_raw = import_s + statistics.median(rounds)

    if args.trace:
        metrics = traced_metrics(run, args.seconds, minimum, args.workload,
                                 args.seed)
    else:
        raw, norm = run.loop(args.seconds, minimum)
        scale = ReferenceProbe.REF_PROBE_S / run.probe.median_s()
        metrics = {
            "setup_s": metric(setup_raw * scale, "s"),
            "host_norm_s_p50": metric(statistics.median(norm), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
            "makespan_cycles": metric(
                (run.reference or {}).get("makespan_cycles", 0), "cycles"),
        }
        quart = statistics.quantiles(norm, n=4)
        print(f"{args.workload} seed={args.seed}: host_norm_s_p50 "
              f"{statistics.median(norm):.4f} s over {len(norm)} iterations "
              f"(q1 {quart[0]:.4f}, q3 {quart[2]:.4f}); raw host_s_p50 "
              f"{statistics.median(raw):.4f} s; setup_s "
              f"{setup_raw * scale:.3f} (raw {setup_raw:.3f}: imports "
              f"{import_s:.3f}, rounds "
              + ", ".join(f"{r:.3f}" for r in rounds) + ")")
    report(args.workload, run.last)
    print(f"error_rate={run.failed / run.attempted} "
          f"({run.failed}/{run.attempted}); {run.probe.stamp()}")
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
