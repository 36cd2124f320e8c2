"""Per-layer host-time tracing from outside the program.

The tracer wraps the public entry points of every layer (plus the guest
workload functions) with a span recorder, runs the traced iterations,
then puts the original functions back.  Nothing in ``src/`` changes.

Self time.  Guest code runs on one host thread per space, but the
engine's execution baton lets only one of them run at a time.  So host
time is charged, event by event, to the innermost open span of the
thread that emits the next span event: that thread was the one running
since the previous event.  The interval between a waiter entering
``GuestContext.resume_and_wait`` and the resumed guest leaving ``park``
is charged to the engine (the handoff itself); what the guest then does
is charged to the guest's own spans, which are recorded as children of
the waiting span.  Time on a thread with no open span is
``unattributed``.  Every layer's self time plus ``unattributed`` sums to
the traced wall time exactly.
"""

import functools
import gzip
import importlib
import os
import sys
import threading
import time

UNATTRIBUTED = "unattributed"


def _layer_table():
    """(layer, owner, attribute) for every wrapped entry point."""
    from repro.bench import cluster_workloads
    from repro.bench.workloads import lu, matmult
    from repro.bench.workloads import serving as serving_workload
    from repro.cluster import compress, realnet
    from repro.cluster import serving as cluster_serving
    from repro.cluster.backend import RealShardCoordinator
    from repro.cluster.transport import Transport
    from repro.kernel.engine import GuestContext
    from repro.kernel.kernel import Kernel
    from repro.kernel.shard import ShardCoordinator
    from repro.kernel.space import Space
    from repro.mem import merge
    from repro.mem.addrspace import AddressSpace
    from repro.mem.snapshot import Snapshot
    from repro.runtime import threads
    from repro.timing import event_core
    from repro.timing.trace import Trace

    # The package re-exports the function under the module's name.
    schedule = importlib.import_module("repro.timing.schedule")

    table = [
        ("mem", AddressSpace, "read"),
        ("mem", AddressSpace, "write"),
        ("mem", AddressSpace, "copy_range_from"),
        ("mem", merge, "merge_range"),
        ("mem", Snapshot, "capture"),
        ("mem", Snapshot, "recapture"),
        ("kernel", Kernel, "sys_put"),
        ("kernel", Kernel, "sys_get"),
        ("kernel", Kernel, "sys_ret"),
        ("kernel", Kernel, "migrate"),
        ("kernel", Kernel, "touch"),
        ("kernel", Space, "destroy"),
        ("engine", GuestContext, "__init__"),
        ("engine", GuestContext, "resume_and_wait"),
        ("engine", GuestContext, "park"),
        ("cluster.compress", compress, "encode_page"),
        ("cluster.compress", compress, "decode_page"),
        ("cluster.compress", compress, "wire_size"),
        ("timing", schedule, "schedule"),
        ("timing", event_core, "run_event_schedule"),
        ("timing", Trace, "charge"),
        ("timing", Trace, "cut"),
        # The serving dispatcher's lag estimate walks the virtual trace.
        ("timing", cluster_serving, "_advance_lag"),
        ("runtime", threads.ThreadGroup, "__init__"),
        ("runtime", threads.ThreadGroup, "fork"),
        ("runtime", threads.ThreadGroup, "join"),
        ("runtime", threads.ThreadGroup, "join_all"),
        ("runtime", threads.ThreadGroup, "run_barrier_rounds"),
        ("runtime", threads, "barrier_arrive"),
        ("shard", ShardCoordinator, "execute"),
        ("shard", ShardCoordinator, "_collect"),
        ("shard", RealShardCoordinator, "_collect"),
        ("realnet", realnet.Channel, "send"),
        ("realnet", realnet.Channel, "recv"),
        ("realnet", realnet, "encode_payload"),
        ("realnet", realnet, "decode_payload"),
        # Guest compute: the workload functions the guests run.
        ("workload", lu, "run"),
        ("workload", lu, "_step_update"),
        ("workload", matmult, "_multiply_block"),
        ("workload", cluster_workloads, "matmult_tree"),
        ("workload", cluster_workloads, "_matmult_tree_worker"),
        ("workload", cluster_workloads, "md5_circuit"),
        ("workload", cluster_workloads, "_md5_node_worker"),
        ("workload", serving_workload, "serve_request"),
        ("workload", cluster_serving, "_dispatch"),
    ]
    table += [("cluster.transport", Transport, name) for name in (
        "migrate", "fetch", "prefetch", "redeem_exchanges", "take_inflight",
        "purge_superseded", "flush_inflight", "wire_size")]
    return table


def _cow_breaks(args):
    """COW breaks so far in the address space a mem call writes to."""
    return args[0].counters.cow_breaks


#: (layer, attribute) -> (counter name, probe(args) read before and
#: after the call; the difference is added to the counter).
PROBES = {
    ("mem", "write"): ("mem.cow_breaks", _cow_breaks),
    ("mem", "copy_range_from"): ("mem.cow_breaks", _cow_breaks),
}

#: (layer, attribute) -> (counter name, count(result)).
RESULT_COUNTS = {
    ("mem", "merge_range"): ("mem.merge_pages",
                             lambda stats: stats.pages_scanned),
}

#: Names whose spans are the engine's baton handoffs.
HANDOFF_NAMES = ("GuestContext.resume_and_wait", "GuestContext.park")


class _Stack(list):
    """One thread's open frames; ``seen`` once the thread has emitted."""

    seen = False


class Tracer:
    """Span recorder with per-thread stacks and cross-thread parents."""

    def __init__(self):
        self.self_s = {}        # (layer, name) -> seconds
        self.calls = {}         # (layer, name) -> count
        self.inclusive_s = {}   # (layer, name) -> seconds
        self.counts = {}        # counter name -> value
        self.spans = []         # (id, parent, layer, name, thread, t0, t1)
        self.keep_spans = False
        self.active = False
        self.wall_s = 0.0
        self._local = threading.local()
        self._waits = []
        self._prev = None
        self._last = 0.0
        self._start = 0.0
        self._origin = 0.0
        self._next_id = 1
        self._patches = []

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every entry point of :func:`_layer_table`."""
        for layer, owner, attr in _layer_table():
            raw = owner.__dict__[attr]
            if isinstance(owner, type):
                name = f"{owner.__name__}.{attr}"
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(layer, name, attr,
                                                 raw.__func__))
                else:
                    new = self._wrap(layer, name, attr, raw)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
            else:
                name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
                new = self._wrap(layer, name, attr, raw)
                # Rebind every module-level alias of the function
                # (``from x import f`` copies the reference).
                for module in list(sys.modules.values()):
                    space = getattr(module, "__dict__", None)
                    if (not getattr(module, "__name__", "").startswith(
                            "repro") or space is None):
                        continue
                    for key, value in list(space.items()):
                        if value is raw:
                            self._patches.append((module, key, raw))
                            setattr(module, key, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _wrap(self, layer, name, attr, fn):
        tracer = self
        key = (layer, name)
        probe = PROBES.get((layer, attr))
        result_count = RESULT_COUNTS.get((layer, attr))
        is_wait = name == "GuestContext.resume_and_wait"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            start = tracer._tick(stack)
            if stack:
                parent = stack[-1][0]
            else:
                parent = tracer._waits[-1][0] if tracer._waits else 0
            frame = (tracer._next_id, parent, key, start)
            tracer._next_id += 1
            stack.append(frame)
            if is_wait:
                tracer._waits.append(frame)
            before = probe[1](args) if probe else 0
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = tracer._tick(stack)
                stack.pop()
                if is_wait:
                    tracer._waits.remove(frame)
                tracer.calls[key] = tracer.calls.get(key, 0) + 1
                tracer.inclusive_s[key] = (
                    tracer.inclusive_s.get(key, 0.0) + end - start)
                if probe:
                    tracer._count(probe[0], probe[1](args) - before)
                if result_count and result is not None:
                    tracer._count(result_count[0], result_count[1](result))
                if tracer.keep_spans:
                    tracer.spans.append(
                        (frame[0], parent, layer, name,
                         threading.get_ident(), start, end))

        return traced

    # -- accounting ------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = _Stack()
        return stack

    def _tick(self, stack):
        """Charge the time since the last event to ``stack``'s top.

        A thread's first event closes the interval in which it was
        being started, which the previous emitter (its creator, inside
        ``GuestContext.__init__`` or a handoff) paid for.
        """
        now = time.perf_counter()
        charged = stack if stack.seen else self._prev
        stack.seen = True
        self._prev = stack
        key = charged[-1][2] if charged else (UNATTRIBUTED, UNATTRIBUTED)
        self.self_s[key] = self.self_s.get(key, 0.0) + now - self._last
        self._last = now
        return now

    def _count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def start(self):
        self._prev = self._stack()
        self._prev.seen = True
        self._start = self._last = time.perf_counter()
        if not self._origin:
            self._origin = self._start
        self.active = True

    def stop(self):
        self._tick(self._stack())
        self.active = False
        self.wall_s += self._last - self._start

    # -- reporting -------------------------------------------------------

    def layer_self_s(self):
        """layer -> self seconds (``unattributed`` included)."""
        out = {}
        for (layer, _name), seconds in self.self_s.items():
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def layer_calls(self):
        out = {}
        for (layer, _name), count in self.calls.items():
            out[layer] = out.get(layer, 0) + count
        return out

    def named_calls(self, layer, name):
        return self.calls.get((layer, name), 0)

    def named_self_s(self, layer, names):
        return sum(self.self_s.get((layer, name), 0.0) for name in names)

    def named_inclusive_s(self, layer, names):
        return sum(self.inclusive_s.get((layer, name), 0.0)
                   for name in names)

    def waits(self):
        """layer -> seconds spent waiting: engine baton handoffs, the
        shard coordinator collecting worker results (inclusive), and
        realnet receives."""
        return {
            "engine": self.named_self_s("engine", HANDOFF_NAMES),
            "shard": self.named_inclusive_s(
                "shard", ("ShardCoordinator._collect",
                          "RealShardCoordinator._collect")),
            "realnet": self.named_self_s("realnet", ("Channel.recv",)),
        }

    def table(self, iterations):
        """Per-layer rows, per iteration: self, wait, calls."""
        selfs = self.layer_self_s()
        calls = self.layer_calls()
        waits = self.waits()
        wall = self.wall_s or 1.0
        lines = [f"{'layer':18s} {'self_s/it':>10s} {'share':>6s} "
                 f"{'wait_s/it':>10s} {'calls/it':>10s}"]
        for layer in sorted(selfs, key=selfs.get, reverse=True):
            lines.append(
                f"{layer:18s} {selfs[layer] / iterations:10.5f} "
                f"{selfs[layer] / wall:6.1%} "
                f"{waits.get(layer, 0.0) / iterations:10.5f} "
                f"{calls.get(layer, 0) / iterations:10.0f}")
        return "\n".join(lines)

    def write_spans(self, path):
        """Write the kept spans as gzipped TSV (times in microseconds
        from the first start of tracing)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        threads = {}
        with gzip.open(path, "wt") as out:
            out.write("id\tparent\tlayer\tname\tthread\tstart_us\tend_us\n")
            for sid, parent, layer, name, ident, t0, t1 in self.spans:
                thread = threads.setdefault(ident, len(threads))
                out.write(f"{sid}\t{parent}\t{layer}\t{name}\t{thread}\t"
                          f"{(t0 - self._origin) * 1e6:.1f}\t"
                          f"{(t1 - self._origin) * 1e6:.1f}\n")
