"""Analysis and reporting over recorded traces.

Turns a finished :class:`~repro.timing.trace.Trace` into the numbers a
systems paper quotes: per-context work breakdowns, parallelism profiles,
critical-path length, scaling curves, and a text Gantt chart for
eyeballing schedules (handy when checking that a dsched round or a make
schedule has the expected shape).
"""

from repro.timing.schedule import critical_path, schedule


def work_breakdown(trace, top=None):
    """Per-context total cycles, descending.  ``top`` limits rows."""
    rows = sorted(trace.cycles_by_uid().items(), key=lambda kv: -kv[1])
    return rows[: top] if top else rows


def parallelism_profile(trace, ncpus, cpus_per_node=None, buckets=20):
    """Average number of busy CPUs over ``buckets`` equal time windows.

    The discrete parallelism curve: 1.0 everywhere means serial; flat at
    N means perfectly parallel on N CPUs.
    """
    result = schedule(trace, ncpus=ncpus, cpus_per_node=cpus_per_node)
    if result.makespan == 0:
        return [0.0] * buckets
    width = result.makespan / buckets
    busy = [0.0] * buckets
    for seg in trace.segments:
        if seg.cycles == 0 or seg.id not in result.start:
            continue
        start = result.start[seg.id]
        finish = result.finish[seg.id]
        first = int(start // width)
        last = min(buckets - 1, int((finish - 1e-9) // width))
        for bucket in range(first, last + 1):
            lo = max(start, bucket * width)
            hi = min(finish, (bucket + 1) * width)
            if hi > lo:
                busy[bucket] += (hi - lo) / width
    return busy


def scaling_curve(trace, cpu_counts):
    """{ncpus: makespan} for a recorded trace (Determinator traces are
    CPU-count independent, so one run yields the whole curve)."""
    return {ncpus: schedule(trace, ncpus=ncpus).makespan
            for ncpus in cpu_counts}


def speedup_curve(trace, cpu_counts):
    """{ncpus: speedup vs 1 CPU}."""
    curve = scaling_curve(trace, [1] + list(cpu_counts))
    base = curve[1]
    return {n: base / curve[n] for n in cpu_counts}


def gantt(trace, ncpus, width=72, max_rows=24, cpus_per_node=None):
    """Text Gantt chart of the schedule (one row per context)."""
    result = schedule(trace, ncpus=ncpus, cpus_per_node=cpus_per_node)
    if result.makespan == 0:
        return "(empty trace)"
    scale = width / result.makespan
    by_uid = {}
    for seg in trace.segments:
        if seg.cycles == 0 or seg.id not in result.start:
            continue
        by_uid.setdefault(seg.uid, []).append(seg)
    lines = [f"makespan {result.makespan:,} cycles on {ncpus} CPUs "
             f"(util {result.utilization:.0%})"]
    for uid in sorted(by_uid)[:max_rows]:
        row = [" "] * width
        for seg in by_uid[uid]:
            lo = int(result.start[seg.id] * scale)
            hi = max(lo + 1, int(result.finish[seg.id] * scale))
            for i in range(lo, min(hi, width)):
                row[i] = "#"
        lines.append(f"{str(uid):>8} |{''.join(row)}|")
    if len(by_uid) > max_rows:
        lines.append(f"... {len(by_uid) - max_rows} more contexts")
    return "\n".join(lines)


def critical_path_ratio(trace):
    """total work / critical path — the trace's inherent parallelism."""
    total = trace.total_cycles()
    cp = critical_path(trace)
    return total / cp if cp else 0.0
