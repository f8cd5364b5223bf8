"""The benchmark's metrics: names, units, and how each is computed.

``END_TO_END`` and ``PER_LAYER`` must match ``BENCHMARK.json`` at the
root of the repository (``selftest.py`` checks that they do).
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List, Sequence, Tuple

from spans import GROWTH_OPS, OP_METRICS

#: (name, unit): printed by every untraced run.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("lat_p50_ms", "ms"),
    ("lat_p75_ms", "ms"),
]

#: (name, unit): printed by every traced run.
PER_LAYER: List[Tuple[str, str]] = [
    ("simkit.self_s", "s"),
    ("simkit.events", "count"),
    ("simkit.ns_per_event", "ns"),
    ("simkit.share", "ratio"),
    ("cluster.execute.calls", "count"),
    ("cluster.execute.self_s", "s"),
    ("cluster.throttled", "count"),
    ("cluster.share", "ratio"),
    ("pipeline.calls", "count"),
    ("pipeline.self_s", "s"),
    ("pipeline.failed", "count"),
    ("pipeline.share", "ratio"),
    ("storage.queue.put.us", "us"),
    ("storage.queue.peek.us", "us"),
    ("storage.queue.get.us", "us"),
    ("storage.queue.delete.us", "us"),
    ("storage.queue.depth_at_get", "ratio"),
    ("storage.queue.get.growth", "ratio"),
    ("storage.queue.self_s", "s"),
    ("storage.queue.share", "ratio"),
    ("storage.table.insert.us", "us"),
    ("storage.table.get.us", "us"),
    ("storage.table.upsert.us", "us"),
    ("storage.table.query.us", "us"),
    ("storage.table.query.rows", "count"),
    ("storage.table.size_calls_per_row", "ratio"),
    ("storage.table.query.growth", "ratio"),
    ("storage.table.self_s", "s"),
    ("storage.table.share", "ratio"),
    ("storage.blob.upload.us", "us"),
    ("storage.blob.download.us", "us"),
    ("storage.blob.self_s", "s"),
    ("storage.share", "ratio"),
    ("traffic.schedule_s", "s"),
    ("traffic.record.us", "us"),
    ("traffic.gen_lag_p99_ms", "ms"),
    ("traffic.share", "ratio"),
    ("bench.self_s", "s"),
    ("bench.share", "ratio"),
    ("service.rtt_ms", "ms"),
    ("service.sign.us", "us"),
    ("service.verify.us", "us"),
    ("service.decode.us", "us"),
    ("service.sn_handle_ms", "ms"),
    ("service.dn_call_ms", "ms"),
    ("service.dn_calls_per_op", "ratio"),
    ("service.conns_per_op", "ratio"),
    ("service.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
]

#: The latency percentile reported besides the median.  It is p75, not
#: p99 or p90: on a shared 2-core host the live tier's tail is set by the
#: host preempting the process for milliseconds at a time, and even
#: scaled to the host's speed its p90 moved by about a third between
#: quiet and busy spells (README.md, "Measured").  Every workload has
#: well over ten samples per unit past p75.
TAIL_PERCENTILE = 75


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of raw samples (0 < p < 100)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def unit_figures(u, paced: bool) -> Dict[str, object]:
    """The time-based figures of one unit, at the host's usual speed.

    The unit's times are taken less the host-speed samples inside them
    and divided by its speed factor (``hostspeed.py``).  A ``paced``
    workload releases ops on a wall-clock schedule: its op rate is the
    schedule's, so it is not scaled, and its latencies are wall-clock
    ones, so they are.  The other workloads run flat out on a simulated
    clock: their op rate is scaled, their simulated latencies are not.
    ``raw`` holds the same figures as the wall clock read them.
    """
    ph = u.phase
    p50 = percentile(u.latencies_ms, 50)
    tail = percentile(u.latencies_ms, TAIL_PERCENTILE)
    wall = ph.net_wall_s if paced else ph.scaled(ph.net_wall_s)
    return {
        "ops_per_s": u.ops / wall,
        "cpu_us_per_op": ph.scaled(u.cpu_s - ph.sample_cpu_s) / u.ops * 1e6,
        "lat_p50_ms": ph.scaled(p50) if paced else p50,
        "lat_p75_ms": ph.scaled(tail) if paced else tail,
        "raw": {
            "ops_per_s": u.ops / u.wall_s,
            "cpu_us_per_op": u.cpu_s / u.ops * 1e6,
            "lat_p50_ms": p50,
            "lat_p75_ms": tail,
        },
    }


#: The end-to-end metrics that are medians over units.
UNIT_METRICS = ("ops_per_s", "cpu_us_per_op", "lat_p50_ms", "lat_p75_ms")


def end_to_end(results) -> Dict[str, float]:
    """Medians over every unit, and over every worker, of one run.

    ``results`` are the workers' (``run.measure``): each worker is a
    fresh process with its own import, set-up and peak memory.
    """
    med = statistics.median
    figures = [u["figures"] for r in results for u in r["units"]]
    out = {name: med(f[name] for f in figures) for name in UNIT_METRICS}
    out["setup_s"] = med(r["setup_s"] for r in results)
    out["peak_rss_mb"] = med(r["peak_rss_mb"] for r in results)
    return out


def end_to_end_raw(results) -> Dict[str, float]:
    """The unit metrics as the wall clock read them, for the log."""
    figures = [u["figures"]["raw"] for r in results for u in r["units"]]
    return {name: statistics.median(f[name] for f in figures)
            for name in UNIT_METRICS}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _growth(series: Sequence[float]) -> float:
    """Mean of the last fifth over mean of the first fifth."""
    k = len(series) // 5
    if k == 0:
        return 0.0
    return _ratio(sum(series[-k:]), sum(series[:k]))


#: Layers whose share of the traced unit's wall time is reported.
SHARE_LAYERS = ("simkit", "cluster", "pipeline", "storage.queue",
                "storage.table", "traffic", "bench")


def per_layer(merged: Dict[str, Dict], unit,
              untraced_wall_s: float) -> Dict[str, float]:
    """Per-layer numbers of one traced unit.

    A layer's share is its self time over the traced unit's own wall
    time, both less the tracer's calibrated cost.  Taking both from the
    same unit keeps the host's speed changes between units out of the
    share.  ``untraced_wall_s``, the median untraced unit of the run,
    only enters ``trace.overhead_ratio``.
    """
    stats = merged["stats"]
    layers = merged["layers"]
    counters = merged["counters"]
    ops = merged["ops"]
    series = merged["series"]

    def s(name: str, i: int) -> float:
        return stats.get(name, (0, 0.0, 0.0, 0))[i]

    def mean_us(name: str) -> float:
        return _ratio(s(name, 1), s(name, 0)) * 1e6

    def mean_call_ms(name: str) -> float:
        return _ratio(s(name, 1), s(name, 3)) * 1e3

    def layer(name: str) -> float:
        return layers.get(name, 0.0)

    storage = sum(v for k, v in layers.items() if k.startswith("storage."))
    wall = unit.wall_s - merged["overhead_s"]
    out: Dict[str, float] = {
        "simkit.self_s": layer("simkit"),
        "simkit.events": counters.get("simkit.events", 0),
        "simkit.ns_per_event": _ratio(layer("simkit"),
                                      counters.get("simkit.events", 0)) * 1e9,
        "cluster.execute.calls": s("cluster.execute", 3),
        "cluster.execute.self_s": s("cluster.execute", 2),
        "cluster.throttled": counters.get(
            "cluster.execute.error.ServerBusyError", 0),
        "pipeline.calls": s("pipeline.op", 3),
        "pipeline.self_s": layer("pipeline"),
        "pipeline.failed": counters.get("pipeline.failed", 0),
        "storage.queue.depth_at_get": _ratio(
            counters.get("queue.examined", 0),
            counters.get("queue.returned", 0)),
        "storage.queue.self_s": layer("storage.queue"),
        "storage.table.query.rows": _ratio(counters.get("table.rows", 0),
                                           counters.get("table.queries", 0)),
        "storage.table.size_calls_per_row": _ratio(
            counters.get("entity_size.calls", 0),
            counters.get("table.rows", 0)),
        "storage.table.self_s": layer("storage.table"),
        "storage.blob.self_s": layer("storage.blob"),
        "traffic.schedule_s": s("traffic.schedule", 1),
        "traffic.record.us": mean_us("traffic.record"),
        "traffic.gen_lag_p99_ms": (percentile(unit.gen_lag_ms, 99)
                                   if unit.gen_lag_ms else 0.0),
        "bench.self_s": layer("bench"),
        "service.rtt_ms": mean_call_ms("service.rtt"),
        "service.sign.us": mean_us("service.sign"),
        "service.verify.us": mean_us("service.verify"),
        "service.decode.us": mean_us("service.decode"),
        "service.sn_handle_ms": mean_call_ms("service.sn_handle"),
        "service.dn_call_ms": mean_call_ms("service.dn_call"),
        "service.dn_calls_per_op": _ratio(s("service.dn_call", 3), unit.ops),
        "service.conns_per_op": _ratio(s("service.connect", 3), unit.ops),
        "service.spans": sum(v[0] for k, v in stats.items()
                             if k.startswith("service.")),
        "trace.overhead_ratio": _ratio(unit.wall_s, untraced_wall_s),
    }
    for name in SHARE_LAYERS:
        out[f"{name}.share"] = _ratio(layer(name), wall)
    out["storage.share"] = _ratio(storage, wall)
    for kind, metric in OP_METRICS.items():
        n, storage_s = ops.get(kind, (0, 0.0))
        out[metric] = _ratio(storage_s, n) * 1e6
    for kind, metric in GROWTH_OPS.items():
        out[metric] = _growth(series.get(kind, []))
    missing = {name for name, _ in PER_LAYER} - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return out
