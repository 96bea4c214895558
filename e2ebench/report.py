"""Turn one run's samples into named metrics, and print them for people."""

from __future__ import annotations

import statistics
import sys

from workloads import ALGORITHMS

#: Tail percentile reported for request latency.  The serve workloads
#: answer a few hundred requests per run, so p99 would rest on a handful of
#: samples; p90 keeps at least ten beyond it.
QUERY_TAIL = 0.90


def percentile(values: list[float], q: float) -> float | None:
    """The ``q`` quantile, or None when fewer than ten samples lie beyond
    it (such a tail is one or two unlucky samples, not a percentile)."""
    if not values or len(values) * (1.0 - q) < 10:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _required(value, what: str):
    if value is None:
        raise ValueError(f"too few samples for {what}")
    return value


def end_to_end(s, t, peak_rss_mb: float) -> dict:
    """The end-to-end metrics from the timings ``t``: ``s.raw`` or
    ``s.scaled``."""
    metrics = {"setup_s": (statistics.median(t.setup), "s")}
    for name in ALGORITHMS:
        runs = _required(t.algorithm[name] or None, f"{name}_s")
        metrics[f"{name}_s"] = (statistics.median(runs), "s")
    query = _required(t.query or None, "query latency")
    metrics["query_p50_ms"] = (statistics.median(query) * 1e3, "ms")
    metrics["query_p90_ms"] = (
        _required(percentile(query, QUERY_TAIL), "query_p90_ms") * 1e3, "ms"
    )
    metrics["request_rps"] = (s.requests_done / t.request_wall, "1/s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics


def print_summary(workload, s, rounds, metrics, raw=None) -> None:
    err = sys.stderr
    sizes = workload.inputs.sizes()
    print(f"== {workload.name} seed {workload.seed}: {rounds} rounds, "
          f"{sizes['nodes']} nodes, {sizes['edges']} edges, "
          f"{sizes['points']} points", file=err)
    print(f"   samples: setups {len(s.raw.setup)}, rounds per algorithm "
          f"{ {a: len(v) for a, v in s.raw.algorithm.items()} }, queries "
          f"{len(s.raw.query)}, mutations {len(s.mutate)}", file=err)
    for name, (value, unit) in metrics.items():
        line = f"   {name:32s} {value:14.6g} {unit}"
        if raw is not None and raw[name][0] != value:
            line += f"   (raw {raw[name][0]:.6g})"
        print(line, file=err)
    print(f"   attempted {s.attempted}, failed {s.failed}", file=err)
    for problem in s.problems:
        print(f"   FAILED: {problem}", file=err)


#: Per-layer timings: metric name -> (span name, unit).  A layer that does
#: no work on a workload reports 0.
SPAN_METRICS = {
    "datagen.generate_s": ("datagen.generate", "s"),
    "csr.freeze_s": ("csr.freeze", "s"),
    "storage.build_s": ("storage.build", "s"),
    "storage.open_s": ("storage.open", "s"),
    "perf.index_build_s": ("perf.index_build", "s"),
    "perf.index_load_s": ("perf.index_load", "s"),
    "serve.start_s": ("serve.start", "s"),
    "network.range_query_us": ("network.range_query", "us"),
    "network.knn_us": ("network.knn_query", "us"),
    "network.multi_source_ms": ("network.multi_source", "ms"),
    "storage.neighbors_us": ("storage.neighbors", "us"),
    "storage.points_on_edge_us": ("storage.points_on_edge", "us"),
    "perf.range_us": ("perf.range", "us"),
    "perf.knn_us": ("perf.knn", "us"),
    "protocol.parse_us": ("protocol.parse", "us"),
    "protocol.encode_us": ("protocol.encode", "us"),
    "live.mutate_direct_ms": ("live.mutate_direct", "ms"),
}
_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}

#: Counts from the counting pass (``repro.obs`` counters and the layers'
#: own stats surfaces).
COUNT_METRICS = (
    "dijkstra.nodes_settled",
    "dijkstra.edges_relaxed",
    "dijkstra.heap_pops",
    "queries.vertices_settled",
    "kmedoids.swap_iterations",
    "kmedoids.committed_swaps",
    "epslink.vertices_visited",
    "dbscan.range_queries",
    "singlelink.vertices_settled",
    "singlelink.candidate_pairs",
    "storage.buffer_hits",
    "storage.buffer_misses",
    "storage.physical_reads",
    "perf.range.candidates",
    "perf.range.vertices_settled",
    "perf.knn.vertices_settled",
    "perf.cache.hits",
    "perf.cache.misses",
)


def _median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _tail_or_zero(values: list[float], q: float, what: str) -> float:
    value = percentile(values, q)
    if value is None:
        if values:
            print(f"   {what}: {len(values)} samples, too few for "
                  f"p{round(q * 100)}; reported as 0", file=sys.stderr)
        return 0.0
    return value


def per_layer(workload, s, round_walls, extra, counts, calibrator) -> dict:
    """The per-layer metrics: raw timings (not calibrated), counts, shares."""
    tracer = workload.tracer
    metrics = {}
    for name, (span, unit) in SPAN_METRICS.items():
        metrics[name] = (_median_or_zero(tracer.durations(span)) * _SCALE[unit], unit)

    direct = tracer.durations("serve.direct")
    direct_p50 = _median_or_zero(direct)
    metrics["serve.direct_p50_ms"] = (direct_p50 * 1e3, "ms")
    metrics["serve.direct_p90_ms"] = (
        _tail_or_zero(direct, QUERY_TAIL, "serve.direct") * 1e3, "ms")
    overhead = _median_or_zero(s.raw.query) - direct_p50 if direct else 0.0
    metrics["serve.overhead_ms"] = (overhead * 1e3, "ms")
    metrics["serve.shed"] = (s.shed, "count")
    metrics["serve.errors"] = (s.errors, "count")

    mutate_p50 = _median_or_zero(s.mutate)
    metrics["mutate_p50_ms"] = (mutate_p50 * 1e3, "ms")
    metrics["live.fsync_ms"] = (_median_or_zero(extra.get("fsync", [])) * 1e3, "ms")
    mutate_direct = _median_or_zero(tracer.durations("live.mutate_direct"))
    metrics["live.lock_wait_ms"] = (
        (mutate_p50 - mutate_direct) * 1e3 if s.mutate else 0.0, "ms")

    for name in COUNT_METRICS:
        metrics[name] = (counts.get(name, 0), "count")
    hits, misses = counts.get("storage.buffer_hits", 0), counts.get("storage.buffer_misses", 0)
    metrics["storage.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "share")
    hits, misses = counts.get("perf.cache.hits", 0), counts.get("perf.cache.misses", 0)
    metrics["perf.cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "share")
    metrics["perf.cache.invalidations"] = (
        counts.get("perf.cache.invalidations", 0)
        + counts.get("perf.cache.region_invalidations", 0), "count")

    metrics["failed_share"] = (s.failed / s.attempted, "share")
    metrics["bench.calibration_ms"] = (calibrator.median() * 1e3, "ms")
    traced, untraced = round_walls[True], round_walls[False]
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "share")
    return metrics


def print_span_table(tracer, path: str) -> None:
    err = sys.stderr
    print(f"   spans: {len(tracer.spans)} written to {path}", file=err)
    print(f"   {'span':28s} {'count':>7s} {'total ms':>11s} {'self ms':>11s} "
          f"{'median us':>11s}", file=err)
    for row in tracer.table():
        print(f"   {row['name']:28s} {row['count']:7d} {row['total_s'] * 1e3:11.2f} "
              f"{row['self_s'] * 1e3:11.2f} {row['median_us']:11.1f}", file=err)
