"""End-to-end DCDB pipeline benchmark.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload ingest_sync --seed 1 --seconds 20 --trace 0

Drives the real pipeline (pusher -> MQTT -> collect agent -> writer ->
storage cluster -> nodes, and libdcdb queries) through one workload,
checks the stored data against the generator, and prints the metrics.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ledger from a run whose cycles alternate between traced and
untraced.  The last line of standard output is one JSON object; the
lines above it give context.  The ledger and the raw spans are written
to ``.e2ebench_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from e2ebench.deploy import INTERVAL_MS  # noqa: E402
from e2ebench.tracing import LAYERS, Ledger  # noqa: E402
from e2ebench.workloads import (  # noqa: E402
    HISTORY_CYCLES,
    OFFERED_RPS,
    SHAPES,
    Run,
    run_workload,
)

OUT_DIR = Path(".e2ebench_out")

#: Paper Fig. 8: the C++ collect agent ingests ~500k readings/s at ~900 % CPU.
FIG8_CPU_US_PER_READING = 18.0


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _queries(run: Run) -> int:
    return sum(len(v) for v in run.query_s.values())


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """The graded metrics: the ones whose ten-run spread stays within
    their bound on a noisy 2-core host (see ``tails``).

    ``ops_per_s`` is the rate of the operation each workload drives in a
    closed loop: readings committed (ingest workloads) or dashboard
    queries answered (``dashboard_mixed``, whose ingest is paced at a
    fixed offered rate).
    In the closed loops both rates are medians over the run's epochs; on
    ``dashboard_mixed`` ``cpu_us_per_reading`` leaves out the query thread.
    """
    if run.workload == "dashboard_mixed":
        ops_per_s = _queries(run) / run.query_wall_s
        cpu_s_per_reading = (run.cpu_s - run.query_cpu_s) / run.committed
    else:
        ops_per_s = statistics.median(n / wall for wall, _, n in run.epochs)
        cpu_s_per_reading = statistics.median(cpu / max(1, n) for _, cpu, n in run.epochs)
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "cpu_us_per_reading": (cpu_s_per_reading * 1e6, "us"),
        "store_bytes_per_reading": (run.store_bytes_per_reading, "B"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def tails(run: Run) -> str:
    """Cycle and query latencies, printed but not graded.

    Their ten-run spread on the reference host reached 0.25-0.6 of the
    median.  ``cycle_commit_ms_p50`` adds little in the closed loops, where
    a cycle lasts until it commits (``ops_per_s`` is its reciprocal), and
    on ``dashboard_mixed`` it is quantized: the writer batches ~4 cycles
    per 50 ms flush, so commit latencies cluster one 15 ms cycle period
    apart and the median jumps between clusters from run to run.
    """
    queries = [s for samples in run.query_s.values() for s in samples]
    cycles, fresh = run.cycle_commit_s, run.freshness_s
    line = (
        f"tails: cycle_commit_ms_p50 {_pct(cycles, 50) * 1e3:.1f} / "
        f"p90 {_pct(cycles, 90) * 1e3:.1f} (n={len(cycles)}), "
        f"freshness_ms_p50 {_pct(fresh, 50) * 1e3:.1f} / p95 {_pct(fresh, 95) * 1e3:.1f} "
        f"(n={len(fresh)})"
    )
    if queries:
        line += (
            f", query_ms_p50 {_pct(queries, 50) * 1e3:.3f} / "
            f"p99 {_pct(queries, 99) * 1e3:.3f} (n={len(queries)})"
        )
    return line


def per_layer(run: Run, ledger: Ledger) -> dict[str, tuple[float, str]]:
    c = run.counters
    readings = run.traced_readings
    msgs = ledger.count("agent.on_publish")
    collected = ledger.count("pusher.encode")
    node_rows = [c.get(f"node{i}.inserts", 0.0) for i in range(len(run.rows_per_node))]
    flushes = [end - start for start, end in ledger.flushes()]
    hits = c.get("dcdb_segment_block_cache_hits_total", 0.0)
    misses = c.get("dcdb_segment_block_cache_misses_total", 0.0)
    qhits = c.get("dcdb_query_cache_hits_total", 0.0)
    qmisses = c.get("dcdb_query_cache_misses_total", 0.0)
    tiers = c.get("dcdb_rollup_tier_selected_total", 0.0)
    per_reading = 1e6 / readings if readings else 0.0
    rows_stored = run.rows_per_node
    generator = ledger.layer_self_s(run.generator_thread)
    if run.workload == "dashboard_mixed":
        overhead = _query_overhead(run)
    else:
        overhead = _ratio(statistics.median(run.traced_cycle_s), statistics.median(run.untraced_cycle_s))
    return {
        "pusher.self_us_per_reading": (
            (ledger.total_s("pusher.advance_to") - ledger.total_s("mqtt.publish")) * per_reading, "us"),
        "pusher.encode_us_per_msg": (_ratio(ledger.total_s("pusher.encode") * 1e6, collected), "us"),
        "mqtt.publish_self_us_per_msg": (
            _ratio(ledger.self_s("mqtt.publish") * 1e6, ledger.count("mqtt.publish")), "us"),
        "mqtt.bytes_per_reading": (_ratio(c.get("dcdb_broker_bytes_received_total", 0.0), readings), "B"),
        "mqtt.backlog_msgs": (
            statistics.mean(run.traced_msgs_backlog) if run.traced_msgs_backlog else 0.0, "count"),
        "agent.decode_us_per_msg": (_ratio(ledger.total_s("agent.decode") * 1e6, msgs), "us"),
        "agent.sid_lookup_us_per_msg": (_ratio(ledger.total_s("agent.sid_lookup") * 1e6, msgs), "us"),
        "agent.self_us_per_msg": (_ratio(ledger.self_s("agent.on_publish") * 1e6, msgs), "us"),
        "writer.put_wait_s": (ledger.total_s("writer.put"), "s"),
        "writer.batch_rows_mean": (
            _ratio(c.get("dcdb_writer_batch_size.sum", 0.0), c.get("dcdb_writer_batch_size.count", 0.0)),
            "count"),
        "writer.flush_s_max": (max(flushes) / 1e9 if flushes else 0.0, "s"),
        "writer.queue_depth_max": (run.queue_hwm, "count"),
        "cluster.insert_batch_calls": (ledger.count("cluster.insert_batch"), "count"),
        "cluster.coord_s": (ledger.coord_s(), "s"),
        "cluster.rows_per_reading": (_ratio(sum(node_rows), readings), "count"),
        "cluster.node_rows_skew": (_ratio(max(rows_stored), statistics.mean(rows_stored)), "ratio"),
        "cluster.hints_queued": (c.get("dcdb_storage_hints_queued_total", 0.0), "count"),
        "cluster.write_retries": (c.get("dcdb_storage_write_retries_total", 0.0), "count"),
        "node.insert_us_per_row": (
            _ratio(ledger.self_s("node.insert_batch") * 1e6, ledger.size("node.insert_batch")), "us"),
        "wal.bytes_per_reading": (_ratio(c.get("dcdb_wal_bytes_total", 0.0), readings), "B"),
        "wal.syncs": (c.get("dcdb_wal_syncs_total", 0.0), "count"),
        "segment.encode_s": (
            ledger.total_s("segment.encode_timestamps", "segment.encode_values"), "s"),
        "segment.rows_encoded_per_reading": (_ratio(ledger.size("segment.encode_values"), readings), "count"),
        "segment.rows_per_block_p50": (_pct(ledger.sizes("segment.encode_values"), 50), "count"),
        "compaction.runs": (c.get("dcdb_compaction_runs_total", 0.0), "count"),
        "compaction.s": (c.get("dcdb_compaction_seconds.sum", 0.0), "s"),
        "blockcache.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "node.blocks_pruned": (c.get("dcdb_segment_blocks_pruned_total", 0.0), "count"),
        "node.query_us_p50": (_pct(ledger.durations_s("node.query", "node.query_many"), 50) * 1e6, "us"),
        "rollup.observe_s": (ledger.total_s("rollup.observe"), "s"),
        "rollup.tier_plan_ratio": (_ratio(tiers - c.get("rollup_tier_raw", 0.0), tiers), "ratio"),
        "libdcdb.query_ms_p50.recent": (_pct(run.traced_query_s.get("recent", []), 50) * 1e3, "ms"),
        "libdcdb.query_ms_p50.aggregate": (_pct(run.traced_query_s.get("aggregate", []), 50) * 1e3, "ms"),
        "libdcdb.query_ms_p50.cold": (_pct(run.traced_query_s.get("cold", []), 50) * 1e3, "ms"),
        "libdcdb.cache_hit_ratio": (_ratio(qhits, qhits + qmisses), "ratio"),
        "libdcdb.rows_read_per_point": (
            _ratio(ledger.size("node.query", "node.query_many"), run.traced_query_points), "ratio"),
        "gen.late_ms_p95": (_pct(run.late_s, 95) * 1e3, "ms"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.generator_self_cover": (_ratio(sum(generator.values()), run.traced_window_s), "ratio"),
    }


def _query_overhead(run: Run) -> float:
    """Count-weighted mean over query kinds of traced / untraced median latency."""
    total = weight = 0.0
    for kind, traced in run.traced_query_s.items():
        untraced = run.untraced_query_s.get(kind)
        if traced and untraced:
            total += len(traced) * statistics.median(traced) / statistics.median(untraced)
            weight += len(traced)
    return _ratio(total, weight)


def context_lines(run: Run, metrics: dict, ledger: Ledger | None) -> list[str]:
    shape = SHAPES[run.workload]
    lines = [
        f"workload {run.workload}: {shape.hosts} hosts x {shape.sensors} sensors every "
        f"{INTERVAL_MS / 1000:g} s, {shape.nodes} {'durable' if shape.durable else 'memory'} "
        f"nodes RF={shape.replication}, {shape.transport} transport, "
        f"{'batched writer' if shape.batched else 'synchronous agent'}"
        f"{', rollups' if shape.rollups else ''}; seed {run.seed}",
        f"window {run.window_s:.2f} s: published {run.published}, committed {run.committed}, "
        f"{len(run.cycle_commit_s)} cycles, {_queries(run)} queries, "
        f"setups {', '.join(f'{s:.3f}' for s in run.setup_s)} s",
        f"rows per node {run.rows_per_node} (topics /e2e/host<i>/...: one level-2 subtree per "
        f"host; the simulation's default /sim/cluster prefix maps every host to one partition "
        f"and leaves a 3-node RF=2 cluster at [N, N, 0])",
    ]
    if run.cycle_commit_s:
        lines.append(tails(run))
        lines.append(
            f"cycle commit max {max(run.cycle_commit_s) * 1e3:.1f} ms over "
            f"{len(run.cycle_commit_s)} cycles"
        )
    if "cpu_us_per_reading" in metrics:
        lines.append(
            f"cpu_us_per_reading {metrics['cpu_us_per_reading'][0]:.1f} us"
            f"{' (all threads but the query thread)' if run.query_wall_s else ''}; paper Fig. 8 anchor: "
            f"~{FIG8_CPU_US_PER_READING:g} us CPU per reading for the C++ collect agent "
            f"(~500k inserts/s at ~900 % CPU)"
        )
    if run.query_s:
        lines.append(
            "queries: "
            + ", ".join(
                f"{kind} n={len(v)} p50 {_pct(v, 50) * 1e3:.3f} ms p99 {_pct(v, 99) * 1e3:.3f} ms"
                for kind, v in run.query_s.items()
            )
        )
    if run.workload == "dashboard_mixed":
        lines.append(
            f"dashboard: offered {OFFERED_RPS} readings/s open loop, committed "
            f"{run.committed / run.window_s:.1f}/s (falls short only when ingest saturates); "
            f"history {HISTORY_CYCLES} cycles preloaded; "
            f"gen.late_ms_p95 {_pct(run.late_s, 95) * 1e3:.2f} ms"
        )
        lines.append(
            f"query thread: {_queries(run)} queries in {run.query_wall_s:.2f} s, "
            f"{run.query_cpu_s / max(1, _queries(run)) * 1e6:.0f} us CPU per query"
        )
        lines.append(
            f"segment bytes per node {run.segment_bytes_per_node} vs block-cache budget "
            f"{shape.block_cache_bytes} B per node"
        )
    else:
        lines.append("gen.late_ms_p95 0 (closed loop: no schedule to fall behind)")
    if ledger is not None:
        lines.append(f"trace.overhead_ratio {metrics['trace.overhead_ratio'][0]:.3f}")
        stalls = [(s, e) for s, e in ledger.flushes() if (e - s) >= 1e9]
        if stalls:
            breakdown = ledger.stall_breakdown(stalls)
            worst = max(breakdown, key=breakdown.get)
            parts = ", ".join(f"{k} {v:.2f} s" for k, v in breakdown.items())
            lines.append(
                f"slow flushes: {len(stalls)} of >= 1 s in traced cycles; blamed on {worst} ({parts})"
            )
        self_s = ledger.layer_self_s()
        lines.append(
            "layer self seconds (all threads): "
            + ", ".join(f"{layer} {self_s[layer]:.3f}" for layer in LAYERS)
        )
    for mismatch in run.mismatches[:10]:
        lines.append(f"MISMATCH {mismatch}")
    return lines


def _write_out(run: Run, trace: bool, metrics: dict, lines: list[str], ledger: Ledger | None) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{run.workload}-seed{run.seed}-trace{int(trace)}"
    doc = {
        "workload": run.workload,
        "seed": run.seed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "context": lines,
        "samples": {
            "cycles": len(run.cycle_commit_s),
            "freshness": len(run.freshness_s),
            "queries": {k: len(v) for k, v in run.query_s.items()},
        },
    }
    if ledger is not None:
        doc["layer_self_s"] = ledger.layer_self_s()
        doc["generator_thread_layer_self_s"] = ledger.layer_self_s(run.generator_thread)
        doc["counters"] = run.counters
        spans = ledger.spans
        names = sorted({s[2] for s in spans})
        code = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            stem.with_suffix(".spans.npz"),
            names=np.array(names),
            spans=np.array(
                [(s[0], s[1], code[s[2]], s[3], s[4], s[5], s[6]) for s in spans], dtype=np.int64
            ).reshape(-1, 7),
        )
    stem.with_suffix(".json").write_text(json.dumps(doc, indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    run, ledger = run_workload(args.workload, args.seed, args.seconds, trace)
    metrics = per_layer(run, ledger) if trace else end_to_end(run)
    lines = context_lines(run, metrics, ledger)
    _write_out(run, trace, metrics, lines, ledger)
    for line in lines:
        print(line)
    queries = _queries(run) + run.queries_failed
    shortfall = max(0, run.published - run.committed)
    result = {
        "correct": not run.mismatches and run.committed <= run.published,
        "attempted": run.published + queries,
        "failed": shortfall + run.queries_failed + len(run.mismatches),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
