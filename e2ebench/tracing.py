"""Benchmark-side tracing: spans around calls into each layer, and the ledger.

Nothing under ``src/`` changes.  The tracer replaces instance methods of
the deployment's objects (and a few module attributes the program looks
up at call time) with wrappers that record a span per call: name,
thread, start, end, parent (the enclosing span on the same thread) and
an optional size (rows, readings).  Spans stay in memory; the ledger is
computed and written out when the run ends.

Wrappers are installed once and switched on and off per traced slice of
the run, so one process measures traced and untraced slices side by
side.  A switched-off wrapper costs one extra Python call.

A layer's self time is a span's duration minus the time its child spans
on the same thread cover.  Node writes run on the cluster's replica
pool, so a node span has no same-thread parent; it is attributed to the
cluster call whose interval contains it.
"""

from __future__ import annotations

import bisect
import itertools
import threading
from collections import defaultdict
from time import perf_counter_ns

#: Span name -> layer.
LAYER_OF = {
    "pusher.advance_to": "pusher",
    "pusher.encode": "pusher",
    "mqtt.publish": "mqtt",
    "agent.on_publish": "agent",
    "agent.decode": "agent",
    "agent.sid_lookup": "agent",
    "writer.put": "writer",
    "cluster.insert_batch": "cluster",
    "cluster.commit_durable": "cluster",
    "node.insert_batch": "node",
    "node.commit_durable": "node",
    "node.query": "node",
    "node.query_many": "node",
    "segment.encode_timestamps": "node",
    "segment.encode_values": "node",
    "rollup.observe": "rollup",
    "libdcdb.query_raw": "libdcdb",
    "libdcdb.query_raw_many": "libdcdb",
    "libdcdb.query_aggregate": "libdcdb",
    "libdcdb.query_aggregate_many": "libdcdb",
}
LAYERS = ("pusher", "mqtt", "agent", "writer", "cluster", "node", "rollup", "libdcdb")


def _rows_of_query(args, result) -> int:
    """Rows a node read returned: (ts, values) or {sid: (ts, values)}."""
    if isinstance(result, dict):
        return sum(len(ts) for ts, _ in result.values())
    return len(result[0])


class Tracer:
    """Records spans from wrappers it installs on a deployment."""

    def __init__(self) -> None:
        self.enabled = False
        #: (span_id, parent_id, name, thread_id, start_ns, end_ns, size)
        self.spans: list[tuple[int, int, str, int, int, int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._module_patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str, size_of=None):
        spans = self.spans
        ids = self._ids
        local = self._local
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                size = size_of(args, result) if size_of is not None and result is not None else 0
                spans.append((span_id, parent, name, get_ident(), start, end, size))

        return traced

    def wrap_method(self, obj, attr: str, name: str, size_of=None) -> None:
        """Shadow ``obj.attr`` with a traced wrapper of the bound method."""
        setattr(obj, attr, self._wrap(getattr(obj, attr), name, size_of))

    def patch_module(self, module, attr: str, name: str, size_of=None) -> None:
        """Replace a module attribute the program looks up at call time."""
        original = getattr(module, attr)
        self._module_patches.append((module, attr, original))
        setattr(module, attr, self._wrap(original, name, size_of))

    def restore_modules(self) -> None:
        for module, attr, original in reversed(self._module_patches):
            setattr(module, attr, original)
        self._module_patches.clear()

    def wrap_broker(self, broker) -> None:
        """Wrap every publish hook registered from now on (the agent's)."""
        add_hook = broker.add_publish_hook
        broker.add_publish_hook = lambda hook: add_hook(
            self._wrap(hook, "agent.on_publish")
        )

    def wrap_deployment(self, dep) -> None:
        from repro.core import payload
        from repro.storage.durable import segment

        for pusher in dep.pushers:
            self.wrap_method(pusher, "advance_to", "pusher.advance_to")
            self.wrap_method(pusher.client, "publish", "mqtt.publish")
        agent = dep.agent
        self.wrap_method(agent.sid_mapper, "lookup_topic", "agent.sid_lookup")
        self.wrap_method(agent.sid_mapper, "sid_for_topic", "agent.sid_lookup")
        if agent.writer is not None:
            self.wrap_method(agent.writer, "put", "writer.put")
        if agent.rollup is not None:
            self.wrap_method(agent.rollup, "observe", "rollup.observe")
        self.wrap_method(dep.cluster, "insert_batch", "cluster.insert_batch")
        self.wrap_method(dep.cluster, "commit_durable", "cluster.commit_durable")
        for node in dep.nodes:
            self.wrap_method(node, "insert_batch", "node.insert_batch", lambda a, r: len(a[0]))
            if hasattr(node, "commit_durable"):
                self.wrap_method(node, "commit_durable", "node.commit_durable")
            self.wrap_method(node, "query", "node.query", _rows_of_query)
            self.wrap_method(node, "query_many", "node.query_many", _rows_of_query)
        for op in ("query_raw", "query_raw_many", "query_aggregate", "query_aggregate_many"):
            self.wrap_method(dep.client, op, f"libdcdb.{op}")
        self.patch_module(payload, "encode_readings", "pusher.encode")
        self.patch_module(payload, "decode_message", "agent.decode")
        self.patch_module(segment, "encode_timestamps", "segment.encode_timestamps")
        self.patch_module(
            segment, "encode_values", "segment.encode_values", lambda a, r: len(a[0])
        )


# -- counters read from the program's own registries --------------------------

_COUNTER_FAMILIES = (
    "dcdb_wal_bytes_total",
    "dcdb_wal_syncs_total",
    "dcdb_segment_blocks_pruned_total",
    "dcdb_segment_block_cache_hits_total",
    "dcdb_segment_block_cache_misses_total",
    "dcdb_compaction_runs_total",
    "dcdb_storage_hints_queued_total",
    "dcdb_storage_write_retries_total",
    "dcdb_writer_readings_flushed_total",
    "dcdb_broker_bytes_received_total",
    "dcdb_query_cache_hits_total",
    "dcdb_query_cache_misses_total",
    "dcdb_rollup_tier_selected_total",
)
_HISTOGRAM_SUMS = ("dcdb_compaction_seconds", "dcdb_writer_batch_size")


def read_counters(dep) -> dict[str, float]:
    """Totals of the counter families the ledger uses, plus per-node inserts."""
    out: dict[str, float] = defaultdict(float)
    for registry in dep.registries():
        for name in _COUNTER_FAMILIES:
            out[name] += registry.value(name)
        out["rollup_tier_raw"] += registry.value(
            "dcdb_rollup_tier_selected_total", {"tier": "raw"}
        )
        for name in _HISTOGRAM_SUMS:
            family = registry.get(name)
            if family is not None:
                for sample in family.snapshot().samples:
                    out[f"{name}.sum"] += sample.sum
                    out[f"{name}.count"] += sample.count
    for i, node in enumerate(dep.nodes):
        out[f"node{i}.inserts"] = node.metrics.value("dcdb_storage_inserts_total")
    return dict(out)


def counter_delta(before: dict, after: dict) -> dict[str, float]:
    return {key: after.get(key, 0.0) - before.get(key, 0.0) for key in after}


# -- ledger -------------------------------------------------------------------

#: Longest gap between a flush's insert and its commit on the writer thread.
_FLUSH_GAP_NS = 1_000_000


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Ledger:
    """Per-span self times and the per-layer aggregates derived from them."""

    def __init__(self, spans) -> None:
        self.spans = spans
        child_ns: dict[int, int] = defaultdict(int)
        for span_id, parent, _name, _tid, start, end, _size in spans:
            if parent:
                child_ns[parent] += end - start
        #: name -> list of (duration_ns, self_ns, size, thread, start, end)
        self.by_name: dict[str, list[tuple[int, int, int, int, int, int]]] = defaultdict(list)
        for span_id, _parent, name, tid, start, end, size in spans:
            dur = end - start
            self.by_name[name].append((dur, dur - child_ns.get(span_id, 0), size, tid, start, end))

    def count(self, *names: str) -> int:
        return sum(len(self.by_name.get(n, ())) for n in names)

    def total_s(self, *names: str) -> float:
        return sum(r[0] for n in names for r in self.by_name.get(n, ())) / 1e9

    def self_s(self, *names: str) -> float:
        return sum(r[1] for n in names for r in self.by_name.get(n, ())) / 1e9

    def size(self, *names: str) -> int:
        return sum(r[2] for n in names for r in self.by_name.get(n, ()))

    def durations_s(self, *names: str) -> list[float]:
        return [r[0] / 1e9 for n in names for r in self.by_name.get(n, ())]

    def sizes(self, name: str) -> list[int]:
        return [r[2] for r in self.by_name.get(name, ())]

    def layer_self_s(self, thread: int | None = None) -> dict[str, float]:
        """Self seconds per layer, optionally on one thread only."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, rows in self.by_name.items():
            layer = LAYER_OF[name]
            out[layer] += sum(r[1] for r in rows if thread is None or r[3] == thread) / 1e9
        return out

    def coord_s(self) -> float:
        """Time in cluster insert_batch not covered by the node writes under it."""
        nodes = sorted((r[4], r[5]) for r in self.by_name.get("node.insert_batch", ()))
        starts = [s for s, _ in nodes]
        total = 0
        for row in self.by_name.get("cluster.insert_batch", ()):
            start, end = row[4], row[5]
            lo = bisect.bisect_left(starts, start)
            hi = bisect.bisect_right(starts, end)
            inside = [(s, min(e, end)) for s, e in nodes[lo:hi]]
            total += row[0] - _union_ns(inside)
        return total / 1e9

    def flushes(self) -> list[tuple[int, int]]:
        """Writer flushes as (start_ns, end_ns): a cluster commit and the
        cluster insert that ends right before it on the same thread (the
        writer calls one straight after the other; a traced slice can
        start between them, and then the flush is not counted)."""
        inserts: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for row in self.by_name.get("cluster.insert_batch", ()):
            inserts[row[3]].append((row[5], row[4]))
        for rows in inserts.values():
            rows.sort()
        out = []
        for row in self.by_name.get("cluster.commit_durable", ()):
            mine = inserts.get(row[3], [])
            idx = bisect.bisect_right(mine, (row[4], 1 << 62)) - 1
            if idx >= 0 and row[4] - mine[idx][0] <= _FLUSH_GAP_NS:
                out.append((mine[idx][1], row[5]))
        return out

    def _clipped_union(self, names, windows) -> int:
        intervals = []
        for name in names:
            for row in self.by_name.get(name, ()):
                for start, end in windows:
                    s, e = max(row[4], start), min(row[5], end)
                    if e > s:
                        intervals.append((s, e))
        return _union_ns(intervals)

    def stall_breakdown(self, windows: list[tuple[int, int]]) -> dict[str, float]:
        """Wall seconds of ``windows`` by the layer that held them up.

        Across all threads: segment encode under the node writes, the
        rest of the node writes, the WAL commit, and what is left of the
        flush for the cluster coordinator.
        """
        wall = _union_ns(windows)
        encode = self._clipped_union(
            ("segment.encode_timestamps", "segment.encode_values"), windows
        )
        node = self._clipped_union(("node.insert_batch",), windows)
        commit = self._clipped_union(("node.commit_durable",), windows)
        return {
            "node (segment encode)": encode / 1e9,
            "node (insert, excluding encode)": max(0, node - encode) / 1e9,
            "node (WAL commit)": commit / 1e9,
            "cluster (coordination)": max(0, wall - node - commit) / 1e9,
        }
