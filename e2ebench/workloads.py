"""The three workloads: what they deploy, how they drive it, what they report.

``ingest_sync``
    Closed loop through the synchronous agent (one ``insert_batch`` and
    one replica fan-out per MQTT message), in-process transport, 6
    pushers x 200 sensors, 3 memory nodes, RF=2.
``ingest_durable_tcp``
    Closed loop in the production shape: 2 pushers x 2,500 sensors over
    loopback TCP, the batching writer, 2 durable nodes, RF=2.
``dashboard_mixed``
    A preloaded, sealed history on 3 durable nodes with rollups; paced
    open-loop ingest on one thread while a closed-loop ``DCDBClient``
    runs a seeded dashboard query mix on another.

A cycle is one sampling round of every host.  In the closed loops the
next cycle starts once the previous one is committed; "committed" is
``agent.readings_stored`` on the synchronous path and
``writer.flushed`` on the batched one, "published" the sum of the
pushers' ``readings_collected``.  The clock stops only when the two
are equal (exact quiesce); a shortfall after the timeout is counted as
failed, never dropped.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.libdcdb.api import DCDBClient
from repro.storage.rollup import aggregate_buckets

from e2ebench.deploy import INTERVAL_NS, Deployment, Shape, preload, sensor_topic
from e2ebench.facility import FacilityModel
from e2ebench.tracing import Ledger, Tracer, counter_delta, read_counters

#: Deployments built per run; ``setup_s`` is their median.
SETUPS = 3
#: Cycles sent through the pipeline as part of set-up (SID assignment,
#: first-touch allocations) before the clock starts.
WARMUP_CYCLES = 2
#: Longest a cycle may take to commit before its shortfall is failed.
QUIESCE_TIMEOUT_S = 60.0
#: Poll period of the committed counter.
POLL_S = 0.0005
#: Sensors read back through the public query API after each run.
READBACK_SENSORS = 1000
#: Closed loops over memory nodes: cycles per epoch (~2 s of
#: ``ingest_sync`` on a 2-core host).  Rates are the median over epochs,
#: which damps the host's speed swings of a few seconds.
MEMORY_EPOCH_CYCLES = 6
#: Seconds per traced / untraced slice of the open-loop workload.
TRACE_SLICE_S = 1.0

#: dashboard_mixed: per-node block-cache budget.  The 256 cold views
#: decode ~0.8 MB of blocks per node (600 rows x 24 B each); the budget is
#: about half of that, so cold reads and the aggregates' rollup and edge
#: blocks both hit and miss.
BLOCK_CACHE_BYTES = 384 * 1024

SHAPES = {
    "ingest_sync": Shape(hosts=6, sensors=200, nodes=3, replication=2),
    "ingest_durable_tcp": Shape(
        hosts=2, sensors=2500, nodes=2, replication=2,
        transport="tcp", batched=True, durable=True,
    ),
    "dashboard_mixed": Shape(
        hosts=3, sensors=10, nodes=3, replication=2,
        batched=True, durable=True, rollups=True,
        block_cache_bytes=BLOCK_CACHE_BYTES,
    ),
}

#: dashboard_mixed: history preloaded before the clock starts (1 h at
#: 1 s), sealed to one segment file per 10 min of history.
HISTORY_CYCLES = 3600
SEAL_EVERY_CYCLES = 600
#: dashboard_mixed: offered ingest rate, readings/s.  With the query
#: client below running beside it on a 2-core Xeon host, freshness p50
#: was 54 ms at 900/s, 67 ms at 1,800/s, 104 ms at 4,000/s and 600 ms and
#: climbing at 5,500/s; this is about half the ~4,000/s knee.
OFFERED_RPS = 2000
#: dashboard_mixed: query mix weights and shapes, and the pause the
#: dashboard client takes between queries.
QUERY_MIX = (("recent", 0.3), ("aggregate", 0.2), ("cold", 0.5))
THINK_S = 0.02
RECENT_WINDOW_S = 60
COLD_WINDOW_S = 600
AGGREGATE_MAX_POINTS = 300
#: Saved "cold" views dashboard users flip between (seeded, picked
#: uniformly), so the caches see repeats as well as first reads.
COLD_VIEWS = 256

NS = 1_000_000_000


@dataclass
class Run:
    """Everything one run measured, before it is turned into metrics."""

    workload: str
    seed: int
    setup_s: list[float] = field(default_factory=list)
    window_s: float = 0.0
    #: Process CPU over the window (dashboard_mixed).
    cpu_s: float = 0.0
    #: Closed loops: (wall s, CPU s, readings committed) of each epoch.
    epochs: list[tuple[float, float, int]] = field(default_factory=list)
    published: int = 0
    committed: int = 0
    cycle_commit_s: list[float] = field(default_factory=list)
    freshness_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    query_s: dict[str, list[float]] = field(default_factory=dict)
    queries_failed: int = 0
    #: Wall and CPU seconds of the dashboard's query thread; its reads
    #: run on it (the libdcdb client and the cluster read on the calling
    #: thread for batches this small).
    query_wall_s: float = 0.0
    query_cpu_s: float = 0.0
    mismatches: list[str] = field(default_factory=list)
    store_bytes_per_reading: float = 0.0
    rows_per_node: list[int] = field(default_factory=list)
    # trace mode
    traced_cycle_s: list[float] = field(default_factory=list)
    untraced_cycle_s: list[float] = field(default_factory=list)
    traced_window_s: float = 0.0
    traced_readings: int = 0
    traced_msgs_backlog: list[int] = field(default_factory=list)
    traced_query_s: dict[str, list[float]] = field(default_factory=dict)
    untraced_query_s: dict[str, list[float]] = field(default_factory=dict)
    traced_query_points: int = 0
    counters: dict[str, float] = field(default_factory=dict)
    generator_thread: int = 0
    queue_hwm: float = 0.0
    segment_bytes_per_node: list[int] = field(default_factory=list)

    def add_counters(self, delta: dict) -> None:
        for key, value in delta.items():
            self.counters[key] = self.counters.get(key, 0.0) + value


def _wait_committed(dep: Deployment, target: int, timeout: float) -> bool:
    deadline = time.perf_counter() + timeout
    while dep.committed() < target:
        if time.perf_counter() > deadline:
            return False
        time.sleep(POLL_S)
    return True


def _warm_up(dep: Deployment, cycles: int) -> None:
    for _ in range(cycles):
        dep.send_cycle()
        if not _wait_committed(dep, dep.published(), QUIESCE_TIMEOUT_S):
            raise RuntimeError("warm-up cycle did not commit")


class _Workdir:
    """Per-run working directory inside the checkout, removed at the end."""

    def __init__(self, root: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=root))
        self._n = 0

    def fresh(self) -> Path:
        self._n += 1
        return self.path / f"deploy{self._n}"

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def _build(name: str, seed: int, work: _Workdir, tracer: Tracer | None, run: Run) -> Deployment:
    """Set up ``SETUPS`` times, timing each; keep the last deployment."""
    dep = None
    for i in range(SETUPS):
        last = i == SETUPS - 1
        start = time.perf_counter()
        dep = _setup(name, seed, work.fresh(), tracer if last else None)
        run.setup_s.append(time.perf_counter() - start)
        if not last:
            dep.stop()
    return dep


def _setup(name: str, seed: int, workdir: Path, tracer: Tracer | None) -> Deployment:
    shape = SHAPES[name]
    if name != "dashboard_mixed":
        dep = Deployment(shape, seed, workdir if shape.durable else None, tracer)
        _warm_up(dep, WARMUP_CYCLES)
        return dep
    preload(shape, seed, workdir, HISTORY_CYCLES, SEAL_EVERY_CYCLES)
    dep = Deployment(shape, seed, workdir, tracer, start_cycle=HISTORY_CYCLES)
    _warm_up(dep, 1)
    return dep


# -- closed-loop ingest ---------------------------------------------------------


def _epoch_cycles(dep: Deployment) -> int:
    """Cycles per unit of measured work.

    A durable node seals its memtable every ``flush_threshold`` rows, and
    the seal stalls its cycle for seconds; a closed loop measures whole
    seal periods so every run holds the same number of seals.  Memory
    nodes freeze their memtable cheaply, so there every epoch does the
    same work and ``MEMORY_EPOCH_CYCLES`` of them make one.
    """
    shape = dep.shape
    if not shape.durable:
        return MEMORY_EPOCH_CYCLES
    rows_per_cycle = shape.readings_per_cycle * shape.replication / shape.nodes
    return max(1, int(dep.nodes[0].flush_threshold // rows_per_cycle))


def _closed_loop(dep: Deployment, seconds: float, run: Run, tracer: Tracer | None) -> None:
    """Whole epochs of cycles, as many as fit in ``seconds`` (at least one)."""
    run.generator_thread = threading.get_ident()
    epoch = _epoch_cycles(dep)
    start_pub = dep.published()
    start_com = dep.committed()
    t_start = time.perf_counter()
    ok = True
    while ok:
        e0, c0, committed0 = time.perf_counter(), time.process_time(), dep.committed()
        for _ in range(epoch):
            ok = _cycle(dep, run, tracer)
            if not ok:
                break
        now = time.perf_counter()
        run.epochs.append((now - e0, time.process_time() - c0, dep.committed() - committed0))
        if now - t_start + (now - e0) > seconds:
            break
    run.window_s = time.perf_counter() - t_start
    # Closed loop: a cycle is scheduled the moment the previous commits.
    run.freshness_s = list(run.cycle_commit_s)
    run.published = dep.published() - start_pub
    run.committed = dep.committed() - start_com


def _cycle(dep: Deployment, run: Run, tracer: Tracer | None) -> bool:
    """Send one cycle and wait until it is committed; False on timeout.

    Traced mode traces every other cycle and reads the counters around it.
    """
    traced = tracer is not None and (dep.cycle + 1) % 2 == 0
    if traced:
        before = read_counters(dep)
        tracer.enabled = True
    expect = dep.published() + dep.shape.readings_per_cycle
    t0 = time.perf_counter()
    dep.send_cycle()
    backlog = dep.messages_published() - dep.broker_messages()
    ok = _wait_committed(dep, expect, QUIESCE_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    run.cycle_commit_s.append(elapsed)
    if traced:
        tracer.enabled = False
        run.add_counters(counter_delta(before, read_counters(dep)))
        run.traced_cycle_s.append(elapsed)
        run.traced_window_s += elapsed
        run.traced_readings += dep.shape.readings_per_cycle
        run.traced_msgs_backlog.append(backlog)
    elif tracer is not None:
        run.untraced_cycle_s.append(elapsed)
    return ok


def _disk_bytes_per_reading(dep: Deployment) -> float:
    """WAL plus segment bytes on all nodes, after compaction settles, per
    reading in the store (every cycle sent: history, warm-up, window)."""
    for node in dep.nodes:
        node.wait_for_compaction()
    return dep.store_disk_bytes() / (dep.cycle * dep.shape.readings_per_cycle)


def _frozen_bytes_per_reading(dep: Deployment) -> float:
    """Bytes memory nodes hold per reading once their memtables are frozen.

    ``cluster.flush()`` turns every node's memtable rows into immutable
    segment arrays.  Tracing the flush of one cycle and of two cycles
    (with ``tracemalloc``) and taking the difference leaves the bytes of
    one cycle's rows, without the per-sensor cost of a segment.
    """
    dep.cluster.flush()
    held = []
    for cycles in (1, 2):
        _warm_up(dep, cycles)
        tracemalloc.start()
        try:
            dep.cluster.flush()
            held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
    return (held[1] - held[0]) / dep.shape.readings_per_cycle


def _readback(
    dep: Deployment, run: Run, seed: int, sample: int
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Read a seeded sample of sensors over every cycle sent and compare
    each (timestamp, value) pair with the generator.

    Returns the timestamps of every cycle sent and, per sampled topic,
    the values the generator produced for them.
    """
    shape = dep.shape
    client = DCDBClient(dep.cluster, cache_size=0)
    sensors = [(h, s) for h in range(shape.hosts) for s in range(shape.sensors)]
    picked = random.Random(seed).sample(sensors, min(sample, len(sensors)))
    expected_ts = np.array([dep.cycle_time(c) for c in range(1, dep.cycle + 1)], dtype=np.int64)
    blocks = {
        host: FacilityModel(seed, host, shape.sensors).block(1, dep.cycle)
        for host in {h for h, _ in picked}
    }
    expected = {}
    for host, sensor in picked:
        topic = sensor_topic(host, sensor)
        expected[topic] = blocks[host][:, sensor]
        ts, values = client.query_raw(topic, expected_ts[0], expected_ts[-1])
        if not (np.array_equal(ts, expected_ts) and np.array_equal(values, expected[topic])):
            run.mismatches.append(
                f"{topic}: {len(ts)} stored readings differ from the {len(expected_ts)} generated"
            )
    return expected_ts, expected


def _finish(dep: Deployment, run: Run) -> None:
    """Per-node rows and the writer's deepest queue."""
    run.rows_per_node = dep.rows_per_node()
    if dep.agent.writer is not None:
        run.queue_hwm = float(dep.agent.writer.status()["queueHighWatermark"])


def _run_closed(name: str, seed: int, seconds: float, tracer: Tracer | None, run: Run) -> Deployment:
    work = _Workdir(Path(".e2ebench_work"))
    try:
        dep = _build(name, seed, work, tracer, run)
        try:
            _closed_loop(dep, seconds, run, tracer)
            if dep.shape.durable:
                run.store_bytes_per_reading = _disk_bytes_per_reading(dep)
            else:
                run.store_bytes_per_reading = _frozen_bytes_per_reading(dep)
            _finish(dep, run)
            dep.stop_ingest()
            _readback(dep, run, seed, READBACK_SENSORS)
        finally:
            dep.stop()
    finally:
        work.remove()
    return dep


# -- dashboard_mixed ---------------------------------------------------------------


@dataclass
class _Query:
    kind: str
    topics: list[str]
    start: int
    end: int
    aggregation: str
    digest: dict[str, bytes]
    #: Bucket width of an aggregate answer, read off its grid.
    bucket_ns: int = 0


def _digest(ts: np.ndarray, values: np.ndarray) -> bytes:
    return hashlib.blake2b(
        np.ascontiguousarray(ts).tobytes() + np.ascontiguousarray(values).tobytes(),
        digest_size=16,
    ).digest()


class _Dashboard:
    """Open-loop ingest thread + closed-loop query thread over one deployment."""

    def __init__(self, dep: Deployment, seed: int, seconds: float, run: Run, tracer) -> None:
        self.dep = dep
        self.seed = seed
        self.seconds = seconds
        self.run = run
        self.tracer = tracer
        self.rng = random.Random(seed)
        shape = dep.shape
        self.topics = {
            host: [sensor_topic(host, s) for s in range(shape.sensors)]
            for host in range(shape.hosts)
        }
        history = HISTORY_CYCLES * INTERVAL_NS
        self.cold_views = [
            (
                sensor_topic(self.rng.randrange(shape.hosts), self.rng.randrange(shape.sensors)),
                dep.cycle_time(1)
                + self.rng.randrange(0, history - COLD_WINDOW_S * NS, INTERVAL_NS),
            )
            for _ in range(COLD_VIEWS)
        ]
        #: Timestamp of the newest fully committed cycle; queries end here,
        #: so their answers cannot change under later ingest.
        self.now_ts = dep.cycle_time(dep.cycle)
        self.queries: list[_Query] = []
        self.errors: list[BaseException] = []
        self.stop_at = 0.0
        self.slice_traced = False

    # ingest thread ---------------------------------------------------------

    def _ingest(self) -> None:
        dep, run, tracer = self.dep, self.run, self.tracer
        period = dep.shape.readings_per_cycle / OFFERED_RPS
        t_start = self.t_start
        pending: list[tuple[int, float, float, int]] = []  # cycle, due, sent, target
        sent = 0
        before = None
        while True:
            now = time.perf_counter()
            committed = dep.committed()
            while pending and committed >= pending[0][3]:
                cycle, due, sent_at, _ = pending.pop(0)
                run.freshness_s.append(now - due)
                run.cycle_commit_s.append(now - sent_at)
                self.now_ts = dep.cycle_time(cycle)
            if tracer is not None:
                traced = now < self.stop_at and int((now - t_start) / TRACE_SLICE_S) % 2 == 1
                if traced != tracer.enabled:
                    snapshot = read_counters(dep)
                    if traced:
                        before = snapshot
                    else:
                        run.add_counters(counter_delta(before, snapshot))
                    tracer.enabled = traced
                    self.slice_traced = traced
            due = t_start + sent * period
            if due < self.stop_at and now >= due:
                target = dep.published() + dep.shape.readings_per_cycle
                run.late_s.append(now - due)
                cycle = dep.send_cycle()
                pending.append((cycle, due, now, target))
                sent += 1
                continue
            if now >= self.stop_at:
                if not pending:
                    return
                if now > self.stop_at + QUIESCE_TIMEOUT_S:
                    return
            time.sleep(min(0.001, max(0.0, due - now)) if due < self.stop_at else 0.001)

    # query thread -----------------------------------------------------------

    def _query_once(self) -> tuple[str, float, int, bool]:
        kind = self.rng.choices([k for k, _ in QUERY_MIX], [w for _, w in QUERY_MIX])[0]
        client = self.dep.client
        now_ts = self.now_ts
        traced = self.slice_traced
        digest: dict[str, bytes] = {}
        aggregation = ""
        start = time.perf_counter()
        if kind == "recent":
            topics = self.topics[self.rng.randrange(len(self.topics))]
            lo, hi = now_ts - RECENT_WINDOW_S * NS, now_ts
            result = client.query_raw_many(topics, lo, hi)
        elif kind == "aggregate":
            topics = self.topics[self.rng.randrange(len(self.topics))]
            aggregation = self.rng.choice(("avg", "max"))
            lo, hi = self.dep.cycle_time(1), now_ts
            result = client.query_aggregate_many(
                topics, lo, hi, aggregation, AGGREGATE_MAX_POINTS
            )
        else:
            topic, lo = self.rng.choice(self.cold_views)
            hi = lo + COLD_WINDOW_S * NS
            topics = [topic]
            result = {topic: client.query_raw(topic, lo, hi)}
        elapsed = time.perf_counter() - start
        points = 0
        bucket_ns = 0
        for topic, (ts, values) in result.items():
            digest[topic] = _digest(ts, values)
            points += len(ts)
            if aggregation and len(ts) > 1:
                width = int(np.min(np.diff(ts)))
                bucket_ns = width if not bucket_ns else min(bucket_ns, width)
        self.queries.append(_Query(kind, topics, lo, hi, aggregation, digest, bucket_ns))
        return kind, elapsed, points, traced and self.slice_traced

    def _query_loop(self) -> None:
        run = self.run
        wall0, cpu0 = time.perf_counter(), time.thread_time()
        while time.perf_counter() < self.stop_at:
            time.sleep(THINK_S)
            try:
                kind, elapsed, points, traced = self._query_once()
            except Exception:  # noqa: BLE001 - a failed query is counted
                run.queries_failed += 1
                continue
            run.query_s.setdefault(kind, []).append(elapsed)
            if self.tracer is not None:
                bucket = run.traced_query_s if traced else run.untraced_query_s
                bucket.setdefault(kind, []).append(elapsed)
                if traced:
                    run.traced_query_points += points
        run.query_wall_s = time.perf_counter() - wall0
        run.query_cpu_s = time.thread_time() - cpu0

    def _guard(self, fn):
        def body():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - re-raised on the main thread
                self.errors.append(exc)
        return body

    def drive(self) -> None:
        dep, run = self.dep, self.run
        start_pub, start_com = dep.published(), dep.committed()
        threads = [
            threading.Thread(target=self._guard(self._ingest), name="e2e-ingest"),
            threading.Thread(target=self._guard(self._query_loop), name="e2e-query"),
        ]
        cpu0 = time.process_time()
        self.t_start = time.perf_counter()
        self.stop_at = self.t_start + self.seconds
        for thread in threads:
            thread.start()
        run.generator_thread = threads[0].ident
        for thread in threads:
            thread.join()
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.enabled = False
        if self.errors:
            raise self.errors[0]
        run.window_s = time.perf_counter() - self.t_start
        run.cpu_s = time.process_time() - cpu0
        run.published = dep.published() - start_pub
        run.committed = dep.committed() - start_com
        if self.tracer is not None:
            run.traced_window_s = self.seconds / 2
            run.traced_readings = int(run.counters.get("dcdb_writer_readings_flushed_total", 0))

    def verify(self) -> None:
        """Read every sensor back (see ``_readback``), then check each
        recorded answer: raw ones against the generator, aggregate ones
        against the same aggregation of the raw rows."""
        run = self.run
        all_ts, raw = _readback(self.dep, run, self.seed, self.dep.shape.readings_per_cycle)
        for query in self.queries:
            if query.kind == "aggregate" and not query.bucket_ns:
                run.mismatches.append(f"aggregate over {query.topics[0]}...: no bucket grid")
                continue
            for topic in query.topics:
                lo = np.searchsorted(all_ts, query.start, "left")
                hi = np.searchsorted(all_ts, query.end, "right")
                ts, values = all_ts[lo:hi], raw[topic][lo:hi]
                if query.kind == "aggregate":
                    ts, values = self._aggregate(query, ts, values)
                if query.digest.get(topic) != _digest(ts, values):
                    run.mismatches.append(
                        f"{query.kind} {topic} [{query.start}, {query.end}] differs"
                    )

    @staticmethod
    def _aggregate(query: _Query, ts, values):
        """The same aggregation of the raw rows, decoded as libdcdb does
        for a scale-1 sensor, on the bucket grid the answer used."""
        starts, mins, maxs, sums, counts = aggregate_buckets(ts, values, query.bucket_ns)
        if query.aggregation == "avg":
            out = sums.astype(np.float64) / counts.astype(np.float64)
        else:
            out = maxs.astype(np.float64)
        return starts, out


def _run_dashboard(seed: int, seconds: float, tracer: Tracer | None, run: Run) -> Deployment:
    work = _Workdir(Path(".e2ebench_work"))
    try:
        dep = _build("dashboard_mixed", seed, work, tracer, run)
        try:
            run.segment_bytes_per_node = dep.segment_bytes_per_node()
            dash = _Dashboard(dep, seed, seconds, run, tracer)
            dash.drive()
            run.store_bytes_per_reading = _disk_bytes_per_reading(dep)
            _finish(dep, run)
            dep.stop_ingest()
            dash.verify()
        finally:
            dep.stop()
    finally:
        work.remove()
    return dep


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[Run, Ledger | None]:
    if name not in SHAPES:
        raise ValueError(f"unknown workload {name!r}; choose one of {sorted(SHAPES)}")
    tracer = Tracer() if trace else None
    run = Run(workload=name, seed=seed)
    try:
        if name == "dashboard_mixed":
            _run_dashboard(seed, seconds, tracer, run)
        else:
            _run_closed(name, seed, seconds, tracer, run)
    finally:
        if tracer is not None:
            tracer.restore_modules()
    return run, (Ledger(tracer.spans) if tracer is not None else None)
