"""Collect Agent implementation.

Wires together three pieces:

* a transport endpoint — either a TCP
  :class:`~repro.mqtt.broker.PublishOnlyBroker` (production layout) or
  an in-process :class:`~repro.mqtt.inproc.InProcHub` (simulation) —
  from which every accepted PUBLISH is delivered via hook;
* the :class:`~repro.core.sid.SidMapper` translating topics into
  storage keys (1:1, hierarchical, paper section 4.2);
* a :class:`~repro.storage.backend.StorageBackend` receiving the
  readings, batched per MQTT message.

The agent also keeps a per-topic :class:`~repro.core.sensor.SensorCache`
("gives access to the most recent readings of all Pushers connected",
paper section 5.3) and counters for the load experiments.
"""

from __future__ import annotations

import json
import logging
import threading
import time

from repro.common.errors import (
    BackpressureError,
    StorageError,
    TransportError,
    WriterStoppedError,
)
from repro.common.timeutil import NS_PER_SEC, now_ns
from repro.core import payload as payload_mod
from repro.core.collectagent.writer import BatchingWriter, WriterConfig
from repro.core.sensor import SensorCache
from repro.core.sid import PersistentSidMapper, SensorId
from repro.mqtt.packets import Publish
from repro.mqtt.transport import get_transport
from repro.observability import MetricsRegistry, PipelineTracer, SpanRecorder
from repro.observability.spans import default_recorder, trace_context
from repro.storage.backend import StorageBackend
from repro.storage.rollup import RollupConfig, RollupEngine

logger = logging.getLogger(__name__)


class _ThrottledWarning:
    """A warning logged at most once per :attr:`INTERVAL_S` seconds.

    Calls in between are counted, and the next line that is logged
    reports how many were suppressed.
    """

    INTERVAL_S = 10.0

    def __init__(self) -> None:
        self._next = float("-inf")
        self._suppressed = 0
        self._lock = threading.Lock()

    def __call__(self, message: str, *args) -> None:
        with self._lock:
            now = time.monotonic()
            if now < self._next:
                self._suppressed += 1
                return
            suppressed, self._suppressed = self._suppressed, 0
            self._next = now + self.INTERVAL_S
        if suppressed:
            logger.warning(message + " (%d similar suppressed)", *args, suppressed)
        else:
            logger.warning(message, *args)


class CollectAgent:
    """Receives Pusher publishes and persists them.

    Parameters
    ----------
    backend:
        Destination storage.
    broker:
        Transport endpoint exposing ``add_publish_hook``; when None a
        publish-only broker is built from ``transport`` on
        ``host:port``.
    transport:
        Transport selector used when ``broker`` is None: ``"tcp"``
        (default), ``"inproc"``, or a
        :class:`~repro.mqtt.transport.Transport` instance.
    cache_maxage_ns:
        Window of the agent-side sensor cache.
    default_ttl_s:
        TTL applied to stored readings (0 = keep forever).
    writer_config:
        When given, readings are staged in an asynchronous
        :class:`~repro.core.collectagent.writer.BatchingWriter` that
        coalesces writes across MQTT messages instead of hitting the
        backend synchronously on the dispatch thread (paper section
        5.3: Cassandra inserts happen in large asynchronous batches).
        ``None`` (the default) keeps the synchronous per-message path.
    rollup_config:
        When given, a :class:`~repro.storage.rollup.RollupEngine`
        continuously maintains 10s/1m/1h min/max/sum/count rollup
        series per sensor, observed after each successful storage
        flush (batched or synchronous).  ``None`` disables rollups.
    """

    def __init__(
        self,
        backend: StorageBackend,
        broker=None,
        host: str = "127.0.0.1",
        port: int = 1883,
        cache_maxage_ns: int = 120 * NS_PER_SEC,
        default_ttl_s: int = 0,
        metrics: MetricsRegistry | None = None,
        clock=None,
        trace_sample_every: int = 1,
        writer_config: WriterConfig | None = None,
        transport=None,
        spans: SpanRecorder | None = None,
        rollup_config: RollupConfig | None = None,
    ) -> None:
        self.backend = backend
        self.spans = spans if spans is not None else default_recorder()
        self._clock = clock if clock is not None else now_ns
        self._started_monotonic = time.monotonic()
        # The agent and its broker share ONE registry so status() and
        # /metrics read broker stats from the snapshot rather than
        # duck-typing broker attributes.
        if metrics is None:
            metrics = getattr(broker, "metrics", None) if broker is not None else None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if broker is None:
            self.transport = get_transport(transport)
            broker = self.transport.make_broker(
                publish_only=True, host=host, port=port, metrics=self.metrics
            )
        else:
            self.transport = transport
        self.broker = broker
        # Component codes are coordinated through backend metadata so
        # several Collect Agents sharing one Storage Backend (and
        # restarts of this agent) agree on the topic->SID mapping.
        self.sid_mapper = PersistentSidMapper(backend)
        self.cache_maxage_ns = cache_maxage_ns
        self.default_ttl_s = default_ttl_s
        # Concurrency contract for _caches (the single place it is
        # documented — every reader below relies on it): the dict is
        # mutated only under _caches_lock and only ever grows.  Readers
        # therefore need no lock as long as they touch the dict through
        # ONE atomic operation — a single ``dict.get`` or a whole-dict
        # key snapshot such as ``sorted(d)``/``list(d)``, which CPython
        # executes as one C call without releasing the GIL.  Anything
        # that iterates the dict incrementally (multiple bytecodes
        # between reads) must take _caches_lock.
        self._caches: dict[str, SensorCache] = {}
        self._caches_lock = threading.Lock()
        self._readings_stored = self.metrics.counter(
            "dcdb_agent_readings_stored_total", "Readings handed to the storage backend"
        )
        self._decode_errors = self.metrics.counter(
            "dcdb_agent_decode_errors_total", "Payloads/topics/metadata that failed to parse"
        )
        self._metadata_announcements = self.metrics.counter(
            "dcdb_agent_metadata_announcements_total", "Sensor metadata documents persisted"
        )
        self.metrics.gauge(
            "dcdb_agent_cached_topics", "Distinct topics in the agent-side sensor cache"
        ).set_function(lambda: len(self._caches))
        self.metrics.gauge(
            "dcdb_agent_known_sensors", "Topics with an assigned storage SID"
        ).set_function(lambda: len(self.sid_mapper))
        self.tracer = PipelineTracer(
            self.metrics, clock=clock, sample_every=trace_sample_every
        )
        self.rollup = (
            RollupEngine(backend, rollup_config, metrics=self.metrics, clock=clock)
            if rollup_config is not None
            else None
        )
        self.writer = (
            BatchingWriter(
                backend,
                writer_config,
                metrics=self.metrics,
                clock=clock,
                tracer=self.tracer,
                spans=self.spans,
                rollup=self.rollup,
            )
            if writer_config is not None
            else None
        )
        self._backpressure_drops = self.metrics.counter(
            "dcdb_agent_backpressure_drops_total",
            "Readings rejected because the staging queue was full (error policy)",
        )
        self._writer_stopped_drops = self.metrics.counter(
            "dcdb_agent_writer_stopped_drops_total",
            "Readings rejected because the batching writer was stopped",
        )
        self._writer_stopped_log = _ThrottledWarning()
        self._store_errors = self.metrics.counter(
            "dcdb_agent_store_errors_total",
            "Readings the storage backend refused on the synchronous path",
        )
        self.broker.add_publish_hook(self._on_publish)

    # Backward-compatible counter views over the registry.

    @property
    def readings_stored(self) -> int:
        return int(self._readings_stored.value)

    @property
    def decode_errors(self) -> int:
        return int(self._decode_errors.value)

    @property
    def metadata_announcements(self) -> int:
        return int(self._metadata_announcements.value)

    @property
    def store_errors(self) -> int:
        return int(self._store_errors.value)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self.writer is not None:
            self.writer.start()
        start = getattr(self.broker, "start", None)
        if start is not None:
            start()

    def stop(self) -> None:
        # Drain the staging queue BEFORE flushing the backend: every
        # accepted reading must reach the backend's write path first,
        # or flush() would freeze a memtable that is still missing them.
        if self.writer is not None:
            self.writer.stop()
        if self.rollup is not None:
            # One last pass so every sealable bucket (and any batch a
            # transient fault left pending) lands before shutdown.
            self.rollup.flush()
        self.backend.flush()
        stop = getattr(self.broker, "stop", None)
        if stop is not None:
            stop()

    def __enter__(self) -> "CollectAgent":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    @property
    def port(self) -> int | None:
        return getattr(self.broker, "port", None)

    # -- ingest path ------------------------------------------------------------

    #: Must match Pusher.METADATA_PREFIX.
    METADATA_PREFIX = "$DCDB/metadata"

    def _on_publish(self, client_id: str, packet: Publish) -> None:
        if packet.topic.startswith(self.METADATA_PREFIX):
            self._on_metadata(client_id, packet)
            return
        try:
            readings, trace_id = payload_mod.decode_message(packet.payload)
        except TransportError as exc:
            self._decode_errors.inc()
            logger.warning("bad payload on %s from %s: %s", packet.topic, client_id, exc)
            return
        if not readings:
            return
        known = self.sid_mapper.lookup_topic(packet.topic)
        try:
            sid = known if known is not None else self.sid_mapper.sid_for_topic(packet.topic)
        except TransportError as exc:
            self._decode_errors.inc()
            logger.warning("bad topic %r from %s: %s", packet.topic, client_id, exc)
            return
        if known is None:
            # Persist the topic->SID mapping so query tools in other
            # processes can resolve topics (libDCDB reads these keys).
            self.backend.put_metadata(f"sidmap{packet.topic}", sid.hex())
        # Wire-traced messages were sampled at the pusher; only
        # trace-headerless traffic consults the local sampling knob.
        traced = trace_id is not None or self.tracer.should_sample()
        origin = readings[0].timestamp
        start_ns = self._clock() if trace_id is not None else 0
        if traced:
            self.tracer.stamp("insert", origin, trace_id=trace_id)
        ttl = self.default_ttl_s
        items = [(sid, r.timestamp, r.value, ttl) for r in readings]
        if self.writer is not None:
            # Asynchronous path: stage and return; the writer stamps
            # "commit" when the coalesced batch is durable, so the hop
            # measures real durability latency rather than enqueue time.
            try:
                self.writer.put(items, origin if traced else None, trace_id=trace_id)
            except WriterStoppedError as exc:
                self._writer_stopped_drops.inc(len(items))
                self._writer_stopped_log("dropped readings on %s: %s", packet.topic, exc)
                return
            except BackpressureError as exc:
                self._backpressure_drops.inc(len(items))
                logger.warning("backpressure on %s: %s", packet.topic, exc)
                return
            if trace_id is not None:
                self.spans.record(
                    trace_id,
                    "insert",
                    "agent",
                    start_ns,
                    self._clock(),
                    topic=packet.topic,
                    readings=len(readings),
                    staged=True,
                )
        else:
            # A storage failure must not propagate into the broker's
            # reader thread (it would tear down the MQTT connection of
            # a Pusher whose publish was perfectly valid): count it,
            # log it, and keep the pipeline flowing.  The replicated
            # cluster only raises here when a reading landed on no
            # replica at all.
            try:
                # The ambient trace context lets the storage layer
                # record replica/retry spans without a signature
                # change; untraced messages skip the context manager
                # entirely (it is per-message hot-path cost).
                if trace_id is not None:
                    with trace_context(trace_id):
                        self.backend.insert_batch(items)
                else:
                    self.backend.insert_batch(items)
            except StorageError as exc:
                self._store_errors.inc(len(items))
                logger.warning(
                    "storage rejected %d readings on %s: %s",
                    len(items),
                    packet.topic,
                    exc,
                )
                return
            if self.rollup is not None:
                self.rollup.observe(items)
            commit_ns = self._clock()
            if traced:
                # The batch is durably in the backend's write path: this
                # stamp is the end-to-end pipeline latency.
                self.tracer.stamp("commit", origin, trace_id=trace_id)
            if trace_id is not None:
                self.spans.record(
                    trace_id,
                    "insert",
                    "agent",
                    start_ns,
                    commit_ns,
                    topic=packet.topic,
                    readings=len(readings),
                    staged=False,
                )
                self.spans.record(
                    trace_id,
                    "commit",
                    "agent",
                    start_ns,
                    commit_ns,
                    backend=type(self.backend).__name__,
                )
        self._cache_for(packet.topic).store_many(readings)
        self._readings_stored.inc(len(readings))

    def _on_metadata(self, client_id: str, packet: Publish) -> None:
        """Persist a Pusher's sensor-metadata announcement.

        Stored under the same ``sensorconfig<topic>`` keys the config
        tool writes, so libDCDB decodes announced sensors without any
        manual configuration (DCDB's auto-publish behaviour).
        """
        try:
            document = json.loads(packet.payload)
            topic = document["topic"]
            if topic != packet.topic[len(self.METADATA_PREFIX) :]:
                raise ValueError("metadata topic mismatch")
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            self._decode_errors.inc()
            logger.warning("bad metadata announcement from %s: %s", client_id, exc)
            return
        record = {
            "topic": topic,
            "unit": document.get("unit", "count"),
            "scale": float(document.get("scale", 1.0)),
            "integrable": bool(document.get("integrable", False)),
            "ttl_s": int(document.get("ttl_s", 0)),
            "attributes": {"interval_ns": str(document.get("interval_ns", 0))},
        }
        self.backend.put_metadata(f"sensorconfig{topic}", json.dumps(record))
        self._metadata_announcements.inc()

    def _cache_for(self, topic: str) -> SensorCache:
        # Lock-free fast path: one dict.get per the _caches contract.
        cache = self._caches.get(topic)
        if cache is None:
            with self._caches_lock:
                cache = self._caches.get(topic)
                if cache is None:
                    cache = SensorCache(maxage_ns=self.cache_maxage_ns)
                    self._caches[topic] = cache
        return cache

    # -- cache / introspection API (backs REST) --------------------------------------

    def cached_topics(self) -> list[str]:
        # sorted(dict) snapshots the keys in one C call (see the
        # _caches contract), so this read needs no lock either.
        return sorted(self._caches)

    def cache_of(self, topic: str) -> SensorCache | None:
        # Single dict.get per the _caches contract.
        return self._caches.get(topic)

    def latest(self, topic: str):
        """Most recent cached reading of ``topic``, or None."""
        cache = self._caches.get(topic)
        return cache.latest() if cache is not None else None

    def sid_of(self, topic: str) -> SensorId | None:
        return self.sid_mapper.lookup_topic(topic)

    def metrics_registries(self) -> list[MetricsRegistry]:
        """All registries behind this agent's ``/metrics`` exposition.

        The agent/broker registry plus whatever the storage backend
        exposes (a :class:`~repro.storage.cluster.StorageCluster`
        contributes one per node).
        """
        registries = [self.metrics]
        backend_regs = getattr(self.backend, "metrics_registries", None)
        if backend_regs is not None:
            registries.extend(backend_regs())
        else:
            backend_reg = getattr(self.backend, "metrics", None)
            if backend_reg is not None:
                registries.append(backend_reg)
        seen: set[int] = set()
        return [r for r in registries if not (id(r) in seen or seen.add(id(r)))]

    def health(self) -> dict[str, tuple[bool, dict]]:
        """Per-component readiness checks for the ``/health`` route.

        Components: the transport endpoint (loop thread alive for the
        TCP broker; trivially ready in-proc), the batching writer
        (queue below its high watermark, threads running) and storage
        (live replica count when the backend is a cluster).
        """
        checks: dict[str, tuple[bool, dict]] = {}
        threads = getattr(self.broker, "transport_threads", None)
        if threads is not None:
            checks["broker"] = (
                threads >= 1,
                {"transportThreads": threads, "port": self.port},
            )
        else:
            checks["broker"] = (True, {"inproc": True})
        if self.writer is not None:
            wstatus = self.writer.status()
            depth = wstatus.get("queueDepth", 0)
            capacity = wstatus.get("queueCapacity", 0) or 1
            below_watermark = depth < 0.9 * capacity
            checks["writer"] = (
                bool(wstatus.get("running")) and below_watermark,
                {
                    "queueDepth": depth,
                    "queueCapacity": capacity,
                    "belowWatermark": below_watermark,
                },
            )
        liveness = getattr(self.backend, "node_liveness", None)
        if liveness is not None:
            live, total = liveness()
            detail: dict = {"liveReplicas": live, "totalReplicas": total}
            states = getattr(self.backend, "node_states", None)
            if states is not None:
                detail["nodes"] = states()
            checks["storage"] = (live > 0, detail)
        else:
            checks["storage"] = (True, {"backend": type(self.backend).__name__})
        return checks

    def status(self) -> dict:
        """JSON-friendly snapshot for the REST API.

        Broker statistics come from the shared registry snapshot (the
        broker writes its counters there), not from duck-typed broker
        attributes.  Existing keys are stable; ``latency`` adds the
        per-hop pipeline percentiles.
        """
        return {
            "uptimeSeconds": round(time.monotonic() - self._started_monotonic, 3),
            "traceSampleEvery": self.tracer.sample_every,
            "cacheMaxAgeNs": self.cache_maxage_ns,
            "defaultTtlSeconds": self.default_ttl_s,
            "readingsStored": self.readings_stored,
            "decodeErrors": self.decode_errors,
            "storeErrors": self.store_errors,
            "knownSensors": len(self.sid_mapper),
            "connectedClients": int(
                self.metrics.value("dcdb_broker_connected_clients")
            ),
            "messagesReceived": int(
                self.metrics.value("dcdb_broker_messages_received_total")
            ),
            "latency": {
                hop: self.tracer.percentiles(hop)
                for hop in ("dispatch", "insert", "commit")
            },
            # None on the synchronous path; queue/batch statistics of
            # the asynchronous ingest path when batching is enabled.
            "writer": self.writer.status() if self.writer is not None else None,
            # None when continuous aggregation is disabled.
            "rollup": self.rollup.status() if self.rollup is not None else None,
        }
