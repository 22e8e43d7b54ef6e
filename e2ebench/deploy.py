"""Builds and tears down one DCDB deployment from the repo's public classes.

The wiring mirrors :class:`repro.simulation.simcluster.SimulatedCluster`
with two differences the benchmark needs: pushers load the seeded
facility plugin instead of the tester plugin, and each host publishes
under its own level-2 subtree (``/e2e/host<i>/...``).  With the
simulation's default ``/sim/cluster/host<i>`` prefix every host shares
the level-2 key ``/sim/cluster``, so the default two-level
hierarchical partitioner puts all of them in one partition and a
3-node RF=2 cluster leaves one node empty.

Every component keeps its shipped defaults unless the workload's
:class:`Shape` names a setting.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.common.timeutil import NS_PER_MS, SimClock
from repro.core.collectagent import CollectAgent, RollupConfig, WriterConfig
from repro.core.pusher import Pusher, PusherConfig
from repro.core.sid import PersistentSidMapper
from repro.libdcdb.api import DCDBClient
from repro.mqtt.transport import get_transport
from repro.storage import StorageCluster, StorageNode
from repro.storage.durable import DurableNode
from repro.storage.rollup import RollupEngine

from e2ebench import facility

#: Timestamp origin of every series: cycle ``c`` is sampled at
#: ``BASE_NS + c * interval``.  A whole number of hours, so rollup
#: buckets of every tier align with cycle boundaries.
BASE_NS = 1_700_000_000 * 1_000_000_000 - (1_700_000_000 % 3600) * 1_000_000_000
TOPIC_ROOT = "/e2e"
#: Sampling interval of every sensor.
INTERVAL_MS = 1000
INTERVAL_NS = INTERVAL_MS * NS_PER_MS


@dataclass(frozen=True)
class Shape:
    """What a workload deploys; anything not named here is a default."""

    hosts: int
    sensors: int
    nodes: int
    replication: int
    transport: str = "inproc"
    batched: bool = False
    durable: bool = False
    rollups: bool = False
    #: Per-node decoded-block cache budget (durable nodes); None keeps
    #: the shipped default.
    block_cache_bytes: int | None = None

    @property
    def readings_per_cycle(self) -> int:
        return self.hosts * self.sensors


def host_prefix(host: int) -> str:
    return f"{TOPIC_ROOT}/host{host}"


def sensor_topic(host: int, sensor: int) -> str:
    return f"{host_prefix(host)}/g0/s{sensor}"


def make_node(shape: Shape, workdir: Path | None, index: int) -> StorageNode:
    if not shape.durable:
        return StorageNode(f"node{index}")
    kwargs = {}
    if shape.block_cache_bytes is not None:
        kwargs["block_cache_bytes"] = shape.block_cache_bytes
    return DurableNode(f"node{index}", data_dir=workdir / f"node{index}", **kwargs)


def preload(shape: Shape, seed: int, workdir: Path, cycles: int, seal_every: int) -> None:
    """Write cycles ``1..cycles`` of every sensor into durable nodes under
    ``workdir``, with rollups, sealed every ``seal_every`` cycles, then
    close the nodes.

    A deployment opened over ``workdir`` afterwards finds the history
    where a restarted one would: in segment files, read block by block
    through the block cache.  Writes go to hosts in index order, the
    order the deployment's pushers publish in, so the first-seen
    partition assignment of the reopened cluster is the same.
    """
    cluster = StorageCluster(
        [make_node(shape, workdir, i) for i in range(shape.nodes)],
        replication=shape.replication,
    )
    mapper = PersistentSidMapper(cluster)
    client = DCDBClient(cluster)
    rollup = RollupEngine(cluster)
    sids = {}
    for host in range(shape.hosts):
        for sensor in range(shape.sensors):
            topic = sensor_topic(host, sensor)
            sids[host, sensor] = mapper.sid_for_topic(topic)
            client.register_topic(topic, sids[host, sensor])
    blocks = [
        facility.FacilityModel(seed, host, shape.sensors).block(1, cycles)
        for host in range(shape.hosts)
    ]
    for first in range(1, cycles + 1, seal_every):
        items = []
        for cycle in range(first, min(first + seal_every, cycles + 1)):
            ts = BASE_NS + cycle * INTERVAL_NS
            for host in range(shape.hosts):
                row = blocks[host][cycle - 1].tolist()
                items.extend(
                    (sids[host, sensor], ts, row[sensor], 0)
                    for sensor in range(shape.sensors)
                )
        cluster.insert_batch(items)
        rollup.observe(items)
        cluster.flush()
    for node in cluster.nodes:
        node.wait_for_compaction()
    cluster.close()


class Deployment:
    """Pushers -> MQTT -> collect agent -> storage cluster, plus a query client.

    ``tracer`` (an :class:`e2ebench.tracing.Tracer`) gets to wrap each
    component as it is built; the agent's publish hook can only be
    wrapped before the agent registers it.
    """

    def __init__(
        self,
        shape: Shape,
        seed: int,
        workdir: Path | None,
        tracer=None,
        start_cycle: int = 0,
    ) -> None:
        self.shape = shape
        self.seed = seed
        self.workdir = workdir
        #: Last cycle sent; pushers sample ``start_cycle + 1`` first.
        self.cycle = start_cycle
        self.clock = SimClock(self.cycle_time(start_cycle))
        self.transport = get_transport(shape.transport)
        self.broker = self.transport.make_broker(publish_only=True, port=0)
        self.broker.start()
        self.nodes = [make_node(shape, workdir, i) for i in range(shape.nodes)]
        self.cluster = StorageCluster(list(self.nodes), replication=shape.replication)
        if tracer is not None:
            tracer.wrap_broker(self.broker)
        self.agent = CollectAgent(
            self.cluster,
            broker=self.broker,
            writer_config=WriterConfig() if shape.batched else None,
            rollup_config=RollupConfig() if shape.rollups else None,
        )
        self.pushers: list[Pusher] = []
        for host in range(shape.hosts):
            pusher = Pusher(
                PusherConfig(mqtt_prefix=host_prefix(host)),
                client=self.transport.make_client(f"pusher-host{host}"),
                clock=self.clock,
            )
            pusher.load_plugin(
                facility.PLUGIN_NAME,
                facility.plugin_config(
                    seed, host, shape.sensors, INTERVAL_MS, BASE_NS
                ),
            )
            pusher.client.connect()
            pusher.start_plugin(facility.PLUGIN_NAME)
            self.pushers.append(pusher)
        self.client = DCDBClient(self.cluster)
        self._ingest_stopped = False
        if tracer is not None:
            tracer.wrap_deployment(self)

    # -- the public counters the quiesce checks poll ------------------------

    def published(self) -> int:
        """Readings the pushers have collected (and therefore published)."""
        return sum(p.readings_collected for p in self.pushers)

    def committed(self) -> int:
        """Readings the agent has durably handed to storage."""
        writer = self.agent.writer
        return writer.flushed if writer is not None else self.agent.readings_stored

    def messages_published(self) -> int:
        return sum(p.messages_published for p in self.pushers)

    def broker_messages(self) -> int:
        return int(self.broker.metrics.value("dcdb_broker_messages_received_total"))

    # -- driving ------------------------------------------------------------

    def cycle_time(self, cycle: int) -> int:
        return BASE_NS + cycle * INTERVAL_NS

    def send_cycle(self) -> int:
        """Sample and publish one cycle on every host; returns its number."""
        self.cycle += 1
        target = self.cycle_time(self.cycle)
        for pusher in self.pushers:
            pusher.advance_to(target)
        self.clock.set(target)
        return self.cycle

    def registries(self) -> list:
        """Every metrics registry of the deployment, deduplicated."""
        regs = list(self.agent.metrics_registries()) + [self.client.metrics]
        seen: set[int] = set()
        return [r for r in regs if not (id(r) in seen or seen.add(id(r)))]

    def store_disk_bytes(self) -> int:
        """WAL plus segment bytes on every durable node."""
        if self.workdir is None:
            return 0
        return sum(
            path.stat().st_size
            for path in self.workdir.rglob("*")
            if path.is_file() and path.suffix in (".log", ".seg")
        )

    def segment_bytes_per_node(self) -> list[int]:
        return [
            sum(p.stat().st_size for p in (self.workdir / f"node{i}").glob("*.seg"))
            for i in range(len(self.nodes))
        ]

    def rows_per_node(self) -> list[int]:
        return [node.row_count for node in self.nodes]

    def stop_ingest(self) -> None:
        """Disconnect pushers and stop the agent (draining its writer and
        flushing storage); the cluster stays open for reads."""
        if self._ingest_stopped:
            return
        self._ingest_stopped = True
        for pusher in self.pushers:
            pusher.client.disconnect()
        self.agent.stop()

    def stop(self) -> None:
        """Stop ingest, close the nodes and remove their files."""
        self.stop_ingest()
        self.cluster.close()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
