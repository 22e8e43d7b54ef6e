"""Tests for the Collect Agent ingest path."""

import logging

from repro.common.timeutil import NS_PER_SEC
from repro.core import payload as payload_mod
from repro.core.collectagent import CollectAgent, WriterConfig
from repro.core.sensor import SensorReading
from repro.mqtt.inproc import InProcClient, InProcHub
from repro.storage import MemoryBackend


def make_agent():
    hub = InProcHub(allow_subscribe=False)
    backend = MemoryBackend()
    agent = CollectAgent(backend, broker=hub)
    client = InProcClient("pusher", hub)
    client.connect()
    return agent, backend, client


def publish_reading(client, topic, timestamp, value):
    client.publish(topic, payload_mod.encode_reading(timestamp, value))


class TestIngest:
    def test_reading_stored_under_sid(self):
        agent, backend, client = make_agent()
        publish_reading(client, "/sys/r0/n0/power", 1000, 250)
        sid = agent.sid_of("/sys/r0/n0/power")
        ts, vals = backend.query(sid, 0, 10_000)
        assert ts.tolist() == [1000] and vals.tolist() == [250]

    def test_multi_reading_payload(self):
        agent, backend, client = make_agent()
        readings = [SensorReading(i, i * 2) for i in range(1, 6)]
        client.publish("/s/a", payload_mod.encode_readings(readings))
        assert agent.readings_stored == 5

    def test_topic_sid_mapping_persisted(self):
        agent, backend, client = make_agent()
        publish_reading(client, "/sys/r0/n0/power", 1, 1)
        stored_hex = backend.get_metadata("sidmap/sys/r0/n0/power")
        assert stored_hex == agent.sid_of("/sys/r0/n0/power").hex()

    def test_mapping_persisted_once(self):
        agent, backend, client = make_agent()
        publish_reading(client, "/s/a", 1, 1)
        first = backend.get_metadata("sidmap/s/a")
        publish_reading(client, "/s/a", 2, 2)
        assert backend.get_metadata("sidmap/s/a") == first

    def test_malformed_payload_counted(self):
        agent, backend, client = make_agent()
        client.publish("/s/bad", b"\x01\x02\x03")  # not a 16-byte multiple
        assert agent.decode_errors == 1
        assert agent.readings_stored == 0

    def test_empty_payload_ignored(self):
        agent, backend, client = make_agent()
        client.publish("/s/empty", b"")
        assert agent.readings_stored == 0
        assert agent.decode_errors == 0

    def test_too_deep_topic_counted_as_error(self):
        agent, backend, client = make_agent()
        deep = "/" + "/".join(f"l{i}" for i in range(9))
        client.publish(deep, payload_mod.encode_reading(1, 1))
        assert agent.decode_errors == 1

    def test_ttl_applied(self):
        hub = InProcHub(allow_subscribe=False)
        clock = lambda: 0  # noqa: E731 - frozen clock
        backend = MemoryBackend(clock=lambda: now[0])
        now = [0]
        agent = CollectAgent(backend, broker=hub, default_ttl_s=10)
        client = InProcClient("p", hub)
        client.connect()
        publish_reading(client, "/s/t", 1 * NS_PER_SEC, 5)
        sid = agent.sid_of("/s/t")
        now[0] = 5 * NS_PER_SEC
        assert backend.query(sid, 0, 100 * NS_PER_SEC)[0].size == 1
        now[0] = 12 * NS_PER_SEC
        assert backend.query(sid, 0, 100 * NS_PER_SEC)[0].size == 0


class TestCache:
    def test_latest_reading_cached(self):
        agent, backend, client = make_agent()
        publish_reading(client, "/s/a", 1, 10)
        publish_reading(client, "/s/a", 2, 20)
        assert agent.latest("/s/a") == SensorReading(2, 20)

    def test_unknown_topic_latest_none(self):
        agent, _, _ = make_agent()
        assert agent.latest("/never") is None

    def test_cached_topics_sorted(self):
        agent, backend, client = make_agent()
        publish_reading(client, "/s/b", 1, 1)
        publish_reading(client, "/s/a", 1, 1)
        assert agent.cached_topics() == ["/s/a", "/s/b"]

    def test_cache_of(self):
        agent, backend, client = make_agent()
        publish_reading(client, "/s/a", 1, 1)
        assert len(agent.cache_of("/s/a")) == 1
        assert agent.cache_of("/nope") is None


class TestStatus:
    def test_status_counters(self):
        agent, backend, client = make_agent()
        publish_reading(client, "/s/a", 1, 1)
        publish_reading(client, "/s/b", 1, 1)
        status = agent.status()
        assert status["readingsStored"] == 2
        assert status["knownSensors"] == 2
        assert status["messagesReceived"] == 2
        assert status["decodeErrors"] == 0


class TestWriterStoppedDrops:
    """Readings refused by a stopped writer are not "queue full" drops."""

    def make_stopped(self):
        hub = InProcHub(allow_subscribe=False)
        agent = CollectAgent(MemoryBackend(), broker=hub, writer_config=WriterConfig())
        agent.start()
        agent.writer.stop()
        client = InProcClient("pusher", hub)
        client.connect()
        return agent, client

    def test_counted_apart_from_backpressure(self):
        agent, client = self.make_stopped()
        client.publish("/s/a", payload_mod.encode_readings([SensorReading(1, 1), SensorReading(2, 2)]))
        client.publish("/s/a", payload_mod.encode_reading(3, 3))
        assert agent.metrics.value("dcdb_agent_writer_stopped_drops_total") == 3
        assert agent.metrics.value("dcdb_agent_backpressure_drops_total") == 0
        assert agent.readings_stored == 0

    def test_log_line_rate_limited_with_suppressed_count(self, caplog):
        agent, client = self.make_stopped()
        with caplog.at_level(logging.WARNING, logger="repro.core.collectagent.agent"):
            for t in range(5):
                client.publish("/s/a", payload_mod.encode_reading(t, t))
            agent._writer_stopped_log._next = float("-inf")
            client.publish("/s/a", payload_mod.encode_reading(9, 9))
        lines = [r.getMessage() for r in caplog.records if "dropped readings" in r.message]
        assert len(lines) == 2
        assert "suppressed" not in lines[0]
        assert "(4 similar suppressed)" in lines[1]
