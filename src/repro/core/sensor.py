"""The sensor data model: readings, metadata, and the sensor cache.

Paper section 3.2: *"each data point of a monitored entity is called a
sensor ... Each sensor's data consists of a time series, in which
readings are represented by a timestamp and a numerical value.  This
format is enforced across DCDB."*

Values are stored as integers in DCDB (Cassandra column type);
physical quantities are mapped to integers with per-sensor scaling
factors.  We keep that convention: :class:`SensorReading` carries an
``int`` value, and :class:`SensorMetadata` holds the unit and scaling
factor needed to interpret it.  Floating-point sources multiply by the
scale before storage and divide on the query path.

:class:`SensorCache` is the time-bounded ring of most recent readings
that both Pushers and Collect Agents expose over their RESTful APIs
(paper section 5.3: "a sensor cache that stores the latest readings of
all sensors ... configurable in size").
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass, field

from repro.common.timeutil import NS_PER_SEC


@dataclass(frozen=True, slots=True, order=True)
class SensorReading:
    """One data point: a nanosecond timestamp and an integer value."""

    timestamp: int
    value: int

    def scaled(self, scale: float) -> float:
        """The physical value this reading encodes under ``scale``."""
        return self.value / scale if scale != 1.0 else float(self.value)


@dataclass(slots=True)
class SensorMetadata:
    """Descriptive and interpretive properties of one sensor.

    These mirror the attributes DCDB's config tool manages (paper
    section 5.2): unit, scaling factor, integrability, plus operational
    hints (TTL, whether deltas should be published instead of raw
    monotonic counter values).
    """

    name: str = ""
    topic: str = ""
    unit: str = "count"
    scale: float = 1.0
    #: True for monotonically increasing counters published as deltas.
    delta: bool = False
    #: True if integrating this sensor over time is meaningful
    #: (e.g. power -> energy).
    integrable: bool = False
    #: Storage time-to-live in seconds; 0 keeps data forever.
    ttl_s: int = 0
    #: Whether readings should be published over MQTT at all.
    publish: bool = True
    #: Sampling interval in nanoseconds (informational; groups own it).
    interval_ns: int = NS_PER_SEC
    #: Free-form extra attributes (e.g. physical location tags).
    attributes: dict[str, str] = field(default_factory=dict)

    def to_physical(self, reading: SensorReading) -> float:
        """Decode a stored reading into its physical value."""
        return reading.value / self.scale

    def from_physical(self, value: float) -> int:
        """Encode a physical value into the stored integer domain."""
        return int(round(value * self.scale))


#: Bytes one cached reading occupies: an int64 timestamp and value.
_READING_BYTES = 16


class SensorCache:
    """Time-bounded cache of the latest readings of one sensor.

    Readings older than ``maxage_ns`` relative to the newest entry are
    evicted on insert.  The default 120 s matches the paper's
    evaluation setup ("a sensor cache size of two minutes",
    section 6.1).  Thread-safe: the sampling thread appends while REST
    handlers snapshot.

    Readings live in two packed ``array('q')`` columns (16 bytes per
    reading) behind a head index: eviction only advances the head, and
    the dead prefix is cut once the head passes half the buffer.
    :class:`SensorReading` objects are built only when read back.
    """

    __slots__ = ("maxage_ns", "_ts", "_vals", "_head", "_lock")

    def __init__(self, maxage_ns: int = 120 * NS_PER_SEC) -> None:
        if maxage_ns <= 0:
            raise ValueError("cache max age must be positive")
        self.maxage_ns = maxage_ns
        self._ts = array("q")
        self._vals = array("q")
        self._head = 0
        self._lock = threading.Lock()

    def store(self, reading: SensorReading) -> None:
        """Insert a reading and evict entries older than the window."""
        self.store_many((reading,))

    def store_many(self, readings) -> None:
        """:meth:`store` each reading in order, under one lock acquisition."""
        maxage = self.maxage_ns
        with self._lock:
            ts = self._ts
            vals = self._vals
            head = self._head
            for reading in readings:
                timestamp = reading.timestamp
                ts.append(timestamp)
                vals.append(reading.value)
                horizon = timestamp - maxage
                while ts[head] < horizon:
                    head += 1
            if head > len(ts) >> 1:
                del ts[:head]
                del vals[:head]
                head = 0
            self._head = head

    def latest(self) -> SensorReading | None:
        """Most recent reading, or None when empty."""
        with self._lock:
            if self._head == len(self._ts):
                return None
            return SensorReading(self._ts[-1], self._vals[-1])

    def snapshot(self) -> list[SensorReading]:
        """A copy of all cached readings, oldest first."""
        with self._lock:
            head = self._head
            return list(map(SensorReading, self._ts[head:], self._vals[head:]))

    def view(self, start_ns: int, end_ns: int) -> list[SensorReading]:
        """Cached readings with start <= timestamp <= end."""
        with self._lock:
            head = self._head
            return [
                SensorReading(t, v)
                for t, v in zip(self._ts[head:], self._vals[head:])
                if start_ns <= t <= end_ns
            ]

    def average(self, window_ns: int | None = None) -> float | None:
        """Mean raw value over the trailing ``window_ns`` (or all).

        DCDB's cache answers smoothed reads for consumers that want a
        stable recent value rather than the instantaneous sample.
        """
        with self._lock:
            head = self._head
            if head == len(self._ts):
                return None
            if window_ns is None:
                items = self._vals[head:]
            else:
                horizon = self._ts[-1] - window_ns
                items = [
                    v for t, v in zip(self._ts[head:], self._vals[head:]) if t >= horizon
                ]
            if not items:
                return None
            return sum(items) / len(items)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ts) - self._head

    def clear(self) -> None:
        with self._lock:
            self._ts = array("q")
            self._vals = array("q")
            self._head = 0

    @property
    def memory_bytes(self) -> int:
        """Memory held by the cached readings: two int64 columns.

        The resource-footprint model (paper Figure 6b ties Pusher
        memory to cache contents: interval x sensor count) keeps its
        own per-reading constant; this is the measured footprint.
        """
        return _READING_BYTES * len(self)
