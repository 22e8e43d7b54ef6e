"""Tests for the sensor data model and cache."""

import pytest
from hypothesis import given, strategies as st

from repro.common.timeutil import NS_PER_SEC
from repro.core.sensor import SensorCache, SensorMetadata, SensorReading


class TestSensorReading:
    def test_ordering_by_timestamp(self):
        assert SensorReading(1, 100) < SensorReading(2, 0)

    def test_scaled(self):
        assert SensorReading(0, 45000).scaled(1000.0) == 45.0

    def test_scaled_identity(self):
        assert SensorReading(0, 7).scaled(1.0) == 7.0


class TestSensorMetadata:
    def test_physical_round_trip(self):
        meta = SensorMetadata(name="t", scale=100.0)
        raw = meta.from_physical(45.67)
        assert meta.to_physical(SensorReading(0, raw)) == pytest.approx(45.67)

    def test_defaults(self):
        meta = SensorMetadata(name="s")
        assert meta.unit == "count"
        assert meta.publish is True
        assert meta.delta is False


class TestSensorCache:
    def test_store_and_latest(self):
        cache = SensorCache()
        cache.store(SensorReading(1, 10))
        cache.store(SensorReading(2, 20))
        assert cache.latest() == SensorReading(2, 20)

    def test_empty_latest(self):
        assert SensorCache().latest() is None

    def test_eviction_by_age(self):
        cache = SensorCache(maxage_ns=10 * NS_PER_SEC)
        for i in range(30):
            cache.store(SensorReading(i * NS_PER_SEC, i))
        readings = cache.snapshot()
        # Window is [latest - 10s, latest]: timestamps 19..29.
        assert readings[0].timestamp == 19 * NS_PER_SEC
        assert len(readings) == 11

    def test_two_minute_default_window(self):
        cache = SensorCache()
        assert cache.maxage_ns == 120 * NS_PER_SEC

    def test_view_range(self):
        cache = SensorCache()
        for i in range(10):
            cache.store(SensorReading(i, i * 10))
        view = cache.view(3, 6)
        assert [r.timestamp for r in view] == [3, 4, 5, 6]

    def test_average_all(self):
        cache = SensorCache()
        for v in (10, 20, 30):
            cache.store(SensorReading(v, v))
        assert cache.average() == 20.0

    def test_average_window(self):
        cache = SensorCache()
        for i in range(10):
            cache.store(SensorReading(i * NS_PER_SEC, i))
        # Last 2 seconds: values 7, 8, 9.
        assert cache.average(2 * NS_PER_SEC) == 8.0

    def test_average_empty(self):
        assert SensorCache().average() is None

    def test_len_and_clear(self):
        cache = SensorCache()
        cache.store(SensorReading(1, 1))
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_memory_estimate_grows(self):
        cache = SensorCache()
        assert cache.memory_bytes == 0
        cache.store(SensorReading(1, 1))
        assert cache.memory_bytes > 0

    def test_invalid_maxage_rejected(self):
        with pytest.raises(ValueError):
            SensorCache(maxage_ns=0)

    @given(st.lists(st.integers(min_value=0, max_value=10**12), min_size=1, max_size=60))
    def test_window_invariant_property(self, timestamps):
        cache = SensorCache(maxage_ns=1000)
        for t in sorted(timestamps):
            cache.store(SensorReading(t, 0))
        readings = cache.snapshot()
        newest = readings[-1].timestamp
        assert all(newest - r.timestamp <= 1000 for r in readings)
        # The newest reading always survives.
        assert readings[-1].timestamp == max(timestamps)


class _DequeCache:
    """Reference model: the original deque-of-readings cache."""

    def __init__(self, maxage_ns):
        from collections import deque

        self.maxage_ns = maxage_ns
        self.readings = deque()

    def store(self, reading):
        self.readings.append(reading)
        horizon = reading.timestamp - self.maxage_ns
        while self.readings and self.readings[0].timestamp < horizon:
            self.readings.popleft()

    def average(self, window_ns):
        if not self.readings:
            return None
        if window_ns is None:
            items = list(self.readings)
        else:
            horizon = self.readings[-1].timestamp - window_ns
            items = [r for r in self.readings if r.timestamp >= horizon]
        return sum(r.value for r in items) / len(items) if items else None


_readings = st.lists(
    st.builds(
        SensorReading,
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    ),
    min_size=1,
    max_size=8,
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("store"), _readings),
        st.tuples(st.just("store_many"), _readings),
        st.tuples(st.just("view"), st.tuples(st.integers(-10, 210), st.integers(-10, 210))),
        st.tuples(st.just("average"), st.one_of(st.none(), st.integers(0, 120))),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=60,
)


class TestColumnarCacheModel:
    """The columnar cache behaves exactly like a deque of readings."""

    @given(maxage=st.integers(min_value=1, max_value=60), ops=_ops)
    def test_matches_deque_reference(self, maxage, ops):
        cache = SensorCache(maxage_ns=maxage)
        model = _DequeCache(maxage)
        for op, arg in ops:
            if op == "store":
                for reading in arg:
                    cache.store(reading)
                    model.store(reading)
            elif op == "store_many":
                cache.store_many(arg)
                for reading in arg:
                    model.store(reading)
            elif op == "view":
                lo, hi = arg
                expected = [r for r in model.readings if lo <= r.timestamp <= hi]
                assert cache.view(lo, hi) == expected
            elif op == "average":
                assert cache.average(arg) == model.average(arg)
            else:
                cache.clear()
                model.readings.clear()
            assert cache.snapshot() == list(model.readings)
            assert len(cache) == len(model.readings)
            assert cache.latest() == (model.readings[-1] if model.readings else None)
            assert cache.memory_bytes == 16 * len(model.readings)

    def test_head_trim_keeps_window(self):
        cache = SensorCache(maxage_ns=10)
        for t in range(1000):
            cache.store(SensorReading(t, t))
        assert [r.timestamp for r in cache.snapshot()] == list(range(989, 1000))
        # The evicted prefix is cut, not just skipped over.
        assert len(cache._ts) < 2 * len(cache)

    def test_out_of_order_reading_evicts_by_its_own_timestamp(self):
        cache = SensorCache(maxage_ns=5)
        cache.store_many([SensorReading(100, 1), SensorReading(90, 2), SensorReading(101, 3)])
        # Eviction only looks at the front: 100 is inside 101's window
        # (horizon 96), so the older 90 queued behind it stays too.
        assert cache.snapshot() == [
            SensorReading(100, 1),
            SensorReading(90, 2),
            SensorReading(101, 3),
        ]
