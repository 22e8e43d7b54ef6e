"""The segmented seal encode is byte-identical to per-sensor encodes.

``write_segment`` concatenates every sensor's columns and runs each
codec once over the whole file.  These tests pin that against the
definition of the format: a file assembled block by block from
one-segment ``encode_timestamps`` / ``encode_values`` calls, exactly
as the original per-sensor writer did.  Hypothesis drives the column
contents towards the cases where per-block state could leak across a
boundary: 1- and 2-row sensors, int64 extremes and sign flips, float
bit patterns, and XOR windows a following block could wrongly reuse.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sid import SensorId
from repro.storage.durable.codec import encode_timestamps, encode_values
from repro.storage.durable.segment import SegmentFile, write_segment

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

_FLOAT_BITS = [
    struct.unpack("<q", struct.pack("<d", f))[0]
    for f in (float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 1.5, -2.25)
]

_values = st.one_of(
    st.sampled_from([I64_MIN, I64_MIN + 1, -1, 0, 1, I64_MAX - 1, I64_MAX]),
    st.sampled_from(_FLOAT_BITS),
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=I64_MIN, max_value=I64_MAX),
    st.integers(min_value=0, max_value=1 << 20).map(lambda v: (1 << 40) + v * 1_000_000),
)
_column = st.lists(_values, min_size=1, max_size=6)
_sensor = st.tuples(_column, _column, _column).map(
    lambda cols: tuple(c[: min(map(len, cols))] for c in cols)
)

_HEADER = struct.Struct("<4sHH")
_ENTRY = struct.Struct("<QQQIIIIqqI")
_TAIL = struct.Struct("<QIII")


def _reference_file(sensors) -> bytes:
    """The segment format written one sensor block at a time."""
    body = bytearray(_HEADER.pack(b"DSEG", 1, 0))
    footer = bytearray()
    for sid, ts, vals, exp in sensors:
        offset = len(body)
        blocks = [encode_timestamps(ts), encode_values(vals), encode_timestamps(exp)]
        body += b"".join(blocks)
        footer += _ENTRY.pack(
            sid.value >> 64,
            sid.value & ((1 << 64) - 1),
            offset,
            ts.size,
            *map(len, blocks),
            int(ts[0]),
            int(ts[-1]),
            zlib.crc32(body[offset:]),
        )
    footer_off = len(body)
    return bytes(body + footer + _TAIL.pack(footer_off, len(sensors), zlib.crc32(footer), 0x44534547))


def _arrays(columns):
    return [
        (SensorId.from_codes([7, i + 1]), *(np.array(c, dtype=np.int64) for c in cols))
        for i, cols in enumerate(columns)
    ]


class TestSegmentedFile:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_sensor, min_size=1, max_size=12))
    def test_file_matches_per_sensor_encodes(self, tmp_path_factory, columns):
        sensors = _arrays(columns)
        path = tmp_path_factory.mktemp("seg") / "seg-00000001.seg"
        stats = write_segment(path, sensors)
        assert path.read_bytes() == _reference_file(sensors)
        assert stats.rows == sum(ts.size for _, ts, _, _ in sensors)
        segment = SegmentFile(path)
        try:
            for sid, ts, vals, exp in sensors:
                got = segment.read(sid)
                assert [a.tolist() for a in got] == [ts.tolist(), vals.tolist(), exp.tolist()]
        finally:
            segment.close()

    def test_empty_sensors_skipped(self, tmp_path):
        sensors = _arrays([([1, 2], [3, 4], [5, 6]), ([], [], []), ([9], [9], [9])])
        write_segment(tmp_path / "a.seg", sensors)
        expected = _reference_file([s for s in sensors if s[1].size])
        assert (tmp_path / "a.seg").read_bytes() == expected


class TestSegmentedCodecs:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(_values, max_size=6), min_size=1, max_size=10))
    def test_blocks_match_one_segment_encodes(self, segments):
        column = np.array([v for seg in segments for v in seg], dtype=np.int64)
        offsets = np.cumsum([0] + [len(seg) for seg in segments])
        singles = [np.array(seg, dtype=np.int64) for seg in segments]
        assert encode_timestamps(column, offsets) == [encode_timestamps(s) for s in singles]
        assert encode_values(column, offsets) == [encode_values(s) for s in singles]

    def test_xor_window_does_not_leak_across_a_boundary(self):
        # Block A opens a wide window (XOR 0b1000_0001); block B's first
        # XOR (0b10) fits inside it.  Carried over, B would encode its
        # first change as a window reuse ("10"); reset, it opens its own.
        a = [0, 0b1000_0001]
        b = [0, 0b10]
        blocks = encode_values(np.array(a + b, dtype=np.int64), [0, 2, 4])
        assert blocks == [encode_values(np.array(a)), encode_values(np.array(b))]
        assert blocks[1][8] >> 6 == 0b11  # a fresh-window control code

    def test_sign_flip_at_boundary(self):
        # Across the boundary the delta would overflow int64; each block
        # must start from its own raw head.
        a = [I64_MAX - 2, I64_MAX]
        b = [I64_MIN, I64_MIN + 5]
        blocks = encode_timestamps(np.array(a + b, dtype=np.int64), [0, 2, 4])
        assert blocks == [encode_timestamps(np.array(a)), encode_timestamps(np.array(b))]
        assert blocks[1][:8] == (I64_MIN & ((1 << 64) - 1)).to_bytes(8, "big")

    def test_one_and_two_row_blocks(self):
        col = np.array([5, 7, 7, I64_MIN, I64_MAX], dtype=np.int64)
        offsets = [0, 1, 3, 4, 5]
        for encode in (encode_timestamps, encode_values):
            blocks = encode(col, offsets)
            assert blocks == [encode(col[a:b]) for a, b in zip(offsets, offsets[1:])]
            assert [len(blocks[i]) for i in (0, 2, 3)] == [8, 8, 8]  # bare heads

    def test_empty_segments(self):
        col = np.array([1, 2, 3], dtype=np.int64)
        assert encode_timestamps(col, [0, 0, 3, 3]) == [b"", encode_timestamps(col), b""]
        assert encode_values(col[:0], [0, 0]) == [b""]

    @pytest.mark.parametrize("offsets", [[0, 2], [1, 3], [0, 2, 1, 3], [0]])
    def test_bad_offsets_rejected(self, offsets):
        with pytest.raises(ValueError):
            encode_timestamps(np.arange(3, dtype=np.int64), offsets)
