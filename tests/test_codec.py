"""Byte parity and hardening of the HDMV polyline codec.

The array-at-a-time polyline coder in :mod:`repro.storage.binary` must
write exactly the bytes the original per-point varint loop wrote, and
read them back exactly. That loop is kept here, verbatim, as the
reference; a golden hash pins the encoded output of two seeded worlds;
and a mutation fuzz checks that a corrupt body only ever raises
:class:`StorageError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import subprocess
import sys
import zlib
from io import BytesIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cluster import ClusterRouter
from repro.core import HDMap
from repro.errors import StorageError
from repro.storage import TileStore, decode_map, encode_map
from repro.storage.binary import (
    MAX_ELEMENT_EXTENT_M,
    MAX_VARINT_BYTES,
    _quantised_records,
    _read_quantised,
    _read_svarint,
    _read_varint,
    _write_svarint,
    _write_varint,
)
from repro.world import generate_grid_city, generate_highway


# ----------------------------------------------------------------------
# The per-point reference coder (the codec's polyline loops before they
# were vectorized), over quantised int64 points.
# ----------------------------------------------------------------------
def reference_write_polyline(buf: BytesIO, q: np.ndarray) -> None:
    _write_varint(buf, q.shape[0])
    prev = np.zeros(2, dtype=np.int64)
    for row in q:
        _write_svarint(buf, int(row[0] - prev[0]))
        _write_svarint(buf, int(row[1] - prev[1]))
        prev = row


def reference_read_polyline(buf: BytesIO) -> np.ndarray:
    n = _read_varint(buf)
    pts = np.zeros((n, 2), dtype=np.int64)
    prev = np.zeros(2, dtype=np.int64)
    for i in range(n):
        prev = prev + np.array([_read_svarint(buf), _read_svarint(buf)])
        pts[i] = prev
    return pts


def reference_bytes(q: np.ndarray) -> bytes:
    buf = BytesIO()
    with np.errstate(over="ignore"):  # int64 deltas wrap, as they always did
        reference_write_polyline(buf, q)
    return buf.getvalue()


# Deltas at every varint width edge: zigzag(d) needs k + 1 bytes from
# |d| = 2**(7k - 1), so both sides of each edge, plus the int64 extremes.
_EDGES = sorted({sign * (2**(7 * k - 1) + off)
                 for k in range(1, 10) for off in (-1, 0, 1)
                 for sign in (1, -1)}
                | {0, 1, -1, 2**63 - 1, -2**63})
_EDGES = [d for d in _EDGES if -2**63 <= d < 2**63]
_DELTA = st.one_of(st.sampled_from(_EDGES),
                   st.integers(min_value=-2**63, max_value=2**63 - 1),
                   st.integers(min_value=-5000, max_value=5000))


def _points_from_deltas(deltas) -> np.ndarray:
    d = np.array(deltas, dtype=np.int64).reshape(-1, 2)
    return np.cumsum(d, axis=0, dtype=np.int64)  # wraps like the encoder


def _records(*runs: np.ndarray):
    q = (np.concatenate(runs) if runs
         else np.zeros((0, 2), dtype=np.int64))
    return _quantised_records(q, [len(r) for r in runs])


class TestPolylineParity:
    @given(st.lists(st.lists(st.tuples(_DELTA, _DELTA), max_size=30),
                    min_size=1, max_size=6))
    @settings(deadline=None, max_examples=300)
    def test_bytes_and_values_match_reference(self, runs):
        qs = [_points_from_deltas(d) if d else
              np.zeros((0, 2), dtype=np.int64) for d in runs]
        records = _records(*qs)
        assert records == [reference_bytes(q) for q in qs]
        trailer = b"\x05\xff\x00"
        buf = BytesIO(b"".join(records) + trailer)
        for q, record in zip(qs, records):
            got = _read_quantised(buf)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, q)
            np.testing.assert_array_equal(
                reference_read_polyline(BytesIO(record)), q)
        assert buf.read() == trailer

    @pytest.mark.parametrize("n", [0, 1, 2, 1000])
    def test_point_counts(self, n):
        rng = np.random.default_rng(n)
        q = np.round(rng.normal(0.0, 5e4, (n, 2)).cumsum(axis=0)
                     ).astype(np.int64)
        (record,) = _records(q)
        assert record == reference_bytes(q)
        np.testing.assert_array_equal(_read_quantised(BytesIO(record)), q)

    def test_every_edge_delta(self):
        q = _points_from_deltas([(d, -d if d != -2**63 else d)
                                 for d in _EDGES])
        (record,) = _records(q)
        assert record == reference_bytes(q)
        np.testing.assert_array_equal(_read_quantised(BytesIO(record)), q)


class TestVarintBounds:
    def test_scalar_reader_caps_length(self):
        with pytest.raises(StorageError, match="longer than"):
            _read_varint(BytesIO(b"\xff" * 12))

    def test_scalar_reader_rejects_65_bit_value(self):
        with pytest.raises(StorageError, match="overflows"):
            _read_varint(BytesIO(b"\xff" * (MAX_VARINT_BYTES - 1) + b"\x02"))
        buf = BytesIO()
        _write_varint(buf, 2**64 - 1)
        assert len(buf.getvalue()) == MAX_VARINT_BYTES
        buf.seek(0)
        assert _read_varint(buf) == 2**64 - 1

    def test_array_reader_caps_length(self):
        with pytest.raises(StorageError, match="longer than"):
            _read_quantised(BytesIO(b"\x01" + b"\xff" * 11 + b"\x00" * 4))

    def test_array_reader_rejects_65_bit_value(self):
        body = b"\x01" + b"\xff" * 9 + b"\x02" + b"\x00"
        with pytest.raises(StorageError, match="overflows"):
            _read_quantised(BytesIO(body))

    def test_array_reader_checks_count_before_reading(self):
        with pytest.raises(StorageError, match="overruns"):
            _read_quantised(BytesIO(b"\xff\xff\xff\x7f" + b"\x00" * 8))
        with pytest.raises(StorageError, match="truncated"):
            _read_quantised(BytesIO(b"\x02\x80\x80\x80\x80"))


# ----------------------------------------------------------------------
# Whole-map byte parity
# ----------------------------------------------------------------------
#: sha256 over the zlib-decoded HDMV bodies of ``encode_map`` and every
#: ``TileStore.build`` tile of the two worlds below, computed with the
#: per-point codec. zlib's own output is left out: it belongs to the
#: linked zlib build, not to this format.
GOLDEN_BODY_SHA256 = \
    "335a82f5e4d10bdb9e91b6ca2ba1128d7a599e11c1d90f7f5c4473b62955b5f6"


def _golden_blobs():
    city = generate_grid_city(np.random.default_rng(202), blocks_x=3,
                              blocks_y=2, block_size=150.0)
    highway = generate_highway(np.random.default_rng(101), length=2000.0,
                               sign_spacing=200.0, pole_spacing=80.0)
    for hdmap, tile_size in ((city, 150.0), (highway, 250.0)):
        yield hdmap.name, encode_map(hdmap)
        store = TileStore.build(hdmap, tile_size)
        for tile in store.tiles():
            yield str(tile), store._blobs[tile]


def test_golden_hash_of_encoded_worlds():
    digest = hashlib.sha256()
    n = 0
    for label, blob in _golden_blobs():
        assert blob[:5] == b"HDMV\x01"
        (length,) = struct.unpack("<I", blob[5:9])
        assert length == len(blob) - 9
        body = zlib.decompress(blob[9:])
        digest.update(label.encode())
        digest.update(len(body).to_bytes(8, "little"))
        digest.update(body)
        n += 1
    assert n == 40
    assert digest.hexdigest() == GOLDEN_BODY_SHA256


def test_shard_base_map_bytes_match_a_built_map(city):
    with ClusterRouter(city, n_shards=2, tile_size=150.0,
                       transport="local") as router:
        for index in range(2):
            config = router._config_for(index, router._owner, 2)
            base = HDMap(f"{city.name}-shard{index}")
            for tile in sorted(t for t, s in router._owner.items()
                               if s == index):
                for element in router._partition.get(tile, []):
                    base.add(element)
            if index == 0:
                for element in router._nonspatial:
                    base.add(element)
            assert config.base_map_bytes == encode_map(base)


def test_default_highway_round_trips():
    # The 20 km default road is the longest element any generator makes;
    # the decoder's extent bound must leave it alone.
    highway = generate_highway(np.random.default_rng(5))
    longest = max(max(b[2] - b[0], b[3] - b[1])
                  for b in (e.bounds() for e in highway.elements()
                            if e.id.kind != "regulatory"))
    assert 15_000.0 < longest < MAX_ELEMENT_EXTENT_M
    again = decode_map(encode_map(highway))
    assert again.counts_by_kind() == highway.counts_by_kind()


# ----------------------------------------------------------------------
# Mutation fuzz, in a memory-capped child process
# ----------------------------------------------------------------------
_FUZZ_CHILD = r"""
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

import collections, json, struct, zlib
import numpy as np
from repro.core import HDMap, Lane, RuleType, TrafficSign
from repro.core.elements import SignType
from repro.errors import StorageError
from repro.geometry.polyline import straight
from repro.storage import decode_map, encode_map

hdmap = HDMap("tiny")
lane = hdmap.create(Lane, centerline=straight([0, 0], [40, 0]))
hdmap.create(TrafficSign, position=np.array([10.0, 3.0]),
             sign_type=SignType.STOP)
hdmap.create_regulatory(rule_type=RuleType.SPEED_LIMIT, lanes=[lane.id],
                        value=13.9)
body = zlib.decompress(encode_map(hdmap)[9:])
mutants = [body[:cut] for cut in range(len(body))]
mutants += [body[:i] + bytes([v]) + body[i + 1:]
            for v in (0x00, 0x7F, 0x80, 0xFF) for i in range(len(body))]
mutants += [body[:i] + b"\xff" * 12 + body[i + 12:]
            for i in range(len(body))]
outcome = collections.Counter()
for mutant in mutants:
    payload = zlib.compress(mutant)
    blob = b"HDMV" + struct.pack("<BI", 1, len(payload)) + payload
    try:
        decode_map(blob)
        outcome["decoded"] += 1
    except StorageError:
        outcome["StorageError"] += 1
    except Exception as exc:
        outcome[type(exc).__name__] += 1
print(json.dumps({"body_bytes": len(body), "outcome": outcome}))
"""


def test_corrupt_bodies_only_raise_storage_error():
    """Every truncation of a 3-element map's body, every byte set to
    0x00/0x7f/0x80/0xff and a 12-byte 0xff run at every offset, each
    re-wrapped in a valid zlib stream, decodes or raises StorageError.

    The child runs under a 1 GiB address-space cap and a timeout, so a
    decoder that allocates without bound fails this test rather than
    taking the test runner down with it.
    """
    pytest.importorskip("resource")
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _FUZZ_CHILD], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    report = json.loads(done.stdout.strip().splitlines()[-1])
    outcome = report["outcome"]
    assert report["body_bytes"] == 106
    assert sum(outcome.values()) == 6 * 106
    assert set(outcome) <= {"decoded", "StorageError"}, outcome
    assert outcome["decoded"] > 0 and outcome["StorageError"] > 0
