"""Compact binary vector codec.

Li et al. [60] cut HD-map storage from ~10 MB/mile to ~100 KB/mile by
discarding the laser point cloud and keeping only delta-coded vector data
(lanes, links, limits, signs). This codec implements that strategy:

- coordinates quantized to 1 cm and delta-coded as zigzag varints,
- element records packed with one-byte type tags,
- zlib entropy coding over the whole payload.

Polyline coordinates, the bulk of every blob, are coded array-at-a-time
with numpy rather than one varint call per coordinate; the bytes are
exactly those of the per-point loop, which the tests keep as reference.

Round-trips everything :func:`repro.storage.geojson.map_to_dict` handles,
at centimetre precision.
"""

from __future__ import annotations

import struct
import zlib
from io import BytesIO
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.elements import (
    BoundaryType,
    Crosswalk,
    Lane,
    LaneBoundary,
    LaneType,
    MapElement,
    Node,
    Pole,
    RoadMarking,
    RoadSegment,
    SignType,
    StopLine,
    TrafficLight,
    TrafficSign,
)
from repro.core.hdmap import HDMap
from repro.core.ids import ElementId
from repro.core.regulatory import RegulatoryElement, RuleType
from repro.errors import GeometryError, MapModelError, StorageError
from repro.geometry.polyline import Polyline

MAGIC = b"HDMV"
VERSION = 1
QUANTUM = 0.01  # 1 cm

_TYPE_TAGS = {
    Node: 1,
    LaneBoundary: 2,
    Lane: 3,
    RoadSegment: 4,
    TrafficSign: 5,
    TrafficLight: 6,
    Pole: 7,
    RoadMarking: 8,
    Crosswalk: 9,
    StopLine: 10,
    RegulatoryElement: 11,
}
_TAG_TYPES = {v: k for k, v in _TYPE_TAGS.items()}


# ----------------------------------------------------------------------
# Varint primitives
# ----------------------------------------------------------------------
#: Longest LEB128 varint a 64-bit value needs; a longer run is corrupt.
MAX_VARINT_BYTES = 10

#: Largest side, in metres, of a decoded element's bounding box. Map
#: elements are lanes, roads and landmarks (the longest any generator
#: makes is ``generate_highway``'s default 20 km road); a corrupt varint
#: or f32 lane width (a lane's bounds include its width) decodes to
#: absurd sizes that would make the spatial index enumerate billions of
#: grid cells, so such records are rejected as corrupt instead of added.
MAX_ELEMENT_EXTENT_M = 100_000.0

#: Points coded per numpy pass when encoding. A pass allocates a few
#: (2n, width) temporaries; at 1024 points they stay near or under
#: glibc's 128 KiB mmap threshold, so encoding a whole shard's base map
#: does not ratchet up the allocator's threshold and leave the freed
#: temporaries resident in the heap of the router and every shard it
#: forks.
_BATCH_POINTS = 1024

_U1 = np.uint64(1)
_ZERO = np.zeros(1, dtype=np.int64)
_COLUMNS = np.arange(MAX_VARINT_BYTES, dtype=np.int64)
# Bit offset of each 7-bit group, and the smallest value needing k + 2
# groups: a varint's width is 1 + the number of thresholds it reaches.
_GROUP_SHIFTS = _COLUMNS.astype(np.uint64) * np.uint64(7)
_WIDTH_THRESHOLDS = _U1 << _GROUP_SHIFTS[1:]


def _zigzag(n: int) -> int:
    return (n << 1) ^ (n >> 63)


def _unzigzag(n: int) -> int:
    return (n >> 1) ^ -(n & 1)


def _varint(n: int) -> bytes:
    if n < 0:
        raise StorageError("varint must be non-negative")
    out = bytearray()
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


def _write_varint(buf: BytesIO, n: int) -> None:
    buf.write(_varint(n))


def _read_varint(buf: BytesIO) -> int:
    shift = 0
    out = 0
    for _ in range(MAX_VARINT_BYTES):
        raw = buf.read(1)
        if not raw:
            raise StorageError("truncated varint")
        byte = raw[0]
        out |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if out >> 64:
                raise StorageError("varint overflows 64 bits")
            return out
        shift += 7
    raise StorageError(f"varint longer than {MAX_VARINT_BYTES} bytes")


def _write_svarint(buf: BytesIO, n: int) -> None:
    _write_varint(buf, _zigzag(n))


def _read_svarint(buf: BytesIO) -> int:
    return _unzigzag(_read_varint(buf))


def _read_count(buf: BytesIO, unit: int = 1) -> int:
    """A declared count of records that take ``unit`` bytes or more each,
    checked against the bytes left before anything loops or allocates."""
    n = _read_varint(buf)
    pos = buf.tell()
    left = buf.seek(0, 2) - pos
    buf.seek(pos)
    if n * unit > left:
        raise StorageError(f"declared count {n} overruns the {left} "
                           f"bytes left")
    return n


def _read_str(buf: BytesIO) -> str:
    return buf.read(_read_count(buf)).decode()


# ----------------------------------------------------------------------
# Array-at-a-time polyline coding
# ----------------------------------------------------------------------
def _quantised_records(q: np.ndarray, counts: Sequence[int]) -> List[bytes]:
    """Polyline records of the consecutive runs of ``counts[i]`` points
    in the ``(N, 2)`` int64 array ``q``: each run's point count, then each
    (x, y) as zigzag deltas from the previous point of the run (the first
    from the origin).

    Every varint of every run is coded in one pass: row ``j`` of an
    (2N, width) byte matrix holds value ``j``'s 7-bit groups, the
    continuation bit is set on all but each row's last used column, and
    the used columns are read out row-major by one ``tobytes()``, which
    is then cut at the run boundaries.
    """
    heads = [_varint(n) for n in counts]
    if q.shape[0] == 0:
        return heads
    firsts = np.cumsum(counts, dtype=np.int64) - np.asarray(counts,
                                                           dtype=np.int64)
    deltas = np.empty_like(q)
    np.subtract(q[1:], q[:-1], out=deltas[1:])
    starts = firsts[firsts < q.shape[0]]
    deltas[starts] = q[starts]
    deltas = deltas.reshape(-1)
    zigzag = ((deltas.view(np.uint64) << _U1)
              ^ (deltas >> np.int64(63)).view(np.uint64))
    last = np.searchsorted(_WIDTH_THRESHOLDS, zigzag, side="right")[:, None]
    width = int(last.max()) + 1
    columns = _COLUMNS[:width]
    groups = ((zigzag[:, None] >> _GROUP_SHIFTS[:width]).astype(np.uint8)
              & np.uint8(0x7F))
    groups |= (columns < last).view(np.uint8) << np.uint8(7)
    data = groups[columns <= last].tobytes()
    point_ends = np.cumsum((last + 1).reshape(-1, 2).sum(axis=1))
    cuts = [0] + np.concatenate((_ZERO, point_ends))[
        np.cumsum(counts, dtype=np.int64)].tolist()
    return [head + data[lo:hi]
            for head, lo, hi in zip(heads, cuts[:-1], cuts[1:])]


def _polyline_points(element: MapElement) -> Optional[np.ndarray]:
    """The vertices of ``element``'s one polyline, if it has one."""
    if isinstance(element, (LaneBoundary, StopLine)):
        return element.line.points
    if isinstance(element, Lane):
        return element.centerline.points
    if isinstance(element, RoadSegment):
        return element.reference_line.points
    if isinstance(element, Crosswalk):
        return Polyline(element.polygon).points
    return None


def _polyline_records(elements: Sequence[MapElement]) -> List[bytes]:
    """Each element's polyline record (``b""`` if it has no polyline),
    quantised to :data:`QUANTUM` and coded together, in batches of about
    :data:`_BATCH_POINTS` points."""
    points = [_polyline_points(e) for e in elements]
    lines = [p for p in points if p is not None]
    records: List[bytes] = []
    first = total = 0
    for i, line in enumerate(lines):
        total += len(line)
        if total >= _BATCH_POINTS or i == len(lines) - 1:
            batch = lines[first:i + 1]
            q = np.round(np.concatenate(batch) / QUANTUM).astype(np.int64)
            records += _quantised_records(q, [len(p) for p in batch])
            first, total = i + 1, 0
    coded = iter(records)
    return [b"" if p is None else next(coded) for p in points]


def _read_quantised(buf: BytesIO) -> np.ndarray:
    """Inverse of one :func:`_quantised_records` record: its ``(n, 2)``
    int64 points.

    The 2n varints end at the first 2n bytes below 0x80 of a window of
    ``MAX_VARINT_BYTES`` bytes per varint; each varint's groups are
    shifted into place and OR-reduced, un-zigzagged, then summed.
    """
    n = _read_count(buf, 2)
    if n == 0:
        return np.zeros((0, 2), dtype=np.int64)
    m = 2 * n
    start = buf.tell()
    window = np.frombuffer(buf.read(MAX_VARINT_BYTES * m), dtype=np.uint8)
    ends = np.flatnonzero(window < np.uint8(0x80))[:m]
    if ends.size < m:
        raise StorageError("truncated polyline")
    used = int(ends[-1]) + 1
    buf.seek(start + used)
    firsts = np.concatenate((_ZERO, ends[:-1] + 1))
    lengths = ends - firsts + 1
    longest = int(lengths.max())
    if longest > MAX_VARINT_BYTES:
        raise StorageError(f"varint longer than {MAX_VARINT_BYTES} bytes")
    group = np.arange(used, dtype=np.int64) - np.repeat(firsts, lengths)
    low = window[:used] & np.uint8(0x7F)
    if longest == MAX_VARINT_BYTES and np.any(
            low[group == MAX_VARINT_BYTES - 1] > np.uint8(1)):
        raise StorageError("varint overflows 64 bits")
    zigzag = np.bitwise_or.reduceat(
        low.astype(np.uint64) << _GROUP_SHIFTS.take(group), firsts)
    deltas = ((zigzag >> _U1).view(np.int64)
              ^ -(zigzag & _U1).view(np.int64))
    return np.cumsum(deltas.reshape(n, 2), axis=0, dtype=np.int64)


def _read_polyline(buf: BytesIO) -> Polyline:
    return Polyline(_read_quantised(buf).astype(float) * QUANTUM)


def _write_point(buf: BytesIO, position: np.ndarray) -> None:
    _write_svarint(buf, int(round(float(position[0]) / QUANTUM)))
    _write_svarint(buf, int(round(float(position[1]) / QUANTUM)))


def _read_point(buf: BytesIO) -> np.ndarray:
    return np.array([_read_svarint(buf), _read_svarint(buf)], dtype=float) * QUANTUM


def _write_id(buf: BytesIO, eid: Optional[ElementId],
              kinds: List[str]) -> None:
    if eid is None:
        _write_varint(buf, 0)
        return
    _write_varint(buf, kinds.index(eid.kind) + 1)
    _write_varint(buf, eid.num)


def _read_id(buf: BytesIO, kinds: List[str]) -> Optional[ElementId]:
    tag = _read_varint(buf)
    if tag == 0:
        return None
    return ElementId(kinds[tag - 1], _read_varint(buf))


def _write_id_list(buf: BytesIO, ids: Iterable[ElementId],
                   kinds: List[str]) -> None:
    ids = list(ids)
    _write_varint(buf, len(ids))
    for eid in ids:
        _write_id(buf, eid, kinds)


def _read_id_list(buf: BytesIO, kinds: List[str]) -> List[ElementId]:
    n = _read_count(buf)
    out = []
    for _ in range(n):
        eid = _read_id(buf, kinds)
        if eid is not None:
            out.append(eid)
    return out


def _write_f32(buf: BytesIO, value: float) -> None:
    buf.write(struct.pack("<f", value))


def _read_f32(buf: BytesIO) -> float:
    return float(struct.unpack("<f", buf.read(4))[0])


# ----------------------------------------------------------------------
# Element records
# ----------------------------------------------------------------------
_BOUNDARY_TYPES = list(BoundaryType)
_LANE_TYPES = list(LaneType)
_SIGN_TYPES = list(SignType)
_RULE_TYPES = list(RuleType)


def _encode_element(buf: BytesIO, element: MapElement, kinds: List[str],
                    polyline: bytes) -> None:
    """Write ``element``'s record; ``polyline`` is its polyline record
    from :func:`_polyline_records`."""
    tag = _TYPE_TAGS.get(type(element))
    if tag is None:
        raise StorageError(f"cannot encode {type(element).__name__}")
    buf.write(bytes([tag]))
    _write_id(buf, element.id, kinds)
    if isinstance(element, Node):
        _write_point(buf, element.position)
    elif isinstance(element, LaneBoundary):
        buf.write(bytes([_BOUNDARY_TYPES.index(element.boundary_type)]))
        _write_f32(buf, element.reflectivity)
        buf.write(polyline)
    elif isinstance(element, Lane):
        buf.write(bytes([_LANE_TYPES.index(element.lane_type)]))
        _write_f32(buf, element.width)
        _write_f32(buf, element.speed_limit)
        _write_id(buf, element.left_boundary, kinds)
        _write_id(buf, element.right_boundary, kinds)
        _write_id(buf, element.segment, kinds)
        buf.write(polyline)
    elif isinstance(element, RoadSegment):
        _write_id(buf, element.start_node, kinds)
        _write_id(buf, element.end_node, kinds)
        _write_id_list(buf, element.forward_lanes, kinds)
        _write_id_list(buf, element.backward_lanes, kinds)
        buf.write(polyline)
    elif isinstance(element, TrafficSign):
        buf.write(bytes([_SIGN_TYPES.index(element.sign_type)]))
        has_value = element.value is not None
        buf.write(bytes([1 if has_value else 0]))
        if has_value:
            _write_f32(buf, float(element.value))
        _write_f32(buf, element.facing)
        _write_f32(buf, element.height)
        _write_f32(buf, element.reflectivity)
        _write_point(buf, element.position)
    elif isinstance(element, TrafficLight):
        _write_f32(buf, element.facing)
        for part in element.cycle:
            _write_f32(buf, part)
        _write_f32(buf, element.phase_offset)
        _write_f32(buf, element.height)
        _write_point(buf, element.position)
    elif isinstance(element, (Pole, RoadMarking)):
        _write_f32(buf, element.height)
        _write_f32(buf, element.reflectivity)
        _write_point(buf, element.position)
        if isinstance(element, RoadMarking):
            raw = element.marking_type.encode()
            _write_varint(buf, len(raw))
            buf.write(raw)
    elif isinstance(element, Crosswalk):
        buf.write(polyline)
    elif isinstance(element, StopLine):
        buf.write(polyline)
    elif isinstance(element, RegulatoryElement):
        buf.write(bytes([_RULE_TYPES.index(element.rule_type)]))
        has_value = element.value is not None
        buf.write(bytes([1 if has_value else 0]))
        if has_value:
            _write_f32(buf, float(element.value))
        _write_id_list(buf, element.lanes, kinds)
        _write_id_list(buf, element.evidence, kinds)
        _write_id_list(buf, element.yields_to, kinds)


def _decode_element(buf: BytesIO, kinds: List[str]) -> MapElement:
    tag = buf.read(1)[0]
    element_type = _TAG_TYPES.get(tag)
    if element_type is None:
        raise StorageError(f"unknown element tag {tag}")
    eid = _read_id(buf, kinds)
    if eid is None:
        raise StorageError("element record with null id")
    if element_type is Node:
        return Node(id=eid, position=_read_point(buf))
    if element_type is LaneBoundary:
        btype = _BOUNDARY_TYPES[buf.read(1)[0]]
        refl = _read_f32(buf)
        return LaneBoundary(id=eid, line=_read_polyline(buf),
                            boundary_type=btype, reflectivity=refl)
    if element_type is Lane:
        ltype = _LANE_TYPES[buf.read(1)[0]]
        width = _read_f32(buf)
        limit = _read_f32(buf)
        left = _read_id(buf, kinds)
        right = _read_id(buf, kinds)
        segment = _read_id(buf, kinds)
        return Lane(id=eid, centerline=_read_polyline(buf),
                    left_boundary=left, right_boundary=right, width=width,
                    lane_type=ltype, speed_limit=limit, segment=segment)
    if element_type is RoadSegment:
        start = _read_id(buf, kinds)
        end = _read_id(buf, kinds)
        fwd = _read_id_list(buf, kinds)
        bwd = _read_id_list(buf, kinds)
        return RoadSegment(id=eid, start_node=start, end_node=end,
                           reference_line=_read_polyline(buf),
                           forward_lanes=fwd, backward_lanes=bwd)
    if element_type is TrafficSign:
        stype = _SIGN_TYPES[buf.read(1)[0]]
        value = _read_f32(buf) if buf.read(1)[0] else None
        facing = _read_f32(buf)
        height = _read_f32(buf)
        refl = _read_f32(buf)
        return TrafficSign(id=eid, position=_read_point(buf), sign_type=stype,
                           value=value, facing=facing, height=height,
                           reflectivity=refl)
    if element_type is TrafficLight:
        facing = _read_f32(buf)
        cycle = (_read_f32(buf), _read_f32(buf), _read_f32(buf))
        phase = _read_f32(buf)
        height = _read_f32(buf)
        return TrafficLight(id=eid, position=_read_point(buf), facing=facing,
                            cycle=cycle, phase_offset=phase, height=height)
    if element_type is Pole:
        height = _read_f32(buf)
        refl = _read_f32(buf)
        return Pole(id=eid, position=_read_point(buf), height=height,
                    reflectivity=refl)
    if element_type is RoadMarking:
        height = _read_f32(buf)
        refl = _read_f32(buf)
        position = _read_point(buf)
        marking_type = _read_str(buf)
        return RoadMarking(id=eid, position=position, reflectivity=refl,
                           marking_type=marking_type)
    if element_type is Crosswalk:
        return Crosswalk(id=eid, polygon=_read_polyline(buf).points.copy())
    if element_type is StopLine:
        return StopLine(id=eid, line=_read_polyline(buf))
    if element_type is RegulatoryElement:
        rtype = _RULE_TYPES[buf.read(1)[0]]
        value = _read_f32(buf) if buf.read(1)[0] else None
        lanes = _read_id_list(buf, kinds)
        evidence = _read_id_list(buf, kinds)
        yields_to = _read_id_list(buf, kinds)
        return RegulatoryElement(id=eid, rule_type=rtype, value=value,
                                 lanes=lanes, evidence=evidence,
                                 yields_to=yields_to)
    raise StorageError(f"unhandled element type {element_type.__name__}")


# ----------------------------------------------------------------------
# Whole-map codec
# ----------------------------------------------------------------------
def _referenced_ids(element: MapElement) -> List[Optional[ElementId]]:
    """All element ids this element refers to (cross-tile refs included)."""
    if isinstance(element, Lane):
        return [element.left_boundary, element.right_boundary,
                element.segment]
    if isinstance(element, RoadSegment):
        return ([element.start_node, element.end_node]
                + list(element.forward_lanes) + list(element.backward_lanes))
    if isinstance(element, RegulatoryElement):
        return list(element.lanes) + list(element.evidence) \
            + list(element.yields_to)
    return []


def encode_elements(name: str, version: int,
                    elements: Sequence[MapElement]) -> bytes:
    """HDMV bytes of a map called ``name`` at ``version`` holding exactly
    ``elements``, in that order.

    This is what :func:`encode_map` writes for such a map (whose
    ``elements()`` order is spatial elements in insertion order, then
    regulatory ones), without building an :class:`HDMap` and its spatial
    index only to encode it: :meth:`TileStore.build` and the cluster
    router encode per-tile and per-shard element lists this way.
    """
    kinds_set = {e.id.kind for e in elements}
    for element in elements:
        for ref in _referenced_ids(element):
            if ref is not None:
                kinds_set.add(ref.kind)
    kinds = sorted(kinds_set)
    body = BytesIO()
    name_raw = name.encode()
    _write_varint(body, len(name_raw))
    body.write(name_raw)
    _write_varint(body, version)
    _write_varint(body, len(kinds))
    for kind in kinds:
        raw = kind.encode()
        _write_varint(body, len(raw))
        body.write(raw)
    _write_varint(body, len(elements))
    for element, polyline in zip(elements, _polyline_records(elements)):
        _encode_element(body, element, kinds, polyline)
    payload = zlib.compress(body.getvalue(), level=9)
    header = MAGIC + struct.pack("<BI", VERSION, len(payload))
    return header + payload


def encode_map(hdmap: HDMap, simplify_tolerance: float = 0.0) -> bytes:
    """Encode a map to compact bytes.

    ``simplify_tolerance`` > 0 applies Douglas-Peucker to every polyline
    first — the lossy knob Li et al. turn to hit their 100 KB/mile.
    """
    elements = list(hdmap.elements())
    if simplify_tolerance > 0:
        elements = [_simplified(e, simplify_tolerance) for e in elements]
    return encode_elements(hdmap.name, hdmap.version, elements)


#: Everything a corrupt body can make the element decoders raise besides
#: :class:`StorageError`; the blob decoders report each as corrupt input.
CORRUPT_BODY_ERRORS = (struct.error, IndexError, UnicodeDecodeError,
                       ValueError, KeyError, OverflowError, GeometryError,
                       MapModelError)


def _checked_extent(element: MapElement) -> MapElement:
    """``element`` if its bounds are finite, not inverted and no side is
    longer than :data:`MAX_ELEMENT_EXTENT_M`; :class:`StorageError`
    otherwise (regulatory elements have no bounds and always pass)."""
    if isinstance(element, RegulatoryElement):
        return element
    min_x, min_y, max_x, max_y = element.bounds()
    if not (0.0 <= max_x - min_x <= MAX_ELEMENT_EXTENT_M
            and 0.0 <= max_y - min_y <= MAX_ELEMENT_EXTENT_M):
        raise StorageError(
            f"element {element.id} has implausible bounds "
            f"{(min_x, min_y, max_x, max_y)}")
    return element


def decode_map(data) -> HDMap:
    """Decode an HDMV blob (``bytes`` or any buffer, e.g. a zero-copy
    ``memoryview`` of a tile pack).

    Truncated, corrupt, or bad-magic input raises
    :class:`~repro.errors.StorageError` — raw ``struct.error`` /
    ``zlib.error`` / ``IndexError`` / ``OverflowError`` / geometry errors
    never escape, so callers can treat every undecodable blob uniformly.
    Declared counts are checked against the bytes left, and an element
    whose bounds could not come from a valid encode is rejected before
    it reaches the map's spatial index (:data:`MAX_ELEMENT_EXTENT_M`).
    """
    data = bytes(data)
    if len(data) < 9:
        raise StorageError("truncated HDMV header")
    if data[:4] != MAGIC:
        raise StorageError("bad magic; not an HDMV blob")
    version, length = struct.unpack("<BI", data[4:9])
    if version != VERSION:
        raise StorageError(f"unsupported binary version {version}")
    if len(data) < 9 + length:
        raise StorageError("truncated HDMV payload")
    try:
        body = BytesIO(zlib.decompress(data[9:9 + length]))
    except zlib.error as exc:
        raise StorageError(f"corrupt HDMV payload: {exc}") from exc
    try:
        name = _read_str(body)
        map_version = _read_varint(body)
        kinds = [_read_str(body) for _ in range(_read_count(body))]
        hdmap = HDMap(name)
        hdmap.version = map_version
        for _ in range(_read_count(body)):
            hdmap.add(_checked_extent(_decode_element(body, kinds)))
        return hdmap
    except StorageError:
        raise
    except CORRUPT_BODY_ERRORS as exc:
        raise StorageError(f"corrupt HDMV body: {exc}") from exc


def _simplified(element: MapElement, tolerance: float) -> MapElement:
    import copy

    clone = copy.copy(element)
    if isinstance(clone, LaneBoundary):
        clone.line = clone.line.simplify(tolerance)
    elif isinstance(clone, Lane):
        clone.centerline = clone.centerline.simplify(tolerance)
    elif isinstance(clone, RoadSegment):
        clone.reference_line = clone.reference_line.simplify(tolerance)
    elif isinstance(clone, StopLine):
        clone.line = clone.line.simplify(tolerance)
    return clone
