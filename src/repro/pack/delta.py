"""Binary delta wire format for incremental sync.

``ChangesSince`` historically shipped a pickled
:class:`~repro.update.distribution.SyncDelta` — full Python objects,
numpy float64 geometry and all. This codec packs the same payload the
way :mod:`repro.storage.binary` packs tiles: a kind table, varint
change records (type tag, id, zigzag-quantized position, detail), and
compact element records for the touched elements only, zlib-compressed.
The wire cost of a sync becomes proportional to what actually changed,
at a fraction of the pickled size.

Framing mirrors the HDMV tile blob: ``HDDL`` magic, format version,
payload length, compressed body. :func:`decode_delta` raises
:class:`~repro.errors.StorageError` on any truncated or corrupt input —
``struct.error``/``zlib.error`` never escape.
"""

from __future__ import annotations

import struct
import zlib
from io import BytesIO
from typing import Dict, List, Optional

from repro.core.changes import ChangeType, MapChange
from repro.core.ids import ElementId
from repro.errors import StorageError
from repro.update.distribution import SyncDelta

DELTA_MAGIC = b"HDDL"
DELTA_VERSION = 1

_CHANGE_TAGS = {
    ChangeType.ADDED: 0,
    ChangeType.REMOVED: 1,
    ChangeType.MOVED: 2,
    ChangeType.MODIFIED: 3,
}
_TAG_CHANGES = {v: k for k, v in _CHANGE_TAGS.items()}


def _collect_kinds(delta: SyncDelta) -> List[str]:
    from repro.storage.binary import _referenced_ids

    kinds = {change.element_id.kind for change in delta.changes}
    kinds.update(eid.kind for eid in delta.elements)
    for element in delta.elements.values():
        if element is None:
            continue
        kinds.add(element.id.kind)
        for ref in _referenced_ids(element):
            if ref is not None:
                kinds.add(ref.kind)
    return sorted(kinds)


def encode_delta(delta: SyncDelta) -> bytes:
    """Pack one :class:`SyncDelta` into compact wire bytes."""
    from repro.storage.binary import (
        QUANTUM,
        _encode_element,
        _polyline_records,
        _write_f32,
        _write_id,
        _write_svarint,
        _write_varint,
    )

    kinds = _collect_kinds(delta)
    body = BytesIO()
    _write_varint(body, delta.version)
    _write_varint(body, len(kinds))
    for kind in kinds:
        raw = kind.encode()
        _write_varint(body, len(raw))
        body.write(raw)
    _write_varint(body, len(delta.changes))
    for change in delta.changes:
        body.write(bytes([_CHANGE_TAGS[change.change_type]]))
        _write_id(body, change.element_id, kinds)
        _write_svarint(body, int(round(change.position[0] / QUANTUM)))
        _write_svarint(body, int(round(change.position[1] / QUANTUM)))
        if change.change_type is ChangeType.MOVED:
            _write_f32(body, float(change.magnitude))
        raw = change.detail.encode()
        _write_varint(body, len(raw))
        body.write(raw)
    _write_varint(body, len(delta.elements))
    present = [e for e in delta.elements.values() if e is not None]
    polylines = iter(_polyline_records(present))
    for eid, element in delta.elements.items():
        _write_id(body, eid, kinds)
        if element is None:
            body.write(b"\x00")  # removed: id only, no payload
        else:
            body.write(b"\x01")
            _encode_element(body, element, kinds, next(polylines))
    payload = zlib.compress(body.getvalue(), level=6)
    return DELTA_MAGIC + struct.pack("<BI", DELTA_VERSION, len(payload)) \
        + payload


def decode_delta(data) -> SyncDelta:
    """Inverse of :func:`encode_delta`; :class:`StorageError` on any
    truncated, corrupt, or bad-magic input."""
    from repro.storage.binary import (
        CORRUPT_BODY_ERRORS,
        QUANTUM,
        _checked_extent,
        _decode_element,
        _read_count,
        _read_f32,
        _read_id,
        _read_str,
        _read_svarint,
        _read_varint,
    )

    data = bytes(data)
    if len(data) < 9:
        raise StorageError("truncated HDDL header")
    if data[:4] != DELTA_MAGIC:
        raise StorageError("bad magic; not an HDDL delta")
    version, length = struct.unpack("<BI", data[4:9])
    if version != DELTA_VERSION:
        raise StorageError(f"unsupported delta version {version}")
    if len(data) < 9 + length:
        raise StorageError("truncated HDDL payload")
    try:
        body = BytesIO(zlib.decompress(data[9:9 + length]))
    except zlib.error as exc:
        raise StorageError(f"corrupt HDDL payload: {exc}") from exc
    try:
        map_version = _read_varint(body)
        kinds = [_read_str(body) for _ in range(_read_count(body))]
        changes: List[MapChange] = []
        for _ in range(_read_count(body)):
            raw_tag = body.read(1)
            if not raw_tag:
                raise StorageError("truncated change record")
            tag = raw_tag[0]
            change_type = _TAG_CHANGES.get(tag)
            if change_type is None:
                raise StorageError(f"unknown change tag {tag}")
            eid = _read_id(body, kinds)
            if eid is None:
                raise StorageError("change record with null element id")
            x = _read_svarint(body) * QUANTUM
            y = _read_svarint(body) * QUANTUM
            magnitude = _read_f32(body) \
                if change_type is ChangeType.MOVED else 0.0
            detail = _read_str(body)
            changes.append(MapChange(change_type, eid, (x, y),
                                     magnitude=magnitude, detail=detail))
        elements: Dict[ElementId, Optional[object]] = {}
        for _ in range(_read_count(body)):
            eid = _read_id(body, kinds)
            if eid is None:
                raise StorageError("element record with null id")
            flag = body.read(1)
            if not flag:
                raise StorageError("truncated element presence flag")
            elements[eid] = _checked_extent(_decode_element(body, kinds)) \
                if flag[0] else None
        return SyncDelta(map_version, changes, elements)
    except StorageError:
        raise
    except CORRUPT_BODY_ERRORS as exc:
        raise StorageError(f"corrupt HDDL body: {exc}") from exc
