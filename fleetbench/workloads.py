"""Workload shapes, seeded input generation and output checks.

Every input is derived from the seed before any timer starts: the grid
city (``generate_grid_city``), the vehicle trajectories
(``drive_route``), the tile request streams and the crowd-sourced sign
patches. The program under test only ever receives these inputs.

The expected outputs come from code paths independent of the cluster:
GetTile payloads must equal the blob ``TileStore.build`` produces for
the tile, and SpatialQuery answers must equal ``elements_in_radius`` on
the codec round-tripped map (the cluster serves decoded tiles, and the
binary codec rounds segment bounds, so the generator's own map is not
the right reference).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

import numpy as np

from repro.core.elements import SignType, TrafficSign
from repro.core.hdmap import HDMap
from repro.core.ids import ElementId
from repro.core.tiles import TileId, TileScheme
from repro.core.versioning import MapPatch
from repro.storage.binary import decode_map, encode_map
from repro.storage.tilestore import TileStore
from repro.world import generate_grid_city
from repro.world.traffic import drive_route

#: client threads driving the closed loop (sized for a 2-core host)
THREADS = 2
#: shards behind the router
SHARDS = 2
#: SpatialQuery radius around a vehicle's pose, metres
QUERY_RADIUS_M = 60.0
#: Zipf exponent of tile popularity on ``tile_fetch``
ZIPF_S = 1.1
#: encoded GetTiles a ``fleet_sync`` vehicle issues per step
SYNC_STEP_TILES = 3
#: share of ``fleet_sync`` patches that carry two signs (and so may span
#: both shards); the rest carry one
TWO_SIGN_SHARE = 1.0 / 3.0
#: ``fleet_sync`` steps per thread per ``--seconds``: the workload is
#: defined by its operation count, so a faster commit does not build a
#: longer change history (``changes_since`` scans the whole changelog)
SYNC_STEPS_PER_SECOND = 80
#: first id of the signs the fleet reports (far above generated ids)
SIGN_ID_BASE = 50_000_000
#: tile request stream length per thread (wraps around)
STREAM_LEN = 1 << 16


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload; the same for every seed."""

    blocks: int          # grid-city blocks per side (200 m each)
    tile_size: float     # metres
    replicas: int        # replicas per shard
    vehicles: int = 0    # simulated vehicles (fleet_query)
    route_m: float = 0.0  # route length per vehicle, metres
    warmup_steps: int = 0  # untimed closed-loop steps per thread
    probes: int = 128    # probe queries/patches for the per-layer ladder


SHAPES: Dict[str, Shape] = {
    # ~100 tiles, skewed popularity; pack-backed encoded GetTile is
    # zero-copy, so nearly all time is router + RPC + shard + MapService.
    "tile_fetch": Shape(blocks=4, tile_size=100.0, replicas=0,
                        warmup_steps=400),
    # 484 tiles = 242 per shard against 128 cached tiles per shard, so
    # spread-out vehicles keep evicting and re-decoding tiles. With 16
    # vehicles most misses are tiles a vehicle drives into; 48 vehicles
    # add capacity misses whose count swings from run to run.
    "fleet_query": Shape(blocks=10, tile_size=100.0, replicas=0,
                         vehicles=16, route_m=6000.0, warmup_steps=200),
    # writes beside reads with one replica per shard.
    "fleet_sync": Shape(blocks=6, tile_size=100.0, replicas=1,
                        warmup_steps=10),
}

#: reduced sizes for the benchmark's own test
SMALL_SHAPES: Dict[str, Shape] = {
    "tile_fetch": Shape(blocks=2, tile_size=100.0, replicas=0,
                        warmup_steps=20, probes=16),
    "fleet_query": Shape(blocks=3, tile_size=100.0, replicas=0,
                         vehicles=6, route_m=600.0, warmup_steps=10,
                         probes=16),
    "fleet_sync": Shape(blocks=3, tile_size=100.0, replicas=1,
                        warmup_steps=2, probes=16),
}

WORKLOADS = tuple(SHAPES)


@dataclass
class Inputs:
    """Everything one run feeds the program, built from the seed."""

    workload: str
    seed: int
    shape: Shape
    world: HDMap
    #: expected GetTile payload per tile (``TileStore.build`` blobs)
    blobs: Dict[TileId, bytes]
    #: per-thread tile request streams (tile_fetch: Zipf; fleet_sync:
    #: uniform; fleet_query: unused)
    streams: List[List[TileId]]
    #: per-vehicle query positions, one row per step (fleet_query)
    poses: List[np.ndarray]
    #: per-thread patch sequences (fleet_sync: one per step)
    patches: List[List[MapPatch]]
    #: query positions and one-sign patches for the per-layer ladder
    probe_points: np.ndarray
    probe_patches: List[MapPatch]
    #: fleet_sync steps per thread in the measured phase
    sync_steps: int = 0
    _roundtrip: Optional[HDMap] = field(default=None, repr=False)

    @property
    def tiles(self) -> List[TileId]:
        return sorted(self.blobs)

    def query_points(self) -> np.ndarray:
        """The workload's SpatialQuery positions (its vehicles' poses on
        fleet_query, probe positions elsewhere)."""
        if self.poses:
            return np.concatenate(self.poses)
        return self.probe_points

    def ladder_patches(self) -> List[MapPatch]:
        """The workload's patches in issue order, or probe patches."""
        if any(self.patches):
            return [p for thread in self.patches for p in thread]
        return self.probe_patches

    def expected_ids(self, x: float, y: float) -> FrozenSet[ElementId]:
        """Reference SpatialQuery answer on the round-tripped map."""
        if self._roundtrip is None:
            self._roundtrip = decode_map(encode_map(self.world))
        return frozenset(e.id for e in self._roundtrip.elements_in_radius(
            x, y, QUERY_RADIUS_M))


def _lane_points(world: HDMap, rng: np.random.Generator, n: int,
                 side_m: float) -> np.ndarray:
    """``n`` positions ``side_m`` to the right of random lane centrelines."""
    lanes = sorted(world.lanes(), key=lambda lane: lane.id)
    out = np.empty((n, 2))
    for i in range(n):
        lane = lanes[int(rng.integers(len(lanes)))]
        s = float(rng.uniform(0.0, lane.centerline.length))
        out[i] = (lane.centerline.point_at(s)
                  - side_m * lane.centerline.normal_at(s))
    return out


class _SignPatches:
    """Sign patches with fresh ids, positioned beside real lanes."""

    def __init__(self, world: HDMap, rng: np.random.Generator,
                 source: str) -> None:
        self._world = world
        self._rng = rng
        self._source = source
        self._next = SIGN_ID_BASE

    def make(self, n_signs: int) -> MapPatch:
        patch = MapPatch(source=self._source, confidence=0.9)
        for x, y in _lane_points(self._world, self._rng, n_signs, 4.0):
            patch.add(TrafficSign(
                id=ElementId("sign", self._next),
                position=np.array([x, y]),
                sign_type=SignType.SPEED_LIMIT, value=13.89,
                facing=float(self._rng.uniform(-np.pi, np.pi))))
            self._next += 1
        return patch


def build_inputs(workload: str, seed: int, seconds: float,
                 small: bool = False) -> Inputs:
    """Generate every input of one run from ``seed``."""
    shape = (SMALL_SHAPES if small else SHAPES)[workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    world = generate_grid_city(rng, shape.blocks, shape.blocks)
    # The reference payloads are ``TileStore.build``'s own blobs, which
    # the store keeps only in its private dict.
    blobs = dict(TileStore.build(world, shape.tile_size)._blobs)
    tiles = sorted(blobs)

    streams: List[List[TileId]] = [[] for _ in range(THREADS)]
    poses: List[np.ndarray] = []
    patches: List[List[MapPatch]] = [[] for _ in range(THREADS)]
    signs = _SignPatches(world, rng, f"fleetbench-{workload}")
    sync_steps = 0
    if workload == "tile_fetch":
        popularity = [tiles[i] for i in rng.permutation(len(tiles))]
        weights = 1.0 / np.arange(1, len(tiles) + 1) ** ZIPF_S
        weights /= weights.sum()
        for t in range(THREADS):
            picks = rng.choice(len(tiles), size=STREAM_LEN, p=weights)
            streams[t] = [popularity[i] for i in picks]
    elif workload == "fleet_query":
        lanes = sorted(world.lanes(), key=lambda lane: lane.id)
        for _ in range(shape.vehicles):
            start = lanes[int(rng.integers(len(lanes)))].id
            route = drive_route(world, start, shape.route_m, rng, dt=1.0)
            poses.append(route.positions())
    elif workload == "fleet_sync":
        sync_steps = max(1, int(round(seconds * SYNC_STEPS_PER_SECOND)))
        steps = shape.warmup_steps + sync_steps
        for t in range(THREADS):
            picks = rng.integers(len(tiles), size=steps * SYNC_STEP_TILES)
            streams[t] = [tiles[i] for i in picks]
            patches[t] = [signs.make(2 if rng.uniform() < TWO_SIGN_SHARE
                                     else 1) for _ in range(steps)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    probe_points = _lane_points(world, rng, shape.probes, 0.0)
    probe_patches = [signs.make(1) for _ in range(shape.probes)]
    return Inputs(workload, seed, shape, world, blobs, streams, poses,
                  patches, probe_points, probe_patches, sync_steps)


def tiles_per_shard(inputs: Inputs, owner) -> List[int]:
    """Blob-backed tiles each shard owns, given ``owner(tile) -> shard``."""
    counts = [0] * SHARDS
    for tile in inputs.blobs:
        counts[owner(tile)] += 1
    return counts


def patch_owners(patch: MapPatch, scheme: TileScheme, owner) -> Set[int]:
    """Shards a sign patch touches (signs are homed by position)."""
    return {owner(scheme.tile_of(*op.element.position)) for op in patch.ops}
