"""Per-layer numbers: the rung ladder and the traced run's counters.

Each rung times one layer's public entry point, called from here, over
the run's own generated inputs, one layer further down at a time:
``ClusterRouter`` over the local transport, ``ShardBackend.dispatch``,
one RPC frame round trip, ``MapService``, ``ShardedTileCache``, the pack
reader, the binary codec, ``HDMap``, ``MapDistributionServer`` and
``ConstraintEngine``. A rung reports the median of its calls in
microseconds; every call is also recorded as a span.

Rungs for a request kind the workload does not issue (SpatialQuery on
``tile_fetch``, IngestPatch on the read workloads) use probe inputs
drawn from the same seeded world, so every metric exists on every
workload; ``CATALOGUE`` says which workload each one should move.
"""

from __future__ import annotations

import os
import socket
import time
from itertools import cycle
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from repro.cluster import ClusterMapClient, ClusterRouter, ShardBackend, \
    ShardConfig
from repro.cluster.rpc import recv_frame, send_frame, send_raw_response
from repro.core.hdmap import HDMap
from repro.core.tiles import TileScheme, consistent_hash_owner
from repro.core.validation import ConstraintEngine
from repro.pack import PackReader, encode_delta
from repro.serve.api import GetTile, IngestPatch, Response, SpatialQuery, \
    Status
from repro.serve.service import MapService
from repro.storage.binary import decode_map, encode_map
from repro.storage.tilestore import TileStore
from repro.update.distribution import MapDistributionServer

from fleetbench.fleet import SpanLog, ns
from fleetbench.workloads import QUERY_RADIUS_M, SHARDS, THREADS, Inputs

#: (metric, unit, better, the end-to-end metrics and workload it moves).
#: ``fleet.cpu_us_per_op`` is at reference host speed; the other
#: ``fleet.*`` figures are the traced loop's raw wall clock.
CATALOGUE: List[Tuple[str, str, str, str]] = [
    ("fleet.cpu_us_per_op", "us", "lower",
     "end to end @ every workload (at reference host speed)"),
    ("fleet.ops_per_s", "ops/s", "higher", "end to end @ every workload"),
    ("fleet.read_p50_us", "us", "lower", "end to end @ every workload"),
    ("fleet.read_p99_us", "us", "lower", "end to end @ every workload"),
    ("fleet.step_p50_us", "us", "lower",
     "fleet.ops_per_s @ every workload (a step: one read, or on "
     "fleet_sync ingest + sync + 3 GetTiles)"),
    ("fleet.step_p99_us", "us", "lower",
     "fleet.ops_per_s @ every workload"),
    ("fleet.ingest_p50_us", "us", "lower",
     "fleet.cpu_us_per_op, fleet.ops_per_s @ fleet_sync (0 elsewhere)"),
    ("fleet.sync_p50_us", "us", "lower",
     "fleet.cpu_us_per_op, fleet.ops_per_s @ fleet_sync (0 elsewhere)"),
    ("cluster.router_gettile_us", "us", "lower",
     "fleet.cpu_us_per_op, fleet.read_p50_us @ tile_fetch"),
    ("cluster.shard_gettile_us", "us", "lower",
     "fleet.cpu_us_per_op, fleet.read_p50_us @ tile_fetch"),
    ("cluster.rpc_frame_us", "us", "lower",
     "fleet.cpu_us_per_op, fleet.read_p50_us @ tile_fetch"),
    ("cluster.router_spatial_us", "us", "lower",
     "fleet.cpu_us_per_op, fleet.read_p50_us @ fleet_query"),
    ("cluster.router_ingest_us", "us", "lower",
     "fleet.cpu_us_per_op, fleet.ops_per_s @ fleet_sync"),
    ("cluster.changes_since_us", "us", "lower",
     "fleet.cpu_us_per_op, fleet.ops_per_s @ fleet_sync"),
    ("cluster.apply_delta_us", "us", "lower",
     "fleet.cpu_us_per_op, fleet.ops_per_s @ fleet_sync"),
    ("cluster.scatter_fanout", "shards", "lower",
     "fleet.cpu_us_per_op, fleet.read_p50_us @ fleet_query"),
    ("cluster.coalesced_ratio", "ratio", "higher",
     "fleet.cpu_us_per_op, fleet.read_p99_us @ tile_fetch (~0 @ fleet_sync)"),
    ("cluster.replica_read_ratio", "ratio", "higher",
     "fleet.ops_per_s @ fleet_sync"),
    ("cluster.replica_lag_ratio", "ratio", "lower",
     "fleet.cpu_us_per_op, fleet.read_p99_us, fleet.step_p99_us @ fleet_sync"),
    ("cluster.inflight_peak", "count", "higher",
     "fleet.ops_per_s @ every workload"),
    ("cluster.journal_entries", "count", "lower",
     "cluster.restart_s (no steady-state metric)"),
    ("cluster.restart_s", "s", "lower",
     "no steady-state metric (journal replay on restart)"),
    ("cluster.shard_cpu_us_per_op", "us", "lower",
     "fleet.cpu_us_per_op @ every workload"),
    ("serve.gettile_us", "us", "lower",
     "fleet.cpu_us_per_op, fleet.read_p50_us @ tile_fetch"),
    ("serve.spatial_us", "us", "lower",
     "fleet.cpu_us_per_op, fleet.read_p50_us @ fleet_query"),
    ("serve.ingest_us", "us", "lower",
     "fleet.cpu_us_per_op, fleet.ops_per_s @ fleet_sync"),
    ("serve.cache_get_us", "us", "lower",
     "fleet.cpu_us_per_op, fleet.read_p50_us @ fleet_query"),
    ("serve.cache_hit_ratio", "ratio", "higher",
     "fleet.cpu_us_per_op, fleet.read_p99_us @ fleet_query"),
    ("serve.cache_evictions", "count", "lower",
     "fleet.cpu_us_per_op, fleet.read_p99_us @ fleet_query"),
    ("serve.shed_rejected", "count", "lower",
     "failed operations @ every workload (should stay 0)"),
    ("storage.decode_us", "us", "lower",
     "fleet.cpu_us_per_op, fleet.read_p99_us @ fleet_query (not tile_fetch)"),
    ("storage.build_s", "s", "lower", "setup_s @ every workload"),
    ("pack.get_us", "us", "lower",
     "fleet.read_p50_us @ tile_fetch (~1% share)"),
    ("pack.load_us", "us", "lower",
     "fleet.cpu_us_per_op, fleet.read_p99_us @ fleet_query"),
    ("pack.encode_delta_us", "us", "lower",
     "fleet.ops_per_s @ fleet_sync, only once the binary delta is on "
     "the cluster feed"),
    ("core.radius_query_us", "us", "lower",
     "fleet.cpu_us_per_op, fleet.read_p50_us @ fleet_query"),
    ("core.changelog_entries", "count", "lower",
     "fleet.cpu_us_per_op, fleet.ops_per_s @ fleet_sync"),
    ("update.delta_us", "us", "lower",
     "fleet.cpu_us_per_op, fleet.ops_per_s @ fleet_sync"),
    ("update.ingest_us", "us", "lower",
     "fleet.cpu_us_per_op, fleet.ops_per_s @ fleet_sync"),
    ("validation.check_patch_us", "us", "lower",
     "fleet.cpu_us_per_op, fleet.ops_per_s @ fleet_sync once the gate covers "
     "every write path"),
    ("bench.client_cpu_us_per_op", "us", "lower",
     "fleet.cpu_us_per_op @ every workload"),
    ("bench.trace_overhead_ratio", "ratio", "lower",
     "traced step p50 / untraced step p50 - 1"),
]


class Ladder:
    """Times the rungs of one workload; results land in ``values``."""

    def __init__(self, inputs: Inputs, workdir: str, spans: SpanLog,
                 budget_s: float = 0.25, max_calls: int = 2000) -> None:
        self.inputs = inputs
        self.workdir = workdir
        self.spans = spans
        self.budget_ns = int(budget_s * 1e9)
        self.max_calls = max_calls
        self.values: Dict[str, float] = {}
        scheme = TileScheme(inputs.shape.tile_size)
        self.scheme = scheme
        self.points = [tuple(p) for p in inputs.query_points()]
        if inputs.streams[0]:
            tiles = [t for s in inputs.streams for t in s[:max_calls]]
        else:
            tiles = [scheme.tile_of(x, y) for x, y in self.points]
        self.tiles = [t for t in tiles if t in inputs.blobs]
        self.patches = inputs.ladder_patches()

    # -- timing -----------------------------------------------------------
    def time(self, name: str, fn: Callable, items: Iterable,
             once: bool = False) -> float:
        """Median µs of ``fn(item)``; cycles ``items`` until the time
        budget and at least 20 calls are spent, or runs each item once."""
        spans = self.spans
        parent = spans.new_id()
        lat: List[int] = []
        start = ns()
        source = items if once else cycle(items)
        for item in source:
            t0 = ns()
            fn(item)
            t1 = ns()
            spans.add(name, t0, t1, parent)
            lat.append(t1 - t0)
            if not once and (len(lat) >= self.max_calls or (
                    t1 - start >= self.budget_ns and len(lat) >= 20)):
                break
        spans.add(f"rung.{name}", start, ns(), span_id=parent)
        value = float(np.median(lat)) / 1e3
        self.values[name] = value
        return value

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    # -- rungs --------------------------------------------------------------
    def run(self) -> Dict[str, float]:
        inputs = self.inputs
        t0 = time.perf_counter()
        store = TileStore.build(inputs.world, inputs.shape.tile_size)
        store.to_pack(self._path("ladder.pack"))
        self.values["storage.build_s"] = time.perf_counter() - t0
        self._storage()
        self._core()
        self._rpc()
        self._shard()
        self._service()
        self._router()
        self._update()
        return self.values

    def _storage(self) -> None:
        blobs = self.inputs.blobs
        reader = PackReader(self._path("ladder.pack"))
        try:
            self.time("pack.get_us", reader.get, self.tiles)
            self.time("pack.load_us", reader.load, self.tiles)
        finally:
            reader.close()
        self.time("storage.decode_us", lambda t: decode_map(blobs[t]),
                  self.tiles)

    def _core(self) -> None:
        decoded: Dict[object, HDMap] = {}
        calls = []
        for x, y in self.points:
            tile = self.scheme.tile_of(x, y)
            if tile in self.inputs.blobs:
                if tile not in decoded:
                    decoded[tile] = decode_map(self.inputs.blobs[tile])
                calls.append((decoded[tile], x, y))
        self.time("core.radius_query_us",
                  lambda c: c[0].elements_in_radius(c[1], c[2],
                                                    QUERY_RADIUS_M), calls)
        engine = ConstraintEngine()
        world = self.inputs.world
        self.time("validation.check_patch_us",
                  lambda p: engine.check_patch(world, p), self.patches)

    def _rpc(self) -> None:
        blobs = self.inputs.blobs
        a, b = socket.socketpair()
        try:
            def round_trip(tile) -> None:
                send_frame(a, 1, ("serve", GetTile(tile, encoded=True)))
                request_id, (_op, request) = recv_frame(b)
                send_raw_response(b, request_id,
                                  Response(Status.OK, blobs[tile], 0))
                recv_frame(a)
            self.time("cluster.rpc_frame_us", round_trip, self.tiles)
        finally:
            a.close()
            b.close()

    def _shard(self) -> None:
        inputs = self.inputs
        owned = [t for t in inputs.tiles if _owner(t) == 0]
        base = HDMap("fleetbench-shard0")
        for tile, elements in self.scheme.partition(inputs.world).items():
            if _owner(tile) == 0:
                for element in elements:
                    base.add(element)
        backend = ShardBackend(ShardConfig(
            index=0, tile_size=inputs.shape.tile_size,
            base_map_bytes=encode_map(base),
            pack_path=self._path("ladder.pack"), owned_tiles=owned)).start()
        try:
            self.time("cluster.shard_gettile_us",
                      lambda t: backend.dispatch(
                          "serve", GetTile(t, encoded=True)),
                      [t for t in self.tiles if _owner(t) == 0] or owned)
        finally:
            backend.stop()

    def _service(self) -> None:
        inputs = self.inputs
        service = MapService(
            MapDistributionServer(inputs.world.copy()),
            TileStore.from_pack(self._path("ladder.pack")),
            n_workers=2).start()
        try:
            self.time("serve.gettile_us",
                      lambda t: service.request(GetTile(t, encoded=True)),
                      self.tiles)
            self.time("serve.spatial_us",
                      lambda p: service.request(
                          SpatialQuery(p[0], p[1], QUERY_RADIUS_M)),
                      self.points)
            warm = sorted(set(self.tiles))[:8]
            for tile in warm:
                service.cache.get(tile)
            self.time("serve.cache_get_us", service.cache.get, warm)
            self.time("serve.ingest_us",
                      lambda p: service.request(IngestPatch(p)),
                      self.patches, once=True)
        finally:
            service.stop()

    def _router(self) -> None:
        inputs = self.inputs
        router = ClusterRouter(
            inputs.world, n_shards=SHARDS, tile_size=inputs.shape.tile_size,
            replicas=inputs.shape.replicas, transport="local", n_workers=2,
            service_latency_s=0.0, storage_latency_s=0.0,
            pack_path=self._path("local.pack"))
        try:
            self.time("cluster.router_gettile_us",
                      lambda t: router.request(GetTile(t, encoded=True)),
                      self.tiles)
            self.time("cluster.router_spatial_us",
                      lambda p: router.request(
                          SpatialQuery(p[0], p[1], QUERY_RADIUS_M)),
                      self.points)
            vectors = []

            def ingest(patch) -> None:
                router.request(IngestPatch(patch))
                vectors.append(router.version_vector())
            self.time("cluster.router_ingest_us", ingest, self.patches,
                      once=True)
            # a vehicle's sync lags by about one patch per client thread
            since = vectors[max(0, len(vectors) - 1 - THREADS)]
            self.time("cluster.changes_since_us",
                      lambda v: router.changes_since(v), [since])
            client = ClusterMapClient(router)
            delta = router.changes_since(since)

            def apply(d) -> None:
                client.vector = dict(since)
                client.apply_delta(d)
            self.time("cluster.apply_delta_us", apply, [delta])
        finally:
            router.close()

    def _update(self) -> None:
        server = MapDistributionServer(self.inputs.world.copy())
        self.time("update.ingest_us", server.ingest, self.patches,
                  once=True)
        since = max(0, server.version - THREADS)
        self.time("update.delta_us", server.delta_since, [since])
        delta = server.delta_since(since)
        self.time("pack.encode_delta_us", encode_delta, [delta])


def _owner(tile) -> int:
    return consistent_hash_owner(tile, SHARDS)
