"""S8 — Concurrent read path: replica scaling, scatter-gather, coalescing.

The paper's distribution tier serves a fleet whose read load dwarfs its
write load: base-map tiles are fetched continuously while change-feed
publishes trickle. The cluster read path is concurrent end to end, and
this bench certifies each layer's speedup on the synthetic substrate
(:func:`repro.bench.read_path`):

- **replica read scaling** — round-robining ``GetTile`` across primary
  + 1 replica per shard (with the version-floor staleness guard) must
  clear 2x a replica-less router read in lockstep (one request in
  flight per shard) at the same shard count;
- **pipelined scatter-gather** — a ``ChangesSince`` broadcast across 6
  slow shards issued concurrently must beat the serial floor (6 x the
  service latency, which no per-shard walk can undercut) by >= 3x
  (ideal: 6x, one service sleep instead of six), returning one delta
  per shard;
- **single-flight coalescing** — a burst of identical concurrent
  ``GetTile`` requests collapses onto one shard read with responses
  byte-identical to a fresh uncoalesced read (zero divergence), so a
  thundering herd on a hot tile costs one backend fetch.
"""

from functools import partial

import numpy as np
from conftest import once

from repro.bench import read_path
from repro.cluster import ClusterRouter
from repro.world import generate_grid_city

_SEED = 7


def test_s08_readpath(benchmark):
    city = generate_grid_city(np.random.default_rng(_SEED), 3, 2,
                              block_size=150.0)
    make_router = partial(ClusterRouter, city, tile_size=120.0,
                          transport="process", n_workers=2)
    table = once(benchmark, read_path, make_router, 320, 16,
                 service_latency_s=0.02, broadcasts=8,
                 min_replica_speedup=2.0, min_scatter_speedup=3.0)
    table.experiment_id = "S8"
    table.print()
    assert table.all_ok()
