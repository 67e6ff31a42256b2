"""S6 — Cluster: sharded serving scales reads and survives shard loss.

The source paper's ecosystem serves HD maps to fleets at a scale no
single node reaches: map distribution is regional and redundant, and
tile ownership moves as capacity grows. This bench exercises
:mod:`repro.cluster` end-to-end on the synthetic substrate:

- **throughput scaling** — aggregate ``GetTile`` throughput at 2 shards
  must clear 1.5x the single-shard run (:func:`repro.bench.shard_sweep`).
  The clients read in lockstep (a per-shard lock held around each
  request: one outstanding call per shard, no replicas, no coalescing),
  so N shards admit exactly N concurrent simulated service sleeps and
  the sweep isolates routing-tier scaling even on one core. The
  concurrent read path's own speedups (replica round-robin, pipelined
  scatter-gather, single-flight coalescing) are gated separately in
  ``bench_s08_readpath.py``;
- **failover** — killing a shard mid-read must be absorbed by a replica
  or a journal restart, never surfaced to the caller;
- **chaos certification** — the ``shard`` fault class (crash, slow
  shard, rebalance mid-stream) certifies the same five degradation
  invariants as the single-node matrix (the constraint scan runs over
  the *merged* served state), and the faults-disabled cluster run is
  byte-identical to a plain single-node service run
  (:func:`repro.bench.chaos_matrix`).
"""

from functools import partial

import numpy as np
from conftest import once

from repro.bench import chaos_matrix, shard_sweep
from repro.chaos import ClusterWorkload
from repro.cluster import ClusterRouter
from repro.world import generate_grid_city

_SEED = 7


def _experiment(city):
    make_router = partial(ClusterRouter, city, tile_size=120.0,
                          transport="process", n_workers=2,
                          service_latency_s=0.02)
    sweep = shard_sweep(make_router, (1, 2), 240, 4, lockstep=True,
                        min_scaling=1.5)
    chaos = chaos_matrix(city, {"shard"}, seed=_SEED,
                         cluster_workload=ClusterWorkload(seed=_SEED))
    sweep.rows += chaos.rows
    return sweep


def test_s06_cluster(benchmark):
    city = generate_grid_city(np.random.default_rng(_SEED), 3, 2,
                              block_size=150.0)
    table = once(benchmark, _experiment, city)
    table.experiment_id = "S6"
    table.print()
    assert table.all_ok()
