"""S9 — Cluster telemetry plane: cheap sampling, faithful merged trees.

The tracing layer's cost model (bench S4) holds on a single node; this
bench certifies the *distributed* claims from ``repro.cluster`` through
:func:`repro.bench.cluster_trace`:

- **overhead** — sampled tracing on the cluster read path (trace
  context pickled into every RPC envelope, router-side ``cluster.rpc``
  spans, a live background :class:`TelemetryHarvester`) must not
  meaningfully move median read-round latency. Rounds are interleaved
  traced/untraced so machine drift hits both modes equally; the gate is
  deliberately loose (local transport, tiny rounds amplify noise) —
  the tight 5% gate runs against the process transport in
  ``cluster-bench --trace-sample-rate`` under CI;
- **no read errors** — every read of every round succeeds;
- **reconstruction** — after a harvest, one guaranteed-sampled
  ``GetTile`` must reconstruct as a single verify-clean span tree whose
  parent chain crosses the transport: ``cluster.request.GetTile ->
  cluster.rpc.serve -> shard.serve -> serve.request.GetTile``.
"""

from functools import partial

from conftest import once

from repro.bench import cluster_trace
from repro.cluster import ClusterRouter
from repro.world import generate_grid_city


def test_s09_cluster_tracing(benchmark, rng):
    world = generate_grid_city(rng, blocks_x=3, blocks_y=2,
                               block_size=150.0)
    make_router = partial(ClusterRouter, world, n_shards=2, tile_size=250.0,
                          transport="local", service_latency_s=0.002)
    # loose local-transport overhead gate; CI gates 5% (process)
    table = once(benchmark, cluster_trace, make_router, sample_rate=0.01,
                 rounds=20, round_requests=60, clients=4, max_overhead=0.25)
    table.experiment_id = "S9"
    table.print()
    assert table.all_ok()
