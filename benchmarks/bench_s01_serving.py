"""S1 — Fleet-scale map serving: throughput scaling, cache locality, and
consistency under concurrent ingest + sync (the survey's closing open
problem of distributing "enormous map data" to fleets [73]).

A synthetic fleet drives spatially coherent routes against the serving
layer while crowd-sourcing patches back into the map database
(:func:`repro.bench.fleet_serve`). The shape assertions: a multi-worker
pool must out-serve a single worker under the same (I/O-modelled)
per-request cost, coherent drives must re-hit cached tiles (>0.8), and
no vehicle may ever observe a torn delta or an out-of-order map version.
"""

from conftest import once

from repro.bench import fleet_serve
from repro.world import generate_grid_city


def test_s01_fleet_serving(benchmark, rng):
    city = generate_grid_city(rng, 6, 5, block_size=200.0)
    table = once(benchmark, fleet_serve, city, (1, 4), tile_size=250.0,
                 vehicles=8, route_length_m=2000.0, service_latency_s=0.002,
                 storage_latency_s=0.002, seed=11)
    table.experiment_id = "S1"
    table.print()
    assert table.all_ok()
