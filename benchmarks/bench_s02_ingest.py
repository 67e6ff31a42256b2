"""S2 — Streaming fleet-to-map ingestion: the maintenance loop closed at
fleet scale (the survey's crowd-sourced maintenance pipelines [41][42][43]
run as one concurrent system).

N producer vehicles stream detection/miss evidence into the tile-
partitioned observation bus; M supervised stage workers fuse, classify,
and publish patches into the same versioned database the serving layer
reads (:func:`repro.bench.ingest_run`). Shape assertions: worker pools
must out-drain a single worker under the same (I/O-modelled) per-batch
cost, every injected ground-truth change must be served within a bounded
number of map versions, and the at-least-once uplink must never produce
a duplicate applied patch.
"""

import numpy as np
from conftest import once

from repro.bench import ingest_run
from repro.world import generate_grid_city
from repro.world.scenario import ChangeSpec, apply_changes

#: Pinned world seed: a scenario whose fleet routes were validated to
#: cover every injected change (coverage is a property of the road graph,
#: not of the pipeline under test).
_SEED = 7


def test_s02_streaming_ingest(benchmark):
    rng = np.random.default_rng(_SEED)
    city = generate_grid_city(rng, 3, 2, block_size=150.0)
    scenario = apply_changes(city, ChangeSpec(remove_signs=2, add_signs=2),
                             rng)
    table = once(benchmark, ingest_run, scenario, (1, 4), tile_size=250.0,
                 vehicles=4, routes=3, route_length_m=1200.0,
                 duplicate_rate=0.15, stage_latency_s=0.005, max_batch=16,
                 seed=_SEED, drain_timeout_s=60.0)
    table.experiment_id = "S2"
    table.print()
    assert table.all_ok()
