"""S5 — Chaos: graceful degradation of the serve→ingest loop under
injected faults.

The maintenance loop the survey's crowd-sourced pipelines [41][42][44]
feed is only useful if it degrades instead of breaking: the source
paper's fleet-scale ecosystem assumes sensors drop and duplicate
uplinks, workers crash, the database hiccups, and request load spikes.
This bench runs the curated fault matrix (one seeded
:class:`~repro.chaos.faults.FaultPlan` per fault class: sensor, bus,
pipeline, publish, serve, geometry) through
:func:`repro.bench.chaos_matrix` and asserts the five degradation
invariants hold under every class — no lost acked observations, no
duplicate published patches, version monotonicity, bounded freshness
lag, zero constraint violations served — plus the harness's own honesty
check: with faults disabled, the chaos run's final map is byte-identical
to a plain pipeline run of the same seed. The geometry class is the
verify gate's trial: every injected malformed patch must land in
quarantine, never in the served map. The ``shard`` class is certified
by ``bench_s06_cluster.py``.
"""

import numpy as np
from conftest import once

from repro.bench import chaos_matrix
from repro.chaos import ChaosWorkload
from repro.chaos.faults import FAULT_CLASSES
from repro.world import generate_grid_city

#: Pinned world seed shared with S2: fleet routes cover every injected
#: ground-truth change on this road graph.
_SEED = 7


def test_s05_chaos_matrix(benchmark):
    city = generate_grid_city(np.random.default_rng(_SEED), 3, 2,
                              block_size=150.0)
    table = once(benchmark, chaos_matrix, city, set(FAULT_CLASSES) - {"shard"},
                 seed=_SEED, workload=ChaosWorkload(seed=_SEED))
    table.experiment_id = "S5"
    table.print()
    assert table.all_ok()
