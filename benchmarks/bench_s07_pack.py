"""S7 — Pack store: zero-copy tile serving and binary delta sync.

The survey's distribution story (Li et al.'s vector compaction,
~10 MB/mile → ~100 KB/mile) only matters at serving time if the stack
ships those compact bytes without re-materializing objects per request.
This bench gates the :mod:`repro.pack` claims end-to-end through
:func:`repro.bench.pack_serving`:

- **parity** — a pack-backed :class:`TileStore` serves payloads
  byte-identical to the dict-backed store it was written from, at a
  mean encoded tile size under 64 KiB;
- **zero copy** — an encoded ``GetTile`` answered from a pack-backed
  :class:`MapService` is a ``memoryview`` slice of the pack mmap, and
  the pack path beats the per-request object-encode path on a cold
  encode memo by >= 5x;
- **lazy cold start** — opening a replicated ~1M-element pack plus one
  tile decode costs exactly one decode (no hidden full-map decode);
- **delta wire** — ``ChangesSince`` shipped through
  :func:`repro.pack.encode_delta` is at most 25% of the pickled
  :class:`SyncDelta`.
"""

import numpy as np
from conftest import once

from repro.bench import pack_serving
from repro.world import generate_grid_city

_SEED = 7


def test_s07_pack(benchmark):
    city = generate_grid_city(np.random.default_rng(_SEED), 3, 2,
                              block_size=150.0)
    table = once(benchmark, pack_serving, city, tile_size=250.0,
                 requests=200, workers=1, target_elements=1_000_000,
                 delta_ops=20, delta_seed=_SEED, min_speedup=5.0,
                 max_bytes_per_tile=65536, cold_start_budget_s=2.0,
                 max_delta_ratio=0.25)
    table.experiment_id = "S7"
    table.print()
    assert table.all_ok()
