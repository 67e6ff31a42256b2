"""Run one fleet workload against the real cluster and print its metrics.

    python3 fleetbench/run.py --workload tile_fetch --seed 1 --seconds 15 \
        --trace 0

``--trace 0`` reports the end-to-end metrics: set up five times and
keep the median, warm up, then measure the closed loop in half-second
windows with nothing but the benchmark's own per-operation timers. A
fixed interpreter kernel is timed before set-up, after each set-up and
after each window (``fleet.HostGauge``); the set-up times and the
measured phase are each scaled to a reference host speed by the median
of their own readings. ``--trace 1`` is the separate
traced run for the per-layer metrics: the same closed loop with a span
on every other vehicle step, counters read from the cluster, a shard
restart, then the rung ladder. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` next to this directory and from
nowhere else; without it the run fails with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: cluster set-ups per ``--trace 0`` run; ``setup_s`` is their median
SETUP_REPEATS = 5

#: (metric, unit, better) of the ``--trace 0`` run. ``setup_s`` is taken
#: at reference host speed (``fleet.HostGauge``), because a shared host's
#: raw speed can drift by half over minutes. The closed loop's CPU time,
#: throughput and latency are printed too, raw and scaled, but even
#: scaled they follow the host too closely for a bound; the traced run
#: reports them as per-layer ``fleet.*`` metrics.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def _import_program() -> bool:
    """Put this checkout's ``src/`` first on the path and make sure the
    ``repro`` package really comes from there."""
    src = ROOT / "src"
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro
    except ImportError:
        return False
    return Path(repro.__file__).resolve().is_relative_to(src.resolve())


def _commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _pct(values, q: float) -> float:
    """The ``q``-th percentile of nanosecond samples, in µs (0 if none)."""
    import numpy as np
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q)) / 1e3


def _environment(inputs, cluster, steal: float, gauge) -> dict:
    """What a reader needs to compare this run with another."""
    import inspect

    import numpy as np
    from repro.core.tiles import TileScheme
    from repro.serve.service import MapService
    from fleetbench.fleet import REF_KERNEL_US
    from fleetbench.workloads import SHARDS, THREADS, patch_owners, \
        tiles_per_shard

    defaults = inspect.signature(MapService.__init__).parameters
    router = cluster.router
    scheme = TileScheme(inputs.shape.tile_size)
    patches = [p for thread in inputs.patches for p in thread]
    return {
        "workload": inputs.workload,
        "seed": inputs.seed,
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "service_latency_s": 0.0,
        "storage_latency_s": 0.0,
        "transport": router.transport,
        "shards": SHARDS,
        "replicas": inputs.shape.replicas,
        "client_threads": THREADS,
        "elements": len(inputs.world),
        "tiles": len(inputs.blobs),
        "tile_size_m": inputs.shape.tile_size,
        "tiles_per_shard": tiles_per_shard(inputs, router.owner_of_tile),
        "cache_capacity_per_shard": defaults["cache_shards"].default
        * defaults["tiles_per_shard"].default,
        "vehicles": len(inputs.poses),
        "patches": len(patches),
        "cross_shard_patches": sum(
            1 for p in patches
            if len(patch_owners(p, scheme, router.owner_of_tile)) > 1),
        "host_steal_share": steal,
        "host_kernel_us_median": float(np.median(gauge.readings)),
        "ref_kernel_us": REF_KERNEL_US,
        "journal_entries": len(router.journal_entries()),
        "changelog_entries": sum(len(router.shard_changelog(i))
                                 for i in range(SHARDS)),
    }


def _counters(router) -> dict:
    """Router and shard-side counters, summed over shards. The shard
    side comes from each shard's primary (``collect_shard_metrics``)."""
    stats = router.stats()
    out = {k: stats[k] for k in ("coalesced", "replica_hits",
                                 "replica_lag")}
    for shard in router.collect_shard_metrics().values():
        for key, value in shard["outcomes"].items():
            out[key] = out.get(key, 0) + value
        for key in ("hits", "misses", "evictions"):
            out[f"cache.{key}"] = out.get(f"cache.{key}", 0) \
                + shard["cache"][key]
        out["shed_rejected"] = out.get("shed_rejected", 0) \
            + shard["rejected"] + shard["shed"]
    return out


def _per_layer(inputs, cluster, loop, counters0, workdir, spans,
               budget_s: float) -> dict:
    """Counters of the traced closed loop, a timed shard restart, then
    the rung ladder. Closes ``cluster``."""
    import time

    import numpy as np
    from repro.serve.api import GetTile
    from fleetbench.ladder import Ladder
    from fleetbench.workloads import SHARDS

    router = cluster.router
    stats = router.stats()
    now = _counters(router)
    delta = {k: now.get(k, 0) - counters0.get(k, 0) for k in now}
    n = {k: len(loop.lat.get(k, ())) for k in ("gettile", "spatial", "sync")}
    # Reads the shard primaries answered over the loop; replica hits were
    # answered by a replica instead, and a replica answer below the
    # version floor is retried on the primary (so counted there).
    primary_reads = sum(delta.get(f"{kind}.ok", 0) for kind in
                        ("GetTile", "SpatialQuery", "ChangesSince"))
    replica_tries = delta["replica_hits"] + delta["replica_lag"]
    lookups = delta["cache.hits"] + delta["cache.misses"]
    ops = max(1, loop.attempted)
    values = {
        # fleet_query, the workload that scatters, has no replicas
        "cluster.scatter_fanout": (delta.get("SpatialQuery.ok", 0)
                                   / n["spatial"] if n["spatial"] else 0.0),
        "cluster.coalesced_ratio": delta["coalesced"] / max(1, n["gettile"]),
        "cluster.replica_read_ratio": delta["replica_hits"]
        / max(1, primary_reads + delta["replica_hits"]),
        "cluster.replica_lag_ratio":
            delta["replica_lag"] / max(1, replica_tries),
        "cluster.inflight_peak": stats["inflight_peak"],
        "cluster.journal_entries": len(router.journal_entries()),
        "cluster.shard_cpu_us_per_op": loop.shard_cpu_s * 1e6 / ops,
        "serve.cache_hit_ratio": delta["cache.hits"] / max(1, lookups),
        "serve.cache_evictions": delta["cache.evictions"],
        "serve.shed_rejected": delta["shed_rejected"],
        "core.changelog_entries": sum(len(router.shard_changelog(i))
                                      for i in range(SHARDS)),
        "bench.client_cpu_us_per_op": loop.client_cpu_s * 1e6 / ops,
        "bench.trace_overhead_ratio": float(
            np.median(loop.traced_steps) / np.median(loop.steps) - 1.0),
    }
    # Restart: kill shard 0's primary, force the journal-replay restart
    # (a replica may otherwise answer reads), then read one of its tiles.
    tile = next(t for t in inputs.tiles if router.owner_of_tile(t) == 0)
    t0 = time.perf_counter()
    router.kill_shard(0)
    router.shard_changelog(0)
    response = router.request(GetTile(tile, encoded=True))
    values["cluster.restart_s"] = time.perf_counter() - t0
    cluster.close()
    if not response.ok or response.payload != inputs.blobs[tile]:
        raise RuntimeError(f"restarted shard 0 does not serve {tile}")
    values.update(Ladder(inputs, str(workdir), spans, budget_s).run())
    return values


def _scaled(loop, read_kind: str, scale: float) -> dict:
    """The measured phase at reference host speed: times multiplied by
    the phase's ``scale``, the rate divided by it."""
    return {
        "cpu_us_per_op": (loop.client_cpu_s + loop.shard_cpu_s) * 1e6
        / loop.attempted * scale,
        "ops_per_s": (loop.attempted - loop.failed) / loop.elapsed_s / scale,
        "read_p50_us": _pct(loop.lat[read_kind], 50) * scale,
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool = False, out=sys.stdout) -> dict:
    """One run; returns the result object printed as the last line."""
    from fleetbench.fleet import Cluster, Fleet, HostGauge, ProcSampler, \
        SpanLog, measure, run_loop
    from fleetbench.ladder import CATALOGUE
    from fleetbench.workloads import build_inputs

    def say(text: str) -> None:
        print(text, file=out, flush=True)

    inputs = build_inputs(workload, seed, seconds, small=small)
    state = ROOT / ".fleetbench"
    workdir = state / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    gauge = HostGauge()
    cluster = None
    try:
        setups = []
        setup_readings = [gauge.read()]
        for k in range(1 if trace else SETUP_REPEATS):
            if cluster is not None:
                cluster.close()
            cluster = Cluster(inputs, str(workdir / f"base-{k}.pack"))
            setups.append(cluster.setup_s)
            setup_readings.append(gauge.read())
        setup_scale = gauge.scale(setup_readings)
        fleet = Fleet(inputs, cluster)
        warm = run_loop(fleet, inputs.shape.warmup_steps, 0.0)
        spans = SpanLog() if trace else None
        counters0 = _counters(cluster.router)
        sampler = ProcSampler()
        loop, readings = measure(fleet, seconds, gauge, sampler, spans)
        problems = fleet.final_checks()
        env = _environment(inputs, cluster, sampler.steal_share(), gauge)
        attempted = warm.attempted + loop.attempted
        failed = warm.failed + loop.failed + len(problems)
        for line in warm.errors + loop.errors + problems:
            say(f"FAILED {line}")
        say("env " + json.dumps(env, sort_keys=True))
        say(f"{workload}: {len(loop.steps) + len(loop.traced_steps)} steps "
            f"in {loop.elapsed_s:.3f} s; fail_ratio "
            f"{failed / attempted:.6f} ({failed} of {attempted} operations)")
        say("  wall clock, as measured on this host:")
        for kind, lat in sorted(loop.lat.items()):
            say(f"  {kind:<8} n={len(lat):<7} p50={_pct(lat, 50):10.1f} us"
                f"  p99={_pct(lat, 99):10.1f} us")
        cpu = (loop.client_cpu_s + loop.shard_cpu_s) * 1e6 / loop.attempted
        say(f"  ops_per_s {loop.attempted / loop.elapsed_s:.1f}; "
            f"cpu_us_per_op {cpu:.1f}; set-ups "
            f"{', '.join(f'{s:.3f}' for s in setups)} s")
        scale = gauge.scale(readings)
        scaled = _scaled(loop, fleet.read_kind, scale)
        say(f"  at reference host speed (scale {scale:.4f}, set-up "
            f"{setup_scale:.4f}): "
            + "; ".join(f"{k} {v:.1f}" for k, v in scaled.items()))
        metrics = {}
        if trace:
            values = _per_layer(inputs, cluster, loop, counters0, workdir,
                                spans, 0.02 if small else 0.25)
            values.update({
                "fleet.cpu_us_per_op": scaled["cpu_us_per_op"],
                "fleet.ops_per_s": (loop.attempted - loop.failed)
                / loop.elapsed_s,
                "fleet.read_p50_us": _pct(loop.lat[fleet.read_kind], 50),
                "fleet.read_p99_us": _pct(loop.lat[fleet.read_kind], 99),
                "fleet.step_p50_us": _pct(loop.steps, 50),
                "fleet.step_p99_us": _pct(loop.steps, 99),
                "fleet.ingest_p50_us": _pct(loop.lat.get("ingest", ()), 50),
                "fleet.sync_p50_us": _pct(loop.lat.get("sync", ()), 50),
            })
            cluster = None
            spans.write(str(state / f"spans-{workload}-seed{seed}.jsonl"))
            for name, unit, _better, moves in CATALOGUE:
                metrics[name] = {"value": values[name], "unit": unit}
                say(f"  {name:<30} {values[name]:>14.4f} {unit:<6} "
                    f"moves {moves}")
        else:
            values = {
                "setup_s": statistics.median(setups) * setup_scale,
                "peak_rss_mb": sampler.peak_rss / 2**20,
            }
            for name, unit, _better in END_TO_END:
                metrics[name] = {"value": values[name], "unit": unit}
                say(f"  {name:<14} {values[name]:>14.4f} {unit}")
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}
    finally:
        if cluster is not None:
            cluster.close()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _import_program():
        print(f"fleetbench: no repro package under {ROOT / 'src'}; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    from fleetbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
