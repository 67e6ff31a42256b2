"""Command-line interface: generate, inspect, validate, and route on maps.

Usage::

    python -m repro generate --kind city --seed 7 --out city.json
    python -m repro stats city.json [--tiles] [--tile-size 500]
    python -m repro validate city.json
    python -m repro route city.json --from 100,100 --to 600,400
    python -m repro serve-bench city.json --workers 1,4 --vehicles 8
    python -m repro ingest-bench city.json --workers 1,4 --vehicles 4
    python -m repro chaos-bench city.json --classes sensor,pipeline
    python -m repro cluster-bench city.json --shards 1,2 --check-scaling 1.5
    python -m repro cluster-bench city.json --replicas 1 --pipeline --check-scaling
    python -m repro pack-bench city.json --check --out PACK_BENCH.json
    python -m repro taxonomy
    python -m repro perf-bench --out BENCH_PERF.json
    python -m repro obs export city.json --format prometheus
    python -m repro obs trace --input spans.jsonl [--trace-id ID]
    python -m repro obs top --input spans.jsonl
    python -m repro obs smoke city.json

The ``*-bench`` subcommands measure nothing themselves: each parses its
flags, calls one scenario in :mod:`repro.bench` (the same functions the
S-series pytest benchmarks call), prints the returned gate table, writes
it with :func:`repro.bench.write_report` where the command has ``--out``,
and exits 1 if any row failed. Without ``--check``/``--check-scaling``
only correctness rows (errors, parity, consistency, trace shape) carry a
verdict; threshold rows are reported.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.storage import save_map
    from repro.world import (
        generate_factory_floor,
        generate_grid_city,
        generate_highway,
    )
    from repro.world.hdmapgen import HDMapGenSampler, MapTopologySpec

    rng = np.random.default_rng(args.seed)
    if args.kind == "city":
        hdmap = generate_grid_city(rng, blocks_x=args.size, blocks_y=args.size)
    elif args.kind == "highway":
        hdmap = generate_highway(rng, length=args.size * 1000.0)
    elif args.kind == "factory":
        hdmap = generate_factory_floor(rng, aisles=args.size)
    elif args.kind == "sampled":
        spec = MapTopologySpec(n_junctions=max(4, args.size * 3))
        hdmap = HDMapGenSampler(spec).sample_map(rng)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.kind)
    n_bytes = save_map(hdmap, args.out)
    print(f"wrote {hdmap.name}: {len(hdmap)} elements, "
          f"{n_bytes / 1024:.1f} KB -> {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.storage import TileStore, load_map
    from repro.world.hdmapgen import map_statistics

    hdmap = load_map(args.map)
    stats = map_statistics(hdmap)
    print(f"map: {hdmap.name} (version {hdmap.version})")
    print(f"  elements by kind: {hdmap.counts_by_kind()}")
    print(f"  total lane length: {hdmap.total_lane_length() / 1000:.2f} km")
    print(f"  mean lane length: {stats.mean_lane_length:.1f} m")
    print(f"  mean |curvature|: {stats.mean_abs_curvature:.4f} 1/m")
    print(f"  mean junction degree: {stats.mean_junction_degree:.2f}")
    if args.tiles:
        store = TileStore.build(hdmap, tile_size=args.tile_size)
        n_tiles = len(store.tiles())
        total = store.total_bytes()
        print(f"  tile store ({args.tile_size:.0f} m tiles):")
        print(f"    tiles: {n_tiles}")
        print(f"    blob bytes: {total} "
              f"({total / 1024:.1f} KB, "
              f"{total / max(n_tiles, 1):.0f} B/tile mean)")
        largest = store.largest_tile()
        if largest is not None:
            tile, size = largest
            print(f"    largest tile: {tile} ({size} B)")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.core import Severity, validate_map
    from repro.storage import load_map

    hdmap = load_map(args.map)
    issues = validate_map(hdmap)
    errors = [i for i in issues if i.severity is Severity.ERROR]
    for issue in issues:
        print(f"  {issue}")
    print(f"{len(errors)} error(s), {len(issues) - len(errors)} warning(s)")
    return 1 if errors else 0


def _parse_point(text: str) -> tuple:
    try:
        x, y = text.split(",")
        return float(x), float(y)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'x,y' metres, got {text!r}") from None


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.planning import LaneRouter, describe_route, render_guidance
    from repro.storage import load_map

    hdmap = load_map(args.map)
    router = LaneRouter(hdmap)
    result = router.route_between_points(args.start, args.goal)
    length = router.route_length(result)
    print(f"route: {result.n_lanes} lanes, {length:.0f} m driven, "
          f"{result.stats.expansions} nodes expanded")
    print(render_guidance(describe_route(hdmap, result)))
    return 0


def _parse_worker_list(text: str) -> List[int]:
    try:
        workers = [int(w) for w in text.split(",") if w]
        if not workers or any(w < 1 for w in workers):
            raise ValueError
        return workers
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated worker counts, got {text!r}") from None


def _trace_sample_setup(args: argparse.Namespace) -> bool:
    """Enable tracing when the bench asked for a span dump."""
    if not getattr(args, "trace_sample", None):
        return False
    from repro.obs import configure_tracing
    configure_tracing(enabled=True, sample_rate=args.trace_sample_rate,
                      capacity=65536, reset=True)
    return True


def _trace_sample_dump(args: argparse.Namespace) -> None:
    from repro.obs import TRACER
    n = TRACER.recorder.dump_jsonl(args.trace_sample)
    print(f"wrote {n} spans "
          f"({len(TRACER.recorder.trace_ids())} traces, "
          f"sample rate {args.trace_sample_rate}) -> {args.trace_sample}")
    TRACER.configure(enabled=False)


def _report(table, label: str, out: Optional[str] = None,
            **inputs) -> int:
    """Print a bench table (and write its JSON report); 1 on a FAIL row."""
    from repro.bench import write_report

    table.print()
    if out is not None:
        write_report(out, table, **inputs)
        print(f"report -> {out}")
    failed = [row for row in table.rows if row.ok is False]
    for row in failed:
        print(f"{label} FAILED: {row.quantity}: {row.measured} "
              f"(required {row.paper})", file=sys.stderr)
    return 1 if failed else 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.bench import fleet_serve
    from repro.storage import load_map

    tracing = _trace_sample_setup(args)
    table = fleet_serve(
        load_map(args.map), args.workers, tile_size=args.tile_size,
        vehicles=args.vehicles, route_length_m=args.route,
        service_latency_s=args.service_latency_ms / 1e3,
        storage_latency_s=args.storage_latency_ms / 1e3, seed=args.seed,
        trace_requests=tracing, check=False)
    if tracing:
        _trace_sample_dump(args)
    return _report(table, "SERVE BENCH")


def _cmd_ingest_bench(args: argparse.Namespace) -> int:
    from repro.bench import ingest_run, verify_overhead
    from repro.storage import load_map
    from repro.world.scenario import ChangeSpec, apply_changes

    tracing = _trace_sample_setup(args)
    hdmap = load_map(args.map)
    scenario = apply_changes(
        hdmap, ChangeSpec(remove_signs=args.remove_signs,
                          add_signs=args.add_signs),
        np.random.default_rng(args.seed))
    table = ingest_run(
        scenario, args.workers, tile_size=args.tile_size,
        vehicles=args.vehicles, routes=args.routes,
        route_length_m=args.route, duplicate_rate=args.duplicate_rate,
        stage_latency_s=args.stage_latency_ms / 1e3, max_batch=32,
        seed=args.seed, drain_timeout_s=120.0, check=False)
    if tracing:
        _trace_sample_dump(args)
    if args.verify:
        table.rows += verify_overhead(hdmap, args.max_verify_overhead,
                                      args.seed).rows
    return _report(table, "INGEST BENCH")


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from repro.bench import obs_workload

    registry = obs_workload(args.map, args.seed)
    if args.format == "json":
        print(registry.to_json())
    else:
        print(registry.to_prometheus(), end="")
    from repro.obs import TRACER
    TRACER.configure(enabled=False)
    return 0


def _cmd_obs_trace(args: argparse.Namespace) -> int:
    from repro.obs import format_trace, load_spans_jsonl, verify_spans

    spans = load_spans_jsonl(args.input)
    by_trace: dict = {}
    for span in spans:
        by_trace.setdefault(span["trace_id"], []).append(span)
    if getattr(args, "cluster", False):
        # Cluster mode: keep only traces that actually crossed a process
        # boundary (a router-side cluster.* span plus a shard-side span
        # merged by the telemetry harvester), and treat any structural
        # violation in them as a hard failure — a broken parent chain
        # here means propagation or merging regressed.
        def _cross_process(trace_spans: list) -> bool:
            has_router = any(str(s["name"]).startswith("cluster.")
                             for s in trace_spans)
            has_shard = any("role" in (s.get("attrs") or {})
                            for s in trace_spans)
            return has_router and has_shard

        by_trace = {tid: ts for tid, ts in by_trace.items()
                    if _cross_process(ts)}
        problems = [p for tid, ts in by_trace.items()
                    for p in verify_spans(ts)]
        if problems:
            for problem in problems:
                print(f"OBS TRACE FAILED: {problem}", file=sys.stderr)
            return 1
        if not by_trace:
            print("(no cross-process cluster traces)", file=sys.stderr)
            return 1
    if not by_trace:
        print("(no spans)")
        return 0
    if args.trace_id is not None:
        if args.trace_id not in by_trace:
            print(f"trace {args.trace_id!r} not found "
                  f"({len(by_trace)} traces in {args.input})",
                  file=sys.stderr)
            return 1
        wanted = [args.trace_id]
    else:
        wanted = list(by_trace)[:args.limit]
    for trace_id in wanted:
        print(f"trace {trace_id} ({len(by_trace[trace_id])} spans)")
        print(format_trace(by_trace[trace_id]))
        print()
    print(f"{len(by_trace)} trace(s), {len(spans)} span(s) total")
    return 0


def _cmd_obs_top(args: argparse.Namespace) -> int:
    from collections import defaultdict

    from repro.obs import load_spans_jsonl

    spans = load_spans_jsonl(args.input)
    agg = defaultdict(lambda: [0, 0.0, 0.0])  # count, total_s, max_s
    for span in spans:
        entry = agg[span["name"]]
        duration = float(span.get("duration_s") or 0.0)
        entry[0] += 1
        entry[1] += duration
        entry[2] = max(entry[2], duration)
    header = (f"{'span':<28} {'count':>6} {'total':>10} "
              f"{'mean':>10} {'max':>10}")
    print(header)
    print("-" * len(header))
    ranked = sorted(agg.items(), key=lambda kv: kv[1][1], reverse=True)
    for name, (count, total, peak) in ranked[:args.limit]:
        print(f"{name:<28} {count:>6} {1e3 * total:>8.2f}ms "
              f"{1e3 * total / count:>8.3f}ms {1e3 * peak:>8.3f}ms")
    return 0


def _cmd_obs_smoke(args: argparse.Namespace) -> int:
    """CI gate: traced workload, valid export, no broken spans."""
    from repro.bench import obs_workload
    from repro.obs import TRACER, validate_prometheus_text, verify_spans

    registry = obs_workload(args.map, args.seed)
    failures: List[str] = []

    text = registry.to_prometheus()
    failures += [f"prometheus: {p}" for p in validate_prometheus_text(text)]
    from repro.obs.metrics import _prom_name
    exported = {line.split("{")[0].split(" ")[0]
                for line in text.splitlines()
                if line and not line.startswith("#")}
    for name in registry.names():
        pname = _prom_name(name)
        if not any(e == pname or e.startswith(pname + "_")
                   for e in exported):
            failures.append(f"metric {name!r} missing from export")
    for prefix in ("serve.", "ingest.", "perf.", "log."):
        if not any(n.startswith(prefix) for n in registry.names()):
            failures.append(f"no {prefix}* metrics registered")

    spans = [s.as_dict() for s in TRACER.recorder.spans()]
    if not spans:
        failures.append("no spans recorded")
    failures += [f"trace: {p}" for p in verify_spans(spans)]
    if TRACER.recorder.dropped:
        failures.append(
            f"span ring wrapped ({TRACER.recorder.dropped} dropped)")

    n_traces = len(TRACER.recorder.trace_ids())
    TRACER.configure(enabled=False)
    if failures:
        for failure in failures:
            print(f"OBS SMOKE FAILURE: {failure}", file=sys.stderr)
        return 1
    print(f"obs smoke passed: {len(registry.names())} metrics exported, "
          f"{len(spans)} spans across {n_traces} traces, all parented")
    return 0


def _cmd_chaos_bench(args: argparse.Namespace) -> int:
    """Certify graceful degradation under the curated fault matrix."""
    from repro.bench import chaos_matrix
    from repro.chaos import ChaosWorkload, ClusterWorkload
    from repro.chaos.faults import FAULT_CLASSES
    from repro.storage import load_map

    wanted = None if args.classes == "all" else \
        {c.strip() for c in args.classes.split(",") if c.strip()}
    if wanted is not None:
        unknown = wanted - set(FAULT_CLASSES)
        if unknown:
            print(f"unknown fault class(es): {', '.join(sorted(unknown))} "
                  f"(choose from {', '.join(FAULT_CLASSES)})",
                  file=sys.stderr)
            return 2
    table = chaos_matrix(
        load_map(args.map), wanted, seed=args.seed,
        workload=ChaosWorkload(vehicles=args.vehicles,
                               routes_per_vehicle=args.routes,
                               route_length_m=args.route, seed=args.seed),
        cluster_workload=ClusterWorkload(
            transport=args.shard_transport, seed=args.seed,
            trace_sample_rate=args.trace_sample_rate),
        freshness_bound_s=args.freshness_bound_s,
        parity=not args.skip_parity)
    return _report(table, "CHAOS BENCH")


def _cmd_cluster_bench(args: argparse.Namespace) -> int:
    """Sweep shard counts; optionally gate the concurrent read path.

    The sweep measures aggregate encoded-GetTile throughput per shard
    count. ``--pipeline`` adds :func:`repro.bench.read_path`,
    ``--trace-sample-rate`` adds :func:`repro.bench.cluster_trace`.
    ``--check-scaling`` turns the measured ratios into hard gates; every
    row lands in ``--out``.
    """
    from functools import partial

    from repro.bench import cluster_trace, read_path, shard_sweep
    from repro.cluster import ClusterRouter
    from repro.eval import ResultTable
    from repro.storage import load_map

    hdmap = load_map(args.map)
    latency_s = args.service_latency_ms / 1e3
    check = args.check_scaling is not None
    make_router = partial(ClusterRouter, hdmap, tile_size=args.tile_size,
                          transport=args.transport, n_workers=args.workers)
    suites = [shard_sweep(
        partial(make_router, replicas=args.replicas,
                service_latency_s=latency_s), args.shards,
        args.requests, args.clients, check=check,
        min_scaling=args.check_scaling if check and args.check_scaling > 0
        else 1.5)]
    if args.pipeline:
        suites.append(read_path(
            make_router, args.requests, max(args.clients, 16),
            service_latency_s=latency_s, broadcasts=10,
            min_replica_speedup=args.min_replica_speedup,
            min_scatter_speedup=args.min_scatter_speedup, check=check))
    if args.trace_sample_rate is not None:
        suites.append(cluster_trace(
            partial(make_router, n_shards=args.shards[-1],
                    replicas=args.replicas, service_latency_s=latency_s,
                    telemetry_interval_s=0.25),
            sample_rate=args.trace_sample_rate, rounds=3,
            round_requests=max(100, args.requests // 2),
            clients=args.clients, max_overhead=args.max_trace_overhead,
            check=check, span_dump=args.trace_sample))
    table = ResultTable("cluster-bench",
                        "; ".join(suite.title for suite in suites))
    for suite in suites:
        table.rows += suite.rows
    return _report(table, "CLUSTER BENCH", args.out, map=hdmap.name,
                   transport=args.transport,
                   service_latency_ms=args.service_latency_ms,
                   requests=args.requests, clients=args.clients)


def _cmd_pack_bench(args: argparse.Namespace) -> int:
    """Gate the pack store's serving claims (:func:`repro.bench.pack_serving`)."""
    from repro.bench import pack_serving
    from repro.storage import load_map

    hdmap = load_map(args.map)
    table = pack_serving(
        hdmap, tile_size=args.tile_size, requests=args.requests,
        workers=args.workers, target_elements=args.target_elements,
        delta_ops=args.delta_ops, delta_seed=0,
        min_speedup=args.min_speedup,
        max_bytes_per_tile=args.max_bytes_per_tile,
        cold_start_budget_s=args.cold_start_budget_s,
        max_delta_ratio=args.max_delta_ratio, check=args.check)
    return _report(table, "PACK BENCH", args.out, map=hdmap.name,
                   tile_size=args.tile_size, requests=args.requests,
                   workers=args.workers,
                   target_elements=args.target_elements,
                   delta_ops=args.delta_ops)


def _cmd_taxonomy(args: argparse.Namespace) -> int:
    from repro import taxonomy

    print(taxonomy.render_table())
    return 0


def _cmd_perf_bench(args: argparse.Namespace) -> int:
    from repro.perf import (
        HEADLINE_KERNELS,
        check_baseline,
        load_report,
        run_perf_suite,
        write_report,
    )

    results, speedups, counters = run_perf_suite(
        repetitions=args.repetitions, warmup=args.warmup)

    print(f"{'kernel':<28} {'median':>10} {'p95':>10} {'reps':>5}")
    for result in results:
        print(f"{result.name:<28} {1e3 * result.median_s:>8.3f}ms "
              f"{1e3 * result.p95_s:>8.3f}ms {len(result.samples_s):>5}")
    print()
    for name, factor in sorted(speedups.items()):
        print(f"speedup {name:<28} {factor:>6.2f}x")

    report = write_report(args.out, results, speedups=speedups,
                          counters=counters)
    print(f"\nwrote {args.out}")

    if args.check_baseline:
        baseline = load_report(args.check_baseline)
        failures = check_baseline(report, baseline, HEADLINE_KERNELS,
                                  max_regression=args.max_regression)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"baseline check passed for {len(HEADLINE_KERNELS)} headline "
              f"kernels (limit {args.max_regression}x)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HD-map ecosystem reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic HD map")
    gen.add_argument("--kind", choices=("city", "highway", "factory",
                                        "sampled"), default="city")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--size", type=int, default=4,
                     help="blocks (city), km (highway), aisles (factory), "
                          "scale (sampled)")
    gen.add_argument("--out", required=True, help="output GeoJSON path")
    gen.set_defaults(func=_cmd_generate)

    stats = sub.add_parser("stats", help="summarize a map file")
    stats.add_argument("map")
    stats.add_argument("--tiles", action="store_true",
                       help="also report tile-store serving capacity")
    stats.add_argument("--tile-size", type=float, default=500.0,
                       help="tile edge length in metres (with --tiles)")
    stats.set_defaults(func=_cmd_stats)

    val = sub.add_parser("validate", help="run integrity checks")
    val.add_argument("map")
    val.set_defaults(func=_cmd_validate)

    route = sub.add_parser("route", help="lane-level route between points")
    route.add_argument("map")
    route.add_argument("--from", dest="start", type=_parse_point,
                       required=True, metavar="X,Y")
    route.add_argument("--to", dest="goal", type=_parse_point,
                       required=True, metavar="X,Y")
    route.set_defaults(func=_cmd_route)

    bench = sub.add_parser(
        "serve-bench",
        help="load-test the serving layer with a synthetic fleet")
    bench.add_argument("map")
    bench.add_argument("--workers", type=_parse_worker_list, default=[1, 4],
                       metavar="N,M,...",
                       help="worker-pool sizes to sweep (default 1,4)")
    bench.add_argument("--vehicles", type=int, default=8)
    bench.add_argument("--route", type=float, default=2000.0,
                       help="route length per vehicle, metres")
    bench.add_argument("--tile-size", type=float, default=250.0)
    bench.add_argument("--service-latency-ms", type=float, default=2.0,
                       help="simulated per-request network/serialization cost")
    bench.add_argument("--storage-latency-ms", type=float, default=2.0,
                       help="simulated blob-fetch cost on tile cache misses")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--trace-sample", metavar="PATH",
                       help="enable tracing and dump sampled spans (JSONL)")
    bench.add_argument("--trace-sample-rate", type=float, default=0.05,
                       help="root-span sampling rate with --trace-sample")
    bench.set_defaults(func=_cmd_serve_bench)

    ingest = sub.add_parser(
        "ingest-bench",
        help="stream a synthetic fleet through the ingest pipeline")
    ingest.add_argument("map")
    ingest.add_argument("--workers", type=_parse_worker_list, default=[1, 4],
                        metavar="N,M,...",
                        help="stage-worker pool sizes to sweep (default 1,4)")
    ingest.add_argument("--vehicles", type=int, default=4)
    ingest.add_argument("--routes", type=int, default=3,
                        help="routes per vehicle (coverage)")
    ingest.add_argument("--route", type=float, default=1200.0,
                        help="route length per vehicle, metres")
    ingest.add_argument("--remove-signs", type=int, default=2,
                        help="ground-truth sign removals to inject")
    ingest.add_argument("--add-signs", type=int, default=2,
                        help="ground-truth sign additions to inject")
    ingest.add_argument("--duplicate-rate", type=float, default=0.1,
                        help="fraction of reports re-sent (at-least-once "
                             "uplink)")
    ingest.add_argument("--stage-latency-ms", type=float, default=2.0,
                        help="simulated per-batch I/O cost in the pipeline")
    ingest.add_argument("--tile-size", type=float, default=250.0)
    ingest.add_argument("--seed", type=int, default=7)
    ingest.add_argument("--trace-sample", metavar="PATH",
                        help="enable tracing and dump sampled spans (JSONL)")
    ingest.add_argument("--trace-sample-rate", type=float, default=0.05,
                        help="root-span sampling rate with --trace-sample")
    ingest.add_argument("--verify", action="store_true",
                        help="also A/B-benchmark the constraint verify "
                             "gate and fail if its clean-patch publish "
                             "overhead exceeds --max-verify-overhead")
    ingest.add_argument("--max-verify-overhead", type=float, default=0.10,
                        help="relative publish-latency budget for the "
                             "verify gate (default 0.10 = 10%%)")
    ingest.set_defaults(func=_cmd_ingest_bench)

    obs = sub.add_parser(
        "obs", help="unified observability: export, traces, smoke gate")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_export = obs_sub.add_parser(
        "export",
        help="run a traced workload and export the unified registry")
    obs_export.add_argument("map")
    obs_export.add_argument("--format", choices=("prometheus", "json"),
                            default="prometheus")
    obs_export.add_argument("--seed", type=int, default=0)
    obs_export.set_defaults(func=_cmd_obs_export)

    obs_trace = obs_sub.add_parser(
        "trace", help="render span trees from a JSONL span dump")
    obs_trace.add_argument("--input", required=True,
                           help="span dump (from --trace-sample or "
                                "SpanRecorder.dump_jsonl)")
    obs_trace.add_argument("--trace-id", help="render one specific trace")
    obs_trace.add_argument("--limit", type=int, default=3,
                           help="max traces to render without --trace-id")
    obs_trace.add_argument("--cluster", action="store_true",
                           help="show only cross-process cluster traces "
                                "(router span + harvested shard spans) "
                                "and fail on any structural violation")
    obs_trace.set_defaults(func=_cmd_obs_trace)

    obs_top = obs_sub.add_parser(
        "top", help="rank span names by total time from a span dump")
    obs_top.add_argument("--input", required=True)
    obs_top.add_argument("--limit", type=int, default=15)
    obs_top.set_defaults(func=_cmd_obs_top)

    obs_smoke = obs_sub.add_parser(
        "smoke",
        help="CI gate: traced workload, valid Prometheus export, "
             "no unparented/unfinished spans")
    obs_smoke.add_argument("map")
    obs_smoke.add_argument("--seed", type=int, default=0)
    obs_smoke.set_defaults(func=_cmd_obs_smoke)

    chaos = sub.add_parser(
        "chaos-bench",
        help="fault-injection matrix: certify graceful degradation "
             "invariants across the serve->ingest loop")
    chaos.add_argument("map")
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--classes", default="all",
                       help="comma-separated fault classes to run "
                            "(sensor,bus,pipeline,publish,serve,shard) "
                            "or 'all'")
    chaos.add_argument("--shard-transport", choices=("process", "local"),
                       default="process",
                       help="shard-class cluster transport (default "
                            "process; local = in-process, for "
                            "constrained CI)")
    chaos.add_argument("--vehicles", type=int, default=3)
    chaos.add_argument("--routes", type=int, default=2,
                       help="routes per vehicle")
    chaos.add_argument("--route", type=float, default=900.0,
                       help="route length per vehicle, metres")
    chaos.add_argument("--freshness-bound-s", type=float, default=30.0,
                       help="freshness-lag invariant bound, seconds")
    chaos.add_argument("--skip-parity", action="store_true",
                       help="skip the faults-disabled byte-parity check")
    chaos.add_argument("--trace-sample-rate", type=float, default=0.0,
                       help="shard-class runs: sample each op as a "
                            "trace at this rate so the report counts "
                            "traces poisoned by injected faults "
                            "(0 = off)")
    chaos.set_defaults(func=_cmd_chaos_bench)

    cluster = sub.add_parser(
        "cluster-bench",
        help="sweep shard counts and check aggregate GetTile scaling")
    cluster.add_argument("map")
    cluster.add_argument("--shards", type=_parse_worker_list, default=[1, 2],
                         metavar="N,M,...",
                         help="shard counts to sweep (default 1,2)")
    cluster.add_argument("--requests", type=int, default=400,
                         help="total GetTile requests per shard count")
    cluster.add_argument("--clients", type=int, default=16,
                         help="concurrent client threads (must exceed "
                              "aggregate shard capacity for the sweep "
                              "to show scaling)")
    cluster.add_argument("--workers", type=int, default=2,
                         help="MapService workers per shard")
    cluster.add_argument("--replicas", type=int, default=0,
                         help="read replicas per shard")
    cluster.add_argument("--tile-size", type=float, default=250.0)
    cluster.add_argument("--service-latency-ms", type=float, default=20.0,
                         help="simulated per-request service cost inside "
                              "each shard; must dominate the ~1 ms "
                              "serial RPC overhead for the sweep to show "
                              "shard-count scaling on few cores")
    cluster.add_argument("--transport", choices=("process", "local"),
                         default="process")
    cluster.add_argument("--pipeline", action="store_true",
                         help="run the concurrent read-path suite: "
                              "replica read scaling vs a lockstep "
                              "client baseline, concurrent scatter-"
                              "gather vs the serial floor, and GetTile "
                              "coalescing parity")
    cluster.add_argument("--check-scaling", type=float, default=None,
                         nargs="?", const=-1.0, metavar="FACTOR",
                         help="enforce the gates; with a FACTOR, require "
                              "best sweep throughput >= FACTOR x the "
                              "first shard count's (bare flag: 1.5x)")
    cluster.add_argument("--min-replica-speedup", type=float, default=2.0,
                         help="required 1-replica/shard vs replica-less "
                              "read throughput ratio (--pipeline)")
    cluster.add_argument("--min-scatter-speedup", type=float, default=3.0,
                         help="required ratio of the serial floor "
                              "(shards x service latency) to the "
                              "concurrent scatter-gather latency "
                              "(--pipeline)")
    cluster.add_argument("--trace-sample-rate", type=float, default=None,
                         metavar="RATE",
                         help="run the telemetry-plane suite: measure "
                              "read latency with tracing off vs sampled "
                              "at RATE, then harvest and verify one "
                              "merged cross-process trace")
    cluster.add_argument("--trace-sample", default=None, metavar="PATH",
                         help="write the merged (router + harvested "
                              "shard) span dump as JSONL")
    cluster.add_argument("--max-trace-overhead", type=float, default=0.05,
                         help="allowed median-latency overhead of sampled "
                              "tracing (fraction; gated under "
                              "--check-scaling)")
    cluster.add_argument("--out", default="CLUSTER_BENCH.json",
                         help="machine-readable report path")
    cluster.set_defaults(func=_cmd_cluster_bench)

    pack = sub.add_parser(
        "pack-bench",
        help="measure pack-store serving: throughput, cold start, delta")
    pack.add_argument("map")
    pack.add_argument("--tile-size", type=float, default=250.0)
    pack.add_argument("--requests", type=int, default=300,
                      help="encoded GetTile requests per serving path")
    pack.add_argument("--workers", type=int, default=1,
                      help="MapService workers (1 isolates per-request "
                           "serialization cost)")
    pack.add_argument("--target-elements", type=int, default=1_000_000,
                      help="minimum element count of the cold-start pack")
    pack.add_argument("--delta-ops", type=int, default=20,
                      help="ingested changes behind the delta-size check")
    pack.add_argument("--out", default="PACK_BENCH.json",
                      help="machine-readable report path")
    pack.add_argument("--check", action="store_true",
                      help="fail unless every bound below is met")
    pack.add_argument("--min-speedup", type=float, default=5.0,
                      help="required pack/object-encode throughput ratio")
    pack.add_argument("--max-bytes-per-tile", type=float, default=65536,
                      help="ceiling on mean encoded tile size")
    pack.add_argument("--cold-start-budget-s", type=float, default=2.0,
                      help="budget for open + one-tile decode of the "
                           "cold pack")
    pack.add_argument("--max-delta-ratio", type=float, default=0.25,
                      help="ceiling on wire-delta / pickled-delta size")
    pack.set_defaults(func=_cmd_pack_bench)

    tax = sub.add_parser("taxonomy", help="print Table I with coverage")
    tax.set_defaults(func=_cmd_taxonomy)

    perf = sub.add_parser(
        "perf-bench",
        help="run the hot-path kernel microbenchmark suite")
    perf.add_argument("--repetitions", type=int, default=20)
    perf.add_argument("--warmup", type=int, default=3)
    perf.add_argument("--out", default="BENCH_PERF.json",
                      help="machine-readable report path")
    perf.add_argument("--check-baseline", metavar="PATH",
                      help="fail on median regressions vs this report")
    perf.add_argument("--max-regression", type=float, default=2.5,
                      help="regression multiplier the baseline check allows")
    perf.set_defaults(func=_cmd_perf_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
