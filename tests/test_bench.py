"""repro.bench: every scenario on tiny inputs, correctness rows only.

Threshold rows (speedups, budgets) need realistic inputs and live in
the S-series benchmarks; here each scenario runs small and fast, and the
tests assert the rows that must hold at any size.
"""

import json
import tempfile
from functools import partial

import numpy as np
import pytest

from repro import bench
from repro.chaos import ChaosWorkload
from repro.cli import main
from repro.cluster import ClusterRouter
from repro.storage import save_map
from repro.world.scenario import ChangeSpec, apply_changes


def _verdict(table, quantity):
    """The verdict of the one row whose quantity starts with ``quantity``."""
    rows = [r for r in table.rows if r.quantity.startswith(quantity)]
    assert len(rows) == 1, (quantity, [r.quantity for r in table.rows])
    return rows[0].ok


@pytest.fixture(autouse=True)
def _isolate_obs(monkeypatch):
    """Scenarios log into the process-wide event log and tracer: keep
    their events and per-level counts (quarantines log errors) out of
    later tests."""
    from repro.obs import EVENT_LOG, TRACER
    from repro.obs.metrics import Counter

    monkeypatch.setattr(EVENT_LOG, "counts_by_level", {
        level: Counter() for level in EVENT_LOG.counts_by_level})
    yield
    TRACER.configure(enabled=False, reset=True)
    EVENT_LOG.clear()


@pytest.fixture
def make_router(city):
    return partial(ClusterRouter, city, tile_size=120.0, transport="local")


def test_fleet_serve_clients_stay_consistent(city):
    table = bench.fleet_serve(city, (1,), tile_size=250.0, vehicles=2,
                              route_length_m=300.0, service_latency_s=0.0,
                              storage_latency_s=0.0, seed=3, check=False)
    assert _verdict(table, "clients consistent") is True
    assert _verdict(table, "out-of-order versions") is True
    assert _verdict(table, "handler errors") is True
    assert _verdict(table, "cache hit rate") is None  # reported only


def test_ingest_run_applies_each_change_once(city):
    scenario = apply_changes(city, ChangeSpec(remove_signs=1, add_signs=1),
                             np.random.default_rng(7))
    table = bench.ingest_run(
        scenario, (2,), tile_size=250.0, vehicles=2, routes=1,
        route_length_m=300.0, duplicate_rate=0.3, stage_latency_s=0.0,
        max_batch=16, seed=7, drain_timeout_s=30.0, check=False)
    assert _verdict(table, "buses drained") is True
    assert _verdict(table, "duplicate applied patches") is True
    assert _verdict(table, "dead letters") is True


def test_verify_overhead_gate_quarantines_only_corrupt(city):
    table = bench.verify_overhead(city, max_overhead=100.0, seed=7,
                                  n_patches=30, reps=1)
    assert _verdict(table, "clean patches falsely quarantined") is True
    assert _verdict(table, "clean patches passed") is True
    assert _verdict(table, "corrupt patch quarantined") is True


def test_chaos_matrix_inert_run_is_byte_identical(city):
    workload = ChaosWorkload(vehicles=1, routes_per_vehicle=1,
                             route_length_m=300.0, seed=7)
    table = bench.chaos_matrix(city, {"sensor"}, seed=7, workload=workload)
    assert _verdict(table, "sensor: invariants certified") is True
    assert _verdict(table, "faults-disabled: invariants") is True
    assert _verdict(table, "faults-disabled parity") is True


def test_shard_sweep_reads_without_errors(make_router):
    table = bench.shard_sweep(
        partial(make_router, service_latency_s=0.005), (1, 2), 16, 4,
        min_scaling=1.0, check=False)
    assert _verdict(table, "sweep read errors") is True


def test_read_path_scatters_and_coalesces_faithfully(make_router):
    table = bench.read_path(make_router, 24, 4, service_latency_s=0.005,
                            broadcasts=2, min_replica_speedup=1.0,
                            min_scatter_speedup=1.0, check=False)
    assert _verdict(table, "replica suite read errors") is True
    assert _verdict(table, "ChangesSince broadcasts with one delta") is True
    assert _verdict(table, "coalesced response divergence") is True


def test_cluster_trace_reconstructs_the_exact_chain(make_router):
    table = bench.cluster_trace(
        partial(make_router, n_shards=2, service_latency_s=0.005),
        sample_rate=0.5, rounds=1,
        round_requests=8, clients=2, max_overhead=10.0, check=False)
    assert _verdict(table, "read errors") is True
    assert _verdict(table, "merged span dump structurally clean") is True
    assert _verdict(table, "cross-transport parent chain") is True
    assert _verdict(table, "telemetry spans harvested") is None


def test_pack_serving_is_zero_copy_with_one_cold_decode(city):
    table = bench.pack_serving(
        city, tile_size=250.0, requests=10, workers=1, target_elements=2000,
        delta_ops=3, delta_seed=0, min_speedup=0.0,
        max_bytes_per_tile=1e9, cold_start_budget_s=1.0,
        max_delta_ratio=1.0, check=False)
    assert _verdict(table, "pack payload parity") is True
    assert _verdict(table, "encoded GetTile request errors") is True
    assert _verdict(table, "payload is a pack mmap slice") is True
    assert _verdict(table, "cold-start tile decoded") is True
    assert _verdict(table, "cold-start tile decodes") is True
    assert _verdict(table, "cold start: open + one tile") is None


class TestPackBenchCli:
    @pytest.fixture
    def args(self, city, tmp_path, monkeypatch):
        path = tmp_path / "city.json"
        save_map(city, path)
        # every temporary directory the bench makes lands here
        (tmp_path / "tmp").mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        return ["pack-bench", str(path), "--requests", "10",
                "--target-elements", "2000", "--delta-ops", "3"]

    def test_check_writes_shared_report_and_cleans_up(self, args, tmp_path):
        out = tmp_path / "PACK_BENCH.json"
        assert main(args + ["--min-speedup", "0", "--check",
                            "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(report) == {"experiment_id", "title", "inputs", "rows",
                               "ok"}
        assert report["ok"] is True
        assert report["inputs"]["target_elements"] == 2000
        assert all(set(row) == {"quantity", "paper", "measured", "ok"}
                   for row in report["rows"])
        assert list((tmp_path / "tmp").iterdir()) == []

    def test_thresholds_gate_only_under_check(self, args, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        unreachable = ["--min-speedup", "1e9", "--out", out]
        assert main(args + unreachable) == 0
        assert main(args + unreachable + ["--check"]) == 1
        assert "PACK BENCH FAILED: encoded GetTile, pack path" in \
            capsys.readouterr().err
