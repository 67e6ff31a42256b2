"""The benchmark's own checks, at small scale and on a seed that was not
used while the benchmark was tuned.

    PYTHONPATH=src python -m pytest fleetbench -q
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.cluster import ClusterRouter  # noqa: E402
from repro.serve.api import GetTile, IngestPatch, Response, \
    SpatialQuery  # noqa: E402
from repro.update.distribution import IngestResult  # noqa: E402

from fleetbench import run as bench  # noqa: E402
from fleetbench.ladder import CATALOGUE  # noqa: E402
from fleetbench.workloads import WORKLOADS, build_inputs  # noqa: E402

SEED = 90210


def _run(workload: str, trace: bool) -> dict:
    return bench.run(workload, SEED, seconds=1.0, trace=trace, small=True,
                     out=io.StringIO())


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_hold_on_an_unseen_seed(workload, trace):
    result = _run(workload, trace)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] > 0
    names = [m[0] for m in (CATALOGUE if trace else bench.END_TO_END)]
    assert list(result["metrics"]) == names
    # the write-path latencies exist only where writes are issued
    unissued = set() if workload == "fleet_sync" else {
        "fleet.ingest_p50_us", "fleet.sync_p50_us"}
    for name, unit, *_ in (CATALOGUE if trace else bench.END_TO_END):
        value = result["metrics"][name]["value"]
        assert result["metrics"][name]["unit"] == unit
        if unit in ("s", "us", "ops/s", "MB") and name not in unissued:
            assert value > 0, name


def _corrupt_once(monkeypatch, kind, corrupt, after: int = 12) -> None:
    """Make the router return one corrupted ``kind`` response."""
    real = ClusterRouter.request
    seen = {"n": 0}

    def request(self, req):
        response = real(self, req)
        if isinstance(req, kind) and response.ok:
            seen["n"] += 1
            if seen["n"] == after:
                payload = corrupt(response.payload)
                if payload is None:
                    seen["n"] -= 1  # nothing to corrupt; try the next one
                else:
                    response = Response(response.status, payload,
                                        response.version)
        return response

    monkeypatch.setattr(ClusterRouter, "request", request)


def test_corrupted_tile_is_caught(monkeypatch):
    _corrupt_once(monkeypatch, GetTile,
                  lambda p: bytes([p[0] ^ 0xFF]) + bytes(p[1:]))
    result = _run("tile_fetch", trace=False)
    assert result["failed"] == 1
    assert not result["correct"]


def test_corrupted_spatial_answer_is_caught(monkeypatch):
    _corrupt_once(monkeypatch, SpatialQuery,
                  lambda p: list(p[1:]) if p else None)
    result = _run("fleet_query", trace=False)
    assert result["failed"] == 1
    assert not result["correct"]


def test_stale_shard_version_on_ingest_is_caught(monkeypatch):
    # only a one-shard patch carries its shard's version
    _corrupt_once(monkeypatch, IngestPatch,
                  lambda r: IngestResult(True, 0, 0)
                  if r.version is not None else None, after=4)
    result = _run("fleet_sync", trace=False)
    assert result["failed"] == 1
    assert not result["correct"]


def test_inputs_come_from_the_seed():
    a = build_inputs("fleet_sync", SEED, 1.0, small=True)
    b = build_inputs("fleet_sync", SEED, 1.0, small=True)
    c = build_inputs("fleet_sync", SEED + 1, 1.0, small=True)

    def signs(inputs):
        return [(op.element.id, tuple(op.element.position))
                for thread in inputs.patches for p in thread for op in p.ops]

    assert a.blobs == b.blobs and a.streams == b.streams
    assert signs(a) == signs(b)
    assert signs(a) != signs(c)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "fleetbench", tmp_path / "fleetbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "fleetbench/run.py", "--workload", "tile_fetch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [m[:3] for m in CATALOGUE]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
