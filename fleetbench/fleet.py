"""The system under test and the closed loop that drives it.

``Cluster`` brings up the real thing: a 2-shard, process-transport,
pack-backed ``ClusterRouter`` with zero simulated cost, plus one
bootstrapped ``ClusterMapClient`` per client thread on ``fleet_sync``.
``run_loop`` drives it closed-loop from ``THREADS`` client threads: each
simulated vehicle waits for its answer before it asks again. Every
response is checked as it arrives (or, for SpatialQuery id sets, right
after the timer stops), and a failed check counts as a failed operation.

Memory and CPU are sampled from outside through ``/proc`` for this
process and ``multiprocessing.active_children()`` (the shard processes).
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster import ClusterMapClient, ClusterRouter
from repro.core.tiles import TileScheme
from repro.serve.api import GetTile, IngestPatch, SpatialQuery

from fleetbench.workloads import (
    QUERY_RADIUS_M,
    SHARDS,
    SYNC_STEP_TILES,
    THREADS,
    Inputs,
    patch_owners,
)

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")
ns = time.perf_counter_ns


# ---------------------------------------------------------------------------
# Spans and /proc sampling
# ---------------------------------------------------------------------------

class SpanLog:
    """Spans kept in memory and written out as JSON lines at the end.

    A span is ``(id, parent, name, start_ns, end_ns)``; spans of one
    vehicle step or one ladder rung share their parent.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, int, int]] = []
        self._ids = itertools.count(1)

    def new_id(self) -> int:
        return next(self._ids)

    def add(self, name: str, start: int, end: int, parent: int = 0,
            span_id: int = 0) -> int:
        span_id = span_id or next(self._ids)
        self.spans.append((span_id, parent, name, start, end))
        return span_id

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start_ns": start,
                                     "end_ns": end}) + "\n")


def _stat(pid: int) -> Optional[Tuple[float, int]]:
    """(CPU seconds, RSS bytes) of one process, or None if it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None
    # fields[0] is stat field 3 (state): utime/stime are 14/15, rss 24
    cpu = (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return cpu, int(fields[21]) * _PAGE


class ProcSampler:
    """Peak summed RSS of this process and its children (the shard
    processes), sampled every ``interval_s`` in the background between
    ``start`` and ``stop``, and their CPU time on demand."""

    def __init__(self, interval_s: float = 0.1) -> None:
        self.interval_s = interval_s
        self.peak_rss = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._host: List[Tuple[int, int]] = []

    def cpu(self) -> Dict[int, float]:
        """CPU seconds per live pid; also updates the RSS peak."""
        pids = [os.getpid()] + [p.pid for p in
                                multiprocessing.active_children()]
        cpu, rss = {}, 0
        for pid in pids:
            got = _stat(pid)
            if got is not None:
                cpu[pid] = got[0]
                rss += got[1]
        self.peak_rss = max(self.peak_rss, rss)
        return cpu

    @staticmethod
    def used(first: Dict[int, float],
             last: Dict[int, float]) -> Tuple[float, float]:
        """(this process, shard processes) CPU seconds between two
        ``cpu()`` readings."""
        me = os.getpid()
        used = {pid: last[pid] - first[pid] for pid in last if pid in first}
        return used.get(me, 0.0), sum(v for pid, v in used.items()
                                      if pid != me)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.cpu()

    @staticmethod
    def _host_ticks() -> Tuple[int, int]:
        """(steal, all) ticks of the whole guest from ``/proc/stat``."""
        with open("/proc/stat") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:]]
        return ticks[7], sum(ticks)

    def steal_share(self) -> float:
        """Share of the guest's CPU time the host took while sampling."""
        (s0, t0), (s1, t1) = self._host
        return (s1 - s0) / max(1, t1 - t0)

    def start(self) -> None:
        self._host = [self._host_ticks()]
        self.cpu()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="fleetbench-sampler")
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        self.cpu()
        self._host.append(self._host_ticks())


#: CPU microseconds one ``HostGauge`` kernel call takes on the reference
#: host. Times are scaled by ``REF_KERNEL_US`` / the gauge's readings
#: around them, which takes out part of the host's drift.
REF_KERNEL_US = 5000.0
#: target length of one measured window, seconds
WINDOW_S = 0.5


def _kernel() -> int:
    """Fixed interpreter work: the same on every commit of the program."""
    total = 0
    for i in range(60_000):
        total += i * i
    return total


class HostGauge:
    """How fast this host runs interpreter code right now.

    On a shared, virtualised host the speed can drift by half over
    minutes, and every time measured on it moves with that drift, CPU
    time included. Each ``read`` runs a fixed kernel ``calls`` times on
    this thread and returns its median CPU microseconds per call.

    A time measured over a phase with readings spread through it is
    multiplied by ``scale(readings)``: ``REF_KERNEL_US`` / their median.
    That expresses it on a reference host where the kernel takes
    ``REF_KERNEL_US``. Pure interpreter work such as set-up moves with
    the kernel; the closed loop moves more than it.
    """

    def __init__(self, calls: int = 9) -> None:
        self.calls = calls
        self.readings: List[float] = []

    def read(self) -> float:
        lat = []
        for _ in range(self.calls):
            t0 = time.thread_time_ns()
            _kernel()
            lat.append(time.thread_time_ns() - t0)
        lat.sort()
        value = lat[len(lat) // 2] / 1e3
        self.readings.append(value)
        return value

    @staticmethod
    def scale(readings: List[float]) -> float:
        return REF_KERNEL_US / statistics.median(readings)


# ---------------------------------------------------------------------------
# The cluster
# ---------------------------------------------------------------------------

class Cluster:
    """One serving-ready cluster; ``setup_s`` is how long that took.

    Set-up covers ``TileStore.build`` and the pack write (both inside the
    router constructor), the shard spawns, the wait until every primary
    and replica answers, and the client bootstraps. World generation is
    input, not set-up.
    """

    def __init__(self, inputs: Inputs, pack_path: str) -> None:
        shape = inputs.shape
        t0 = time.perf_counter()
        self.router = ClusterRouter(
            inputs.world, n_shards=SHARDS, tile_size=shape.tile_size,
            replicas=shape.replicas, transport="process", n_workers=2,
            service_latency_s=0.0, storage_latency_s=0.0,
            pack_path=pack_path)
        try:
            # Every primary and replica answers a telemetry sweep, and
            # every primary serves one checked GetTile.
            self.router.harvest_telemetry()
            for shard in range(SHARDS):
                tile = next(t for t in inputs.tiles
                            if self.router.owner_of_tile(t) == shard)
                response = self.router.request(GetTile(tile, encoded=True))
                if not response.ok or response.payload != inputs.blobs[tile]:
                    raise RuntimeError(f"shard {shard} is not serving "
                                       f"tile {tile} correctly")
            self.clients: List[ClusterMapClient] = []
            if inputs.workload == "fleet_sync":
                self.clients = [ClusterMapClient(self.router)
                                for _ in range(THREADS)]
        except BaseException:
            self.router.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def close(self) -> None:
        self.router.close()


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class ThreadLog:
    """One client thread's latencies (ns), outcomes and spans."""

    def __init__(self, spans: Optional[SpanLog]) -> None:
        self.lat: Dict[str, List[int]] = defaultdict(list)
        self.steps: List[int] = []
        self.traced_steps: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.spans = spans
        self.parent = 0

    def op(self, kind: str, t0: int, t1: int, ok: bool,
           why: str = "") -> None:
        self.lat[kind].append(t1 - t0)
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{kind}: {why}")
        if self.parent:
            self.spans.add(f"client.{kind}", t0, t1, self.parent)


class LoopResult:
    """Merged outcome of one closed-loop phase, or of several
    (``merge``)."""

    def __init__(self, logs: List[ThreadLog], elapsed_s: float,
                 cpu_s: Tuple[float, float], next_step: int = 0) -> None:
        self.elapsed_s = elapsed_s
        self.client_cpu_s, self.shard_cpu_s = cpu_s
        #: first step number no thread has run yet
        self.next_step = next_step
        self.lat: Dict[str, List[int]] = defaultdict(list)
        self.steps: List[int] = []
        self.traced_steps: List[int] = []
        self.attempted = self.failed = 0
        self.errors: List[str] = []
        for log in logs:
            self._add(log)

    def _add(self, log) -> None:
        for kind, values in log.lat.items():
            self.lat[kind].extend(values)
        self.steps.extend(log.steps)
        self.traced_steps.extend(log.traced_steps)
        self.attempted += log.attempted
        self.failed += log.failed
        self.errors.extend(log.errors)

    @classmethod
    def merge(cls, parts: List["LoopResult"]) -> "LoopResult":
        out = cls([], sum(p.elapsed_s for p in parts),
                  (sum(p.client_cpu_s for p in parts),
                   sum(p.shard_cpu_s for p in parts)),
                  max((p.next_step for p in parts), default=0))
        for part in parts:
            out._add(part)
        return out


Step = Callable[[int, int, ThreadLog], None]


class Fleet:
    """The per-workload vehicle step, plus checks that need the whole run."""

    def __init__(self, inputs: Inputs, cluster: Cluster) -> None:
        self.inputs = inputs
        self.router = cluster.router
        self.clients = cluster.clients
        self.read_kind = "spatial" if inputs.workload == "fleet_query" \
            else "gettile"
        self._scheme = TileScheme(inputs.shape.tile_size)
        # per-thread client vector after its last sync, and the highest
        # version each shard itself acknowledged for this thread's writes
        self._vector: List[Dict[int, int]] = [
            dict(c.vector) for c in self.clients]
        self._acked: List[Dict[int, int]] = [
            {} for _ in range(THREADS)]
        # (x, y, answered ids) of SpatialQueries, checked after the timer
        self._answers: List[List[Tuple[float, float, frozenset]]] = [
            [] for _ in range(THREADS)]
        self._vehicles = [list(range(t, len(inputs.poses), THREADS))
                          for t in range(THREADS)]
        self.step: Step = getattr(self, f"_{inputs.workload}")

    # -- reads ----------------------------------------------------------
    def _get_tile(self, tile, log: ThreadLog) -> None:
        t0 = ns()
        response = self.router.request(GetTile(tile, encoded=True))
        t1 = ns()
        ok = response.ok and response.payload == self.inputs.blobs[tile]
        log.op("gettile", t0, t1, ok,
               f"tile {tile}: status {response.status.value}")

    def _tile_fetch(self, tid: int, i: int, log: ThreadLog) -> None:
        stream = self.inputs.streams[tid]
        self._get_tile(stream[i % len(stream)], log)

    def _fleet_query(self, tid: int, i: int, log: ThreadLog) -> None:
        mine = self._vehicles[tid]
        poses = self.inputs.poses[mine[i % len(mine)]]
        x, y = poses[(i // len(mine)) % len(poses)]
        t0 = ns()
        response = self.router.request(SpatialQuery(x, y, QUERY_RADIUS_M))
        t1 = ns()
        if response.ok:
            ids = frozenset(e.id for e in response.payload)
            self._answers[tid].append((x, y, ids))
        log.op("spatial", t0, t1, response.ok,
               f"status {response.status.value}")

    # -- writes beside reads ---------------------------------------------
    def _fleet_sync(self, tid: int, i: int, log: ThreadLog) -> None:
        patch = self.inputs.patches[tid][i]
        acked = self._acked[tid]
        t0 = ns()
        response = self.router.request(IngestPatch(patch))
        t1 = ns()
        result = response.payload if response.ok else None
        ok = (result is not None and result.accepted
              and result.dropped_ops == 0)
        why = f"status {response.status.value} result {result}"
        owners = patch_owners(patch, self._scheme, self.router.owner_of_tile)
        if ok and len(owners) == 1:
            # A one-shard patch returns that shard's own new version,
            # which must be past every version it acknowledged before.
            shard = owners.pop()
            if result.version is None or \
                    result.version <= acked.get(shard, 0):
                ok, why = False, (f"shard {shard} acknowledged version "
                                  f"{result.version} after "
                                  f"{acked.get(shard, 0)}")
            else:
                acked[shard] = result.version
        log.op("ingest", t0, t1, ok, why)

        client = self.clients[tid]
        t0 = ns()
        try:
            client.sync()
            why = ""
        except Exception as exc:  # a failed sync is a failed operation
            why = f"{type(exc).__name__}: {exc}"
        t1 = ns()
        # The vector holds the versions the shards reported in their
        # deltas: it never goes backwards, and it covers every write of
        # this thread a shard acknowledged (read-your-writes).
        vector = client.vector
        before = self._vector[tid]
        if not why and any(vector.get(s, 0) < v for s, v in before.items()):
            why = f"version vector went backwards: {vector}"
        if not why and any(vector.get(s, 0) < v for s, v in acked.items()):
            why = f"sync {vector} misses acknowledged writes {acked}"
        self._vector[tid] = dict(vector)
        log.op("sync", t0, t1, not why, why)

        stream = self.inputs.streams[tid]
        for j in range(SYNC_STEP_TILES):
            self._get_tile(stream[i * SYNC_STEP_TILES + j], log)

    # -- checks after the timer -------------------------------------------
    def check_answers(self, logs: List[ThreadLog]) -> None:
        """Compare SpatialQuery id sets with the reference; each wrong
        answer turns one operation of that thread into a failure."""
        for tid, answers in enumerate(self._answers):
            for x, y, ids in answers:
                want = self.inputs.expected_ids(x, y)
                if ids != want:
                    log = logs[tid]
                    log.failed += 1
                    if len(log.errors) < 5:
                        log.errors.append(
                            f"spatial ({x:.1f},{y:.1f}): "
                            f"{len(want - ids)} missing, "
                            f"{len(ids - want)} unexpected ids")
            answers.clear()

    def final_checks(self) -> List[str]:
        """End-of-run invariants; returns the violations."""
        problems: List[str] = []
        if not self.clients:
            return problems
        merged, _ = self.router.bootstrap()
        present = {e.id for e in merged.elements()}
        for tid, client in enumerate(self.clients):
            client.sync()
            if not client.is_consistent():
                problems.append(f"client {tid} is not consistent after a "
                                f"final sync")
        for thread in self.inputs.patches:
            for patch in thread:
                for op in patch.ops:
                    if op.element.id not in present:
                        problems.append(f"ingested {op.element.id} is "
                                        f"missing from the cluster")
                        return problems
        return problems


def run_loop(fleet: Fleet, steps: Optional[int], seconds: float,
             start: int = 0, spans: Optional[SpanLog] = None,
             sampler: Optional[ProcSampler] = None) -> LoopResult:
    """Drive ``THREADS`` closed-loop clients.

    Each thread runs ``steps`` vehicle steps, numbered from ``start``, or
    as many as fit in ``seconds`` when ``steps`` is None. With ``spans``,
    every other step is traced (a step span parenting one span per
    operation), so traced and untraced steps interleave over the same
    state and their latency ratio is the tracing overhead. With
    ``sampler``, the CPU time of this process and the shards over the
    loop is recorded.
    """
    logs = [ThreadLog(spans) for _ in range(THREADS)]
    barrier = threading.Barrier(THREADS + 1)
    box = {}
    last = [start] * THREADS

    def client(tid: int) -> None:
        log = logs[tid]
        step = fleet.step
        barrier.wait()
        end = box["end"]
        i = start
        while (i < start + steps) if steps is not None else (ns() < end):
            traced = spans is not None and i % 2 == 1
            if traced:
                log.parent = spans.new_id()
            t0 = ns()
            step(tid, i, log)
            t1 = ns()
            if traced:
                spans.add(f"step.{fleet.inputs.workload}", t0, t1,
                          span_id=log.parent)
                log.parent = 0
                log.traced_steps.append(t1 - t0)
            else:
                log.steps.append(t1 - t0)
            i += 1
        last[tid] = i

    threads = [threading.Thread(target=client, args=(t,), daemon=True,
                                name=f"fleetbench-client-{t}")
               for t in range(THREADS)]
    for t in threads:
        t.start()
    cpu0 = sampler.cpu() if sampler is not None else {}
    t0 = time.perf_counter()
    box["end"] = ns() + int(seconds * 1e9)
    barrier.wait()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    cpu = (0.0, 0.0)
    if sampler is not None:
        cpu = sampler.used(cpu0, sampler.cpu())
    fleet.check_answers(logs)
    return LoopResult(logs, elapsed, cpu, max(last))


def measure(fleet: Fleet, seconds: float, gauge: HostGauge,
            sampler: ProcSampler, spans: Optional[SpanLog] = None
            ) -> Tuple[LoopResult, List[float]]:
    """The measured phase: closed-loop windows of about ``WINDOW_S`` each,
    with a ``gauge`` reading before the first and after every window, so
    the readings cover the phase evenly.

    Returns the merged loop and the phase's gauge readings.
    ``fleet_sync`` windows are a fixed number of steps (its
    ``sync_steps`` split evenly); the other workloads' windows are a
    fixed time.
    """
    inputs = fleet.inputs
    n = max(1, int(round(seconds / WINDOW_S)))
    total = inputs.sync_steps
    start = inputs.shape.warmup_steps
    windows: List[LoopResult] = []
    readings = [gauge.read()]
    sampler.start()
    try:
        for k in range(n):
            steps = (total * (k + 1) // n - total * k // n) if total \
                else None
            window = run_loop(fleet, steps, seconds / n, start=start,
                              spans=spans, sampler=sampler)
            start = window.next_step
            windows.append(window)
            readings.append(gauge.read())
    finally:
        sampler.stop()
    return LoopResult.merge(windows), readings
