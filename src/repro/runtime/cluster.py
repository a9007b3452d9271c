"""Sharded multi-worker serving: the scale-out tier above the engine.

:class:`ServingCluster` spreads the serving catalogue across a pool of
worker *processes*.  Each worker owns one pinned
:class:`~repro.api.Session` — rebuilt inside the worker from a picklable
:class:`~repro.api.SessionHandle`, with its own scoped analytic and frame
caches and process-local hot-path memos — wrapped in a
:class:`~repro.runtime.engine.ServingEngine` with ``instances_per_worker``
simulated accelerator instances.  The cluster is to the engine what the
engine is to one processor: the engine batches requests across instances,
the cluster shards streams across engines.

Semantics (documented in ``docs/serving.md``):

* **Routing** — streams (for analytic serving) and workloads (for pixel
  serving) are assigned to shards by highest-random-weight hashing over
  the live shards; stream assignment additionally balances the number of
  streams per shard (ties break by hash rank).  Assignments are sticky, so
  a stream's requests stay ordered on one shard and a workload's frame
  cache stays hot on one worker, and they only move when a shard dies.
* **Backpressure** — every shard fronts a bounded
  :class:`~repro.runtime.scheduler.RequestQueue`; when a shard's queue is
  at ``max_pending`` requests, :meth:`ServingCluster.submit` raises
  :class:`ClusterBackpressure` instead of buffering unboundedly.
* **Failure recovery** — a worker that dies or stops answering is marked
  dead; its queued requests and in-flight dispatches are requeued onto the
  remaining live shards (the ``requeued`` counter in
  :class:`ClusterStats` records how many), and routing re-assigns its
  streams/workloads.  The cluster only fails when no shard is left.
* **Fallback** — worker processes are started with the cheapest available
  start method (``fork`` where the platform allows, so workers inherit the
  parent's warm memos; ``spawn`` otherwise).  Sandboxes that forbid
  spawning processes fall back to in-process shards transparently
  (``mode == "inline"``), mirroring :class:`~repro.runtime.sweep.ParallelSweep`.
* **Fault injection** — the chaos surface the soak harness
  (:mod:`repro.soak`) drives.  :meth:`ServingCluster.kill_worker` kills a
  live worker (the OS process in process mode — death is *discovered* at
  the next dispatch, exactly like a real crash — or an immediate
  mark-dead inline), :meth:`ServingCluster.saturate_shard` clamps one
  shard's admission bound so the next submit raises
  :class:`ClusterBackpressure` (:meth:`ServingCluster.restore_shards`
  lifts the clamp), :meth:`ServingCluster.flip_mode` tears every live
  shard down and rebuilds it in the opposite worker mode without losing a
  queued request, and :meth:`ServingCluster.evict_frame_caches` drops the
  workers' pixel caches — whole-frame cache *and* video-stream delta
  state, through the one shared invalidation path
  (:meth:`repro.api.Session.evict_pixel_caches`).  A pluggable ``fault_hook`` callable is
  invoked at documented points inside :meth:`ServingCluster.run`
  (``"run:start"``, ``"run:round"``) so tests and chaos controllers can
  inject failures deterministically *while requests are in flight*.

Outputs are bit-identical to a single-process
:class:`~repro.runtime.engine.ServingEngine` on the same backend — every
worker runs the very same deterministic execution paths — which the
``cluster_scale`` bench scenario re-verifies on every run.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import queue as queue_module
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.api.results import PlanHandle
from repro.api.session import FrameCacheStats, Session, SessionHandle
from repro.core.pipeline import InferenceResult
from repro.hw.config import DEFAULT_CONFIG, EcnnConfig
from repro.nn.tensor import FeatureMap
from repro.runtime.cache import CacheStats, ResultCache
from repro.runtime.engine import ServingEngine, ServingReport
from repro.runtime.scheduler import QueueFull, RequestQueue, policy_key
from repro.runtime.trace import TrafficTrace
from repro.runtime.video import StreamFrameResult, VideoStreamStats
from repro.runtime.workloads import WorkloadProfile


class ClusterError(RuntimeError):
    """The cluster cannot serve: no live shard is left (or it is closed)."""


class ClusterBackpressure(QueueFull):
    """A shard's bounded queue refused admission (drain or retry later)."""


class ClusterWorkerError(RuntimeError):
    """A worker raised while executing a command (the work itself failed)."""


class _ShardFailure(Exception):
    """Internal: the shard (not the work) failed — requeue elsewhere."""


#: Exception types a worker may legitimately raise for *bad requests*; they
#: re-raise under the same type at the coordinator so callers see the usual
#: contract (unknown workload -> KeyError, recognition pixels -> ValueError).
_RERAISABLE = {"ValueError": ValueError, "KeyError": KeyError, "TypeError": TypeError}

#: Request id of the one-time worker startup acknowledgement.
_READY = -1


def _describe_error(exc: BaseException) -> Tuple[str, str]:
    return (type(exc).__name__, str(exc))


def _reraise(kind: str, message: str) -> None:
    if kind in _RERAISABLE:
        raise _RERAISABLE[kind](message)
    raise ClusterWorkerError(f"{kind}: {message}")


# --------------------------------------------------------------------- worker
@dataclass(frozen=True)
class _WorkerSnapshot:
    """Cache counters reported by one worker's ``stats`` command."""

    cache: CacheStats
    frame_cache: FrameCacheStats
    #: Delta-reuse counters of the worker's live video streams.
    video_streams: Tuple[VideoStreamStats, ...] = ()


class _WorkerState:
    """Everything one worker owns: pinned session, engine, warm plans."""

    def __init__(
        self,
        handle: SessionHandle,
        instances: int,
        max_batch_frames: int,
        warm_plans: Tuple[PlanHandle, ...],
        policy: str = "fifo",
    ) -> None:
        self.session = handle.create()
        self.engine = ServingEngine(
            num_instances=instances,
            max_batch_frames=max_batch_frames,
            backend=self.session,
            policy=policy,
        )
        # Warm the per-worker hot path: serving profiles for the whole
        # catalogue (what the scheduler charges) and compiled plans for the
        # named pixel workloads, so the first dispatched request pays no
        # cold-build latency.  Under the fork start method the process
        # memos arrive pre-warmed from the parent and this is nearly free.
        for name in self.session.catalogue():
            self.session.serving_profile(name)
        for plan in warm_plans:
            plan.resolve(self.session)


def _execute_command(state: _WorkerState, command: str, payload: Any) -> Any:
    """The one dispatch table shared by process workers and inline shards."""
    if command == "run":
        for stream_id, workload_name, frames, arrival_s, deadline_s, priority in payload:
            state.engine.submit(
                stream_id,
                workload_name,
                frames=frames,
                arrival_s=arrival_s,
                deadline_s=deadline_s,
                priority=priority,
            )
        return state.engine.run()
    if command == "execute_frame":
        workload_name, frame, cached = payload
        return state.engine.execute_frame(workload_name, frame, cached=cached)
    if command == "execute_frames":
        workload_name, frames, cached = payload
        return state.engine.execute_frames(workload_name, frames, cached=cached)
    if command == "execute_stream":
        stream_id, workload_name, frame, threshold, metric, output_block = payload
        return state.engine.execute_stream(
            stream_id,
            workload_name,
            frame,
            threshold=threshold,
            metric=metric,
            output_block=output_block,
        )
    if command == "profile":
        return state.session.serving_profile(payload)
    if command == "stats":
        return _WorkerSnapshot(
            cache=state.session.cache.stats,
            frame_cache=state.session.frame_cache_stats,
            video_streams=state.session.video_stream_stats,
        )
    if command == "evict_frame_cache":
        # One shared invalidation path: the whole-frame cache and every
        # video stream's block cache (plus its predecessor frame) drop
        # together, so a chaos eviction can never leave a stale delta
        # block servable (see Session.evict_pixel_caches).
        return state.session.evict_pixel_caches()
    if command == "ping":
        return "pong"
    raise ValueError(f"unknown cluster command {command!r}")


def _worker_main(
    handle: SessionHandle,
    instances: int,
    max_batch_frames: int,
    warm_plans: Tuple[PlanHandle, ...],
    policy: str,
    task_queue: Any,
    result_queue: Any,
) -> None:
    """Worker process entry point: build state, ack, serve the command loop."""
    try:
        state = _WorkerState(handle, instances, max_batch_frames, warm_plans, policy)
    except Exception as exc:  # startup failed: report instead of dying silently
        result_queue.put((_READY, False, _describe_error(exc)))
        return
    result_queue.put((_READY, True, None))
    while True:
        message = task_queue.get()
        if message is None:
            return
        request_id, command, payload = message
        try:
            result_queue.put((request_id, True, _execute_command(state, command, payload)))
        except Exception as exc:
            result_queue.put((request_id, False, _describe_error(exc)))


# --------------------------------------------------------------------- shards
class _InlineShard:
    """An in-process shard: same dispatch table, no process boundary."""

    def __init__(
        self,
        index: int,
        handle: SessionHandle,
        instances: int,
        max_batch_frames: int,
        warm_plans: Tuple[PlanHandle, ...],
        max_pending: Optional[int],
        policy: str = "fifo",
    ) -> None:
        self.index = index
        self.alive = True
        self.queue = RequestQueue(max_pending=max_pending, policy=policy)
        self._state = _WorkerState(handle, instances, max_batch_frames, warm_plans, policy)
        self._results: Dict[int, Tuple[bool, Any]] = {}
        self._next_id = 0

    def send(self, command: str, payload: Any) -> int:
        """Execute immediately (inline has no concurrency) and stash the result."""
        if not self.alive:
            # Same contract as a dead worker process: dispatching to a
            # killed inline shard is a shard failure, so chaos injection
            # (kill_worker, the run() fault hook) exercises the very same
            # recovery paths without needing real processes.
            raise _ShardFailure(f"shard {self.index} is dead")
        self._next_id += 1
        try:
            self._results[self._next_id] = (True, _execute_command(self._state, command, payload))
        except Exception as exc:
            self._results[self._next_id] = (False, _describe_error(exc))
        return self._next_id

    def receive(self, request_id: int, timeout_s: float) -> Any:
        ok, value = self._results.pop(request_id)
        if not ok:
            _reraise(*value)
        return value

    def close(self) -> None:
        self.alive = False


class _ProcessShard:
    """A shard backed by one worker process and a private queue pair."""

    #: Poll interval while waiting on the result queue; short enough that a
    #: killed worker is noticed promptly, long enough not to spin.
    _POLL_S = 0.1

    def __init__(
        self,
        index: int,
        context: Any,
        handle: SessionHandle,
        instances: int,
        max_batch_frames: int,
        warm_plans: Tuple[PlanHandle, ...],
        max_pending: Optional[int],
        policy: str = "fifo",
    ) -> None:
        self.index = index
        self.alive = True
        self.queue = RequestQueue(max_pending=max_pending, policy=policy)
        self._tasks = context.Queue()
        self._results = context.Queue()
        self._next_id = 0
        self._process = context.Process(
            target=_worker_main,
            args=(handle, instances, max_batch_frames, warm_plans, policy,
                  self._tasks, self._results),
            daemon=True,
            name=f"repro-cluster-shard-{index}",
        )
        self._process.start()

    def wait_ready(self, timeout_s: float) -> None:
        """Block until the worker acks its startup (raises on failure)."""
        request_id, ok, value = self._drain_until(_READY, timeout_s)
        if not ok:
            raise _ShardFailure(f"shard {self.index} failed to start: {value}")

    def send(self, command: str, payload: Any) -> int:
        if not self.alive:
            raise _ShardFailure(f"shard {self.index} is dead")
        self._next_id += 1
        try:
            self._tasks.put((self._next_id, command, payload))
        except (OSError, ValueError) as exc:
            raise _ShardFailure(f"shard {self.index}: cannot dispatch: {exc}") from exc
        return self._next_id

    def receive(self, request_id: int, timeout_s: float) -> Any:
        _, ok, value = self._drain_until(request_id, timeout_s)
        if not ok:
            _reraise(*value)
        return value

    def _drain_until(self, request_id: int, timeout_s: float) -> Tuple[int, bool, Any]:
        """Pull replies until ``request_id`` answers, watching worker health."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                message = self._results.get(timeout=self._POLL_S)
            except queue_module.Empty:
                if not self._process.is_alive():
                    raise _ShardFailure(
                        f"shard {self.index}: worker process died "
                        f"(exit code {self._process.exitcode})"
                    ) from None
                if time.monotonic() > deadline:
                    raise _ShardFailure(
                        f"shard {self.index}: no reply within {timeout_s:.0f}s"
                    ) from None
                continue
            if message[0] == request_id:
                return message
            # Stale reply from a call that was abandoned after a timeout.

    def close(self) -> None:
        self.alive = False
        if self._process.is_alive():
            try:
                self._tasks.put(None)
                self._process.join(timeout=5.0)
            except (OSError, ValueError):
                pass
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(timeout=5.0)
        # Drop the queue feeder threads so interpreter shutdown never blocks.
        for channel in (self._tasks, self._results):
            try:
                channel.cancel_join_thread()
                channel.close()
            except (OSError, ValueError):
                pass


# ------------------------------------------------------------------- reports
@dataclass(frozen=True)
class ShardStats:
    """One shard's health and counters inside :class:`ClusterStats`."""

    shard: int
    alive: bool
    #: Requests admitted but not yet drained into a schedule.
    queue_depth: int
    #: Streams currently routed to this shard.
    streams: Tuple[str, ...]
    served_requests: int
    served_frames: int
    #: Deadline-carrying requests served by this shard, and how many of
    #: them completed after their deadline (both 0 when no request carried
    #: a deadline — the historical FIFO paths).
    deadline_requests: int = 0
    deadline_misses: int = 0
    #: The worker session's analytic cache counters (``None`` for a dead shard).
    cache: Optional[CacheStats] = None
    #: The worker session's pixel frame-cache counters (``None`` for a dead shard).
    frame_cache: Optional[FrameCacheStats] = None
    #: Delta-reuse counters of the worker's video streams (empty for a dead
    #: shard or a worker that served no ``execute_stream`` traffic).
    video_streams: Tuple[VideoStreamStats, ...] = ()


@dataclass(frozen=True)
class ClusterStats:
    """Aggregated health of a :class:`ServingCluster`."""

    backend: str
    mode: str
    shards: Tuple[ShardStats, ...]
    #: Requests displaced by worker failures.  Each queued or in-flight
    #: request counts **once per serving call**, no matter how many shards
    #: die underneath it before it lands (a rapid double-kill moves a
    #: request twice but displaces it once) — so the counter reconciles
    #: against admissions: within one call, ``requeued`` can never exceed
    #: the number of distinct requests dispatched.
    requeued: int

    @property
    def workers(self) -> int:
        return len(self.shards)

    @property
    def live_workers(self) -> int:
        return sum(1 for shard in self.shards if shard.alive)

    @property
    def total_queue_depth(self) -> int:
        return sum(shard.queue_depth for shard in self.shards)

    @property
    def total_served_frames(self) -> int:
        return sum(shard.served_frames for shard in self.shards)

    @property
    def total_deadline_requests(self) -> int:
        return sum(shard.deadline_requests for shard in self.shards)

    @property
    def total_deadline_misses(self) -> int:
        return sum(shard.deadline_misses for shard in self.shards)

    @property
    def deadline_miss_rate(self) -> float:
        """Misses over deadline-carrying requests (0.0 when none carried one)."""
        carrying = self.total_deadline_requests
        return self.total_deadline_misses / carrying if carrying else 0.0

    def describe(self) -> str:
        described = (
            f"{self.live_workers}/{self.workers} workers live ({self.mode}), "
            f"{self.total_queue_depth} queued, "
            f"{self.total_served_frames} frames served, "
            f"{self.requeued} requeued"
        )
        if self.total_deadline_requests:
            described += (
                f", {self.total_deadline_misses}/{self.total_deadline_requests} "
                f"deadlines missed"
            )
        return described


@dataclass(frozen=True)
class ClusterReport:
    """Outcome of one :meth:`ServingCluster.run`: per-shard serving reports."""

    backend: str
    mode: str
    workers: int
    #: (shard index, that shard's engine report), sorted by shard index;
    #: shards that had no routed requests are omitted, and a shard that
    #: absorbed requeued work after a failure contributes one report per
    #: schedule it ran.
    shard_reports: Tuple[Tuple[int, ServingReport], ...]

    @property
    def total_frames(self) -> int:
        return sum(
            report.schedule.total_frames for _, report in self.shard_reports
        )

    @property
    def makespan_s(self) -> float:
        """Simulated wall time: shards serve concurrently from a shared origin."""
        return max(
            (report.schedule.makespan_s for _, report in self.shard_reports),
            default=0.0,
        )

    @property
    def throughput_fps(self) -> float:
        makespan = self.makespan_s
        return self.total_frames / makespan if makespan else 0.0

    @property
    def deadline_requests(self) -> int:
        return sum(r.schedule.deadline_requests for _, r in self.shard_reports)

    @property
    def deadline_misses(self) -> int:
        return sum(r.schedule.deadline_misses for _, r in self.shard_reports)

    @property
    def deadline_miss_rate(self) -> float:
        carrying = self.deadline_requests
        return self.deadline_misses / carrying if carrying else 0.0

    def render(self) -> str:
        """The CLI's per-shard throughput report."""
        from repro.analysis.report import format_table

        rows = []
        for shard, report in self.shard_reports:
            schedule = report.schedule
            streams = schedule.stream_stats()
            rows.append(
                (
                    shard,
                    "+".join(sorted(streams)),
                    len(schedule.records),
                    schedule.total_frames,
                    round(schedule.makespan_s * 1e3, 2),
                    round(schedule.throughput_fps, 1),
                    f"{report.cache.hit_rate:.0%}",
                )
            )
        table = format_table(
            "Per-shard serving report",
            ["shard", "streams", "requests", "frames", "makespan (ms)", "fps", "cache hits"],
            rows,
        )
        summary = (
            f"cluster served {self.total_frames} frames on {self.workers} "
            f"{self.backend} worker(s) ({self.mode} shards); "
            f"makespan {self.makespan_s * 1e3:.2f} ms, "
            f"aggregate {self.throughput_fps:.1f} fps"
        )
        return "\n\n".join([table, summary])


# -------------------------------------------------------------------- cluster
class ServingCluster:
    """Shard catalogue serving across a pool of worker processes.

    Parameters
    ----------
    workers:
        Number of shards (one pinned session + engine per shard).
    backend:
        Backend registry name, or a :class:`~repro.api.Session` whose
        :meth:`~repro.api.Session.handle` describes the workers' sessions.
    config:
        Hardware configuration forwarded to every worker session.
    instances_per_worker:
        Simulated accelerator instances inside each worker's engine.
    max_batch_frames:
        Scheduler batch budget inside each worker.
    max_pending:
        Bound of each shard's admission queue (requests); when a shard is
        full, :meth:`submit` raises :class:`ClusterBackpressure`.
    warm_plans:
        :class:`~repro.api.PlanHandle` list every worker resolves at
        startup, pre-compiling the pixel workloads it will serve.
    mode:
        ``"process"`` (require worker processes), ``"inline"`` (in-process
        shards, no parallelism — tests and constrained sandboxes), or
        ``"auto"`` (processes when the platform allows, inline fallback).
    policy:
        Queue/scheduler ordering inside every shard — ``"fifo"`` (default,
        bit-identical to the historical cluster) or ``"edf"`` for the SLO
        gateway's deadline-aware serving.
    start_timeout_s / call_timeout_s:
        How long to wait for worker startup acks / command replies before
        declaring a shard dead.
    fault_hook:
        Optional callable ``hook(cluster, point)`` invoked at documented
        injection points inside :meth:`run` (``"run:start"`` once per
        call, ``"run:round"`` before every dispatch round).  Chaos tests
        use it to kill shards deterministically while their requests are
        in flight; it must not submit or drain work itself.
    kernels:
        Compute-kernel set for the coordinator session (see
        :mod:`repro.kernels`); the resolved name travels in the session
        handle so worker processes rebuild with the same arithmetic.
        Ignored when ``backend`` is a pre-built session.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        backend: Union[str, Session] = "ecnn",
        config: EcnnConfig = DEFAULT_CONFIG,
        instances_per_worker: int = 1,
        max_batch_frames: int = 8,
        max_pending: Optional[int] = 256,
        warm_plans: Sequence[PlanHandle] = (),
        frame_cache_entries: Optional[int] = 64,
        mode: str = "auto",
        policy: str = "fifo",
        start_timeout_s: float = 120.0,
        call_timeout_s: float = 600.0,
        fault_hook: Optional[Callable[["ServingCluster", str], None]] = None,
        kernels: str = "auto",
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if instances_per_worker < 1:
            raise ValueError("instances_per_worker must be positive")
        if mode not in ("auto", "process", "inline"):
            raise ValueError(f"unknown cluster mode {mode!r}")
        policy_key(policy)  # validate eagerly
        if isinstance(backend, Session):
            self.session = backend
            self._handle = backend.handle()
        else:
            self.session = Session(
                backend=backend,
                config=config,
                cache=ResultCache(),
                frame_cache_entries=frame_cache_entries,
                kernels=kernels,
            )
            # handle() carries the coordinator's *resolved* kernel-set name,
            # so every worker process rebuilds with identical arithmetic.
            self._handle = self.session.handle()
        self.workers = workers
        self.instances_per_worker = instances_per_worker
        self.max_batch_frames = max_batch_frames
        self.max_pending = max_pending
        self.policy = policy
        self.call_timeout_s = call_timeout_s
        self.fault_hook = fault_hook
        self.requeued = 0
        self._closed = False
        self._deadline_misses: Dict[int, int] = {}
        self._deadline_requests: Dict[int, int] = {}
        self._stream_shard: Dict[str, int] = {}
        #: Live-stream count per shard index, maintained incrementally so
        #: balanced routing stays O(workers) per placement even with
        #: millions of streams (the soak harness's user populations).
        self._stream_counts: Dict[int, int] = {}
        self._workload_shard: Dict[str, int] = {}
        self._served_requests: Dict[int, int] = {}
        self._served_frames: Dict[int, int] = {}
        self._saturated: Set[int] = set()
        self._start_timeout_s = start_timeout_s
        warm = tuple(warm_plans)
        for plan in warm:
            if plan.backend != self.backend_name:
                raise ValueError(
                    f"warm plan {plan.workload!r} targets backend "
                    f"{plan.backend!r}, cluster runs {self.backend_name!r}"
                )
        self._warm = warm
        self.mode = "inline"
        self._shards: List[Any] = []
        if mode in ("auto", "process"):
            try:
                self._shards = self._start_processes(warm, start_timeout_s)
                self.mode = "process"
            except (_ShardFailure, OSError, ValueError, ImportError) as exc:
                for shard in self._shards:
                    shard.close()
                self._shards = []
                if mode == "process":
                    raise ClusterError(f"cannot start worker processes: {exc}") from exc
        if not self._shards:  # inline fallback (or explicit inline mode)
            self._shards = [
                _InlineShard(
                    index,
                    self._handle,
                    instances_per_worker,
                    max_batch_frames,
                    warm,
                    max_pending,
                    policy,
                )
                for index in range(workers)
            ]

    def _start_processes(
        self, warm: Tuple[PlanHandle, ...], start_timeout_s: float
    ) -> List[_ProcessShard]:
        import multiprocessing

        # fork inherits the parent's warm hot-path memos (network builds,
        # FBISA compilations) copy-on-write, making worker startup nearly
        # free; platforms without fork pay one cold build per worker.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        shards = [
            _ProcessShard(
                index,
                context,
                self._handle,
                self.instances_per_worker,
                self.max_batch_frames,
                warm,
                self.max_pending,
                self.policy,
            )
            for index in range(self.workers)
        ]
        try:
            for shard in shards:
                shard.wait_ready(start_timeout_s)
        except _ShardFailure:
            for shard in shards:
                shard.close()
            raise
        return shards

    # ------------------------------------------------------------- lifecycle
    @property
    def backend_name(self) -> str:
        return self.session.backend_name

    def __enter__(self) -> "ServingCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.close()

    def __del__(self) -> None:  # best-effort: never leak worker processes
        try:
            self.close()
        except Exception:
            pass

    def _check_open(self) -> None:
        if self._closed:
            raise ClusterError("the cluster is closed")

    # --------------------------------------------------------------- routing
    def _live_shards(self) -> List[Any]:
        live = [shard for shard in self._shards if shard.alive]
        if not live:
            raise ClusterError("no live shard left in the cluster")
        return live

    @staticmethod
    def _hash_rank(key: str, shard_index: int) -> int:
        digest = hashlib.sha256(f"{key}|{shard_index}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def _route_stream(self, stream_id: str) -> Any:
        """Sticky, balanced stream placement (see the module docstring)."""
        index = self._stream_shard.get(stream_id)
        if index is not None and self._shards[index].alive:
            return self._shards[index]
        live = self._live_shards()
        chosen = max(
            live,
            key=lambda shard: (
                -self._stream_counts.get(shard.index, 0),
                self._hash_rank(stream_id, shard.index),
            ),
        )
        if index is not None:  # moving off a dead shard
            self._stream_counts[index] = self._stream_counts.get(index, 1) - 1
        self._stream_shard[stream_id] = chosen.index
        self._stream_counts[chosen.index] = self._stream_counts.get(chosen.index, 0) + 1
        return chosen

    def _route_workload(self, workload_name: str) -> Any:
        """Sticky pure-HRW workload placement (frame-cache affinity)."""
        index = self._workload_shard.get(workload_name)
        if index is not None and self._shards[index].alive:
            return self._shards[index]
        live = self._live_shards()
        chosen = max(live, key=lambda shard: self._hash_rank(workload_name, shard.index))
        self._workload_shard[workload_name] = chosen.index
        return chosen

    def _mark_dead(self, shard: Any) -> None:
        shard.alive = False
        shard.close()

    # ------------------------------------------------------- fault injection
    def _fire_hook(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(self, point)

    def live_shard_indices(self) -> Tuple[int, ...]:
        """Indices of the shards still alive (chaos controllers pick victims)."""
        return tuple(shard.index for shard in self._shards if shard.alive)

    def kill_worker(self, shard_index: Optional[int] = None) -> int:
        """Chaos primitive: kill one live worker; returns the victim's index.

        In process mode the worker *process* is terminated but the shard is
        **not** marked dead — exactly like a real crash, death is discovered
        at the next dispatch, so in-flight and queued requests go through
        the ordinary requeue/recovery paths.  Inline shards have no process
        to kill, so they are marked dead immediately (their
        :meth:`_InlineShard.send` then raises the same shard failure).

        Refuses to kill the last live shard: the cluster's contract is that
        it only fails when *no* shard is left, and a chaos schedule that
        beheads the whole cluster is a broken schedule, not a survivable
        fault.
        """
        self._check_open()
        live = self._live_shards()
        if len(live) <= 1:
            raise ClusterError("refusing to kill the last live shard")
        if shard_index is None:
            victim = live[0]
        else:
            matches = [shard for shard in live if shard.index == shard_index]
            if not matches:
                raise ValueError(f"shard {shard_index} is not alive")
            victim = matches[0]
        if isinstance(victim, _ProcessShard):
            victim._process.terminate()
            victim._process.join(timeout=5.0)
        else:
            self._mark_dead(victim)
        return victim.index

    def saturate_shard(self, shard_index: Optional[int] = None) -> int:
        """Chaos primitive: clamp one live shard's admission bound to its
        current depth (at least 1), so its next :meth:`submit` raises
        :class:`ClusterBackpressure`.  Returns the saturated shard's index;
        :meth:`restore_shards` lifts every clamp.
        """
        self._check_open()
        live = self._live_shards()
        if shard_index is None:
            victim = live[0]
        else:
            matches = [shard for shard in live if shard.index == shard_index]
            if not matches:
                raise ValueError(f"shard {shard_index} is not alive")
            victim = matches[0]
        victim.queue.set_bound(max(1, len(victim.queue)))
        self._saturated.add(victim.index)
        return victim.index

    def restore_shards(self) -> Tuple[int, ...]:
        """Lift every :meth:`saturate_shard` clamp; returns restored indices."""
        self._check_open()
        restored = []
        for shard in self._shards:
            if shard.index in self._saturated and shard.alive:
                shard.queue.set_bound(self.max_pending)
                restored.append(shard.index)
        self._saturated.clear()
        return tuple(restored)

    def flip_mode(self) -> str:
        """Chaos primitive: rebuild every live shard in the opposite worker
        mode (``process`` ↔ ``inline``) without losing a queued request.

        Queued requests are held aside, the live shards are torn down and
        rebuilt under the target mode at the *same indices* (routing tables
        stay valid), and the held requests are resubmitted to their sticky
        owners.  If the target mode cannot start (sandboxes that forbid
        processes), the cluster stays in its current mode — the flip is a
        no-op, not a failure.  Returns the mode the cluster ends up in.
        """
        self._check_open()
        live = self._live_shards()
        target = "inline" if self.mode == "process" else "process"
        held: List[Tuple[str, str, int, float, float, int]] = []
        for shard in live:
            held.extend(
                (r.stream_id, r.workload, r.frames, r.arrival_s, r.deadline_s, r.priority)
                for r in shard.queue.drain()
            )
        replacements: Dict[int, Any] = {}
        try:
            if target == "process":
                import multiprocessing

                methods = multiprocessing.get_all_start_methods()
                context = multiprocessing.get_context(
                    "fork" if "fork" in methods else "spawn"
                )
                for shard in live:
                    replacements[shard.index] = _ProcessShard(
                        shard.index,
                        context,
                        self._handle,
                        self.instances_per_worker,
                        self.max_batch_frames,
                        self._warm,
                        self.max_pending,
                        self.policy,
                    )
                for replacement in replacements.values():
                    replacement.wait_ready(self._start_timeout_s)
            else:
                for shard in live:
                    replacements[shard.index] = _InlineShard(
                        shard.index,
                        self._handle,
                        self.instances_per_worker,
                        self.max_batch_frames,
                        self._warm,
                        self.max_pending,
                        self.policy,
                    )
        except (_ShardFailure, OSError, ValueError, ImportError):
            for replacement in replacements.values():
                replacement.close()
            replacements = {}
            target = self.mode  # flip unavailable: stay put
        if replacements:
            for shard in live:
                shard.close()
            self._shards = [
                replacements.get(shard.index, shard) for shard in self._shards
            ]
            self.mode = target
            self._saturated.clear()  # fresh queues carry the default bound
        for stream_id, workload_name, frames, arrival_s, deadline_s, priority in held:
            # Sticky owners survived the flip (same indices are alive) and
            # rebuilt queues carry the default bound; if the flip was a
            # no-op a saturated clamp may still be in force — widen it
            # rather than lose a request that was already admitted.
            shard = self._route_stream(stream_id)
            try:
                shard.queue.submit(
                    stream_id,
                    workload_name,
                    frames=frames,
                    arrival_s=arrival_s,
                    deadline_s=deadline_s,
                    priority=priority,
                )
            except QueueFull:
                shard.queue.set_bound(len(shard.queue) + 1)
                shard.queue.submit(
                    stream_id,
                    workload_name,
                    frames=frames,
                    arrival_s=arrival_s,
                    deadline_s=deadline_s,
                    priority=priority,
                )
        return self.mode

    def evict_frame_caches(self) -> int:
        """Chaos primitive: drop every live worker's pixel caches.

        One shared invalidation path per worker
        (:meth:`repro.api.Session.evict_pixel_caches`): the whole-frame
        cache and every video stream's delta state (block cache +
        predecessor frame) drop together, so a stream that survives the
        eviction recomputes its next frame in full instead of serving a
        stale block.  Returns the total number of evicted entries; a worker
        that fails to answer is marked dead (the usual failure contract).
        """
        self._check_open()
        dropped = 0
        for shard in list(self._live_shards()):
            try:
                dropped += shard.receive(
                    shard.send("evict_frame_cache", None), self.call_timeout_s
                )
            except _ShardFailure:
                self._mark_dead(shard)
        return dropped

    # ------------------------------------------------------------- admission
    def submit(
        self,
        stream_id: str,
        workload_name: str,
        *,
        frames: int = 1,
        arrival_s: float = 0.0,
        deadline_s: float = math.inf,
        priority: int = 0,
    ) -> int:
        """Admit one request; returns the owning shard's index.

        Raises :class:`ClusterBackpressure` when the owning shard's bounded
        queue is full — the caller should :meth:`run` (drain) or back off.
        """
        self._check_open()
        self.session.workload(workload_name)  # validate at the coordinator
        shard = self._route_stream(stream_id)
        try:
            shard.queue.submit(
                stream_id,
                workload_name,
                frames=frames,
                arrival_s=arrival_s,
                deadline_s=deadline_s,
                priority=priority,
            )
        except QueueFull as exc:
            raise ClusterBackpressure(
                f"shard {shard.index} is at capacity "
                f"({self.max_pending} pending requests)"
            ) from exc
        return shard.index

    def play(self, trace: TrafficTrace) -> int:
        """Replay a traffic trace into the shard queues; returns admissions."""
        for event in trace.events:
            self.submit(
                event.stream_id,
                event.workload,
                frames=event.frames,
                arrival_s=event.time_s,
            )
        return len(trace.events)

    def queue_depths(self) -> Dict[int, int]:
        """Pending (undrained) request count per shard index."""
        return {shard.index: len(shard.queue) for shard in self._shards}

    def route_stream(self, stream_id: str) -> int:
        """The shard index that would own ``stream_id``'s next request.

        Resolves (and pins) the stream's sticky placement without
        submitting anything — the SLO gateway asks this before deciding
        whether the owning shard can meet a deadline.
        """
        self._check_open()
        return self._route_stream(stream_id).index

    # --------------------------------------------------------------- serving
    def run(self) -> ClusterReport:
        """Drain every shard's queue through its worker engine and aggregate.

        Shards schedule concurrently (in process mode the workers really do
        run in parallel); a shard that fails mid-run has its requests
        requeued onto the remaining live shards.
        """
        self._check_open()
        self._fire_hook("run:start")
        # Every drained request carries a per-call token; ``counted`` keeps
        # the ``requeued`` counter at once-per-request semantics even when
        # several shards die underneath the same request (a rapid
        # double-kill moves it twice but displaces it once).
        tokens = itertools.count()
        counted: Set[int] = set()
        _Item = Tuple[str, str, int, float, float, int]
        _Tagged = Tuple[int, _Item]

        def displace(tagged: Sequence[_Tagged]) -> None:
            for token, _ in tagged:
                if token not in counted:
                    counted.add(token)
                    self.requeued += 1

        pending: Dict[int, Tuple[_Tagged, ...]] = {}
        orphaned: List[_Tagged] = []
        for shard in self._shards:
            if not len(shard.queue):
                continue
            drained = tuple(
                (
                    next(tokens),
                    (r.stream_id, r.workload, r.frames, r.arrival_s,
                     r.deadline_s, r.priority),
                )
                for r in shard.queue.drain()
            )
            if shard.alive:
                pending[shard.index] = drained
            else:
                # The shard died (marked by an earlier dispatch) with
                # requests still queued: requeue them onto live shards.
                displace(drained)
                orphaned.extend(drained)
        for token, item in orphaned:
            shard = self._route_stream(item[0])
            pending[shard.index] = pending.get(shard.index, ()) + ((token, item),)
        # A list, not a dict: after a failure the requeued requests run as a
        # *second* schedule on a surviving shard, so one shard index may
        # legitimately contribute more than one report.
        reports: List[Tuple[int, ServingReport]] = []
        while pending:
            self._fire_hook("run:round")
            in_flight: List[Tuple[Any, int, Tuple[_Tagged, ...]]] = []
            failed: List[_Tagged] = []
            for index, tagged in sorted(pending.items()):
                shard = self._shards[index]
                payload = tuple(item for _, item in tagged)
                try:
                    in_flight.append((shard, shard.send("run", payload), tagged))
                except _ShardFailure:
                    self._mark_dead(shard)
                    displace(tagged)
                    failed.extend(tagged)
            pending = {}
            for shard, request_id, tagged in in_flight:
                try:
                    report = shard.receive(request_id, self.call_timeout_s)
                except _ShardFailure:
                    self._mark_dead(shard)
                    displace(tagged)
                    failed.extend(tagged)
                    continue
                reports.append((shard.index, report))
                self._served_requests[shard.index] = (
                    self._served_requests.get(shard.index, 0) + len(tagged)
                )
                self._served_frames[shard.index] = (
                    self._served_frames.get(shard.index, 0)
                    + sum(item[2] for _, item in tagged)
                )
                self._deadline_misses[shard.index] = (
                    self._deadline_misses.get(shard.index, 0)
                    + report.schedule.deadline_misses
                )
                self._deadline_requests[shard.index] = (
                    self._deadline_requests.get(shard.index, 0)
                    + report.schedule.deadline_requests
                )
            if failed:
                # Re-route every failed request through the (now smaller)
                # live set; stream stickiness re-assigns dead placements.
                regrouped: Dict[int, List[_Tagged]] = {}
                for token, item in failed:
                    shard = self._route_stream(item[0])
                    regrouped.setdefault(shard.index, []).append((token, item))
                pending = {index: tuple(items) for index, items in regrouped.items()}
        return ClusterReport(
            backend=self.backend_name,
            mode=self.mode,
            workers=self.workers,
            shard_reports=tuple(sorted(reports, key=lambda pair: pair[0])),
        )

    # ---------------------------------------------------------------- pixels
    def _dispatch_with_recovery(self, route_key: str, command: str, payload: Any) -> Any:
        """Send a pixel command to the owning shard, failing over on death."""
        attempts = len(self._shards)
        for attempt in range(attempts):
            shard = self._route_workload(route_key)
            try:
                return shard.receive(shard.send(command, payload), self.call_timeout_s)
            except _ShardFailure:
                self._mark_dead(shard)
                if attempt == 0:
                    # One request displaced once, however many failovers it
                    # takes to land (see ClusterStats.requeued).
                    self.requeued += 1
        raise ClusterError("no live shard left in the cluster")

    def execute_frame(
        self,
        workload_name: str,
        image: FeatureMap,
        *,
        cached: bool = True,
    ) -> InferenceResult:
        """Run one frame on the shard owning this workload.

        Same contract (and bit-identical pixels) as
        :meth:`~repro.runtime.engine.ServingEngine.execute_frame`; repeats
        of a frame hit the owning worker's bounded frame cache.
        """
        self._check_open()
        self.session.workload(workload_name)
        result = self._dispatch_with_recovery(
            workload_name, "execute_frame", (workload_name, image, cached)
        )
        shard_index = self._workload_shard[workload_name]
        self._served_frames[shard_index] = self._served_frames.get(shard_index, 0) + 1
        return result

    def execute_frames(
        self,
        workload_name: str,
        images: Sequence[FeatureMap],
        *,
        cached: bool = True,
    ) -> List[InferenceResult]:
        """Serve a batch of frames scattered across all live shards.

        Unlike :meth:`execute_frame` (sticky placement, cache affinity) the
        batch path optimizes throughput: frames are split into one
        contiguous chunk per live shard and the chunks execute
        concurrently, each through the worker's fused cross-frame batch
        path.  Results come back in input order, bit-identical to
        per-frame execution.
        """
        self._check_open()
        self.session.workload(workload_name)
        images = list(images)
        if not images:
            return []
        results: List[Optional[InferenceResult]] = [None] * len(images)
        remaining = list(range(len(images)))
        displaced: Set[int] = set()  # frame indices already counted requeued

        def displace(indices: Sequence[int]) -> None:
            for index in indices:
                if index not in displaced:
                    displaced.add(index)
                    self.requeued += 1

        while remaining:
            live = self._live_shards()
            # One contiguous chunk of the still-missing indices per live
            # shard; only lost chunks are ever retried, so a surviving
            # shard's finished work is neither recomputed nor re-counted.
            chunks: List[Tuple[Any, List[int]]] = []
            base, remainder = divmod(len(remaining), len(live))
            start = 0
            for position, shard in enumerate(live):
                size = base + (1 if position < remainder else 0)
                if size:
                    chunks.append((shard, remaining[start : start + size]))
                    start += size
            in_flight: List[Tuple[Any, int, List[int]]] = []
            for shard, indices in chunks:
                try:
                    request_id = shard.send(
                        "execute_frames",
                        (workload_name, [images[i] for i in indices], cached),
                    )
                    in_flight.append((shard, request_id, indices))
                except _ShardFailure:
                    self._mark_dead(shard)
                    displace(indices)
            for shard, request_id, indices in in_flight:
                try:
                    chunk = shard.receive(request_id, self.call_timeout_s)
                except _ShardFailure:
                    self._mark_dead(shard)
                    displace(indices)
                    continue
                for index, result in zip(indices, chunk):
                    results[index] = result
                self._served_frames[shard.index] = (
                    self._served_frames.get(shard.index, 0) + len(indices)
                )
            remaining = [index for index in remaining if results[index] is None]
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    def execute_stream(
        self,
        stream_id: str,
        workload_name: str,
        image: FeatureMap,
        *,
        threshold: float = 0.0,
        metric: str = "mae",
        output_block: Optional[int] = None,
    ) -> StreamFrameResult:
        """Serve a video stream's next frame on the shard owning the stream.

        Routing is the *sticky stream* placement (not the workload hash):
        ordered frames of one stream land on one worker, so the stream's
        predecessor frame and block cache stay shard-local.  If the owning
        shard dies the stream fails over to a live shard, whose fresh
        stream state recomputes the next frame in full — failover costs
        reuse, never correctness.
        """
        self._check_open()
        self.session.workload(workload_name)
        payload = (str(stream_id), workload_name, image, threshold, metric, output_block)
        for attempt in range(len(self._shards)):
            shard = self._route_stream(str(stream_id))
            try:
                result = shard.receive(
                    shard.send("execute_stream", payload), self.call_timeout_s
                )
            except _ShardFailure:
                self._mark_dead(shard)
                if attempt == 0:
                    self.requeued += 1
                continue
            self._served_frames[shard.index] = (
                self._served_frames.get(shard.index, 0) + 1
            )
            return result
        raise ClusterError("no live shard left in the cluster")

    # ------------------------------------------------------------- analytics
    def profile(self, workload_name: str) -> WorkloadProfile:
        """The serving profile, answered by the shard owning the workload."""
        self._check_open()
        self.session.workload(workload_name)
        return self._dispatch_with_recovery(workload_name, "profile", workload_name)

    def stats(self) -> ClusterStats:
        """Aggregated per-shard health, queue depth and cache counters."""
        self._check_open()
        shards: List[ShardStats] = []
        for shard in self._shards:
            snapshot: Optional[_WorkerSnapshot] = None
            if shard.alive:
                try:
                    snapshot = shard.receive(shard.send("stats", None), self.call_timeout_s)
                except _ShardFailure:
                    self._mark_dead(shard)
            shards.append(
                ShardStats(
                    shard=shard.index,
                    alive=shard.alive,
                    queue_depth=len(shard.queue),
                    streams=tuple(
                        sorted(
                            stream
                            for stream, index in self._stream_shard.items()
                            if index == shard.index
                        )
                    ),
                    served_requests=self._served_requests.get(shard.index, 0),
                    served_frames=self._served_frames.get(shard.index, 0),
                    deadline_requests=self._deadline_requests.get(shard.index, 0),
                    deadline_misses=self._deadline_misses.get(shard.index, 0),
                    cache=snapshot.cache if snapshot else None,
                    frame_cache=snapshot.frame_cache if snapshot else None,
                    video_streams=snapshot.video_streams if snapshot else (),
                )
            )
        return ClusterStats(
            backend=self.backend_name,
            mode=self.mode,
            shards=tuple(shards),
            requeued=self.requeued,
        )
