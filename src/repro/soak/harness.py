"""The soak harness: replay a streaming trace through the cluster, hurt it,
prove nothing was lost, and report capacity.

:func:`run_soak` drives a :class:`~repro.runtime.cluster.ServingCluster`
with a lazy trace from :mod:`repro.soak.tracegen` in fixed-size admission
*windows*: submit up to ``window`` requests, drain (:meth:`run`), account
every served request against the admission ledger, repeat.  A
:class:`~repro.soak.chaos.ChaosController` fires scheduled faults between
admissions; after every applied chaos event the harness re-verifies that a
surviving shard's pixel output is **bit-identical** to a pre-computed
single-process reference (the repository's parity discipline).

Exactly-once accounting
-----------------------
Every admitted request increments a ledger counter keyed by its identity
``(stream, workload, frames, arrival)``; every served request record
decrements it.  A positive residue at the end is a *lost* request, a
negative residue a *duplicated* one — either raises
:class:`SoakIntegrityError`.  The ledger only holds in-flight keys
(entries are deleted at zero), so memory stays O(window), not O(requests).

Admission either goes straight to the cluster (historical path) or, with
``SoakConfig.gateway``, through an SLO gateway
(:class:`~repro.gateway.SLOGateway`) fronting an EDF-policy cluster:
requests carry per-class deadlines, overload is shed or gracefully
degraded, and the report gains deadline/degradation counters.  Either way
a :class:`~repro.runtime.cluster.ClusterBackpressure` no longer fails the
window outright: the submit loop retries with bounded exponential backoff
(seeded jitter, simulated — the drain between attempts is what actually
frees capacity) and sheds only after the retry budget is exhausted.

The emitted :class:`SoakReport` (JSON schema ``repro-soak/2``, validated
by :func:`validate_report`) is the capacity-planning artifact: sustainable
fps, requeue/shed/backpressure rates, cache-hit curves over time and
nearest-rank latency percentiles.  Everything except ``wall_s`` is
deterministic for a fixed config (:meth:`SoakReport.deterministic_dict`).
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.workloads import synthetic_image
from repro.api import Session
from repro.core.stats import percentiles_from_counts
from repro.runtime.cache import ResultCache
from repro.gateway import AdmissionRejected, SLOGateway
from repro.runtime.cluster import ClusterBackpressure, ServingCluster
from repro.soak.chaos import AppliedChaos, ChaosController, ChaosEvent
from repro.soak.tracegen import arrival_trace

#: Report schema identifier (bump on breaking layout changes).
SCHEMA = "repro-soak/2"

#: Log-spaced latency histogram: 512 bins spanning 10 µs .. 10^5 s.  The
#: histogram (not a raw latency list) keeps percentile memory O(1); the
#: nearest-rank percentile reports a bin's upper edge, which is exact to
#: the bin resolution (~4.6% relative) and fully deterministic.
_LATENCY_EDGES = np.logspace(-5.0, 5.0, 513)


class SoakError(RuntimeError):
    """Base class for soak harness failures."""


class SoakIntegrityError(SoakError):
    """Exactly-once accounting was violated (lost or duplicated requests)."""


class SoakParityError(SoakError):
    """Post-chaos pixels diverged from the single-process reference."""


class SoakSchemaError(SoakError):
    """A SoakReport JSON document does not match the published schema."""


# --------------------------------------------------------------------- config
@dataclass(frozen=True)
class SoakConfig:
    """Everything one soak run needs; fully determines the report
    (modulo ``wall_s``)."""

    requests: int = 10_000
    workers: int = 2
    arrival: str = "poisson"
    rate_rps: float = 200.0
    users: int = 1_000
    seed: int = 0
    #: Admission window: submit this many requests, then drain.
    window: int = 2_048
    instances_per_worker: int = 1
    max_batch_frames: int = 8
    max_pending: int = 4_096
    backend: str = "ecnn"
    cluster_mode: str = "auto"
    #: Chaos schedule (parsed :class:`ChaosEvent` entries).
    chaos: Tuple[ChaosEvent, ...] = ()
    #: Workload + square frame size of the post-chaos parity probe.
    parity_workload: str = "denoise"
    parity_size: int = 24
    #: Pixel-probe frames per window (keeps the frame-cache curve alive).
    pixel_probes: int = 2
    #: Sample the cache-hit curve every this many windows.
    curve_every: int = 2
    #: Serve through an SLO gateway (EDF cluster policy, deadline admission
    #: control, graceful degradation) instead of raw FIFO submission.
    gateway: bool = False
    #: Bounded-backoff retries per backpressured submit before shedding.
    submit_retries: int = 4
    #: Base/cap of the (simulated, seeded-jitter) exponential backoff delay.
    backoff_base_s: float = 0.005
    backoff_cap_s: float = 0.25

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("requests must be positive")
        if self.window < 1:
            raise ValueError("window must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.pixel_probes < 0 or self.curve_every < 1:
            raise ValueError("bad probe/curve settings")
        if self.submit_retries < 0:
            raise ValueError("submit_retries cannot be negative")
        if self.backoff_base_s <= 0 or self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("bad backoff settings")


# --------------------------------------------------------------------- report
@dataclass(frozen=True)
class SoakReport:
    """The capacity-planning outcome of one soak run (schema ``repro-soak/2``)."""

    schema: str
    config: Dict[str, Any]
    #: Worker mode at start and end (chaos may flip it mid-run).
    mode_start: str
    mode_end: str
    live_workers_end: int
    admitted: int
    served: int
    shed: int
    backpressure_hits: int
    #: Backpressured submits retried (bounded exponential backoff).
    retries: int
    #: Simulated seconds a wall-clock client would have spent backing off.
    backoff_wait_s: float
    #: Requests served degraded by the gateway (0 without ``gateway``).
    degraded: int
    #: Deadline-carrying requests served / served past their deadline.
    deadline_requests: int
    deadline_misses: int
    lost: int
    duplicated: int
    requeued: int
    total_frames: int
    #: Max sustainable fps: served frames over summed shard busy time.
    capacity_fps: float
    #: Delivered fps: served frames over the simulated makespan.
    achieved_fps: float
    #: Nearest-rank latency percentiles, e.g. ``{"p50": ..., "p99": ...}``.
    latency_s: Dict[str, float]
    #: ``(admitted, analytic_hit_rate, frame_cache_hit_rate)`` over time.
    cache_curve: Tuple[Tuple[int, float, float], ...]
    #: One entry per scheduled chaos event, in firing order.
    chaos_applied: Tuple[Dict[str, Any], ...]
    #: Post-chaos parity probes executed (every one was bit-identical).
    parity_checks: int
    #: Wall-clock seconds — the only nondeterministic field.
    wall_s: float

    # ------------------------------------------------------- serialization
    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "config": dict(self.config),
            "mode_start": self.mode_start,
            "mode_end": self.mode_end,
            "live_workers_end": self.live_workers_end,
            "admitted": self.admitted,
            "served": self.served,
            "shed": self.shed,
            "backpressure_hits": self.backpressure_hits,
            "retries": self.retries,
            "backoff_wait_s": self.backoff_wait_s,
            "degraded": self.degraded,
            "deadline_requests": self.deadline_requests,
            "deadline_misses": self.deadline_misses,
            "lost": self.lost,
            "duplicated": self.duplicated,
            "requeued": self.requeued,
            "total_frames": self.total_frames,
            "capacity_fps": self.capacity_fps,
            "achieved_fps": self.achieved_fps,
            "latency_s": dict(self.latency_s),
            "cache_curve": [list(point) for point in self.cache_curve],
            "chaos_applied": [dict(entry) for entry in self.chaos_applied],
            "parity_checks": self.parity_checks,
            "wall_s": self.wall_s,
        }

    def deterministic_dict(self) -> Dict[str, Any]:
        """The report minus ``wall_s`` — byte-stable for a fixed config."""
        data = self.to_json_dict()
        del data["wall_s"]
        return data

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "SoakReport":
        validate_report(data)
        return cls(
            schema=data["schema"],
            config=dict(data["config"]),
            mode_start=data["mode_start"],
            mode_end=data["mode_end"],
            live_workers_end=data["live_workers_end"],
            admitted=data["admitted"],
            served=data["served"],
            shed=data["shed"],
            backpressure_hits=data["backpressure_hits"],
            retries=data["retries"],
            backoff_wait_s=data["backoff_wait_s"],
            degraded=data["degraded"],
            deadline_requests=data["deadline_requests"],
            deadline_misses=data["deadline_misses"],
            lost=data["lost"],
            duplicated=data["duplicated"],
            requeued=data["requeued"],
            total_frames=data["total_frames"],
            capacity_fps=data["capacity_fps"],
            achieved_fps=data["achieved_fps"],
            latency_s=dict(data["latency_s"]),
            cache_curve=tuple(tuple(point) for point in data["cache_curve"]),
            chaos_applied=tuple(dict(entry) for entry in data["chaos_applied"]),
            parity_checks=data["parity_checks"],
            wall_s=data["wall_s"],
        )

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SoakReport":
        return cls.from_json_dict(json.loads(Path(path).read_text()))

    # --------------------------------------------------------------- render
    def render(self) -> str:
        """The human capacity report."""
        from repro.analysis.report import format_table

        counters = format_table(
            "Soak outcome",
            ["metric", "value"],
            [
                ("requests admitted", self.admitted),
                ("requests served", self.served),
                ("requests shed", self.shed),
                ("backpressure hits", self.backpressure_hits),
                ("backpressure retries", self.retries),
                ("backoff wait (s)", round(self.backoff_wait_s, 4)),
                ("requests degraded", self.degraded),
                (
                    "deadline misses",
                    f"{self.deadline_misses}/{self.deadline_requests}"
                    if self.deadline_requests
                    else "n/a",
                ),
                ("requests requeued", self.requeued),
                ("lost", self.lost),
                ("duplicated", self.duplicated),
                ("frames served", self.total_frames),
                ("capacity (fps)", round(self.capacity_fps, 1)),
                ("achieved (fps)", round(self.achieved_fps, 1)),
                (
                    "latency p50/p95/p99 (ms)",
                    "/".join(
                        f"{self.latency_s[key] * 1e3:.2f}"
                        for key in ("p50", "p95", "p99")
                    )
                    if self.latency_s
                    else "n/a",
                ),
                ("post-chaos parity checks", self.parity_checks),
            ],
        )
        chaos_rows = [
            (
                entry["kind"],
                entry["fired_at"],
                "yes" if entry["applied"] else "no",
                entry.get("detail", ""),
            )
            for entry in self.chaos_applied
        ] or [("(none)", "-", "-", "-")]
        chaos = format_table(
            "Chaos events", ["kind", "fired at", "applied", "detail"], chaos_rows
        )
        config = self.config
        summary = (
            f"soak of {self.admitted} requests on {config.get('workers')} "
            f"{config.get('backend')} worker(s), "
            f"{self.mode_start} -> {self.mode_end} mode, "
            f"{self.live_workers_end} live at end; "
            f"exactly-once verified, {self.parity_checks} parity probes "
            f"bit-identical; wall {self.wall_s:.1f}s"
        )
        return "\n\n".join([counters, chaos, summary])


#: Required fields of a ``repro-soak/2`` document and their JSON types.
_SCHEMA_FIELDS: Dict[str, type] = {
    "schema": str,
    "config": dict,
    "mode_start": str,
    "mode_end": str,
    "live_workers_end": int,
    "admitted": int,
    "served": int,
    "shed": int,
    "backpressure_hits": int,
    "retries": int,
    "backoff_wait_s": (int, float),
    "degraded": int,
    "deadline_requests": int,
    "deadline_misses": int,
    "lost": int,
    "duplicated": int,
    "requeued": int,
    "total_frames": int,
    "capacity_fps": (int, float),
    "achieved_fps": (int, float),
    "latency_s": dict,
    "cache_curve": list,
    "chaos_applied": list,
    "parity_checks": int,
    "wall_s": (int, float),
}


def validate_report(data: Dict[str, Any]) -> None:
    """Check a JSON document against the ``repro-soak/2`` schema.

    Hand-rolled (the toolchain has no jsonschema dependency): verifies the
    schema tag, the presence and JSON type of every field, and the inner
    layout of the curve/chaos lists.  Raises :class:`SoakSchemaError`.
    """
    if not isinstance(data, dict):
        raise SoakSchemaError(f"report must be an object, got {type(data).__name__}")
    if data.get("schema") != SCHEMA:
        raise SoakSchemaError(
            f"schema mismatch: expected {SCHEMA!r}, got {data.get('schema')!r}"
        )
    for name, expected in _SCHEMA_FIELDS.items():
        if name not in data:
            raise SoakSchemaError(f"missing field {name!r}")
        if not isinstance(data[name], expected) or isinstance(data[name], bool):
            raise SoakSchemaError(
                f"field {name!r} has type {type(data[name]).__name__}, "
                f"expected {expected}"
            )
    for point in data["cache_curve"]:
        if not (isinstance(point, (list, tuple)) and len(point) == 3):
            raise SoakSchemaError(f"bad cache_curve point {point!r}")
    for entry in data["chaos_applied"]:
        if not isinstance(entry, dict) or not {"kind", "fired_at", "applied"} <= set(entry):
            raise SoakSchemaError(f"bad chaos_applied entry {entry!r}")
    for key, value in data["latency_s"].items():
        if not isinstance(key, str) or not isinstance(value, (int, float)):
            raise SoakSchemaError(f"bad latency entry {key!r}: {value!r}")


# -------------------------------------------------------------------- harness
@dataclass
class _Accounting:
    """Mutable run state: the ledger and every counter the report needs."""

    ledger: Dict[Tuple[str, str, int, float], int] = field(default_factory=dict)
    admitted: int = 0
    served: int = 0
    shed: int = 0
    backpressure_hits: int = 0
    retries: int = 0
    #: Simulated seconds of backoff delay accumulated by retried submits.
    backoff_wait_s: float = 0.0
    degraded: int = 0
    deadline_requests: int = 0
    deadline_misses: int = 0
    total_frames: int = 0
    #: Cumulative critical-path busy seconds and frames per shard index.
    busy_by_shard: Dict[int, float] = field(default_factory=dict)
    frames_by_shard: Dict[int, int] = field(default_factory=dict)
    makespan_s: float = 0.0
    latency_counts: np.ndarray = field(
        default_factory=lambda: np.zeros(len(_LATENCY_EDGES) - 1, dtype=np.int64)
    )

    def admit(self, key: Tuple[str, str, int, float]) -> None:
        self.admitted += 1
        count = self.ledger.get(key, 0) + 1
        if count:
            self.ledger[key] = count
        else:
            del self.ledger[key]

    def serve(self, key: Tuple[str, str, int, float]) -> None:
        self.served += 1
        count = self.ledger.get(key, 0) - 1
        if count:
            self.ledger[key] = count
        else:
            self.ledger.pop(key, None)

    def capacity_fps(self) -> float:
        """Max sustainable fps: the sum of per-shard service rates.

        Each shard's rate is its served frames over its cumulative
        critical-path busy time — what that worker can sustain at 100%
        utilization; the sum is the pool's aggregate service capacity
        (counting a killed shard's rate only for the time it was alive).
        """
        return sum(
            self.frames_by_shard[index] / busy
            for index, busy in self.busy_by_shard.items()
            if busy > 0
        )

    def achieved_fps(self) -> float:
        """Delivered fps over the simulated duration.

        The duration is the schedule makespan, floored by the busiest
        shard's cumulative busy time (each drain window restarts its
        instance clocks, so raw makespans under-count a backlogged run).
        """
        duration = max(
            self.makespan_s, max(self.busy_by_shard.values(), default=0.0)
        )
        return self.total_frames / duration if duration else 0.0

    def residue(self) -> Tuple[int, int]:
        """(lost, duplicated) request counts left in the ledger."""
        lost = sum(count for count in self.ledger.values() if count > 0)
        duplicated = -sum(count for count in self.ledger.values() if count < 0)
        return lost, duplicated

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 over the log-binned latency histogram.

        Rank selection is the shared :mod:`repro.core.stats` nearest-rank
        helper (the same implementation the scheduler uses on raw
        latencies); each selected sample reports its bin's upper edge.
        """
        labelled = (("p50", 0.5), ("p95", 0.95), ("p99", 0.99))
        percentiles = percentiles_from_counts(
            self.latency_counts, _LATENCY_EDGES[1:], [q for _, q in labelled]
        )
        if not percentiles:
            return {}
        return {label: percentiles[q] for label, q in labelled}


def _drain(
    cluster: ServingCluster,
    accounting: _Accounting,
    controller: Optional[ChaosController],
    gateway: Optional[SLOGateway] = None,
) -> None:
    """Run the queues dry and account every served record.

    With a gateway, the drain goes through it (so the fallback engine's
    degraded schedules are accounted too, under shard index
    :data:`~repro.gateway.gateway.FALLBACK_SHARD`).
    """
    if gateway is not None:
        schedules = gateway.drain_now().schedules
    else:
        schedules = tuple(
            (index, shard_report.schedule)
            for index, shard_report in cluster.run().shard_reports
        )
    for shard_index, schedule in schedules:
        for record in schedule.records:
            request = record.request
            accounting.serve(
                (request.stream_id, request.workload, request.frames, request.arrival_s)
            )
            accounting.total_frames += request.frames
            bin_index = int(
                np.clip(
                    np.searchsorted(_LATENCY_EDGES, record.latency_s, side="right") - 1,
                    0,
                    len(_LATENCY_EDGES) - 2,
                )
            )
            accounting.latency_counts[bin_index] += 1
        accounting.busy_by_shard[shard_index] = accounting.busy_by_shard.get(
            shard_index, 0.0
        ) + max(schedule.instance_busy_s, default=0.0)
        accounting.frames_by_shard[shard_index] = (
            accounting.frames_by_shard.get(shard_index, 0) + schedule.total_frames
        )
        accounting.deadline_requests += schedule.deadline_requests
        accounting.deadline_misses += schedule.deadline_misses
        accounting.makespan_s = max(accounting.makespan_s, schedule.makespan_s)
    if controller is not None:
        controller.after_drain()


def _submit_with_backoff(
    submit_once: Any,
    drain_fn: Any,
    accounting: _Accounting,
    config: SoakConfig,
    rng: np.random.Generator,
) -> Optional[Tuple[str, str, int, float]]:
    """One admission with bounded exponential backoff on backpressure.

    Returns the admitted ledger key (``None`` when the request was shed
    after exhausting ``config.submit_retries``, or answered without
    queueing).  The backoff delay is *simulated* — cluster time is
    analytic, so the drain between attempts is what actually frees
    capacity — but it is still computed (exponential with seeded jitter,
    capped at ``backoff_cap_s``) and accumulated in
    ``accounting.backoff_wait_s`` so the report shows what a wall-clock
    client would have waited.  :class:`~repro.gateway.AdmissionRejected`
    is *not* retried: rejection means "slow down", not "drain and retry".
    """
    for attempt in range(config.submit_retries + 1):
        try:
            return submit_once()
        except ClusterBackpressure:
            accounting.backpressure_hits += 1
            if attempt == config.submit_retries:
                accounting.shed += 1
                return None
            accounting.retries += 1
            delay = min(config.backoff_cap_s, config.backoff_base_s * (2.0 ** attempt))
            accounting.backoff_wait_s += delay * (0.5 + float(rng.random()))
            drain_fn()
    return None


def _parity_probe(
    cluster: ServingCluster,
    config: SoakConfig,
    reference: np.ndarray,
    probe: Any,
) -> None:
    """Bit-compare a surviving shard's pixels against the single-process reference."""
    result = cluster.execute_frame(config.parity_workload, probe, cached=False)
    if result.output.data.shape != reference.shape or not np.array_equal(
        result.output.data, reference
    ):
        raise SoakParityError(
            f"post-chaos parity violation on {config.parity_workload!r}: "
            "surviving-shard pixels diverged from the single-process reference"
        )


def run_soak(config: SoakConfig) -> SoakReport:
    """Run one soak: replay, chaos, verify, report (see the module docstring)."""
    started = time.monotonic()
    probe = synthetic_image(config.parity_size, config.parity_size, seed=config.seed)
    reference_session = Session(backend=config.backend, cache=ResultCache())
    reference = reference_session.execute(
        config.parity_workload, probe, cached=False
    ).output.data
    accounting = _Accounting()
    # Seeded jitter for the backoff path: deterministic, decoupled from the
    # trace generator's streams (different SeedSequence spawn key).
    backoff_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xB0FF]))
    parity_checks = 0
    events = itertools.islice(
        arrival_trace(
            config.arrival,
            rate_rps=config.rate_rps,
            users=config.users,
            seed=config.seed,
        ),
        config.requests,
    )
    with ServingCluster(
        workers=config.workers,
        backend=config.backend,
        instances_per_worker=config.instances_per_worker,
        max_batch_frames=config.max_batch_frames,
        max_pending=config.max_pending,
        mode=config.cluster_mode,
        policy="edf" if config.gateway else "fifo",
    ) as cluster:
        gateway = SLOGateway(cluster) if config.gateway else None
        mode_start = cluster.mode
        controller = ChaosController(
            cluster, config.chaos, total_requests=config.requests
        )
        curve: List[Tuple[int, float, float]] = []
        windows = 0

        def sample_curve() -> None:
            stats = cluster.stats()
            analytic = [s.cache for s in stats.shards if s.cache is not None]
            frames = [s.frame_cache for s in stats.shards if s.frame_cache is not None]
            analytic_hits = sum(c.hits for c in analytic)
            analytic_lookups = sum(c.lookups for c in analytic)
            frame_hits = sum(c.hits for c in frames)
            frame_lookups = sum(c.lookups for c in frames)
            curve.append(
                (
                    accounting.admitted,
                    analytic_hits / analytic_lookups if analytic_lookups else 0.0,
                    frame_hits / frame_lookups if frame_lookups else 0.0,
                )
            )

        def end_window() -> None:
            nonlocal windows, parity_checks
            _drain(cluster, accounting, controller, gateway)
            for _ in range(config.pixel_probes):
                cluster.execute_frame(config.parity_workload, probe, cached=True)
            windows += 1
            if windows % config.curve_every == 0:
                sample_curve()

        def submit_once(event: Any) -> Optional[Tuple[str, str, int, float]]:
            """One admission; the ledger key of what actually entered a queue.

            Through the gateway the key carries the *ticket's* identity —
            a frame-reducing degrade changes the admitted frame count, and
            exactly-once accounting must reconcile against what was
            admitted, not what was asked.  Cache-only answers never enter
            a queue, so they never enter the ledger either.
            """
            if gateway is None:
                cluster.submit(
                    event.stream_id,
                    event.workload,
                    frames=event.frames,
                    arrival_s=event.time_s,
                )
                return (event.stream_id, event.workload, event.frames, event.time_s)
            ticket = gateway.admit(
                event.stream_id,
                event.workload,
                frames=event.frames,
                arrival_s=event.time_s,
            )
            if ticket.degraded:
                accounting.degraded += 1
            if not ticket.queued:
                return None
            return (ticket.stream_id, ticket.workload, ticket.frames, ticket.arrival_s)

        def drain_for_backoff() -> None:
            _drain(cluster, accounting, controller, gateway)

        processed = 0
        for event in events:
            processed += 1
            try:
                key = _submit_with_backoff(
                    lambda event=event: submit_once(event),
                    drain_for_backoff,
                    accounting,
                    config,
                    backoff_rng,
                )
            except AdmissionRejected:
                accounting.shed += 1
                key = None
            # Chaos thresholds are fractions of the *trace*, so faults still
            # fire mid-burst when the gateway sheds or degrades most of the
            # overload and the admitted count lags far behind.
            for applied in controller.advance(processed):
                if applied.applied:
                    _parity_probe(cluster, config, reference, probe)
                    parity_checks += 1
            if key is None:
                continue  # rejected, shed after retries, or answered cache-only
            accounting.admit(key)
            if accounting.admitted % config.window == 0:
                end_window()
        # Final drain: whatever the last partial window admitted.
        _drain(cluster, accounting, controller, gateway)
        sample_curve()
        lost, duplicated = accounting.residue()
        if lost or duplicated:
            raise SoakIntegrityError(
                f"exactly-once violated: {lost} lost, {duplicated} duplicated "
                f"of {accounting.admitted} admitted requests"
            )
        stats = cluster.stats()
        report = SoakReport(
            schema=SCHEMA,
            config={
                "requests": config.requests,
                "workers": config.workers,
                "arrival": config.arrival,
                "rate_rps": config.rate_rps,
                "users": config.users,
                "seed": config.seed,
                "window": config.window,
                "backend": config.backend,
                "cluster_mode": config.cluster_mode,
                "gateway": config.gateway,
                "submit_retries": config.submit_retries,
                "chaos": [event.render() for event in config.chaos],
            },
            mode_start=mode_start,
            mode_end=cluster.mode,
            live_workers_end=stats.live_workers,
            admitted=accounting.admitted,
            served=accounting.served,
            shed=accounting.shed,
            backpressure_hits=accounting.backpressure_hits,
            retries=accounting.retries,
            backoff_wait_s=accounting.backoff_wait_s,
            degraded=accounting.degraded,
            deadline_requests=accounting.deadline_requests,
            deadline_misses=accounting.deadline_misses,
            lost=lost,
            duplicated=duplicated,
            requeued=stats.requeued,
            total_frames=accounting.total_frames,
            capacity_fps=accounting.capacity_fps(),
            achieved_fps=accounting.achieved_fps(),
            latency_s=accounting.latency_percentiles(),
            cache_curve=tuple(curve),
            chaos_applied=tuple(
                {
                    "kind": applied.event.kind,
                    "at_fraction": applied.event.at_fraction,
                    "fired_at": applied.fired_at,
                    "applied": applied.applied,
                    "victim": applied.victim,
                    "displaced_hint": applied.displaced_hint,
                    "detail": applied.detail,
                }
                for applied in controller.applied
            ),
            parity_checks=parity_checks,
            wall_s=time.monotonic() - started,
        )
    validate_report(report.to_json_dict())
    return report


__all__ = [
    "SCHEMA",
    "AppliedChaos",
    "ChaosController",
    "ChaosEvent",
    "SoakConfig",
    "SoakError",
    "SoakIntegrityError",
    "SoakParityError",
    "SoakReport",
    "SoakSchemaError",
    "run_soak",
    "validate_report",
]
