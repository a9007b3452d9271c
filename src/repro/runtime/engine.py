"""The serving engine: queue + scheduler + content-addressed cache.

:class:`ServingEngine` is the runtime's front door.  Requests are admitted
per stream, traces replay into the queue, and :meth:`ServingEngine.run`
drains everything through the batching scheduler over the configured number
of simulated accelerator instances.  Since PR 2 the engine serves through a
:class:`repro.api.Session`, so the accelerator is pluggable: pass
``backend="eyeriss"`` (or any name from
:func:`repro.api.available_backends`) and every profile the scheduler
charges comes from that backend's model instead of the eCNN processor.

All analytic questions — the per-workload serving profile the scheduler
charges time from, and the deeper layer-timing / cost queries
:meth:`ServingEngine.analyze` answers — go through the session's
:class:`~repro.runtime.cache.ResultCache`, so a workload is compiled and
characterized once no matter how many batches or reports ask.

For pixel-level serving (functional results, not just timing),
:meth:`ServingEngine.execute_frame` runs one frame through the backend's
compiled plan (the block-based truncated-pyramid flow on eCNN, whole-frame
execution on the frame-based baselines).  The flow is block-parallel —
the independent truncated-pyramid blocks are grouped by shape and run
through the network in fused numpy passes — and
:meth:`ServingEngine.execute_frames` additionally batches *across frames*
of one workload.  Repeated frames are answered from the session's bounded
content-addressed frame cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.report import format_table
from repro.api.results import CostReport
from repro.api.session import FrameCacheStats, Session
from repro.core.pipeline import InferenceResult
from repro.hw.area_power import AreaReport, area_report
from repro.hw.config import DEFAULT_CONFIG, EcnnConfig
from repro.hw.processor import BlockExecutionReport, EcnnProcessor
from repro.nn.tensor import FeatureMap
from repro.runtime.cache import CacheStats, ResultCache
from repro.runtime.scheduler import RequestQueue, ScheduleResult, Scheduler
from repro.runtime.trace import TrafficTrace
from repro.runtime.video import StreamFrameResult, VideoStreamStats
from repro.runtime.workloads import RuntimeWorkload, WorkloadProfile


@dataclass(frozen=True)
class WorkloadAnalytics:
    """Deep analytic answers for one workload (all cache-resident)."""

    workload: str
    model_name: str
    profile: WorkloadProfile
    #: Per-instruction (label, CIU cycles, IDU cycles) — the layer timing.
    #: Empty for backends without an FBISA program (everything but eCNN).
    layer_timing: Tuple[Tuple[str, int, int], ...]
    cost: CostReport
    #: The eCNN per-component area report; ``None`` on other backends.
    area: Optional[AreaReport] = None
    backend: str = "ecnn"

    @property
    def cycles_per_block(self) -> int:
        """Block latency under the IDU/CIU instruction pipeline.

        Delegates to the processor's own
        :attr:`~repro.hw.processor.BlockExecutionReport.pipelined_cycles`
        (while the CIU computes instruction *i* the IDU decodes instruction
        *i+1*), so the analytics can never drift from the timing model —
        when parameter decoding dominates a stage, the IDU cycles are what
        the block pays, not the CIU cycles.
        """
        return BlockExecutionReport(
            ciu_cycles_per_instruction=tuple(ciu for _, ciu, _ in self.layer_timing),
            idu_cycles_per_instruction=tuple(idu for _, _, idu in self.layer_timing),
        ).pipelined_cycles


@dataclass(frozen=True)
class ServingReport:
    """Outcome of one :meth:`ServingEngine.run`: schedule plus cache stats."""

    schedule: ScheduleResult
    cache: CacheStats
    backend: str = "ecnn"
    #: Counters of the session's bounded pixel frame cache at report time
    #: (``None`` only for reports built before PR 5's serving-stats work).
    frame_cache: Optional[FrameCacheStats] = None
    #: Per-stream delta-reuse counters of the session's live video streams
    #: (empty unless the engine served ``execute_stream`` traffic).
    video_streams: Tuple[VideoStreamStats, ...] = ()

    def render(self) -> str:
        """The CLI's throughput/latency report."""
        schedule = self.schedule
        streams = format_table(
            "Per-stream serving report",
            ["stream", "workload(s)", "requests", "frames", "fps", "mean latency (ms)", "max latency (ms)"],
            [
                (
                    stats.stream_id,
                    "+".join(stats.workloads),
                    stats.requests,
                    stats.frames,
                    round(stats.fps, 2),
                    round(stats.mean_latency_s * 1e3, 2),
                    round(stats.max_latency_s * 1e3, 2),
                )
                for stats in schedule.stream_stats().values()
            ],
        )
        instances = format_table(
            "Instance utilization",
            ["instance", "busy (ms)", "utilization"],
            [
                (index, round(schedule.instance_busy_s[index] * 1e3, 2),
                 f"{schedule.utilization(index):.0%}")
                for index in range(schedule.num_instances)
            ],
        )
        summary = (
            f"served {schedule.total_frames} frames in {len(schedule.batches)} batches "
            f"on {schedule.num_instances} {self.backend} instance(s); "
            f"makespan {schedule.makespan_s * 1e3:.2f} ms, "
            f"aggregate {schedule.throughput_fps:.1f} fps\n"
            f"analytic cache: {self.cache.describe()}"
        )
        percentiles = schedule.latency_percentiles()
        if percentiles:
            summary += "\nlatency " + " ".join(
                f"p{int(q * 100)} {value * 1e3:.2f} ms" for q, value in percentiles.items()
            )
        if schedule.deadline_requests:
            summary += (
                f"\ndeadlines: {schedule.deadline_misses}/{schedule.deadline_requests} "
                f"missed ({schedule.deadline_miss_rate:.1%})"
            )
        if self.frame_cache is not None and self.frame_cache.lookups:
            summary += f"\nframe cache: {self.frame_cache.describe()}"
        for stream_stats in self.video_streams:
            summary += f"\nvideo {stream_stats.describe()}"
        return "\n\n".join([streams, instances, summary])


class ServingEngine:
    """Serve catalogue workloads on a pool of simulated accelerator instances.

    Parameters
    ----------
    num_instances:
        Simulated accelerator processors serving in parallel.
    max_batch_frames:
        Scheduler batch budget (see :class:`~repro.runtime.scheduler.Scheduler`).
    config:
        Hardware configuration shared by all instances.
    cache:
        Result cache; defaults to the process-wide
        :data:`~repro.runtime.cache.DEFAULT_CACHE`.
    backend:
        Accelerator backend name (default ``"ecnn"``), or a pre-built
        :class:`repro.api.Session` whose backend/cache/config take precedence.
    policy:
        Queue/scheduler ordering — ``"fifo"`` (default, bit-identical to
        the historical engine) or ``"edf"`` for deadline-aware serving.
    kernels:
        Compute-kernel set for the engine's session (see
        :mod:`repro.kernels`); ``"auto"`` picks the fastest available.
        Ignored when ``backend`` is a pre-built session (the session's own
        selection stands).
    """

    def __init__(
        self,
        *,
        num_instances: int = 2,
        max_batch_frames: int = 8,
        config: EcnnConfig = DEFAULT_CONFIG,
        cache: Optional[ResultCache] = None,
        backend: Union[str, Session] = "ecnn",
        policy: str = "fifo",
        kernels: str = "auto",
    ) -> None:
        if isinstance(backend, Session):
            self.session = backend
        else:
            self.session = Session(
                backend=backend, config=config, cache=cache, kernels=kernels
            )
        self.config = self.session.config
        self.cache = self.session.cache
        self.policy = policy
        self.queue = RequestQueue(policy=policy)
        self.scheduler = Scheduler(
            self.profile,
            num_instances=num_instances,
            max_batch_frames=max_batch_frames,
            policy=policy,
        )

    @property
    def backend_name(self) -> str:
        return self.session.backend_name

    @property
    def frame_cache_stats(self) -> FrameCacheStats:
        """Counters of the session's bounded pixel frame cache."""
        return self.session.frame_cache_stats

    @property
    def video_stream_stats(self) -> Tuple[VideoStreamStats, ...]:
        """Delta-reuse counters of the session's live video streams."""
        return self.session.video_stream_stats

    # ------------------------------------------------------------------ admission
    def submit(
        self,
        stream_id: str,
        workload_name: str,
        *,
        frames: int = 1,
        arrival_s: float = 0.0,
        deadline_s: float = math.inf,
        priority: int = 0,
    ) -> None:
        """Admit one request (validates the workload name)."""
        self.session.workload(workload_name)
        self.queue.submit(
            stream_id,
            workload_name,
            frames=frames,
            arrival_s=arrival_s,
            deadline_s=deadline_s,
            priority=priority,
        )

    def play(self, trace: TrafficTrace) -> int:
        """Replay a traffic trace into the queue; returns requests admitted."""
        for event in trace.events:
            self.session.workload(event.workload)
        return trace.submit_to(self.queue)

    # ------------------------------------------------------------------ serving
    def run(self) -> ServingReport:
        """Drain the queue through the scheduler and report."""
        schedule = self.scheduler.run(self.queue.drain())
        return ServingReport(
            schedule=schedule,
            cache=self.cache.stats,
            backend=self.backend_name,
            frame_cache=self.session.frame_cache_stats,
            video_streams=self.session.video_stream_stats,
        )

    # ------------------------------------------------------------------ analytics
    def profile(self, workload_name: str) -> WorkloadProfile:
        """Cached serving profile of a catalogue workload on this backend."""
        return self.session.serving_profile(workload_name)

    def analyze(self, workload_name: str) -> WorkloadAnalytics:
        """Cached deep analytics: layer timing (eCNN), serving profile, cost."""
        entry = self.session.workload(workload_name)
        key = ResultCache.key(
            "workload-analytics", self.backend_name, entry.cache_key(self.config)
        )
        return self.cache.get_or_compute(key, lambda: self._compute_analytics(entry))

    def _compute_analytics(self, entry: RuntimeWorkload) -> WorkloadAnalytics:
        profile = self.session.serving_profile(entry.name)
        cost = self.session.cost()
        if self.backend_name != "ecnn":
            return WorkloadAnalytics(
                workload=entry.name,
                model_name=profile.model_name,
                profile=profile,
                layer_timing=(),
                cost=cost,
                area=None,
                backend=self.backend_name,
            )
        # The eCNN backend additionally exposes per-instruction layer timing
        # from the processor's IDU/CIU model, reusing the session's cached
        # plan so analytics and profiles are guaranteed to describe the same
        # compilation (same input block, same evaluation config).
        plan = self.session.compile(entry.name)
        config = self.session.backend.evaluation_config(plan.network)
        compiled = plan.payload
        processor = EcnnProcessor(config)
        processor.load(compiled)
        report = processor.block_report()
        timing = tuple(
            (
                instruction.label or instruction.opcode.value,
                report.ciu_cycles_per_instruction[index],
                report.idu_cycles_per_instruction[index],
            )
            for index, instruction in enumerate(compiled.program)
        )
        return WorkloadAnalytics(
            workload=entry.name,
            model_name=plan.model_name,
            profile=profile,
            layer_timing=timing,
            cost=cost,
            area=area_report(config),
            backend=self.backend_name,
        )

    # ------------------------------------------------------------------ pixels
    def execute_frame(
        self,
        workload_name: str,
        image: FeatureMap,
        *,
        cached: bool = True,
    ) -> InferenceResult:
        """Run one frame of pixels through the backend's compiled plan.

        The plan is compiled once (cache-resident) and reused; only
        block-flow workloads (not recognition) support this path.
        ``cached`` routes repeats of the same frame through the session's
        bounded frame cache.
        """
        return self.session.execute(workload_name, image, cached=cached)

    def execute_frames(
        self,
        workload_name: str,
        images: Sequence[FeatureMap],
        *,
        cached: bool = True,
    ) -> List[InferenceResult]:
        """Serve a batch of frames of one workload in fused passes.

        On the block-based eCNN backend the truncated-pyramid blocks of
        *all* frames are pooled and grouped by shape, so corresponding
        blocks of same-sized frames run through the network together — the
        functional counterpart of the scheduler batching requests of one
        workload onto one instance.
        """
        return self.session.execute_many(workload_name, images, cached=cached)

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
        """Serve the next ordered frame of a video stream by block deltas.

        Delegates to :meth:`repro.api.Session.execute_stream`: only blocks
        whose input-window residual against the stream's previous frame
        exceeds ``threshold`` re-run inference; the rest stitch from the
        stream's bounded block cache.  ``threshold=0.0`` is exact-reuse
        mode — pixels are bit-identical to :meth:`execute_frame`.
        """
        return self.session.execute_stream(
            stream_id,
            workload_name,
            image,
            threshold=threshold,
            metric=metric,
            output_block=output_block,
        )

    def evict_pixel_caches(self) -> int:
        """Drop the session's frame cache and video block caches together."""
        return self.session.evict_pixel_caches()

    def catalogue(self) -> Dict[str, str]:
        """Name -> description of the servable workloads."""
        return self.session.catalogue()
