"""The :class:`Session` — one object owning backend, cache and registries.

A session binds together everything one evaluation context needs:

* an :class:`~repro.api.backend.AcceleratorBackend` (by registry name or as
  an instance),
* a hardware configuration (the host eCNN config giving the comparison its
  compute/memory context),
* a :class:`~repro.runtime.cache.ResultCache` so every compile/profile/cost
  question is answered once per content address, and
* the workload catalogue (:data:`repro.runtime.workloads.WORKLOADS` by
  default — inject a dict to scope or extend it).

The serving engine, the sweep helpers and the examples all go through a
session instead of reaching into ``hw``/``core``/``fbisa`` directly, so a
newly registered backend is served, swept and reported with no further
wiring.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.backend import AcceleratorBackend, available_backends, create_backend
from repro.api.results import CompiledPlan, CostReport, PerfProfile, PlanHandle
from repro.core.pipeline import InferenceResult
from repro.hw.config import DEFAULT_CONFIG, EcnnConfig
from repro.nn.network import Network
from repro.nn.tensor import FeatureMap

if TYPE_CHECKING:  # runtime modules are imported lazily: repro.runtime.engine
    # imports this module, so a top-level import here would be circular.
    from repro.runtime.cache import ResultCache
    from repro.runtime.video import StreamFrameResult, VideoStream, VideoStreamStats
    from repro.runtime.workloads import RuntimeWorkload, WorkloadProfile


@dataclass(frozen=True)
class FrameCacheStats:
    """Hit/miss/eviction counters of a session's bounded pixel-result cache.

    Mirrors :class:`~repro.runtime.cache.CacheStats` (the analytic cache's
    counters) and adds the residency bound, because unlike the analytic
    cache the frame cache is always bounded — eviction pressure is part of
    its steady-state story, so serving reports surface it.
    """

    hits: int
    misses: int
    entries: int
    evictions: int
    max_entries: Optional[int]

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        bound = "unbounded" if self.max_entries is None else f"bound {self.max_entries}"
        return (
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate, {self.entries} entries, "
            f"{self.evictions} evicted, {bound})"
        )


@dataclass(frozen=True)
class SessionHandle:
    """A picklable recipe for rebuilding an equivalent :class:`Session`.

    A :class:`Session` itself cannot cross a process boundary usefully — its
    caches are live mutable state and its backend may hang unpicklable
    derived artifacts off shared networks.  A handle carries only the
    session's *identity* (backend registry name, hardware configuration,
    frame-cache bound); :meth:`create` builds a fresh session from it inside
    the receiving process, with its own scoped caches.  Two sessions built
    from equal handles answer every analytic and pixel query bit-identically
    (everything underneath is deterministic), which is what lets the serving
    cluster shard work across worker processes without shipping state.
    """

    backend: str
    config: EcnnConfig = DEFAULT_CONFIG
    #: Frame-cache residency bound; ``None`` rebuilds an unbounded cache.
    frame_cache_entries: Optional[int] = 64
    #: Compute-kernel set name (see :mod:`repro.kernels`).  Handles minted by
    #: :meth:`Session.handle` carry the *resolved* set name (never ``"auto"``)
    #: so every worker rebuilds with the coordinator's arithmetic; ``"auto"``
    #: remains valid for hand-built handles and re-resolves per process.
    kernels: str = "auto"

    def create(self) -> "Session":
        """Build a fresh session (scoped caches) from this handle."""
        from repro.runtime.cache import ResultCache

        return Session(
            backend=self.backend,
            config=self.config,
            cache=ResultCache(),
            frame_cache_entries=self.frame_cache_entries,
            kernels=self.kernels,
        )


class Session:
    """Evaluate catalogue workloads on one accelerator backend, cached.

    Parameters
    ----------
    backend:
        Registry name (see :func:`repro.api.available_backends`) or an
        already-constructed backend instance.
    config:
        Host eCNN hardware configuration; forwarded to backends constructed
        by name.
    cache:
        Result cache; defaults to the process-wide
        :data:`~repro.runtime.cache.DEFAULT_CACHE`.  Pass a scoped
        :class:`ResultCache` for isolation or a bounded footprint.
    workloads:
        Workload registry; defaults to the live serving catalogue.
    frame_cache_entries:
        Residency bound of the per-session pixel-result cache (LRU); pass
        ``None`` for an unbounded cache.  Frame results carry pixel data,
        so the default keeps this one bounded (unlike the analytic cache).
    kernels:
        Compute-kernel set for the host-side reference arithmetic (see
        :mod:`repro.kernels`).  ``"auto"`` (the default) picks the fastest
        available registered set — numba when importable, numpy otherwise —
        and warm-compiles it off the hot path; an explicit name selects that
        set or raises :class:`~repro.kernels.KernelUnavailableError`.  The
        selection is process-global (kernel sets are stateless arithmetic,
        so the last construction wins); :attr:`kernels` records the resolved
        name this session asked for.
    verify:
        Run :func:`repro.check.verify_plan` on every freshly compiled plan
        (the default); a plan with error-level diagnostics raises
        :class:`~repro.check.PlanVerificationError` instead of entering the
        cache.  Pass ``False`` to opt out (e.g. to collect full diagnostic
        reports yourself, as the ``repro-check`` CLI does).
    """

    def __init__(
        self,
        *,
        backend: Union[str, AcceleratorBackend] = "ecnn",
        config: EcnnConfig = DEFAULT_CONFIG,
        cache: Optional[ResultCache] = None,
        workloads: Optional[Mapping[str, RuntimeWorkload]] = None,
        frame_cache_entries: Optional[int] = 64,
        verify: bool = True,
        kernels: str = "auto",
    ) -> None:
        from repro.kernels import select_kernel_set
        from repro.runtime.cache import DEFAULT_CACHE, ResultCache
        from repro.runtime.workloads import WORKLOADS

        #: Resolved compute-kernel set name (never ``"auto"``): the session
        #: selects and warm-compiles the set at construction so JIT cost is
        #: paid here, not on the first served frame.
        self.kernels = select_kernel_set(kernels).name
        self.config = config
        self.cache = cache if cache is not None else DEFAULT_CACHE
        self.backend: AcceleratorBackend = (
            create_backend(backend, config=config) if isinstance(backend, str) else backend
        )
        self._workloads: Mapping[str, RuntimeWorkload] = (
            workloads if workloads is not None else WORKLOADS
        )
        self.verify = verify
        #: Bounded content-addressed cache of pixel results: unlike the
        #: analytic ``cache`` (small dataclasses, unbounded), frame results
        #: carry pixel data, so residency is capped and LRU-evicted.
        #: Serving the same frame of the same workload twice is a lookup.
        self.frame_cache = ResultCache(max_entries=frame_cache_entries)
        #: Live video streams keyed by (stream id, workload); created on
        #: first :meth:`execute_stream` and invalidated together with the
        #: frame cache by :meth:`evict_pixel_caches`.
        self._video_streams: Dict[Tuple[str, str], "VideoStream"] = {}

    # ------------------------------------------------------------- registries
    @property
    def backend_name(self) -> str:
        return self.backend.name

    def handle(self) -> SessionHandle:
        """A picklable :class:`SessionHandle` rebuilding this session's shape.

        The handle names the backend by its registry name, so a session
        whose backend instance was constructed out-of-registry (with
        parameters the registry constructor would not reproduce) should not
        be sharded through handles — the rebuilt backend is
        ``create_backend(name, config=config)``.
        """
        return SessionHandle(
            backend=self.backend_name,
            config=self.config,
            frame_cache_entries=self.frame_cache.max_entries,
            kernels=self.kernels,
        )

    def plan_handle(self, workload_name: str) -> PlanHandle:
        """A picklable :class:`~repro.api.results.PlanHandle` for a workload.

        Validates the workload name now, so a bad handle fails at the
        coordinator instead of deep inside a worker process.
        """
        self.workload(workload_name)
        return PlanHandle(backend=self.backend_name, workload=workload_name)

    @property
    def frame_cache_stats(self) -> FrameCacheStats:
        """Counters of the bounded pixel-result cache (see :class:`FrameCacheStats`)."""
        stats = self.frame_cache.stats
        return FrameCacheStats(
            hits=stats.hits,
            misses=stats.misses,
            entries=stats.entries,
            evictions=stats.evictions,
            max_entries=self.frame_cache.max_entries,
        )

    def catalogue(self) -> Dict[str, str]:
        """Name -> description of the workloads this session can evaluate."""
        return {name: entry.description for name, entry in sorted(self._workloads.items())}

    def workload(self, name: str) -> RuntimeWorkload:
        """Look up a workload in this session's registry."""
        try:
            return self._workloads[name]
        except KeyError as exc:
            raise KeyError(
                f"unknown workload {name!r}; expected one of {sorted(self._workloads)}"
            ) from exc

    def network(self, workload_name: str) -> Network:
        """Build a fresh instance of the workload's network.

        Deliberately *not* the memoized shared instance: the caller may
        mutate what this returns (e.g. quantization round-trips), so it gets
        a private copy.  The analytic paths (:meth:`compile` and everything
        derived from it) use the read-only shared build.
        """
        return self.workload(workload_name).build_network()

    # ------------------------------------------------------------ evaluation
    def _backend_identity(self):
        """Content-address component distinguishing backend instances.

        Backends expose ``cache_identity`` (their configuration) so two
        differently-parameterized instances of the same backend never share
        cached answers; a backend without one keys on its name alone.
        """
        return getattr(self.backend, "cache_identity", None)

    def _key_parts(self, entry: RuntimeWorkload) -> tuple:
        """Backend, workload and configuration parts of this session's keys.

        A backend built from the session configuration has that very object
        as its identity, so the configuration enters the key once, through
        the identity.  Only the same object is dropped: an equal one (say
        ``512`` against ``512.0``) still keys apart.
        """
        identity = self._backend_identity()
        config = None if identity is self.config else self.config
        return (self.backend_name, identity, entry.identity, config)

    def _key(self, kind: str, entry: RuntimeWorkload) -> str:
        from repro.runtime.cache import ResultCache

        return ResultCache.key("api", kind, *self._key_parts(entry))

    def compile(self, workload_name: str) -> CompiledPlan:
        """Backend-lowered plan for a workload (cached per content address).

        Freshly compiled plans are statically verified by default (see the
        ``verify`` session flag): verification runs inside the cached
        computation, so a plan with error-level diagnostics never enters the
        cache — the call raises :class:`~repro.check.PlanVerificationError`
        carrying the report.  Every fresh compile is verified, but only the
        config-bound checks (block-buffer capacity, parameter memory, block
        residency and shapes) are recomputed each time; the config-free
        findings are computed once per shared compiled model per process
        (see :func:`repro.check.verify_plan`).
        """
        entry = self.workload(workload_name)

        def build() -> CompiledPlan:
            plan = self.backend.compile(entry.shared_network(), entry.spec)
            if self.verify:
                from repro.check import PlanVerificationError, verify_plan

                report = verify_plan(plan, config=self.config)
                if not report.ok:
                    raise PlanVerificationError(report)
            return plan

        return self.cache.get_or_compute(self._key("plan", entry), build)

    def profile(self, workload_name: str) -> PerfProfile:
        """Per-frame serving figures of a workload on this backend (cached).

        The profile's :attr:`~repro.api.results.PerfProfile.kernels` field is
        stamped with this session's kernel set *after* cache retrieval: the
        analytic figures are kernel-independent, so two sessions differing
        only in kernel set share the cached computation but each report their
        own arithmetic provenance.
        """
        entry = self.workload(workload_name)
        profile = self.cache.get_or_compute(
            self._key("profile", entry),
            lambda: self.backend.profile(self.compile(workload_name), entry.spec),
        )
        return replace(profile, kernels=self.kernels)

    def cost(self) -> CostReport:
        """Silicon cost of this session's backend configuration (cached)."""
        from repro.runtime.cache import ResultCache

        key = ResultCache.key(
            "api", "cost", self.backend_name, self._backend_identity(), self.config
        )
        return self.cache.get_or_compute(key, self.backend.cost)

    def _pixel_entry(self, workload_name: str) -> RuntimeWorkload:
        entry = self.workload(workload_name)
        if entry.kind == "recognition":
            raise ValueError("recognition serves single zero-padded blocks, not block flow")
        return entry

    def _frame_key(self, entry: RuntimeWorkload, frame: FeatureMap) -> str:
        """Content address of one frame's pixel result under this session."""
        import hashlib

        from repro.runtime.cache import ResultCache

        digest = hashlib.sha256(frame.data.tobytes()).hexdigest()
        return ResultCache.key(
            "api",
            "frame",
            *self._key_parts(entry),
            # Pixel results are kernel-set-addressed: jitted sets agree with
            # numpy only within a documented tolerance, so a frame served
            # under one set must never answer a lookup made under another.
            self.kernels,
            frame.shape,
            frame.data.dtype.str,
            frame.qformat,
            digest,
        )

    def execute(
        self,
        workload_name: str,
        frame: FeatureMap,
        *,
        cached: bool = True,
    ) -> InferenceResult:
        """Run one frame of pixels through the backend's compiled plan.

        Only block-flow workloads support pixel serving (recognition runs
        single zero-padded blocks, as in the legacy engine path).

        With ``cached=True`` results are content-addressed in the session's
        bounded :attr:`frame_cache`, so serving the same frame twice is a
        lookup — pass ``cached=False`` to force a fresh computation (the
        parity checks do).
        """
        entry = self._pixel_entry(workload_name)
        compute = lambda: self.backend.execute(  # noqa: E731
            self.compile(workload_name), frame
        )
        if not cached:
            return compute()
        return self.frame_cache.get_or_compute(self._frame_key(entry, frame), compute)

    def execute_many(
        self,
        workload_name: str,
        frames: Sequence[FeatureMap],
        *,
        cached: bool = True,
    ) -> List[InferenceResult]:
        """Run several frames of one workload, batched across frames.

        Frames already in the :attr:`frame_cache` are answered from it; the
        remainder execute together through the backend's ``execute_batch``
        (corresponding blocks of same-sized frames share fused network
        passes) and are cached for the next request.  Backends without an
        ``execute_batch`` method fall back to per-frame execution.
        """
        entry = self._pixel_entry(workload_name)
        results: List[Optional[InferenceResult]] = [None] * len(frames)
        misses: List[int] = []
        if cached:
            seen: Dict[str, List[int]] = {}
            keys: List[str] = []
            for index, frame in enumerate(frames):
                key = self._frame_key(entry, frame)
                keys.append(key)
                if key in self.frame_cache:
                    results[index] = self.frame_cache.get_or_compute(
                        key, lambda: None  # never called: key is resident
                    )
                elif key in seen:
                    # Duplicate frame within this batch: compute once,
                    # fan the result out below.
                    seen[key].append(index)
                else:
                    seen[key] = [index]
                    misses.append(index)
        else:
            misses = list(range(len(frames)))
        if misses:
            plan = self.compile(workload_name)
            batch = getattr(self.backend, "execute_batch", None)
            if callable(batch):
                fresh = batch(plan, [frames[index] for index in misses])
            else:
                fresh = [self.backend.execute(plan, frames[index]) for index in misses]
            for index, result in zip(misses, fresh):
                if cached:
                    self.frame_cache.get_or_compute(
                        keys[index], lambda value=result: value
                    )
                    for duplicate in seen[keys[index]]:
                        results[duplicate] = result
                else:
                    results[index] = result
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------ video streams
    def video_stream(
        self,
        stream_id: str,
        workload_name: str,
        *,
        threshold: float = 0.0,
        metric: str = "mae",
        max_cached_blocks: Optional[int] = None,
        output_block: Optional[int] = None,
    ) -> "VideoStream":
        """The live :class:`~repro.runtime.video.VideoStream` for a stream id.

        Created on first use; subsequent calls return the same stream with
        the threshold/metric updated to the requested values (the reuse
        decision is per frame, so reconfiguration never invalidates cached
        blocks).  ``max_cached_blocks`` / ``output_block`` only apply at
        creation — they shape long-lived per-stream state.
        """
        from repro.runtime.video import DEFAULT_MAX_CACHED_BLOCKS, VideoStream

        self._pixel_entry(workload_name)
        key = (str(stream_id), workload_name)
        stream = self._video_streams.get(key)
        if stream is None:
            stream = VideoStream(
                self,
                stream_id=str(stream_id),
                workload_name=workload_name,
                threshold=threshold,
                metric=metric,
                max_cached_blocks=(
                    max_cached_blocks
                    if max_cached_blocks is not None
                    else DEFAULT_MAX_CACHED_BLOCKS
                ),
                output_block=output_block,
            )
            self._video_streams[key] = stream
        else:
            stream.reconfigure(threshold=threshold, metric=metric)
        return stream

    def execute_stream(
        self,
        stream_id: str,
        workload_name: str,
        frame: FeatureMap,
        *,
        threshold: float = 0.0,
        metric: str = "mae",
        output_block: Optional[int] = None,
    ) -> "StreamFrameResult":
        """Serve the next ordered frame of a video stream by block deltas.

        Frames of one ``(stream_id, workload)`` pair are diffed against
        their predecessor at execution-block granularity; only changed
        blocks re-run inference, the rest stitch from the stream's bounded
        block cache.  ``threshold=0.0`` (the default) is exact-reuse mode —
        the result is bit-identical to :meth:`execute` on the same frame.
        See :class:`~repro.runtime.video.VideoStream`.
        """
        stream = self.video_stream(
            stream_id,
            workload_name,
            threshold=threshold,
            metric=metric,
            output_block=output_block,
        )
        return stream.submit(frame)

    @property
    def video_stream_stats(self) -> Tuple["VideoStreamStats", ...]:
        """Per-stream delta-reuse counters, ordered by (stream id, workload)."""
        return tuple(
            self._video_streams[key].stats for key in sorted(self._video_streams)
        )

    def evict_pixel_caches(self) -> int:
        """Drop every pixel-carrying cache this session owns; returns entries dropped.

        The single invalidation path behind the ``evict-frame-cache`` chaos
        event: the whole-frame :attr:`frame_cache` and every video stream's
        block cache (plus its predecessor frame) go together, so a delta
        stream can never serve a block that outlived an eviction.
        """
        dropped = len(self.frame_cache)
        self.frame_cache.clear()
        for stream in self._video_streams.values():
            dropped += stream.invalidate()
        return dropped

    # --------------------------------------------------------------- serving
    def serving_profile(self, workload_name: str) -> WorkloadProfile:
        """The scheduler-facing :class:`WorkloadProfile` on this backend.

        The eCNN backend delegates to the workload's own calibrated profile
        path (bit-identical to the pre-session serving numbers, including the
        kind-specific style-transfer/recognition models); other backends
        derive the profile from their :class:`PerfProfile`.  The ecnn branch
        is kept deliberately even though deriving from :meth:`profile` would
        give the same numbers: ``RuntimeWorkload.profile`` is a public entry
        point with its own ``workload-profile`` cache namespace, and routing
        the engine through it preserves the serving cache statistics the
        runtime's regression tests and CLI reports pin.
        """
        entry = self.workload(workload_name)
        if self.backend_name == "ecnn":
            return entry.profile(config=self.config, cache=self.cache)
        return self.cache.get_or_compute(
            self._key("serving-profile", entry),
            lambda: self._derive_serving_profile(workload_name),
        )

    def _derive_serving_profile(self, workload_name: str) -> WorkloadProfile:
        from repro.runtime.workloads import WorkloadProfile

        profile = self.profile(workload_name)
        return WorkloadProfile(
            workload=workload_name,
            model_name=profile.model_name,
            spec_name=profile.spec_name,
            frame_latency_s=profile.frame_latency_s,
            dram_gb_s=profile.dram_gb_s,
            power_w=profile.power_w,
            load_time_s=profile.load_time_s,
        )

    # ------------------------------------------------------------ comparison
    def compare(
        self,
        workload_name: str,
        backends: Optional[Sequence[str]] = None,
    ) -> Tuple[PerfProfile, ...]:
        """One workload profiled across backends (sharing this session's cache)."""
        names = tuple(backends) if backends is not None else available_backends()
        profiles: List[PerfProfile] = []
        for name in names:
            session = (
                self
                if name == self.backend_name
                else Session(
                    backend=name,
                    config=self.config,
                    cache=self.cache,
                    workloads=self._workloads,
                    kernels=self.kernels,
                )
            )
            profiles.append(session.profile(workload_name))
        return tuple(profiles)
