"""Video-stream serving with delta-aware block reuse.

The paper's whole premise is block-based CNN inference over *video*, yet
plain frame serving treats every frame as independent: the session's frame
cache only hits on byte-identical whole frames.  :class:`VideoStream`
closes that gap the way block-matching video codecs do — at execution-block
granularity:

* every submitted frame is diffed against its predecessor over each
  block's *input window* (margin included), using a SAD or MAE residual;
* blocks whose residual exceeds the stream's threshold re-run through the
  grouped block-parallel machinery
  (:func:`repro.core.blockflow.run_selected_blocks`);
* unchanged blocks are stitched from a bounded per-stream LRU block cache.

Because the residual covers the entire input window and a block's output is
a pure function of that window, **threshold 0 is exact-reuse mode**: the
delta-served frame is bit-identical to full re-inference *at the stream's
block geometry*, by construction.  With the default geometry (the compiled
plan's block size) that is exactly ``Session.execute``; a custom
``output_block`` compares against the block flow at that same block size —
different block geometries differ by float-epsilon accumulation-order
effects, so the parity contract is always per-geometry.
A positive threshold trades bounded pixel error for more reuse; the stream
records the largest residual it ever accepted
(:attr:`VideoStreamStats.max_reused_residual`) so the error stays a
*measured* quantity, and the bench/parity suites measure the actual pixel
error against full re-inference.

Streams are shard-local state: the cluster's sticky stream routing keeps a
stream id on one shard, so its previous frame and block cache live next to
the inference that feeds them.  :meth:`VideoStream.invalidate` drops both
the block cache and the predecessor frame — it is wired into
``Session.evict_pixel_caches`` so the ``evict-frame-cache`` chaos event
clears the whole-frame cache and every delta cache through one path (a
stream that survives an eviction recomputes its next frame in full instead
of trusting possibly-stale blocks).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.core.blockflow import (
    RESIDUAL_METRICS,
    BlockSpec,
    block_window_residuals,
    pad_frame,
    partition_image,
    run_selected_blocks,
    stitch_blocks,
)
from repro.nn.receptive_field import output_size_valid
from repro.nn.tensor import FeatureMap

if TYPE_CHECKING:  # repro.api.session imports this module lazily
    from repro.api.session import Session


#: Residual histogram bucket edges.  Bucket 0 counts exact matches
#: (residual == 0); bucket ``i`` counts residuals in
#: ``(EDGES[i-1], EDGES[i]]``; the last bucket counts everything above the
#: final edge (scene cuts land there).
RESIDUAL_HISTOGRAM_EDGES: Tuple[float, ...] = (0.0, 1e-6, 1e-4, 1e-2, 1.0)

#: Default residency bound of the per-stream block cache (cached block
#: outputs carry pixels, so the bound is deliberately modest).
DEFAULT_MAX_CACHED_BLOCKS = 256


def _histogram_bucket(residual: float) -> int:
    for index, edge in enumerate(RESIDUAL_HISTOGRAM_EDGES):
        if residual <= edge:
            return index
    return len(RESIDUAL_HISTOGRAM_EDGES)


@dataclass(frozen=True)
class VideoStreamStats:
    """Lifetime counters of one :class:`VideoStream`.

    ``blocks_total`` always equals ``blocks_reused + blocks_recomputed``,
    and the residual histogram sums to the number of blocks that were
    actually diffed (first frames and resolution changes recompute without
    residuals).  ``bytes_saved`` counts the input-window and output bytes
    the reused blocks did not move; ``max_reused_residual`` is the largest
    residual ever served from cache — 0.0 in exact-reuse mode, and the
    measured input-side error bound in thresholded mode.
    """

    stream_id: str
    workload: str
    threshold: float
    metric: str
    frames: int
    blocks_total: int
    blocks_reused: int
    blocks_recomputed: int
    residual_histogram: Tuple[int, ...]
    bytes_saved: int
    max_reused_residual: float
    cache_entries: int
    cache_evictions: int
    max_cached_blocks: Optional[int]

    @property
    def reuse_rate(self) -> float:
        return self.blocks_reused / self.blocks_total if self.blocks_total else 0.0

    def describe(self) -> str:
        return (
            f"stream {self.stream_id}/{self.workload}: {self.frames} frames, "
            f"{self.blocks_reused}/{self.blocks_total} blocks reused "
            f"({self.reuse_rate:.0%}, {self.metric} threshold {self.threshold:g}), "
            f"{self.bytes_saved} bytes saved, "
            f"{self.cache_entries} cached blocks ({self.cache_evictions} evicted)"
        )


@dataclass(frozen=True)
class StreamFrameResult:
    """One frame served through a :class:`VideoStream`.

    ``residuals`` is ``None`` when the frame was recomputed in full without
    diffing (the stream's first frame, a resolution/dtype change, or the
    frame after an invalidation); otherwise it carries one residual per
    block of the partition grid.
    """

    output: FeatureMap
    blocks_reused: int
    blocks_recomputed: int
    #: Grid indices of the blocks that re-ran inference this frame.
    recomputed_blocks: Tuple[int, ...]
    residuals: Optional[Tuple[float, ...]] = None

    @property
    def blocks_total(self) -> int:
        return self.blocks_reused + self.blocks_recomputed


class VideoStream:
    """Ordered frames of one (stream id, workload), served by block deltas.

    Parameters
    ----------
    session:
        The owning :class:`repro.api.Session`; supplies the compiled plan
        (network + block geometry) and the backend identity.
    stream_id / workload_name:
        Identity of the stream.  Only block-flow workloads stream
        (recognition serves single zero-padded blocks).
    threshold:
        Residual at or below which an unchanged block is served from the
        cache.  ``0.0`` (the default) is exact-reuse mode: a block reuses
        only when its input window is bit-identical to the predecessor's,
        so the stitched frame equals full re-inference exactly.
    metric:
        ``"mae"`` or ``"sad"`` (see
        :func:`repro.core.blockflow.block_window_residuals`).
    max_cached_blocks:
        Residency bound of the per-stream block-output cache (LRU);
        ``None`` for unbounded.  A block evicted under pressure simply
        recomputes on its next frame — eviction never affects pixels.
    output_block:
        Output-resolution block size of the delta grid; defaults to the
        compiled plan's geometry (making exact-reuse mode bit-identical to
        ``Session.execute``).  Smaller blocks localize change detection at
        the price of more margin recomputation; exact-reuse outputs are
        then bit-identical to the block flow at that same block size.
    """

    def __init__(
        self,
        session: "Session",
        *,
        stream_id: str,
        workload_name: str,
        threshold: float = 0.0,
        metric: str = "mae",
        max_cached_blocks: Optional[int] = DEFAULT_MAX_CACHED_BLOCKS,
        output_block: Optional[int] = None,
    ) -> None:
        entry = session.workload(workload_name)
        if entry.kind == "recognition":
            raise ValueError(
                "recognition serves single zero-padded blocks, not video streams"
            )
        if metric not in RESIDUAL_METRICS:
            raise ValueError(
                f"unknown residual metric {metric!r}; expected one of {RESIDUAL_METRICS}"
            )
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        if max_cached_blocks is not None and max_cached_blocks < 1:
            raise ValueError("max_cached_blocks must be positive (or None)")
        if output_block is not None and output_block < 1:
            raise ValueError("output_block must be positive (or None for the plan's)")
        self.session = session
        self.stream_id = str(stream_id)
        self.workload = workload_name
        self.threshold = float(threshold)
        self.metric = metric
        self.max_cached_blocks = max_cached_blocks
        self._output_block = output_block
        self._prev_padded: Optional[np.ndarray] = None
        self._prev_key: Optional[Tuple] = None
        self._cache: "OrderedDict[int, FeatureMap]" = OrderedDict()
        self._frames = 0
        self._blocks_reused = 0
        self._blocks_recomputed = 0
        self._histogram = [0] * (len(RESIDUAL_HISTOGRAM_EDGES) + 1)
        self._bytes_saved = 0
        self._max_reused_residual = 0.0
        self._evictions = 0

    # ------------------------------------------------------------ configuration
    def reconfigure(self, *, threshold: float, metric: str) -> None:
        """Adopt a new threshold/metric for subsequent frames.

        Cached blocks stay valid — the reuse decision is made per frame
        against the *current* configuration, so tightening the threshold
        simply recomputes more blocks from the next frame on.
        """
        if metric not in RESIDUAL_METRICS:
            raise ValueError(
                f"unknown residual metric {metric!r}; expected one of {RESIDUAL_METRICS}"
            )
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = float(threshold)
        self.metric = metric

    def _geometry(self):
        """(network, output block) of this stream's compiled plan."""
        plan = self.session.compile(self.workload)
        output_block = (
            self._output_block
            if self._output_block is not None
            else output_size_valid(plan.input_block, plan.network.layers)
        )
        return plan.network, output_block

    # ----------------------------------------------------------------- serving
    def submit(self, frame: FeatureMap) -> StreamFrameResult:
        """Serve the stream's next frame, reusing unchanged blocks.

        Blocks whose input-window residual against the predecessor frame is
        at or below the threshold — and whose output is still resident in
        the block cache — are stitched from the cache; the rest re-run
        through the grouped block-parallel flow.  The first frame, a frame
        after a resolution/dtype/Q-format change, and the frame after an
        :meth:`invalidate` recompute in full.
        """
        network, output_block = self._geometry()
        grid = partition_image(frame.height, frame.width, network, output_block)
        padded = pad_frame(frame, network.layers)
        key = (frame.shape, frame.data.dtype.str, frame.qformat)

        residuals: Optional[np.ndarray] = None
        reused: list[int] = []
        if self._prev_padded is None or key != self._prev_key:
            # Nothing trustworthy to diff against: full recompute, and the
            # cache is dropped because its indices describe the old grid.
            self._cache.clear()
            recomputed = list(range(grid.num_blocks))
        else:
            residuals = block_window_residuals(
                self._prev_padded, padded, grid, network.layers, metric=self.metric
            )
            recomputed = []
            for index, residual in enumerate(residuals):
                self._histogram[_histogram_bucket(float(residual))] += 1
                if residual <= self.threshold and index in self._cache:
                    reused.append(index)
                else:
                    recomputed.append(index)

        fresh = run_selected_blocks(network, padded, grid, recomputed, frame.qformat)
        pieces: list[Tuple[BlockSpec, FeatureMap]] = []
        window_itemsize = frame.data.dtype.itemsize
        for index in reused:
            cached = self._cache[index]
            self._cache.move_to_end(index)
            block = grid.blocks[index]
            pieces.append((block, cached))
            self._bytes_saved += (
                block.input_pixels * frame.channels * window_itemsize
                + cached.data.nbytes
            )
            if residuals is not None:
                self._max_reused_residual = max(
                    self._max_reused_residual, float(residuals[index])
                )
        for index, result in zip(recomputed, fresh):
            pieces.append((grid.blocks[index], result))
            self._cache[index] = result
            self._cache.move_to_end(index)
            if self.max_cached_blocks is not None:
                while len(self._cache) > self.max_cached_blocks:
                    self._cache.popitem(last=False)
                    self._evictions += 1

        self._prev_padded = padded
        self._prev_key = key
        self._frames += 1
        self._blocks_reused += len(reused)
        self._blocks_recomputed += len(recomputed)
        return StreamFrameResult(
            output=stitch_blocks(pieces, grid.output_height, grid.output_width),
            blocks_reused=len(reused),
            blocks_recomputed=len(recomputed),
            recomputed_blocks=tuple(recomputed),
            residuals=(
                tuple(float(r) for r in residuals) if residuals is not None else None
            ),
        )

    # ------------------------------------------------------------- invalidation
    def invalidate(self) -> int:
        """Drop the block cache *and* the predecessor frame; returns entries dropped.

        After an invalidation the next frame recomputes in full — the
        stream never diffs against a frame it no longer holds, so a chaos
        eviction can never leave a stale block servable.
        """
        dropped = len(self._cache)
        self._cache.clear()
        self._prev_padded = None
        self._prev_key = None
        return dropped

    # ------------------------------------------------------------------- stats
    @property
    def stats(self) -> VideoStreamStats:
        return VideoStreamStats(
            stream_id=self.stream_id,
            workload=self.workload,
            threshold=self.threshold,
            metric=self.metric,
            frames=self._frames,
            blocks_total=self._blocks_reused + self._blocks_recomputed,
            blocks_reused=self._blocks_reused,
            blocks_recomputed=self._blocks_recomputed,
            residual_histogram=tuple(self._histogram),
            bytes_saved=self._bytes_saved,
            max_reused_residual=self._max_reused_residual,
            cache_entries=len(self._cache),
            cache_evictions=self._evictions,
            max_cached_blocks=self.max_cached_blocks,
        )
