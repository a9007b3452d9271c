"""Property tests for delta-aware video-stream serving.

The geometry used throughout is chosen so change locality is *provable*:
denoise (margin 6 — three 3x3 convolutions per side) over 48x48 frames at
``output_block=16`` gives a 3x3 grid whose block centers (rows/cols 8, 24,
40) sit more than a margin away from every other block's input window.  A
single-pixel mutation at a block center therefore changes exactly one
block's input window, and :class:`repro.runtime.video.VideoStream` must
recompute exactly that block — no more, no fewer.

The bit-identity reference for this custom geometry is the scalar
per-block oracle ``scalar_block_reference(network, frame, 16)`` from
``conftest.py`` (the parity contract is per-geometry; see the module
docstring of :mod:`repro.runtime.video`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.workloads import synthetic_image
from repro.api import Session
from repro.core.blockflow import partition_image
from repro.nn.tensor import FeatureMap
from repro.runtime import RESIDUAL_HISTOGRAM_EDGES, ResultCache, VideoStream

#: 48x48 denoise frames at output_block 16: a 3x3 grid, margin 6.
SIZE = 48
BLOCK = 16
GRID_BLOCKS = 9
#: Center pixel of grid block (row, col) — strictly interior to that
#: block's input window and outside every other block's window.
_CENTERS = {(row, col): (16 * row + 8, 16 * col + 8) for row in range(3) for col in range(3)}


@pytest.fixture
def session() -> Session:
    return Session(backend="ecnn", cache=ResultCache())


@pytest.fixture
def stream(session) -> VideoStream:
    return session.video_stream("cam0", "denoise", output_block=BLOCK)


def _frame(seed: int) -> FeatureMap:
    return synthetic_image(SIZE, SIZE, seed=seed)


def _mutated(frame: FeatureMap, blocks) -> FeatureMap:
    data = frame.data.copy()
    for row, col in blocks:
        y, x = _CENTERS[(row, col)]
        data[:, y, x] += 1.0
    return FeatureMap(data=data, qformat=frame.qformat)


@pytest.fixture
def reference(session, scalar_block_reference):
    """Full re-inference pixels of a frame at this module's geometry."""
    network = session.compile("denoise").network
    return lambda frame: scalar_block_reference(network, frame, BLOCK).data


class TestChangeLocality:
    def test_first_frame_recomputes_everything_without_residuals(self, stream):
        result = stream.submit(_frame(0))
        assert result.residuals is None
        assert result.blocks_reused == 0
        assert result.blocks_recomputed == GRID_BLOCKS
        assert result.recomputed_blocks == tuple(range(GRID_BLOCKS))

    @pytest.mark.parametrize(
        "mutated_blocks",
        [
            [(1, 1)],
            [(0, 0), (2, 2)],
            [(0, 2), (1, 1), (2, 0)],
            [(0, 1), (1, 0), (1, 2), (2, 1)],
        ],
        ids=["center", "two-corners", "diagonal", "plus"],
    )
    def test_mutating_k_blocks_recomputes_exactly_k(
        self, stream, mutated_blocks, reference
    ):
        base = _frame(0)
        stream.submit(base)
        frame = _mutated(base, mutated_blocks)
        result = stream.submit(frame)
        expected = tuple(sorted(3 * row + col for row, col in mutated_blocks))
        assert result.recomputed_blocks == expected
        assert result.blocks_recomputed == len(mutated_blocks)
        assert result.blocks_reused == GRID_BLOCKS - len(mutated_blocks)
        # Reuse never costs pixels: the stitched frame is bit-identical to
        # full re-inference at the stream's geometry.
        assert np.array_equal(result.output.data, reference(frame))

    def test_static_sequence_reuses_every_block(self, stream, reference):
        base = _frame(1)
        stream.submit(base)
        for _ in range(3):
            result = stream.submit(base)
            assert result.blocks_reused == GRID_BLOCKS
            assert result.recomputed_blocks == ()
            assert result.residuals == (0.0,) * GRID_BLOCKS
            assert np.array_equal(result.output.data, reference(base))

    def test_scene_cut_invalidates_every_block(self, stream, reference):
        stream.submit(_frame(2))
        cut = _frame(99)
        result = stream.submit(cut)
        assert result.blocks_reused == 0
        assert result.blocks_recomputed == GRID_BLOCKS
        assert result.residuals is not None and min(result.residuals) > 0.0
        assert np.array_equal(result.output.data, reference(cut))

    def test_invalidate_forces_full_undiffed_recompute(self, stream):
        base = _frame(3)
        stream.submit(base)
        assert stream.submit(base).blocks_reused == GRID_BLOCKS
        dropped = stream.invalidate()
        assert dropped == GRID_BLOCKS
        result = stream.submit(base)
        assert result.residuals is None
        assert result.blocks_recomputed == GRID_BLOCKS

    def test_resolution_change_recomputes_without_diffing(self, stream):
        stream.submit(_frame(4))
        wide = synthetic_image(SIZE, SIZE + 16, seed=4)
        result = stream.submit(wide)
        assert result.residuals is None
        assert result.blocks_reused == 0


class TestCacheBound:
    def test_eviction_honors_the_residency_bound(self, session, reference):
        bound = 4
        stream = session.video_stream(
            "small-cache", "denoise", max_cached_blocks=bound, output_block=BLOCK
        )
        base = _frame(5)
        for _ in range(4):
            stream.submit(base)
            stats = stream.stats
            assert stats.cache_entries <= bound
        # 9 blocks through a 4-entry cache: the first frame alone evicts 5.
        assert stream.stats.cache_evictions >= GRID_BLOCKS - bound
        # Static frames still recompute the evicted blocks (residual 0 but
        # not resident) — and eviction never affects pixels.
        result = stream.submit(base)
        assert result.blocks_recomputed > 0
        assert result.blocks_reused == bound
        assert np.array_equal(result.output.data, reference(base))

    def test_unbounded_cache_never_evicts(self, session):
        # Through the session API ``None`` means "the default bound";
        # a truly unbounded cache takes the constructor.
        stream = VideoStream(
            session,
            stream_id="unbounded",
            workload_name="denoise",
            max_cached_blocks=None,
            output_block=BLOCK,
        )
        assert stream.max_cached_blocks is None
        base = _frame(6)
        for _ in range(3):
            stream.submit(base)
        assert stream.stats.cache_evictions == 0
        assert stream.stats.cache_entries == GRID_BLOCKS

    def test_cached_blocks_own_their_memory(self, session):
        # One recomputed group's blocks are views into a single batch
        # output; cached copies keep the bound a bound on bytes.
        stream = session.video_stream("owned", "denoise", output_block=BLOCK)
        frame = synthetic_image(96, 96, seed=8)
        stream.submit(frame)
        cached = list(stream._cache.values())
        assert len(cached) == 36
        assert all(block.data.base is None for block in cached)
        owners = {}
        for block in cached:
            owner = block.data if block.data.base is None else block.data.base
            owners[id(owner)] = owner.nbytes
        block_bytes = frame.channels * BLOCK * BLOCK * cached[0].data.dtype.itemsize
        assert sum(owners.values()) <= len(cached) * block_bytes

    def test_bad_configuration_is_rejected(self, session):
        with pytest.raises(ValueError, match="recognition"):
            session.video_stream("cam", "recognition")
        with pytest.raises(ValueError, match="metric"):
            session.video_stream("cam", "denoise", metric="ssim")
        with pytest.raises(ValueError, match="threshold"):
            session.video_stream("cam", "denoise", threshold=-0.1)
        with pytest.raises(ValueError, match="max_cached_blocks"):
            VideoStream(
                session, stream_id="cam", workload_name="denoise", max_cached_blocks=0
            )


class TestStatsReconciliation:
    def test_counters_reconcile_with_per_frame_results(self, session, stream):
        base = _frame(7)
        frames = [
            base,
            base,  # static: all reuse
            _mutated(base, [(1, 1)]),  # one block
            _mutated(base, [(1, 1)]),  # static again relative to prev
            _frame(123),  # scene cut
        ]
        results = [stream.submit(frame) for frame in frames]
        stats = stream.stats
        assert stats.frames == len(frames)
        assert stats.blocks_reused == sum(r.blocks_reused for r in results)
        assert stats.blocks_recomputed == sum(r.blocks_recomputed for r in results)
        assert stats.blocks_total == stats.blocks_reused + stats.blocks_recomputed
        assert stats.blocks_total == sum(r.blocks_total for r in results)
        # The histogram covers exactly the diffed blocks: every frame after
        # the first contributes one residual per grid block.
        diffed = sum(GRID_BLOCKS for r in results if r.residuals is not None)
        assert sum(stats.residual_histogram) == diffed
        assert len(stats.residual_histogram) == len(RESIDUAL_HISTOGRAM_EDGES) + 1
        # Exact-reuse mode never accepts a nonzero residual.
        assert stats.threshold == 0.0
        assert stats.max_reused_residual == 0.0
        assert stats.bytes_saved > 0
        assert 0.0 < stats.reuse_rate < 1.0
        assert stream.stream_id in stats.describe()

    def test_session_surfaces_stream_stats(self, session):
        session.execute_stream("a", "denoise", _frame(8), output_block=BLOCK)
        session.execute_stream("b", "denoise", _frame(9), output_block=BLOCK)
        stats = session.video_stream_stats
        assert [s.stream_id for s in stats] == ["a", "b"]
        assert all(s.frames == 1 for s in stats)

    def test_thresholded_reuse_reports_measured_residuals(self, session, reference):
        stream = session.video_stream(
            "lossy", "denoise", threshold=1e-3, output_block=BLOCK
        )
        base = _frame(10)
        stream.submit(base)
        noisy = FeatureMap(
            data=base.data + np.random.default_rng(11).normal(scale=1e-5, size=base.data.shape),
            qformat=base.qformat,
        )
        result = stream.submit(noisy)
        # Low-amplitude noise stays under the MAE threshold: all reuse.
        assert result.blocks_reused == GRID_BLOCKS
        stats = stream.stats
        assert 0.0 < stats.max_reused_residual <= 1e-3
        # The served pixels equal the *predecessor's* reference exactly, so
        # the pixel error against fresh re-inference is bounded by the
        # drift between the two references.
        ref_prev = reference(base)
        ref_cur = reference(noisy)
        assert np.array_equal(result.output.data, ref_prev)
        error = np.abs(result.output.data - ref_cur).max()
        assert error <= np.abs(ref_cur - ref_prev).max()

    def test_reconfigure_tightens_future_frames_only(self, session):
        stream = session.video_stream(
            "tighten", "denoise", threshold=1.0, output_block=BLOCK
        )
        base = _frame(12)
        stream.submit(base)
        drifted = _mutated(base, [(1, 1)])
        assert stream.submit(drifted).blocks_reused == GRID_BLOCKS
        session.video_stream("tighten", "denoise", threshold=0.0)
        assert stream.threshold == 0.0
        # At threshold 0 the drifted block now recomputes (its residual
        # against the previous frame is 0 only for untouched blocks).
        result = stream.submit(_mutated(drifted, [(1, 1)]))
        assert result.recomputed_blocks == (4,)


class TestGridAssumptions:
    def test_geometry_is_the_documented_3x3_grid(self, session):
        network = session.compile("denoise").network
        grid = partition_image(SIZE, SIZE, network, BLOCK)
        assert grid.num_blocks == GRID_BLOCKS
        assert (grid.output_height, grid.output_width) == (SIZE, SIZE)
        # The center-pixel construction: each block's input window contains
        # its own center and no other block's center.
        for index, block in enumerate(grid.blocks):
            for (row, col), (y, x) in _CENTERS.items():
                inside = (
                    block.in_row <= y < block.in_row + block.in_height
                    and block.in_col <= x < block.in_col + block.in_width
                )
                assert inside == (index == 3 * row + col)
