"""Block-parallel execution: batched tensors, fused layers, serving parity.

The contract under test: the block-parallel grouped execution (and every
``forward_batch`` kernel underneath it) produces pixels bit-identical to
running the scalar ``forward`` on each block window on its own
(``scalar_block_reference``), across every layer type, every block-flow
catalogue workload, both functional backends, non-divisible image sizes
(edge-block groups) and the cross-frame batch APIs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.workloads import synthetic_image
from repro.api import Session
from repro.core.blockflow import (
    _SCALAR_FALLBACK_WINDOW_PIXELS,
    block_based_inference,
    block_based_inference_many,
    frame_based_inference,
)
from repro.core.pipeline import BlockInferencePipeline
from repro.kernels import use_kernel_set
from repro.nn.layers import AddBias, ClippedReLU, Conv2d, Layer, ReLU, Residual
from repro.nn.ops import (
    MaxPool2x2,
    PixelShuffle,
    PixelUnshuffle,
    StridedPool2x2,
    ZeroPad,
)
from repro.nn.tensor import BatchedFeatureMap, FeatureMap
from repro.quant.quantize import quantize_network
from repro.runtime.cache import ResultCache
from repro.runtime.engine import ServingEngine

#: Every block-flow workload of the serving catalogue (recognition has no
#: pixel path) and the two functionally-executing backend families.
PIXEL_WORKLOADS = ("denoise", "super_resolution", "style_transfer")
PIXEL_BACKENDS = ("ecnn", "frame_based")

#: (height, width) pairs per workload: one block-aligned size and one
#: non-divisible size that exercises edge-block remainder groups.
WORKLOAD_SIZES = {
    "denoise": ((40, 40), (35, 27)),
    "super_resolution": ((40, 40), (35, 27)),
    "style_transfer": ((64, 64), (68, 52)),
}


# ------------------------------------------------------------------ container
class TestBatchedFeatureMap:
    def test_requires_four_dims_and_nonempty_batch(self):
        with pytest.raises(ValueError):
            BatchedFeatureMap(data=np.zeros((3, 8, 8)))
        with pytest.raises(ValueError):
            BatchedFeatureMap(data=np.zeros((0, 3, 8, 8)))

    def test_stack_and_unstack_round_trip(self, rng):
        maps = [FeatureMap(data=rng.random((3, 6, 5))) for _ in range(4)]
        batch = BatchedFeatureMap.from_maps(maps)
        assert batch.shape == (4, 3, 6, 5)
        assert batch.batch == len(batch) == 4
        assert (batch.channels, batch.height, batch.width) == (3, 6, 5)
        for original, restored in zip(maps, batch.maps()):
            assert np.array_equal(original.data, restored.data)
        assert np.array_equal(batch[2].data, maps[2].data)

    def test_stack_rejects_mismatched_shapes(self, rng):
        maps = [
            FeatureMap(data=rng.random((3, 6, 5))),
            FeatureMap(data=rng.random((3, 6, 4))),
        ]
        with pytest.raises(ValueError):
            BatchedFeatureMap.from_maps(maps)
        with pytest.raises(ValueError):
            BatchedFeatureMap.from_maps([])

    def test_from_arrays_and_qformat_carry(self, rng):
        arrays = [rng.random((2, 4, 4)) for _ in range(3)]
        batch = BatchedFeatureMap.from_arrays(arrays, qformat="Q6")
        assert batch.qformat == "Q6"
        assert batch[0].qformat == "Q6"
        replaced = batch.with_data(batch.data * 2.0)
        assert replaced.qformat == "Q6"


# -------------------------------------------------------------------- kernels
def _assert_layer_batch_parity(layer: Layer, maps, *, exact: bool = True):
    batch = BatchedFeatureMap.from_maps(maps)
    fused = layer.forward_batch(batch)
    for index, fm in enumerate(maps):
        scalar = layer.forward(fm)
        assert fused[index].data.shape == scalar.data.shape
        if exact:
            assert np.array_equal(fused[index].data, scalar.data), type(layer).__name__
        else:
            assert np.allclose(fused[index].data, scalar.data), type(layer).__name__


class TestForwardBatchKernels:
    @pytest.mark.parametrize(
        "layer, in_channels, size",
        [
            (Conv2d(6, 9, 3, seed=1), 6, (12, 11)),
            (Conv2d(6, 9, 3, padding="zero", seed=2), 6, (12, 11)),
            (Conv2d(6, 4, 1, seed=3), 6, (9, 9)),
            (ReLU(), 5, (7, 8)),
            (ClippedReLU(0.5), 5, (7, 8)),
            (AddBias(np.linspace(-1, 1, 5)), 5, (7, 8)),
            (PixelShuffle(2), 8, (6, 5)),
            (PixelUnshuffle(2), 3, (8, 6)),
            (StridedPool2x2(), 4, (8, 6)),
            (MaxPool2x2(), 4, (8, 6)),
            (ZeroPad(2), 3, (5, 5)),
            (
                Residual([Conv2d(6, 6, 3, seed=4), ReLU(), Conv2d(6, 6, 3, seed=5)]),
                6,
                (13, 12),
            ),
        ],
    )
    def test_every_layer_matches_scalar_bitwise(self, rng, layer, in_channels, size):
        maps = [
            FeatureMap(data=rng.normal(size=(in_channels, *size))) for _ in range(5)
        ]
        _assert_layer_batch_parity(layer, maps)

    def test_sequential_chains_batched(self, rng, mixed_network):
        maps = [FeatureMap(data=rng.random((3, 18, 18))) for _ in range(4)]
        _assert_layer_batch_parity(mixed_network, maps)

    def test_base_class_fallback_is_batch_correct(self, rng):
        class Halve(Layer):
            def forward(self, fm: FeatureMap) -> FeatureMap:
                return fm.with_data(fm.data * 0.5)

            def output_shape(self, c, h, w):
                return c, h, w

        maps = [FeatureMap(data=rng.random((2, 4, 4))) for _ in range(3)]
        _assert_layer_batch_parity(Halve(), maps)

    def test_conv_chunked_batch_matches_single_pass(self, rng, monkeypatch):
        # Force the chunked path by exceeding the im2col value budget, and
        # count the batched im2col calls to prove more than one chunk ran.
        from repro.kernels import numpy_set

        chunks = []
        im2col = numpy_set._im2col

        def counting_im2col(data, kernel):
            if data.ndim == 4:
                chunks.append(data.shape[0])
            return im2col(data, kernel)

        monkeypatch.setattr(numpy_set, "_CONV_BATCH_BUDGET_VALUES", 1)
        monkeypatch.setattr(numpy_set, "_im2col", counting_im2col)
        conv = Conv2d(8, 8, 3, seed=6)
        maps = [FeatureMap(data=rng.normal(size=(8, 30, 30))) for _ in range(7)]
        with use_kernel_set("numpy"):
            _assert_layer_batch_parity(conv, maps)
        assert len(chunks) > 1
        assert sum(chunks) == len(maps)


# ------------------------------------------------------------------ blockflow
class TestBlockParallelFlow:
    @pytest.mark.parametrize("size", [(40, 44), (37, 29)])
    def test_parallel_equals_scalar_bitwise(
        self, tiny_plain_network, size, scalar_block_reference
    ):
        image = synthetic_image(*size, seed=11)
        scalar = scalar_block_reference(tiny_plain_network, image, 12)
        fused, grid = block_based_inference(tiny_plain_network, image, output_block=12)
        assert grid.num_blocks > 1
        assert np.array_equal(scalar.data, fused.data)
        reference = frame_based_inference(tiny_plain_network, image)
        assert np.allclose(fused.data, reference.data)

    def test_parallel_with_upsampler_and_residuals(
        self, tiny_sr_network, tiny_ernet, scalar_block_reference
    ):
        for network, size in ((tiny_sr_network, (26, 22)), (tiny_ernet, (33, 27))):
            image = synthetic_image(*size, seed=13)
            scalar = scalar_block_reference(network, image, 10)
            fused, _ = block_based_inference(network, image, 10)
            assert np.array_equal(scalar.data, fused.data)

    def test_large_windows_run_as_batches_of_one(
        self, tiny_plain_network, monkeypatch, scalar_block_reference
    ):
        # Output block 60 needs 68x68 input windows, over the threshold:
        # the four interior blocks share a shape but each runs alone, while
        # the small edge windows are still stacked.
        network = tiny_plain_network
        batches = []
        forward_batch = network.forward_batch

        def recording(bfm):
            batches.append(bfm.shape)
            return forward_batch(bfm)

        monkeypatch.setattr(network, "forward_batch", recording)
        image = synthetic_image(130, 128, seed=19)
        fused, grid = block_based_inference(network, image, 60)
        assert grid.num_blocks == 9
        large = [n for n, _, h, w in batches if h * w >= _SCALAR_FALLBACK_WINDOW_PIXELS]
        small = [n for n, _, h, w in batches if h * w < _SCALAR_FALLBACK_WINDOW_PIXELS]
        assert large == [1, 1, 1, 1]
        assert sorted(small) == [1, 2, 2]
        reference = scalar_block_reference(network, image, 60)
        assert np.array_equal(fused.data, reference.data)

    def test_many_matches_per_frame_results(
        self, tiny_plain_network, scalar_block_reference
    ):
        images = [synthetic_image(30 + step, 28, seed=step) for step in range(3)]
        many = block_based_inference_many(tiny_plain_network, images, 12)
        assert len(many) == len(images)
        for image, (output, grid) in zip(images, many):
            single, single_grid = block_based_inference(tiny_plain_network, image, 12)
            assert np.array_equal(output.data, single.data)
            assert np.array_equal(
                output.data, scalar_block_reference(tiny_plain_network, image, 12).data
            )
            assert grid.num_blocks == single_grid.num_blocks
        assert block_based_inference_many(tiny_plain_network, [], 12) == []

    def test_pipeline_run_batch(self, tiny_plain_network, scalar_block_reference):
        pipeline = BlockInferencePipeline(tiny_plain_network, output_block=12)
        images = [synthetic_image(30, 30, seed=seed) for seed in (1, 2)]
        batch = pipeline.run_batch(images)
        for image, result in zip(images, batch):
            single = pipeline.run(image)
            assert np.array_equal(result.output.data, single.output.data)
            reference = scalar_block_reference(tiny_plain_network, image, 12)
            assert np.array_equal(result.output.data, reference.data)
            assert result.overheads == single.overheads

    def test_quantized_network_batched_parity(
        self, tiny_plain_network, scalar_block_reference
    ):
        # The fixed-point deployment path: apply a quantization plan through
        # the pipeline, then check fused execution still matches the
        # per-block reference.
        plan = quantize_network(tiny_plain_network)
        pipeline = BlockInferencePipeline(
            tiny_plain_network, output_block=12, quantization=plan
        )
        image = synthetic_image(31, 29, seed=17)
        fused = pipeline.run(image)
        scalar = scalar_block_reference(tiny_plain_network, image, 12)
        assert np.array_equal(fused.output.data, scalar.data)


# ------------------------------------------------------- serving-stack parity
class TestServingParity:
    @pytest.mark.parametrize("backend", PIXEL_BACKENDS)
    @pytest.mark.parametrize("workload", PIXEL_WORKLOADS)
    def test_catalogue_scalar_vs_parallel(
        self, backend, workload, session_block_reference
    ):
        session = Session(backend=backend, cache=ResultCache())
        for size in WORKLOAD_SIZES[workload]:
            image = synthetic_image(*size, seed=23)
            fused = session.execute(workload, image, cached=False)
            scalar = session_block_reference(session, workload, image, fused)
            assert np.array_equal(scalar.data, fused.output.data), (
                workload,
                backend,
                size,
            )

    @pytest.mark.parametrize("backend", PIXEL_BACKENDS)
    def test_execute_many_matches_per_frame(self, backend, session_block_reference):
        session = Session(backend=backend, cache=ResultCache())
        images = [
            synthetic_image(*WORKLOAD_SIZES["denoise"][0], seed=seed)
            for seed in range(3)
        ] + [synthetic_image(*WORKLOAD_SIZES["denoise"][1], seed=9)]
        batch = session.execute_many("denoise", images, cached=False)
        for image, result in zip(images, batch):
            single = session.execute("denoise", image, cached=False)
            assert np.array_equal(result.output.data, single.output.data)
            reference = session_block_reference(session, "denoise", image, result)
            assert np.array_equal(result.output.data, reference.data)

    def test_frame_cache_serves_repeats(self):
        session = Session(backend="ecnn", cache=ResultCache())
        image = synthetic_image(40, 40, seed=29)
        first = session.execute("denoise", image)
        assert session.frame_cache.stats.misses == 1
        second = session.execute("denoise", image)
        assert session.frame_cache.stats.hits == 1
        assert second is first
        # Different pixels, different entry.
        other = session.execute("denoise", synthetic_image(40, 40, seed=30))
        assert not np.array_equal(other.output.data, first.output.data)
        assert session.frame_cache.stats.misses == 2

    def test_execute_many_dedupes_repeated_frames(self, session_block_reference):
        session = Session(backend="ecnn", cache=ResultCache())
        image = synthetic_image(40, 40, seed=31)
        results = session.execute_many("denoise", [image, image, image])
        # One compute fans out to every duplicate in the batch.
        assert session.frame_cache.stats.misses == 1
        assert results[1] is results[0] and results[2] is results[0]
        reference = session_block_reference(session, "denoise", image, results[0])
        assert np.array_equal(results[0].output.data, reference.data)

    def test_execute_many_mixes_cache_hits_and_batch(self, session_block_reference):
        session = Session(backend="ecnn", cache=ResultCache())
        images = [synthetic_image(40, 40, seed=seed) for seed in range(4)]
        session.execute("denoise", images[1])  # pre-populate one entry
        results = session.execute_many("denoise", images)
        for image, result in zip(images, results):
            reference = session_block_reference(session, "denoise", image, result)
            assert np.array_equal(result.output.data, reference.data)
        assert session.frame_cache.stats.hits >= 1

    def test_engine_execute_frames(self, session_block_reference):
        engine = ServingEngine(backend="ecnn", cache=ResultCache())
        images = [synthetic_image(35, 27, seed=seed) for seed in (1, 2)]
        batch = engine.execute_frames("denoise", images, cached=False)
        for image, result in zip(images, batch):
            single = engine.execute_frame("denoise", image, cached=False)
            assert np.array_equal(result.output.data, single.output.data)
            reference = session_block_reference(engine.session, "denoise", image, result)
            assert np.array_equal(result.output.data, reference.data)

    def test_recognition_still_has_no_pixel_path(self):
        session = Session(backend="ecnn", cache=ResultCache())
        with pytest.raises(ValueError):
            session.execute_many("recognition", [synthetic_image(32, 32, seed=1)])
