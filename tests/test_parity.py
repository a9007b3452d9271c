"""Randomized differential parity: every execution tier, bit-identical.

The repository's optimization discipline is that a faster path is only
accepted with bit-identical A/B verification against the path it replaced.
This harness generalizes those hand-picked A/B checks into a seeded
randomized sweep: each seed draws shapes, channel counts, network
geometries and Q-formats, then drives the same pixels through every tier —
scalar layer kernels vs fused ``forward_batch``, the per-block reference
(``conftest.scalar_block_reference``) vs block-parallel grouping, quantized
deployments, and the session / engine /
sharded-cluster serving stack — asserting exact equality with the shared
:func:`conftest.assert_parity` helper.

Randomization is *seeded*: a failure reproduces from its seed, and the
drawn configurations are stable across runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.workloads import synthetic_image
from repro.api import Session
from repro.core.blockflow import block_based_inference, frame_based_inference
from repro.core.pipeline import BlockInferencePipeline
from repro.kernels import (
    active_kernel_set,
    available_kernel_sets,
    kernel_set,
    use_kernel_set,
)
from repro.models.baselines import build_plain_network
from repro.nn.ops import MaxPool2x2, PixelShuffle, PixelUnshuffle
from repro.nn.tensor import BatchedFeatureMap, FeatureMap
from repro.quant.quantize import optimal_fraction_bits, quantize_network
from repro.runtime import ResultCache, ServingCluster, ServingEngine

SEEDS = (0, 1, 2, 3, 4)

#: Block-flow workloads of the serving catalogue (recognition serves single
#: zero-padded blocks, not pixels), with the (low, high) frame-size range to
#: draw from — style transfer's two downsamplers need a larger minimum.
PIXEL_WORKLOADS = {
    "denoise": (24, 49),
    "super_resolution": (24, 49),
    "style_transfer": (52, 73),
}


# ------------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def engine() -> ServingEngine:
    return ServingEngine(backend="ecnn", cache=ResultCache())


@pytest.fixture(scope="module")
def cluster():
    with ServingCluster(workers=3, backend="ecnn", mode="inline") as built:
        yield built


# ----------------------------------------------------------------- the helper
class TestAssertParityHelper:
    def test_detects_divergence(self, assert_parity):
        reference = np.arange(12.0).reshape(3, 2, 2)
        perturbed = reference.copy()
        perturbed[1, 0, 1] += 1e-12
        with pytest.raises(AssertionError, match="bit-identical"):
            assert_parity({"reference": reference, "broken": perturbed})

    def test_detects_shape_mismatch(self, assert_parity):
        with pytest.raises(AssertionError, match="shape"):
            assert_parity({"a": np.zeros((2, 2)), "b": np.zeros((2, 3))})

    def test_needs_two_outputs(self, assert_parity):
        with pytest.raises(ValueError):
            assert_parity({"only": np.zeros(3)})

    def test_unwraps_feature_maps_and_results(self, engine, assert_parity):
        image = synthetic_image(24, 24, seed=0)
        result = engine.execute_frame("denoise", image, cached=False)
        assert_parity(
            {
                "raw": result.output.data,
                "feature_map": result.output,
                "inference_result": result,
            }
        )

    def test_fixture_is_the_conftest_export(self, assert_parity):
        # The fixture hands out the module-level helper defined in
        # tests/conftest.py (loaded by path: "conftest" is an ambiguous
        # module name when the benchmarks suite is collected too).
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "tests_conftest_for_parity", Path(__file__).parent / "conftest.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert assert_parity.__code__.co_filename == module.assert_parity.__code__.co_filename
        assert assert_parity.__name__ == "assert_parity"


# ------------------------------------------------------------- random drawing
# The random stack generator lives in tests/conftest.py (draw_layer_stack)
# so the static-analysis fuzz harness can reuse it; tests take it as a
# fixture rather than importing conftest (an ambiguous module name when
# the benchmarks suite is collected too).
@pytest.mark.parametrize("seed", SEEDS)
class TestRandomizedKernels:
    def test_random_stack_forward_batch_matches_scalar(
        self, seed, assert_parity, draw_layer_stack
    ):
        rng = np.random.default_rng(seed)
        channels = int(rng.integers(2, 7))
        height = int(rng.integers(8, 20))
        width = int(rng.integers(8, 20))
        batch = int(rng.integers(2, 6))
        network = draw_layer_stack(rng, channels)
        maps = [
            FeatureMap(data=rng.normal(size=(channels, height, width)))
            for _ in range(batch)
        ]
        fused = network.forward_batch(BatchedFeatureMap.from_maps(maps))
        for index, single in enumerate(maps):
            assert_parity(
                {
                    "scalar": network.forward(single),
                    "forward_batch": fused[index],
                },
                context=f"seed={seed} frame={index} shape={single.data.shape}",
            )

    def test_random_shuffle_pool_kernels(self, seed, assert_parity):
        rng = np.random.default_rng(1000 + seed)
        factor = int(rng.choice([2, 3]))
        height = factor * int(rng.integers(3, 7))
        width = factor * int(rng.integers(3, 7))
        even_height = 2 * int(rng.integers(3, 9))
        even_width = 2 * int(rng.integers(3, 9))
        for layer, channels, size in (
            (PixelShuffle(factor), factor * factor * int(rng.integers(1, 4)), (height, width)),
            (PixelUnshuffle(factor), int(rng.integers(1, 5)), (height, width)),
            (MaxPool2x2(), int(rng.integers(1, 6)), (even_height, even_width)),
        ):
            maps = [
                FeatureMap(data=rng.normal(size=(channels, *size)))
                for _ in range(3)
            ]
            fused = layer.forward_batch(BatchedFeatureMap.from_maps(maps))
            for index, single in enumerate(maps):
                assert_parity(
                    {"scalar": layer.forward(single), "batched": fused[index]},
                    context=f"seed={seed} {type(layer).__name__}",
                )


@pytest.mark.parametrize("seed", SEEDS)
class TestRandomizedBlockFlow:
    def test_random_geometry_scalar_vs_parallel(
        self, seed, assert_parity, scalar_block_reference
    ):
        rng = np.random.default_rng(2000 + seed)
        depth = int(rng.integers(2, 5))
        width = int(rng.integers(4, 11))
        network = build_plain_network(depth, width, seed=seed)
        height = int(rng.integers(24, 44))
        image_width = int(rng.integers(24, 44))
        output_block = int(rng.integers(8, 15))
        image = synthetic_image(height, image_width, seed=seed)
        scalar = scalar_block_reference(network, image, output_block)
        fused, _ = block_based_inference(network, image, output_block=output_block)
        assert_parity(
            {"scalar": scalar, "block_parallel": fused},
            context=f"seed={seed} {height}x{image_width} block={output_block}",
        )
        # The block flow itself must agree with whole-frame execution (to
        # float tolerance: the summation order differs by construction).
        reference = frame_based_inference(network, image)
        assert np.allclose(fused.data, reference.data)

    def test_random_qformat_quantized_parity(
        self, seed, assert_parity, scalar_block_reference
    ):
        rng = np.random.default_rng(3000 + seed)
        network = build_plain_network(int(rng.integers(2, 4)), int(rng.integers(4, 9)), seed=seed)
        bits = int(rng.choice([6, 7, 8]))
        feature_bits = int(rng.choice([7, 8]))
        plan = quantize_network(network, bits=bits, feature_bits=feature_bits)
        # The drawn Q-formats really vary with the seed (regression guard
        # for the randomization itself).
        assert plan.layers[0].weight_format.bits == bits
        pipeline = BlockInferencePipeline(
            network, output_block=int(rng.integers(8, 13)), quantization=plan
        )
        image = synthetic_image(int(rng.integers(24, 40)), int(rng.integers(24, 40)), seed=seed)
        assert_parity(
            {
                "scalar": scalar_block_reference(network, image, pipeline.output_block),
                "block_parallel": pipeline.run(image),
            },
            context=f"seed={seed} Q bits={bits}/{feature_bits}",
        )


@pytest.mark.parametrize("seed", SEEDS)
class TestPostChaosParity:
    """After every injected worker death, survivors stay bit-identical.

    The soak harness's chaos discipline, pinned as a seeded sweep: draw a
    pixel workload, serve it through a fresh inline cluster, kill the
    owning shard (twice — down to the last survivor), and hold every
    surviving shard's ``execute_frame`` output to ``assert_parity``
    against the scalar per-block reference.
    """

    def test_survivors_bit_identical_after_each_worker_death(
        self, seed, assert_parity, session_block_reference
    ):
        rng = np.random.default_rng(5000 + seed)
        workload = str(rng.choice(sorted(PIXEL_WORKLOADS)))
        low, high = PIXEL_WORKLOADS[workload]
        # Snap to multiples of 4: style transfer's two downsamplers only
        # accept frame sizes congruent to 0 or 1 mod 4.
        height = int(rng.integers(low, high)) // 4 * 4
        width = int(rng.integers(low, high)) // 4 * 4
        image = synthetic_image(height, width, seed=seed)
        session = Session(backend="ecnn", cache=ResultCache())
        fresh = session.execute(workload, image, cached=False)
        reference = session_block_reference(session, workload, image, fresh)
        with ServingCluster(workers=3, backend="ecnn", mode="inline") as chaos_cluster:
            outputs = {"scalar_reference": reference, "session": fresh}
            outputs["before_chaos"] = chaos_cluster.execute_frame(
                workload, image, cached=False
            )
            for death in (1, 2):
                owner = chaos_cluster._workload_shard[workload]
                chaos_cluster.kill_worker(owner)
                outputs[f"after_death_{death}"] = chaos_cluster.execute_frame(
                    workload, image, cached=False
                )
            assert len(chaos_cluster.live_shard_indices()) == 1
            assert_parity(
                outputs, context=f"seed={seed} workload={workload} post-chaos"
            )


#: Synthetic video motion models the delta-reuse tier must stay exact under.
VIDEO_KINDS = ("static", "noise", "pan", "cut")


def _video_sequence(kind, *, height, width, frames, seed):
    """A seeded synthetic frame sequence (replayable from its seed).

    ``static`` repeats one frame; ``noise`` perturbs a small random patch
    per frame (localized change); ``pan`` translates by two columns per
    frame (np.roll — global but structured change); ``cut`` draws an
    unrelated frame each step (full invalidation).
    """
    rng = np.random.default_rng(seed)
    sequence = [synthetic_image(height, width, seed=seed)]
    for step in range(1, frames):
        previous = sequence[-1]
        if kind == "static":
            sequence.append(previous)
        elif kind == "noise":
            data = previous.data.copy()
            patch = 8
            row = int(rng.integers(0, height - patch))
            col = int(rng.integers(0, width - patch))
            data[:, row : row + patch, col : col + patch] += rng.normal(
                scale=0.05, size=(previous.channels, patch, patch)
            )
            sequence.append(FeatureMap(data=data))
        elif kind == "pan":
            sequence.append(FeatureMap(data=np.roll(previous.data, 2, axis=2)))
        elif kind == "cut":
            sequence.append(synthetic_image(height, width, seed=seed + 1000 * step))
        else:
            raise ValueError(f"unknown sequence kind {kind!r}")
    return sequence


@pytest.mark.parametrize("seed", SEEDS)
class TestRandomizedVideoStreams:
    """Delta-reuse serving is bit-identical to full re-inference.

    For every seed, workload and motion model, each frame served through
    the video-stream tier (session and sharded cluster, exact-reuse mode at
    the default block geometry) must equal the scalar per-block reference
    and the block-parallel full re-inference of that same frame — reuse is an optimization, never
    an approximation.
    """

    @pytest.mark.parametrize("kind", VIDEO_KINDS)
    def test_stream_delta_bit_identical_across_tiers(
        self, seed, kind, cluster, assert_parity, session_block_reference
    ):
        rng = np.random.default_rng(6000 + seed)
        workload = str(rng.choice(sorted(PIXEL_WORKLOADS)))
        low, high = PIXEL_WORKLOADS[workload]
        # Snap to multiples of 4 for style transfer's two downsamplers.
        height = int(rng.integers(low, high)) // 4 * 4
        width = int(rng.integers(low, high)) // 4 * 4
        frames = _video_sequence(
            kind, height=height, width=width, frames=3, seed=seed
        )
        session = Session(backend="ecnn", cache=ResultCache())
        stream_id = f"vid-{seed}-{kind}"
        for index, frame in enumerate(frames):
            served = session.execute_stream(stream_id, workload, frame)
            fresh = session.execute(workload, frame, cached=False)
            assert_parity(
                {
                    "scalar": session_block_reference(session, workload, frame, fresh),
                    "block_parallel": fresh,
                    "stream_delta": served.output,
                    "cluster_stream": cluster.execute_stream(
                        stream_id, workload, frame
                    ).output,
                },
                context=f"seed={seed} kind={kind} workload={workload} frame={index}",
            )
        stats = next(
            s for s in session.video_stream_stats if s.stream_id == stream_id
        )
        assert stats.frames == len(frames)
        # Exact-reuse mode never serves a block whose window changed.
        assert stats.max_reused_residual == 0.0
        if kind == "static":
            assert stats.blocks_reused > 0

    def test_thresholded_reuse_error_is_bounded_and_measured(
        self, seed, session_block_reference
    ):
        rng = np.random.default_rng(7000 + seed)
        height = int(rng.integers(24, 49))
        width = int(rng.integers(24, 49))
        threshold = 1e-2
        base = synthetic_image(height, width, seed=seed)
        noisy = FeatureMap(
            data=base.data + rng.normal(scale=1e-4, size=base.data.shape)
        )
        session = Session(backend="ecnn", cache=ResultCache())
        stream = session.video_stream("lossy", "denoise", threshold=threshold)
        stream.submit(base)
        served = stream.submit(noisy)
        fresh_prev = session.execute("denoise", base, cached=False)
        fresh_cur = session.execute("denoise", noisy, cached=False)
        reference_prev = session_block_reference(session, "denoise", base, fresh_prev).data
        reference_cur = session_block_reference(session, "denoise", noisy, fresh_cur).data
        assert np.array_equal(fresh_prev.output.data, reference_prev)
        assert np.array_equal(fresh_cur.output.data, reference_cur)
        # Low-amplitude noise reuses everything; the served pixels are the
        # predecessor's exact output, so the error against fresh
        # re-inference is bounded by the drift between the two references —
        # a measured bound, not a trust-me bound.
        assert served.blocks_reused == served.blocks_total
        assert np.array_equal(served.output.data, reference_prev)
        error = float(np.abs(served.output.data - reference_cur).max())
        assert error <= float(np.abs(reference_cur - reference_prev).max())
        stats = stream.stats
        assert 0.0 < stats.max_reused_residual <= threshold


def _sweep_kernel_sets(compute):
    """``compute()`` once per available kernel set; name -> ndarray output."""
    outputs = {}
    for name in available_kernel_sets():
        with use_kernel_set(name):
            outputs[name] = np.asarray(compute())
    return outputs


def _assert_kernel_tolerance(outputs, context):
    """Each set's output vs the numpy oracle, within its documented tolerance.

    ``tolerance == 0.0`` demands bit identity (the oracle against itself,
    and any future exact set); non-zero tolerances (numba's MAC
    accumulation-order rounding) are absolute bounds.
    """
    reference = outputs["numpy"]
    for name, data in outputs.items():
        tolerance = kernel_set(name).tolerance
        assert data.shape == reference.shape, (
            f"kernel set {name} changed the output shape "
            f"({data.shape} != {reference.shape}) [{context}]"
        )
        if tolerance == 0.0:
            assert np.array_equal(data, reference), (
                f"kernel set {name} must be bit-identical to the numpy "
                f"oracle [{context}]"
            )
        else:
            diff = float(np.max(np.abs(data - reference))) if data.size else 0.0
            assert diff <= tolerance, (
                f"kernel set {name} diverged from the numpy oracle by "
                f"{diff:g} > documented tolerance {tolerance:g} [{context}]"
            )


@pytest.mark.parametrize("seed", SEEDS)
class TestKernelSetParity:
    """Every available kernel set agrees with the numpy reference oracle.

    The sweep re-runs representative paths of every tier — scalar layer
    kernels, fused ``forward_batch``, block-parallel flow, quantized
    Q-format passes, and the session / cluster / video-stream serving
    stack — once per registered-and-available kernel set (numpy always;
    numba on the CI leg that installs it), holding each set's pixels to
    its documented tolerance against the numpy oracle.  On a numba-less
    machine the sweep degenerates to the oracle against itself, which
    keeps the harness itself under test.
    """

    def test_layer_kernels_across_sets(self, seed, draw_layer_stack):
        rng = np.random.default_rng(8000 + seed)
        channels = int(rng.integers(2, 6))
        network = draw_layer_stack(rng, channels)
        maps = [
            FeatureMap(data=rng.normal(size=(channels, 14, 15))) for _ in range(3)
        ]
        scalar = _sweep_kernel_sets(lambda: network.forward(maps[0]).data)
        _assert_kernel_tolerance(scalar, f"seed={seed} scalar forward")
        batched = _sweep_kernel_sets(
            lambda: network.forward_batch(BatchedFeatureMap.from_maps(maps)).data
        )
        _assert_kernel_tolerance(batched, f"seed={seed} forward_batch")

    def test_block_flow_and_qformat_across_sets(self, seed):
        rng = np.random.default_rng(8100 + seed)
        network = build_plain_network(
            int(rng.integers(2, 4)), int(rng.integers(4, 9)), seed=seed
        )
        image = synthetic_image(
            int(rng.integers(24, 40)), int(rng.integers(24, 40)), seed=seed
        )
        fused = _sweep_kernel_sets(
            lambda: block_based_inference(network, image, output_block=12)[0].data
        )
        _assert_kernel_tolerance(fused, f"seed={seed} block-parallel flow")
        # The Q-format passes are integer-exact in every set: quantize codes
        # are bit-identical and the fraction search picks the same format
        # (ties included — every set breaks toward the larger frac).
        values = rng.normal(scale=float(rng.uniform(0.01, 30.0)), size=257)
        codes = _sweep_kernel_sets(
            lambda: optimal_fraction_bits(values).quantize_to_codes(values)
        )
        reference = codes["numpy"]
        for name, data in codes.items():
            assert np.array_equal(data, reference), (
                f"kernel set {name} changed quantize/fraction-search results "
                f"(seed={seed})"
            )

    def test_serving_tiers_across_sets(self, seed, session_block_reference):
        rng = np.random.default_rng(8200 + seed)
        height = int(rng.integers(24, 41))
        width = int(rng.integers(24, 41))
        image = synthetic_image(height, width, seed=seed)
        moved = FeatureMap(data=np.roll(image.data, 2, axis=2))

        def serve_all_tiers():
            # Pin the session to the set under sweep: a default "auto"
            # construction would re-run auto-selection and override the
            # use_kernel_set scope.
            session = Session(
                backend="ecnn",
                cache=ResultCache(),
                kernels=active_kernel_set().name,
            )
            fresh = session.execute("denoise", image, cached=False)
            outputs = [
                session_block_reference(session, "denoise", image, fresh).data,
                fresh.output.data,
            ]
            with ServingCluster(
                workers=2, backend="ecnn", mode="inline", kernels=session.kernels
            ) as sharded:
                outputs.append(
                    sharded.execute_frame("denoise", image, cached=False).output.data
                )
            session.execute_stream(f"kp-{seed}", "denoise", image)
            outputs.append(
                session.execute_stream(f"kp-{seed}", "denoise", moved).output.data
            )
            return np.stack(outputs)

        tiers = _sweep_kernel_sets(serve_all_tiers)
        _assert_kernel_tolerance(
            tiers, f"seed={seed} session/cluster/video tiers {height}x{width}"
        )


@pytest.mark.parametrize("seed", SEEDS)
class TestRandomizedServingStack:
    def test_session_engine_cluster_bit_identical(
        self, seed, engine, cluster, assert_parity, session_block_reference
    ):
        rng = np.random.default_rng(4000 + seed)
        workload = str(rng.choice(sorted(PIXEL_WORKLOADS)))
        low, high = PIXEL_WORKLOADS[workload]
        height = int(rng.integers(low, high))
        width = int(rng.integers(low, high))
        image = synthetic_image(height, width, seed=seed)
        session = Session(backend="ecnn", cache=ResultCache())
        fresh = session.execute(workload, image, cached=False)
        assert_parity(
            {
                "session_scalar": session_block_reference(session, workload, image, fresh),
                "session_parallel": fresh,
                "engine": engine.execute_frame(workload, image, cached=False),
                "cluster": cluster.execute_frame(workload, image, cached=False),
                "cluster_batch": cluster.execute_frames(
                    workload, [image], cached=False
                )[0],
            },
            context=f"seed={seed} workload={workload} {height}x{width}",
        )
