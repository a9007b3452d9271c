"""Block partitioning, truncated-pyramid execution and stitching.

Frame-based reference
---------------------
The reproduction defines the frame-based reference as: pad the input image
once by the network's total (input-resolution) margin and run the valid-mode
network over the whole padded frame.  The block-based flow draws every block's
input window from that same padded frame, so the stitched output equals the
frame-based output up to float accumulation order (convolution GEMMs of
different widths sum in different orders) — this is the core functional
invariant the eCNN hardware relies on (recomputation changes cost, never
values).  At a fixed block geometry the stitched output is bit-identical to
running ``network.forward`` on each block window on its own.

Geometry
--------
Blocks are defined on the output-resolution grid.  For every output block the
required input window is derived by walking the layer stack backwards
(:func:`input_interval_for_output`): a valid 3x3 convolution widens the window
by one pixel per side, a pixel-shuffle upsampler divides coordinates by its
factor, a pooling/unshuffle stage multiplies them.

Block-parallel execution
------------------------
All blocks of a frame are independent — the property the eCNN hardware
exploits with 81 parallel block pipelines.  The functional path exploits it
too: every entry point (:func:`block_based_inference`,
:func:`block_based_inference_many`, :func:`run_selected_blocks`) hands its
block windows to one executor, which groups them by input-window shape
(every interior block is identical; edge remainders form a handful of
smaller groups), stacks each group into a
:class:`~repro.nn.tensor.BatchedFeatureMap`, runs the network's
``forward_batch`` once per group and returns the cropped per-block results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Layer
from repro.nn.network import Sequential
from repro.nn.receptive_field import layer_geometry
from repro.nn.tensor import BatchedFeatureMap, FeatureMap


@dataclass(frozen=True)
class BlockSpec:
    """One block of the output grid and the input window that produces it.

    All output coordinates are in output-resolution pixels; input coordinates
    are in input-resolution pixels relative to the *unpadded* input image
    (they may be negative or exceed the image size — those samples come from
    the zero border).
    """

    out_row: int
    out_col: int
    out_height: int
    out_width: int
    in_row: int
    in_col: int
    in_height: int
    in_width: int

    @property
    def output_pixels(self) -> int:
        return self.out_height * self.out_width

    @property
    def input_pixels(self) -> int:
        return self.in_height * self.in_width


@dataclass
class BlockGrid:
    """A full partition of an image into blocks plus aggregate statistics."""

    image_height: int
    image_width: int
    output_height: int
    output_width: int
    block_size: int
    blocks: List[BlockSpec] = field(default_factory=list)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def total_input_pixels(self) -> int:
        return sum(block.input_pixels for block in self.blocks)

    @property
    def total_output_pixels(self) -> int:
        return sum(block.output_pixels for block in self.blocks)

    def measured_nbr(self, in_channels: int = 3, out_channels: int = 3) -> float:
        """Measured normalized bandwidth ratio for this partition.

        Bandwidth for all input and output blocks over the bandwidth of the
        output image alone (the paper's Eq. 2 counts both against 3*xo^2).
        """
        out_image = self.output_height * self.output_width * out_channels
        moved = (
            self.total_input_pixels * in_channels
            + self.total_output_pixels * out_channels
        )
        return moved / out_image


def input_interval_for_output(
    start: int, stop: int, layers: Sequence[Layer]
) -> Tuple[int, int]:
    """Map an output-coordinate interval ``[start, stop)`` back to input coordinates.

    The walk goes from the last layer to the first, applying the inverse of
    each layer's spatial geometry.
    """
    lo, hi = start, stop
    for layer in reversed(list(layers)):
        geom = layer_geometry(layer)
        if geom.scale > 1.0:
            factor = int(round(geom.scale))
            lo = lo // factor
            hi = -((-hi) // factor)  # ceil division
        elif geom.scale < 1.0:
            factor = int(round(1.0 / geom.scale))
            lo = lo * factor
            hi = hi * factor
        lo -= geom.margin
        hi += geom.margin
    return lo, hi


def output_interval_for_input(
    start: int, stop: int, layers: Sequence[Layer]
) -> Tuple[int, int]:
    """Map an input-coordinate interval forward to the output pixels it produces.

    Inverse companion of :func:`input_interval_for_output`: walking the stack
    forwards, a valid convolution trims its margin from both ends, an
    upsampler multiplies coordinates and a pooling stage divides them.
    """
    lo, hi = start, stop
    for layer in layers:
        geom = layer_geometry(layer)
        lo += geom.margin
        hi -= geom.margin
        if geom.scale > 1.0:
            factor = int(round(geom.scale))
            lo *= factor
            hi *= factor
        elif geom.scale < 1.0:
            factor = int(round(1.0 / geom.scale))
            lo = -((-lo) // factor)
            hi = hi // factor
    return lo, hi


def total_input_margin(layers: Sequence[Layer]) -> int:
    """Input-resolution border needed per side to produce output pixel 0."""
    lo, _hi = input_interval_for_output(0, 1, layers)
    return -lo


def network_scale(layers: Sequence[Layer]) -> float:
    """Net output/input spatial scale of a layer stack."""
    scale = 1.0
    for layer in layers:
        scale *= layer_geometry(layer).scale
    return scale


def partition_image(
    image_height: int,
    image_width: int,
    network: Sequential,
    output_block: int,
) -> BlockGrid:
    """Partition the output grid of ``network`` applied to an image into blocks.

    Parameters
    ----------
    image_height, image_width:
        Input image size in pixels.
    network:
        The model; its layers define margins and scale factors.
    output_block:
        Target (square) output block size in output-resolution pixels.
        Blocks at the right/bottom edges may be smaller.
    """
    if output_block <= 0:
        raise ValueError("output_block must be positive")
    scale = network_scale(network.layers)
    out_h = int(round(image_height * scale))
    out_w = int(round(image_width * scale))
    if out_h <= 0 or out_w <= 0:
        raise ValueError("network scale collapses the image to zero size")

    grid = BlockGrid(
        image_height=image_height,
        image_width=image_width,
        output_height=out_h,
        output_width=out_w,
        block_size=output_block,
    )
    for row in range(0, out_h, output_block):
        for col in range(0, out_w, output_block):
            block_h = min(output_block, out_h - row)
            block_w = min(output_block, out_w - col)
            in_r0, in_r1 = input_interval_for_output(row, row + block_h, network.layers)
            in_c0, in_c1 = input_interval_for_output(col, col + block_w, network.layers)
            grid.blocks.append(
                BlockSpec(
                    out_row=row,
                    out_col=col,
                    out_height=block_h,
                    out_width=block_w,
                    in_row=in_r0,
                    in_col=in_c0,
                    in_height=in_r1 - in_r0,
                    in_width=in_c1 - in_c0,
                )
            )
    return grid


def frame_based_inference(network: Sequential, image: FeatureMap) -> FeatureMap:
    """Reference frame-based execution: pad once, run the whole frame.

    The result is cropped to the canonical ``scale x image`` output size; with
    upsampling stages the padded margin can produce a few surplus border
    pixels that no output region owns.
    """
    margin = total_input_margin(network.layers)
    padded = np.pad(image.data, ((0, 0), (margin, margin), (margin, margin)))
    result = network.forward(image.with_data(padded))
    scale = network_scale(network.layers)
    out_h = int(round(image.height * scale))
    out_w = int(round(image.width * scale))
    if result.height == out_h and result.width == out_w:
        return result
    produced_row, _ = output_interval_for_input(-margin, image.height + margin, network.layers)
    produced_col, _ = output_interval_for_input(-margin, image.width + margin, network.layers)
    return result.crop(-produced_row, -produced_col, out_h, out_w)


def _block_window(
    padded: np.ndarray, block: BlockSpec, margin: int
) -> np.ndarray:
    """The (view of the) padded-image window one block consumes."""
    r0 = block.in_row + margin
    c0 = block.in_col + margin
    window = padded[:, r0 : r0 + block.in_height, c0 : c0 + block.in_width]
    if window.shape[1] != block.in_height or window.shape[2] != block.in_width:
        raise ValueError(
            "input window exceeds the padded image; "
            "the network margin accounting is inconsistent"
        )
    return window


#: Input windows at least this large (in pixels) run as batches of one:
#: their layer passes are BLAS-bound, so stacking buys no python-overhead
#: amortization while the batch-wide temporaries only add allocator
#: pressure.  Small-window groups — the many-blocks regime the paper's 81
#: parallel pipelines target — run as one batch.
_SCALAR_FALLBACK_WINDOW_PIXELS = 64 * 64


def _run_block_groups(
    network: Sequential,
    jobs: Sequence[Tuple[BlockSpec, np.ndarray, Optional[str]]],
) -> List[FeatureMap]:
    """Run ``(block, window, qformat)`` jobs through the network, batched.

    This is the only place the block flow runs a network.  Jobs whose input
    windows share a shape (and dtype/Q-format) are stacked into one
    :class:`BatchedFeatureMap` and run through ``forward_batch`` in a single
    fused pass; the raw group output is then cropped per block.  Groups of
    large (BLAS-bound) windows run one batch of one per window instead —
    same pixels, better allocator behaviour.  Returns the cropped per-job
    outputs in job order.
    """
    groups: Dict[tuple, List[int]] = {}
    for index, (block, window, qformat) in enumerate(jobs):
        key = (window.shape, window.dtype.str, qformat)
        groups.setdefault(key, []).append(index)
    results: List[Optional[FeatureMap]] = [None] * len(jobs)
    for (shape, _dtype, qformat), indices in groups.items():
        large = shape[-2] * shape[-1] >= _SCALAR_FALLBACK_WINDOW_PIXELS
        step = 1 if large else len(indices)
        for start in range(0, len(indices), step):
            chunk = indices[start : start + step]
            batch = BatchedFeatureMap(
                data=np.stack([jobs[index][1] for index in chunk]), qformat=qformat
            )
            raw = network.forward_batch(batch)
            for slot, index in enumerate(chunk):
                result = FeatureMap(data=raw.data[slot], qformat=raw.qformat)
                results[index] = _crop_to_block(result, jobs[index][0], network.layers)
    return results  # type: ignore[return-value]


def block_based_inference(
    network: Sequential,
    image: FeatureMap,
    output_block: int,
) -> Tuple[FeatureMap, BlockGrid]:
    """Run the block-based truncated-pyramid flow and stitch the result.

    Returns the stitched output feature map and the block grid (for overhead
    accounting).  The stitched output equals :func:`frame_based_inference`
    within float tolerance (the two run convolutions of different widths,
    which accumulate in different orders), and is bit-identical to running
    ``network.forward`` on every block window of the same grid.  This is the
    single-frame form of :func:`block_based_inference_many`.
    """
    return block_based_inference_many(network, [image], output_block)[0]


def block_based_inference_many(
    network: Sequential,
    images: Sequence[FeatureMap],
    output_block: int,
) -> List[Tuple[FeatureMap, BlockGrid]]:
    """Run several frames through the block flow with cross-frame batching.

    Blocks are pooled across *all* frames before grouping, so corresponding
    blocks of same-sized frames share fused passes (frames of one workload
    usually have identical partition grids, making the interior-block group
    ``num_frames`` times deeper than in single-frame execution).  Each
    frame's stitched output is bit-identical to its
    :func:`block_based_inference` result.
    """
    grids: List[BlockGrid] = []
    jobs: List[Tuple[BlockSpec, np.ndarray, Optional[str]]] = []
    margin = total_input_margin(network.layers)
    for image in images:
        grid = partition_image(image.height, image.width, network, output_block)
        grids.append(grid)
        padded = pad_frame(image, network.layers)
        for block in grid.blocks:
            jobs.append((block, _block_window(padded, block, margin), image.qformat))
    results = _run_block_groups(network, jobs)
    stitched: List[Tuple[FeatureMap, BlockGrid]] = []
    start = 0
    for grid in grids:
        pieces = list(zip(grid.blocks, results[start : start + grid.num_blocks]))
        start += grid.num_blocks
        output = stitch_blocks(pieces, grid.output_height, grid.output_width)
        stitched.append((output, grid))
    return stitched


#: Residual metrics the delta path understands: mean / sum of absolute
#: per-value differences over a block's *input window* (margin included).
RESIDUAL_METRICS = ("mae", "sad")


def pad_frame(image: FeatureMap, layers: Sequence[Layer]) -> np.ndarray:
    """Zero-pad a frame by the stack's total input margin.

    This is the canonical padding every block's input window is drawn from
    (:func:`block_based_inference_many` pads each frame with it), exposed so
    the video delta path can diff consecutive padded frames window-by-window.
    """
    margin = total_input_margin(layers)
    return np.pad(image.data, ((0, 0), (margin, margin), (margin, margin)))


def block_window_residuals(
    prev_padded: np.ndarray,
    cur_padded: np.ndarray,
    grid: BlockGrid,
    layers: Sequence[Layer],
    *,
    metric: str = "mae",
) -> np.ndarray:
    """Per-block residual between two padded frames over each input window.

    The residual of a block is computed over the *entire* input window the
    block consumes — margin included — so a zero residual proves the block's
    output is unchanged (a block's output is a pure function of its input
    window).  That is what makes threshold-0 reuse bit-exact by
    construction rather than by approximation.

    ``metric`` is ``"mae"`` (mean absolute difference per value) or
    ``"sad"`` (sum of absolute differences, the classic block-matching
    criterion); both are zero exactly when the windows are identical.
    """
    if metric not in RESIDUAL_METRICS:
        raise ValueError(
            f"unknown residual metric {metric!r}; expected one of {RESIDUAL_METRICS}"
        )
    if prev_padded.shape != cur_padded.shape:
        raise ValueError(
            f"padded frames differ in shape: {prev_padded.shape} vs {cur_padded.shape}"
        )
    margin = total_input_margin(layers)
    residuals = np.empty(grid.num_blocks, dtype=np.float64)
    for index, block in enumerate(grid.blocks):
        prev = _block_window(prev_padded, block, margin)
        cur = _block_window(cur_padded, block, margin)
        diff = np.abs(cur.astype(np.float64) - prev.astype(np.float64))
        residuals[index] = float(diff.sum()) if metric == "sad" else float(diff.mean())
    return residuals


def run_selected_blocks(
    network: Sequential,
    padded: np.ndarray,
    grid: BlockGrid,
    indices: Sequence[int],
    qformat: Optional[str] = None,
) -> List[FeatureMap]:
    """Run only the named blocks of a partition and return their outputs.

    The selective counterpart of :func:`block_based_inference`: the caller
    supplies the padded frame and the partition grid, names the block
    indices to recompute, and gets each block's cropped output back in
    ``indices`` order.  Pixels are bit-identical to a full run — both go
    through the same grouped-batch executor — which is the invariant the
    video delta path's exact-reuse mode rests on.
    """
    margin = total_input_margin(network.layers)
    jobs = [
        (grid.blocks[index], _block_window(padded, grid.blocks[index], margin), qformat)
        for index in indices
    ]
    return _run_block_groups(network, jobs)


def _crop_to_block(
    result: FeatureMap, block: BlockSpec, layers: Sequence[Layer]
) -> FeatureMap:
    """Crop a block's raw output to the output region the block owns.

    Because upsampling/pooling stages force the input window onto coarser
    alignment, the computed output can be slightly larger than the requested
    block; the surplus pixels belong to neighbouring blocks and are dropped.
    """
    if result.height == block.out_height and result.width == block.out_width:
        return result
    produced_row, _ = output_interval_for_input(
        block.in_row, block.in_row + block.in_height, layers
    )
    produced_col, _ = output_interval_for_input(
        block.in_col, block.in_col + block.in_width, layers
    )
    top = block.out_row - produced_row
    left = block.out_col - produced_col
    if top < 0 or left < 0:
        raise ValueError(
            "block output does not cover its assigned region; "
            "the margin accounting is inconsistent"
        )
    return result.crop(top, left, block.out_height, block.out_width)


def stitch_blocks(
    blocks: Sequence[Tuple[BlockSpec, FeatureMap]],
    output_height: int,
    output_width: int,
) -> FeatureMap:
    """Stitch per-block outputs into a full image.

    The block flow and the video delta path both assemble their frames
    here; the output takes the dtype of the first block.
    """
    if not blocks:
        raise ValueError("no blocks to stitch")
    first = blocks[0][1]
    output = np.zeros(
        (first.channels, output_height, output_width), dtype=first.data.dtype
    )
    for spec, fm in blocks:
        if fm.height != spec.out_height or fm.width != spec.out_width:
            raise ValueError(
                f"block output {fm.height}x{fm.width} does not match spec "
                f"{spec.out_height}x{spec.out_width}"
            )
        output[
            :,
            spec.out_row : spec.out_row + spec.out_height,
            spec.out_col : spec.out_col + spec.out_width,
        ] = fm.data
    return FeatureMap(data=output)
