"""End-to-end block-based inference pipeline.

This is the highest-level convenience API of the core package: it bundles a
model, a block geometry and (optionally) a quantization plan, runs the
block-based flow on an image and reports both the output and the overhead /
traffic statistics the evaluation section cares about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.blockflow import (
    BlockGrid,
    block_based_inference,
    block_based_inference_many,
    frame_based_inference,
)
from repro.core.overheads import OverheadReport, overhead_report
from repro.nn.network import Sequential
from repro.nn.receptive_field import required_input_size
from repro.nn.tensor import FeatureMap
from repro.quant.quantize import QuantizationPlan


@dataclass
class InferenceResult:
    """Output of a pipeline run plus the measured flow statistics."""

    output: FeatureMap
    grid: BlockGrid
    overheads: OverheadReport

    @property
    def num_blocks(self) -> int:
        return self.grid.num_blocks

    @property
    def measured_nbr(self) -> float:
        return self.grid.measured_nbr()


class BlockInferencePipeline:
    """Run a model with the block-based truncated-pyramid flow.

    Parameters
    ----------
    network:
        The model to execute.
    output_block:
        Output-resolution block size.  If omitted it is derived from
        ``input_block`` via the network geometry.
    input_block:
        Input-resolution block size (the paper parameterises models by
        ``x_i``, e.g. 128); exactly one of ``output_block`` / ``input_block``
        must be given.
    quantization:
        Optional quantization plan; when given, the plan is applied to the
        network weights before execution (in-place), modelling the fixed-point
        deployment path.
    """

    def __init__(
        self,
        network: Sequential,
        *,
        output_block: Optional[int] = None,
        input_block: Optional[int] = None,
        quantization: Optional[QuantizationPlan] = None,
    ) -> None:
        if (output_block is None) == (input_block is None):
            raise ValueError("specify exactly one of output_block or input_block")
        self.network = network
        if output_block is None:
            assert input_block is not None
            from repro.nn.receptive_field import output_size_valid

            output_block = output_size_valid(input_block, network.layers)
        self.output_block = int(output_block)
        self.input_block = int(
            input_block
            if input_block is not None
            else required_input_size(self.output_block, network.layers)
        )
        if quantization is not None:
            from repro.quant.quantize import apply_plan

            apply_plan(network, quantization)
        self.quantization = quantization

    def run(self, image: FeatureMap) -> InferenceResult:
        """Execute the block-based flow on ``image``."""
        output, grid = block_based_inference(self.network, image, self.output_block)
        report = overhead_report(self.network, self.input_block)
        return InferenceResult(output=output, grid=grid, overheads=report)

    def run_batch(self, images: Sequence[FeatureMap]) -> List[InferenceResult]:
        """Execute several frames, batching blocks across all of them.

        The truncated-pyramid blocks of *every* frame are pooled before
        grouping, so same-sized frames share fused network passes.  Each
        frame's result is bit-identical to its individual :meth:`run`.
        """
        results = block_based_inference_many(self.network, images, self.output_block)
        report = overhead_report(self.network, self.input_block)
        return [
            InferenceResult(output=output, grid=grid, overheads=report)
            for output, grid in results
        ]

    def run_frame_based(self, image: FeatureMap) -> FeatureMap:
        """Reference frame-based execution (for equivalence checks)."""
        return frame_based_inference(self.network, image)

    def describe(self) -> str:
        name = getattr(self.network, "name", "network")
        return (
            f"BlockInferencePipeline({name}, xi={self.input_block}, "
            f"xo={self.output_block})"
        )
