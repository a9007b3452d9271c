"""Frame-level performance analysis (Fig. 19, Table 7 throughput columns).

The analysis is analytic: a model is compiled once, the per-block pipelined
cycle count is taken from the processor's timing model, and frame latency is
the per-block latency times the number of blocks the output frame needs.  No
pixel data is moved, so 4K frames cost nothing to evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.overheads import general_ncr
from repro.fbisa.compiler import CompiledModel, compile_network
from repro.hw.config import DEFAULT_CONFIG, EcnnConfig
from repro.hw.processor import EcnnProcessor
from repro.nn.network import Sequential
from repro.nn.receptive_field import output_size_valid
from repro.specs import RealTimeSpec


@dataclass(frozen=True)
class PerformanceReport:
    """Throughput of one model at one real-time specification."""

    model_name: str
    spec_name: str
    input_block: int
    output_block: int
    blocks_per_frame: int
    effective_blocks_per_frame: float
    cycles_per_block: int
    clock_hz: float
    ncr: float
    peak_tops: float
    macs_per_block: int

    @property
    def cycles_per_frame(self) -> float:
        """Cycles per frame.

        Edge blocks are smaller than the nominal block and cost proportionally
        fewer tiles, so the frame cost uses the area-equivalent block count
        rather than the ceiling grid count.
        """
        return self.cycles_per_block * self.effective_blocks_per_frame

    @property
    def frame_time_s(self) -> float:
        return self.cycles_per_frame / self.clock_hz

    @property
    def inference_time_ms(self) -> float:
        """Per-frame inference time in milliseconds (Fig. 19, left)."""
        return self.frame_time_s * 1e3

    @property
    def fps(self) -> float:
        return 1.0 / self.frame_time_s

    def supports(self, target_fps: float) -> bool:
        """Whether the model sustains the target frame rate in real time."""
        return self.fps >= target_fps

    @property
    def achieved_tops(self) -> float:
        """Useful operations per second actually delivered (2 ops per MAC)."""
        ops_per_frame = self.macs_per_block * 2.0 * self.effective_blocks_per_frame
        return ops_per_frame / self.frame_time_s / 1e12

    @property
    def utilization(self) -> float:
        """Achieved over peak TOPS when the processor runs flat out."""
        return self.achieved_tops / self.peak_tops

    def realtime_utilization(self, target_fps: float) -> float:
        """Utilization when pacing to a real-time target (idle once the frame is done)."""
        if target_fps <= 0:
            raise ValueError("target_fps must be positive")
        pacing = min(1.0, target_fps / self.fps)
        return self.utilization * pacing

    @property
    def throughput_efficiency(self) -> float:
        """Frames per second per TOPS of peak compute (the paper's fps/TOPS)."""
        return self.fps / self.peak_tops


def recommended_input_block(network: Sequential, config: EcnnConfig = DEFAULT_CONFIG) -> int:
    """Input block size the eCNN block buffers support for this model.

    Models that pack pixels into channels before the 32-channel stage
    (DnERNet-12ch) process at a coarser resolution, so their full-resolution
    input block is correspondingly larger.  Networks built by
    :mod:`repro.models.ernet` carry the value in their metadata.
    """
    metadata = getattr(network, "metadata", {}) or {}
    return int(metadata.get("input_block", config.default_input_block))


def evaluate_performance(
    network: Sequential,
    spec: RealTimeSpec,
    *,
    config: EcnnConfig = DEFAULT_CONFIG,
    input_block: Optional[int] = None,
    compiled: Optional[CompiledModel] = None,
) -> PerformanceReport:
    """Evaluate a model's throughput at a real-time specification.

    ``spec`` describes the *output* frame (e.g. 4K UHD for SR4ERNet, whose
    input frames are 960x540).  ``input_block`` defaults to the block the
    eCNN block buffers are sized for.
    """
    block = input_block or recommended_input_block(network, config)
    model = compiled or compile_network(network, input_block=block)
    processor = EcnnProcessor(config)
    processor.load(model)
    report = processor.block_report()

    output_block = output_size_valid(block, network.layers)
    blocks_x = -(-spec.width // output_block)
    blocks_y = -(-spec.height // output_block)
    effective_blocks = spec.pixels_per_frame / (output_block * output_block)

    return PerformanceReport(
        model_name=getattr(network, "name", "network"),
        spec_name=spec.name,
        input_block=block,
        output_block=output_block,
        blocks_per_frame=blocks_x * blocks_y,
        effective_blocks_per_frame=effective_blocks,
        cycles_per_block=report.pipelined_cycles,
        clock_hz=config.clock_hz,
        ncr=general_ncr(network.layers, block),
        peak_tops=config.peak_tops,
        macs_per_block=model.program.total_macs,
    )
