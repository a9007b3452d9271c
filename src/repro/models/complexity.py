"""Model complexity accounting (KOP/pixel, parameters, required TOPS).

The paper quantifies model cost in thousands of operations per output pixel
(KOP/pixel), counting one multiply-accumulate as two operations.  The
intrinsic cost excludes block-overlap recomputation; the effective cost is
``NCR x intrinsic`` for the chosen input block size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import hotpath
from repro.core.overheads import general_ncr, intrinsic_macs_per_output_pixel
from repro.nn.layers import Conv2d
from repro.nn.network import Sequential, iter_conv_layers
from repro.specs import RealTimeSpec

#: Operations per multiply-accumulate (multiply + add), the paper's convention.
OPS_PER_MAC = 2.0


def kop_per_pixel(network: Sequential) -> float:
    """Intrinsic complexity of ``network`` in KOP per output pixel."""
    return hotpath.MODEL_ANALYTICS.get_if_shared(
        network,
        "kop-per-pixel",
        lambda: intrinsic_macs_per_output_pixel(network.layers) * OPS_PER_MAC / 1e3,
    )


def parameter_count(network: Sequential) -> int:
    """Number of parameters (weights + biases) in all convolution layers."""
    return sum(
        layer.num_parameters
        for layer in iter_conv_layers(network)
        if isinstance(layer, Conv2d)
    )


def required_tops(network: Sequential, spec: RealTimeSpec, ncr: float = 1.0) -> float:
    """TOPS needed to run ``network`` in real time at ``spec`` with overhead ``ncr``."""
    if ncr < 1.0:
        raise ValueError("NCR cannot be below 1.0")
    return kop_per_pixel(network) * 1e3 * ncr * spec.pixel_rate / 1e12


@dataclass(frozen=True)
class ComplexityReport:
    """Complexity summary for one model at one input block size."""

    model_name: str
    input_block: int
    intrinsic_kop_per_pixel: float
    ncr: float
    effective_kop_per_pixel: float
    parameters: int

    def fits_constraint(self, kop_budget: float) -> bool:
        """Whether the effective complexity fits a KOP/pixel budget."""
        return self.effective_kop_per_pixel <= kop_budget


def model_complexity(network: Sequential, input_block: int) -> ComplexityReport:
    """Full complexity report for ``network`` with input blocks of ``input_block``."""
    intrinsic = kop_per_pixel(network)
    ncr = general_ncr(network.layers, input_block)
    return ComplexityReport(
        model_name=getattr(network, "name", "network"),
        input_block=input_block,
        intrinsic_kop_per_pixel=intrinsic,
        ncr=ncr,
        effective_kop_per_pixel=intrinsic * ncr,
        parameters=parameter_count(network),
    )
