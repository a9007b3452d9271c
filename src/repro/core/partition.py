"""Sub-model partitioning (Fig. 12 of the paper).

A deep model can be split into a few shallower sub-models to reduce the
truncated-pyramid recomputation overhead (the NCR grows roughly quadratically
with depth).  The price is that the intermediate feature maps between
sub-models must round-trip through DRAM, so the split trades computation
overhead against DRAM bandwidth.  The style-transfer example in Section 7.3
uses exactly this trick (two sub-models).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro import hotpath
from repro.core.overheads import general_ncr, intrinsic_macs_per_output_pixel
from repro.nn.layers import Conv2d, Layer
from repro.nn.network import Sequential
from repro.nn.receptive_field import layer_geometry


@dataclass(frozen=True)
class SubModelPlan:
    """A split of a network into consecutive sub-models.

    Attributes
    ----------
    boundaries:
        Layer indices where each sub-model starts (the first entry is 0).
    ncr_per_submodel:
        The NCR each sub-model pays for the chosen block size.
    extra_dram_bytes_per_pixel:
        DRAM traffic added by storing/reloading intermediate feature maps at
        sub-model boundaries, in bytes per final output pixel.
    """

    model_name: str
    input_block: int
    boundaries: tuple[int, ...]
    ncr_per_submodel: tuple[float, ...]
    combined_ncr: float
    extra_dram_bytes_per_pixel: float

    @property
    def num_submodels(self) -> int:
        return len(self.boundaries)


def _intermediate_channels(layers: Sequence[Layer], boundary: int) -> int:
    """Channel count of the feature map crossing a sub-model boundary."""
    channels = 3
    for layer in layers[:boundary]:
        if isinstance(layer, Conv2d):
            channels = layer.out_channels
    return channels


def partition_into_submodels(
    network: Sequential,
    num_submodels: int,
    input_block: int,
    *,
    feature_bits: int = 8,
) -> SubModelPlan:
    """Split ``network`` into ``num_submodels`` balanced consecutive pieces.

    The split points are chosen to balance the per-sub-model margin (depth),
    which is what controls the recomputation overhead.  The returned plan
    reports the per-piece and combined NCR and the extra DRAM traffic.
    A shared network's plans are computed once per process.
    """
    if num_submodels < 1:
        raise ValueError("num_submodels must be >= 1")
    if num_submodels > len(network.layers):
        raise ValueError("cannot split into more sub-models than layers")
    return hotpath.MODEL_ANALYTICS.get_if_shared(
        network,
        ("submodels", num_submodels, input_block, feature_bits),
        lambda: _partition(network, num_submodels, input_block, feature_bits),
    )


def _partition(
    network: Sequential, num_submodels: int, input_block: int, feature_bits: int
) -> SubModelPlan:
    layers = list(network.layers)
    margins = [layer_geometry(layer).margin for layer in layers]
    total_margin = sum(margins)
    target = total_margin / num_submodels

    boundaries: List[int] = [0]
    running = 0.0
    for index, margin in enumerate(margins):
        if len(boundaries) >= num_submodels:
            break
        running += margin
        if running >= target * len(boundaries) and index + 1 < len(layers):
            boundaries.append(index + 1)
    while len(boundaries) < num_submodels:
        boundaries.append(min(boundaries[-1] + 1, len(layers) - 1))

    pieces = []
    for i, start in enumerate(boundaries):
        stop = boundaries[i + 1] if i + 1 < len(boundaries) else len(layers)
        pieces.append(layers[start:stop])

    ncrs = []
    weights = []
    for piece in pieces:
        has_conv = any(isinstance(layer, Conv2d) for layer in piece)
        if not has_conv:
            ncrs.append(1.0)
            weights.append(0.0)
            continue
        ncrs.append(general_ncr(piece, input_block))
        weights.append(intrinsic_macs_per_output_pixel(piece))

    total_weight = sum(weights)
    if total_weight > 0:
        combined = sum(n * w for n, w in zip(ncrs, weights)) / total_weight
    else:
        combined = 1.0

    # Intermediate feature maps are written then read once each (factor 2),
    # expressed per final output pixel at the boundary's spatial resolution.
    extra_bytes = 0.0
    scale_to_output = 1.0
    for layer in layers:
        scale_to_output *= layer_geometry(layer).scale
    for boundary in boundaries[1:]:
        channels = _intermediate_channels(layers, boundary)
        scale_here = 1.0
        for layer in layers[:boundary]:
            scale_here *= layer_geometry(layer).scale
        pixels_per_output_pixel = (scale_here / scale_to_output) ** 2
        extra_bytes += 2.0 * channels * pixels_per_output_pixel * feature_bits / 8.0

    return SubModelPlan(
        model_name=getattr(network, "name", "network"),
        input_block=input_block,
        boundaries=tuple(boundaries),
        ncr_per_submodel=tuple(round(n, 4) for n in ncrs),
        combined_ncr=combined,
        extra_dram_bytes_per_pixel=extra_bytes,
    )
