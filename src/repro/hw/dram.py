"""DRAM bandwidth and power model (Fig. 21, Table 7).

The block-based flow only moves input and output image blocks through DRAM
(no intermediate feature maps), so its bandwidth is ``NBR x output-image
traffic``.  This module converts model + specification into GB/s, selects the
cheapest DRAM generation that sustains it, and estimates dynamic/leakage
power with per-byte energy constants in the range of the Micron DDR4 power
calculator the paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro import hotpath
from repro.core.overheads import general_nbr
from repro.nn.network import Sequential
from repro.specs import RealTimeSpec


@dataclass(frozen=True)
class DramConfig:
    """One DRAM configuration the comparison tables reference."""

    name: str
    bandwidth_gb_s: float
    #: Dynamic energy per byte transferred (activation + read/write I/O).
    dynamic_pj_per_byte: float
    #: Background/leakage power of the device(s).
    leakage_mw: float
    channels: int = 1

    @property
    def is_low_end(self) -> bool:
        """Whether this is a low-end (single-channel DDR1-class) part."""
        return self.bandwidth_gb_s <= 3.2 and self.channels == 1


#: DRAM generations referenced in the paper's comparisons.
DRAM_CONFIGS: Dict[str, DramConfig] = {
    "DDR-200": DramConfig("DDR-200", 1.6, 85.0, 180.0),
    "DDR-266": DramConfig("DDR-266", 2.1, 85.0, 190.0),
    "DDR-400": DramConfig("DDR-400", 3.2, 85.0, 200.0),
    "DDR3-1333": DramConfig("DDR3-1333", 10.6, 70.0, 230.0),
    "DDR3-1333x2": DramConfig("DDR3-1333x2", 21.3, 70.0, 460.0, channels=2),
    "DDR3-2133": DramConfig("DDR3-2133", 17.0, 70.0, 250.0),
    "DDR3-2133x2": DramConfig("DDR3-2133x2", 34.1, 70.0, 500.0, channels=2),
    "DDR4-3200": DramConfig("DDR4-3200", 25.6, 65.0, 267.0),
}


@dataclass(frozen=True)
class DramTraffic:
    """DRAM traffic of one model at one specification."""

    model_name: str
    spec_name: str
    nbr: float
    bandwidth_gb_s: float
    extra_submodel_gb_s: float = 0.0

    @property
    def total_gb_s(self) -> float:
        return self.bandwidth_gb_s + self.extra_submodel_gb_s


def dram_traffic(
    network: Sequential,
    spec: RealTimeSpec,
    *,
    input_block: Optional[int] = None,
    bytes_per_pixel_in: float = 3.0,
    bytes_per_pixel_out: float = 3.0,
    extra_bytes_per_output_pixel: float = 0.0,
) -> DramTraffic:
    """DRAM bandwidth for the block-based flow at a real-time specification.

    ``extra_bytes_per_output_pixel`` accounts for sub-model intermediate
    feature maps (Fig. 12 / the style-transfer split), from
    :class:`repro.core.partition.SubModelPlan`.
    """
    if input_block is None:
        from repro.hw.performance import recommended_input_block

        input_block = recommended_input_block(network)
    in_bits = int(bytes_per_pixel_in * 8 / 3)
    out_bits = int(bytes_per_pixel_out * 8 / 3)
    nbr = hotpath.MODEL_ANALYTICS.get_if_shared(
        network,
        ("nbr", input_block, in_bits, out_bits),
        lambda: general_nbr(
            network.layers,
            input_block,
            in_channels=3,
            out_channels=3,
            in_bits=in_bits,
            out_bits=out_bits,
        ),
    )
    output_bytes_per_second = spec.pixel_rate * bytes_per_pixel_out
    bandwidth = nbr * output_bytes_per_second / 1e9
    extra = extra_bytes_per_output_pixel * spec.pixel_rate / 1e9
    return DramTraffic(
        model_name=getattr(network, "name", "network"),
        spec_name=spec.name,
        nbr=nbr,
        bandwidth_gb_s=bandwidth,
        extra_submodel_gb_s=extra,
    )


def select_dram(
    bandwidth_gb_s: float, candidates: Optional[Sequence[str]] = None
) -> DramConfig:
    """Cheapest (lowest-bandwidth) DRAM configuration sustaining the traffic."""
    if bandwidth_gb_s < 0:
        raise ValueError("bandwidth cannot be negative")
    names = candidates or list(DRAM_CONFIGS)
    feasible = [DRAM_CONFIGS[name] for name in names if DRAM_CONFIGS[name].bandwidth_gb_s >= bandwidth_gb_s]
    if not feasible:
        raise ValueError(
            f"no DRAM configuration sustains {bandwidth_gb_s:.2f} GB/s; "
            "consider multi-channel settings"
        )
    return min(feasible, key=lambda cfg: cfg.bandwidth_gb_s)


def parameter_load_time_s(parameter_bytes: int, streaming_gb_s: float) -> float:
    """Time to stream a model's parameter bytes in over the selected DRAM.

    The DRAM generation is the cheapest one sustaining the workload's
    streaming bandwidth (the deployment the comparison tables assume), so the
    one-time parameter load of Fig. 12 is charged at that device's rate.
    """
    if parameter_bytes < 0:
        raise ValueError("parameter_bytes cannot be negative")
    dram = select_dram(streaming_gb_s)
    return parameter_bytes / (dram.bandwidth_gb_s * 1e9)


def dynamic_power_mw(bandwidth_gb_s: float, dram: DramConfig) -> float:
    """Dynamic DRAM power (activation/read/write) for a sustained bandwidth."""
    if bandwidth_gb_s < 0:
        raise ValueError("bandwidth cannot be negative")
    bytes_per_second = bandwidth_gb_s * 1e9
    return bytes_per_second * dram.dynamic_pj_per_byte * 1e-12 * 1e3


def total_dram_power_mw(bandwidth_gb_s: float, dram: DramConfig) -> float:
    """Dynamic plus leakage DRAM power in milliwatts."""
    return dynamic_power_mw(bandwidth_gb_s, dram) + dram.leakage_mw


def frame_based_bandwidth_gb_s(
    depth: int,
    channels: int,
    spec: RealTimeSpec,
    *,
    feature_bits: int = 16,
) -> float:
    """Eq. (1): frame-based DRAM bandwidth for intermediate feature maps.

    ``H x W x C x (D-1) x fR x L x 2`` — every per-layer feature map is
    written to DRAM and read back once.
    """
    if depth < 2:
        raise ValueError("a frame-based flow needs at least two layers")
    bits_per_second = (
        spec.pixels_per_frame * channels * (depth - 1) * spec.fps * feature_bits * 2
    )
    return bits_per_second / 8 / 1e9
