"""Core CNN layers: convolution, activation, residual connections.

Only the operator vocabulary used by the eCNN paper is implemented.  Each
layer exposes:

* ``forward(fm)`` — functional execution on a :class:`~repro.nn.tensor.FeatureMap`;
* ``forward_batch(bfm)`` — the same arithmetic fused across a
  :class:`~repro.nn.tensor.BatchedFeatureMap` of N independent inputs (one
  im2col/matmul per layer instead of N scalar calls; pointwise ops
  broadcast for free).  Outputs are bit-identical per batch entry to
  ``forward`` on the corresponding :class:`FeatureMap`;
* ``output_shape(c, h, w)`` — static shape propagation (used by the
  block-flow geometry analysis without running any arithmetic);
* ``macs_per_output_pixel(...)`` / ``num_parameters`` — complexity accounting
  feeding the KOP/pixel numbers of Section 4.2;
* ``margin`` — how many border pixels the layer consumes on each side in
  ``valid`` mode (0 for 1x1 convolution and pointwise ops, 1 for 3x3), which
  drives the truncated-pyramid geometry of Section 3.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.kernels import active_kernel_set
from repro.nn.initializers import he_laplace, seeded_rng
from repro.nn.tensor import BatchedFeatureMap, FeatureMap


class Layer:
    """Base class for all layers."""

    #: human readable layer kind, overridden by subclasses
    kind: str = "layer"

    def forward(self, fm: FeatureMap) -> FeatureMap:
        raise NotImplementedError

    def forward_batch(self, bfm: BatchedFeatureMap) -> BatchedFeatureMap:
        """Execute a batch of independent inputs in one pass.

        The base implementation falls back to per-entry ``forward`` calls so
        any layer is batch-correct by construction; the layers on the pixel
        hot path override it with fused numpy implementations.
        """
        return BatchedFeatureMap.from_maps([self.forward(fm) for fm in bfm.maps()])

    def output_shape(self, channels: int, height: int, width: int) -> tuple[int, int, int]:
        """Propagate a (C, H, W) shape through the layer without computing."""
        raise NotImplementedError

    @property
    def margin(self) -> int:
        """Pixels consumed per side in valid mode (receptive-field growth / 2)."""
        return 0

    @property
    def num_parameters(self) -> int:
        return 0

    def macs_per_output_pixel(self, out_channels_hint: Optional[int] = None) -> int:
        """Multiply-accumulates needed per output pixel of this layer."""
        return 0

    def __call__(self, fm: FeatureMap) -> FeatureMap:
        return self.forward(fm)


class Conv2d(Layer):
    """2D convolution with 3x3 or 1x1 kernels.

    Padding modes:

    * ``"valid"`` — no padding; the output shrinks by ``kernel - 1``.  This is
      the mode the block-based inference flow uses inside blocks.
    * ``"zero"`` — zero padding preserving spatial size; used by frame-based
      execution and by FBISA's zero-padded inference type.
    """

    kind = "conv"

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        *,
        padding: str = "valid",
        weights: Optional[np.ndarray] = None,
        bias: Optional[np.ndarray] = None,
        seed: Optional[int] = None,
        name: str = "",
    ) -> None:
        if kernel not in (1, 3):
            raise ValueError(f"only 1x1 and 3x3 kernels are supported, got {kernel}")
        if padding not in ("valid", "zero"):
            raise ValueError(f"padding must be 'valid' or 'zero', got {padding!r}")
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.padding = padding
        self.name = name or f"conv{kernel}x{kernel}"

        fan_in = in_channels * kernel * kernel
        if weights is None:
            rng = seeded_rng(seed if seed is not None else 0)
            weights = he_laplace(
                (out_channels, in_channels, kernel, kernel), fan_in, rng
            )
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (out_channels, in_channels, kernel, kernel):
            raise ValueError(
                f"weights shape {weights.shape} does not match "
                f"({out_channels}, {in_channels}, {kernel}, {kernel})"
            )
        if bias is None:
            bias = np.zeros(out_channels, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (out_channels,):
            raise ValueError(f"bias shape {bias.shape} does not match ({out_channels},)")
        self.weights = weights
        self.bias = bias

    @property
    def margin(self) -> int:
        return (self.kernel - 1) // 2 if self.padding == "valid" else 0

    @property
    def num_parameters(self) -> int:
        return int(self.weights.size + self.bias.size)

    def macs_per_output_pixel(self, out_channels_hint: Optional[int] = None) -> int:
        return self.in_channels * self.out_channels * self.kernel * self.kernel

    def output_shape(self, channels: int, height: int, width: int) -> tuple[int, int, int]:
        if channels != self.in_channels:
            raise ValueError(
                f"layer {self.name} expects {self.in_channels} channels, got {channels}"
            )
        shrink = self.kernel - 1 if self.padding == "valid" else 0
        return self.out_channels, height - shrink, width - shrink

    def forward(self, fm: FeatureMap) -> FeatureMap:
        if fm.channels != self.in_channels:
            raise ValueError(
                f"layer {self.name} expects {self.in_channels} channels, got {fm.channels}"
            )
        data = fm.data
        if self.padding == "zero" and self.kernel > 1:
            pad = (self.kernel - 1) // 2
            data = np.pad(data, ((0, 0), (pad, pad), (pad, pad)))
        # Padding is resolved here so every kernel set implements only the
        # valid-mode arithmetic; the active set owns the multiply-accumulate.
        out = active_kernel_set().conv2d(data, self.weights, self.bias)
        return fm.with_data(out, qformat=None)

    def forward_batch(self, bfm: BatchedFeatureMap) -> BatchedFeatureMap:
        # One fused pass over all N inputs through the active kernel set.
        # Within a set the batched kernel performs the identical per-entry
        # arithmetic as its scalar conv2d, so every batch entry's output is
        # bit-identical to forward() on that entry (the parity suite pins
        # this per kernel set).
        if bfm.channels != self.in_channels:
            raise ValueError(
                f"layer {self.name} expects {self.in_channels} channels, got {bfm.channels}"
            )
        data = bfm.data
        if self.padding == "zero" and self.kernel > 1:
            pad = (self.kernel - 1) // 2
            data = np.pad(data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        out = active_kernel_set().conv2d_batch(data, self.weights, self.bias)
        return bfm.with_data(out, qformat=None)


class ReLU(Layer):
    """Rectified linear unit."""

    kind = "relu"

    def output_shape(self, channels: int, height: int, width: int) -> tuple[int, int, int]:
        return channels, height, width

    def forward(self, fm: FeatureMap) -> FeatureMap:
        return fm.with_data(np.maximum(fm.data, 0.0))

    def forward_batch(self, bfm: BatchedFeatureMap) -> BatchedFeatureMap:
        return bfm.with_data(np.maximum(bfm.data, 0.0))


class ClippedReLU(Layer):
    """ReLU clipped to a maximum value.

    The paper adds clipped ReLUs during quantization fine-tuning so gradients
    account for the clipping behaviour of the Q-format quantizer.
    """

    kind = "clipped_relu"

    def __init__(self, max_value: float) -> None:
        if max_value <= 0:
            raise ValueError("max_value must be positive")
        self.max_value = float(max_value)

    def output_shape(self, channels: int, height: int, width: int) -> tuple[int, int, int]:
        return channels, height, width

    def forward(self, fm: FeatureMap) -> FeatureMap:
        return fm.with_data(np.clip(fm.data, 0.0, self.max_value))

    def forward_batch(self, bfm: BatchedFeatureMap) -> BatchedFeatureMap:
        return bfm.with_data(np.clip(bfm.data, 0.0, self.max_value))


class AddBias(Layer):
    """Add a per-channel bias (used when folding batch norm into inference)."""

    kind = "add_bias"

    def __init__(self, bias: Sequence[float]) -> None:
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.bias.ndim != 1:
            raise ValueError("bias must be a 1D per-channel vector")

    @property
    def num_parameters(self) -> int:
        return int(self.bias.size)

    def output_shape(self, channels: int, height: int, width: int) -> tuple[int, int, int]:
        if channels != self.bias.size:
            raise ValueError(
                f"AddBias expects {self.bias.size} channels, got {channels}"
            )
        return channels, height, width

    def forward(self, fm: FeatureMap) -> FeatureMap:
        if fm.channels != self.bias.size:
            raise ValueError(
                f"AddBias expects {self.bias.size} channels, got {fm.channels}"
            )
        return fm.with_data(fm.data + self.bias[:, np.newaxis, np.newaxis])

    def forward_batch(self, bfm: BatchedFeatureMap) -> BatchedFeatureMap:
        if bfm.channels != self.bias.size:
            raise ValueError(
                f"AddBias expects {self.bias.size} channels, got {bfm.channels}"
            )
        return bfm.with_data(bfm.data + self.bias[:, np.newaxis, np.newaxis])


class Residual(Layer):
    """A residual branch: ``output = center_crop(input) + body(input)``.

    In valid-padding mode the body output is spatially smaller than the input;
    the skip path is centre-cropped to match, exactly as the truncated-pyramid
    flow handles residual connections in the eCNN datapath (srcS accumulation).
    """

    kind = "residual"

    def __init__(self, body: Sequence[Layer], name: str = "residual") -> None:
        self.body = list(body)
        self.name = name
        if not self.body:
            raise ValueError("a residual block needs at least one body layer")

    @property
    def margin(self) -> int:
        return sum(layer.margin for layer in self.body)

    @property
    def num_parameters(self) -> int:
        return sum(layer.num_parameters for layer in self.body)

    def output_shape(self, channels: int, height: int, width: int) -> tuple[int, int, int]:
        c, h, w = channels, height, width
        for layer in self.body:
            c, h, w = layer.output_shape(c, h, w)
        if c != channels:
            raise ValueError(
                f"residual body changes channel count {channels} -> {c}; "
                "skip connection cannot be added"
            )
        return c, h, w

    def forward(self, fm: FeatureMap) -> FeatureMap:
        out = fm
        for layer in self.body:
            out = layer.forward(out)
        if out.channels != fm.channels:
            raise ValueError(
                f"residual body changes channel count {fm.channels} -> {out.channels}"
            )
        crop_h = fm.height - out.height
        crop_w = fm.width - out.width
        if crop_h < 0 or crop_w < 0 or crop_h % 2 or crop_w % 2:
            raise ValueError(
                f"residual body output {out.height}x{out.width} cannot be aligned "
                f"with input {fm.height}x{fm.width}"
            )
        skip = fm.data[
            :,
            crop_h // 2 : fm.height - crop_h // 2,
            crop_w // 2 : fm.width - crop_w // 2,
        ]
        return out.with_data(out.data + skip)

    def forward_batch(self, bfm: BatchedFeatureMap) -> BatchedFeatureMap:
        out = bfm
        for layer in self.body:
            out = layer.forward_batch(out)
        if out.channels != bfm.channels:
            raise ValueError(
                f"residual body changes channel count {bfm.channels} -> {out.channels}"
            )
        crop_h = bfm.height - out.height
        crop_w = bfm.width - out.width
        if crop_h < 0 or crop_w < 0 or crop_h % 2 or crop_w % 2:
            raise ValueError(
                f"residual body output {out.height}x{out.width} cannot be aligned "
                f"with input {bfm.height}x{bfm.width}"
            )
        skip = bfm.data[
            :,
            :,
            crop_h // 2 : bfm.height - crop_h // 2,
            crop_w // 2 : bfm.width - crop_w // 2,
        ]
        return out.with_data(out.data + skip)
