"""The ``numpy`` reference kernel set: the bit-exact parity oracle.

Every function here is a verbatim extraction of the historical hot-path
arithmetic (``Conv2d.forward``/``forward_batch`` in :mod:`repro.nn.layers`,
``QFormat.quantize_to_codes`` in :mod:`repro.quant.qformat` and the
vectorized Eq. (4) search in :mod:`repro.quant.quantize`) — same operations,
same order, same BLAS calls — so routing the layers through this set changes
no output bit anywhere in the stack.  That is what makes it the oracle the
parity sweep compares every other kernel set against.

This module also owns the shared im2col patch extraction (:func:`_im2col`).
"""

from __future__ import annotations

import numpy as np

from repro.kernels import register_kernel


def _fill_patches(cols: np.ndarray, data: np.ndarray, kernel: int) -> None:
    """Gather one map's valid-convolution patches into a (C,K,K,Ho,Wo) buffer."""
    out_h, out_w = cols.shape[-2:]
    for dy in range(kernel):
        for dx in range(kernel):
            cols[:, dy, dx] = data[:, dy : dy + out_h, dx : dx + out_w]


def _im2col(data: np.ndarray, kernel: int):
    """Return ``(..., C*K*K, H_out*W_out)`` patches for valid convolution.

    Accepts a single ``(C, H, W)`` map or an ``(N, C, H, W)`` batch — the
    patch gather per map is the same either way (batches fill slice by
    slice, which keeps numpy on its fast low-dimensional copy path), so this
    is the repository's single im2col implementation: the scalar and batched
    convolution paths, and any hw/baseline executor needing patches, call it
    rather than reimplementing the extraction.
    """
    *lead, channels, height, width = data.shape
    out_h = height - kernel + 1
    out_w = width - kernel + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"input {height}x{width} too small for valid {kernel}x{kernel} convolution"
        )
    cols = np.empty((*lead, channels, kernel, kernel, out_h, out_w), dtype=data.dtype)
    if lead:
        for index in range(lead[0]):
            _fill_patches(cols[index], data[index], kernel)
    else:
        _fill_patches(cols, data, kernel)
    return (
        cols.reshape(*lead, channels * kernel * kernel, out_h * out_w),
        out_h,
        out_w,
    )


#: Value budget (float64 count) for one batched im2col buffer.  Batched
#: convolution processes its batch in chunks whose patch buffer stays near
#: this size: one huge (N, C*K*K, L) materialization is allocation- and
#: cache-hostile (measured ~4x slower per byte than scalar-sized buffers,
#: which the allocator recycles), while chunks of a few slices amortize the
#: python dispatch without changing the per-slice arithmetic.
_CONV_BATCH_BUDGET_VALUES = 400_000


@register_kernel
class NumpyKernelSet:
    """Pure-numpy kernels, bit-exact to the pre-registry code paths."""

    name = "numpy"
    description = (
        "pure-numpy reference kernels: im2col + per-slice BLAS gemm "
        "convolution and vectorized Q-format passes (bit-exact oracle)"
    )
    #: The oracle compares against itself: zero tolerance, bit-identical.
    tolerance = 0.0

    def __init__(self) -> None:
        self._warm = None

    def available(self) -> bool:
        return True

    def warmup(self):
        """Nothing to compile; returns a memoized marker bundle."""
        if self._warm is None:
            self._warm = {"set": self.name, "compiled": ()}
        return self._warm

    # ------------------------------------------------------------ convolution
    def conv2d(self, data: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """One ``(C, H, W)`` map, valid mode (padding is the caller's job)."""
        out_channels, in_channels, kernel, _ = weights.shape
        if kernel == 1:
            channels, height, width = data.shape
            flat = data.reshape(channels, height * width)
            out = weights.reshape(out_channels, in_channels) @ flat
            out = out + bias[:, np.newaxis]
            return out.reshape(out_channels, height, width)
        cols, out_h, out_w = _im2col(data, kernel)
        w2d = weights.reshape(out_channels, -1)
        out = w2d @ cols + bias[:, np.newaxis]
        return out.reshape(out_channels, out_h, out_w)

    def conv2d_batch(
        self, data: np.ndarray, weights: np.ndarray, bias: np.ndarray
    ) -> np.ndarray:
        """An ``(N, C, H, W)`` batch in one fused pass.

        ``w2d @ cols`` per batch slice performs the identical
        ``(out, C*K*K) x (C*K*K, L)`` matmul as :meth:`conv2d`, so every
        batch entry's output is bit-identical to the scalar path on that
        entry.
        """
        out_channels, in_channels, kernel, _ = weights.shape
        batch, channels, height, width = data.shape
        bias_col = bias[:, np.newaxis]
        if kernel == 1:
            w1 = weights.reshape(out_channels, in_channels)
            flat_in = data.reshape(batch, channels, height * width)
            out = np.empty(
                (batch, out_channels, height * width),
                dtype=np.result_type(data, w1),
            )
            # Per-slice 2D gemms: the same BLAS call the scalar path makes
            # (the stacked-matmul gufunc pays measurable per-slice setup on
            # these small shapes), writing straight into the output buffer.
            for index in range(batch):
                np.matmul(w1, flat_in[index], out=out[index])
            out += bias_col
            return out.reshape(batch, out_channels, height, width)
        w2d = weights.reshape(out_channels, -1)
        out_h = height - kernel + 1
        out_w = width - kernel + 1
        slice_values = channels * kernel * kernel * out_h * out_w
        step = max(1, _CONV_BATCH_BUDGET_VALUES // max(1, slice_values))
        out = np.empty(
            (batch, out_channels, out_h, out_w), dtype=np.result_type(data, w2d)
        )
        flat = out.reshape(batch, out_channels, out_h * out_w)
        for start in range(0, batch, step):
            chunk = data[start : start + step]
            cols, _, _ = _im2col(chunk, kernel)
            for offset in range(chunk.shape[0]):
                np.matmul(w2d, cols[offset], out=flat[start + offset])
            flat[start : start + chunk.shape[0]] += bias_col
        return out

    # ----------------------------------------------------------- quantization
    def quantize_to_codes(
        self, values: np.ndarray, step: float, min_code: int, max_code: int
    ) -> np.ndarray:
        codes = np.rint(values / step)
        return np.clip(codes, min_code, max_code).astype(np.int64)

    def fraction_search(
        self,
        values: np.ndarray,
        fracs: np.ndarray,
        min_code: int,
        max_code: int,
        norm: str,
    ) -> int:
        steps = (2.0 ** (-fracs.astype(np.float64)))[:, np.newaxis]  # (F, 1) LSBs
        # One (candidates, values) pass, reusing a single working buffer:
        # round to codes, clip to the format's range, back to real values,
        # subtract — the same per-candidate arithmetic (and summation order)
        # as the scalar reference, so the selected format is bit-for-bit
        # identical.
        work = values[np.newaxis, :] / steps
        np.rint(work, out=work)
        np.clip(work, min_code, max_code, out=work)
        work *= steps
        np.subtract(values[np.newaxis, :], work, out=work)
        if norm == "l1":
            np.abs(work, out=work)
        else:
            np.multiply(work, work, out=work)
        errors = work.sum(axis=1)
        return int(fracs[errors == errors.min()].max())
