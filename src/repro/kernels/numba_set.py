"""The optional ``numba`` kernel set: jitted fused conv and Q-format loops.

Design constraints (enforced by lint rule ECNN207 and the registry):

* **numba is never imported at module import time** — importing this module
  must succeed in a no-numba environment, because the registry imports every
  set module to register it.  The probe is ``importlib.util.find_spec``, run
  once per process (every ``Session`` asks); the real import happens inside
  :meth:`NumbaKernelSet.warmup`.
* **compilation happens in ``warmup()``, off the hot path** — the first
  ``Session`` selecting this set pays the JIT once; the compiled bundle is
  memoized, so repeated selection (and every later call) reuses it.
* **documented tolerance, not bit-identity** — the fused ``@njit`` MAC loops
  accumulate in a fixed ``(c, ky, kx)`` order, whereas the numpy oracle's
  BLAS gemm blocks and reorders its partial sums.  Both are correctly
  rounded float64 pipelines, so outputs agree to accumulation-order rounding
  (|diff| <= ``tolerance``); the quantize/clip kernel is exact rint/clip
  arithmetic and agrees bit-for-bit despite the set-level tolerance.

The fused im2col+gemm follows the tiling idiom of the burst-SR
``block_matching.py`` exemplar: one ``@njit`` kernel walks output pixels and
gathers the receptive field inline (no materialized patch matrix at all),
and the batched variant reuses it per slice.  The elementwise Q-format
quantize/clip is a ``@guvectorize`` ufunc so it broadcasts across any
tensor shape for free.
"""

from __future__ import annotations

import functools
import importlib.util

import numpy as np

from repro.kernels import KernelUnavailableError, register_kernel


@functools.lru_cache(maxsize=None)
def _numba_installed() -> bool:
    """Whether numba is importable; probed once per process."""
    return importlib.util.find_spec("numba") is not None


def _compile_kernels():
    """Import numba and compile the kernel bundle (called from warmup only)."""
    from numba import guvectorize, njit

    @njit(cache=False, fastmath=False)
    def conv2d_into(data, weights, bias, out):
        out_channels, in_channels, kernel, _ = weights.shape
        out_h = data.shape[1] - kernel + 1
        out_w = data.shape[2] - kernel + 1
        for o in range(out_channels):
            b = bias[o]
            for y in range(out_h):
                for x in range(out_w):
                    acc = 0.0
                    for c in range(in_channels):
                        for ky in range(kernel):
                            for kx in range(kernel):
                                acc += weights[o, c, ky, kx] * data[c, y + ky, x + kx]
                    out[o, y, x] = acc + b

    @njit(cache=False, fastmath=False)
    def conv2d_batch_into(data, weights, bias, out):
        for index in range(data.shape[0]):
            conv2d_into(data[index], weights, bias, out[index])

    @guvectorize(
        ["void(float64[:], float64, int64, int64, int64[:])"],
        "(n),(),(),()->(n)",
        nopython=True,
    )
    def quantize_to_codes(values, step, min_code, max_code, out):
        for i in range(values.shape[0]):
            scaled = values[i] / step
            # Round half to even, matching np.rint bit-for-bit.
            code = np.floor(scaled + 0.5)
            if code - scaled == 0.5 and code % 2.0 != 0.0:
                code -= 1.0
            if code < min_code:
                code = float(min_code)
            elif code > max_code:
                code = float(max_code)
            out[i] = np.int64(code)

    @njit(cache=False, fastmath=False)
    def fraction_search(values, fracs, min_code, max_code, use_l1):
        best_frac = np.int64(0)
        best_err = np.inf
        for index in range(fracs.shape[0]):
            frac = fracs[index]
            step = 2.0 ** (-np.float64(frac))
            err = 0.0
            for i in range(values.shape[0]):
                scaled = values[i] / step
                code = np.floor(scaled + 0.5)
                if code - scaled == 0.5 and code % 2.0 != 0.0:
                    code -= 1.0
                if code < min_code:
                    code = float(min_code)
                elif code > max_code:
                    code = float(max_code)
                diff = values[i] - code * step
                if use_l1:
                    err += abs(diff)
                else:
                    err += diff * diff
            # First candidate always seeds; ties (including +inf error on
            # every candidate) break toward the larger frac, matching the
            # scalar reference search.
            if index == 0 or err < best_err or (err == best_err and frac > best_frac):
                best_frac = frac
                best_err = err
        return best_frac

    return {
        "conv2d_into": conv2d_into,
        "conv2d_batch_into": conv2d_batch_into,
        "quantize_to_codes": quantize_to_codes,
        "fraction_search": fraction_search,
    }


@register_kernel
class NumbaKernelSet:
    """``@njit``/``@guvectorize`` kernels, selected by ``auto`` when importable."""

    name = "numba"
    description = (
        "numba-jitted kernels: fused im2col+gemm convolution (@njit) and "
        "Q-format quantize/clip and fraction-search loops (@guvectorize/"
        "@njit); compiled in warmup(), absent-numba environments fall back "
        "to the numpy oracle"
    )
    #: Documented absolute tolerance against the numpy oracle: float64 MAC
    #: accumulation-order rounding only (the quantize kernels are exact).
    tolerance = 1e-9

    def __init__(self) -> None:
        self._compiled = None

    def available(self) -> bool:
        """Probe for numba without importing it (cheap, import-safe)."""
        return _numba_installed()

    def warmup(self):
        """Compile and JIT-prime every kernel; memoized (same bundle object)."""
        if self._compiled is not None:
            return self._compiled
        if not self.available():
            raise KernelUnavailableError(
                "the numba kernel set needs the numba package; "
                "select 'numpy' or 'auto' instead"
            )
        kernels = _compile_kernels()
        # Prime each JIT specialization on tiny inputs so the first real
        # call serves pixels instead of compiling.
        tiny = np.zeros((1, 3, 3), dtype=np.float64)
        weights3 = np.zeros((1, 1, 3, 3), dtype=np.float64)
        weights1 = np.zeros((1, 1, 1, 1), dtype=np.float64)
        bias = np.zeros(1, dtype=np.float64)
        out3 = np.empty((1, 1, 1), dtype=np.float64)
        out1 = np.empty((1, 3, 3), dtype=np.float64)
        kernels["conv2d_into"](tiny, weights3, bias, out3)
        kernels["conv2d_into"](tiny, weights1, bias, out1)
        kernels["conv2d_batch_into"](tiny[np.newaxis], weights3, bias, out3[np.newaxis])
        codes = np.empty(2, dtype=np.int64)
        kernels["quantize_to_codes"](
            np.zeros(2, dtype=np.float64), 1.0, np.int64(-8), np.int64(7), codes
        )
        kernels["fraction_search"](
            np.zeros(2, dtype=np.float64),
            np.arange(2, dtype=np.int64),
            np.int64(-8),
            np.int64(7),
            False,
        )
        self._compiled = kernels
        return self._compiled

    # ------------------------------------------------------------ convolution
    def conv2d(self, data: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
        kernels = self.warmup()
        out_channels, _, kernel, _ = weights.shape
        out = np.empty(
            (out_channels, data.shape[1] - kernel + 1, data.shape[2] - kernel + 1),
            dtype=np.float64,
        )
        kernels["conv2d_into"](
            np.ascontiguousarray(data, dtype=np.float64), weights, bias, out
        )
        return out

    def conv2d_batch(
        self, data: np.ndarray, weights: np.ndarray, bias: np.ndarray
    ) -> np.ndarray:
        kernels = self.warmup()
        out_channels, _, kernel, _ = weights.shape
        batch = data.shape[0]
        out = np.empty(
            (batch, out_channels, data.shape[2] - kernel + 1, data.shape[3] - kernel + 1),
            dtype=np.float64,
        )
        kernels["conv2d_batch_into"](
            np.ascontiguousarray(data, dtype=np.float64), weights, bias, out
        )
        return out

    # ----------------------------------------------------------- quantization
    def quantize_to_codes(
        self, values: np.ndarray, step: float, min_code: int, max_code: int
    ) -> np.ndarray:
        kernels = self.warmup()
        flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
        out = np.empty(flat.shape, dtype=np.int64)
        kernels["quantize_to_codes"](
            flat, float(step), np.int64(min_code), np.int64(max_code), out
        )
        return out.reshape(np.shape(values))

    def fraction_search(
        self,
        values: np.ndarray,
        fracs: np.ndarray,
        min_code: int,
        max_code: int,
        norm: str,
    ) -> int:
        kernels = self.warmup()
        return int(
            kernels["fraction_search"](
                np.ascontiguousarray(values, dtype=np.float64).reshape(-1),
                np.ascontiguousarray(fracs, dtype=np.int64),
                np.int64(min_code),
                np.int64(max_code),
                norm == "l1",
            )
        )
