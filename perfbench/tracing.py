"""In-memory span tracing around the public calls of each layer.

The benchmark never edits the program: :func:`instrument` replaces public
functions and methods of the ``repro`` modules, in the benchmark process
only, with timing wrappers that cost one flag test while tracing is off.
Spans stay in memory (name, op id, parent, start, end, self time, note) and
are written out once, when the run ends.

Self time is a span's duration minus the time its child spans cover, so a
wrapper high in the stack (``VideoStream.submit``) reports only the work no
wrapped callee accounts for.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    #: Op index the span belongs to (``-1`` while a tier is being set up).
    request: int
    index: int
    #: Index of the enclosing span, ``-1`` for a root.
    parent: int
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    note: Any = None

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


class Tracer:
    """A span stack for one single-threaded process; off until enabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.request = -1
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._count = 0

    # --------------------------------------------------------------- spans
    def _open(self, name: str) -> Span:
        parent = self._stack[-1].index if self._stack else -1
        span = Span(name, self.request, self._count, parent)
        self._count += 1
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration_s
        self.spans.append(span)

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        """A span opened by the benchmark itself (the root of each op)."""
        if not self.enabled:
            yield None
            return
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # ------------------------------------------------------------ wrapping
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        note: Optional[Callable[[tuple, Any, Any], Any]] = None,
        before: Optional[Callable[[tuple], Any]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a module, a class (the wrapper becomes a method) or an
        instance (the wrapper shadows the bound method).  ``note(args,
        result, pre)`` attaches counts to the span; ``before(args)`` runs
        ahead of the call and its value reaches ``note`` as ``pre``.  On an
        exception ``result`` is ``None``.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            pre = before(args) if before is not None else None
            span = tracer._open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer._close(span)
                if note is not None:
                    span.note = note(args, result, pre)

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, wrapper)


def dump(spans: List[Span]) -> List[list]:
    """Spans as compact rows for the output file: name, op, index, parent,
    duration ms, self ms, note."""
    return [
        [s.name, s.request, s.index, s.parent, round(s.duration_s * 1e3, 4),
         round(s.self_s * 1e3, 4), s.note]
        for s in spans
    ]


# ---------------------------------------------------------------- layers
def _conv_note(args: tuple, result: Any, pre: Any) -> Dict[str, float]:
    """MACs and im2col patch bytes of one conv call, from tensor shapes."""
    data, weights = args[0], args[1]
    out_channels, in_channels, kernel, _ = weights.shape
    height, width = data.shape[-2:]
    batch = data.shape[0] if data.ndim == 4 else 1
    out_pixels = (height - kernel + 1) * (width - kernel + 1)
    patches = 0 if kernel == 1 else batch * in_channels * kernel * kernel * out_pixels
    return {
        "macs": batch * out_channels * in_channels * kernel * kernel * out_pixels,
        "patch_bytes": patches * data.dtype.itemsize,
    }


def _layer_classes() -> List[type]:
    from repro.nn.layers import Layer

    found: List[type] = []
    pending = [Layer]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark attributes."""
    import repro.api.backends as backends
    import repro.check as check
    import repro.core.blockflow as blockflow
    import repro.core.pipeline as pipeline
    import repro.kernels as kernels
    import repro.models  # noqa: F401  (registers every Layer subclass)
    import repro.runtime.video as video
    from repro.api.session import Session
    from repro.runtime.cluster import ServingCluster
    from repro.runtime.engine import ServingEngine

    for method in ("execute_frame", "execute_frames"):
        tracer.wrap(ServingCluster, method, "cluster.call")
        tracer.wrap(ServingEngine, method, "engine.execute")
    tracer.wrap(
        Session, "compile", "session.compile",
        before=lambda args: args[0].cache.stats.misses,
        note=lambda args, result, misses: args[0].cache.stats.misses > misses,
    )
    tracer.wrap(video.VideoStream, "submit", "video.submit")
    tracer.wrap(video, "block_window_residuals", "video.residual")
    tracer.wrap(video, "pad_frame", "blockflow.pad")
    tracer.wrap(video, "partition_image", "blockflow.partition")
    tracer.wrap(blockflow, "partition_image", "blockflow.partition")
    tracer.wrap(
        video, "run_selected_blocks", "blockflow.frame",
        note=lambda args, result, pre: len(args[3]),
    )
    tracer.wrap(
        pipeline, "block_based_inference", "blockflow.frame",
        note=lambda args, result, pre: result[1].num_blocks if result else 0,
    )
    tracer.wrap(
        pipeline, "block_based_inference_many", "blockflow.frame",
        note=lambda args, result, pre: sum(g.num_blocks for _, g in result or ()),
    )
    for cls in _layer_classes():
        for method in ("forward", "forward_batch"):
            if method in cls.__dict__:
                tracer.wrap(cls, method, f"nn.{cls.__name__}")
    for kernel_set in kernels.KERNEL_SETS.values():
        for method in ("conv2d", "conv2d_batch"):
            tracer.wrap(kernel_set, method, "kernels.conv", note=_conv_note)
    tracer.wrap(backends, "compile_network", "fbisa.compile")
    tracer.wrap(check, "verify_plan", "check.verify")
    tracer.wrap(backends.EcnnBackend, "profile", "hw.profile")
