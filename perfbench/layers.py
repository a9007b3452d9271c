"""Per-layer metrics of a traced run, from spans and exact counts.

Where each figure comes from:

* Layer times are taken from the traced timed window when the tier computes
  in this process (``cameras``, ``sweep``) and from the traced inline
  replay of the same op sequence when it computes in worker processes
  (``stills``, ``batch``), because forked workers cannot report spans back.
  Every ``*_ms`` layer time is milliseconds per op, except
  ``session.compile_ms`` and ``fbisa.compile_ms``: the mean time of one
  plan build (a ``Session.compile`` that missed its cache) and of one FBISA
  compilation, over the cold replay including its set-up, because both are
  memoized and happen only while a tier is set up.
* ``cluster.call_ms`` is the coordinator's wall time per call in the traced
  window; ``cluster.compute_ms`` the slowest shard's compute per call in the
  inline replay (the critical path when shards run side by side);
  ``cluster.overhead_ms`` their difference: IPC, pickling, worker wake-up
  and core contention.
* Ratios and counts (cache and memo hit rates, video reuse, evictions,
  ``sweep.infeasible``) come from the exact counts of the replay's ops.
* ``client.latency_p90_ms`` is the 90th percentile of the latency of the
  traced window's untraced ops, as the client sees it.
* ``kernels.conv.gmacs`` and ``kernels.conv.patch_mb`` are computed from
  tensor shapes, not measured: MACs of each convolution call, and the bytes
  of the im2col patch matrix a 3x3 call materializes.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

#: Every per-layer metric, in output order, with its unit.
PER_LAYER_UNITS = {
    "cluster.call_ms": "ms",
    "cluster.compute_ms": "ms",
    "cluster.overhead_ms": "ms",
    "cluster.busiest_shard_share": "ratio",
    "cluster.requeued": "count",
    "session.frame_cache.hit_rate": "ratio",
    "session.frame_cache.evictions": "count",
    "session.compile_ms": "ms",
    "video.submit_ms": "ms",
    "video.residual_ms": "ms",
    "video.reuse_rate": "ratio",
    "video.blocks_recomputed_per_frame": "count",
    "video.bytes_saved": "B/frame",
    "blockflow.pad_ms": "ms",
    "blockflow.partition_ms": "ms",
    "blockflow.blocks_ms": "ms",
    "blockflow.stitch_ms": "ms",
    "blockflow.blocks_per_request": "count",
    "kernels.conv.calls": "count",
    "kernels.conv.ms": "ms",
    "kernels.conv.gmacs": "GMAC",
    "kernels.conv.gmac_per_s": "GMAC/s",
    "kernels.conv.patch_mb": "MB",
    "nn.elementwise_ms": "ms",
    "fbisa.compile_ms": "ms",
    "check.verify_ms": "ms",
    "hw.profile_ms": "ms",
    "sweep.infeasible": "count",
    "cache.hit_rate": "ratio",
    "hotpath.fbisa-compilations.hit_rate": "ratio",
    "hotpath.catalogue-networks.hit_rate": "ratio",
    "hotpath.block-reports.hit_rate": "ratio",
    "trace.overhead_pct": "%",
    "client.latency_p90_ms": "ms",
}

#: Layer spans whose self time is not elementwise work: the convolution
#: layer (its kernel is ``kernels.conv``) and the containers.
_NOT_ELEMENTWISE = {"nn.Conv2d", "nn.Sequential"}


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def per_layer_metrics(
    workload,
    *,
    window_spans: Sequence,
    replay_spans: Sequence,
    ops_delta: Dict[str, int],
    shard_frames: List[int],
    requeued: int,
    trace_overhead_pct: float,
    untraced_p90_ms: float,
) -> Dict[str, Tuple[float, str]]:
    spans = replay_spans if workload.uses_cluster else window_spans
    spans = [s for s in spans if s.request >= workload.first_op]
    ops = max(1, sum(1 for s in spans if s.name == "op"))
    by_index = {s.index: s for s in spans}
    total_s: Dict[str, float] = defaultdict(float)
    for span in spans:
        total_s[span.name] += span.duration_s

    def per_op_ms(seconds: float) -> float:
        return seconds / ops * 1e3

    frame_spans = [s for s in spans if s.name == "blockflow.frame"]
    block_passes = [
        s for s in spans
        if s.name == "nn.Sequential"
        and s.parent in by_index
        and by_index[s.parent].name == "blockflow.frame"
    ]
    convs = [s for s in spans if s.name == "kernels.conv"]
    conv_macs = sum(s.note["macs"] for s in convs)
    conv_s = total_s["kernels.conv"]

    # The slowest shard of each cluster call in the inline replay.
    compute_s: Dict[int, float] = defaultdict(float)
    for span in replay_spans:
        if span.name == "engine.execute" and span.request >= workload.first_op:
            compute_s[span.request] = max(compute_s[span.request], span.duration_s)
    calls = [s.duration_s for s in window_spans if s.name == "cluster.call"]
    call_ms = sum(calls) / len(calls) * 1e3 if calls else 0.0
    compute_ms = sum(compute_s.values()) / len(compute_s) * 1e3 if compute_s else 0.0

    def mean_ms(durations: List[float]) -> float:
        return sum(durations) / len(durations) * 1e3 if durations else 0.0

    # Plans and FBISA programs are built once and memoized, so their cost
    # is the mean of the builds the cold replay (set-up included) made.
    built = [s.duration_s for s in replay_spans if s.name == "session.compile" and s.note]
    lowered = [s.duration_s for s in replay_spans if s.name == "fbisa.compile"]

    frames = ops_delta.get("video.frames", 0)
    reused = ops_delta.get("video.blocks_reused", 0)
    recomputed = ops_delta.get("video.blocks_recomputed", 0)

    def hit_rate(prefix: str) -> float:
        hits = ops_delta.get(f"{prefix}.hits", 0)
        return _ratio(hits, hits + ops_delta.get(f"{prefix}.misses", 0))

    values = {
        "cluster.call_ms": call_ms,
        "cluster.compute_ms": compute_ms,
        "cluster.overhead_ms": call_ms - compute_ms if calls else 0.0,
        "cluster.busiest_shard_share": _ratio(max(shard_frames, default=0), sum(shard_frames)),
        "cluster.requeued": requeued,
        "session.frame_cache.hit_rate": hit_rate("session.frame_cache"),
        "session.frame_cache.evictions": ops_delta.get("session.frame_cache.evictions", 0),
        "session.compile_ms": mean_ms(built),
        "video.submit_ms": per_op_ms(total_s["video.submit"]),
        "video.residual_ms": per_op_ms(total_s["video.residual"]),
        "video.reuse_rate": _ratio(reused, reused + recomputed),
        "video.blocks_recomputed_per_frame": _ratio(recomputed, frames),
        "video.bytes_saved": _ratio(ops_delta.get("video.bytes_saved", 0), frames),
        "blockflow.pad_ms": per_op_ms(total_s["blockflow.pad"]),
        "blockflow.partition_ms": per_op_ms(total_s["blockflow.partition"]),
        "blockflow.blocks_ms": per_op_ms(sum(s.duration_s for s in block_passes)),
        "blockflow.stitch_ms": per_op_ms(
            sum(s.self_s for s in spans if s.name in ("blockflow.frame", "video.submit"))
        ),
        "blockflow.blocks_per_request": sum(s.note or 0 for s in frame_spans) / ops,
        "kernels.conv.calls": len(convs) / ops,
        "kernels.conv.ms": per_op_ms(conv_s),
        "kernels.conv.gmacs": conv_macs / 1e9 / ops,
        "kernels.conv.gmac_per_s": conv_macs / 1e9 / conv_s if conv_s else 0.0,
        "kernels.conv.patch_mb": sum(s.note["patch_bytes"] for s in convs) / 1e6 / ops,
        "nn.elementwise_ms": per_op_ms(
            sum(
                s.self_s for s in spans
                if s.name.startswith("nn.") and s.name not in _NOT_ELEMENTWISE
            )
        ),
        "fbisa.compile_ms": mean_ms(lowered),
        "check.verify_ms": per_op_ms(total_s["check.verify"]),
        "hw.profile_ms": per_op_ms(total_s["hw.profile"]),
        "sweep.infeasible": ops_delta.get("sweep.infeasible", 0),
        "cache.hit_rate": hit_rate("cache"),
        "hotpath.fbisa-compilations.hit_rate": hit_rate("hotpath.fbisa-compilations"),
        "hotpath.catalogue-networks.hit_rate": hit_rate("hotpath.catalogue-networks"),
        "hotpath.block-reports.hit_rate": hit_rate("hotpath.block-reports"),
        "trace.overhead_pct": trace_overhead_pct,
        "client.latency_p90_ms": untraced_p90_ms,
    }
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER_UNITS.items()}
