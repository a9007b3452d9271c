"""The four benchmark workloads: seeded inputs, one op each, output checks.

Every workload is a closed loop with one client.  Op ``i`` is a pure
function of ``(seed, part, i)``, where ``part`` names one of a run's
measuring processes, so any op can be replayed elsewhere: in process for the
correctness references, on an inline cluster for the traced run, and twice
on fresh tiers for the exact-count check.

A workload object owns one *tier* (what serves its ops).  ``setup()``
builds the tier and serves the untimed first request; ``run(i)`` serves op
``i`` and returns what the correctness check needs; ``check(kept)``
recomputes a sample outside the timed window; ``counts()`` reads the
tier's exact counters.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from typing import Any, Dict, List, Tuple

import numpy as np

#: Cap on the outputs kept for the check, so it stays a few seconds long.
MAX_CHECKS = 10

PINS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sweep_pins.json")


def _rng(seed: int, part: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, part, stream, index])


def _frame(data: np.ndarray):
    from repro.nn.tensor import FeatureMap

    return FeatureMap(data=data)


def _hotpath_counts() -> Dict[str, int]:
    from repro import hotpath

    counts: Dict[str, int] = {}
    for memo in hotpath.all_memos():
        counts[f"hotpath.{memo.name}.hits"] = memo.stats.hits
        counts[f"hotpath.{memo.name}.misses"] = memo.stats.misses
    return counts


class Workload:
    name = ""
    #: Index of the first timed op (set-up may serve op 0 untimed).
    first_op = 0
    #: Number of ops the exact-count replay serves after set-up.
    replay_ops = 0
    #: Seeded share of ops whose outputs are kept for the check.
    check_share = 0.05
    #: Check every op's output (cheap pins) rather than a seeded sample.
    check_all = False
    #: Whether the tier computes in worker processes (layer spans then come
    #: from an inline replay).
    uses_cluster = False
    #: Consecutive timed ops per window of ``latency_p50_ms`` (about 2.5 s
    #: of serving; see ``run.windows``).
    window_ops = 20

    def __init__(self, seed: int, *, part: int = 0, inline: bool = False) -> None:
        self.seed = seed
        #: Which of a run's processes this is; each draws its own inputs.
        self.part = part
        self.inline = inline
        self._check_rng = random.Random(f"check/{seed}/{part}")
        self._kept = 0

    def keep(self) -> bool:
        """Seeded decision: keep this op's output for the correctness check.

        The first timed op is always kept, so even a short run checks one.
        """
        if self.check_all:
            return True
        if self._kept >= MAX_CHECKS or (
            self._kept and self._check_rng.random() >= self.check_share
        ):
            return False
        self._kept += 1
        return True

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, index: int) -> Any:
        raise NotImplementedError

    def check(self, kept: List[Tuple[int, Any]]) -> int:
        """Number of kept ops whose output is wrong."""
        raise NotImplementedError

    def counts(self) -> Dict[str, int]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ------------------------------------------------------------ cluster tiers
class _ClusterWorkload(Workload):
    """A 2-worker :class:`ServingCluster` with default arguments."""

    workload = ""
    first_op = 1
    uses_cluster = True

    def setup(self) -> None:
        from repro.runtime.cluster import ServingCluster

        self.cluster = ServingCluster(
            workers=2, mode="inline" if self.inline else "process"
        )
        self.run(0)

    def close(self) -> None:
        self.cluster.close()

    def counts(self) -> Dict[str, int]:
        stats = self.cluster.stats()
        counts = {
            "session.frame_cache.hits": 0,
            "session.frame_cache.misses": 0,
            "session.frame_cache.evictions": 0,
            "cache.hits": 0,
            "cache.misses": 0,
        }
        for shard in stats.shards:
            counts["session.frame_cache.hits"] += shard.frame_cache.hits
            counts["session.frame_cache.misses"] += shard.frame_cache.misses
            counts["session.frame_cache.evictions"] += shard.frame_cache.evictions
            counts["cache.hits"] += shard.cache.hits
            counts["cache.misses"] += shard.cache.misses
        counts["cluster.requeued"] = stats.requeued
        counts.update(_hotpath_counts())
        return counts

    def served_frames(self) -> List[int]:
        return [shard.served_frames for shard in self.cluster.stats().shards]

    def _reference(self, frame) -> np.ndarray:
        from repro.api import Session

        if not hasattr(self, "_session"):
            self._session = Session()
        return self._session.execute(self.workload, frame, cached=False).output.data


class Stills(_ClusterWorkload):
    """Interactive 4x super-resolution of distinct 32x32 frames."""

    name = "stills"
    workload = "super_resolution"
    replay_ops = 8

    def frame(self, index: int):
        return _frame(_rng(self.seed, self.part, 1, index).random((3, 32, 32)))

    def run(self, index: int) -> np.ndarray:
        return self.cluster.execute_frame(self.workload, self.frame(index)).output.data

    def check(self, kept: List[Tuple[int, Any]]) -> int:
        return sum(
            not np.array_equal(output, self._reference(self.frame(index)))
            for index, output in kept
        )


class Batch(_ClusterWorkload):
    """Offline denoise: 16 distinct 64x64 frames per ``execute_frames`` call."""

    name = "batch"
    workload = "denoise"
    frames_per_op = 16
    replay_ops = 2
    check_share = 0.5

    def frames(self, index: int) -> list:
        data = _rng(self.seed, self.part, 2, index).random((self.frames_per_op, 3, 64, 64))
        return [_frame(item) for item in data]

    def run(self, index: int) -> Tuple[int, np.ndarray]:
        results = self.cluster.execute_frames(self.workload, self.frames(index))
        # One seeded frame of the batch is kept for the check.
        slot = int(_rng(self.seed, self.part, 20, index).integers(self.frames_per_op))
        return slot, results[slot].output.data

    def check(self, kept: List[Tuple[int, Any]]) -> int:
        return sum(
            not np.array_equal(output, self._reference(self.frames(index)[slot]))
            for index, (slot, output) in kept
        )


# ------------------------------------------------------------- video tier
class Cameras(Workload):
    """Four exact-reuse denoise streams, served round robin in process.

    Each stream is a static seeded 96x96 background with one seeded 12-px
    object bouncing around it.  The seed draws the pixels; the paths are
    part of the workload, chosen so that the blocks recomputed per frame
    (4, 6, 8 or 9 of 36) keep the same mix for every seed and run length:
    about 30% / 49% / 1% / 20%, which puts the median inside the 6-block
    frames and p90 inside the 9-block frames.  There are no scene cuts.
    """

    name = "cameras"
    workload = "denoise"
    size = 96
    object_px = 12
    output_block = 16
    #: (start row, start column, rows per frame, columns per frame) per stream.
    paths = ((49, 38, -3, 2), (67, 20, -3, -2), (12, 67, 3, 2), (24, 43, 3, -2))
    streams = len(paths)
    replay_ops = 48
    #: 30 frames per stream, so every window holds about the same
    #: recompute mix.
    window_ops = 120
    check_share = 0.02

    def __init__(self, seed: int, *, part: int = 0, inline: bool = False) -> None:
        super().__init__(seed, part=part, inline=inline)
        self._scenes = []
        for stream in range(self.streams):
            rng = _rng(seed, part, 3, stream)
            background = rng.random((3, self.size, self.size))
            texture = rng.random((3, self.object_px, self.object_px))
            self._scenes.append((background, texture))

    def _position(self, start: int, velocity: int, step: int) -> int:
        """Coordinate after ``step`` frames, bouncing inside the frame."""
        span = self.size - self.object_px
        offset = (start + velocity * step) % (2 * span)
        return offset if offset <= span else 2 * span - offset

    def frame(self, index: int):
        """Op ``index`` is frame ``index // streams + 1`` of stream ``index % streams``.

        Frame 0 of every stream (a full recompute) is served during set-up.
        """
        stream, step = index % self.streams, index // self.streams + 1
        return stream, self._stream_frame(stream, step)

    def _stream_frame(self, stream: int, step: int):
        background, texture = self._scenes[stream]
        row0, col0, rows, cols = self.paths[stream]
        row = self._position(row0, rows, step)
        col = self._position(col0, cols, step)
        data = background.copy()
        data[:, row : row + self.object_px, col : col + self.object_px] = texture
        return _frame(data)

    def setup(self) -> None:
        from repro.api import Session

        self.session = Session()
        for stream in range(self.streams):
            self._serve(stream, self._stream_frame(stream, 0))

    def _serve(self, stream: int, frame):
        return self.session.execute_stream(
            f"camera-{stream}", self.workload, frame, output_block=self.output_block
        )

    def run(self, index: int) -> np.ndarray:
        stream, frame = self.frame(index)
        return self._serve(stream, frame).output.data

    def check(self, kept: List[Tuple[int, Any]]) -> int:
        from repro.core.blockflow import block_based_inference

        network = self.session.compile(self.workload).network
        wrong = 0
        for index, output in kept:
            _, frame = self.frame(index)
            expected, _ = block_based_inference(network, frame, self.output_block)
            wrong += not np.array_equal(output, expected.data)
        return wrong

    def counts(self) -> Dict[str, int]:
        counts = {
            "video.frames": 0,
            "video.blocks_reused": 0,
            "video.blocks_recomputed": 0,
            "video.bytes_saved": 0,
            "video.cache_evictions": 0,
        }
        for stats in self.session.video_stream_stats:
            counts["video.frames"] += stats.frames
            counts["video.blocks_reused"] += stats.blocks_reused
            counts["video.blocks_recomputed"] += stats.blocks_recomputed
            counts["video.bytes_saved"] += stats.bytes_saved
            counts["video.cache_evictions"] += stats.cache_evictions
        frame_cache = self.session.frame_cache_stats
        cache = self.session.cache.stats
        counts.update(
            {
                "session.frame_cache.hits": frame_cache.hits,
                "session.frame_cache.misses": frame_cache.misses,
                "session.frame_cache.evictions": frame_cache.evictions,
                "cache.hits": cache.hits,
                "cache.misses": cache.misses,
            }
        )
        counts.update(_hotpath_counts())
        return counts


# ------------------------------------------------------------- sweep tier
#: The design grid: block buffer size (KB) and count, parameter memory (KB)
#: and clock.  384 KB buffers cannot hold the 128-px blocks of the three
#: block-flow workloads, so a quarter of the points are infeasible; every
#: parameter memory holds even the recognition trunk's tripled share.
GRID_AXES = (
    (384, 512, 768),
    (2, 3, 4),
    (1288, 1932, 2576),
    (200e6, 250e6, 300e6),
)
SWEEP_WORKLOADS = ("denoise", "super_resolution", "style_transfer", "recognition")


def sweep_points() -> List[Tuple[Tuple, str]]:
    """Every (config axes, workload) point of the grid, in canonical order."""
    return [
        (axes, workload)
        for axes in itertools.product(*GRID_AXES)
        for workload in SWEEP_WORKLOADS
    ]


def point_id(point: Tuple[Tuple, str]) -> str:
    (buffer_kb, buffers, parameter_kb, clock_hz), workload = point
    return f"{workload}/bb{buffer_kb}x{buffers}/pm{parameter_kb}/{clock_hz / 1e6:.0f}MHz"


def verdict_digest(verdict: Any) -> str:
    """Short digest of a profile's figures or an infeasible plan's error rules."""
    if isinstance(verdict, tuple):  # ("infeasible", rule ids)
        text = json.dumps(verdict)
    else:
        text = json.dumps(
            [
                verdict.model_name,
                verdict.spec_name,
                repr(verdict.frame_latency_s),
                repr(verdict.dram_gb_s),
                repr(verdict.power_w),
                repr(verdict.load_time_s),
                repr(verdict.peak_tops),
                repr(verdict.achieved_tops),
            ]
        )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Sweep(Workload):
    """Design-space exploration: each op evaluates one design point.

    An op profiles the four catalogue workloads at one grid configuration,
    each with a fresh session and analytic cache.  One op per design point
    (rather than per workload) keeps the latency unimodal: the four
    workloads' profiles differ tenfold in cost, so per-workload ops would
    put the median on the boundary between two of them.  The seed orders
    the grid; every op is checked against its pinned digests.
    """

    name = "sweep"
    check_all = True
    replay_ops = len(list(itertools.product(*GRID_AXES)))
    #: One pass over the grid: every window holds every design point once.
    window_ops = replay_ops

    def __init__(self, seed: int, *, part: int = 0, inline: bool = False) -> None:
        super().__init__(seed, part=part, inline=inline)
        self._order = list(itertools.product(*GRID_AXES))
        random.Random(f"order/{seed}/{part}").shuffle(self._order)
        self.infeasible = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def design(self, index: int) -> Tuple:
        return self._order[index % len(self._order)]

    def profile(self, point: Tuple[Tuple, str]) -> Any:
        from repro.api import Session
        from repro.check import PlanVerificationError
        from repro.hw.config import EcnnConfig
        from repro.runtime.cache import ResultCache

        (buffer_kb, buffers, parameter_kb, clock_hz), workload = point
        config = EcnnConfig(
            block_buffer_kb=buffer_kb,
            num_block_buffers=buffers,
            parameter_memory_kb=parameter_kb,
            clock_hz=clock_hz,
        )
        cache = ResultCache()
        try:
            verdict = Session(config=config, cache=cache).profile(workload)
        except PlanVerificationError as exc:
            self.infeasible += 1
            verdict = ("infeasible", sorted({d.rule_id for d in exc.report.errors}))
        self.cache_hits += cache.stats.hits
        self.cache_misses += cache.stats.misses
        return verdict

    def setup(self) -> None:
        """Cold compile and verify of the four catalogue plans, untimed."""
        from repro.api import Session
        from repro.runtime.cache import ResultCache

        session = Session(cache=ResultCache())
        for workload in SWEEP_WORKLOADS:
            session.profile(workload)

    def run(self, index: int) -> List[Any]:
        axes = self.design(index)
        return [self.profile((axes, workload)) for workload in SWEEP_WORKLOADS]

    def check(self, kept: List[Tuple[int, Any]]) -> int:
        with open(PINS_FILE) as handle:
            pins = json.load(handle)
        wrong = 0
        for index, verdicts in kept:
            axes = self.design(index)
            wrong += any(
                pins.get(point_id((axes, workload))) != verdict_digest(verdict)
                for workload, verdict in zip(SWEEP_WORKLOADS, verdicts)
            )
        return wrong

    def counts(self) -> Dict[str, int]:
        counts = {
            "sweep.infeasible": self.infeasible,
            "cache.hits": self.cache_hits,
            "cache.misses": self.cache_misses,
        }
        counts.update(_hotpath_counts())
        return counts


WORKLOADS = {cls.name: cls for cls in (Stills, Batch, Cameras, Sweep)}


def make(name: str, seed: int, *, part: int = 0, inline: bool = False) -> Workload:
    return WORKLOADS[name](seed, part=part, inline=inline)

