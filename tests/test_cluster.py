"""The sharded serving cluster: routing, backpressure, failure recovery,
handles, aggregated stats and the worker-process protocol."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.analysis.workloads import synthetic_image
from repro.api import PlanHandle, Session, SessionHandle
from repro.runtime import (
    ClusterBackpressure,
    ClusterError,
    QueueFull,
    RequestQueue,
    ResultCache,
    ServingCluster,
    ServingEngine,
)
from repro.runtime.cli import main as cli_main
from repro.runtime.trace import trace


# -------------------------------------------------------------------- handles
class TestHandles:
    def test_session_handle_round_trips_and_rebuilds(self):
        session = Session(backend="eyeriss", cache=ResultCache(), frame_cache_entries=8)
        handle = pickle.loads(pickle.dumps(session.handle()))
        rebuilt = handle.create()
        assert rebuilt.backend_name == "eyeriss"
        assert rebuilt.frame_cache.max_entries == 8
        assert rebuilt.cache is not session.cache  # scoped, not shared
        # Equal handles rebuild sessions that answer identically.
        assert rebuilt.serving_profile("denoise") == session.serving_profile("denoise")

    def test_plan_handle_resolves_bit_identical_plans(self):
        session = Session(backend="ecnn", cache=ResultCache())
        handle = pickle.loads(pickle.dumps(session.plan_handle("denoise")))
        assert handle == PlanHandle(backend="ecnn", workload="denoise")
        resolved = handle.resolve(session)
        assert resolved is session.compile("denoise")  # cache-resident
        other = handle.resolve(SessionHandle(backend="ecnn").create())
        assert np.array_equal(
            other.payload.program.total_weights, resolved.payload.program.total_weights
        )

    def test_plan_handle_rejects_backend_mismatch(self):
        session = Session(backend="ecnn", cache=ResultCache())
        with pytest.raises(ValueError, match="backend"):
            PlanHandle(backend="eyeriss", workload="denoise").resolve(session)
        with pytest.raises(KeyError):
            session.plan_handle("no-such-workload")

    def test_frame_cache_stats_mirror_the_bounded_cache(self):
        session = Session(backend="ecnn", cache=ResultCache(), frame_cache_entries=2)
        image = synthetic_image(32, 32, seed=1)
        session.execute("denoise", image)
        session.execute("denoise", image)
        stats = session.frame_cache_stats
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert stats.max_entries == 2
        assert stats.hit_rate == pytest.approx(0.5)
        assert "bound 2" in stats.describe()
        # Evictions show through once the bound is exceeded.
        for seed in (2, 3, 4):
            session.execute("denoise", synthetic_image(32, 32, seed=seed))
        assert session.frame_cache_stats.evictions >= 1

    def test_engine_report_surfaces_frame_cache_stats(self):
        engine = ServingEngine(num_instances=1, cache=ResultCache())
        image = synthetic_image(32, 32, seed=5)
        engine.execute_frame("denoise", image)
        engine.execute_frame("denoise", image)
        engine.submit("s0", "denoise", frames=1)
        report = engine.run()
        assert report.frame_cache == engine.frame_cache_stats
        assert report.frame_cache.hits == 1
        assert "frame cache:" in report.render()


# ----------------------------------------------------------- scheduler bounds
class TestBoundedQueue:
    def test_bounded_queue_backpressure(self):
        queue = RequestQueue(max_pending=2)
        queue.submit("s", "w")
        queue.submit("s", "w")
        with pytest.raises(QueueFull):
            queue.submit("s", "w")
        queue.drain()
        queue.submit("s", "w")  # draining frees capacity

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            RequestQueue(max_pending=0)

    def test_set_bound_rebinds_in_place(self):
        queue = RequestQueue(max_pending=2)
        queue.submit("s", "w")
        queue.submit("s", "w")
        with pytest.raises(QueueFull):
            queue.submit("s", "w")
        queue.set_bound(3)
        queue.submit("s", "w")
        # Clamping below the current depth evicts nothing — it only
        # refuses new admissions (the saturate_shard contract).
        queue.set_bound(1)
        assert len(queue) == 3
        with pytest.raises(QueueFull):
            queue.submit("s", "w")
        queue.set_bound(None)
        queue.submit("s", "w")
        with pytest.raises(ValueError):
            queue.set_bound(0)


# ------------------------------------------------------------- inline cluster
@pytest.fixture(scope="module")
def inline_cluster():
    with ServingCluster(workers=2, backend="ecnn", mode="inline", max_pending=4) as built:
        yield built


class TestClusterInline:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServingCluster(workers=0)
        with pytest.raises(ValueError):
            ServingCluster(workers=1, instances_per_worker=0)
        with pytest.raises(ValueError):
            ServingCluster(workers=1, mode="bogus")
        session = Session(backend="ecnn", cache=ResultCache())
        with pytest.raises(ValueError, match="warm plan"):
            ServingCluster(
                workers=1,
                mode="inline",
                warm_plans=(PlanHandle(backend="eyeriss", workload="denoise"),),
            )
        del session

    def test_routing_is_sticky_and_balanced(self, inline_cluster):
        first = inline_cluster.submit("route0", "denoise")
        assert inline_cluster.submit("route0", "denoise") == first
        # Four fresh streams spread over both shards.
        owners = {inline_cluster.submit(f"spread{i}", "denoise") for i in range(4)}
        assert owners == {0, 1}
        inline_cluster.run()  # drain what this test admitted

    def test_backpressure_raises_cluster_error_type(self, inline_cluster):
        stream = "pressure0"
        owner = inline_cluster.submit(stream, "denoise")
        for _ in range(3):
            try:
                inline_cluster.submit(stream, "denoise")
            except ClusterBackpressure:
                break
        with pytest.raises(ClusterBackpressure, match=f"shard {owner}"):
            for _ in range(10):
                inline_cluster.submit(stream, "denoise")
        assert isinstance(ClusterBackpressure("x"), QueueFull)
        inline_cluster.run()

    def test_unknown_workload_rejected_at_coordinator(self, inline_cluster):
        with pytest.raises(KeyError):
            inline_cluster.submit("s0", "no-such-workload")
        with pytest.raises(KeyError):
            inline_cluster.execute_frame(
                "no-such-workload", synthetic_image(24, 24, seed=1)
            )

    def test_recognition_pixels_rejected_through_the_worker(self, inline_cluster):
        with pytest.raises(ValueError):
            inline_cluster.execute_frame("recognition", synthetic_image(32, 32, seed=1))

    def test_run_serves_the_demo_trace_completely(self):
        with ServingCluster(workers=2, backend="ecnn", mode="inline") as cluster:
            demo = trace("demo")
            assert cluster.play(demo) == len(demo.events)
            assert sum(cluster.queue_depths().values()) == len(demo.events)
            report = cluster.run()
            assert report.total_frames == demo.total_frames
            assert sum(cluster.queue_depths().values()) == 0
            assert report.makespan_s > 0
            assert "Per-shard serving report" in report.render()
            assert "aggregate" in report.render()
            # Per-shard engine reports carry their own frame-cache counters.
            for _, shard_report in report.shard_reports:
                assert shard_report.frame_cache is not None

    def test_throughput_scales_with_workers(self):
        fps = []
        for workers in (1, 2, 4):
            with ServingCluster(
                workers=workers, backend="ecnn", mode="inline", instances_per_worker=1
            ) as cluster:
                cluster.play(trace("demo"))
                fps.append(cluster.run().throughput_fps)
        assert fps[0] < fps[1] < fps[2]

    def test_cluster_run_is_deterministic(self):
        def one_run():
            with ServingCluster(workers=2, backend="ecnn", mode="inline") as cluster:
                cluster.play(trace("demo"))
                report = cluster.run()
                return report.throughput_fps, report.makespan_s, report.total_frames

        assert one_run() == one_run()

    def test_stats_aggregate_shards(self, inline_cluster):
        image = synthetic_image(32, 32, seed=9)
        inline_cluster.execute_frame("denoise", image)
        inline_cluster.execute_frame("denoise", image)
        stats = inline_cluster.stats()
        assert stats.mode == "inline"
        assert stats.workers == 2
        assert stats.live_workers == 2
        assert stats.total_served_frames >= 2
        owner = next(
            shard for shard in stats.shards
            if shard.frame_cache is not None and shard.frame_cache.lookups
        )
        assert owner.frame_cache.hits >= 1  # the repeat hit the worker cache
        assert owner.cache is not None
        assert "2/2 workers live" in stats.describe()

    def test_profile_matches_session(self, inline_cluster):
        reference = Session(backend="ecnn", cache=ResultCache()).serving_profile("denoise")
        assert inline_cluster.profile("denoise") == reference

    def test_closed_cluster_refuses_work(self):
        cluster = ServingCluster(workers=1, backend="ecnn", mode="inline")
        cluster.close()
        cluster.close()  # idempotent
        with pytest.raises(ClusterError):
            cluster.submit("s0", "denoise")
        with pytest.raises(ClusterError):
            cluster.execute_frame("denoise", synthetic_image(24, 24, seed=1))

    def test_run_requeues_requests_queued_on_an_already_dead_shard(self):
        # A shard can die (marked by a pixel dispatch) while it still holds
        # admitted analytic requests; run() must requeue them, not drop them.
        with ServingCluster(workers=2, backend="ecnn", mode="inline") as cluster:
            first = cluster.submit("orphan0", "denoise", frames=2)
            second = cluster.submit("orphan1", "super_resolution", frames=3)
            assert first != second  # balanced routing put them on both shards
            cluster._mark_dead(cluster._shards[first])
            report = cluster.run()
            assert report.total_frames == 5  # nothing dropped
            assert cluster.requeued == 1  # the dead shard's one queued request
            assert all(index == second for index, _ in report.shard_reports)

    def test_served_frame_stats_count_each_frame_once(self):
        with ServingCluster(workers=2, backend="ecnn", mode="inline") as cluster:
            images = [synthetic_image(28, 28, seed=seed) for seed in range(6)]
            results = cluster.execute_frames("denoise", images, cached=False)
            assert len(results) == len(images)
            assert cluster.stats().total_served_frames == len(images)

    def test_unbounded_frame_cache_survives_the_handle_round_trip(self):
        session = Session(
            backend="ecnn", cache=ResultCache(), frame_cache_entries=None
        )
        handle = session.handle()
        assert handle.frame_cache_entries is None
        rebuilt = handle.create()
        assert rebuilt.frame_cache.max_entries is None
        assert rebuilt.frame_cache_stats.max_entries is None


# ------------------------------------------------------------ process cluster
@pytest.fixture(scope="module")
def process_cluster():
    with ServingCluster(workers=2, backend="ecnn", mode="auto") as built:
        yield built


class TestClusterProcesses:
    """Real worker processes (falls back to inline only in sandboxes that
    forbid spawning, in which case these tests still exercise the shared
    dispatch path)."""

    def test_pixels_bit_identical_to_single_process_engine(self, process_cluster, assert_parity):
        engine = ServingEngine(backend="ecnn", cache=ResultCache())
        image = synthetic_image(40, 40, seed=11)
        assert_parity(
            {
                "engine": engine.execute_frame("denoise", image, cached=False),
                "cluster": process_cluster.execute_frame("denoise", image, cached=False),
            },
            context=f"mode={process_cluster.mode}",
        )

    def test_execute_frames_scatters_and_preserves_order(
        self, process_cluster, assert_parity, session_block_reference
    ):
        images = [synthetic_image(32, 32, seed=seed) for seed in range(5)]
        session = Session(backend="ecnn", cache=ResultCache())
        scattered = process_cluster.execute_frames("denoise", images, cached=False)
        assert len(scattered) == len(images)
        for index, (image, result) in enumerate(zip(images, scattered)):
            reference = session_block_reference(session, "denoise", image, result)
            assert_parity(
                {"scalar": reference, "cluster": result}, context=f"frame {index}"
            )
        assert process_cluster.execute_frames("denoise", []) == []

    def test_demo_trace_totals_match_engine(self, process_cluster):
        demo = trace("demo")
        process_cluster.play(demo)
        report = process_cluster.run()
        assert report.total_frames == demo.total_frames
        assert report.mode == process_cluster.mode

    def test_worker_failure_recovers_onto_live_shard(self, assert_parity):
        with ServingCluster(workers=2, backend="ecnn", mode="auto") as cluster:
            if cluster.mode != "process":
                pytest.skip("sandbox forbids worker processes")
            image = synthetic_image(36, 36, seed=13)
            before = cluster.execute_frame("denoise", image, cached=False)
            victim = cluster._workload_shard["denoise"]
            cluster._shards[victim]._process.terminate()
            cluster._shards[victim]._process.join()
            after = cluster.execute_frame("denoise", image, cached=False)
            assert_parity({"before": before, "after": after})
            assert cluster.requeued >= 1
            stats = cluster.stats()
            assert stats.live_workers == 1
            dead = next(shard for shard in stats.shards if not shard.alive)
            assert dead.shard == victim
            assert dead.cache is None
            # Queued analytic work requeues onto the survivor too.
            cluster.submit("s0", "denoise", frames=2)
            cluster.submit("s1", "super_resolution", frames=1)
            assert cluster.run().total_frames == 3

    def test_batch_failover_serves_every_frame_exactly_once(
        self, assert_parity, session_block_reference
    ):
        with ServingCluster(workers=2, backend="ecnn", mode="auto") as cluster:
            if cluster.mode != "process":
                pytest.skip("sandbox forbids worker processes")
            cluster._shards[0]._process.terminate()
            cluster._shards[0]._process.join()
            images = [synthetic_image(30, 30, seed=seed) for seed in range(4)]
            results = cluster.execute_frames("denoise", images, cached=False)
            session = Session(backend="ecnn", cache=ResultCache())
            for index, (image, result) in enumerate(zip(images, results)):
                reference = session_block_reference(session, "denoise", image, result)
                assert_parity({"scalar": reference, "cluster": result}, context=f"frame {index}")
            # The survivor served each frame exactly once; the dead shard's
            # chunk shows up in the requeue counter, not in served frames.
            assert cluster.stats().total_served_frames == len(images)
            assert cluster.requeued >= 1

    def test_all_workers_dead_raises(self):
        with ServingCluster(workers=1, backend="ecnn", mode="auto") as cluster:
            if cluster.mode != "process":
                pytest.skip("sandbox forbids worker processes")
            cluster._shards[0]._process.terminate()
            cluster._shards[0]._process.join()
            with pytest.raises(ClusterError):
                cluster.execute_frame("denoise", synthetic_image(24, 24, seed=1))


# -------------------------------------------------------------- chaos surface
class TestFaultInjection:
    """The cluster's fault-injection primitives (the repro.soak surface)."""

    def test_kill_worker_refuses_the_last_live_shard(self):
        with ServingCluster(workers=1, backend="ecnn", mode="inline") as cluster:
            with pytest.raises(ClusterError, match="last live shard"):
                cluster.kill_worker()

    def test_kill_worker_inline_and_recovery(self):
        with ServingCluster(workers=3, backend="ecnn", mode="inline") as cluster:
            victim = cluster.kill_worker()
            assert victim not in cluster.live_shard_indices()
            assert len(cluster.live_shard_indices()) == 2
            with pytest.raises(ValueError, match="not alive"):
                cluster.kill_worker(victim)  # already dead
            cluster.submit("after-kill", "denoise", frames=2)
            report = cluster.run()
            assert report.total_frames == 2

    def test_saturate_and_restore(self):
        with ServingCluster(
            workers=2, backend="ecnn", mode="inline", max_pending=8
        ) as cluster:
            owner = cluster.submit("sat0", "denoise")
            saturated = cluster.saturate_shard(owner)
            assert saturated == owner
            with pytest.raises(ClusterBackpressure):
                cluster.submit("sat0", "denoise")
            assert cluster.restore_shards() == (owner,)
            cluster.submit("sat0", "denoise")  # admission resumed
            assert cluster.run().total_frames == 2

    def test_evict_frame_caches_drops_worker_pixel_caches(self):
        image = synthetic_image(24, 24, seed=3)
        with ServingCluster(workers=2, backend="ecnn", mode="inline") as cluster:
            cluster.execute_frame("denoise", image)
            cluster.execute_frame("denoise", image)  # second serve: cache hit
            assert cluster.evict_frame_caches() >= 1
            assert cluster.evict_frame_caches() == 0  # already empty

    def test_evict_frame_caches_invalidates_video_block_caches(self):
        """Regression: whole-frame and delta block caches share one eviction.

        The pre-fix ``evict_frame_cache`` command only cleared the
        whole-frame result cache, so a video stream surviving the chaos
        event would happily keep serving delta blocks cached *before* the
        eviction — exactly the staleness the event is meant to flush.  The
        shared ``Session.evict_pixel_caches`` path drops the block caches
        and predecessor frames too, which shows up as the next stream frame
        recomputing in full (``residuals is None``) instead of reusing.
        """
        image = synthetic_image(32, 32, seed=11)
        with ServingCluster(workers=2, backend="ecnn", mode="inline") as cluster:
            reference = cluster.execute_frame(
                "denoise", image, cached=False
            ).output.data
            cluster.execute_stream("evict-cam", "denoise", image)
            warm = cluster.execute_stream("evict-cam", "denoise", image)
            assert warm.blocks_reused == warm.blocks_total  # delta cache is hot
            # The eviction reports the video blocks it dropped, not just the
            # whole-frame entries (the frame cache is empty: cached=False
            # plus streams bypass it).
            assert cluster.evict_frame_caches() >= warm.blocks_total
            after = cluster.execute_stream("evict-cam", "denoise", image)
            assert after.residuals is None  # no stale predecessor to diff against
            assert after.blocks_reused == 0
            assert after.blocks_recomputed == after.blocks_total
            # And the recomputed frame is still bit-identical — eviction
            # costs work, never pixels.
            assert np.array_equal(after.output.data, reference)

    def test_flip_mode_preserves_queued_requests(self):
        with ServingCluster(workers=2, backend="ecnn", mode="inline") as cluster:
            for index in range(4):
                cluster.submit(f"flip{index}", "denoise", frames=2)
            flipped = cluster.flip_mode()
            # Sandboxes that forbid processes keep the flip a no-op; either
            # way every queued request must survive the transition.
            assert flipped in ("process", "inline")
            assert flipped == cluster.mode
            assert sum(cluster.queue_depths().values()) == 4
            assert cluster.run().total_frames == 8

    def test_fault_hook_fires_at_documented_points(self):
        points = []
        with ServingCluster(
            workers=2,
            backend="ecnn",
            mode="inline",
            fault_hook=lambda cluster, point: points.append(point),
        ) as cluster:
            cluster.run()  # empty queues: no dispatch round
            assert points == ["run:start"]
            cluster.submit("hook0", "denoise")
            cluster.run()
            assert points == ["run:start", "run:start", "run:round"]

    def test_rapid_double_kill_requeues_each_request_once(self):
        """Regression: a request moved twice by two kills counts once.

        The pre-fix accounting incremented ``requeued`` per *move*, so two
        requests surviving two shard deaths inside one ``run()`` showed up
        as four requeues and the counter could exceed the number of
        requests the call dispatched.
        """
        kills = []

        def double_kill(cluster, point):
            if point != "run:round" or len(kills) >= 2:
                return
            owner = cluster._stream_shard.get("victim-stream")
            if owner is not None and owner in cluster.live_shard_indices():
                kills.append(cluster.kill_worker(owner))

        with ServingCluster(
            workers=3, backend="ecnn", mode="inline", fault_hook=double_kill
        ) as cluster:
            cluster.submit("victim-stream", "denoise")
            cluster.submit("victim-stream", "denoise")
            report = cluster.run()
            # Both kills fired, both requests still served exactly once...
            assert len(kills) == 2
            assert len(set(kills)) == 2
            assert sum(
                len(shard.schedule.records) for _, shard in report.shard_reports
            ) == 2
            assert report.total_frames == 2
            # ...and each displaced request counted once, not once per move.
            assert cluster.requeued == 2

    def test_requeued_never_exceeds_dispatched_requests_per_run(self):
        def kill_everything_once(cluster, point):
            if point == "run:round" and len(cluster.live_shard_indices()) > 1:
                cluster.kill_worker()

        with ServingCluster(
            workers=4, backend="ecnn", mode="inline", fault_hook=kill_everything_once
        ) as cluster:
            for index in range(6):
                cluster.submit(f"recon{index}", "denoise")
            report = cluster.run()
            assert sum(
                len(shard.schedule.records) for _, shard in report.shard_reports
            ) == 6
            assert cluster.requeued <= 6


# ------------------------------------------------------------------------ CLI
class TestClusterCli:
    def test_workers_flag_serves_through_the_cluster(self, capsys):
        assert cli_main(
            ["--trace", "demo", "--workers", "2", "--cluster-mode", "inline"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 worker shard(s) (inline)" in out
        assert "Per-shard serving report" in out
        assert "cluster served 60 frames" in out
        assert "workers live" in out

    def test_workers_flag_honors_analyze(self, capsys):
        assert cli_main(
            ["--trace", "demo", "--workers", "2", "--cluster-mode", "inline", "--analyze"]
        ) == 0
        out = capsys.readouterr().out
        assert "Per-shard serving report" in out
        assert "Per-workload analytics" in out
        assert "analytic cache after re-query" in out

    def test_workers_flag_validation(self):
        with pytest.raises(SystemExit):
            cli_main(["--workers", "-1"])
