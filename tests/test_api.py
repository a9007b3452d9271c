"""The repro.api session layer: registry, parity with the direct modules
and cross-backend sweeps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sweeps import cross_backend_sweep
from repro.analysis.workloads import synthetic_image
from repro.api import (
    CostReport,
    PerfProfile,
    Session,
    available_backends,
    backend_class,
    create_backend,
    describe_backends,
    register_backend,
    unregister_backend,
)
from repro.hw.area_power import area_report, power_report
from repro.hw.config import DEFAULT_CONFIG
from repro.hw.dram import dram_traffic
from repro.hw.performance import evaluate_performance
from repro.models.ernet import PAPER_MODELS, build_ernet
from repro.runtime import ResultCache, ServingEngine, workload
from repro.runtime.cli import main as cli_main
from repro.specs import SPECIFICATIONS


# ------------------------------------------------------------------- registry
class TestBackendRegistry:
    def test_builtins_are_registered(self):
        names = available_backends()
        for expected in ("ecnn", "eyeriss", "diffy", "ideal", "frame_based", "scale_sim"):
            assert expected in names
        descriptions = describe_backends()
        assert all(descriptions[name] for name in names)

    def test_round_trip(self):
        @register_backend
        class Toy:
            name = "toy-backend"
            description = "registry round-trip fixture"

            def __init__(self, config=None):
                self.config = config

            def compile(self, network, spec):
                return None

            def profile(self, plan, spec):
                return None

            def execute(self, plan, frame):
                return None

            def cost(self):
                return CostReport(backend=self.name, area_mm2=1.0, technology_nm=7)

        try:
            assert "toy-backend" in available_backends()
            assert backend_class("toy-backend") is Toy
            instance = create_backend("toy-backend", config=DEFAULT_CONFIG)
            assert isinstance(instance, Toy)
            assert instance.config is DEFAULT_CONFIG
            assert Session(backend="toy-backend", cache=ResultCache()).cost().area_mm2 == 1.0
        finally:
            unregister_backend("toy-backend")
        assert "toy-backend" not in available_backends()
        with pytest.raises(KeyError):
            backend_class("toy-backend")

    def test_registration_validates_shape(self):
        with pytest.raises(TypeError):
            register_backend(type("NoName", (), {}))
        with pytest.raises(TypeError):
            register_backend(type("Partial", (), {"name": "partial-backend"}))
        with pytest.raises(ValueError):

            @register_backend
            class Duplicate:
                name = "ecnn"
                description = "duplicate of the ecnn backend name"

                def compile(self, network, spec): ...
                def profile(self, plan, spec): ...
                def execute(self, plan, frame): ...
                def cost(self): ...


# --------------------------------------------------------------------- parity
class TestEcnnParity:
    """The ecnn backend must reproduce the legacy reports bit-for-bit."""

    def test_perf_profile_matches_performance_report_exactly(self):
        session = Session(backend="ecnn", cache=ResultCache())
        profile = session.profile("denoise")
        network = build_ernet(PAPER_MODELS["dn"]["UHD30"])
        spec = SPECIFICATIONS["UHD30"]
        perf = evaluate_performance(network, spec)
        assert profile.frame_latency_s == perf.frame_time_s
        assert profile.fps == perf.fps
        assert profile.peak_tops == perf.peak_tops
        assert profile.achieved_tops == perf.achieved_tops
        assert profile.utilization == perf.utilization
        assert profile.throughput_efficiency == perf.throughput_efficiency
        assert profile.dram_gb_s == dram_traffic(network, spec).total_gb_s

    def test_perf_profile_power_matches_power_report_exactly(self):
        session = Session(backend="ecnn", cache=ResultCache())
        plan = session.compile("denoise")
        profile = session.profile("denoise")
        spec = SPECIFICATIONS["UHD30"]
        perf = evaluate_performance(
            plan.network, spec, input_block=plan.input_block, compiled=plan.payload
        )
        power = power_report(
            perf.model_name,
            plan.payload.program,
            utilization=perf.realtime_utilization(spec.fps),
        )
        assert profile.power_w == power.total

    def test_cost_report_matches_area_report_exactly(self):
        session = Session(backend="ecnn", cache=ResultCache())
        cost = session.cost()
        area = area_report(DEFAULT_CONFIG)
        assert cost.area_mm2 == area.total
        assert cost.as_dict() == area.as_dict()
        assert cost.share("lconv3x3") == area.share("lconv3x3")
        assert cost.source == "modelled"

    def test_serving_profile_matches_direct_workload_profile(self):
        cache = ResultCache()
        session = Session(backend="ecnn", cache=cache)
        for name in ("denoise", "super_resolution", "style_transfer", "recognition"):
            direct = workload(name).profile(cache=ResultCache())
            via_session = session.serving_profile(name)
            assert via_session == direct

    def test_profiles_match_recorded_seed_figures(self):
        # Golden pre-refactor figures (recorded from the legacy
        # RuntimeWorkload profile paths before they delegated to the
        # backend), so case-study parity is pinned against history, not
        # against the same code computing both sides.
        session = Session(backend="ecnn", cache=ResultCache())
        fps = {
            name: round(1.0 / session.serving_profile(name).frame_latency_s, 1)
            for name in ("denoise", "super_resolution", "style_transfer", "recognition")
        }
        assert fps == {
            "denoise": 35.8,
            "super_resolution": 31.4,
            "style_transfer": 26.6,
            "recognition": 2101.5,
        }

    def test_profile_consistent_with_serving_profile_for_case_studies(self):
        # The Section 7.3 kind-specific models (two-sub-model style transfer,
        # whole-image recognition with tripled parameter memory) must show
        # through PerfProfile too, not just the serving path.
        session = Session(backend="ecnn", cache=ResultCache())
        for name in ("denoise", "super_resolution", "style_transfer", "recognition"):
            profile = session.profile(name)
            serving = session.serving_profile(name)
            assert profile.frame_latency_s == serving.frame_latency_s
            assert profile.dram_gb_s == serving.dram_gb_s
            assert profile.power_w == serving.power_w
            assert profile.load_time_s == serving.load_time_s

    def test_engine_profile_goes_through_session(self):
        cache = ResultCache()
        engine = ServingEngine(num_instances=1, cache=cache)
        assert engine.backend_name == "ecnn"
        assert engine.profile("denoise") == engine.session.serving_profile("denoise")


# ---------------------------------------------------------------- cross-backend
class TestCrossBackend:
    def test_smoke_sweep_over_all_registered_backends(self):
        names = ["denoise", "super_resolution", "style_transfer", "recognition"]
        rows = cross_backend_sweep(names)
        assert len(rows) == len(names) * len(available_backends())
        for workload_name, backend_name, profile in rows:
            assert isinstance(profile, PerfProfile)
            assert profile.backend == backend_name
            assert profile.frame_latency_s > 0
            assert np.isfinite(profile.frame_latency_s)
            assert profile.power_w > 0
            assert profile.dram_gb_s >= 0
            assert 0 < profile.utilization <= 1.0 + 1e-9

    def test_compare_shares_one_cache(self):
        cache = ResultCache()
        session = Session(backend="ecnn", cache=cache)
        first = session.compare("denoise", backends=("ecnn", "eyeriss"))
        again = session.compare("denoise", backends=("ecnn", "eyeriss"))
        assert [p.backend for p in first] == ["ecnn", "eyeriss"]
        assert first == again
        assert cache.stats.hits > 0

    def test_functional_outputs_are_bit_identical_across_backends(self):
        # Every backend computes the same network; only timing models differ.
        # Covers the 4x-upscaling and downsampling/upsampling topologies too.
        cache = ResultCache()
        for name, size in (("denoise", 40), ("super_resolution", 40), ("style_transfer", 64)):
            image = synthetic_image(size, size, seed=5)
            reference = Session(backend="ecnn", cache=cache).execute(name, image)
            other = Session(backend="frame_based", cache=cache).execute(name, image)
            assert np.array_equal(reference.output.data, other.output.data), name

    def test_recognition_has_no_pixel_path(self):
        session = Session(backend="frame_based", cache=ResultCache())
        with pytest.raises(ValueError):
            session.execute("recognition", synthetic_image(32, 32, seed=1))

    def test_cli_serves_every_backend(self, capsys):
        for name in available_backends():
            assert cli_main(["--trace", "demo", "--backend", name]) == 0
            out = capsys.readouterr().out
            assert f"backend {name!r}" in out
            assert "served 60 frames" in out

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(KeyError):
            Session(backend="no-such-backend", cache=ResultCache())


# ----------------------------------------------------------- pixel matrix
class TestPixelBackendMatrix:
    """`execute_frame` across every registered backend: it must work, it
    must be deterministic (same input twice => identical bytes), and —
    since every backend computes the same network — it must agree with the
    eCNN reference bit-for-bit."""

    #: One shared 32x32 frame and its eCNN reference pixels (computed once).
    _IMAGE = synthetic_image(32, 32, seed=17)
    _REFERENCE = {}

    @classmethod
    def _reference_bytes(cls) -> bytes:
        if "pixels" not in cls._REFERENCE:
            engine = ServingEngine(backend="ecnn", cache=ResultCache())
            result = engine.execute_frame("denoise", cls._IMAGE, cached=False)
            cls._REFERENCE["pixels"] = result.output.data.tobytes()
        return cls._REFERENCE["pixels"]

    @pytest.mark.parametrize("backend", available_backends())
    def test_execute_frame_smoke_determinism_and_cross_backend_identity(
        self, backend
    ):
        engine = ServingEngine(backend=backend, cache=ResultCache())
        first = engine.execute_frame("denoise", self._IMAGE, cached=False)
        second = engine.execute_frame("denoise", self._IMAGE, cached=False)
        # Smoke: a real denoised frame came back.
        assert first.output.data.shape == self._IMAGE.data.shape
        assert np.isfinite(first.output.data).all()
        assert first.num_blocks >= 1
        # Determinism: serving the same input twice yields identical bytes.
        assert first.output.data.tobytes() == second.output.data.tobytes()
        # Functional identity: timing models differ per backend, pixels not.
        assert first.output.data.tobytes() == self._reference_bytes()

    @pytest.mark.parametrize("backend", available_backends())
    def test_cached_serving_returns_the_same_bytes(self, backend):
        engine = ServingEngine(backend=backend, cache=ResultCache())
        served = engine.execute_frame("denoise", self._IMAGE)
        repeat = engine.execute_frame("denoise", self._IMAGE)
        assert repeat.output.data.tobytes() == served.output.data.tobytes()
        assert engine.frame_cache_stats.hits >= 1
