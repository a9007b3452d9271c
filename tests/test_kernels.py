"""The pluggable compute-kernel registry (:mod:`repro.kernels`).

Covers the registry lifecycle (registration validation, lookup, selection,
scoped activation, the warm-compile memo contract), the clean numpy fallback
when numba is force-disabled (including the registry-routing assertion for
the chunked-conv scalar fallback), the Session/handle/profile plumbing of
the resolved kernel-set name, and the Q-format fraction-search tie-breaking
regression (scalar and vectorized searches agree on every tie shape).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.kernels as kernels
from repro.analysis.workloads import synthetic_image
from repro.api import Session
from repro.api.results import PerfProfile
from repro.core.blockflow import block_based_inference
from repro.kernels import (
    KERNEL_SETS,
    KernelUnavailableError,
    active_kernel_set,
    available_kernel_sets,
    describe_kernel_sets,
    kernel_set,
    register_kernel,
    select_kernel_set,
    set_is_available,
    unregister_kernel,
    use_kernel_set,
)
from repro.models.baselines import build_plain_network
from repro.quant.qformat import QFormat
from repro.quant.quantize import _optimal_fraction_bits_scalar, optimal_fraction_bits
from repro.runtime import ResultCache


@pytest.fixture(autouse=True)
def _restore_registry():
    """Every test leaves the registry and the active set as it found them."""
    snapshot = dict(KERNEL_SETS)
    active = active_kernel_set()
    yield
    KERNEL_SETS.clear()
    KERNEL_SETS.update(snapshot)
    kernels._ACTIVE = active


class _CompleteSet:
    """A minimal but protocol-complete kernel set (delegates to numpy)."""

    name = "dummy"
    description = "test-only delegate set"
    tolerance = 0.0

    def available(self) -> bool:
        return True

    def warmup(self):
        return {"set": self.name}

    def conv2d(self, data, weights, bias):
        return kernel_set("numpy").conv2d(data, weights, bias)

    def conv2d_batch(self, data, weights, bias):
        return kernel_set("numpy").conv2d_batch(data, weights, bias)

    def quantize_to_codes(self, values, step, min_code, max_code):
        return kernel_set("numpy").quantize_to_codes(values, step, min_code, max_code)

    def fraction_search(self, values, fracs, min_code, max_code, norm):
        return kernel_set("numpy").fraction_search(
            values, fracs, min_code, max_code, norm
        )


class TestRegistry:
    def test_builtin_sets_are_registered(self):
        assert "numpy" in KERNEL_SETS
        assert "numba" in KERNEL_SETS
        assert set_is_available("numpy")
        assert "numpy" in available_kernel_sets()
        descriptions = describe_kernel_sets()
        assert set(descriptions) == set(KERNEL_SETS)
        assert all(descriptions.values())

    def test_register_lookup_select_unregister_round_trip(self):
        # register_kernel applied as a plain call: the linter requires any
        # *decorated* class to be protocol-complete, which is exactly what
        # the validation tests below need to violate.
        register_kernel(_CompleteSet)
        registered = kernel_set("dummy")
        assert isinstance(registered, _CompleteSet)
        assert select_kernel_set("dummy") is registered
        assert active_kernel_set() is registered
        unregister_kernel("dummy")
        assert "dummy" not in KERNEL_SETS
        # Unregistering the active set falls back to the numpy oracle.
        assert active_kernel_set() is kernel_set("numpy")

    def test_unknown_set_lookup_raises(self):
        with pytest.raises(KeyError, match="unknown kernel set"):
            kernel_set("no-such-set")

    def test_registration_rejects_missing_attribute(self):
        incomplete = type("NoTolerance", (), dict(vars(_CompleteSet)))
        del incomplete.tolerance
        with pytest.raises(TypeError, match="tolerance"):
            register_kernel(incomplete)
        assert "dummy" not in KERNEL_SETS

    def test_registration_rejects_missing_method(self):
        incomplete = type("NoBatch", (), dict(vars(_CompleteSet)))
        del incomplete.conv2d_batch
        with pytest.raises(TypeError, match="conv2d_batch"):
            register_kernel(incomplete)
        assert "dummy" not in KERNEL_SETS

    def test_registration_rejects_duplicate_name(self):
        duplicate = type("Impostor", (), dict(vars(_CompleteSet), name="numpy"))
        with pytest.raises(ValueError, match="already registered"):
            register_kernel(duplicate)
        assert isinstance(KERNEL_SETS["numpy"], type(kernel_set("numpy")))


class TestSelection:
    def test_auto_prefers_fastest_available(self):
        chosen = select_kernel_set("auto")
        preference = [
            name for name in kernels._PREFERENCE if set_is_available(name)
        ]
        assert chosen.name == preference[0]

    def test_auto_falls_back_to_numpy_when_numba_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS_DISABLE", "numba")
        assert not set_is_available("numba")
        assert available_kernel_sets() == ("numpy",)
        assert select_kernel_set("auto").name == "numpy"

    def test_explicit_unavailable_set_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS_DISABLE", "numba")
        with pytest.raises(KernelUnavailableError, match="numba"):
            select_kernel_set("numba")
        # The failed selection must not clobber the active set.
        assert active_kernel_set().name == "numpy"

    def test_warmup_is_memoized(self):
        for name in available_kernel_sets():
            chosen = kernel_set(name)
            assert chosen.warmup() is chosen.warmup()

    def test_use_kernel_set_restores_previous(self):
        register_kernel(_CompleteSet)
        previous = select_kernel_set("dummy")
        with use_kernel_set("numpy") as scoped:
            assert scoped is kernel_set("numpy")
            assert active_kernel_set() is scoped
        assert active_kernel_set() is previous

    def test_use_kernel_set_restores_on_error(self):
        previous = active_kernel_set()
        with pytest.raises(RuntimeError, match="boom"):
            with use_kernel_set("numpy"):
                raise RuntimeError("boom")
        assert active_kernel_set() is previous


class TestNumpyFallbackRouting:
    """Satellite: the block flow and its scalar reference route through the registry.

    With numba force-disabled, auto-selection lands on the numpy oracle and
    both the scalar per-block reference (``network.forward`` per window)
    and the block-parallel executor call *its* conv kernels — pinned by
    counting calls on the registered singleton — and produce bit-identical
    pixels.  The executor only ever takes the batched kernel.
    """

    def test_scalar_and_batched_paths_route_through_numpy_set(
        self, monkeypatch, scalar_block_reference
    ):
        monkeypatch.setenv("REPRO_KERNELS_DISABLE", "numba")
        select_kernel_set("auto")
        assert active_kernel_set().name == "numpy"

        network = build_plain_network(3, 4, seed=11)
        image = synthetic_image(20, 23, seed=11)
        baseline, _ = block_based_inference(network, image, 8)

        numpy_set = kernel_set("numpy")
        calls = {"conv2d": 0, "conv2d_batch": 0}
        original_conv2d = numpy_set.conv2d
        original_batch = numpy_set.conv2d_batch

        def counting_conv2d(data, weights, bias):
            calls["conv2d"] += 1
            return original_conv2d(data, weights, bias)

        def counting_batch(data, weights, bias):
            calls["conv2d_batch"] += 1
            return original_batch(data, weights, bias)

        monkeypatch.setattr(numpy_set, "conv2d", counting_conv2d)
        monkeypatch.setattr(numpy_set, "conv2d_batch", counting_batch)

        scalar = scalar_block_reference(network, image, 8)
        assert calls["conv2d"] > 0
        assert calls["conv2d_batch"] == 0
        scalar_convs = calls["conv2d"]

        # The executor runs every group, singletons included, through
        # conv2d_batch.
        batched, _ = block_based_inference(network, image, 8)
        assert calls["conv2d_batch"] > 0
        assert calls["conv2d"] == scalar_convs

        assert np.array_equal(scalar.data, baseline.data)
        assert np.array_equal(batched.data, baseline.data)


class TestSessionPlumbing:
    def test_session_resolves_auto_to_a_registered_set(self):
        session = Session(backend="ecnn", cache=ResultCache())
        assert session.kernels != "auto"
        assert session.kernels in available_kernel_sets()

    def test_explicit_selection_is_recorded(self):
        session = Session(backend="ecnn", cache=ResultCache(), kernels="numpy")
        assert session.kernels == "numpy"
        assert active_kernel_set().name == "numpy"

    def test_handle_carries_resolved_name_and_rebuilds_identically(self):
        session = Session(backend="ecnn", cache=ResultCache(), kernels="numpy")
        handle = session.handle()
        assert handle.kernels == "numpy"
        rebuilt = handle.create()
        assert rebuilt.kernels == session.kernels

    def test_profile_is_stamped_with_session_kernels(self):
        cache = ResultCache()
        session = Session(backend="ecnn", cache=cache, kernels="numpy")
        profile = session.profile("denoise")
        assert profile.kernels == session.kernels
        # The stamp happens after cache retrieval: a sibling session sharing
        # the cache reuses the analytic figures but reports its own set.
        sibling = Session(backend="ecnn", cache=cache, kernels="numpy")
        assert sibling.profile("denoise").kernels == sibling.kernels

    def test_perf_profile_default_kernels_is_numpy(self):
        assert PerfProfile.__dataclass_fields__["kernels"].default == "numpy"

    def test_frame_keys_are_kernel_set_addressed(self):
        session = Session(backend="ecnn", cache=ResultCache(), kernels="numpy")
        entry = session.workload("denoise")
        frame = synthetic_image(24, 24, seed=3)
        key_numpy = session._frame_key(entry, frame)
        session.kernels = "other-set"
        assert session._frame_key(entry, frame) != key_numpy


class TestCli:
    def test_list_kernels_reports_availability(self, capsys):
        from repro.runtime.cli import main

        assert main(["--list-kernels"]) == 0
        out = capsys.readouterr().out
        assert "numpy" in out
        assert "numba" in out
        assert "[available]" in out

    def test_kernels_flag_rejects_unknown_set(self, capsys):
        from repro.runtime.cli import main

        with pytest.raises(SystemExit):
            main(["--kernels", "no-such-set"])


class TestFractionSearchTies:
    """Satellite regression: scalar and vectorized Eq. (4) searches agree on
    every tie shape (all-zero, all-inf and l2-overflow inputs), breaking ties
    toward the larger frac instead of crashing."""

    TIE_FRAC = max(range(-4, 16))  # default search range's largest candidate

    def _both(self, values, norm):
        with np.errstate(over="ignore", invalid="ignore"):
            scalar = _optimal_fraction_bits_scalar(values, norm=norm)
            vectorized = optimal_fraction_bits(values, norm=norm)
        return scalar, vectorized

    @pytest.mark.parametrize("norm", ("l1", "l2"))
    def test_all_zero_values_tie_toward_largest_frac(self, norm):
        scalar, vectorized = self._both(np.zeros(7), norm)
        assert scalar == vectorized == QFormat(frac=self.TIE_FRAC, bits=8, signed=True)

    @pytest.mark.parametrize("norm", ("l1", "l2"))
    def test_infinite_sample_ties_at_infinite_error(self, norm):
        scalar, vectorized = self._both(np.array([np.inf, 1.0]), norm)
        assert scalar == vectorized == QFormat(frac=self.TIE_FRAC, bits=8, signed=True)

    def test_l2_overflow_for_every_candidate_ties(self):
        scalar, vectorized = self._both(np.array([1e300]), "l2")
        assert scalar == vectorized == QFormat(frac=self.TIE_FRAC, bits=8, signed=True)

    def test_ordinary_values_still_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            values = rng.normal(scale=rng.uniform(0.01, 20.0), size=129)
            for norm in ("l1", "l2"):
                scalar, vectorized = self._both(values, norm)
                assert scalar == vectorized
