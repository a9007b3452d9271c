"""The bench harness: scenarios, timed runs, machine-readable reports.

A :class:`BenchScenario` wraps one real hot path of the system — a session
profiling the catalogue, the serving engine draining a trace, the pixel
execution path, a cross-backend sweep — as a callable that performs one
measured pass and reports what it did: how many work units it completed,
the analytic figures it produced (for determinism pinning) and the cache
statistics it observed.  :func:`run_scenario` repeats the pass, checks the
figures are identical across repeats (wall time may vary; the *answers* may
not), and folds everything into a frozen :class:`BenchResult`.

A :class:`BenchSuite` runs an ordered scenario list into a
:class:`BenchReport`, which serializes losslessly to the ``BENCH_<n>.json``
schema (``repro-bench/1``) and renders as a human table.  See
``docs/performance.md`` for how to run the suite and read the output.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.report import format_table

#: Schema tag written into every report; bump on incompatible change.
SCHEMA = "repro-bench/1"

#: (name, value) pair sequences — tuples rather than dicts so results stay
#: frozen and hashable; JSON serialization converts to objects.
Pairs = Tuple[Tuple[str, float], ...]


class BenchDeterminismError(AssertionError):
    """A scenario produced different analytic figures on different repeats."""


class PhaseRecorder:
    """Accumulates named phase durations within one measured pass."""

    def __init__(self) -> None:
        self._seconds: Dict[str, float] = {}

    def phase(self, name: str) -> "_PhaseTimer":
        """Context manager timing one named phase (accumulates on re-entry)."""
        return _PhaseTimer(self, name)

    def add(self, name: str, seconds: float) -> None:
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds

    def as_pairs(self) -> Pairs:
        return tuple(self._seconds.items())


class _PhaseTimer:
    def __init__(self, recorder: PhaseRecorder, name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._recorder.add(self._name, time.perf_counter() - self._start)


@dataclass(frozen=True)
class ScenarioOutcome:
    """What one measured pass of a scenario accomplished.

    ``figures`` are the analytic numbers the pass produced — they must be a
    pure function of the scenario (the harness fails the run if they change
    between repeats).  ``extra`` carries scenario-specific measurements that
    *are* allowed to vary (e.g. the A/B speedup factors of the hot-path
    scenario).
    """

    units: float
    figures: Pairs = ()
    cache: Pairs = ()
    extra: Pairs = ()


@dataclass(frozen=True)
class BenchScenario:
    """One benchmarkable hot path.

    ``run`` performs a single measured pass; ``setup`` (optional) runs once,
    untimed, before the first pass — scenarios measuring the steady state
    use it to prime caches and memos so the first repeat is not an outlier.
    """

    name: str
    description: str
    backends: Tuple[str, ...]
    unit: str
    run: Callable[[PhaseRecorder], ScenarioOutcome]
    setup: Optional[Callable[[], None]] = None

    @property
    def scenario_id(self) -> str:
        """Stable identifier: name @ sorted backend list."""
        return f"{self.name}@{'+'.join(self.backends)}"


@dataclass(frozen=True)
class BenchResult:
    """The measured outcome of one scenario."""

    scenario: str
    description: str
    backends: Tuple[str, ...]
    unit: str
    repeats: int
    wall_s: Tuple[float, ...]
    units_per_run: float
    phases: Pairs = ()
    cache: Pairs = ()
    figures: Pairs = ()
    extra: Pairs = ()

    @property
    def best_s(self) -> float:
        return min(self.wall_s)

    @property
    def mean_s(self) -> float:
        return sum(self.wall_s) / len(self.wall_s)

    @property
    def throughput(self) -> float:
        """Work units per second at the best repeat."""
        return self.units_per_run / self.best_s if self.best_s > 0 else float("inf")

    @property
    def cache_hit_rate(self) -> Optional[float]:
        mapping = dict(self.cache)
        return mapping.get("hit_rate")

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "description": self.description,
            "backends": list(self.backends),
            "unit": self.unit,
            "repeats": self.repeats,
            "wall_s": list(self.wall_s),
            "units_per_run": self.units_per_run,
            "best_s": self.best_s,
            "mean_s": self.mean_s,
            "throughput": self.throughput,
            "phases": {name: value for name, value in self.phases},
            "cache": {name: value for name, value in self.cache},
            "figures": {name: value for name, value in self.figures},
            "extra": {name: value for name, value in self.extra},
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "BenchResult":
        return cls(
            scenario=str(data["scenario"]),
            description=str(data["description"]),
            backends=tuple(data["backends"]),  # type: ignore[arg-type]
            unit=str(data["unit"]),
            repeats=int(data["repeats"]),  # type: ignore[arg-type]
            wall_s=tuple(data["wall_s"]),  # type: ignore[arg-type]
            units_per_run=float(data["units_per_run"]),  # type: ignore[arg-type]
            phases=tuple(data.get("phases", {}).items()),  # type: ignore[union-attr]
            cache=tuple(data.get("cache", {}).items()),  # type: ignore[union-attr]
            figures=tuple(data.get("figures", {}).items()),  # type: ignore[union-attr]
            extra=tuple(data.get("extra", {}).items()),  # type: ignore[union-attr]
        )


def run_scenario(scenario: BenchScenario, *, repeats: int = 3) -> BenchResult:
    """Run one scenario ``repeats`` times and fold the passes into a result.

    Analytic figures must be identical on every pass — a scenario whose
    answers drift with repetition is a broken benchmark (or a broken model)
    and raises :class:`BenchDeterminismError`.
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    if scenario.setup is not None:
        scenario.setup()
    walls: List[float] = []
    outcomes: List[ScenarioOutcome] = []
    phase_totals: Dict[str, float] = {}
    for _ in range(repeats):
        recorder = PhaseRecorder()
        start = time.perf_counter()
        outcome = scenario.run(recorder)
        walls.append(time.perf_counter() - start)
        outcomes.append(outcome)
        for name, seconds in recorder.as_pairs():
            phase_totals[name] = phase_totals.get(name, 0.0) + seconds
    first = outcomes[0]
    for outcome in outcomes[1:]:
        if outcome.figures != first.figures:
            raise BenchDeterminismError(
                f"scenario {scenario.scenario_id!r} produced different figures "
                f"across repeats: {first.figures} != {outcome.figures}"
            )
    last = outcomes[-1]
    return BenchResult(
        scenario=scenario.scenario_id,
        description=scenario.description,
        backends=scenario.backends,
        unit=scenario.unit,
        repeats=repeats,
        wall_s=tuple(walls),
        units_per_run=first.units,
        phases=tuple((name, total / repeats) for name, total in phase_totals.items()),
        cache=last.cache,
        figures=first.figures,
        extra=last.extra,
    )


def _environment() -> Tuple[Tuple[str, str], ...]:
    import numpy

    from repro.kernels import active_kernel_set, available_kernel_sets

    return (
        ("python", platform.python_version()),
        ("numpy", numpy.__version__),
        ("platform", platform.platform()),
        # Which kernel set the suite's arithmetic ran on, and which sets the
        # machine could have run — a report claiming a numba A/B is only
        # honest if "numba" appears here.
        ("kernels", active_kernel_set().name),
        ("kernels_available", "+".join(available_kernel_sets())),
    )


@dataclass(frozen=True)
class BenchReport:
    """A full suite run: schema tag, environment, per-scenario results."""

    suite: str
    results: Tuple[BenchResult, ...]
    repeats: int
    schema: str = SCHEMA
    environment: Tuple[Tuple[str, str], ...] = field(default_factory=_environment)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "suite": self.suite,
            "repeats": self.repeats,
            "environment": {name: value for name, value in self.environment},
            "results": [result.to_json_dict() for result in self.results],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "BenchReport":
        schema = str(data.get("schema", ""))
        if schema != SCHEMA:
            raise ValueError(f"unsupported bench schema {schema!r}; expected {SCHEMA!r}")
        return cls(
            suite=str(data["suite"]),
            results=tuple(
                BenchResult.from_json_dict(entry)  # type: ignore[arg-type]
                for entry in data["results"]  # type: ignore[union-attr]
            ),
            repeats=int(data["repeats"]),  # type: ignore[arg-type]
            schema=schema,
            environment=tuple(data.get("environment", {}).items()),  # type: ignore[union-attr]
        )

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "BenchReport":
        return cls.from_json_dict(json.loads(path.read_text(encoding="utf-8")))

    def render(self) -> str:
        """The human-readable suite report."""
        rows = [
            (
                result.scenario,
                result.units_per_run,
                result.unit,
                f"{result.best_s * 1e3:.2f}",
                f"{result.mean_s * 1e3:.2f}",
                f"{result.throughput:,.0f}",
                f"{result.cache_hit_rate:.0%}" if result.cache_hit_rate is not None else "-",
            )
            for result in self.results
        ]
        summary = format_table(
            f"repro-bench suite {self.suite!r} ({self.repeats} repeat(s) per scenario)",
            ["scenario", "units", "unit", "best ms", "mean ms", "units/s", "cache hits"],
            rows,
        )
        sections = [summary]
        speedups = [result for result in self.results if dict(result.extra).get("speedup")]
        if speedups:
            sections.append(
                format_table(
                    "Hot-path optimizations (A/B, memos disabled vs enabled)",
                    ["scenario", "baseline ms", "optimized ms", "speedup"],
                    [
                        (
                            result.scenario,
                            f"{dict(result.extra)['baseline_s'] * 1e3:.2f}",
                            f"{dict(result.extra)['optimized_s'] * 1e3:.2f}",
                            f"{dict(result.extra)['speedup']:.1f}x",
                        )
                        for result in speedups
                    ],
                )
            )
        return "\n\n".join(sections)


class BenchSuite:
    """An ordered, named collection of scenarios."""

    def __init__(self, name: str, scenarios: Sequence[BenchScenario]) -> None:
        ids = [scenario.scenario_id for scenario in scenarios]
        duplicates = {sid for sid in ids if ids.count(sid) > 1}
        if duplicates:
            raise ValueError(f"duplicate scenario ids: {sorted(duplicates)}")
        self.name = name
        self.scenarios: Tuple[BenchScenario, ...] = tuple(scenarios)

    def scenario_ids(self) -> Tuple[str, ...]:
        return tuple(scenario.scenario_id for scenario in self.scenarios)

    def select(self, patterns: Sequence[str]) -> "BenchSuite":
        """A sub-suite of scenarios whose id contains any of ``patterns``."""
        selected = [
            scenario
            for scenario in self.scenarios
            if any(pattern in scenario.scenario_id for pattern in patterns)
        ]
        if not selected:
            raise KeyError(
                f"no scenario matches {list(patterns)}; available: {list(self.scenario_ids())}"
            )
        return BenchSuite(self.name, selected)

    def run(
        self,
        *,
        repeats: int = 3,
        progress: Optional[Callable[[str], None]] = None,
    ) -> BenchReport:
        results: List[BenchResult] = []
        for scenario in self.scenarios:
            if progress is not None:
                progress(scenario.scenario_id)
            results.append(run_scenario(scenario, repeats=repeats))
        return BenchReport(suite=self.name, results=tuple(results), repeats=repeats)


def next_output_path(directory: Path, prefix: str = "BENCH_") -> Path:
    """The first unused ``BENCH_<n>.json`` path in ``directory``."""
    index = 0
    while (directory / f"{prefix}{index}.json").exists():
        index += 1
    return directory / f"{prefix}{index}.json"


def compare_reports(before: BenchReport, after: BenchReport) -> str:
    """Scenario-by-scenario best-time comparison of two reports."""
    before_by_id = {result.scenario: result for result in before.results}
    rows = []
    for result in after.results:
        old = before_by_id.get(result.scenario)
        if old is None:
            continue
        ratio = old.best_s / result.best_s if result.best_s else float("inf")
        rows.append(
            (
                result.scenario,
                f"{old.best_s * 1e3:.2f}",
                f"{result.best_s * 1e3:.2f}",
                f"{ratio:.2f}x",
            )
        )
    return format_table(
        "Bench comparison (before -> after, best wall time)",
        ["scenario", "before ms", "after ms", "speedup"],
        rows,
    )


@dataclass(frozen=True)
class ScenarioRegression:
    """One scenario whose best time regressed between two reports."""

    scenario: str
    before_s: float
    after_s: float

    @property
    def regression_pct(self) -> float:
        """How much slower the scenario got, in percent of the old time.

        A zero-time baseline (a report recorded with a clock too coarse to
        resolve the scenario) cannot express a finite percentage: any
        measurable ``after`` counts as an infinite regression, while an
        equally-unmeasurable ``after`` is no regression at all.
        """
        if self.before_s <= 0:
            return float("inf") if self.after_s > 0 else 0.0
        return (self.after_s / self.before_s - 1.0) * 100.0

    def describe(self) -> str:
        return (
            f"{self.scenario}: {self.before_s * 1e3:.2f} ms -> "
            f"{self.after_s * 1e3:.2f} ms (+{self.regression_pct:.0f}%)"
        )


def find_regressions(
    before: BenchReport, after: BenchReport, threshold_pct: float
) -> List[ScenarioRegression]:
    """Scenarios of ``after`` slower than ``before`` by more than the threshold.

    Only scenario ids present in both reports are considered (the pinned ids
    of ``tests/test_bench.py`` keep those stable across commits); new or
    removed scenarios never count as regressions.
    """
    if threshold_pct < 0:
        raise ValueError("threshold_pct must be non-negative")
    before_by_id = {result.scenario: result for result in before.results}
    regressions: List[ScenarioRegression] = []
    for result in after.results:
        old = before_by_id.get(result.scenario)
        if old is None:
            continue
        candidate = ScenarioRegression(
            scenario=result.scenario, before_s=old.best_s, after_s=result.best_s
        )
        if candidate.regression_pct > threshold_pct:
            regressions.append(candidate)
    return regressions


#: ``--trajectory`` flags a scenario or phase time above this multiple of its
#: best earlier time under the same environment.  Between the committed
#: reports of one 2-core host, scenarios whose code did not change moved by
#: up to 2.6x with the host's speed state, while the memoized-compile
#: regression first recorded in BENCH_4 was 12x.
TRAJECTORY_FACTOR = 3.0

#: Environment fields under which timings are comparable.  Reports older than
#: the kernel registry carry no ``kernels`` field and form their own group.
TRAJECTORY_ENVIRONMENT = ("python", "numpy", "kernels")


@dataclass(frozen=True)
class TrajectoryFlag:
    """A time above :data:`TRAJECTORY_FACTOR` times its best earlier time."""

    report: str
    name: str
    value_s: float
    best_s: float
    best_report: str

    def describe(self) -> str:
        return (
            f"{self.report}: {self.name} {self.value_s * 1e3:.3f} ms is "
            f"{self.value_s / self.best_s:.1f}x its best earlier "
            f"{self.best_s * 1e3:.3f} ms ({self.best_report})"
        )


def _timings(report: BenchReport) -> List[Tuple[str, float]]:
    """Each scenario's best time followed by its phases' (``scenario:phase``)."""
    timings: List[Tuple[str, float]] = []
    for result in report.results:
        timings.append((result.scenario, result.best_s))
        timings.extend((f"{result.scenario}:{name}", value) for name, value in result.phases)
    return timings


def trajectory(reports: Sequence[Tuple[str, BenchReport]]) -> Tuple[str, List[TrajectoryFlag]]:
    """Render labelled reports (oldest first) as time trajectories and flag jumps.

    Reports are grouped by the :data:`TRAJECTORY_ENVIRONMENT` fields; within
    a group every scenario's best time and every phase's recorded time is
    compared with its best value in the group's earlier reports, and a
    value above :data:`TRAJECTORY_FACTOR` times that best is flagged (marked ``!``).
    """
    groups: Dict[Tuple[str, ...], List[Tuple[str, BenchReport]]] = {}
    for label, report in reports:
        environment = dict(report.environment)
        key = tuple(str(environment.get(name, "-")) for name in TRAJECTORY_ENVIRONMENT)
        groups.setdefault(key, []).append((label, report))
    sections: List[str] = []
    flags: List[TrajectoryFlag] = []
    for key, members in groups.items():
        best: Dict[str, Tuple[float, str]] = {}
        cells: Dict[Tuple[str, str], str] = {}
        for label, report in members:
            for name, value in _timings(report):
                earlier = best.get(name)
                mark = ""
                if earlier is not None and earlier[0] > 0 and value > TRAJECTORY_FACTOR * earlier[0]:
                    flags.append(TrajectoryFlag(label, name, value, *earlier))
                    mark = " !"
                cells[(name, label)] = f"{value * 1e3:.3f}{mark}"
                if earlier is None or value < earlier[0]:
                    best[name] = (value, label)
        labels = [label for label, _ in members]
        environment = ", ".join(f"{name} {value}" for name, value in zip(TRAJECTORY_ENVIRONMENT, key))
        sections.append(
            format_table(
                f"Trajectory ({environment}): ms, ! = over {TRAJECTORY_FACTOR:g}x the best earlier",
                ["scenario[:phase]"] + labels,
                [[name] + [cells.get((name, label), "-") for label in labels] for name in best],
            )
        )
    return "\n\n".join(sections), flags
