"""The ``repro-bench`` command: run the suite, print the table, write JSON.

By default every scenario of the default suite runs three times and the
report is written to the first unused ``BENCH_<n>.json`` in the working
directory (so successive runs build a perf trajectory: ``BENCH_0.json``,
``BENCH_1.json``, ...).  ``--scenario`` substring-filters the suite,
``--compare OLD`` diffs a fresh run against a previous report while
``--compare OLD NEW`` diffs two recorded reports without running anything,
``--fail-over PCT`` turns the comparison into a regression gate (non-zero
exit when any pinned scenario got more than PCT percent slower), and
``--list`` shows what would run.  ``--trajectory BENCH_*.json`` prints
every scenario's and phase's time across recorded reports, grouped by
environment, and fails when the newest report holds a time above
:data:`~repro.bench.harness.TRAJECTORY_FACTOR` times its best earlier
value (the 400% gate compares with one report only).  See
``docs/performance.md`` for the reading guide.

The ``soak_chaos`` scenario is the non-blocking full-soak tier: it runs
the :mod:`repro.soak` harness across worker counts (with mid-run chaos)
inside the suite; for standalone or larger soaks use the dedicated
``repro-soak`` command, whose report is a ``repro-soak/1`` JSON document
rather than a bench figure set.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path
from typing import Optional, Sequence, Tuple

from repro.bench.harness import (
    BenchReport,
    compare_reports,
    find_regressions,
    next_output_path,
    trajectory,
)
from repro.bench.scenarios import default_suite, suite_backends


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark the serving hot paths and record BENCH_<n>.json.",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="measured passes per scenario (default: 3)",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="SUBSTRING",
        help="only run scenarios whose id contains SUBSTRING (repeatable)",
    )
    parser.add_argument(
        "--output",
        default="auto",
        help="JSON report path; 'auto' picks the next free BENCH_<n>.json, "
        "'-' disables the JSON output (default: auto)",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        nargs="+",
        default=None,
        metavar="BENCH_JSON",
        help="one path: best-time comparison of a fresh run against that "
        "report; two paths (OLD NEW): compare the two recorded reports "
        "without running anything",
    )
    parser.add_argument(
        "--fail-over",
        type=float,
        default=None,
        metavar="PCT",
        help="with --compare: exit non-zero when any scenario present in "
        "both reports regressed by more than PCT percent (best wall time)",
    )
    parser.add_argument(
        "--trajectory",
        type=Path,
        nargs="+",
        default=None,
        metavar="BENCH_JSON",
        help="print each scenario's and phase's time across these reports "
        "(ordered by the <n> of BENCH_<n>.json) and exit non-zero when the "
        "newest is over the trajectory factor times its best earlier value",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the suite's scenario ids and exit",
    )
    return parser


def _check_regressions(
    before: BenchReport, after: BenchReport, threshold_pct: Optional[float]
) -> int:
    """Print the comparison (and the regression verdict); return exit code."""
    print(compare_reports(before, after))
    if threshold_pct is None:
        return 0
    regressions = find_regressions(before, after, threshold_pct)
    if regressions:
        print(f"\nregressions over the {threshold_pct:g}% threshold:")
        for regression in regressions:
            print(f"  {regression.describe()}")
        return 1
    print(f"\nno scenario regressed more than {threshold_pct:g}%")
    return 0


def _report_order(path: Path) -> Tuple[float, str]:
    """Sort key: the ``<n>`` of ``BENCH_<n>.json``, other names after."""
    match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    return (int(match.group(1)) if match else float("inf"), path.name)


def _check_trajectory(paths: Sequence[Path]) -> int:
    """Print the trajectory of ``paths``; return 1 when the newest is flagged."""
    ordered = sorted(paths, key=_report_order)
    text, flags = trajectory([(path.name, BenchReport.load(path)) for path in ordered])
    print(text)
    newest = [flag for flag in flags if flag.report == ordered[-1].name]
    if flags:
        print("\nflagged:")
        for flag in flags:
            print(f"  {flag.describe()}")
    if newest:
        print(f"\n{ordered[-1].name}, the newest report, is flagged")
        return 1
    print(f"\n{ordered[-1].name}, the newest report, is not flagged")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.compare is not None and len(args.compare) > 2:
        parser.error("--compare takes one or two report paths")
    if args.fail_over is not None and args.compare is None:
        parser.error("--fail-over needs --compare")
    if args.fail_over is not None and args.fail_over < 0:
        parser.error("--fail-over must be non-negative")

    if args.trajectory is not None:
        if args.compare is not None or args.scenario or args.list or args.output != "auto":
            parser.error("--trajectory reads recorded reports only; it takes no other option")
        return _check_trajectory(args.trajectory)

    if args.compare is not None and len(args.compare) == 2:
        # Pure report-to-report mode: nothing runs, nothing is written, so
        # run-only flags would be silently ignored — reject them instead.
        if args.scenario or args.list or args.repeats != 3 or args.output != "auto":
            parser.error(
                "--compare OLD NEW compares two recorded reports without "
                "running; --scenario/--repeats/--output/--list do not apply"
            )
        before = BenchReport.load(args.compare[0])
        after = BenchReport.load(args.compare[1])
        return _check_regressions(before, after, args.fail_over)

    suite = default_suite()
    if args.scenario:
        try:
            suite = suite.select(args.scenario)
        except KeyError as exc:
            parser.error(str(exc.args[0]))
    if args.list:
        for scenario in suite.scenarios:
            print(f"{scenario.scenario_id:50s} {scenario.description}")
        return 0

    print(
        f"running {len(suite.scenarios)} scenario(s) across backends "
        f"{', '.join(suite_backends(suite))} ({args.repeats} repeat(s) each)"
    )
    report = suite.run(repeats=args.repeats, progress=lambda sid: print(f"  ... {sid}"))
    print()
    print(report.render())

    exit_code = 0
    if args.compare is not None:
        previous = BenchReport.load(args.compare[0])
        print()
        exit_code = _check_regressions(previous, report, args.fail_over)

    if args.output != "-":
        path = (
            next_output_path(Path.cwd())
            if args.output == "auto"
            else Path(args.output)
        )
        report.save(path)
        print(f"\nwrote {path}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
