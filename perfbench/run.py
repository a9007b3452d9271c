"""End-to-end and per-layer benchmark of the eCNN serving stack.

    python3 perfbench/run.py --workload stills --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists): ``stills``,
``cameras``, ``sweep`` and the diagnostic ``batch``.  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end figures with ``--trace 0``, the per-layer
figures of a traced run with ``--trace 1``.  Inputs are a pure function of
``--seed``; the program is run as shipped (default arguments, no thread
variables set).  ``HELD_OUT_SEED`` is reserved: tune nothing on it, use it to
confirm claims.

With ``--trace 0`` the timed window is split over ``PARTS`` fresh processes
run one after another, each setting up its own tier, so that one process's
placement (memory layout, which core, a busy sibling thread) weighs a fifth
of the figures and every run yields ``PARTS`` set-up samples.  Every run also checks outputs outside the timed window,
replays a fixed op sequence twice on fresh tiers and fails if any exact
count differs, and writes its environment, counts and (traced) spans under
``perfbench/out/``.
"""

import time

#: Process start, as seen by the benchmark: set-up time is measured from here.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Seed reserved for confirming a claimed gain; never tune on it.
HELD_OUT_SEED = 9001
#: Fresh processes that share an untraced run's timed window.
PARTS = 5
#: Seconds after process start by which every measuring process must be done.
PARTS_DEADLINE_S = 150
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _parse(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog=f"Held-out seed for confirming claims: {HELD_OUT_SEED}.",
    )
    parser.add_argument("--workload", required=True, choices=("stills", "batch", "cameras", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--part", type=int, default=None,
        help="measure one process's share of an untraced run and print it as JSON",
    )
    return parser.parse_args(argv)


# ----------------------------------------------------------------- timing
def _traced_round(index):
    """Traced runs alternate rounds of four ops traced and untraced, so both
    kinds see the same stretch of machine time and the same op mix."""
    return (index // 4) % 2 == 0


def timed_ops(workload, seconds, kept, tracer=None):
    """Closed loop: serve ops from ``workload.first_op`` for ``seconds``.

    Returns ``(latencies_s, traced_latencies_s, failed)``; the second list
    is empty without a tracer.  Each op's input is made inside its latency.
    """
    plain, traced = [], []
    failed = 0
    index = workload.first_op
    deadline = time.perf_counter() + seconds
    while not (plain or traced) or time.perf_counter() < deadline:
        on = tracer is not None and _traced_round(index)
        if tracer is not None:
            tracer.enabled, tracer.request = on, index
        start = time.perf_counter()
        try:
            with tracer.span("op") if on else contextlib.nullcontext():
                output = workload.run(index)
        except Exception as exc:  # a failed op is counted, not fatal
            failed += 1
            print(f"op {index} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            if workload.keep():
                kept.append((index, output))
        (traced if on else plain).append(time.perf_counter() - start)
        index += 1
    if tracer is not None:
        tracer.enabled = False
    return plain, traced, failed


def _peak_rss_mb():
    """Peak RSS of this process plus that of its largest live worker."""
    import multiprocessing

    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        worker_kb = max(worker_kb, int(line.split()[1]))
        except OSError:
            pass
    return (own_kb + worker_kb) / 1024.0


def environment():
    import multiprocessing

    import numpy as np

    from repro.kernels import active_kernel_set

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        blas = "unknown"
    workers = multiprocessing.active_children()
    start_method = sorted(
        {type(child).__name__.replace("Process", "").lower() for child in workers}
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "kernels": active_kernel_set().name,
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "worker_start_method": start_method[0] if start_method else "none (in process)",
        "workers": len(workers),
    }


def measure(workload_name, seed, seconds, *, part=0, tracer=None):
    """Set up a tier in this process, serve the timed window, check outputs.

    ``tracer`` is installed only after set-up, once any worker processes
    exist, so forked workers run the program untouched.
    """
    from workloads import make

    workload = make(workload_name, seed, part=part)
    workload.setup()
    setup_s = time.perf_counter() - _T0
    if tracer is not None:
        from tracing import instrument

        instrument(tracer)
    kept = []
    try:
        latencies, traced, failed = timed_ops(workload, seconds, kept, tracer)
        window = {
            "setup_s": setup_s,
            "latencies": latencies,
            "traced": traced,
            "failed": failed,
            "peak_rss_mb": _peak_rss_mb(),
            "environment": environment(),
            "shard_frames": workload.served_frames() if workload.uses_cluster else [],
            "requeued": (
                workload.counts()["cluster.requeued"] if workload.uses_cluster else 0
            ),
        }
        window["mismatched"] = workload.check(kept)
        window["checked"] = len(kept)
    finally:
        workload.close()
    return workload, window


def measure_parts(workload_name, seed, seconds):
    """``PARTS`` fresh processes, one after another, each measuring its share.

    Each runs in its own process group, so a part that overruns the run's
    deadline is killed together with any cluster workers it forked.
    """
    parts = []
    for part in range(PARTS):
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", workload_name,
            "--seed", str(seed), "--seconds", repr(seconds / PARTS), "--part", str(part),
        ]
        with subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=ROOT, start_new_session=True,
        ) as process:
            try:
                stdout, stderr = process.communicate(
                    timeout=max(1.0, _T0 + PARTS_DEADLINE_S - time.perf_counter())
                )
            except subprocess.TimeoutExpired:
                os.killpg(process.pid, signal.SIGKILL)
                process.communicate()
                raise
        if process.returncode != 0:
            raise RuntimeError(f"measuring process {part} failed: {stderr.strip()[-800:]}")
        parts.append(json.loads(stdout.strip().splitlines()[-1]))
    return parts


# -------------------------------------------------------------- replay
def replay(workload_name, seed, tracer=None):
    """Fresh inline tier, cold process caches: set up, then serve ``replay_ops`` ops.

    Returns ``(counts after set-up, counts after the ops)``; both are exact
    and must repeat for the same seed.
    """
    from repro import hotpath
    from repro.runtime.cache import DEFAULT_CACHE
    from workloads import make

    hotpath.clear_all()
    DEFAULT_CACHE.clear()
    DEFAULT_CACHE.reset_stats()
    workload = make(workload_name, seed, inline=True)
    if tracer is not None:
        tracer.enabled, tracer.request = True, -1
    try:
        workload.setup()
        base = workload.counts()
        for index in range(workload.first_op, workload.first_op + workload.replay_ops):
            if tracer is not None:
                tracer.request = index
            with tracer.span("op") if tracer is not None else contextlib.nullcontext():
                workload.run(index)
        end = workload.counts()
    finally:
        if tracer is not None:
            tracer.enabled = False
        workload.close()
    return base, end


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def windows(parts, window_ops):
    """Each part's latencies cut into runs of about ``window_ops`` consecutive ops.

    A part shorter than one window is one window; the ops left over at the
    end of a part are spread over its windows rather than dropped.
    """
    import numpy as np

    cut = []
    for latencies in parts:
        if latencies:
            count = max(1, len(latencies) // window_ops)
            cut.extend(list(chunk) for chunk in np.array_split(latencies, count))
    return cut


def _rate(latencies):
    return len(latencies) / sum(latencies)


def _overhead_pct(plain, traced):
    """Mean latency of traced ops over untraced ones, minus 1, in percent."""
    return (_rate(plain) / _rate(traced) - 1.0) * 100.0 if plain and traced else 0.0


# ---------------------------------------------------------------- main
def main(argv=None):
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"cannot find the repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.part is not None:
        _, window = measure(args.workload, args.seed, args.seconds, part=args.part)
        print(json.dumps(window))
        return 0

    result = {"workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED}
    if args.trace:
        from tracing import Tracer, dump

        tracer = Tracer()
        workload, window = measure(args.workload, args.seed, args.seconds, tracer=tracer)
        window_spans, tracer.spans = tracer.spans, []
        parts = [window]
    else:
        tracer = None
        parts = measure_parts(args.workload, args.seed, args.seconds)
        result["parts"] = [
            {key: part[key] for key in ("setup_s", "peak_rss_mb", "failed", "mismatched", "checked")}
            for part in parts
        ]
    env = parts[0]["environment"]
    result["environment"] = env

    counts = [replay(args.workload, args.seed, tracer), replay(args.workload, args.seed)]
    repeat_ok = counts[0] == counts[1]
    latencies = [value for part in parts for value in part["latencies"] + part["traced"]]
    attempted = len(latencies)
    checked = sum(part["checked"] for part in parts)
    failed = sum(part["failed"] + part["mismatched"] for part in parts)
    correct = failed == 0 and repeat_ok
    base, end = counts[0]
    result.update(
        {
            "attempted": attempted,
            "failed": failed,
            "checked": checked,
            "counts_repeat": repeat_ok,
            "counts": {"after_setup": base, "after_replay": end},
        }
    )
    if not repeat_ok:
        print(f"exact counts changed between replays: {counts}", file=sys.stderr)

    if args.trace:
        from layers import per_layer_metrics

        metrics = per_layer_metrics(
            workload,
            window_spans=window_spans,
            replay_spans=tracer.spans,
            ops_delta={key: end[key] - base.get(key, 0) for key in end},
            shard_frames=window["shard_frames"],
            requeued=window["requeued"],
            trace_overhead_pct=_overhead_pct(window["latencies"], window["traced"]),
            untraced_p90_ms=_percentile(window["latencies"], 90) * 1e3,
        )
        result["spans"] = {"window": dump(window_spans), "replay": dump(tracer.spans)}
    else:
        from workloads import WORKLOADS

        cut = windows([part["latencies"] for part in parts], WORKLOADS[args.workload].window_ops)
        metrics = {
            "setup_s": (statistics.median(part["setup_s"] for part in parts), "s"),
            "ops_per_s": (_rate(latencies), "1/s"),
            "latency_p50_ms": (statistics.median(_percentile(w, 50) for w in cut) * 1e3, "ms"),
            "peak_rss_mb": (statistics.median(part["peak_rss_mb"] for part in parts), "MB"),
        }
        # Printed, not a metric: on ``stills`` the tail is set by other
        # load on the host (see README), so it carries no bound.
        result["latency_p90_ms"] = _percentile(latencies, 90) * 1e3
        result["latencies_ms"] = [round(value * 1e3, 4) for value in latencies]
        result["part_latencies_ms"] = [
            [round(value * 1e3, 4) for value in part["latencies"]] for part in parts
        ]
    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(
        f"ops attempted {attempted}  failed {failed}  "
        f"error_rate {failed / attempted:.4f} (ratio)  "
        f"outputs checked {checked}  exact counts repeat {repeat_ok}"
    )
    if not args.trace:
        print(f"latency samples {attempted}  processes {len(parts)}  windows {len(cut)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"  (unbounded) latency_p90_ms = {result['latency_p90_ms']:.6g} ms")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(result, handle, default=str)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
