"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs it once untraced and once with every layer's
public callables timed (see ``layers.py``) and reports the per-layer
metrics.  The last line of standard output is the result object; host
details and sample counts go to standard error.  ``python3
perfbench/report.py`` runs every workload both ways.
"""

from __future__ import annotations

import os

# One thread for the numeric library, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("cold-sweep", "warm-serve", "warm-inproc", "online-control")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and one set-up (smoke test only)")
    return parser.parse_args(argv)


def import_program() -> None:
    """Start a fresh interpreter that imports the program."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, "
            f"{str(Path(__file__).parent)!r}]; import workloads")
    subprocess.run([sys.executable, "-c", code], check=True)


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method), as ``statistics`` gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload, seconds, ops=None, tracer=None):
    """One closed-loop pass: run operations until ``seconds`` have passed
    (or exactly ``ops``).  Returns (wall, outcomes, ops run, host scale);
    the wall leaves out probes and other benchmark bookkeeping."""
    gc.collect()
    clock = workload.clock
    workload.excluded_s = 0.0
    source = workload.operations() if ops is None else iter(ops)
    outcomes, done = [], []
    if not workload.timer_probes:
        clock.stop()
    mark = clock.now()
    for op in source:
        outcomes += workload.run(op, tracer)
        done.append(op)
        if ops is None and clock.since(mark) >= seconds:
            break
    wall = clock.since(mark) - workload.excluded_s
    end = time.perf_counter()
    if not workload.timer_probes:
        clock.start()
    return wall, outcomes, done, clock.scale(mark[0], end)


def end_to_end(outcomes, clock, setup_s):
    """The end-to-end metrics, host times scaled to the nominal host."""
    scaled = [o.latency_s * clock.scale(o.begin, o.end) for o in outcomes]
    busy = sum(scaled)
    latencies_ms = [value * 1e3 for value in scaled]
    return {
        "setup_s": (setup_s, "s"),
        "sim_cycles_per_s": (sum(o.cycles for o in outcomes) / busy, "1/s"),
        "requests_per_s": (len(outcomes) / busy, "1/s"),
        "p50_ms": (statistics.median(latencies_ms), "ms"),
        "p90_ms": (percentile(latencies_ms, 90), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def timed_setup(workload) -> float:
    """One set-up: a fresh interpreter's imports plus the workload's own
    set-up (store pre-fill, server start), scaled to the nominal host."""
    clock = workload.clock
    mark = clock.now()
    import_program()
    workload.setup()
    raw = clock.since(mark)
    return raw * clock.scale(mark[0], time.perf_counter())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    # One CPU for everything the run starts: the client, the serve tier's
    # thread, the import subprocess and the host-clock probes.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    sys.path.insert(0, str(SRC))
    import numpy

    import workloads
    from layers import LayerTracer
    from repro.noc.kernel import DEFAULT_KERNEL

    work = WORK / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](work, args.seed,
                                                  smoke=args.smoke)
    checked = []
    workload.clock.start()
    try:
        repeats = 1 if args.trace or args.smoke else SETUP_REPEATS
        setups = [timed_setup(workload) for _ in range(repeats)]
        _, outcomes, _, _ = measure(workload, 0,
                                    workload.warmup_operations())
        checked += outcomes
        wall, outcomes, ops, scale = measure(workload, args.seconds)
        checked += outcomes
        if args.trace:
            tracer = LayerTracer(workload.clock)
            tracer.install()
            try:
                traced_wall, traced, _, traced_scale = measure(
                    workload, 0, ops, tracer)
            finally:
                tracer.restore()
            checked += traced
            workload.finish_trace(tracer)
            metrics = tracer.metrics(traced_wall)
            metrics["trace_overhead_ratio"] = (
                traced_wall * traced_scale / (wall * scale), "ratio")
        else:
            metrics = end_to_end(outcomes, workload.clock,
                                 statistics.median(setups))
    finally:
        workload.clock.stop()
        workload.teardown()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass        # another run's directory is still there

    failed = sum(not o.ok for o in checked)
    latencies_ms = [o.latency_s * 1e3 for o in outcomes]
    print(json.dumps({
        "host": {
            "nproc": os.cpu_count(),
            "cpu": max(cpus),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernel": DEFAULT_KERNEL,
        },
        "workload": args.workload,
        "seed": args.seed,
        "samples": len(outcomes),
        "setups_s": setups,
        "unscaled": {
            "wall_s": wall,
            "requests_per_s": len(outcomes) / wall,
            "p50_ms": statistics.median(latencies_ms),
            "p90_ms": percentile(latencies_ms, 90),
        },
        "host_scale": scale,
    }), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
