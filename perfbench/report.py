"""Run every workload, print every metric with its unit, check the results.

Usage (from the repository root)::

    python3 perfbench/report.py                 # each workload untraced + traced
    python3 perfbench/report.py --smoke         # smoke test: small inputs, 1 s runs
    python3 perfbench/report.py --seeds 10 --no-trace --workloads warm-serve

Each run is ``perfbench/run.py`` in its own process.  The report fails
(exit 1) if a run fails its correctness checks, exits non-zero, or leaves
out a metric ``BENCHMARK.json`` names or gives it another unit, or if a
traced run on a workload in ``ACCOUNTED`` leaves more than 10% of its wall
outside every timed layer call.  With ``--seeds N`` every untraced metric
is shown as the median over N seeds with its spread: the distance between
the first and third quartiles as a share of the median.  A spread over
the metric's bound fails the report, ``setup_s`` included.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).with_name("run.py")
#: Workloads whose traced wall must be nearly all inside timed layer calls:
#: ``other_s`` may be at most this share of it.
ACCOUNTED = ("cold-sweep", "warm-inproc", "online-control")
OTHER_SHARE_LIMIT = 0.10


def run_once(workload, seed, seconds, trace, smoke):
    """One ``run.py`` process; returns (result, run details, error)."""
    command = [sys.executable, str(RUN), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    details = proc.stderr.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        info = json.loads(details[-1])
    except (IndexError, json.JSONDecodeError):
        return None, None, f"exit {proc.returncode}: {proc.stderr[-2000:]}"
    if proc.returncode != 0 or not result["correct"]:
        return result, info, (f"exit {proc.returncode}, "
                              f"{result['failed']}/{result['attempted']} "
                              f"operations failed")
    return result, info, None


def check_names(result, specs) -> list[str]:
    """Problems with a result's metric names and units."""
    metrics = result["metrics"]
    problems = [f"missing {s['name']}" for s in specs
                if s["name"] not in metrics]
    problems += [f"{s['name']} unit {metrics[s['name']]['unit']!r} "
                 f"!= {s['unit']!r}" for s in specs
                 if s["name"] in metrics
                 and metrics[s["name"]]["unit"] != s["unit"]]
    extra = set(metrics) - {s["name"] for s in specs}
    problems += [f"unexpected {name}" for name in sorted(extra)]
    return problems


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--seeds", type=int, default=1,
                        help="untraced runs per workload, seeds 1..N")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and 1 s runs")
    args = parser.parse_args(argv)
    seconds = 1 if args.smoke else bench["run_seconds"]

    problems = []
    host_shown = False
    for workload in args.workloads:
        print(f"== {workload}")
        runs = []
        for seed in range(1, args.seeds + 1):
            result, info, error = run_once(workload, seed, seconds, 0,
                                           args.smoke)
            if error:
                problems.append(f"{workload} seed {seed}: {error}")
                continue
            if not host_shown:
                print(f"host {json.dumps(info['host'])}")
                host_shown = True
            print(f"   seed {seed}: {info['samples']} samples, "
                  f"{result['attempted']} checked operations, all correct")
            problems += [f"{workload}: {p}"
                         for p in check_names(result, bench["end_to_end"])]
            runs.append(result["metrics"])
        for spec in bench["end_to_end"]:
            values = [run[spec["name"]]["value"] for run in runs
                      if spec["name"] in run]
            if not values:
                continue
            line = (f"   {spec['name']:<36} {statistics.median(values):>14.6g}"
                    f" {spec['unit']}")
            if len(values) >= 2:
                width = spread(values)
                line += f"   spread {width:.3f} (bound {spec['bound']})"
                if width > spec["bound"]:
                    problems.append(f"{workload}: {spec['name']} spread "
                                    f"{width:.3f} > bound {spec['bound']}")
            print(line)
        if args.no_trace:
            continue
        result, info, error = run_once(workload, 1, seconds, 1, args.smoke)
        if error:
            problems.append(f"{workload} traced: {error}")
            continue
        problems += [f"{workload} traced: {p}"
                     for p in check_names(result, bench["per_layer"])]
        print(f"   traced, seed 1: {info['samples']} samples")
        for name, metric in result["metrics"].items():
            print(f"   {name:<36} {metric['value']:>14.6g} {metric['unit']}")
        metrics = result["metrics"]
        if "other_s" not in metrics or "trace.wall_s" not in metrics:
            continue    # reported as missing above
        share = metrics["other_s"]["value"] / metrics["trace.wall_s"]["value"]
        print(f"   other_s share of traced wall: {share:.3f}")
        if workload in ACCOUNTED and share > OTHER_SHARE_LIMIT:
            problems.append(f"{workload} traced: other_s is {share:.3f} of "
                            f"the traced wall > {OTHER_SHARE_LIMIT}")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
