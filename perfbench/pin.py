"""Regenerate ``golden.json``: the pinned digests the benchmark checks.

Usage (from the repository root)::

    python3 perfbench/pin.py

Runs every cold-sweep cell, every warm working-set cell and every
closed-loop cell for every traffic seed in ``workloads.SEED_POOL`` and
records the results' stats digests (and the closed loop's journal digest).  The
simulator's statistics are meant to stay bit-identical, so this is rerun
only when a change alters simulated behaviour on purpose; it refuses to
write a file whose default-seed journal digest differs from the one the
control-plane benchmark recorded (``benchmarks/results/BENCH_control.json``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402
from repro.control import run_closed_loop  # noqa: E402
from repro.exec import run_sweep  # noqa: E402
from repro.experiments import ExperimentRunner  # noqa: E402
from repro.serve.protocol import parse_simulate  # noqa: E402

import workloads as w  # noqa: E402

#: ``epoch_overhead.journal_digest`` in ``BENCH_control.json``.
RECORDED_JOURNAL = (
    "8f662400bad6a8a30293bab7d07f5b33c9ff6920869181e66e21061712a0258d")


def main() -> int:
    cold = {}
    for seed in w.SEED_POOL:
        report = repro.sweep(w.COLD_STYLES, (16,), w.COLD_WORKLOADS, jobs=1,
                             seeds=(seed,), config=w.LONG_CONFIG)
        for outcome in report.outcomes:
            key = w.cell_key(outcome.spec.style, outcome.spec.workload, seed)
            cold[key] = outcome.result.stats.digest()
    cells = [dict(cell, seed=seed) for seed in w.SEED_POOL
             for cell in w.WORKING_SET]
    report = run_sweep([parse_simulate(cell) for cell in cells],
                       config=w.WARM_CONFIG, jobs=1)
    warm = {w.warm_key(cell): outcome.result.stats.digest()
            for cell, outcome in zip(cells, report.outcomes)}
    online = {}
    for seed in w.SEED_POOL:
        run = run_closed_loop(ExperimentRunner(w.LONG_CONFIG),
                              w.LOOP_WORKLOAD, control=w.LOOP_CONTROL,
                              seed=seed)
        online[str(seed)] = [run.journal_digest, run.result.stats.digest()]
    default = online[str(w.LONG_CONFIG.traffic_seed)]
    if default[0] != RECORDED_JOURNAL:
        print(f"default-seed journal {default[0]} != recorded "
              f"{RECORDED_JOURNAL}", file=sys.stderr)
        return 1
    w.GOLDEN_PATH.write_text(json.dumps(
        {"cold-sweep": cold, "online-control": online, "warm": warm},
        indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(cold)} cold cells, {len(warm)} warm cells and "
          f"{len(online)} closed-loop cells into {w.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
