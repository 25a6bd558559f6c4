"""B0 — simulator performance baseline (pytest-benchmark proper).

Unlike the figure benches (one-shot table generators), this one uses
pytest-benchmark's repeated timing to track the engine's simulation rate:
cycles per second on the full 10x10 mesh under moderate uniform load.  A
regression here makes every experiment slower, so it is worth a number.

Since the kernel split (``repro.noc.kernel``) the bench times every
registered kernel on the identical window: the default kernel
(``batch``) under pytest-benchmark (``engine`` — the number
``campaign/trend.py`` tracks), plus best-of-N manual timings of the
``reference`` and ``batch`` kernels (what ``bench_smoke.py`` guards) so
the recorded speedups are measured, not asserted from folklore.  Gates
are honest: the default kernel must hold at least 1.5x the pre-refactor
committed baseline, and the struct-of-arrays batch kernel must hold at
least 1.5x the reference kernel measured in the same process (it lands
around 2.1x on typical hardware — the gate leaves room for box noise).

Besides the human-readable assertions, the bench writes a
machine-readable ``results/BENCH_b0.json`` — per-kernel cycles/sec, the
measured speedups, the batch kernel's per-stage wall-clock profile, and
the result store's hit/miss behavior on a one-cell sweep — so the
performance trajectory can be tracked across commits.
"""

import time
from pathlib import Path

from repro.exec import ResultStore, run_sweep, sweep_grid
from repro.experiments import ExperimentConfig
from repro.experiments.export import save_json
from repro.noc.kernel import DEFAULT_KERNEL
from repro.noc.simulator import Simulator
from repro.obs import StageProfile
from repro.params import SimulationParams
from repro.traffic import ProbabilisticTraffic

RESULTS_DIR = Path(__file__).parent / "results"

SIM = SimulationParams(warmup_cycles=0, measure_cycles=400, drain_cycles=0)

#: ``engine.cycles_per_sec`` committed in BENCH_b0.json before the kernel
#: extraction (the monolithic Network cycle loop, same machine class).
#: The default kernel must beat it by at least this factor.
PRE_REFACTOR_CPS = 2270.7
REQUIRED_SPEEDUP = 1.5

#: The batch kernel must beat the reference kernel, timed in the same
#: process, by at least this factor (measured ~2.2x; gate absorbs noise).
REQUIRED_BATCH_VS_REFERENCE = 1.5

#: Short windows for the store-behavior probe (a one-cell sweep, run twice).
SWEEP_CONFIG = ExperimentConfig(
    sim=SimulationParams(warmup_cycles=100, measure_cycles=400,
                         drain_cycles=2_000),
    profile_cycles=2_000,
)


def _run_window(runner, design, kernel=None, stage_profile=None):
    """One B0 window (static 16 B design, uniform 0.02, seed 1)."""
    network = design.new_network(kernel=kernel)
    source = ProbabilisticTraffic(
        runner.topology, runner.patterns["uniform"], 0.02, seed=1
    )
    Simulator(network, [source], SIM, stage_profile=stage_profile).run()
    return network.cycle


def _best_of(n, runner, design, kernel):
    """Best-of-``n`` manual wall time of one window; (cycles, best_s)."""
    best = float("inf")
    cycles = 0
    for _ in range(n):
        start = time.perf_counter()
        cycles = _run_window(runner, design, kernel=kernel)
        best = min(best, time.perf_counter() - start)
    return cycles, best


def test_b0_engine_throughput(benchmark, runner):
    design = runner.design("static", 16)

    cycles = benchmark(lambda: _run_window(runner, design))
    assert cycles == 400
    # Sanity floor: the engine must stay above ~200 sim-cycles/second even
    # on slow machines (it runs ~1000+ on typical hardware).
    assert benchmark.stats["mean"] < 2.0
    mean = benchmark.stats["mean"]
    default_cps = cycles / mean

    # Reference and batch kernels on the identical window, best-of-3
    # manual timing (pytest-benchmark owns only one timer per test).
    ref_cycles, ref_best = _best_of(3, runner, design, "reference")
    assert ref_cycles == 400
    ref_cps = ref_cycles / ref_best

    batch_cycles, batch_best = _best_of(3, runner, design, "batch")
    assert batch_cycles == 400
    batch_cps = batch_cycles / batch_best

    speedup_vs_committed = default_cps / PRE_REFACTOR_CPS
    batch_vs_ref = batch_cps / ref_cps

    # Where the batch kernel's cycle time goes (one profiled window;
    # timed stepping costs ~15-20%, so this run is not the rate record).
    profile = StageProfile()
    _run_window(runner, design, kernel="batch", stage_profile=profile)
    assert profile.cycles == 400

    # Machine-readable perf record: engine rate plus store behavior on a
    # one-cell sweep (second pass must be able to hit the cache).
    store = ResultStore(RESULTS_DIR / "cache")
    specs = sweep_grid(["baseline"], [16], ["uniform"])
    first = run_sweep(specs, config=SWEEP_CONFIG, store=store)
    second = run_sweep(specs, config=SWEEP_CONFIG, store=store)
    assert second.hits == 1 and second.misses == 0

    save_json(
        {
            "bench": "B0",
            "engine": {
                "kernel": DEFAULT_KERNEL,
                "sim_cycles": cycles,
                "wall_s_mean": mean,
                "cycles_per_sec": default_cps,
            },
            "engine_reference": {
                "kernel": "reference",
                "sim_cycles": ref_cycles,
                "wall_s_best": ref_best,
                "cycles_per_sec": ref_cps,
            },
            "engine_batch": {
                "kernel": "batch",
                "sim_cycles": batch_cycles,
                "wall_s_best": batch_best,
                "cycles_per_sec": batch_cps,
                "stage_profile": profile.as_dict(),
            },
            "speedup": {
                "default_vs_reference": default_cps / ref_cps,
                "default_vs_pre_refactor": speedup_vs_committed,
                "batch_vs_reference": batch_vs_ref,
                "pre_refactor_cycles_per_sec": PRE_REFACTOR_CPS,
            },
            "sweep": {
                "first": first.summary(),
                "warm": second.summary(),
                "store": store.stats.as_dict(),
            },
        },
        RESULTS_DIR / "BENCH_b0.json",
    )
    assert (RESULTS_DIR / "BENCH_b0.json").exists()

    # Gates last, so the honest measurement record survives a trip: the
    # absolute default-kernel gate (vs the committed pre-refactor rate) and
    # the relative batch gate (vs the reference timed in this process —
    # immune to machine-class drift).
    assert speedup_vs_committed >= REQUIRED_SPEEDUP, (
        f"{DEFAULT_KERNEL} kernel at {default_cps:,.0f} c/s is only "
        f"{speedup_vs_committed:.2f}x the pre-refactor baseline "
        f"({PRE_REFACTOR_CPS:,.0f} c/s); need {REQUIRED_SPEEDUP}x"
    )
    assert batch_vs_ref >= REQUIRED_BATCH_VS_REFERENCE, (
        f"batch kernel at {batch_cps:,.0f} c/s is only "
        f"{batch_vs_ref:.2f}x the reference kernel "
        f"({ref_cps:,.0f} c/s); need {REQUIRED_BATCH_VS_REFERENCE}x"
    )
