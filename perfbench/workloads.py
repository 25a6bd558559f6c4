"""The four benchmark workloads.

Every workload is closed loop with one client: the next operation starts
when the previous one has returned.  Inputs come only from the benchmark
seed; each operation's output is checked, and a wrong or missing answer is
a failed operation.

* ``cold-sweep``     one in-process ``repro.sweep(..., jobs=1)`` per
  operation, on a fresh runner and an empty store: design build, kernel,
  store write for 16 cells.  Each cell's ``NetworkStats.digest()`` is
  pinned in ``golden.json``.
* ``warm-serve``     ``POST /v1/simulate`` over one keep-alive connection
  to an in-process server whose store was filled during set-up; every
  answer must come from the store and match the cold result, whose stats
  digest is pinned in ``golden.json``.
* ``warm-inproc``    the same working set and pre-filled store through
  ``repro.simulate(..., metrics=False, store=...)``.
* ``online-control`` closed-loop cells through
  ``repro.control.run_closed_loop``, each on a fresh runner; the decision
  journal digest and the stats digest are pinned in ``golden.json``.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import random
import signal
import statistics
import time
from itertools import cycle
from pathlib import Path
from typing import Iterator, Optional

import repro
import repro.exec.serialize
import repro.serve.protocol
from repro.control import run_closed_loop
from repro.exec import ResultStore, run_sweep
from repro.experiments import FAST_CONFIG, ExperimentRunner
from repro.params import DEFAULT_PARAMS, SimulationParams
from repro.serve import ServeClient, ServerThread, SimulationService

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: Windows for the cold and closed-loop cells: long enough that the
#: kernel, not the design build, does most of a cold cell's work.  These
#: are the control-plane benchmark's loop windows, so the default-seed
#: journal digest matches ``BENCH_control.json``.
LONG_CONFIG = dataclasses.replace(
    FAST_CONFIG,
    sim=SimulationParams(warmup_cycles=200, measure_cycles=2_400,
                         drain_cycles=6_000),
)

#: The warm workloads' cells use the serve tier's ``fast`` windows.
WARM_CONFIG = FAST_CONFIG

COLD_STYLES = ("baseline", "static", "wire", "adaptive")
COLD_WORKLOADS = ("uniform", "1Hotspot", "uniDF", "hotBiDF")

#: Traffic seeds the pinned cells were run with; a benchmark seed picks
#: their order.  5 is the configs' default traffic seed.
SEED_POOL = (5, 17, 29, 41, 53, 67, 79, 97)

LOOP_WORKLOAD = "phased:hotBiDF+uniDF@1000"
LOOP_CONTROL = "epoch=600,min=20"

#: The warm working set, as ``POST /v1/simulate`` bodies; the benchmark
#: seed gives each a traffic ``seed`` from ``SEED_POOL``, and the stats
#: digest of every such cell is pinned in ``golden.json``.  Adaptive,
#: faulted and non-mesh cells sit beside six plain mesh cells.  The plain
#: cells cost nearly the same on every path, so the median falls inside
#: their cluster; an odd number of cells, timed in whole passes, keeps it
#: there.
WORKING_SET = (
    {"design": "baseline", "workload": "uniform"},
    {"design": "static", "workload": "1Hotspot"},
    {"design": "wire", "workload": "uniDF"},
    {"design": "static", "workload": "hotBiDF"},
    {"design": "baseline", "workload": "uniDF"},
    {"design": "wire", "workload": "1Hotspot"},
    {"design": "adaptive", "workload": "hotBiDF"},
    {"design": "adaptive", "workload": "1Hotspot", "adaptive_routing": True},
    {"design": "static", "workload": "uniform", "faults": "band:3"},
    {"design": "baseline", "workload": "hotBiDF", "topology": "torus"},
    {"design": "wire", "workload": "uniform", "topology": "cmesh"},
)


#: Host times are scaled to a host that runs one probe in this long.
NOMINAL_PROBE_S = 0.0003

#: Probe period.  A probe takes about 3% of it.
PROBE_PERIOD_S = 0.01

#: A time is scaled by the probes taken during it, or by this many probes
#: nearest to it when it is shorter than that many periods.
MIN_PROBES = 10


def _reference_loop() -> float:
    """Duration of a fixed pure-Python loop: one host-speed probe."""
    start = time.perf_counter()
    table, x = {}, 0
    for k in range(2_000):
        table[k & 1023] = x
        x += k * 3 % 7
    return time.perf_counter() - start


class HostClock:
    """The host's speed, probed every 10 ms while the benchmark runs.

    The benchmark shares its host, whose speed changes by tens of percent
    within a second and by more over minutes.  A fixed reference loop runs
    on the benchmark thread every ``PROBE_PERIOD_S``: from a timer signal,
    in the middle of whatever the program is doing, or from
    :meth:`probe_due` between a workload's operations.  A host time is
    reported as ``time * NOMINAL_PROBE_S / probe``, where ``probe`` is the
    mean probe duration during it, and the time spent probing is left out
    of every measured interval.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []
        #: Total time spent probing.
        self.spent_s = 0.0
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _probe(self, signum=None, frame=None) -> None:
        begin = time.perf_counter()
        self.durations.append(_reference_loop())
        self.times.append(begin)
        self.spent_s += time.perf_counter() - begin

    def probe_due(self) -> None:
        """Probe now if a period has passed since the last probe."""
        if not self.times or (time.perf_counter() - self.times[-1]
                              >= PROBE_PERIOD_S):
            self._probe()

    def now(self) -> tuple[float, float]:
        """A mark for :meth:`since`."""
        return time.perf_counter(), self.spent_s

    def since(self, mark: tuple[float, float]) -> float:
        """Wall time since ``mark``, probes left out."""
        return time.perf_counter() - mark[0] - (self.spent_s - mark[1])

    def scale(self, begin: float, end: float) -> float:
        """Nominal over measured host speed between two timestamps."""
        lo = bisect.bisect_left(self.times, begin)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < MIN_PROBES:
            middle = bisect.bisect_left(self.times, (begin + end) / 2)
            lo = max(0, min(middle - MIN_PROBES // 2,
                            len(self.times) - MIN_PROBES))
            hi = lo + MIN_PROBES
        return NOMINAL_PROBE_S / statistics.mean(self.durations[lo:hi])


@dataclasses.dataclass(frozen=True)
class Outcome:
    """One completed operation as the client saw it."""

    latency_s: float   # host wall time, probes left out
    cycles: int        # measured-window network cycles of the result
    ok: bool
    begin: float       # perf_counter() at the start and the end
    end: float


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def cell_key(style: str, workload: str, seed: int) -> str:
    return f"{style}/{workload}/{seed}"


def warm_key(cell: dict) -> str:
    """The ``golden.json`` key of a warm cell (a request body with seed)."""
    return "/".join(f"{name}={cell[name]}" for name in sorted(cell))


class Workload:
    """Set-up, operations and checks of one workload.

    An operation (what :meth:`operations` yields) is one unit of the
    closed loop: a sweep, a pass over the warm working set, or a
    closed-loop cell.  :meth:`run` returns one :class:`Outcome` per
    request or cell in it.
    """

    name = ""
    #: Probe the host from the timer signal during timed passes too (it
    #: always runs during set-up); if not, :meth:`run` calls
    #: ``HostClock.probe_due`` between requests.
    timer_probes = True

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.rng = random.Random(seed)
        self.clock = HostClock()
        #: Time inside a pass that is benchmark bookkeeping, not workload.
        self.excluded_s = 0.0
        self._dirs = 0

    def fresh_dir(self, prefix: str) -> Path:
        self._dirs += 1
        path = self.work / f"{prefix}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        """One set-up; a repeat replaces the previous one."""

    def teardown(self) -> None:
        """Stop whatever :meth:`setup` started."""

    def warmup_operations(self) -> list:
        """The untimed warm-up pass, run once before timing."""
        raise NotImplementedError

    def operations(self) -> Iterator:
        raise NotImplementedError

    def run(self, op, tracer=None) -> list[Outcome]:
        raise NotImplementedError

    def finish_trace(self, tracer) -> None:
        """Add workload-side counts to a traced pass's tracer."""


class ColdSweep(Workload):
    name = "cold-sweep"

    def __init__(self, work, seed, smoke=False):
        super().__init__(work, seed)
        self.golden = load_golden()["cold-sweep"]
        self.order = self.rng.sample(SEED_POOL, len(SEED_POOL))
        self.styles = COLD_STYLES[:2] if smoke else COLD_STYLES
        self.workloads = COLD_WORKLOADS[:2] if smoke else COLD_WORKLOADS

    def warmup_operations(self):
        return [(COLD_STYLES, ("uniform",), self.order[-1])]

    def operations(self):
        for seed in cycle(self.order):
            yield (self.styles, self.workloads, seed)

    def run(self, op, tracer=None):
        styles, workloads, seed = op
        store = ResultStore(self.fresh_dir("sweep"))
        # Cell i runs from marks[i] to marks[i + 1].
        marks = [self.clock.now()]

        def progress(event):
            if event["event"] == "done":
                marks.append(self.clock.now())

        report = repro.sweep(styles, (16,), workloads, jobs=1, seeds=(seed,),
                             config=LONG_CONFIG, store=store,
                             progress=progress)
        missing = len(report.outcomes) + 1 - len(marks)
        complete = missing == 0 and store.stats.writes == len(report.outcomes)
        marks += [marks[-1]] * max(missing, 0)
        outcomes = []
        for i, outcome in enumerate(report.outcomes):
            spec = outcome.spec
            expected = self.golden.get(
                cell_key(spec.style, spec.workload, seed))
            ok = (complete and not outcome.cached
                  and outcome.result.stats.digest() == expected)
            (begin, spent), (end, spent_end) = marks[i], marks[i + 1]
            outcomes.append(Outcome(end - begin - (spent_end - spent),
                                    outcome.result.stats.activity.cycles,
                                    ok, begin, end))
        return outcomes


class _WarmWorkload(Workload):
    """Shared set-up of the two warm workloads: a pre-filled store.

    One operation is a pass over the whole working set in a seeded order,
    so every run times the same mix of cells.
    """

    def __init__(self, work, seed, smoke=False):
        super().__init__(work, seed)
        cells = WORKING_SET[:3] if smoke else WORKING_SET
        self.cells = [dict(cell, seed=self.rng.choice(SEED_POOL))
                      for cell in cells]
        self.order = tuple(self.rng.sample(self.cells, len(self.cells)))
        self.golden = load_golden()["warm"]
        self.store: Optional[ResultStore] = None
        #: Cell index -> (pinned stats digest, avg latency of the cold
        #: result).  A cold result off its pin fails every request for it.
        self.expected: dict[int, tuple[Optional[str], float]] = {}
        #: Cell index -> measured-window cycles of the cold result.
        self.cycles: dict[int, int] = {}

    def prefill(self) -> None:
        """Fill a fresh store by running every cell cold, in-process."""
        self.store = ResultStore(self.fresh_dir("store"))
        specs = [repro.serve.protocol.parse_simulate(cell)
                 for cell in self.cells]
        report = run_sweep(specs, config=WARM_CONFIG, store=self.store,
                           jobs=1)
        for index, outcome in enumerate(report.outcomes):
            result = outcome.result
            pinned = self.golden.get(warm_key(self.cells[index]))
            digest = pinned if result.stats.digest() == pinned else None
            self.expected[index] = (digest, result.avg_latency)
            self.cycles[index] = result.stats.activity.cycles

    def warmup_operations(self):
        return [self.order]

    def operations(self):
        return cycle([self.order])

    def run(self, op, tracer=None):
        outcomes = []
        for cell in op:
            index = self.cells.index(cell)
            mark = self.clock.now()
            ok = self.request(cell, index)
            latency = self.clock.since(mark)
            outcomes.append(Outcome(latency, self.cycles[index], ok, mark[0],
                                    time.perf_counter()))
            if tracer is not None:
                self.replay(cell, latency, tracer)
            if not self.timer_probes:
                self.clock.probe_due()
        return outcomes

    def request(self, cell, index) -> bool:
        """One request for ``cell``; True if the answer is correct."""
        raise NotImplementedError

    def replay(self, cell, latency, tracer) -> None:
        """Charge a traced request's off-thread work (see WarmServe)."""


class _NoPool:
    """Executor stand-in: every warm request must be a store hit."""

    def submit(self, spec):
        raise RuntimeError(f"cache miss on a pre-filled cell: {spec}")

    def shutdown(self, wait: bool = True) -> None:
        pass


class WarmServe(_WarmWorkload):
    name = "warm-serve"
    # A signal would land while this thread waits on the server thread and
    # take the interpreter lock from it; probe between requests instead.
    timer_probes = False

    def __init__(self, work, seed, smoke=False):
        super().__init__(work, seed, smoke)
        self.thread: Optional[ServerThread] = None
        self.client: Optional[ServeClient] = None
        self.responses = 0
        self.from_store = 0

    def setup(self):
        self.teardown()
        self.prefill()
        service = SimulationService(config=WARM_CONFIG, store=self.store,
                                    executor=_NoPool(), concurrency=1)
        self.thread = ServerThread(service)
        self.client = ServeClient(port=self.thread.start())

    def teardown(self):
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.thread is not None:
            self.thread.stop()
            self.thread = None

    def request(self, cell, index):
        response = self.client.simulate(**cell)
        payload = response.payload
        result = payload.get("result") or {}
        self.responses += 1
        self.from_store += payload.get("source") == "store"
        return (response.status == 200 and payload.get("source") == "store"
                and (result.get("stats_digest"), result.get("avg_latency"))
                == self.expected[index])

    def replay(self, cell, latency, tracer) -> None:
        """Time the server's layer calls again, on this thread.

        The server thread runs parse, digest, store read and decode for
        the request; the replay makes the same calls on the same body, and
        the rest of the client-observed time is the front door (HTTP,
        asyncio, scheduler, JSON encoding both ways).  The replay itself is
        kept out of the traced wall.
        """
        protocol = repro.serve.protocol
        mark = self.clock.now()
        before = tracer.layer_total_s()
        spec = protocol.parse_simulate(cell)
        _, digest = protocol.canonical_digest(spec, WARM_CONFIG,
                                              DEFAULT_PARAMS)
        repro.exec.serialize.decode_result(self.store.load(digest))
        tracer.charge("serve.front_door",
                      latency - (tracer.layer_total_s() - before))
        self.excluded_s += self.clock.since(mark)

    def finish_trace(self, tracer):
        tracer.counts["serve.store_source_ratio"] = (
            self.from_store / self.responses if self.responses else 0.0)


class WarmInproc(_WarmWorkload):
    name = "warm-inproc"

    def setup(self):
        self.prefill()

    def request(self, cell, index):
        hits = self.store.stats.hits
        result = repro.simulate(
            cell["design"], cell["workload"], seed=cell["seed"],
            adaptive_routing=cell.get("adaptive_routing", False),
            faults=cell.get("faults"), topology=cell.get("topology"),
            config=WARM_CONFIG, metrics=False, store=self.store,
        )
        return (self.store.stats.hits == hits + 1
                and (result.stats.digest(), result.avg_latency)
                == self.expected[index])


class OnlineControl(Workload):
    name = "online-control"

    def __init__(self, work, seed, smoke=False):
        super().__init__(work, seed)
        self.golden = load_golden()["online-control"]
        self.order = self.rng.sample(SEED_POOL, len(SEED_POOL))
        self.journals = []

    def warmup_operations(self):
        return [self.order[-1]]

    def operations(self):
        return cycle(self.order)

    def run(self, op, tracer=None):
        mark = self.clock.now()
        run = run_closed_loop(ExperimentRunner(LONG_CONFIG), LOOP_WORKLOAD,
                              control=LOOP_CONTROL, seed=op)
        latency = self.clock.since(mark)
        ok = ([run.journal_digest, run.result.stats.digest()]
              == self.golden.get(str(op)))
        if tracer is not None:
            self.journals.append(run.summary())
        return [Outcome(latency, run.result.stats.activity.cycles, ok,
                        mark[0], time.perf_counter())]

    def finish_trace(self, tracer):
        for summary in self.journals:
            for key in ("applied", "skipped", "overhead_cycles"):
                tracer.counts[f"control.{key}"] += summary[key]


WORKLOADS = {cls.name: cls for cls in
             (ColdSweep, WarmServe, WarmInproc, OnlineControl)}
