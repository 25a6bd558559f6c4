"""Outside-in layer timing for the traced benchmark run.

Nothing under ``src/`` is instrumented.  For the traced pass the benchmark
wraps each layer's public callables (module functions and class methods)
from its own process, times every call made on the main thread, and
restores the originals afterwards.  Calls nest, so each layer is charged
its *self* time: the call's duration minus the time spent in nested timed
calls.  The self times of all layers plus ``other_s`` add up to the traced
wall.

Calls made on any other thread (the serve tier's event-loop thread) pass
through untimed; the warm-serve workload replays those layer calls on the
main thread instead (see ``workloads.WarmServe``).
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
from collections import defaultdict

#: Layer span name -> the callables charged to it, as
#: ``(module, attribute)`` for functions or ``(module, class, method)``.
#: ``noc.kernel`` (a simulation's start, advance and finish) and
#: ``exec.store.load`` get dedicated wrappers that also collect counts.
SPANS = {
    "experiments.runner_init": [
        ("repro.experiments.runner", "ExperimentRunner", "__init__")],
    "traffic.profile": [
        ("repro.traffic", "ProbabilisticTraffic", "collect_profile")],
    "core.design": [
        ("repro.core.architectures", "baseline"),
        ("repro.core.architectures", "static_rf"),
        ("repro.core.architectures", "wire_static"),
        ("repro.core.architectures", "adaptive_rf"),
        ("repro.core.architectures", "adaptive_rf_multicast"),
        ("repro.faults", "degraded_design"),
    ],
    "shortcuts.select": [
        ("repro.shortcuts.selection", "select_architecture_shortcuts"),
        ("repro.shortcuts.selection", "select_application_shortcuts"),
        ("repro.shortcuts.region", "select_region_shortcuts"),
    ],
    "noc.routing": [("repro.noc.routing", "RoutingTables", "__init__")],
    "noc.network": [
        ("repro.core.architectures", "DesignPoint", "new_network")],
    "power.model": [
        ("repro.power.noc_power", "NoCPowerModel", "power"),
        ("repro.power.noc_power", "NoCPowerModel", "area"),
    ],
    "control.decide": [("repro.control.decide", "ShortcutDecider", "decide")],
    "control.apply": [
        ("repro.control.compiler", "compile_configuration"),
        ("repro.noc.network", "Network", "apply_shortcuts"),
    ],
    "exec.digest": [
        ("repro.exec.jobs", "normalize_spec"),
        ("repro.exec.jobs", "job_digest"),
    ],
    "exec.store.save": [("repro.exec.store", "ResultStore", "save")],
    "exec.encode": [("repro.exec.serialize", "encode_result")],
    "exec.decode": [("repro.exec.serialize", "decode_result")],
    "serve.parse": [("repro.serve.protocol", "parse_simulate")],
}

#: Kernel pipeline stages recorded through the kernels' opt-in
#: ``StageProfile`` (a breakdown *inside* ``noc.kernel``).
STAGES = ("arrivals", "ni", "rc_va", "sa_st")


class LayerTracer:
    """Wraps layer callables, accumulates per-layer self time and counts."""

    def __init__(self, clock) -> None:
        #: The run's HostClock: probe time inside a call is not the call's.
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._thread = threading.get_ident()
        self._class_undo: list[tuple[type, str, object]] = []
        #: id(wrapper) -> (wrapper, original); holding the wrapper keeps
        #: its id from being reused while it may still be bound somewhere.
        self._originals: dict[int, tuple[object, object]] = {}

    # -- timing -------------------------------------------------------------

    def timed(self, span: str, fn, on_result=None):
        """``fn`` wrapped to charge its main-thread self time to ``span``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            mark = tracer.clock.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer.clock.since(mark)
                tracer._stack.pop()
                tracer.self_s[span] += elapsed - frame[0]
                tracer.calls[span] += 1
                tracer.durations[span].append(elapsed)
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
            if on_result is not None:
                on_result(args, result)
            return result

        self._originals[id(wrapper)] = (wrapper, fn)
        return wrapper

    def charge(self, span: str, elapsed: float) -> None:
        """Charge time measured outside a wrapper (a replayed call)."""
        self.self_s[span] += elapsed
        self.calls[span] += 1

    def layer_total_s(self) -> float:
        """Sum of every layer's self time."""
        return sum(self.self_s.values())

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every callable in :data:`SPANS`, the kernel and store reads."""
        from repro.exec.store import ResultStore
        from repro.noc.simulator import Simulator, SimulatorDrive

        for span, targets in SPANS.items():
            for target in targets:
                module = sys.modules[target[0]]
                if len(target) == 3:
                    self._patch_method(getattr(module, target[1]),
                                       target[2], span)
                else:
                    self._patch_function(getattr(module, target[1]), span)
        # Simulator.run is start + advance + finish; the control workload
        # calls the three itself, in slices.
        self._patch_method(Simulator, "start", "noc.kernel",
                           wrap=_with_stage_profile)
        self._patch_method(SimulatorDrive, "advance", "noc.kernel")
        self._patch_method(SimulatorDrive, "finish", "noc.kernel",
                           on_result=self._count_kernel)
        self._patch_method(ResultStore, "load", "exec.store.load",
                           on_result=self._count_load)

    def _patch_method(self, cls, attr, span, wrap=None, on_result=None):
        original = cls.__dict__[attr]
        inner = wrap(original) if wrap is not None else original
        setattr(cls, attr, self.timed(span, inner, on_result))
        self._class_undo.append((cls, attr, original))

    def _patch_function(self, original, span) -> None:
        """Rebind ``original`` in every ``repro`` module that holds it."""
        wrapped = self.timed(span, original)
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)

    def restore(self) -> None:
        """Put every original callable back."""
        for cls, attr, original in reversed(self._class_undo):
            setattr(cls, attr, original)
        self._class_undo.clear()
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])
        self._originals.clear()

    # -- counting wrappers --------------------------------------------------

    def _count_kernel(self, args, stats) -> None:
        profile = args[0].sim.stage_profile
        self.counts["noc.kernel.cycles"] += profile.cycles
        for stage in STAGES:
            self.counts[f"noc.kernel.stage_{stage}_s"] += getattr(
                profile, f"{stage}_s")
        self.counts["noc.kernel.switch_traversals"] += (
            stats.activity.switch_traversals)

    def _count_load(self, args, payload) -> None:
        self.counts["exec.store.loads"] += 1
        if payload is not None:
            self.counts["exec.store.hits"] += 1

    # -- reporting ----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """The per-layer metrics ``{name: (value, unit)}`` for one pass."""
        s, n, c = self.self_s, self.calls, self.counts
        kernel_s = s["noc.kernel"]
        traversals = c["noc.kernel.switch_traversals"]
        loads = c["exec.store.loads"]
        decides = self.durations["control.decide"]
        return {
            "noc.kernel.run_s": (kernel_s, "s"),
            **{f"noc.kernel.stage_{stage}_s":
               (c[f"noc.kernel.stage_{stage}_s"], "s") for stage in STAGES},
            "noc.kernel.cycles": (c["noc.kernel.cycles"], "count"),
            "noc.kernel.us_per_switch_traversal": (
                kernel_s * 1e6 / traversals if traversals else 0.0, "us"),
            "noc.network.build_s": (s["noc.network"], "s"),
            "core.design_s": (s["core.design"], "s"),
            "core.designs": (n["core.design"], "count"),
            "shortcuts.select_s": (s["shortcuts.select"], "s"),
            "noc.routing.build_s": (s["noc.routing"], "s"),
            "noc.routing.builds": (n["noc.routing"], "count"),
            "experiments.runner_init_s": (s["experiments.runner_init"], "s"),
            "traffic.profile_s": (s["traffic.profile"], "s"),
            "power.model_s": (s["power.model"], "s"),
            "control.decide_s": (s["control.decide"], "s"),
            "control.decide_ms_p50": (
                statistics.median(decides) * 1e3 if decides else 0.0, "ms"),
            "control.decides": (len(decides), "count"),
            "control.applied": (c["control.applied"], "count"),
            "control.skipped": (c["control.skipped"], "count"),
            "control.apply_s": (s["control.apply"], "s"),
            "control.overhead_cycles": (c["control.overhead_cycles"],
                                        "cycles"),
            "exec.digest_s": (s["exec.digest"], "s"),
            "exec.store.load_s": (s["exec.store.load"], "s"),
            "exec.store.save_s": (s["exec.store.save"], "s"),
            "exec.encode_s": (s["exec.encode"], "s"),
            "exec.decode_s": (s["exec.decode"], "s"),
            "exec.store.hit_ratio": (c["exec.store.hits"] / loads
                                     if loads else 0.0, "ratio"),
            "serve.parse_s": (s["serve.parse"], "s"),
            "serve.front_door_s": (s["serve.front_door"], "s"),
            "serve.store_source_ratio": (c["serve.store_source_ratio"],
                                         "ratio"),
            "other_s": (wall_s - self.layer_total_s(), "s"),
            "trace.wall_s": (wall_s, "s"),
        }


def _with_stage_profile(start):
    """``Simulator.start`` that first attaches a fresh ``StageProfile``."""
    from repro.obs.profile import StageProfile

    def start_profiled(sim):
        if sim.stage_profile is None:
            sim.stage_profile = StageProfile()
        return start(sim)

    return start_profiled


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
