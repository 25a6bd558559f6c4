"""One run request: the vocabulary every front door speaks, checked once.

A request names one cell of the paper's design space — a design style, a
16/8/4 B link width, a workload, the number of RF-I access points and
adaptive routing — plus the later extensions: a fault schedule, a
substrate topology and online (closed-loop) control.  The CLI, the
serving tier, campaigns and the Python API all build their cells through
:class:`RunRequest` (one cell) or :func:`~repro.exec.jobs.sweep_grid` (a
grid), so a bad value is rejected with the same :class:`RequestError`
message whichever door it came in by.  Each rule below is written once;
the front doors only adapt their own syntax (JSON types, flags, files)
and prefix the message in their own form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.exec.jobs import PROFILED_STYLES, JobSpec
from repro.params import ArchitectureParams

#: The design styles a request may name.
DESIGN_STYLES = ("baseline", "static", "wire", "adaptive", "adaptive+mc",
                 "mc-only")

#: Mesh link widths the parameter tables model (bytes/cycle).
LINK_WIDTHS = (16, 8, 4)


class RequestError(ValueError):
    """A run request outside the vocabulary (HTTP 400, CLI exit 2)."""


def known_workloads() -> tuple[str, ...]:
    """Every workload name a request may ask for (patterns + applications)."""
    from repro.traffic import APPLICATIONS, PATTERN_NAMES

    return tuple(PATTERN_NAMES) + tuple(APPLICATIONS)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RequestError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# -- the rules, one per field --------------------------------------------------

def check_online(online) -> Optional[str]:
    """The canonical control spec of an online request, or None if offline.

    ``None``/``False`` is offline, ``True`` the default
    :class:`~repro.control.loop.ControlConfig`, a string a control spec
    (``""`` also means the defaults).
    """
    if online is None or online is False:
        return None
    if online is True:
        online = ""
    _require(isinstance(online, str),
             "'online' must be a boolean or a control spec string")
    from repro.control.loop import ControlConfig

    try:
        return ControlConfig.from_spec(online).canonical()
    except ValueError as exc:
        raise RequestError(f"invalid control spec {online!r}: {exc}") from exc


def check_design(design, online: bool) -> None:
    """A known design style; online runs take only the control styles."""
    _require(design in DESIGN_STYLES,
             f"unknown design {design!r}; one of {list(DESIGN_STYLES)}")
    if online:
        from repro.control.run import CONTROL_STYLES

        _require(design in CONTROL_STYLES,
                 f"online runs accept designs {list(CONTROL_STYLES)}, "
                 f"got {design!r}")


def check_workload(workload, online: bool) -> None:
    """A known workload name — or, for online runs, a phased composite."""
    _require(isinstance(workload, str), "'workload' must be a string")
    names = known_workloads()
    if workload in names:
        return
    from repro.control.run import PHASED_PREFIX, parse_phased_workload

    _require(workload.startswith(PHASED_PREFIX),
             f"unknown workload {workload!r}")
    _require(online, f"phased workload {workload!r} needs an online "
                     "(closed-loop) run")
    try:
        phases, _ = parse_phased_workload(workload)
    except ValueError as exc:
        raise RequestError(str(exc)) from exc
    for phase in phases:
        _require(phase in names,
                 f"unknown workload {phase!r} in {workload!r}")


def check_width(width) -> None:
    """One of the modelled mesh link widths."""
    _require(_is_int(width) and width in LINK_WIDTHS,
             f"link width must be one of {list(LINK_WIDTHS)} (bytes/cycle), "
             f"got {width!r}")


def check_seed(seed) -> None:
    """An integer traffic seed (never a boolean), or None for the config's."""
    _require(seed is None or _is_int(seed),
             f"seed must be an integer or null, got {seed!r}")


def check_access_points(access_points) -> None:
    """A positive RF-I access-point count, or None for the config's."""
    _require(access_points is None
             or (_is_int(access_points) and access_points > 0),
             f"access_points must be a positive integer, "
             f"got {access_points!r}")


def check_adaptive_routing(adaptive_routing) -> None:
    _require(isinstance(adaptive_routing, bool),
             "'adaptive_routing' must be boolean")


def check_faults(faults) -> Optional[str]:
    """The canonical fault schedule, or None for a fault-free run.

    ``None`` and ``""`` are fault-free; a :class:`~repro.faults.FaultSchedule`
    or a spec string must parse and name at least one fault — a spec like
    ``";;"`` is almost certainly a mistake, and running it fault-free would
    mis-address the cell.
    """
    if faults is None or faults == "":
        return None
    from repro.faults import FaultSchedule, as_schedule

    _require(isinstance(faults, (str, FaultSchedule)),
             "'faults' must be a spec string")
    try:
        schedule = as_schedule(faults)
    except (ValueError, TypeError) as exc:
        raise RequestError(f"invalid fault spec {faults!r}: {exc}") from exc
    _require(schedule is not None, f"fault spec {faults!r} names no faults")
    return schedule.canonical()


def check_topology(topology) -> Optional[str]:
    """A registered topology provider, or None for the default mesh.

    The explicit default-mesh request is dropped, so it shares the
    historical mesh digest instead of forking the cache.
    """
    if topology is None:
        return None
    from repro.noc.topology import DEFAULT_TOPOLOGY, TOPOLOGIES

    _require(isinstance(topology, str) and topology in TOPOLOGIES,
             f"unknown topology {topology!r}; one of {sorted(TOPOLOGIES)}")
    return None if topology == DEFAULT_TOPOLOGY else topology


# -- requests ------------------------------------------------------------------

def spec_extra(
    faults: Optional[str], topology: Optional[str], control: Optional[str],
) -> tuple[tuple[str, str], ...]:
    """The ``JobSpec.extra`` addressing fields of checked canonical values."""
    extra = (("control", control), ("faults", faults),
             ("topology", topology))
    return tuple((name, value) for name, value in extra if value is not None)


def unicast_spec(
    design: str,
    width: int,
    workload: str,
    seed: Optional[int] = None,
    access_points: Optional[int] = None,
    adaptive_routing: bool = False,
    extra: tuple[tuple[str, str], ...] = (),
) -> JobSpec:
    """The :class:`JobSpec` of one checked unicast cell."""
    return JobSpec(
        kind="unicast",
        style=design,
        link_bytes=width,
        workload=workload,
        seed=seed,
        num_access_points=access_points,
        adaptive_routing=adaptive_routing,
        design_workload=workload if design in PROFILED_STYLES else None,
        extra=extra,
    )


def check_placement(spec: JobSpec, params: ArchitectureParams) -> None:
    """The cell's design can place its access points where it will run.

    The topology is the one the cell resolves to under ``params`` — its
    own ``topology`` extra, else ``params.mesh.provider`` — so a server
    started on another substrate checks against that substrate.  A cell
    without a count runs the config default and is not checked here.
    Every door runs this with its own params before anything is built.
    """
    if spec.num_access_points is None:
        return
    from repro.experiments.runner import design_access_points
    from repro.noc.topology import build_topology

    extra = dict(spec.extra)
    topo = build_topology(params.mesh, extra.get("topology"))
    try:
        design_access_points(topo, spec.style, spec.num_access_points,
                             online="control" in extra)
    except ValueError as exc:
        raise RequestError(str(exc)) from exc


@dataclass(frozen=True)
class RunRequest:
    """One checked cell request; construction raises :class:`RequestError`.

    Values are stored canonical: ``faults`` as the schedule's canonical
    spec, ``topology`` as None for the default mesh, and ``online`` as the
    canonical control spec (None when offline), so equal cells compare
    equal and :meth:`spec` addresses them identically.
    """

    design: str = "baseline"
    workload: str = "uniform"
    width: int = 16
    seed: Optional[int] = None
    access_points: Optional[int] = None
    adaptive_routing: bool = False
    faults: Optional[str] = None
    topology: Optional[str] = None
    online: Union[bool, str, None] = None

    def __post_init__(self) -> None:
        online = check_online(self.online)
        check_design(self.design, online is not None)
        check_workload(self.workload, online is not None)
        check_width(self.width)
        check_adaptive_routing(self.adaptive_routing)
        check_access_points(self.access_points)
        check_seed(self.seed)
        canonical = {"online": online, "faults": check_faults(self.faults),
                     "topology": check_topology(self.topology)}
        for name, value in canonical.items():
            object.__setattr__(self, name, value)

    def spec(self) -> JobSpec:
        """The :class:`JobSpec` this request runs (un-normalized)."""
        return unicast_spec(
            self.design, self.width, self.workload, self.seed,
            self.access_points, self.adaptive_routing,
            spec_extra(self.faults, self.topology, self.online),
        )
