"""Addressable experiment jobs: frozen specs with stable content digests.

Every experiment cell the harness can run — a (design, workload, seed)
unicast point, a multicast comparison, a saturation probe, an ablation
measurement — is described by a :class:`JobSpec`: a frozen dataclass of
plain values.  Together with the :class:`~repro.experiments.config.ExperimentConfig`
and :class:`~repro.params.ArchitectureParams` it runs under, a spec has a
stable SHA-256 *digest*; the digest is the address of the cell's result in
the persistent :class:`~repro.exec.store.ResultStore` and changes whenever
any input that could change the result changes (any spec field, any config
knob, any architecture parameter).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.export import jsonable
from repro.params import ArchitectureParams

#: Design styles whose shortcut selection needs a profiled workload.
PROFILED_STYLES = ("adaptive", "adaptive+mc")


@dataclass(frozen=True)
class JobSpec:
    """One addressable experiment cell.

    ``kind`` selects the run recipe:

    * ``'unicast'`` — :meth:`ExperimentRunner.run_unicast` of ``workload``
      on the (``style``, ``link_bytes``) design;
    * ``'multicast'`` — :meth:`ExperimentRunner.run_multicast` with
      ``realization`` at ``locality_percent``;
    * ``'probe'`` — a single fixed-``rate`` measurement (saturation search);
    * ``'stats'`` — a hand-addressed ablation cell, identified by ``style``
      (used as a tag) and ``extra``.
    """

    kind: str = "unicast"
    style: str = "baseline"
    link_bytes: int = 16
    workload: str = "uniform"
    seed: Optional[int] = None              # traffic seed (None -> config's)
    num_access_points: Optional[int] = None  # None -> config's
    adaptive_routing: bool = False
    design_workload: Optional[str] = None   # profile the design tunes for
    realization: Optional[str] = None       # multicast: 'unicast'|'vct'|'rf'
    locality_percent: Optional[int] = None
    rate: Optional[float] = None            # probe injection-rate override
    extra: tuple[tuple[str, str], ...] = () # free-form addressing fields

    def describe(self) -> str:
        """Short human-readable label for progress output."""
        parts = [self.kind, f"{self.style}-{self.link_bytes}B", self.workload]
        topology = dict(self.extra).get("topology")
        if topology:
            parts.append(f"on:{topology}")
        if self.realization:
            parts.append(f"{self.realization}@{self.locality_percent}%")
        if self.rate is not None:
            parts.append(f"rate={self.rate:g}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return " ".join(parts)


def normalize_spec(spec: JobSpec, config: ExperimentConfig) -> JobSpec:
    """Resolve config-defaulted fields so equal cells get equal digests.

    A spec with ``seed=None`` under ``traffic_seed=5`` is the same cell as
    one with ``seed=5``; normalizing before digesting keeps the store from
    holding duplicate entries for them.
    """
    changes = {}
    if spec.seed is None:
        changes["seed"] = config.traffic_seed
    if spec.num_access_points is None:
        changes["num_access_points"] = config.num_access_points
    if spec.design_workload is None and spec.style in PROFILED_STYLES:
        changes["design_workload"] = spec.workload
    return replace(spec, **changes) if changes else spec


def job_digest(
    spec: JobSpec,
    config: ExperimentConfig,
    params: ArchitectureParams,
) -> str:
    """Stable SHA-256 content digest of (spec, config, params).

    Canonical JSON (sorted keys, no whitespace) over the normalized spec
    plus every config and architecture field, so any change that could
    alter the simulated result yields a different address.

    The simulation *kernel* is deliberately excluded: both kernels are
    bit-identical by contract (see :mod:`repro.noc.kernel`), so the
    kernel choice must never fork the result cache — and stripping the
    field keeps every pre-kernel store address valid.

    The topology ``provider`` (and its ``concentration`` knob) is
    stripped only when it is the default mesh: a mesh job must keep its
    pre-provider-layer address (the warm cache survives the refactor),
    while any non-mesh provider legitimately forks the cache — it
    simulates a different network.  Non-default topologies requested
    per-job travel in the spec's ``("topology", name)`` extra, which is
    part of the digest like any other spec field.
    """
    normalized = normalize_spec(spec, config)
    blob = {
        "spec": jsonable(normalized),
        "config": jsonable(config),
        "params": jsonable(params),
    }
    blob["config"].get("sim", {}).pop("kernel", None)
    blob["params"].get("simulation", {}).pop("kernel", None)
    mesh_blob = blob["params"].get("mesh", {})
    requested = dict(normalized.extra).get("topology")
    effective = requested or mesh_blob.get("provider", "mesh")
    if effective == "mesh":
        mesh_blob.pop("provider", None)
        mesh_blob.pop("concentration", None)
    text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sweep_grid(
    styles: Sequence[str],
    widths: Sequence[int],
    workloads: Sequence[str],
    *,
    adaptive_routing: bool = False,
    seeds: Iterable[Optional[int]] = (None,),
    faults: Optional[str] = None,
    topology: Optional[str] = None,
    control: Optional[str] = None,
) -> list[JobSpec]:
    """The full (style x link-width x workload x seed) unicast grid.

    Cells are emitted in deterministic nested order (styles outermost),
    which is also the order the sweep engine reports results in.  Every
    axis value is checked by the same rules as one
    :class:`~repro.exec.request.RunRequest`, so a bad value raises the
    same :class:`~repro.exec.request.RequestError`.
    ``faults`` (a fault-spec string) applies one schedule to
    every cell, folded into each spec's ``extra`` — and therefore its
    digest — so faulted sweeps address distinct store entries.
    ``topology`` (a registered provider name) runs every cell on that
    substrate, folded into ``extra`` the same way; the default-mesh
    request is dropped so mesh grids keep their historical digests.
    ``control`` (a :class:`~repro.control.loop.ControlConfig` spec string,
    ``""`` for defaults) makes every cell a closed-loop online run; the
    canonical control spec joins ``extra``, forking the digests — an
    online cell can never collide with its offline twin.
    """
    from repro.exec import request as rules

    control = rules.check_online(control)
    online = control is not None
    seeds = tuple(seeds)
    for style in styles:
        rules.check_design(style, online)
    for width in widths:
        rules.check_width(width)
    for workload in workloads:
        rules.check_workload(workload, online)
    for seed in seeds:
        rules.check_seed(seed)
    rules.check_adaptive_routing(adaptive_routing)
    extra = rules.spec_extra(rules.check_faults(faults),
                             rules.check_topology(topology), control)
    return [
        rules.unicast_spec(style, width, workload, seed,
                           adaptive_routing=adaptive_routing, extra=extra)
        for style in styles
        for width in widths
        for workload in workloads
        for seed in seeds
    ]
