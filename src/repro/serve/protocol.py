"""Request validation, canonicalization, and response envelopes.

The service speaks plain JSON.  A simulate request names one experiment
cell with the same vocabulary the CLI uses (design style, workload, link
width, seed, ...); this module checks the body's shape and hands its
fields to :class:`~repro.exec.request.RunRequest`, which applies the
rules every front door shares and builds the **same** frozen
:class:`~repro.exec.jobs.JobSpec` the sweep engine runs, addressed with
the **same**
:func:`~repro.exec.jobs.job_digest` the result store keys on.  That
shared address is what makes the serving tier cheap: a request whose
digest is already on disk is answered warm, and identical in-flight
requests coalesce onto one computation (see
:mod:`repro.serve.scheduler`).

Every response — success or error — is wrapped in an *envelope* carrying
the service name and package version, so clients can gate on
compatibility before trusting the payload shape.
"""

from __future__ import annotations

from typing import Optional

from repro.exec.jobs import JobSpec, job_digest, normalize_spec, sweep_grid
from repro.exec.request import (
    DESIGN_STYLES, LINK_WIDTHS, RequestError, RunRequest, known_workloads,
)
from repro.experiments.config import ExperimentConfig
from repro.obs.result import RunResult
from repro.params import ArchitectureParams
from repro.version import package_version

__all__ = [
    "DESIGN_STYLES", "LINK_WIDTHS", "RequestError", "SIMULATE_FIELDS",
    "SWEEP_FIELDS", "canonical_digest", "envelope", "error_envelope",
    "known_workloads", "parse_simulate", "parse_sweep", "request_body",
    "request_timeout", "result_fields", "spec_fields",
]


def envelope(**fields) -> dict:
    """A response envelope: service identity + version + ``fields``."""
    return {"service": "repro.serve", "version": package_version(), **fields}


def error_envelope(message: str, **fields) -> dict:
    """The error shape every non-2xx response carries."""
    return envelope(status="error", error=str(message), **fields)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RequestError(message)


#: Fields a simulate request may carry (anything else is rejected).
SIMULATE_FIELDS = frozenset({
    "design", "workload", "width", "seed", "access_points",
    "adaptive_routing", "faults", "topology", "timeout_s", "online",
})


def request_body(payload, allowed: frozenset) -> dict:
    """A request body: a JSON object naming only ``allowed`` fields."""
    _require(isinstance(payload, dict), "request body must be a JSON object")
    unknown = set(payload) - allowed
    _require(not unknown, f"unknown request fields {sorted(unknown)}")
    return payload


def parse_simulate(payload: dict) -> JobSpec:
    """Validate one simulate request body into a :class:`JobSpec`.

    Raises :class:`RequestError` on unknown fields, unknown names, or
    wrong types; the spec comes back un-normalized (the scheduler
    normalizes against its own config so equal cells share one digest).
    """
    fields = dict(request_body(payload, SIMULATE_FIELDS))
    fields.pop("timeout_s", None)
    return RunRequest(**fields).spec()


#: Fields a sweep request may carry.
SWEEP_FIELDS = frozenset({
    "styles", "widths", "workloads", "seeds", "adaptive_routing", "faults",
    "topology", "online",
})


def _list(payload: dict, name: str, default: list) -> list:
    value = payload.get(name, default)
    _require(isinstance(value, list) and value,
             f"{name!r} must be a non-empty list")
    return value


def parse_sweep(payload: dict) -> list[JobSpec]:
    """Validate one sweep request body into the grid of specs it names."""
    payload = request_body(payload, SWEEP_FIELDS)
    return sweep_grid(
        _list(payload, "styles", ["baseline"]),
        _list(payload, "widths", [16]),
        _list(payload, "workloads", ["uniform"]),
        seeds=_list(payload, "seeds", [None]),
        adaptive_routing=payload.get("adaptive_routing", False),
        faults=payload.get("faults"),
        topology=payload.get("topology"),
        control=payload.get("online"),
    )


def spec_fields(spec: JobSpec) -> dict:
    """A (normalized) unicast spec as a ``/v1/simulate`` request body.

    The inverse of :func:`parse_simulate`, shared by the campaign runner
    and the cluster router's sweep fan-out so every driver speaks the
    same request vocabulary.
    """
    fields = {
        "design": spec.style,
        "workload": spec.workload,
        "width": spec.link_bytes,
    }
    if spec.seed is not None:
        fields["seed"] = spec.seed
    if spec.num_access_points is not None:
        fields["access_points"] = spec.num_access_points
    if spec.adaptive_routing:
        fields["adaptive_routing"] = True
    extra = dict(spec.extra)
    if extra.get("faults"):
        fields["faults"] = extra["faults"]
    if extra.get("topology"):
        fields["topology"] = extra["topology"]
    if extra.get("control") is not None:
        fields["online"] = extra["control"]
    return fields


def request_timeout(payload: dict, maximum: float) -> Optional[float]:
    """The request's own deadline, capped by the server's ``maximum``."""
    value = payload.get("timeout_s")
    if value is None:
        return None
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and value > 0, "'timeout_s' must be a positive number")
    return min(float(value), maximum)


def canonical_digest(
    spec: JobSpec, config: ExperimentConfig, params: ArchitectureParams,
) -> tuple[JobSpec, str]:
    """Normalize a spec against the service config and address it.

    This is exactly the sweep engine's addressing scheme, so the serving
    tier, the CLI, and batch sweeps all hit the same store entries.
    """
    spec = normalize_spec(spec, config)
    return spec, job_digest(spec, config, params)


def result_fields(result: RunResult) -> dict:
    """The JSON-safe result block a successful response carries."""
    fields = result.summary()
    if result.stats is not None:
        fields["stats_digest"] = result.stats.digest()
    return fields
