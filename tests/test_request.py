"""One request vocabulary behind every front door (``repro.exec.request``).

The CLI verbs, the serving tier (``POST /v1/simulate``/``/v1/sweep``),
campaign specs and the Python API all build their cells through
:class:`RunRequest` or :func:`sweep_grid`.  These tests pin that:

* one rejection table — every bad value is rejected by every front door,
  in that door's own form, with the same message;
* the job digests of a fixed list of valid requests;
* a property test: any valid request round-trips through the JSON
  vocabulary, and the same cell built through any front door gets one
  ``job_digest``.
"""

import asyncio
import concurrent.futures
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro.campaign.spec import CampaignError, CampaignSpec, spec_from_dict
from repro.cli import main
from repro.cluster.router import ClusterRouter
from repro.control.run import CONTROL_STYLES
from repro.exec import job_digest, normalize_spec
from repro.exec.request import (
    DESIGN_STYLES, LINK_WIDTHS, RequestError, RunRequest, check_placement,
    known_workloads,
)
from repro.experiments.config import FAST_CONFIG
from repro.noc.topology import TOPOLOGIES
from repro.params import DEFAULT_PARAMS
from repro.serve import SimulationService
from repro.serve.protocol import (
    canonical_digest, parse_simulate, parse_sweep, spec_fields,
)

# -- front doors ---------------------------------------------------------------


class _NoPool:
    """Executor stand-in: a rejected request must never reach it."""

    def submit(self, spec):
        raise AssertionError(f"a bad request was submitted: {spec}")

    def shutdown(self, wait: bool = True) -> None:
        pass


def _online_flag(online) -> list[str]:
    if online is None or online is False:
        return []
    return ["--online"] if online is True else [f"--online={online}"]


def _cli_flags(fields: dict) -> list[str]:
    flags = []
    for name in ("faults", "topology"):
        if fields.get(name) is not None:
            flags += [f"--{name}", fields[name]]
    return flags + _online_flag(fields.get("online"))


def _cli_simulate_args(fields: dict) -> list[str]:
    args = ["simulate", "--design", fields.get("design", "baseline"),
            "--workload", fields.get("workload", "uniform"),
            "--width", str(fields.get("width", 16))]
    if fields.get("seed") is not None:
        args += ["--seed", str(fields["seed"])]
    return args + _cli_flags(fields) + ["--fast", "--json"]


def _cli_sweep_args(fields: dict) -> list[str]:
    return (["sweep", "--styles", fields.get("design", "baseline"),
             "--widths", str(fields.get("width", 16)),
             "--workloads", fields.get("workload", "uniform")]
            + _cli_flags(fields) + ["--no-cache", "--fast", "--json"])


def _sweep_body(fields: dict) -> dict:
    """A one-cell ``/v1/sweep`` body for the request ``fields``."""
    body = {"styles": [fields.get("design", "baseline")],
            "widths": [fields.get("width", 16)],
            "workloads": [fields.get("workload", "uniform")],
            "seeds": [fields.get("seed")]}
    for name in ("faults", "topology", "online"):
        if fields.get(name) is not None:
            body[name] = fields[name]
    return body


def _campaign_body(fields: dict) -> dict:
    """A one-cell campaign spec mapping for the request ``fields``."""
    online = fields.get("online")
    return {"name": "one-cell",
            "styles": [fields.get("design", "baseline")],
            "widths": [fields.get("width", 16)],
            "workloads": [fields.get("workload", "uniform")],
            "seeds": [fields.get("seed")],
            "faults": [fields.get("faults") or ""],
            "topologies": [fields.get("topology") or "mesh"],
            "control": ["" if online is True else online]}


def _api_sweep(fields: dict, **kwargs):
    return repro.sweep(
        [fields.get("design", "baseline")], [fields.get("width", 16)],
        [fields.get("workload", "uniform")], seeds=[fields.get("seed")],
        faults=fields.get("faults"), topology=fields.get("topology"),
        online=fields.get("online"), **kwargs)


# -- the rejection table -------------------------------------------------------

#: (row id, request fields, text the shared message must contain).
BAD_REQUESTS = [
    ("unknown-design", {"design": "warp"}, "unknown design 'warp'"),
    ("unknown-workload", {"workload": "nope"}, "unknown workload 'nope'"),
    ("offline-phased", {"workload": "phased:uniform+uniDF@500"},
     "needs an online (closed-loop) run"),
    ("wire-online", {"design": "wire", "online": ""},
     "online runs accept designs ['baseline', 'adaptive'], got 'wire'"),
    ("width-12", {"width": 12}, "link width must be one of [16, 8, 4]"),
    ("boolean-seed", {"seed": True}, "seed must be an integer or null"),
    ("empty-faults", {"faults": ";;"}, "fault spec ';;' names no faults"),
    ("malformed-faults", {"faults": "gremlin:everywhere"},
     "invalid fault spec 'gremlin:everywhere'"),
    ("unknown-topology", {"topology": "hypercube"},
     "unknown topology 'hypercube'"),
    ("bad-control-key", {"online": "bogus=1"},
     "invalid control spec 'bogus=1': unknown control key 'bogus'"),
    ("mc-only-16-access-points", {"design": "mc-only", "access_points": 16},
     "design 'mc-only' needs its multicast transmitter (router 2) among "
     "the access points; access_points=16 does not place it on the mesh"),
    ("1000-access-points", {"design": "adaptive", "access_points": 1000},
     "access_points=1000 cannot be placed on the mesh: "
     "count must be in 1..100"),
]


def _reject_cli(argv, capsys) -> str:
    assert main(argv) == 2
    err = capsys.readouterr().err
    return json.loads(err)["error"]


def _reject_post(handler, body) -> str:
    status, payload, _ = asyncio.run(handler(body))
    assert status == 400, payload
    return payload["error"]


def _reject_campaign(fields) -> str:
    with pytest.raises(CampaignError) as info:
        spec_from_dict(_campaign_body(fields))
    prefix = "<dict>: "
    assert str(info.value).startswith(prefix)
    return str(info.value)[len(prefix):]


def _reject_api(call) -> str:
    with pytest.raises(RequestError) as info:
        call()
    return str(info.value)


def _service():
    return SimulationService(config=FAST_CONFIG, executor=_NoPool())


def _router():
    return ClusterRouter({"s0": 1, "s1": 2}, config=FAST_CONFIG)


#: Front door -> how it rejects ``fields``, returning the bare message.
FRONT_DOORS = {
    "cli-simulate": lambda f, capsys: _reject_cli(_cli_simulate_args(f),
                                                  capsys),
    "cli-sweep": lambda f, capsys: _reject_cli(_cli_sweep_args(f), capsys),
    "post-simulate": lambda f, capsys: _reject_post(_service().simulate, f),
    "post-sweep": lambda f, capsys: _reject_post(_service().sweep,
                                                 _sweep_body(f)),
    "router-simulate": lambda f, capsys: _reject_post(_router().simulate, f),
    "router-sweep": lambda f, capsys: _reject_post(_router().sweep,
                                                   _sweep_body(f)),
    "campaign": lambda f, capsys: _reject_campaign(f),
    "api-simulate": lambda f, capsys: _reject_api(
        lambda: repro.simulate(fast=True, **f)),
    "api-sweep": lambda f, capsys: _reject_api(
        lambda: _api_sweep(f, fast=True)),
}

#: The CLI types ``--seed`` as an integer (and ``sweep --seed`` sets the
#: config's traffic seed, not a cell's), so a boolean seed cannot reach it.
NOT_EXPRESSIBLE = {("boolean-seed", "cli-simulate"),
                   ("boolean-seed", "cli-sweep")}

#: Only the single-cell doors below take a per-cell access-point count.
NOT_EXPRESSIBLE |= {
    (row, door)
    for row in ("mc-only-16-access-points", "1000-access-points")
    for door in FRONT_DOORS
    if door not in ("post-simulate", "router-simulate", "api-simulate")
}


@pytest.mark.parametrize("door,fields,expected", [
    pytest.param(door, fields, expected, id=f"{row}-{door}")
    for row, fields, expected in BAD_REQUESTS
    for door in FRONT_DOORS
    if (row, door) not in NOT_EXPRESSIBLE
])
def test_every_front_door_rejects_with_one_message(
    door, fields, expected, capsys,
):
    with pytest.raises(RequestError) as shared:
        check_placement(RunRequest(**fields).spec(), DEFAULT_PARAMS)
    assert expected in str(shared.value)
    assert FRONT_DOORS[door](fields, capsys) == str(shared.value)


class TestEmptyFaultSpecOverServe:
    """``{"faults": ";;"}`` is a 400 on both routes, service and router."""

    BODIES = {"simulate": {"faults": ";;"},
              "sweep": {"styles": ["baseline"], "faults": ";;"}}

    @pytest.mark.parametrize("route", ["simulate", "sweep"])
    def test_service(self, route):
        handler = getattr(_service(), route)
        assert "names no faults" in _reject_post(handler, self.BODIES[route])

    @pytest.mark.parametrize("route", ["simulate", "sweep"])
    def test_cluster_router(self, route):
        router = ClusterRouter({"s0": 1, "s1": 2}, config=FAST_CONFIG)
        handler = getattr(router, route)
        assert "names no faults" in _reject_post(handler, self.BODIES[route])


#: A server started on the concentrated mesh (``repro serve --topology cmesh``).
CMESH_PARAMS = DEFAULT_PARAMS.with_topology(provider="cmesh")


class _RecordingPool:
    """Executor stand-in: records the cells it is handed, runs none."""

    def __init__(self):
        self.submitted = []

    def submit(self, spec):
        self.submitted.append(spec)
        future = concurrent.futures.Future()
        future.set_exception(RuntimeError("not run"))
        return future

    def shutdown(self, wait: bool = True) -> None:
        pass


class TestPlacementFollowsServerTopology:
    """The access-point rule checks the substrate the door runs cells on."""

    #: Counts the 10x10 mesh cannot place but the 5x5 cmesh can: mc-only's
    #: transmitter is placed from 14 access points, and the cmesh clamps
    #: oversized counts to every router.
    CMESH_ONLY = [{"design": "mc-only", "access_points": 16},
                  {"design": "adaptive", "access_points": 200}]

    @pytest.mark.parametrize("body", CMESH_ONLY)
    def test_cmesh_service_runs_the_cell(self, body):
        pool = _RecordingPool()
        service = SimulationService(config=FAST_CONFIG, params=CMESH_PARAMS,
                                    executor=pool)

        async def simulate():
            await service.start()
            try:
                return await service.simulate(body)
            finally:
                await service.stop()

        status, payload, _ = asyncio.run(simulate())
        assert (status, payload["error"]) == (500,
                                              "simulation failed: not run")
        assert [spec.num_access_points for spec in pool.submitted] == [
            body["access_points"]]

    @pytest.mark.parametrize("body", CMESH_ONLY)
    def test_cmesh_router_proxies_the_cell(self, body):
        router = ClusterRouter({"s0": 1}, config=FAST_CONFIG,
                               params=CMESH_PARAMS)
        status, payload, _ = asyncio.run(router.simulate(body))
        assert status == 503, payload     # no shard is listening

    @pytest.mark.parametrize("body", CMESH_ONLY)
    def test_cmesh_api_builds_the_cell(self, body):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.api.prepare_spec", _capture_prepare)
            digests = _built(lambda: repro.simulate(
                fast=True, params=CMESH_PARAMS, **body))
        assert len(digests) == 1

    def test_every_door_rejects_what_the_cmesh_cannot_place(self):
        body = {"design": "mc-only", "access_points": 13}
        expected = ("design 'mc-only' needs its multicast transmitter "
                    "(router 1) among the access points; access_points=13 "
                    "does not place it on the cmesh")
        service = SimulationService(config=FAST_CONFIG, params=CMESH_PARAMS,
                                    executor=_NoPool())
        router = ClusterRouter({"s0": 1}, config=FAST_CONFIG,
                               params=CMESH_PARAMS)
        assert _reject_post(service.simulate, body) == expected
        assert _reject_post(router.simulate, body) == expected
        assert _reject_api(lambda: repro.simulate(
            fast=True, params=CMESH_PARAMS, **body)) == expected


def test_campaign_rejects_boolean_seeds():
    with pytest.raises(CampaignError, match="seed must be an integer"):
        spec_from_dict({"name": "bool-seed", "seeds": [True]})
    with pytest.raises(CampaignError, match="seed must be an integer"):
        CampaignSpec(seeds=(1, False)).validate()


# -- digests -------------------------------------------------------------------

#: Valid requests and the job digests they have always had (FAST_CONFIG,
#: DEFAULT_PARAMS); a change here would orphan every stored result.
PINNED_DIGESTS = [
    ({}, "481100519750cb4d4be1df3fa868f87cbee18205e8d704283be15d4fa5eb880e"),
    ({"design": "static", "workload": "1Hotspot", "width": 8},
     "5694366fc1267949bcab7e754a0c62382077943fceea0ca5dc0d69b9a23b9f89"),
    ({"design": "wire", "workload": "uniDF", "width": 4, "seed": 7},
     "ba7772c243fa4f94cc3d265985f68c6e591fdd93dc931a32a484918df23eb85f"),
    ({"design": "adaptive", "workload": "hotBiDF", "access_points": 32},
     "40233983a5ec9ccc055f220e8abcbed6ef5a0acbccf63881598b9a3b6da32a8d"),
    ({"design": "adaptive", "workload": "1Hotspot",
      "adaptive_routing": True},
     "76cdfba6e7c46582210cb41d8baeb559e26b068ffa23d12cceea77d17467a176"),
    ({"design": "adaptive+mc", "workload": "uniform", "seed": 3},
     "9806a8afa3bf8608d2179e21b3f5107a33289d2f14062ac63551c32a79387add"),
    ({"design": "mc-only", "workload": "2Hotspot"},
     "5086029d967d52622681679c68e58c0bf571abb2c3c879b5c5dbc427a7de7d6a"),
    ({"design": "static", "workload": "uniform", "faults": "band:3"},
     "5ebc1678d3cc35936a32b0ed1aca27fc9827a6a29fab54de7411520245ed0a10"),
    ({"design": "baseline", "workload": "hotBiDF", "topology": "torus"},
     "aed627e9bd84ecec5ceb7c42b2243eaa4452d52ebfac009ceb6dc7a8903ce9ab"),
    ({"design": "wire", "workload": "uniform", "topology": "cmesh"},
     "71f5107d4662223518de100ebff4c154cd9344428c4a8f976c8e4282c6eff82a"),
    ({"design": "static", "workload": "uniform", "topology": "mesh"},
     "611e214b1bc5dd95f2eb503fb6235ea49e3d53c24c1579b11ca31867d92a37c6"),
    ({"design": "baseline", "workload": "uniform", "online": True},
     "0598f41f1c12d5f07eaed3b1fe85512134833787dec2140cc69dca208f1bcdc9"),
    ({"design": "adaptive", "workload": "phased:hotBiDF+uniDF@1000",
      "online": "epoch=600,min=20"},
     "88654c4af91d8d7faaa64d9e6c3fbcded053ddaf8cc084358f89579a66df4af3"),
    ({"design": "adaptive", "workload": "uniform", "online": "min=1",
      "faults": "band:2", "topology": "torus", "seed": 11},
     "da2dd77f24f2ca307cf9566e1027464169f7edbf078ea54fb6c269a2dd961461"),
]


@pytest.mark.parametrize(
    "fields,digest", PINNED_DIGESTS,
    ids=["/".join(map(str, fields.values())) or "defaults"
         for fields, _ in PINNED_DIGESTS])
def test_pinned_job_digests(fields, digest):
    spec = RunRequest(**fields).spec()
    assert job_digest(spec, FAST_CONFIG, DEFAULT_PARAMS) == digest
    assert canonical_digest(parse_simulate(fields), FAST_CONFIG,
                            DEFAULT_PARAMS)[1] == digest


# -- round trip and cross-door identity -----------------------------------------

FAULT_SPECS = ("band:3", "link:12-13@100-500", "band:2;band:5@200-900")
CONTROL_SPECS = (True, "", "epoch=600", "min=1,hysteresis=0.03")


@st.composite
def valid_requests(draw, every_door: bool = False):
    """Request fields for one valid cell.

    ``every_door`` keeps to what every front door can spell: no
    per-cell access points or adaptive routing (the CLI verbs have no
    flag for them).
    """
    online = draw(st.one_of(st.none(), st.sampled_from(CONTROL_SPECS)))
    names = list(known_workloads())
    workload = st.sampled_from(names)
    if online is not None:
        phased = st.builds(
            lambda phases, cycles: f"phased:{'+'.join(phases)}@{cycles}",
            st.lists(st.sampled_from(names), min_size=1, max_size=3),
            st.integers(100, 4000))
        workload = st.one_of(workload, phased)
    fields = {
        "design": draw(st.sampled_from(
            CONTROL_STYLES if online is not None else DESIGN_STYLES)),
        "workload": draw(workload),
        "width": draw(st.sampled_from(LINK_WIDTHS)),
        "seed": draw(st.one_of(st.none(), st.integers(0, 10_000))),
        "faults": draw(st.one_of(st.none(), st.sampled_from(FAULT_SPECS))),
        "topology": draw(st.one_of(st.none(),
                                   st.sampled_from(sorted(TOPOLOGIES)))),
        "online": online,
    }
    if not every_door:
        fields["access_points"] = draw(
            st.one_of(st.none(), st.integers(1, 100)))
        fields["adaptive_routing"] = draw(st.booleans())
        assume(_placeable(fields))
    return fields


def _placeable(fields) -> bool:
    """The cell's access points can be placed (the rejection table pins
    the rule itself)."""
    try:
        check_placement(RunRequest(**fields).spec(), DEFAULT_PARAMS)
    except RequestError:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(valid_requests())
def test_json_round_trip(fields):
    spec = RunRequest(**fields).spec()
    assert parse_simulate(spec_fields(spec)) == spec
    normalized = normalize_spec(spec, FAST_CONFIG)
    assert parse_simulate(spec_fields(normalized)) == normalized


class _Built(Exception):
    """Raised by a patched executor: carries the digests it was handed."""

    def __init__(self, digests):
        super().__init__(digests)
        self.digests = digests


class _Runner:
    """Stands in for ExperimentRunner: keeps config/params, builds nothing."""

    def __init__(self, config, params, store=None):
        self.config, self.params = config, params


def _capture_prepare(runner, spec, observation=None):
    raise _Built([job_digest(spec, runner.config, runner.params)])


def _capture_sweep(specs, *, config, params=DEFAULT_PARAMS, **_):
    raise _Built([job_digest(spec, config, params) for spec in specs])


def _built(call) -> list[str]:
    with pytest.raises(_Built) as info:
        call()
    return info.value.digests


@settings(max_examples=30, deadline=None)
@given(valid_requests(every_door=True))
def test_every_front_door_builds_one_digest(fields):
    expected = job_digest(RunRequest(**fields).spec(), FAST_CONFIG,
                          DEFAULT_PARAMS)
    body = {name: value for name, value in fields.items()
            if value is not None}
    campaign = spec_from_dict(_campaign_body(fields))
    digests = {
        "post-simulate": [canonical_digest(parse_simulate(body), FAST_CONFIG,
                                           DEFAULT_PARAMS)[1]],
        "post-sweep": [canonical_digest(spec, FAST_CONFIG, DEFAULT_PARAMS)[1]
                       for spec in parse_sweep(_sweep_body(fields))],
        "campaign": [job_digest(spec, FAST_CONFIG, DEFAULT_PARAMS)
                     for spec in campaign.expand(FAST_CONFIG)],
    }
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.api.ExperimentRunner", _Runner)
        patch.setattr("repro.api.prepare_spec", _capture_prepare)
        patch.setattr("repro.api.run_sweep", _capture_sweep)
        patch.setattr("repro.exec.run_sweep", _capture_sweep)
        digests["api-simulate"] = _built(
            lambda: repro.simulate(fast=True, metrics=False, **fields))
        digests["api-sweep"] = _built(lambda: _api_sweep(fields, fast=True))
        digests["cli-simulate"] = _built(
            lambda: main(_cli_simulate_args(fields)))
        if fields["seed"] is None:   # ``sweep --seed`` is the config's seed
            digests["cli-sweep"] = _built(
                lambda: main(_cli_sweep_args(fields)))
    assert digests == {door: [expected] for door in digests}
