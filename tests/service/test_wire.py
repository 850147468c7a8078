"""The submit route's one request shape: ``RunRequest``'s JSON form.

``ServiceClient`` and curl send the same body, ``{"tenant", **
RunRequest.to_json()}``; :meth:`RunRequest.from_json` reads it back or
answers a typed 400, and a peer may name no directory to write and a
cache directory only where nobody else can plant an entry.  The fuzz
test drives that parser with arbitrary JSON and with damaged valid
requests: every answer is a 202 or a typed 4xx, never a 500 and never
a hang.
"""

import json
import re
from dataclasses import dataclass
from http.client import HTTPConnection
from urllib.parse import urlsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.jobs as jobs
from repro.broker.api import RunRequest
from repro.broker.registry import artifact_names
from repro.errors import ExperimentError
from repro.harness.config import (
    MAX_RESILIENCE_RANKS,
    MAX_RESILIENCE_STEPS,
    RESILIENCE_MESH,
    ResilienceParams,
    RunConfig,
    from_json,
)
from repro.obs.core import ObsConfig
from repro.service.service import BrokerService, ServiceConfig
from repro.service.client import ServiceClient


def echo_run(request):
    return ("ran", request.artifacts, request.config.cache_token())


@pytest.fixture(scope="module")
def service():
    with BrokerService(ServiceConfig(http=True), run_fn=echo_run) as svc:
        yield svc


def post(service, body) -> tuple[int, dict]:
    """POST ``body`` (a JSON value, or raw bytes) to the submit route."""
    data = body if isinstance(body, bytes) else json.dumps(body).encode()
    conn = HTTPConnection(urlsplit(service.url).netloc, timeout=30.0)
    try:
        conn.request("POST", "/api/v2/submit", body=data,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


# -- strategies ---------------------------------------------------------------

texts = st.text(max_size=8)
paths = st.none() | texts
obs_configs = st.none() | st.builds(
    ObsConfig, enabled=st.booleans(), out_dir=paths, prefix=texts,
    discard=st.integers(0, 50),
)
resilience_params = st.builds(
    ResilienceParams, num_ranks=st.integers(1, MAX_RESILIENCE_RANKS),
    num_steps=st.integers(1, 64), spike_probability=st.floats(0.0, 1.0),
    checkpoint_dir=paths,
)
configs = st.builds(
    RunConfig, seed=st.integers(-(2 ** 64), 2 ** 64), obs=obs_configs,
    resilience=resilience_params, cache_dir=paths,
)


def requests(names=texts):
    return st.builds(
        RunRequest, artifacts=st.lists(names, min_size=1, max_size=3).map(tuple),
        config=configs, parallel=st.integers(-4, 64), use_cache=st.booleans(),
    )


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | texts,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(texts, inner, max_size=3),
    max_leaves=10,
)


def _key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@st.composite
def damaged_requests(draw):
    """A valid submit body with one to three fields dropped, renamed or
    given a value of another type, at any depth."""
    doc = draw(requests(st.sampled_from(artifact_names() + ("all",)))).to_json()
    if draw(st.booleans()):
        doc["tenant"] = draw(texts)
    for _ in range(draw(st.integers(1, 3))):
        key_paths = list(_key_paths(doc))
        if not key_paths:
            break
        *parents, key = draw(st.sampled_from(key_paths))
        holder = doc
        for parent in parents:
            holder = holder[parent]
        value = holder.pop(key)
        action = draw(st.sampled_from(("drop", "rename", "retype")))
        if action == "rename":
            holder[draw(texts)] = value
        elif action == "retype":
            holder[key] = draw(json_values)
    return doc


# -- the codec ----------------------------------------------------------------

@given(requests())
def test_a_request_survives_its_json_form(request):
    wire = json.loads(json.dumps(request.to_json()))
    assert RunRequest.from_json(wire) == request


def test_every_field_is_optional():
    assert RunRequest.from_json({}) == RunRequest()
    assert RunRequest.from_json({"config": {"obs": None}}) == RunRequest()
    assert RunRequest.from_json({"config": {"obs": {}}}) == RunRequest(
        config=RunConfig(obs=ObsConfig()))


def test_the_dataclass_is_the_only_schema():
    """A field the codec has never seen crosses by its annotation."""
    @dataclass(frozen=True)
    class Later:
        ratio: float = 0.5
        label: str | None = None
        request: RunRequest = RunRequest()

    assert from_json(Later, {"ratio": 2, "request": {"parallel": 3}},
                     "later") == Later(2.0, None, RunRequest(parallel=3))
    with pytest.raises(ExperimentError, match=re.escape("later.label")):
        from_json(Later, {"label": 1}, "later")


def test_an_int_probability_is_the_float_one():
    """``1`` and ``1.0`` are one request: one token, one job id."""
    whole = RunRequest.from_json(
        {"config": {"resilience": {"spike_probability": 1}}})
    assert whole == RunRequest.from_json(
        {"config": {"resilience": {"spike_probability": 1.0}}})
    assert type(whole.config.resilience.spike_probability) is float


def test_a_lone_artifact_name_is_a_list_of_one():
    assert RunRequest.from_json({"artifacts": "fig4"}) == RunRequest(("fig4",))


@pytest.mark.parametrize("doc, message", [
    ({"seed": 3}, "request has no field 'seed'"),
    ({"request_pickle": "gAQ="}, "request has no field 'request_pickle'"),
    ({"parallel": True}, "request.parallel cannot be True"),
    ({"use_cache": 1}, "request.use_cache cannot be 1"),
    ({"config": {"seed": "3"}}, "config.seed cannot be '3'"),
    ({"config": {"seed": False}}, "config.seed cannot be False"),
    ({"config": {"obs": {"discard": 1.5}}}, "config.obs.discard cannot be 1.5"),
    ({"config": {"resilience": {"num_ranks": 2.0}}},
     "config.resilience.num_ranks cannot be 2.0"),
    ({"config": {"resilience": {"spike_probability": float("nan")}}},
     "spike_probability must be in"),
    ({"config": {"resilience": {"spike_probability": 2 ** 60}}},
     "config.resilience.spike_probability cannot be"),
    ({"config": []}, "request.config must be a JSON object"),
    ({"artifacts": {"fig4": 0}}, "artifacts must be names"),
    ({"artifacts": None}, "artifacts must be names"),
    ({"artifacts": ["fig4", 4]}, "request.artifacts cannot be 4"),
    ([], "request must be a JSON object"),
])
def test_an_unknown_or_mistyped_field_is_an_experiment_error(doc, message):
    with pytest.raises(ExperimentError, match=re.escape(message)):
        RunRequest.from_json(doc)


# The tokens and (under a code fingerprint of "fp") job keys these
# configs had before the JSON codec: no cache entry nor job id moves.
PINNED = [
    (RunConfig(),
     '{"resilience":{"num_ranks":2,"num_steps":8,"spike_probability":0.5},'
     '"seed":7}',
     "9f515847300e44510ea40980b7bb8636c9e0ed0f3f4cfe1fa2484cc0e391a6b2"),
    (RunConfig(seed=3, obs=ObsConfig(out_dir="o", prefix="p"), cache_dir="c",
               resilience=ResilienceParams(4, 3, 0.25, "ck")),
     '{"resilience":{"num_ranks":4,"num_steps":3,"spike_probability":0.25},'
     '"seed":3}',
     "0778a36ed4eebe8c460b834be95e7308653ee6916d570c8dbae14b922f8ae1d5"),
]


def test_a_resilience_run_has_a_ceiling():
    """The bound is checked as the request is read: no rank starts."""
    for fields in ({"num_ranks": MAX_RESILIENCE_RANKS + 1},
                   {"num_steps": MAX_RESILIENCE_STEPS + 1}):
        with pytest.raises(ExperimentError, match="resilience run needs"):
            RunRequest.from_json({"config": {"resilience": fields}})
    assert ResilienceParams(MAX_RESILIENCE_RANKS, MAX_RESILIENCE_STEPS)


@pytest.mark.parametrize("num_ranks", [10, 16, 1000])
def test_no_more_resilience_ranks_than_slabs(service, num_ranks):
    """Each rank needs a z-slab of the artifact's lattice: a larger run is
    refused as it is read, over HTTP before the service counts it."""
    resilience = {"num_ranks": num_ranks}
    with pytest.raises(ExperimentError, match="resilience run needs"):
        RunRequest.from_json({"config": {"resilience": resilience}})
    before = service.stats()["submitted"]
    status, doc = post(service, {"artifacts": ["resilience"],
                                 "config": {"resilience": resilience}})
    assert (status, doc["error"]) == (400, "ExperimentError")
    assert service.stats()["submitted"] == before


def test_the_rank_ceiling_is_the_resilience_lattices_z_planes():
    from repro.apps.reaction_diffusion import RDProblem
    from repro.fem.dofmap import DofMap

    problem = RDProblem(mesh_shape=RESILIENCE_MESH)
    lattice = DofMap(problem.mesh(), problem.order).lattice_shape
    assert lattice[2] == MAX_RESILIENCE_RANKS


@pytest.mark.parametrize("config, token, key", PINNED)
def test_cache_token_and_job_key_do_not_move(monkeypatch, config, token, key):
    monkeypatch.setattr(jobs, "code_fingerprint", lambda: "fp")
    assert config.cache_token() == token
    assert jobs.job_key(RunRequest(("table2", "resilience"), config)) == key


# -- the route ----------------------------------------------------------------

class TestOneShape:
    def test_curl_and_the_client_send_the_same_request(self):
        typed = RunRequest(("table2",), RunConfig(seed=3))
        with BrokerService(ServiceConfig(http=True), run_fn=echo_run) as svc:
            status, doc = post(svc, {"artifacts": ["table2"],
                                     "config": {"seed": 3}})
            assert status == 202 and not doc["coalesced"]
            client = ServiceClient(svc.url)
            assert client.result(doc["job_id"], timeout=30.0) == echo_run(typed)
            receipt = client.submit(typed, tenant="client")
        assert receipt.job_id == doc["job_id"] and receipt.coalesced

    @pytest.mark.parametrize("body, error", [
        ({"artifacts": ["table2"], "seed": 3}, "ExperimentError"),
        ({"artifacts": ["table2"], "request_pickle": "gAQ="}, "ExperimentError"),
        ({"artifacts": ["table2"], "config": {"seed": "3"}}, "ExperimentError"),
        ({"artifacts": ["table2"], "tenant": ["curl"]}, "ServiceError"),
    ])
    def test_what_a_request_cannot_hold_is_a_typed_400(self, body, error):
        with BrokerService(ServiceConfig(http=True), run_fn=echo_run) as svc:
            status, doc = post(svc, body)
            assert (status, doc["error"]) == (400, error)
            assert svc.stats()["submitted"] == 0

    def test_a_run_past_the_ceiling_is_a_400(self, service):
        before = service.stats()["submitted"]
        status, doc = post(service, {"config": {"resilience": {
            "num_ranks": MAX_RESILIENCE_RANKS + 1}}})
        assert (status, doc["error"]) == (400, "ExperimentError")
        assert service.stats()["submitted"] == before

    def test_a_body_nested_past_the_parser_is_a_400(self, service):
        status, doc = post(service, b"[" * 100_000 + b"]" * 100_000)
        assert status == 400 and doc["error"] == "ServiceError"


def _assert_typed_answer(status, doc):
    assert status == 202 or (400 <= status < 500 and "error" in doc), (
        status, doc)


@settings(deadline=None)
@given(json_values)
def test_any_json_body_gets_a_typed_answer(service, body):
    _assert_typed_answer(*post(service, body))


@settings(deadline=None)
@given(damaged_requests())
def test_a_damaged_request_gets_a_typed_answer(service, body):
    _assert_typed_answer(*post(service, body))


# -- the paths a peer may name -------------------------------------------------

class TestPeerPaths:
    """Over HTTP a request names no directory for the service to write,
    and a cache directory, whose entries the service unpickles, only
    where nobody but the service's user (or root) can put a file."""

    def _refused(self, service, config, match):
        before = service.stats()["submitted"]
        status, doc = post(service, {"artifacts": ["table2"],
                                     "config": config})
        assert (status, doc["error"]) == (400, "ExperimentError")
        assert match in doc["message"]
        assert service.stats()["submitted"] == before

    @pytest.mark.parametrize("config", [
        {"obs": {"out_dir": "/tmp"}},
        {"resilience": {"checkpoint_dir": "/tmp"}},
    ])
    def test_no_directory_to_write(self, service, config):
        self._refused(service, config, "names no obs.out_dir")

    def test_a_shared_cache_dir_is_neither_read_nor_written(
            self, service, tmp_path):
        shared = tmp_path / "shared"
        shared.mkdir()
        shared.chmod(0o777)
        planted = shared / "planted.pkl"
        planted.write_bytes(b"a peer's entry")
        for name in (shared, shared / "cache"):
            self._refused(service, {"cache_dir": str(name)}, "cache_dir")
        assert list(shared.iterdir()) == [planted]

    def test_a_cache_dir_through_a_symlink_or_relative_is_refused(
            self, service, tmp_path):
        private = tmp_path / "private"
        private.mkdir(mode=0o700)
        (tmp_path / "link").symlink_to(private)
        for name in (str(tmp_path / "link"), "relative/cache",
                     str(private) + "/../private"):
            self._refused(service, {"cache_dir": name}, "cache_dir")

    def test_a_private_cache_dir_is_used(self, tmp_path):
        private = tmp_path / "private"
        private.mkdir(mode=0o700)
        for name in (private, private / "new" / "cache"):
            typed = RunRequest(("table2",),
                               RunConfig(seed=5, cache_dir=str(name)))
            with BrokerService(ServiceConfig(http=True),
                               run_fn=lambda r: r.config.cache_dir) as svc:
                client = ServiceClient(svc.url)
                assert client.run(typed, tenant="owner") == str(name)
