"""Typed records survive their JSON form: ``from_json(cls, to_json(x)) == x``.

Every record the service, the CLI and the health files write goes
through the one codec (``repro.harness.config.to_json`` / ``from_json``),
so a record decodes to what was encoded, through real JSON text, for
any field values.  ``JobStatus.transitions`` is the fixed-arity case:
``tuple[tuple[str, float], ...]``.
"""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.harness.config import from_json, to_json
from repro.obs.health import RankHealth, RunHealthReport
from repro.service.jobs import JobStatus, SubmitReceipt

floats = st.floats(allow_nan=False)
texts = st.text(max_size=12)
names = st.lists(texts, max_size=4).map(tuple)

statuses = st.builds(
    JobStatus,
    job_id=texts,
    state=st.sampled_from(
        ("queued", "admitted", "running", "done", "failed", "cancelled")),
    artifacts=names,
    points=st.integers(),
    tenants=names,
    coalesced=st.integers(0, 2 ** 32),
    submitted_wall=floats,
    started_wall=st.none() | floats,
    finished_wall=st.none() | floats,
    error=st.none() | texts,
    transitions=st.lists(st.tuples(texts, floats), max_size=6).map(tuple),
)
receipts = st.builds(SubmitReceipt, job_id=texts, state=texts,
                     coalesced=st.booleans(), tenant=texts)
rows = st.builds(
    RankHealth, rank=st.integers(0, 10 ** 6),
    **{name: floats for name in (
        "compute_time", "comm_time", "send_time", "recv_overhead",
        "late_sender", "late_receiver", "collective_wait", "collective_work",
        "nic_busy", "nic_saturation", "wall_time")},
    sends=st.integers(0, 10 ** 9), recvs=st.integers(0, 10 ** 9),
    collectives=st.integers(0, 10 ** 9),
)
reports = st.builds(RunHealthReport,
                    ranks=st.lists(rows, max_size=4).map(tuple),
                    load_imbalance=floats, makespan=floats)


def through_json(record):
    return json.loads(json.dumps(to_json(record)))


@given(statuses)
@example(JobStatus(
    job_id="3f" * 32, state="done", artifacts=("fig4",), points=3,
    tenants=("alice",), coalesced=0, submitted_wall=1792424022.43,
    started_wall=1792424022.5, finished_wall=1792424023.0, error=None,
    transitions=(("queued", 1792424022.43), ("done", 1792424023.0))))
def test_job_status(status):
    assert from_json(JobStatus, through_json(status), "status") == status


@given(receipts)
def test_submit_receipt(receipt):
    assert from_json(SubmitReceipt, through_json(receipt), "receipt") == receipt


@given(reports)
def test_health_report(report):
    assert from_json(RunHealthReport, through_json(report), "health") == report
    file = json.loads(json.dumps(report.as_dict()))
    assert RunHealthReport.from_dict(file) == report


@pytest.mark.parametrize("pair", [["queued"], ["queued", 1.0, 2.0]])
def test_a_pair_of_another_arity_is_refused(pair):
    doc = through_json(JobStatus(
        job_id="j", state="queued", artifacts=(), points=0, tenants=(),
        coalesced=0, submitted_wall=0.0, started_wall=None,
        finished_wall=None, error=None, transitions=()))
    doc["transitions"] = [pair]
    with pytest.raises(ExperimentError, match="status.transitions"):
        from_json(JobStatus, doc, "status")


def test_a_missing_field_is_refused_by_name():
    doc = through_json(SubmitReceipt(job_id="j", state="queued",
                                     coalesced=False, tenant="t"))
    del doc["tenant"]
    with pytest.raises(ExperimentError, match="receipt needs the field 'tenant'"):
        from_json(SubmitReceipt, doc, "receipt")
