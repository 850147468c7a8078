"""The exact bytes of every typed record the service and its CLI write.

A stub service answers the real HTTP handler with fixed records, so the
bodies depend on neither the wall clock nor the code fingerprint (which
a real job id hashes).  Each literal below was written by the
hand-spelled codecs the generic ``to_json`` replaced; a field renamed,
reordered or re-typed changes these bytes for every tenant and script
that reads them.
"""

import hashlib
import json
from dataclasses import replace
from http.client import HTTPConnection
from urllib.parse import urlsplit

import pytest

from repro.__main__ import main
from repro.service.client import ServiceClient
from repro.service.httpd import serve_http
from repro.service.jobs import JobStatus, SubmitReceipt

JOB = "3f" * 32

RECEIPT = SubmitReceipt(job_id=JOB, state="queued", coalesced=False,
                        tenant="default")

DONE = JobStatus(
    job_id=JOB, state="done", artifacts=("fig4", "table2"), points=12,
    tenants=("alice", "bob"), coalesced=1, submitted_wall=1792424022.43,
    started_wall=1792424022.5, finished_wall=1792424023.125, error=None,
    transitions=(("queued", 1792424022.43), ("admitted", 1792424022.4375),
                 ("running", 1792424022.5), ("done", 1792424023.125)),
)

CANCELLED = JobStatus(
    job_id="a0" * 32, state="cancelled", artifacts=("table1",), points=1,
    tenants=("carol",), coalesced=0, submitted_wall=1792424030.0,
    started_wall=None, finished_wall=1792424031.5,
    error="cancelled by tenant", transitions=(("queued", 1792424030.0),
                                              ("cancelled", 1792424031.5)),
)

STATS = {"queue_depth": 0, "inflight": 1, "dedup_hit_rate": 0.5}


class StubService:
    """The verbs the HTTP handler calls, answering fixed records."""

    def submit(self, request, tenant):
        return replace(RECEIPT, tenant=tenant)

    def status(self, job_id):
        return DONE

    def jobs(self):
        return [DONE, CANCELLED]

    def cancel(self, job_id):
        return CANCELLED

    def stats(self):
        return STATS


@pytest.fixture(scope="module")
def url():
    server, thread = serve_http(StubService())
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    server.join_connections(5.0)
    thread.join(5.0)
    assert not thread.is_alive()


def body(url, method, path, doc=None) -> bytes:
    conn = HTTPConnection(urlsplit(url).netloc, timeout=30.0)
    try:
        data = None if doc is None else json.dumps(doc).encode()
        conn.request(method, "/api/v2" + path, body=data)
        return conn.getresponse().read()
    finally:
        conn.close()


SUBMIT_BODY = (
    b'{"job_id": "' + JOB.encode() + b'", "state": "queued", '
    b'"coalesced": false, "tenant": "alice"}'
)
DONE_BODY = (
    b'{"job_id": "' + JOB.encode() + b'", "state": "done", '
    b'"artifacts": ["fig4", "table2"], "points": 12, '
    b'"tenants": ["alice", "bob"], "coalesced": 1, '
    b'"submitted_wall": 1792424022.43, "started_wall": 1792424022.5, '
    b'"finished_wall": 1792424023.125, "error": null, '
    b'"transitions": [["queued", 1792424022.43], '
    b'["admitted", 1792424022.4375], ["running", 1792424022.5], '
    b'["done", 1792424023.125]]}'
)
CANCELLED_BODY = (
    b'{"job_id": "' + b"a0" * 32 + b'", "state": "cancelled", '
    b'"artifacts": ["table1"], "points": 1, "tenants": ["carol"], '
    b'"coalesced": 0, "submitted_wall": 1792424030.0, '
    b'"started_wall": null, "finished_wall": 1792424031.5, '
    b'"error": "cancelled by tenant", '
    b'"transitions": [["queued", 1792424030.0], ["cancelled", 1792424031.5]]}'
)


class TestWireBodies:
    def test_submit(self, url):
        assert body(url, "POST", "/submit",
                    {"tenant": "alice", "artifacts": ["fig4"]}) == SUBMIT_BODY

    def test_status(self, url):
        assert body(url, "GET", f"/status/{JOB}") == DONE_BODY

    def test_jobs(self, url):
        assert body(url, "GET", "/jobs") == (
            b'{"jobs": [' + DONE_BODY + b", " + CANCELLED_BODY + b"]}")

    def test_cancel(self, url):
        assert body(url, "POST", f"/cancel/{JOB}") == CANCELLED_BODY

    def test_the_client_reads_back_the_records(self, url):
        with ServiceClient(url) as client:
            assert client.status(JOB) == DONE
            assert client.jobs() == [DONE, CANCELLED]
            assert client.cancel(JOB) == CANCELLED


class TestCliJson:
    def test_status_table(self, url, capsys):
        assert main(["status", "--url", url, "--json"]) == 0
        assert capsys.readouterr().out == STATUS_TABLE

    def test_status_of_one_job(self, url, capsys):
        assert main(["status", JOB, "--url", url, "--json"]) == 0
        assert capsys.readouterr().out == STATUS_ONE

    def test_submit_receipt(self, url, capsys):
        assert main(["submit", "fig4", "--url", url, "--tenant", "alice",
                     "--json"]) == 0
        assert capsys.readouterr().out == SUBMIT_JSON

    @pytest.mark.parametrize("argv, digest", [
        (["broker", "--json"],
         "30ae6e723e4554010b40641c3b71a660f6e0116fe3182fe1e724921c93a9ff1b"),
        (["broker", "--elastic", "--json"],
         "a99ee40991c77997ccfd28e8f146b34de47858f8b56873dff149fedde97d8c26"),
        (["broker", "--ranks", "1000", "--top", "2", "--json"],
         "44fda8c442b2c3a9a786fd5ea6eaa04a83426a7cdc417e2e56ed46cbaf54eaea"),
    ])
    def test_broker(self, argv, digest, capsys):
        main(argv)
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


STATUS_TABLE = """\
{
  "jobs": [
    {
      "job_id": "3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f",
      "state": "done",
      "artifacts": [
        "fig4",
        "table2"
      ],
      "points": 12,
      "tenants": [
        "alice",
        "bob"
      ],
      "coalesced": 1,
      "submitted_wall": 1792424022.43,
      "started_wall": 1792424022.5,
      "finished_wall": 1792424023.125,
      "error": null,
      "transitions": [
        [
          "queued",
          1792424022.43
        ],
        [
          "admitted",
          1792424022.4375
        ],
        [
          "running",
          1792424022.5
        ],
        [
          "done",
          1792424023.125
        ]
      ]
    },
    {
      "job_id": "a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0",
      "state": "cancelled",
      "artifacts": [
        "table1"
      ],
      "points": 1,
      "tenants": [
        "carol"
      ],
      "coalesced": 0,
      "submitted_wall": 1792424030.0,
      "started_wall": null,
      "finished_wall": 1792424031.5,
      "error": "cancelled by tenant",
      "transitions": [
        [
          "queued",
          1792424030.0
        ],
        [
          "cancelled",
          1792424031.5
        ]
      ]
    }
  ],
  "stats": {
    "queue_depth": 0,
    "inflight": 1,
    "dedup_hit_rate": 0.5
  }
}
"""

STATUS_ONE = """\
{
  "jobs": [
    {
      "job_id": "3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f",
      "state": "done",
      "artifacts": [
        "fig4",
        "table2"
      ],
      "points": 12,
      "tenants": [
        "alice",
        "bob"
      ],
      "coalesced": 1,
      "submitted_wall": 1792424022.43,
      "started_wall": 1792424022.5,
      "finished_wall": 1792424023.125,
      "error": null,
      "transitions": [
        [
          "queued",
          1792424022.43
        ],
        [
          "admitted",
          1792424022.4375
        ],
        [
          "running",
          1792424022.5
        ],
        [
          "done",
          1792424023.125
        ]
      ]
    }
  ]
}
"""

SUBMIT_JSON = """\
{
  "job_id": "3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f3f",
  "state": "queued",
  "coalesced": false,
  "tenant": "alice"
}
"""
