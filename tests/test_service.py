"""HTTP-level tests of the prep service.

A real server runs on a loopback socket (port 0 → ephemeral); requests
go through ``urllib`` exactly as an external client's would.  The
service determinism contract — a job submitted over HTTP yields
artifacts byte-identical to the same job run any other way — is held
by the conformance matrix's service door (``tests/test_conformance.py``).
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.recipe import PrepRecipe
from repro.service import create_server
from repro.service.schemas import (
    SchemaError,
    job_view,
    parse_job_spec,
)

_TIMEOUT = 60.0


class Client:
    """Tiny JSON/bytes client for one server instance."""

    def __init__(self, server):
        host, port = server.server_address[:2]
        self.base = f"http://{host}:{port}"

    def request(self, method, path, payload=None):
        data = json.dumps(payload).encode() if payload is not None else None
        req = urllib.request.Request(
            self.base + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(req, timeout=_TIMEOUT) as response:
                return response.status, response.read(), dict(response.headers)
        except urllib.error.HTTPError as err:
            return err.code, err.read(), dict(err.headers)

    def get_json(self, path):
        status, body, _ = self.request("GET", path)
        return status, json.loads(body)

    def post_json(self, path, payload):
        status, body, headers = self.request("POST", path, payload)
        return status, json.loads(body), headers

    def submit(self, payload):
        status, body, _ = self.post_json("/jobs", payload)
        assert status == 201, body
        return body["id"]

    def wait(self, job_id, states=("done", "failed", "cancelled")):
        deadline = time.time() + _TIMEOUT
        while time.time() < deadline:
            status, view = self.get_json(f"/jobs/{job_id}")
            assert status == 200
            if view["state"] in states:
                return view
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} never reached {states}")


@pytest.fixture
def server(tmp_path):
    srv = create_server(
        port=0,
        work_dir=tmp_path / "service",
        cache_dir=tmp_path / "service" / "shard-cache",
        concurrency=2,
    )
    # The stdlib default poll (0.5 s) is what shutdown() waits out.
    thread = threading.Thread(
        target=srv.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    yield srv
    srv.shutdown()
    srv.stop()
    thread.join(timeout=10.0)


@pytest.fixture
def client(server):
    return Client(server)


class TestHealth:
    def test_healthz(self, client):
        status, body = client.get_json("/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_s"] >= 0

    def test_readyz(self, client):
        status, body = client.get_json("/readyz")
        assert status == 200
        assert body["ready"] is True
        assert body["checks"]["queue_workers"]["ok"] is True
        assert body["checks"]["cache_dir"]["ok"] is True

    def test_readyz_degrades_when_workers_die(self, server, client):
        server.queue.shutdown(wait=True)
        status, body = client.get_json("/readyz")
        assert status == 503
        assert body["ready"] is False
        # Liveness is unaffected — the process still serves HTTP.
        status, _ = client.get_json("/healthz")
        assert status == 200

    def test_stats_shape(self, client):
        status, body = client.get_json("/stats")
        assert status == 200
        assert body["queue"]["concurrency"] == 2
        assert body["cache"]["enabled"] is True
        assert "hit_rate" in body["cache"]
        assert set(body["jobs"]) == {
            "queued",
            "running",
            "done",
            "failed",
            "cancelled",
        }
        assert "size" in body["pool"] and "alive" in body["pool"]
        from repro.service.jobs import JobStore

        assert set(body["faults"]) == set(JobStore.FAULT_KEYS)
        assert all(v == 0 for v in body["faults"].values())


class TestSubmission:
    def test_submit_and_complete(self, client):
        status, view, headers = client.post_json(
            "/jobs", {"workload": "grating"}
        )
        assert status == 201
        assert headers["Location"] == f"/jobs/{view['id']}"
        assert view["state"] == "queued"
        done = client.wait(view["id"])
        assert done["state"] == "done"
        assert done["result"]["figure_count"] == 50
        assert done["progress"]["shards_total"] >= 1
        assert done["progress"]["shards_done"] == (
            done["progress"]["shards_total"]
        )
        assert done["result"]["execution"]["cache_enabled"] is True
        # Kernel degradation counters are part of the stats contract:
        # built-in workloads must run entirely on the fast path.
        execution = done["result"]["execution"]
        assert execution["kernel_fallbacks"] == 0
        assert execution["kernel_coord_fallbacks"] == 0
        assert execution["kernel_slab_fallbacks"] == 0
        assert execution["kernel_merge_fallbacks"] == 0

    def test_rejects_bad_payloads(self, client):
        cases = [
            {"workload": "nope"},
            {"workload": "grating", "fractur": "vsb"},
            {"workload": "grating", "dose": -1.0},
            {"workload": "grating", "priority": "high"},
            {"priority": 1},
            ["not", "an", "object"],
        ]
        for payload in cases:
            status, body, _ = client.post_json("/jobs", payload)
            assert status == 400, payload
            assert "error" in body
        # A rejected submission never creates a job.
        status, listing = client.get_json("/jobs")
        assert listing["jobs"] == []

    @pytest.mark.parametrize(
        "declared, body, status, complaint",
        [
            # Each used to hang the handler thread in read(-1), answer
            # 500, or read whatever length the client claimed.
            ("-1", b"", 400, "Content-Length must be"),
            ("abc", b"", 400, "Content-Length must be"),
            (str((1 << 20) + 1), b"", 413, "exceeds the 1048576-byte limit"),
            ("0", b"", 400, "request body is empty"),
            ("6", b"[1, 2]", 400, "must be a JSON object"),
        ],
    )
    def test_content_length_is_not_trusted(
        self, server, client, declared, body, status, complaint
    ):
        request = (
            f"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {declared}\r\n\r\n"
        ).encode() + body
        with socket.create_connection(server.server_address[:2], timeout=5.0) as sock:
            sock.sendall(request)
            reply = b""
            while b"\r\n\r\n" not in reply or not reply.endswith(b"}"):
                chunk = sock.recv(65536)  # a hang is a socket.timeout
                assert chunk, reply
                reply += chunk
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status), head
        assert complaint in json.loads(payload)["error"]
        assert client.get_json("/jobs")[1]["jobs"] == []

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("knob", ["timeout", "field_size", "dose"])
    def test_rejects_non_finite_numbers(self, client, knob, literal):
        # Python's json reads these literals; a NaN timeout used to be
        # accepted and gave a job whose budget never expires.
        body = '{"workload": "grating", "%s": %s}' % (knob, literal)
        request = urllib.request.Request(
            client.base + "/jobs", data=body.encode(), method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=_TIMEOUT)
        assert excinfo.value.code == 400
        assert "must be finite" in json.loads(excinfo.value.read())["error"]
        assert client.get_json("/jobs")[1]["jobs"] == []

    def test_unknown_routes_and_jobs_are_404(self, client):
        assert client.request("GET", "/nope")[0] == 404
        assert client.request("GET", "/jobs/nope")[0] == 404
        assert client.request("DELETE", "/jobs/nope")[0] == 404
        assert client.request("GET", "/jobs/nope/result")[0] == 404

    def test_job_listing(self, client):
        first = client.submit({"workload": "grating"})
        second = client.submit({"workload": "grating", "priority": 2})
        status, listing = client.get_json("/jobs")
        assert status == 200
        assert [j["id"] for j in listing["jobs"]] == [first, second]
        client.wait(first)
        client.wait(second)


class TestSharedCache:
    """HTTP ≡ CLI ≡ python, cold and warm, is the conformance matrix's
    service door; what is left here is the server-wide tally."""

    def test_second_submission_feeds_the_cache_totals(self, client):
        payload = {"workload": "fzp", "field_size": 15.0}
        first = client.wait(client.submit(payload))
        second = client.wait(client.submit(payload))
        assert first["state"] == second["state"] == "done"
        shards = second["result"]["execution"]["shard_count"]
        status, stats = client.get_json("/stats")
        assert (stats["cache"]["hits"], stats["cache"]["misses"]) == (shards, shards)


class TestResults:
    def test_result_of_running_job_is_409(self, server, client):
        gate = threading.Event()
        original = server.queue.runner

        def blocking_runner(job):
            assert gate.wait(_TIMEOUT)
            original(job)

        server.queue.runner = blocking_runner
        try:
            job_id = client.submit({"workload": "grating"})
            deadline = time.time() + _TIMEOUT
            while client.get_json(f"/jobs/{job_id}")[1]["state"] != "running":
                assert time.time() < deadline
                time.sleep(0.02)
            status, body, _ = client.request("GET", f"/jobs/{job_id}/result")
            assert status == 409
        finally:
            gate.set()
        client.wait(job_id)

    def test_program_artifact_absent_without_machine_mode(self, client):
        job_id = client.submit({"workload": "grating"})
        view = client.wait(job_id)
        assert view["state"] == "done"
        assert "program" not in view.get("artifacts", {})
        status, _, _ = client.request(
            "GET", f"/jobs/{job_id}/result?artifact=program"
        )
        assert status == 404
        status, _, _ = client.request(
            "GET", f"/jobs/{job_id}/result?artifact=bogus"
        )
        assert status == 400


class TestCancellation:
    def test_cancel_queued_then_conflict_on_finished(self, server, client):
        gate = threading.Event()
        original = server.queue.runner

        def blocking_runner(job):
            assert gate.wait(_TIMEOUT)
            original(job)

        server.queue.runner = blocking_runner
        try:
            # Fill both workers, then queue a victim behind them.
            blockers = [
                client.submit({"workload": "grating"}) for _ in range(2)
            ]
            victim = client.submit({"workload": "grating"})
            status, view = self._delete(client, victim)
            assert status == 200
            assert view["state"] == "cancelled"
            # Cancelling again conflicts: the job is terminal now.
            status, view = self._delete(client, victim)
            assert status == 409
        finally:
            gate.set()
        for job_id in blockers:
            assert client.wait(job_id)["state"] == "done"
        # A cancelled job has no result to download.
        status, _, _ = client.request("GET", f"/jobs/{victim}/result")
        assert status == 404

    def test_cancel_running_stops_cooperatively(self, server, client):
        """DELETE on a *running* job is accepted (202) and the runner
        observes the flag at the next shard boundary: the job lands in
        ``cancelled`` and the worker survives to serve the next job."""
        gate = threading.Event()
        original = server.queue.runner

        def blocking_runner(job):
            assert gate.wait(_TIMEOUT)
            original(job)

        server.queue.runner = blocking_runner
        try:
            job_id = client.submit({"workload": "grating"})
            deadline = time.time() + _TIMEOUT
            while client.get_json(f"/jobs/{job_id}")[1]["state"] != "running":
                assert time.time() < deadline
                time.sleep(0.02)
            status, view = self._delete(client, job_id)
            assert status == 202
            assert view["state"] == "running"
            assert view["cancel_requested"] is True
        finally:
            gate.set()
        done = client.wait(job_id)
        assert done["state"] == "cancelled"
        # Terminal now: a second DELETE conflicts.
        status, _ = self._delete(client, job_id)
        assert status == 409
        # The worker that hosted the cancelled run still serves jobs.
        follow_up = client.submit({"workload": "grating"})
        assert client.wait(follow_up)["state"] == "done"
        status, stats = client.get_json("/stats")
        assert stats["faults"]["cancelled_while_running"] == 1

    @staticmethod
    def _delete(client, job_id):
        status, body, _ = client.request("DELETE", f"/jobs/{job_id}")
        return status, json.loads(body)


class TestFailedJobs:
    def test_runtime_failure_surfaces_and_server_stays_healthy(
        self, server, client
    ):
        original = server.queue.runner

        def exploding_runner(job):
            if job.spec.workload == "serpentine":
                raise RuntimeError("synthetic shard failure")
            original(job)

        server.queue.runner = exploding_runner
        bad = client.submit({"workload": "serpentine"})
        view = client.wait(bad)
        assert view["state"] == "failed"
        assert view["error"] == "RuntimeError: synthetic shard failure"
        # Failed jobs have no downloadable result.
        status, _, _ = client.request("GET", f"/jobs/{bad}/result")
        assert status == 404
        # The server is still healthy and still runs jobs.
        assert client.get_json("/readyz")[0] == 200
        good = client.submit({"workload": "grating"})
        assert client.wait(good)["state"] == "done"
        status, stats = client.get_json("/stats")
        assert stats["jobs"]["failed"] == 1
        assert stats["jobs"]["done"] == 1


    def test_dense_matrix_that_does_not_fit_fails_the_job_with_the_ways_out(
        self, client, dense_matrix_does_not_fit
    ):
        """Not transient — the same shard needs the same bytes on every
        attempt — so ``retries`` are not spent on it."""
        spec = {"workload": "line_and_pad", "pec": True, "retries": 2}
        view = client.wait(client.submit(spec))
        assert view["state"] == "failed"
        assert view["error"].startswith(
            "ValueError: the dense exposure matrix of one shard, "
        )
        assert "--field-size" in view["error"]
        assert "--pec-matrix sparse" in view["error"]
        assert view["attempts"] == 1
        way_out = client.submit({**spec, "pec_matrix": "sparse"})
        assert client.wait(way_out)["state"] == "done"


class TestJobFaultKnobs:
    def test_job_timeout_fails_without_retry(self, server, client):
        """A job that blows its wall-clock budget fails at the next
        shard boundary, is never retried (retries cover *transient*
        faults, a timeout only recurs), and is counted in /stats."""
        job_id = client.submit(
            {"workload": "grating", "timeout": 1e-6, "retries": 3}
        )
        view = client.wait(job_id)
        assert view["state"] == "failed"
        assert "JobTimeoutError" in view["error"]
        assert view["attempts"] == 1
        status, stats = client.get_json("/stats")
        assert stats["faults"]["job_timeouts"] == 1
        assert stats["faults"]["jobs_retried"] == 0
        # The worker survives and still serves jobs.
        follow_up = client.submit({"workload": "grating"})
        assert client.wait(follow_up)["state"] == "done"

    def test_job_retries_recover_transient_failure(self, server, client):
        """With ``retries`` in the spec, a run that fails once is
        re-run in place and the job still lands done."""
        calls = []
        original = server.runner._run_once

        def flaky_run_once(job, deadline):
            calls.append(job.id)
            if len(calls) == 1:
                raise OSError("synthetic infrastructure failure")
            original(job, deadline)

        server.runner._run_once = flaky_run_once
        job_id = client.submit({"workload": "grating", "retries": 2})
        view = client.wait(job_id)
        assert view["state"] == "done"
        assert view["attempts"] == 2
        assert calls == [job_id, job_id]
        status, stats = client.get_json("/stats")
        assert stats["faults"]["jobs_retried"] == 1

    def test_retries_exhausted_marks_failed(self, server, client):
        original = server.runner._run_once

        def doomed_run_once(job, deadline):
            raise OSError("always down")

        server.runner._run_once = doomed_run_once
        try:
            job_id = client.submit({"workload": "grating", "retries": 1})
            view = client.wait(job_id)
        finally:
            server.runner._run_once = original
        assert view["state"] == "failed"
        assert view["error"] == "OSError: always down"
        assert view["attempts"] == 2
        status, stats = client.get_json("/stats")
        assert stats["faults"]["jobs_retried"] == 1

    def test_deterministic_failure_is_not_rerun(self, client, monkeypatch):
        """``retries`` cover transient faults only: a permanent shard
        fault is put to ``RetryPolicy.is_transient`` like everywhere
        else, and re-running a pure function cannot change it."""
        monkeypatch.setenv("REPRO_FAULTS", '{"permanent": [[0, 0]]}')
        job_id = client.submit({"workload": "grating", "retries": 2})
        view = client.wait(job_id)
        assert view["state"] == "failed"
        assert "InjectedFaultError" in view["error"]
        assert view["attempts"] == 1
        status, stats = client.get_json("/stats")
        assert stats["faults"]["jobs_retried"] == 0


class TestSchemas:
    def test_parse_round_trip(self):
        spec = parse_job_spec(
            {
                "workload": "fzp",
                "pec": True,
                "field_size": 15.0,
                "machine": "raster",
                "priority": 7,
                "name": "hot-lot",
            }
        )
        assert spec.workload == "fzp"
        assert spec.priority == 7
        assert spec.job_name == "hot-lot"
        assert spec.recipe == PrepRecipe(
            pec=True, field_size=15.0, machine="raster"
        )

    def test_default_name_is_workload(self):
        assert parse_job_spec({"workload": "fzp"}).job_name == "fzp"

    def test_fault_knob_defaults_and_round_trip(self):
        spec = parse_job_spec({"workload": "fzp"})
        assert spec.timeout is None
        assert spec.retries == 0
        spec = parse_job_spec(
            {"workload": "fzp", "timeout": 30.0, "retries": 2}
        )
        assert spec.timeout == 30.0
        assert spec.retries == 2

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            42,
            {},
            {"workload": ""},
            {"workload": 3},
            {"workload": "fzp", "priority": True},
            {"workload": "fzp", "name": 5},
            {"workload": "fzp", "bogus_knob": 1},
            {"workload": "fzp", "timeout": 0},
            {"workload": "fzp", "timeout": -2.0},
            {"workload": "fzp", "timeout": True},
            {"workload": "fzp", "timeout": "soon"},
            {"workload": "fzp", "retries": -1},
            {"workload": "fzp", "retries": 1.5},
            {"workload": "fzp", "retries": True},
        ],
    )
    def test_bad_payloads_raise_schema_error(self, payload):
        with pytest.raises(SchemaError):
            parse_job_spec(payload)

    def test_job_view_of_fresh_job(self):
        from repro.service.jobs import JobStore

        store = JobStore()
        job = store.create(parse_job_spec({"workload": "grating"}))
        view = job_view(job)
        assert view["state"] == "queued"
        assert view["recipe"]["fracture"] == "trapezoid"
        assert view["error"] is None
        assert view["timeout"] is None
        assert view["retries"] == 0
        assert view["attempts"] == 0
        assert view["cancel_requested"] is False
        assert "artifacts" not in view


@pytest.fixture
def server_sends(server, monkeypatch):
    """Byte counts of every ``send``/``sendall`` made on the server's
    side of a connection (its local port is the listening port), in
    order — segments are counted at the socket, not timed."""
    port = server.server_address[1]
    sends = []

    def counting(name):
        original = getattr(socket.socket, name)

        def call(sock, data, *args):
            if sock.getsockname()[1] == port:
                sends.append(len(data))
            return original(sock, data, *args)

        return call

    for name in ("send", "sendall"):
        monkeypatch.setattr(socket.socket, name, counting(name))
    return sends


class TestOneSegmentReplies:
    """Headers and body leave in one write: two small segments cost a
    keep-alive client ~40 ms per round trip (Nagle + delayed ACK)."""

    def test_submit_status_and_result_are_one_send_each(self, client, server_sends):
        job_id = client.submit({"workload": "grating"})
        assert len(server_sends) == 1
        client.wait(job_id)

        del server_sends[:]
        status, body, _ = client.request("GET", f"/jobs/{job_id}")
        assert status == 200
        assert len(server_sends) == 1 and server_sends[0] > len(body)

        del server_sends[:]
        status, body, headers = client.request("GET", f"/jobs/{job_id}/result")
        assert status == 200
        assert headers["Content-Length"] == str(len(body))
        assert len(server_sends) == 1 and server_sends[0] > len(body)

        del server_sends[:]
        status, body, _ = client.request("GET", "/jobs/nope")
        assert status == 404
        assert len(server_sends) == 1

    def test_large_artifact_still_streams_in_chunks(self, server, client, server_sends):
        from repro.service.app import _CHUNK

        job_id = client.submit({"workload": "grating"})
        client.wait(job_id)
        payload = bytes(range(256)) * 1024  # 256 KiB: four read chunks
        with open(server.store.snapshot(job_id).job_path, "wb") as artifact:
            artifact.write(payload)
        del server_sends[:]
        status, body, headers = client.request("GET", f"/jobs/{job_id}/result")
        assert status == 200
        assert body == payload
        assert headers["Content-Length"] == str(len(payload))
        # Streamed: several sends, none larger than one chunk, headers
        # the only bytes beyond the artifact.
        assert len(server_sends) >= len(payload) // _CHUNK
        assert max(server_sends) <= _CHUNK
        assert 0 < sum(server_sends) - len(payload) < 1024


class TestLateFailureFraming:
    def test_exception_after_headers_closes_connection(
        self, server, monkeypatch
    ):
        """A failure after response bytes are on the wire must close
        the connection — writing a second (500) response would corrupt
        HTTP/1.1 keep-alive framing for the client."""
        import http.client

        from repro.service.app import PrepRequestHandler

        original = PrepRequestHandler._route

        def exploding(handler, method, parts, query):
            if parts == ["boom"]:
                handler._begin_response(200)
                handler.send_header("Content-Type", "application/octet-stream")
                handler.send_header("Content-Length", "1024")
                handler.end_headers()
                handler.wfile.write(b"x" * 10)
                raise OSError("disk vanished mid-stream")
            return original(handler, method, parts, query)

        monkeypatch.setattr(PrepRequestHandler, "_route", exploding)
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=_TIMEOUT)
        try:
            conn.request("GET", "/boom")
            response = conn.getresponse()
            assert response.status == 200
            with pytest.raises(http.client.IncompleteRead) as excinfo:
                response.read()
            # Only the truncated body arrives: no 500 spliced after it.
            assert excinfo.value.partial == b"x" * 10
        finally:
            conn.close()


class TestDistributedService:
    """Distributed dispatch through the job server: recipe knobs ride
    the submission, results stay byte-identical, and the scheduling
    counters surface in ``GET /stats``."""

    def test_dist_totals_zero_by_default(self, client):
        from repro.service.jobs import JobStore

        status, stats = client.get_json("/stats")
        assert status == 200
        assert set(stats["dist"]) == set(JobStore.DIST_KEYS)
        assert all(v == 0 for v in stats["dist"].values())

    def test_distributed_job_matches_local_and_feeds_stats(self, client):
        from repro.dist import (
            WorkerDaemon,
            coordinator_for,
            shutdown_coordinators,
        )

        coordinator = coordinator_for("127.0.0.1:0")
        host, port = coordinator.server_address[:2]
        endpoint = f"{host}:{port}"
        daemon = WorkerDaemon(endpoint, worker_id="svc-worker")
        thread = threading.Thread(target=daemon.run, daemon=True)
        thread.start()
        try:
            # Distributed first: the shared cache is cold, so shards
            # really cross the wire.  The local job then replays from
            # the cache the distributed run populated.
            dist_id = client.submit(
                {
                    "workload": "grating",
                    "dispatch": "distributed",
                    "workers_endpoint": endpoint,
                }
            )
            dist = client.wait(dist_id)
        finally:
            daemon.stop()
            thread.join(timeout=5.0)
            shutdown_coordinators()
        assert dist["state"] == "done"

        local_id = client.submit({"workload": "grating"})
        local = client.wait(local_id)
        assert local["state"] == "done"
        assert dist["result"]["digest"] == local["result"]["digest"]
        execution = dist["result"]["execution"]
        assert execution["dispatch"] == "distributed"
        assert execution["dist"]["leases_granted"] >= 1

        status, stats = client.get_json("/stats")
        assert stats["dist"]["distributed_jobs"] == 1
        assert stats["dist"]["leases_granted"] >= 1

    def test_bad_dispatch_knobs_rejected_at_submission(self, client):
        status, body, _ = client.post_json(
            "/jobs", {"workload": "grating", "dispatch": "cloud"}
        )
        assert status == 400
        assert "dispatch" in body["error"]
        status, body, _ = client.post_json(
            "/jobs", {"workload": "grating", "dispatch": "distributed"}
        )
        assert status == 400
        assert "workers_endpoint" in body["error"]


class TestCancelCancelsTheDeadline:
    """A ``DELETE`` on a running job travels down the attempt's one
    :class:`Deadline` — the same object that carries its timeout — so a
    pending backoff wakes at once, whichever of the cancel and the
    runner's attach lands first."""

    @staticmethod
    def running_job(store):
        job = store.create(parse_job_spec({"workload": "grating"}))
        assert store.move(job.id, "running", "queued")
        return job

    @pytest.mark.parametrize("cancel_first", [False, True])
    def test_cancel_and_attach_in_either_order(self, cancel_first):
        from repro.core.ladder import Deadline
        from repro.service.jobs import JobCancelled, JobStore

        store = JobStore()
        job = self.running_job(store)
        deadline = Deadline()
        woke = []

        def sleeper():
            try:
                deadline.wait(30.0)
            except JobCancelled:
                woke.append(time.monotonic())

        thread = threading.Thread(target=sleeper, daemon=True)
        thread.start()
        if cancel_first:
            assert store.cancel(job.id) == "cancelling"
            deadline.check()  # not attached yet: nothing to cancel
            assert store.attach(job.id, deadline) == 1
        else:
            assert store.attach(job.id, deadline) == 1
            assert store.cancel(job.id) == "cancelling"
        landed = time.monotonic()
        thread.join(timeout=5.0)
        assert woke and woke[0] - landed < 1.0
        with pytest.raises(JobCancelled, match=job.id):
            deadline.check()
        view = store.snapshot(job.id)
        assert view.state == "running"
        assert (view.cancel_requested, view.attempts) == (True, 1)

    def test_a_retry_attempt_inherits_the_cancel(self):
        from repro.core.ladder import Deadline
        from repro.service.jobs import JobCancelled, JobStore

        store = JobStore()
        job = self.running_job(store)
        first, second = Deadline(), Deadline()
        assert store.attach(job.id, first) == 1
        assert store.cancel(job.id) == "cancelling"
        assert store.attach(job.id, second) == 2
        for deadline in (first, second):
            with pytest.raises(JobCancelled):
                deadline.check()

    def test_cancel_of_queued_or_finished_job_leaves_the_deadline(self):
        from repro.core.ladder import Deadline
        from repro.service.jobs import JobStore

        store = JobStore()
        queued = store.create(parse_job_spec({"workload": "grating"}))
        deadline = Deadline()
        store.attach(queued.id, deadline)
        assert store.cancel(queued.id) == "cancelled"
        assert store.cancel(queued.id) == "finished"
        assert store.cancel("nope") == "missing"
        deadline.check()
        assert not store.snapshot(queued.id).cancel_requested
