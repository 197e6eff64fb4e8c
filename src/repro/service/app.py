"""The HTTP front-end of the prep service (stdlib only).

Endpoints::

    POST   /jobs                 submit a job (201 + job record)
    GET    /jobs                 list all jobs
    GET    /jobs/{id}            job state machine + progress + stats
    GET    /jobs/{id}/result     artifact bytes (?artifact=job|program)
    DELETE /jobs/{id}            cancel a job: queued → 200 (gone now),
                                 running → 202 (its deadline is cancelled:
                                 it stops at the next shard boundary,
                                 backoff, pool wait or lease),
                                 terminal → 409
    GET    /healthz              liveness
    GET    /readyz               readiness (503 when not ready)
    GET    /stats                queue depth, pool state, cache hit rate

Built on :class:`http.server.ThreadingHTTPServer` so the service has no
dependency beyond the toolchain the pipeline already needs — a FastAPI
front could mount the same store/queue/runner objects, but must stay an
*optional* extra.  Request handlers only translate HTTP to store/queue
calls; every unexpected exception becomes a 500 response and the server
keeps serving.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.core.cache import ShardCache
from repro.service import health
from repro.service.jobs import JobStore
from repro.service.queue import JobQueue
from repro.service.runner import JobRunner
from repro.service.schemas import SchemaError, job_view, parse_job_spec

_CHUNK = 64 * 1024
#: Largest request body read (job payloads are a few hundred bytes).
_MAX_BODY = 1 << 20


class BodyTooLarge(SchemaError):
    """A declared request body over :data:`_MAX_BODY` (HTTP 413)."""


class PrepServer(ThreadingHTTPServer):
    """The HTTP server plus the service objects the handlers act on."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        store: JobStore,
        queue: JobQueue,
        runner: JobRunner,
        cache: Optional[ShardCache],
        work_dir: Union[str, Path],
    ) -> None:
        super().__init__(address, PrepRequestHandler)
        self.store = store
        self.queue = queue
        self.runner = runner
        self.cache = cache
        self.work_dir = Path(work_dir)
        self.started_at = time.time()

    def start(self) -> None:
        """Start the queue workers (the HTTP loop is the caller's:
        ``serve_forever()`` inline or on a thread)."""
        self.queue.start()

    def stop(self) -> None:
        """Drain nothing, stop everything: queue workers then sockets."""
        self.queue.shutdown(wait=True)
        self.server_close()

    def stats_snapshot(self) -> dict:
        """The ``GET /stats`` body."""
        from repro.core.ladder import worker_pool_status

        cache_stats = {"enabled": self.cache is not None}
        if self.cache is not None:
            stats = self.cache.stats
            cache_stats.update(
                hits=stats.hits,
                misses=stats.misses,
                stores=stats.stores,
                hit_rate=stats.hit_rate,
                entries=self.cache.entry_count(),
            )
        return {
            "queue": {
                "depth": self.queue.depth(),
                "running": self.queue.running_count(),
                "concurrency": self.queue.concurrency,
                "workers_alive": self.queue.workers_alive(),
            },
            "pool": worker_pool_status(),
            "cache": cache_stats,
            "jobs": self.store.counts(),
            "faults": self.store.totals("faults"),
            "dist": self.store.totals("dist"),
        }


class PrepRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP verbs+paths onto the server's store/queue/runner."""

    server: PrepServer
    protocol_version = "HTTP/1.1"
    # Buffered ``wfile``, flushed once per request in ``_dispatch``: the
    # stdlib default (0) sends headers and body as two segments, and the
    # second waits ~40 ms on Nagle + the client's delayed ACK.  An
    # artifact larger than the buffer still streams chunk by chunk.
    wbufsize = _CHUNK

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence per-request stderr chatter (tests, CI logs)."""

    def _begin_response(self, status: int) -> None:
        """``send_response`` + bookkeeping: once any bytes of a
        response are on the wire, a late failure must close the
        connection instead of emitting a second response (which would
        corrupt HTTP/1.1 keep-alive framing for the client)."""
        self._response_begun = True
        self.send_response(status)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self._begin_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_json(self):
        declared = self.headers.get("Content-Length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            # No trustworthy framing: whatever follows is not a request.
            self.close_connection = True
            raise SchemaError(
                f"Content-Length must be a non-negative integer, got {declared!r}"
            )
        length = int(declared)
        if length > _MAX_BODY:
            self.close_connection = True  # the body stays unread
            raise BodyTooLarge(
                f"request body of {length} bytes exceeds the {_MAX_BODY}-byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise SchemaError("request body is empty; send a JSON object")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"request body is not valid JSON: {exc}") from exc

    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        query = parse_qs(split.query)
        self._response_begun = False
        try:
            handled = self._route(method, parts, query)
            self.wfile.flush()
        except SchemaError as exc:
            status = 413 if isinstance(exc, BodyTooLarge) else 400
            self._send_error_json(status, str(exc))
            return
        except BrokenPipeError:  # client went away mid-response
            self.close_connection = True
            return
        except Exception as exc:  # noqa: BLE001 - server must stay up
            if self._response_begun:
                # Headers (and possibly part of a body) are already on
                # the wire — a second response would corrupt keep-alive
                # framing, so drop the connection instead.
                self.close_connection = True
                return
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")
            return
        if not handled:
            self._send_error_json(404, f"no route for {method} {split.path}")

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    # -- routing -----------------------------------------------------------

    def _route(self, method: str, parts: list, query: dict) -> bool:
        if method == "GET" and parts == ["healthz"]:
            self._send_json(200, health.liveness(self.server))
            return True
        if method == "GET" and parts == ["readyz"]:
            ready, detail = health.readiness(self.server)
            self._send_json(200 if ready else 503, detail)
            return True
        if method == "GET" and parts == ["stats"]:
            self._send_json(200, self.server.stats_snapshot())
            return True
        if parts and parts[0] == "jobs":
            if method == "POST" and len(parts) == 1:
                return self._submit_job()
            if method == "GET" and len(parts) == 1:
                jobs = [job_view(j) for j in self.server.store.list()]
                self._send_json(200, {"jobs": jobs})
                return True
            if len(parts) >= 2:
                return self._job_routes(method, parts, query)
        return False

    def _job_routes(self, method: str, parts: list, query: dict) -> bool:
        job_id = parts[1]
        # snapshot(), not get(): handlers render the record, and a live
        # record racing a worker's move to done could be seen half-written
        # (state "done" with result/job_path still None).
        job = self.server.store.snapshot(job_id)
        if job is None:
            self._send_error_json(404, f"no such job {job_id!r}")
            return True
        if method == "GET" and len(parts) == 2:
            self._send_json(200, job_view(job))
            return True
        if method == "GET" and len(parts) == 3 and parts[2] == "result":
            self._send_result(job, query)
            return True
        if method == "DELETE" and len(parts) == 2:
            disposition = self.server.queue.cancel(job_id)
            if disposition == "cancelled":
                self._send_json(
                    200, job_view(self.server.store.snapshot(job_id))
                )
            elif disposition == "cancelling":
                # Accepted: the run's deadline is cancelled, so it stops
                # at its next check and the runner lands the job in
                # ``cancelled``.
                self._send_json(
                    202, job_view(self.server.store.snapshot(job_id))
                )
            else:
                current = self.server.store.snapshot(job_id)
                state = current.state if current is not None else job.state
                self._send_error_json(
                    409,
                    f"job {job_id!r} is {state}; finished jobs "
                    "cannot be cancelled",
                )
            return True
        return False

    # -- handlers ----------------------------------------------------------

    def _submit_job(self) -> bool:
        spec = parse_job_spec(self._read_json())
        job = self.server.store.create(spec)
        self.server.queue.submit(job)
        body = json.dumps(job_view(job)).encode()
        self._begin_response(201)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Location", f"/jobs/{job.id}")
        self.end_headers()
        self.wfile.write(body)
        return True

    def _send_result(self, job, query: dict) -> None:
        if job.state != "done":
            status = 404 if job.state in ("failed", "cancelled") else 409
            self._send_error_json(
                status,
                f"job {job.id!r} is {job.state}; results exist only for "
                "done jobs",
            )
            return
        artifact = (query.get("artifact") or ["job"])[0]
        if artifact == "job":
            path = job.job_path
        elif artifact == "program":
            path = job.program_path
            if path is None:
                self._send_error_json(
                    404,
                    f"job {job.id!r} exported no machine program "
                    "(submit with a 'machine' mode)",
                )
                return
        else:
            self._send_error_json(
                400, f"artifact must be 'job' or 'program', got {artifact!r}"
            )
            return
        path = Path(path)
        try:
            size = path.stat().st_size
        except OSError:
            self._send_error_json(
                500, f"artifact of job {job.id!r} is missing on disk"
            )
            return
        self._begin_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(size))
        self.send_header(
            "Content-Disposition", f'attachment; filename="{path.name}"'
        )
        self.end_headers()
        with path.open("rb") as stream:
            while True:
                chunk = stream.read(_CHUNK)
                if not chunk:
                    break
                self.wfile.write(chunk)


def create_server(
    host: str = "127.0.0.1",
    port: int = 8080,
    cache_dir: Optional[Union[str, Path]] = None,
    work_dir: Union[str, Path] = ".prep-service",
    concurrency: int = 2,
    start: bool = True,
) -> PrepServer:
    """Wire up a ready-to-serve :class:`PrepServer`.

    Args:
        host / port: bind address (``port=0`` picks a free port —
            read it back from ``server.server_address``).
        cache_dir: shared shard-cache directory (``None`` = no cache —
            every tenant then recomputes everything, so pass one in
            production; the CLI default is ``<work_dir>/shard-cache``).
        work_dir: artifact root for job results.
        concurrency: maximum jobs running at once.
        start: spawn the queue workers before returning.
    """
    store = JobStore()
    cache = ShardCache(cache_dir) if cache_dir is not None else None
    runner = JobRunner(store, work_dir=work_dir, cache=cache)
    queue = JobQueue(store, runner, concurrency=concurrency)
    server = PrepServer(
        (host, port), store, queue, runner, cache, work_dir
    )
    if start:
        server.start()
    return server
