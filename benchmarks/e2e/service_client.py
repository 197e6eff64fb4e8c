"""A closed-loop HTTP client for the prep service (stdlib only).

One client = one keep-alive connection = one job in flight: submit,
poll every 10 ms until the job is terminal, download the artifact.
Each job comes back as a :class:`JobTimeline` holding the client-side
clock readings (``time.time()``, comparable with the server's
``submitted_at``/``started_at``/``finished_at`` on the same host) that
the traced run splits into submit / queue / run / notify / download.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

POLL_S = 0.010
JOB_TIMEOUT_S = 60.0


class ServiceError(RuntimeError):
    """The service refused, failed or timed out a job."""


@dataclass
class JobTimeline:
    view: dict  # final GET /jobs/{id} body
    artifact: bytes  # the .ebj
    program: Optional[bytes]  # the .ebp, when the recipe has a machine
    posted_at: float
    accepted_at: float
    seen_done_at: float
    downloaded_at: float

    @property
    def latency_s(self) -> float:
        return self.downloaded_at - self.posted_at


class ServiceClient:
    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)

    def close(self) -> None:
        self.conn.close()

    def request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Tuple[int, bytes]:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def get_json(self, path: str) -> dict:
        status, body = self.request("GET", path)
        if status != 200:
            raise ServiceError(f"GET {path} -> {status}: {body[:200]!r}")
        return json.loads(body)

    def wait_ready(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                status, _ = self.request("GET", "/readyz")
                if status == 200:
                    return
            except (OSError, http.client.HTTPException):
                self.conn.close()
            if time.monotonic() > deadline:
                raise ServiceError("service never became ready")
            time.sleep(0.05)

    def _download(self, job_id: str, artifact: str) -> bytes:
        path = f"/jobs/{job_id}/result?artifact={artifact}"
        status, body = self.request("GET", path)
        if status != 200:
            raise ServiceError(f"GET {path} -> {status}")
        return body

    def run_job(self, payload: Dict[str, object]) -> JobTimeline:
        """Submit one job and see it through to its downloaded bytes."""
        posted_at = time.time()
        status, body = self.request("POST", "/jobs", payload)
        accepted_at = time.time()
        if status != 201:
            raise ServiceError(f"POST /jobs -> {status}: {body[:200]!r}")
        job_id = json.loads(body)["id"]
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while True:
            view = self.get_json(f"/jobs/{job_id}")
            if view["state"] in ("done", "failed", "cancelled"):
                break
            if time.monotonic() > deadline:
                raise ServiceError(f"job {job_id} timed out in {view['state']}")
            time.sleep(POLL_S)
        seen_done_at = time.time()
        if view["state"] != "done":
            raise ServiceError(f"job {job_id} {view['state']}: {view['error']}")
        artifact = self._download(job_id, "job")
        downloaded_at = time.time()
        program = (
            self._download(job_id, "program")
            if "program" in view.get("artifacts", {})
            else None
        )
        return JobTimeline(
            view=view,
            artifact=artifact,
            program=program,
            posted_at=posted_at,
            accepted_at=accepted_at,
            seen_done_at=seen_done_at,
            downloaded_at=downloaded_at,
        )
