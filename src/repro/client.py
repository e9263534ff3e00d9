"""``repro.client`` — one client interface, two transports.

Everything that consumes the tuning service (the CLI, the experiment
store, user code) talks to a :class:`TuneClient`; whether the work runs
in this process or in a ``repro serve`` daemon is a constructor choice:

* :class:`LocalClient` drives an in-process
  :class:`~repro.service.jobs.JobManager` — the same submit/dedup/
  cache/execute path the daemon runs, minus HTTP;
* :class:`ServeClient` speaks the daemon's ``/v1`` JSON API over
  stdlib ``urllib`` (no dependencies).

Because both transports end in the same job layer over the same
deterministic engine, a tune through either is bit-identical — cycles,
best parameters and the full search-history digest — to the other and
to a plain in-process :class:`~repro.search.engine.TuningSession`.

::

    from repro import TuneRequest, make_client

    client = make_client()                       # in-process
    client = make_client("http://127.0.0.1:8642")  # daemon
    resp = client.tune(TuneRequest(kernel="ddot", machine="p4e",
                                   budget=100))
    print(resp.tuned().mflops, resp.history_digest)
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Dict, Iterator, List, Optional, Union

from .errors import ReproError
from .search.config import TuneConfig
from .service.jobs import JobManager
from .service.schema import TuneRequest, TuneResponse


class ServiceError(ReproError):
    """The service refused or failed a request (bad request, unknown
    job, transport failure)."""


def _coerce_request(request: Union[TuneRequest, Dict, None],
                    fields: Dict) -> TuneRequest:
    if request is not None and fields:
        raise TypeError("pass either a TuneRequest or field keywords, "
                        "not both")
    if request is None:
        return TuneRequest(**fields)
    if isinstance(request, dict):
        return TuneRequest.from_dict(request)
    return request


class TuneClient:
    """The shared client surface (transport-agnostic)."""

    def tune(self, request: Union[TuneRequest, Dict, None] = None,
             **fields) -> TuneResponse:
        """Submit and wait: one call, one :class:`TuneResponse`.
        Accepts a prepared request or ``TuneRequest`` field keywords
        (``client.tune(kernel="ddot", budget=100)``)."""
        raise NotImplementedError

    def submit(self, request: Union[TuneRequest, Dict, None] = None,
               **fields) -> Dict:
        """Enqueue without waiting; returns the submit ticket
        ``{job_id, digest, status, how}``."""
        raise NotImplementedError

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> TuneResponse:
        raise NotImplementedError

    def job(self, job_id: str) -> Dict:
        raise NotImplementedError

    def events(self, job_id: str, start: int = 0,
               follow: bool = False) -> Iterator[Dict]:
        """The job's trace-v2 events from ``start``; with ``follow``,
        yields live until the job finishes."""
        raise NotImplementedError

    def stats(self) -> Dict:
        raise NotImplementedError

    def results(self, limit: Optional[int] = None) -> List[Dict]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class LocalClient(TuneClient):
    """In-process transport: owns (or borrows) a
    :class:`~repro.service.jobs.JobManager` and drains submitted work
    in the calling thread."""

    def __init__(self, config: Optional[TuneConfig] = None,
                 results_dir: Optional[str] = None,
                 manager: Optional[JobManager] = None):
        self._own = manager is None
        self.manager = manager if manager is not None else JobManager(
            config=config, results_dir=results_dir)

    @property
    def session(self):
        """The underlying engine session (stats, cache, trace)."""
        return self.manager.session

    def tune(self, request=None, **fields) -> TuneResponse:
        request = _coerce_request(request, fields)
        response = self.manager.run_inline(request)
        if not response.ok:
            raise ServiceError(f"tune failed: {response.error}")
        return response

    def submit(self, request=None, **fields) -> Dict:
        request = _coerce_request(request, fields)
        job, how = self.manager.submit(request)
        return {"job_id": job.id, "digest": job.digest,
                "status": job.state, "how": how}

    def wait(self, job_id, timeout=None) -> TuneResponse:
        # no dispatcher: drain anything queued before blocking
        self.manager.drain()
        return self.manager.wait(job_id, timeout=timeout)

    def job(self, job_id) -> Dict:
        job = self.manager.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return job.snapshot()

    def events(self, job_id, start=0, follow=False) -> Iterator[Dict]:
        return self.manager.events(job_id, start, follow)

    def stats(self) -> Dict:
        return self.manager.stats_dict()

    def results(self, limit=None) -> List[Dict]:
        return self.manager.results(limit=limit)

    def close(self) -> None:
        if self._own:
            self.manager.close()


class ServeClient(TuneClient):
    """HTTP transport to a running ``repro serve`` daemon."""

    def __init__(self, url: str, timeout: float = 600.0):
        self.url = url.rstrip("/")
        self.timeout = timeout

    # -- low-level ------------------------------------------------------
    def _request(self, method: str, path: str,
                 body: Optional[Dict] = None):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            self.url + path, data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            return urllib.request.urlopen(req, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read()).get("error", "")
            except (OSError, json.JSONDecodeError, AttributeError):
                detail = ""
            raise ServiceError(
                f"{method} {path} -> HTTP {exc.code}"
                + (f": {detail}" if detail else "")) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(f"cannot reach daemon at {self.url}: "
                               f"{exc.reason}") from exc

    def _json(self, method: str, path: str,
              body: Optional[Dict] = None) -> Dict:
        with self._request(method, path, body) as resp:
            return json.loads(resp.read())

    # -- API ------------------------------------------------------------
    def tune(self, request=None, **fields) -> TuneResponse:
        request = _coerce_request(request, fields)
        payload = self._json("POST", "/v1/tune?wait=1",
                             request.to_dict())
        response = TuneResponse.from_dict(payload)
        if not response.ok:
            raise ServiceError(f"tune failed: {response.error}")
        return response

    def submit(self, request=None, **fields) -> Dict:
        request = _coerce_request(request, fields)
        return self._json("POST", "/v1/tune", request.to_dict())

    def wait(self, job_id, timeout=None) -> TuneResponse:
        import time
        deadline = (time.time() + timeout) if timeout is not None else None
        while True:
            snap = self.job(job_id)
            if snap["state"] in ("done", "error"):
                if snap.get("response"):
                    return TuneResponse.from_dict(snap["response"])
                return TuneResponse(digest=snap["digest"], job_id=job_id,
                                    status=snap["state"],
                                    error=snap.get("error") or "job lost")
            if deadline is not None and time.time() > deadline:
                raise TimeoutError(f"job {job_id} still "
                                   f"{snap['state']} after {timeout}s")
            time.sleep(0.05)

    def job(self, job_id) -> Dict:
        return self._json("GET", f"/v1/jobs/{job_id}")

    def events(self, job_id, start=0, follow=False) -> Iterator[Dict]:
        path = (f"/v1/jobs/{job_id}/events?from={int(start)}"
                + ("&follow=1" if follow else ""))
        with self._request("GET", path) as resp:
            for line in resp:
                line = line.strip()
                if line:
                    yield json.loads(line)

    def compile(self, kernel: str, machine: str = "p4e",
                params: Optional[Dict] = None) -> Dict:
        """One verified compile on the daemon; answers ``{ok, applied,
        ir_digest}`` (the fuzzer's ``--via-serve`` oracle)."""
        return self._json("POST", "/v1/compile",
                          {"kernel": kernel, "machine": machine,
                           "params": params or {}})

    def stats(self) -> Dict:
        return self._json("GET", "/v1/stats")

    def results(self, limit=None) -> List[Dict]:
        path = "/v1/results" + (f"?limit={int(limit)}" if limit else "")
        return self._json("GET", path)["results"]

    def healthz(self) -> Dict:
        return self._json("GET", "/v1/healthz")


def make_client(serve_url: Optional[str] = None,
                config: Optional[TuneConfig] = None,
                results_dir: Optional[str] = None) -> TuneClient:
    """The one constructor callers need: a daemon URL gets an HTTP
    client, no URL gets an in-process one — the CLI's tune paths call
    this so local and daemon execution share one code path."""
    if serve_url:
        return ServeClient(serve_url)
    return LocalClient(config=config, results_dir=results_dir)


__all__ = ["TuneClient", "LocalClient", "ServeClient", "ServiceError",
           "make_client"]
