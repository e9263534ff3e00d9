"""``repro serve`` — the HTTP/JSON transport over the job layer.

A deliberately dependency-free daemon: stdlib ``ThreadingHTTPServer``
in front of one :class:`~repro.service.jobs.JobManager`.  The API is
versioned under ``/v1``:

=======  ==========================  =================================
method   path                        body / answer
=======  ==========================  =================================
POST     /v1/tune                    TuneRequest JSON -> submit ticket
                                     {job_id, digest, status, how};
                                     ``?wait=1`` blocks and answers
                                     the full TuneResponse instead
POST     /v1/compile                 {kernel, machine, params} -> one
                                     verified compile's IR digest (the
                                     fuzzer's ``--via-serve`` oracle)
GET      /v1/jobs/{id}               job snapshot (+ response if done)
GET      /v1/jobs/{id}/events        NDJSON stream of the job's trace
                                     v2 events; ``?from=N`` replays
                                     from an offset, ``?follow=1``
                                     streams live until the job ends
GET      /v1/results                 completed TuneResponses, newest
                                     first (result store + resident)
GET      /v1/stats                   dedup/cache counters, engine
                                     stats, evaluation budget, config
GET      /v1/metrics                 Prometheus text exposition:
                                     counters and gauges read from
                                     their owners at scrape time, the
                                     process's recorded histograms
                                     (``?format=json`` for the JSON
                                     snapshot)
GET      /v1/healthz                 {ok, version}
=======  ==========================  =================================

Transport is the *only* thing this module adds: every decision about
dedup, caching, ordering and execution lives in the job layer, so an
in-process :class:`~repro.client.LocalClient` and an HTTP client get
bit-identical answers by construction.
"""

from __future__ import annotations

import json
import math
import sys
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional
from urllib.parse import parse_qs, urlparse

from .. import __version__
from ..obs import metrics as _metrics
from ..search.config import TuneConfig
from .jobs import BudgetExhaustedError, JobManager
from .schema import TuneRequest

#: cap on accepted request bodies (a tune request is ~hundreds of bytes)
MAX_BODY = 1 << 20


class ServiceHandler(BaseHTTPRequestHandler):
    server_version = f"repro-serve/{__version__}"

    # -- plumbing -------------------------------------------------------
    @property
    def manager(self) -> JobManager:
        return self.server.manager   # type: ignore[attr-defined]

    def log_message(self, fmt, *args):   # noqa: A003 — stdlib signature
        if getattr(self.server, "verbose", False):
            sys.stderr.write("serve: %s - %s\n"
                             % (self.address_string(), fmt % args))

    def _json(self, code: int, payload: Dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _text(self, code: int, body: str,
              content_type: str = "text/plain; version=0.0.4; "
                                  "charset=utf-8") -> None:
        data = body.encode()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _error(self, code: int, message: str) -> None:
        self._json(code, {"error": message})

    def _body(self) -> Optional[Dict]:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            return None
        if not 0 < length <= MAX_BODY:
            return None
        try:
            data = json.loads(self.rfile.read(length),
                              parse_float=_finite, parse_constant=_finite)
        except (OSError, ValueError):   # incl. JSONDecodeError, bad UTF-8
            return None
        return data if isinstance(data, dict) else None

    # -- routes ---------------------------------------------------------
    def do_POST(self):   # noqa: N802 — stdlib naming
        url = urlparse(self.path)
        query = parse_qs(url.query)
        try:
            if url.path == "/v1/tune":
                return self._post_tune(query)
            if url.path == "/v1/compile":
                return self._post_compile()
            return self._error(404, f"no such endpoint {url.path!r}")
        except BrokenPipeError:
            pass
        except Exception as exc:   # noqa: BLE001 — a 500, not a crash
            try:
                self._error(500, f"{type(exc).__name__}: {exc}")
            except OSError:
                pass

    def do_GET(self):   # noqa: N802 — stdlib naming
        url = urlparse(self.path)
        query = parse_qs(url.query)
        try:
            if url.path == "/v1/healthz":
                return self._json(200, {"ok": True,
                                        "version": __version__})
            if url.path == "/v1/stats":
                return self._json(200, self.manager.stats_dict())
            if url.path == "/v1/metrics":
                counters, gauges = self.manager.metric_series()
                if _arg(query, "format") == "json":
                    return self._json(200, _metrics.snapshot(counters,
                                                             gauges))
                return self._text(200, _metrics.render_prometheus(
                    counters, gauges))
            if url.path == "/v1/results":
                limit = _int_arg(query, "limit")
                return self._json(200, {"results":
                                        self.manager.results(limit=limit)})
            parts = [p for p in url.path.split("/") if p]
            if len(parts) >= 3 and parts[:2] == ["v1", "jobs"]:
                job = self.manager.get(parts[2])
                if job is None:
                    return self._error(404, f"unknown job {parts[2]!r}")
                if len(parts) == 3:
                    return self._json(200, job.snapshot())
                if len(parts) == 4 and parts[3] == "events":
                    return self._stream_events(job, query)
            return self._error(404, f"no such endpoint {url.path!r}")
        except BrokenPipeError:
            pass
        except Exception as exc:   # noqa: BLE001 — a 500, not a crash
            try:
                self._error(500, f"{type(exc).__name__}: {exc}")
            except OSError:
                pass

    # -- endpoint bodies ------------------------------------------------
    def _post_tune(self, query) -> None:
        data = self._body()
        if data is None:
            return self._error(400, "body must be a JSON TuneRequest")
        try:
            request = TuneRequest.from_dict(data)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            return self._error(400, f"bad TuneRequest: {exc}")
        try:
            job, how = self.manager.submit(request,
                                           client=self.client_address[0])
        except BudgetExhaustedError as exc:
            return self._error(429, str(exc))
        if _flag(query, "wait"):
            response = self.manager.annotate(self.manager.wait(job.id),
                                             how)
            payload = response.to_dict()
            payload["how"] = how
            return self._json(200, payload)
        return self._json(202, {"job_id": job.id, "digest": job.digest,
                                "status": job.state, "how": how})

    def _post_compile(self) -> None:
        data = self._body()
        if data is None:
            return self._error(400, "body must be JSON "
                                    "{kernel, machine, params}")
        try:
            info = self.manager.compile_info(data["kernel"],
                                             data.get("machine", "p4e"),
                                             data.get("params") or {})
        except (KeyError, ValueError, TypeError) as exc:
            return self._error(400, f"bad compile request: {exc}")
        except Exception as exc:   # noqa: BLE001 — compile faults are data
            return self._json(200, {"ok": False,
                                    "error": f"{type(exc).__name__}: {exc}"})
        info["ok"] = True
        return self._json(200, info)

    def _stream_events(self, job, query) -> None:
        """NDJSON event replay/stream.  HTTP/1.0 close-delimited body:
        the connection closing is the end-of-stream marker, which keeps
        both this handler and the stdlib client trivially simple."""
        start = _int_arg(query, "from") or 0
        follow = _flag(query, "follow")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        for record in self.manager.events(job.id, start, follow):
            self.wfile.write(json.dumps(record).encode() + b"\n")


def _finite(text: str) -> float:
    """``json.loads`` accepts ``NaN``, ``Infinity`` and ``1e999``
    (which overflows to ``inf``); no route takes a non-finite number,
    so the body is refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} in request body")
    return value


def _arg(query: Dict, name: str) -> Optional[str]:
    values = query.get(name)
    return values[0] if values else None


def _int_arg(query: Dict, name: str) -> Optional[int]:
    values = query.get(name)
    if not values:
        return None
    try:
        return int(values[0])
    except ValueError:
        return None


def _flag(query: Dict, name: str) -> bool:
    values = query.get(name)
    return bool(values) and values[0] not in ("0", "false", "no", "")


class ReproHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


@dataclass
class ServerHandle:
    """A running daemon: its URL, server, manager and teardown."""

    server: ReproHTTPServer
    manager: JobManager
    thread: threading.Thread

    @property
    def url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5.0)
        self.manager.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def start_server(host: str = "127.0.0.1", port: int = 0,
                 config: Optional[TuneConfig] = None,
                 results_dir: Optional[str] = None,
                 manager: Optional[JobManager] = None,
                 autostart: bool = True,
                 verbose: bool = False,
                 max_total_evals: Optional[int] = None) -> ServerHandle:
    """Boot a daemon on ``host:port`` (``port=0`` picks a free one) and
    return a handle; the HTTP loop runs in a background thread.  With
    ``autostart=False`` the dispatcher is not started — submissions
    queue until ``handle.manager.start()`` (tests use this to stage
    deterministic concurrency).  A serving process is the primary
    scrape target, so it turns on the process's histogram recording
    behind ``GET /v1/metrics``."""
    _metrics.enable()
    if manager is None:
        manager = JobManager(config=config, results_dir=results_dir,
                             max_total_evals=max_total_evals)
    if autostart:
        manager.start()
    server = ReproHTTPServer((host, port), ServiceHandler)
    server.manager = manager      # type: ignore[attr-defined]
    server.verbose = verbose      # type: ignore[attr-defined]
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-serve-http", daemon=True)
    thread.start()
    return ServerHandle(server=server, manager=manager, thread=thread)


def serve(host: str = "127.0.0.1", port: int = 8642,
          config: Optional[TuneConfig] = None,
          results_dir: Optional[str] = None,
          verbose: bool = False,
          max_total_evals: Optional[int] = None) -> int:
    """Blocking entry point behind ``repro serve``: boot, print the
    URL, run until interrupted, tear down cleanly (session pool shut
    down, trace file closed) on the way out."""
    handle = start_server(host=host, port=port, config=config,
                          results_dir=results_dir, verbose=verbose,
                          max_total_evals=max_total_evals)
    print(f"# repro serve: listening on {handle.url} "
          f"(jobs={handle.manager.config.jobs}, "
          f"cache={handle.manager.config.cache_dir or 'off'}, "
          f"results={results_dir or 'off'})", flush=True)
    try:
        while handle.thread.is_alive():
            handle.thread.join(timeout=0.5)
        return 0
    except KeyboardInterrupt:
        print("# repro serve: shutting down", flush=True)
        return 0
    finally:
        handle.close()


__all__ = ["ServerHandle", "ServiceHandler", "ReproHTTPServer",
           "start_server", "serve", "MAX_BODY"]
