"""Tuning-as-a-service: the transport layer over the engine.

The batch tuner is a process you run; this package makes it a service
you query — the ROADMAP's "millions of users" shape: many clients, one
shared evaluation cache, fair scheduling across jobs, deterministic
answers.  ELAPS (PAPERS.md) treats performance experiments as recorded,
queryable jobs rather than one-shot scripts; this is that idea with a
daemon in front of it.

* :mod:`~repro.service.schema` — the versioned ``TuneRequest`` /
  ``TuneResponse`` wire forms and the canonical request digest that
  drives dedup and cache-backed answers;
* :mod:`~repro.service.jobs` — the async job queue: one shared
  :class:`~repro.search.engine.TuningSession`, a fair queue, in-flight
  coalescing, the global evaluation budget, a persistent result store
  and per-job event streams;
* :mod:`~repro.service.daemon` — the ``repro serve`` HTTP/JSON API.

Clients use :mod:`repro.client`, which speaks to either a daemon
(:class:`~repro.client.ServeClient`) or an in-process manager
(:class:`~repro.client.LocalClient`) through one interface.
"""

from .schema import (TuneRequest, TuneResponse, default_n, history_digest,
                     parse_context)
from .jobs import (BudgetExhaustedError, JobManager, ServeJob,
                   ServeResultStore)
from .daemon import ServerHandle, serve, start_server

__all__ = ["TuneRequest", "TuneResponse", "default_n", "history_digest",
           "parse_context", "BudgetExhaustedError", "JobManager",
           "ServeJob", "ServeResultStore", "ServerHandle", "serve",
           "start_server"]
