"""The versioned wire schema of the tuning service.

A :class:`TuneRequest` names one tuning problem plus everything that
shapes how it is searched — the same fields a local
:class:`~repro.search.config.TuneConfig` run takes, minus the
engine-side knobs (:data:`ENGINE_KNOBS`: ``jobs``, ``cache_dir``,
``trace``, ...), which belong to the *daemon*, not the request.
Requests canonicalize on construction (``canonical_machine``,
``parse_context``, ``default_n`` — the one spelling of each) so that
every spelling of the same problem produces the same canonical
:meth:`~TuneRequest.digest`; that digest is the service's unit of
identity — it drives both in-flight coalescing (two concurrent
identical requests share one engine run) and cache-backed instant
answers (a repeat of a completed request is served from the result
store without re-evaluation).

Both payloads are schema-versioned with the repo-wide tolerant
``from_dict`` convention: unknown keys are ignored (a newer client may
send fields an older daemon does not know), missing optional keys take
their defaults, and a schema number from the future is refused loudly.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields
from typing import Dict, Optional

from .. import __version__
from ..kernels import REGISTRY
from ..machine import canonical_machine, parse_context
from ..records import canonical_digest
from ..search.config import TuneConfig
from ..search.drivers import TunedKernel
from ..search.engine import job_key
from ..search.linesearch import SearchResult
from ..timing.timer import default_n
from ..util import check_schema


def history_digest(search: Optional[SearchResult]) -> Optional[str]:
    """SHA-256 over the search's full (phase, params-key, cycles)
    history — the strongest cheap witness that two runs of the same
    request walked the identical search.  The determinism acceptance
    tests compare this digest between the daemon and the in-process
    API."""
    if search is None:
        return None
    return canonical_digest(search.to_dict()["history"])


#: the request fields that name the problem; every other field is a
#: search knob mapped onto its TuneConfig namesake
_PROBLEM = ("kernel", "machine", "context", "n")
#: request fields whose TuneConfig namesake is spelled differently
_CONFIG_NAMES = {"budget": "max_evals", "test": "run_tester"}


def _number(name: str, value, kind: type):
    """``value`` as ``kind`` (int or float), refusing what a cast would
    silently change: a bool, a non-number and, for an int, a number
    with a fractional part (or a non-finite one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if kind is int and not isinstance(value, numbers.Integral):
        if not float(value).is_integer():
            raise ValueError(f"{name} must be an integer, got {value!r}")
    return kind(value)


@dataclass
class TuneRequest:
    """One tuning problem, canonicalized and digestible.

    ``budget`` is the evaluation budget (``TuneConfig.max_evals``);
    ``test`` runs the tester on the winner before it is returned.  All
    other fields mirror their :class:`TuneConfig` namesakes.
    """

    kernel: str
    machine: str = "p4e"
    context: str = "out-of-cache"
    n: Optional[int] = None
    strategy: str = "line"
    seed: int = 0
    budget: int = 400
    observe: bool = False
    verify_ir: bool = False
    min_gain: float = 0.005
    enable_block_fetch: bool = False
    test: bool = True

    def __post_init__(self):
        # normalize every int/float knob to its default's type once, so
        # canonical(), to_config() and digest() read clean values; a
        # bool knob takes only a bool ("false" would coerce to True) and
        # a number knob only a number (True would coerce to 1, 2.9 to 2)
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is bool:
                if not isinstance(value, bool):
                    raise ValueError(f"{f.name} must be a boolean, "
                                     f"got {value!r}")
            elif type(f.default) in (int, float):
                setattr(self, f.name,
                        _number(f.name, value, type(f.default)))
        if self.kernel not in REGISTRY:
            raise ValueError(f"unknown kernel {self.kernel!r}; the "
                             f"service tunes registry kernels")
        self.machine = canonical_machine(self.machine)
        self.context = parse_context(self.context).value
        self.n = (_number("n", self.n, int) if self.n is not None
                  else default_n(self.kernel, self.context))
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")
        # borrow TuneConfig's validation for the search-shaping fields
        # (strategy registry membership, seed/budget/min_gain ranges)
        self.to_config()

    # -- identity -------------------------------------------------------
    def canonical(self) -> Dict:
        """The digest-relevant fields in canonical form."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def digest(self) -> str:
        """Canonical request identity: every spelling of the same
        problem (machine aliases, context short forms, defaulted N)
        digests identically; any field that could change the answer —
        including the code version — changes the digest."""
        return canonical_digest({"v": __version__, **self.canonical()})

    def key(self) -> str:
        """Human-readable job key (matches the engine's trace keys)."""
        return job_key(self.kernel, self.machine, self.context, self.n)

    # -- conversions ----------------------------------------------------
    @classmethod
    def from_config(cls, kernel, machine, context, n,
                    config: TuneConfig) -> "TuneRequest":
        """The request for one problem searched as ``config`` says —
        the inverse of :meth:`to_config`.  Engine-side knobs
        (:data:`ENGINE_KNOBS`) have no wire field and are dropped."""
        knobs = {f.name: getattr(config, _CONFIG_NAMES.get(f.name, f.name))
                 for f in fields(cls) if f.name not in _PROBLEM}
        return cls(kernel=kernel, machine=machine, context=context, n=n,
                   **knobs)

    def to_config(self, base: Optional[TuneConfig] = None) -> TuneConfig:
        """The per-request :class:`TuneConfig`: request fields override
        the search-shaping knobs; operational knobs (``jobs``,
        ``cache_dir``, ``trace``) come from ``base`` — the daemon's own
        configuration."""
        base = base if base is not None else TuneConfig()
        knobs = {_CONFIG_NAMES.get(k, k): v
                 for k, v in self.canonical().items() if k not in _PROBLEM}
        return base.replace(space=None, start=None, **knobs)

    def to_dict(self) -> Dict:
        return {"schema": 1, **self.canonical()}

    @staticmethod
    def from_dict(data: Dict) -> "TuneRequest":
        """Tolerant: unknown keys are ignored, ``max_evals`` is an
        accepted alias for ``budget``, missing fields take defaults."""
        check_schema(data, "TuneRequest")
        if "kernel" not in data:
            raise ValueError("TuneRequest: missing required field 'kernel'")
        names = {f.name for f in fields(TuneRequest)}
        kw = {k: v for k, v in data.items() if k in names}
        if "budget" not in kw and "max_evals" in data:
            kw["budget"] = data["max_evals"]
        return TuneRequest(**kw)


#: the TuneConfig fields with no request namesake: they shape how the
#: engine runs, never the answer, so a daemon takes its own
ENGINE_KNOBS = tuple(
    f.name for f in fields(TuneConfig)
    if f.name not in {_CONFIG_NAMES.get(r.name, r.name)
                      for r in fields(TuneRequest)})


@dataclass
class TuneResponse:
    """What the service answers a :class:`TuneRequest` with.

    ``result`` is the :class:`~repro.search.drivers.TunedKernel`
    summary dict (FKO is deterministic, so the client can recompile the
    winning kernel from it bit-identically); ``history_digest`` hashes
    the full search history, and ``stats`` is the per-job slice of the
    engine counters (evaluations actually run, cache hits, ...).
    """

    digest: str
    job_id: str
    status: str                      # queued | running | done | error
    result: Optional[Dict] = None    # TunedKernel.to_dict()
    history_digest: Optional[str] = None
    stats: Dict = field(default_factory=dict)
    wall: float = 0.0
    error: Optional[str] = None
    #: answered without an engine run: "store" (persistent result
    #: store) or "memory" (completed job still resident); None = ran
    served_from: Optional[str] = None

    def __post_init__(self):
        self._kernel: Optional[TunedKernel] = None

    @property
    def ok(self) -> bool:
        return self.status == "done" and self.error is None

    def tuned(self) -> TunedKernel:
        """The winning kernel, recompiled from the response (memoized;
        the local transport attaches the original object instead)."""
        if self._kernel is None:
            if not self.ok or self.result is None:
                raise ValueError(f"no result on a {self.status!r} "
                                 f"response ({self.error})")
            self._kernel = TunedKernel.from_dict(self.result)
        return self._kernel

    def to_dict(self) -> Dict:
        return {"schema": 1, "digest": self.digest, "job_id": self.job_id,
                "status": self.status, "result": self.result,
                "history_digest": self.history_digest,
                "stats": dict(self.stats), "wall": self.wall,
                "error": self.error, "served_from": self.served_from}

    @staticmethod
    def from_dict(data: Dict) -> "TuneResponse":
        check_schema(data, "TuneResponse")
        return TuneResponse(
            digest=data["digest"], job_id=data.get("job_id", ""),
            status=data.get("status", "done"),
            result=data.get("result"),
            history_digest=data.get("history_digest"),
            stats=dict(data.get("stats") or {}),
            wall=float(data.get("wall") or 0.0),
            error=data.get("error"),
            served_from=data.get("served_from"))


__all__ = ["ENGINE_KNOBS", "TuneRequest", "TuneResponse", "default_n",
           "history_digest", "parse_context"]
