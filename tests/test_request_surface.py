"""One request surface: context spelling, default N and the search
knobs are each declared once, and every entry point derives from them.

* every context spelling reaches the same :class:`Context` through the
  wire request, the engine's jobs, ``repro.tune``/``repro.compile``, the
  warm-start lookup and the CLI;
* an unsized problem gets the same N on every path;
* the CLI's engine flags are generated from ``TuneConfig``'s fields and
  keep every spelling they had;
* ``TuneRequest.from_config`` and ``to_config`` invert each other, and
  the wire defaults are ``TuneConfig``'s;
* knobs the daemon cannot honour are named when ``--serve-url`` is used.
"""

import dataclasses
import subprocess
import sys

import pytest

import repro
from repro.cli import _engine_config, build_parser, main
from repro.fko import TransformParams
from repro.machine import Context
from repro.search import TuneConfig, registry_jobs
from repro.search.engine import TuningJob
from repro.search.warmstart import lookup_warm_start, write_warm_entry
from repro.service import TuneRequest

OC, IC = Context.OUT_OF_CACHE, Context.IN_L2

SPELLINGS = [("oc", OC), ("out-of-cache", OC), (OC, OC),
             ("ic", IC), ("in-l2", IC), ("in-L2-cache", IC), (IC, IC)]


def _cli_spelling(spelling):
    return getattr(spelling, "value", spelling)


# ---------------------------------------------------------------------------
# context spelling

@pytest.mark.parametrize("spelling,ctx", SPELLINGS)
class TestContextSpelling:
    def test_wire_request(self, spelling, ctx):
        assert TuneRequest(kernel="ddot", context=spelling).context \
            == ctx.value

    def test_engine_jobs(self, spelling, ctx):
        assert TuningJob("ddot", "p4e", spelling, 1000).context is ctx
        [job] = registry_jobs(["ddot"], contexts=(spelling,))
        assert job.context is ctx

    def test_public_api(self, spelling, ctx):
        assert repro.compile("ddot", context=spelling, n=1000).context is ctx
        tuned = repro.tune("ddot", context=spelling, n=1000, max_evals=2,
                           run_tester=False)
        assert tuned.context is ctx

    def test_warm_start_lookup(self, spelling, ctx, tmp_path):
        write_warm_entry(tmp_path, "ddot", "p4e", spelling, 1000,
                         TransformParams(), 1.0)
        _, source = lookup_warm_start(tmp_path, "ddot", "p4e", ctx, 1000)
        assert source == f"ddot:p4e:{ctx.value}:1000"

    def test_cli(self, spelling, ctx):
        for argv in (["tune", "ddot"], ["tune-all"]):
            args = build_parser().parse_args(
                argv + ["-c", _cli_spelling(spelling)])
            assert args.context is ctx


def test_problem_keys_agree(tmp_path):
    """Jobs, wire requests and trace ``job`` fields share one key."""
    trace = tmp_path / "t.jsonl"
    job = TuningJob("ddot", "P4E", "ic", 1000)
    request = TuneRequest(kernel="ddot", machine="P4E", context="ic",
                          n=1000)
    repro.tune("ddot", context="ic", n=1000, max_evals=2, run_tester=False,
               trace=str(trace))
    traced = {e["job"] for e in repro.search.read_trace(str(trace))
              if "job" in e}
    assert job.key() == request.key() == "ddot:p4e:in-L2-cache:1000"
    assert traced == {job.key()}


# ---------------------------------------------------------------------------
# default N

# dgemm is a cubic nest, so its defaults are matrix orders; sstencil3 is
# a vector kernel and keeps the paper's sizes
DEFAULT_N = [("dgemm", OC, 512), ("dgemm", IC, 160),
             ("sstencil3", OC, 80000), ("sstencil3", IC, 1024)]


@pytest.mark.parametrize("kernel,ctx,n", DEFAULT_N)
def test_default_n_on_every_path(kernel, ctx, n, capsys):
    assert TuneRequest(kernel=kernel, context=ctx).n == n
    [job] = registry_jobs([kernel], contexts=(ctx,))
    assert job.n == n
    assert repro.compile(kernel, context=ctx).n == n
    c = "oc" if ctx is OC else "ic"
    assert main(["tune-all", "--kernels", kernel, "-c", c,
                 "--max-evals", "2"]) == 0
    assert f"{kernel}:p4e:{ctx.value}:{n} " in capsys.readouterr().out


def test_tune_and_tune_all_agree_on_n(capsys):
    assert main(["tune", "dgemm", "-c", "ic", "--max-evals", "2"]) == 0
    assert "N=160" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# engine flags derived from TuneConfig

FLAGLESS = ("space", "start", "min_gain")


@pytest.mark.parametrize("argv", [["tune", "ddot"], ["tune-all"]])
def test_no_flags_give_default_config(argv):
    config = _engine_config(build_parser().parse_args(argv))
    default = TuneConfig()
    for f in dataclasses.fields(TuneConfig):
        if f.name != "run_tester":
            assert getattr(config, f.name) == getattr(default, f.name), \
                f.name


def test_every_field_has_a_flag():
    tune_all = build_parser().parse_args(["tune-all"])
    tune = build_parser().parse_args(["tune", "ddot"])
    for f in dataclasses.fields(TuneConfig):
        if f.name not in FLAGLESS:
            assert hasattr(tune_all, f.name), f.name
            assert hasattr(tune, f.name) or f.name == "run_tester", f.name


#: every engine flag spelling each subcommand accepted before the flags
#: were generated (``--test-best`` aside: it was folded into the tester;
#: ``--no-fast-timing``, ``--no-prefix-cache``, ``--timeout`` and
#: ``--resume`` aside: their knobs are deleted; ``--no-metrics`` aside:
#: a daemon always serves its metrics)
PARENT_FLAGS = {
    "tune": ["-c oc", "--context ic", "--n 100", "--max-evals 5",
             "--strategy random", "--seed 3", "--warm-start D", "--jobs 2",
             "-j 2", "--cache-dir D", "--trace-out F", "--batch-size 4", "--observe", "--verify-ir",
             "--enable-block-fetch", "--serve-url U", "--asm", "--verbose", "-v", "-m opteron",
             "--machine p4e"],
    "tune-all": ["-c oc", "--context ic", "--n 100", "--max-evals 5",
                 "--strategy random", "--seed 3", "--warm-start D",
                 "--jobs 2", "-j 2", "--cache-dir D", "--trace-out F",
                 "--batch-size 4", "--observe",
                 "--verify-ir",
                 "--test", "--kernels ddot",
                 "--serve-url U", "-m opteron", "--machine p4e"],
    "serve": ["--host 0.0.0.0", "--port 0", "--jobs 2", "-j 2",
              "--cache-dir D", "--results-dir D", "--trace-out F",
              "--max-total-evals 9", "--verbose", "-v"],
}


@pytest.mark.parametrize("command", sorted(PARENT_FLAGS))
def test_parent_flag_spellings_parse(command):
    head = ["tune", "ddot"] if command == "tune" else [command]
    for flag in PARENT_FLAGS[command]:
        build_parser().parse_args(head + flag.split())


def test_no_metrics_flag_is_gone():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--no-metrics"])


@pytest.mark.parametrize("head", [["tune", "ddot"], ["tune-all"]])
def test_test_best_flag_is_gone(head):
    with pytest.raises(SystemExit):
        build_parser().parse_args(head + ["--test-best"])
    assert "test_best" not in {f.name for f in dataclasses.fields(TuneConfig)}


@pytest.mark.parametrize("head", [["tune", "ddot"], ["tune-all"],
                                  ["serve"]])
@pytest.mark.parametrize("flag", ["--no-fast-timing", "--no-prefix-cache",
                                  "--timeout 1", "--resume F"])
def test_switches_that_cannot_change_an_answer_are_gone(head, flag):
    with pytest.raises(SystemExit):
        build_parser().parse_args(head + flag.split())
    names = {f.name for f in dataclasses.fields(TuneConfig)}
    assert not names & {"fast_timing", "prefix_cache", "timeout", "resume"}
    wire = {f.name for f in dataclasses.fields(TuneRequest)}
    assert not wire & {"fast_timing", "timeout"}


def test_flag_values_reach_the_config():
    args = build_parser().parse_args(
        ["tune-all", "--verify-ir", "--test",
         "--trace-out", "F", "-j", "2", "--batch-size", "4"])
    config = _engine_config(args)
    assert isinstance(config.jobs, int) and isinstance(config.batch_size, int)
    assert (config.verify_ir, config.run_tester, config.trace,
            config.jobs, config.batch_size) == (True, True, "F", 2, 4)


@pytest.mark.parametrize("argv,message", [
    (["tune", "ddot", "--jobs", "0"], "jobs must be >= 1"),
    (["tune-all", "--strategy", "nope"], "unknown search strategy"),
    (["serve", "--jobs", "0"], "jobs must be >= 1"),
    (["experiments", "table1", "--jobs", "0"], "jobs must be >= 1"),
])
def test_invalid_knob_is_a_clean_error(argv, message):
    with pytest.raises(SystemExit, match=f"error: {message}"):
        main(argv)


def test_experiments_module_entry_is_a_clean_error():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "table1", "--jobs", "0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "error: jobs must be >= 1" in proc.stderr
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# the wire request and TuneConfig

def _knob_names():
    from repro.service.schema import _CONFIG_NAMES, _PROBLEM
    return [_CONFIG_NAMES.get(f.name, f.name)
            for f in dataclasses.fields(TuneRequest)
            if f.name not in _PROBLEM]


def test_from_config_round_trips():
    config = TuneConfig(max_evals=7, run_tester=False, strategy="genetic",
                        seed=3, observe=True,
                        verify_ir=True, min_gain=0.01,
                        enable_block_fetch=True,
                        jobs=2, batch_size=4)
    request = TuneRequest.from_config("ddot", "P4E", "oc", None, config)
    assert (request.machine, request.context, request.n) \
        == ("p4e", "out-of-cache", 80000)
    back = request.to_config(TuneConfig(jobs=3))
    for name in _knob_names():
        assert getattr(back, name) == getattr(config, name), name
    assert back.jobs == 3   # engine-side knobs come from the base


@pytest.mark.parametrize("kernel", ["ddot", "dgemm"])
def test_wire_defaults_are_tune_config_defaults(kernel):
    assert TuneRequest(kernel=kernel).to_config() == TuneConfig()


def test_default_config_gives_the_default_request():
    request = TuneRequest.from_config("ddot", "p4e", OC, None, TuneConfig())
    assert request == TuneRequest(kernel="ddot")


def test_engine_knobs_are_the_fields_without_a_wire_namesake():
    from repro.service.schema import ENGINE_KNOBS
    assert set(ENGINE_KNOBS) == {
        f.name for f in dataclasses.fields(TuneConfig)} - set(_knob_names())
    assert {"jobs", "cache_dir", "trace", "batch_size",
            "warm_start"} <= set(ENGINE_KNOBS)


# ---------------------------------------------------------------------------
# --serve-url names the engine-side knobs the daemon ignores

@pytest.fixture(scope="module")
def daemon():
    from repro.service.daemon import start_server
    with start_server(port=0, config=TuneConfig(run_tester=False)) as handle:
        yield handle


def test_serve_url_notes_ignored_engine_knobs(daemon, capsys):
    argv = ["tune", "ddot", "--n", "1000", "--max-evals", "2",
            "--serve-url", daemon.url]
    assert main(argv + ["--batch-size", "8", "--jobs", "2"]) == 0
    notes = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("# note:")]
    assert len(notes) == 1
    assert "--batch-size" in notes[0] and "--jobs" in notes[0]
    assert main(argv) == 0
    assert "# note:" not in capsys.readouterr().out


def test_tune_all_serve_url_notes_ignored_engine_knobs(daemon, capsys):
    assert main(["tune-all", "--kernels", "ddot", "--n", "1000",
                 "--max-evals", "2", "--jobs", "2",
                 "--serve-url", daemon.url]) == 0
    out = capsys.readouterr().out
    assert "# note:" in out and "--jobs" in out
    assert "ddot:p4e:out-of-cache:1000" in out
