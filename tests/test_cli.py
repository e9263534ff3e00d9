"""Tests for the command-line driver (python -m repro)."""

import pathlib

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestKernelsAndAnalyze:
    def test_kernels_lists_all_14(self, capsys):
        rc, out, _ = run(capsys, "kernels")
        assert rc == 0
        assert out.count("\n") >= 14
        assert "idamax" in out and "sswap" in out

    def test_analyze_builtin(self, capsys):
        rc, out, _ = run(capsys, "analyze", "ddot", "-m", "p4e")
        assert rc == 0
        assert "vectorizable: yes" in out
        assert "dot" in out

    def test_analyze_iamax_reports_reasons(self, capsys):
        rc, out, _ = run(capsys, "analyze", "idamax")
        assert "vectorizable: no" in out
        assert "control flow" in out

    def test_analyze_hil_file(self, capsys, tmp_path, ddot_src):
        f = tmp_path / "mine.hil"
        f.write_text(ddot_src)
        rc, out, _ = run(capsys, "analyze", str(f))
        assert rc == 0 and "vectorizable: yes" in out

    def test_unknown_kernel_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "zgemm"])


class TestCompile:
    def test_compile_ir_output(self, capsys):
        rc, out, err = run(capsys, "compile", "ddot", "-u", "2")
        assert rc == 0
        assert "# function ddot" in out
        assert "applied" in err

    def test_compile_asm_output(self, capsys):
        rc, out, _ = run(capsys, "compile", "sdot", "--asm")
        assert ".globl sdot" in out
        assert "addps" in out or "addss" in out

    def test_compile_with_prefetch_flag(self, capsys):
        rc, out, _ = run(capsys, "compile", "dasum", "--asm",
                         "-p", "X=t0:768")
        assert "prefetcht0 768(" in out

    def test_compile_test_flag_verifies(self, capsys):
        rc, _, err = run(capsys, "compile", "daxpy", "-u", "4", "--test")
        assert rc == 0 and "tester: daxpy OK" in err

    def test_bad_prefetch_spec(self):
        with pytest.raises(SystemExit):
            main(["compile", "ddot", "-p", "X-nonsense"])

    def test_no_sv_flag(self, capsys):
        rc, _, err = run(capsys, "compile", "ddot", "--no-sv")
        assert "'sv'" not in err.replace("sv': True", "")


class TestTune:
    def test_tune_small(self, capsys):
        rc, out, _ = run(capsys, "tune", "sscal", "-m", "opteron",
                         "--n", "8000", "--max-evals", "60")
        assert rc == 0
        assert "best parameters" in out
        assert "model-MFLOPS" in out

    def test_tune_in_cache_context(self, capsys):
        rc, out, _ = run(capsys, "tune", "ddot", "-c", "ic", "--n", "1024",
                         "--max-evals", "60")
        assert rc == 0 and "in-L2" in out

    def test_tune_rejects_loopless_source(self, tmp_path):
        f = tmp_path / "noloop.hil"
        f.write_text("ROUTINE f(X: ptr double);\nX += 1;\n")
        with pytest.raises(SystemExit, match="no @TUNE"):
            main(["tune", str(f), "--n", "100"])

    def test_tune_block_fetch_flag(self, capsys):
        rc, out, _ = run(capsys, "tune", "dcopy", "--n", "8000",
                         "--enable-block-fetch", "--max-evals", "80")
        assert rc == 0 and "BF=Y" in out


class TestTuneAllAndTrace:
    def test_tune_all_filtered_with_trace(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        rc, out, _ = run(capsys, "tune-all", "--kernels", "ddot,dasum",
                         "--n", "4000", "--max-evals", "30",
                         "--trace-out", str(trace))
        assert rc == 0
        assert "2/2 jobs" in out
        assert "ddot:p4e:out-of-cache:4000" in out
        assert "dasum:p4e:out-of-cache:4000" in out
        assert trace.exists()

        rc, out, _ = run(capsys, "trace", str(trace))
        assert rc == 0
        assert "# trace:" in out and "evaluations by phase" in out
        assert "ddot:p4e:out-of-cache:4000" in out

    def test_tune_all_cache_and_resume(self, capsys, tmp_path):
        """Resuming is rerunning against the same cache dir: nothing is
        computed and every job row comes back unchanged."""
        cache = tmp_path / "evals"
        args = ("tune-all", "--kernels", "ddot,dasum", "--n", "4000",
                "--max-evals", "30", "--cache-dir", str(cache))

        def rows(out):
            return [line for line in out.splitlines()
                    if not line.startswith("#")]
        rc, first, _ = run(capsys, *args)
        assert rc == 0 and "2/2 jobs" in first
        assert "# evaluations: 0 computed" not in first
        rc, again, _ = run(capsys, *args)
        assert rc == 0 and "2/2 jobs" in again
        assert "# evaluations: 0 computed" in again
        assert rows(again) == rows(first) and len(rows(first)) == 2

    def test_tune_all_rejects_unknown_kernel(self, capsys):
        with pytest.raises(SystemExit):
            main(["tune-all", "--kernels", "zgemm"])

    def test_tune_warm_cache_reports_hits(self, capsys, tmp_path):
        args = ("tune", "ddot", "--n", "4000", "--max-evals", "30",
                "--cache-dir", str(tmp_path / "evals"))
        rc, _, _ = run(capsys, *args)
        assert rc == 0
        rc, out, _ = run(capsys, *args)
        assert rc == 0
        assert "# evaluation cache:" in out

    def test_trace_missing_file_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace", "/nonexistent/trace.jsonl"])


class TestParser:
    def test_context_parsing(self):
        p = build_parser()
        args = p.parse_args(["tune", "ddot", "-c", "oc"])
        from repro.machine import Context
        assert args.context is Context.OUT_OF_CACHE
        args = p.parse_args(["tune", "ddot", "-c", "ic"])
        assert args.context is Context.IN_L2

    def test_bad_context_rejected(self):
        p = build_parser()
        with pytest.raises(SystemExit):
            p.parse_args(["tune", "ddot", "-c", "l3"])
