"""Self-test of the end-to-end benchmark at ``--smoke`` sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return env


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/e2e/run.py", *args],
                          cwd=cwd, env=_env(), capture_output=True,
                          text=True, timeout=300)


def _perf_diff(old, new):
    return subprocess.run([sys.executable, "-m", "repro", "perf", "diff",
                           str(old), str(new)], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=60)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    return _bench("--smoke", "--reps", "1", "--out", str(out)), out


def test_smoke_prints_every_metric_with_its_unit(smoke):
    proc, _ = smoke
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {}
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            expected[f"{workload['name']}.{metric['name']}"] = metric["unit"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            assert result["metrics"][f"{workload['name']}.{metric['name']}"][
                "value"] > 0
            assert f"  {metric['name']} " in proc.stdout


def test_tampered_golden_counts_a_mismatch_and_fails(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(HERE / "golden", golden)
    path = golden / "tune-sweep.smoke.json"
    data = json.loads(path.read_text())
    data[sorted(data)[0]][0] *= 1.01
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    proc = _bench("--smoke", "--reps", "1", "--trace", "0", "--workload",
                  "tune-sweep", "--golden", str(golden), "--out", str(out))
    assert proc.returncode != 0
    assert not json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
    report = json.loads((out / "report.json").read_text())
    assert report["workloads"]["tune-sweep"]["output_mismatches"] >= 1


def test_report_works_with_perf_diff(smoke, tmp_path):
    _, out = smoke
    report = out / "report.json"
    assert _perf_diff(report, report).returncode == 0
    data = json.loads(report.read_text())
    for res in data["workloads"].values():
        res["best_cycles_geomean"] *= 1.06
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(data))
    assert _perf_diff(report, worse).returncode == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "serve", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
