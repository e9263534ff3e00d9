"""Benchmark-suite fixtures.

One memoized result store, at the paper's sizes, is shared by every
figure/table benchmark, so the expensive tuning sweeps are computed
once per pytest session (the first benchmark touching a configuration
pays for it — exactly like an ATLAS install).  The figures and tables
themselves are checked in once, as ``results/full_experiments.txt``
(``python -m repro experiments``); the ablation benchmarks write their
rendered outputs to ``results/``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.store import ResultStore

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def store():
    return ResultStore()


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_result(results_dir: pathlib.Path, name: str, text: str) -> None:
    (results_dir / name).write_text(text + "\n")
