"""The serving-layer overhead gate of ``benchmarks/bench_serving.py``."""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_serving.py"
_SPEC = importlib.util.spec_from_file_location("bench_serving", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

_OUT = np.zeros((2, 2), np.float32)


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_gate_fails_on_a_seeded_slowdown_of_the_service_path() -> None:
    def direct(tag):
        _spin(2e-3)
        return _OUT

    def service(tag):
        _spin(2.2e-3)  # a service path 10% slower than direct
        return _OUT

    times, outputs = bench.interleaved_times(
        {"direct": direct, "service": service}, bench.ROUNDS
    )
    assert len(times["direct"]) == len(times["service"]) == bench.ROUNDS
    assert outputs["service"] is _OUT
    assert bench.paired_overhead(times["service"], times["direct"]) > 0.05
    failure = bench.overhead_failure(times)
    assert failure is not None and "serving layer overhead" in failure


def test_paired_median_ignores_one_slow_round() -> None:
    # one direct run caught a quiet moment and one service run a slow one:
    # best-of reads +11%, every other back-to-back pair reads nothing
    direct = [1.0e-3] * 8 + [0.9e-3]
    service = [1.0e-3] * 8 + [1.3e-3]
    assert min(service) / min(direct) - 1.0 > bench.OVERHEAD_BUDGET
    assert bench.paired_overhead(service, direct) == pytest.approx(0.0)
    assert bench.overhead_failure({"direct": direct, "service": service}) is None
