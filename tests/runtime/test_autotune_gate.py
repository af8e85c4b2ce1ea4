"""The cache-hit latency gate of ``benchmarks/emit_autotune.py``."""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "emit_autotune.py"
_SPEC = importlib.util.spec_from_file_location("emit_autotune", _PATH)
emit = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(emit)


def _case(overhead: float) -> dict:
    return {"name": "case", "round_trip_ok": True, "cache_hit_overhead": overhead}


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class _Program:
    """Stands in for a warm program: a fixed 2 ms of work per request."""

    def execute(self, grid, iterations) -> None:
        _spin(2e-3)


def test_gate_fails_on_a_seeded_slowdown_of_the_tuned_path() -> None:
    program = _Program()

    def pinned():
        return program

    def tuned():
        time.sleep(3e-4)  # a resolve 15% of a request slower than pinned
        return program

    times = emit._serve_latencies(
        {"pinned": pinned, "tuned": tuned}, None, 1, emit.SERVE_REQUESTS
    )
    assert len(times["pinned"]) == len(times["tuned"]) == emit.SERVE_REQUESTS
    overhead = emit.paired_overhead(times["tuned"], times["pinned"])
    assert overhead >= 0.10
    (failure,) = emit.apply_gate([_case(overhead)])
    assert "cache-hit serve overhead" in failure


def test_paired_median_ignores_one_lucky_request() -> None:
    # one pinned request caught a quiet moment: the two paths' fastest
    # requests differ by 11%, every back-to-back pair by nothing
    pinned = [1.0e-3] * 8 + [0.9e-3]
    tuned = [1.0e-3] * 9
    assert min(tuned) / min(pinned) - 1.0 > 0.05
    assert emit.paired_overhead(tuned, pinned) == pytest.approx(0.0)
    assert emit.apply_gate([_case(emit.paired_overhead(tuned, pinned))]) == []


def test_paired_median_reads_a_steady_slowdown() -> None:
    pinned = [1.0e-3, 2.0e-3, 1.5e-3, 1.0e-3, 3.0e-3]
    tuned = [p * 1.08 for p in pinned]
    assert emit.paired_overhead(tuned, pinned) == pytest.approx(0.08)
    assert emit.apply_gate([_case(0.08)])
