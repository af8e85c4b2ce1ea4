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


def test_rank_agreement_counts_concordant_pairs() -> None:
    model = {"a": {"rank": 0}, "b": {"rank": 1}, "c": {"rank": 2}}
    assert emit.rank_agreement(model, {"a": 1.0, "b": 2.0, "c": 3.0}) == 1.0
    assert emit.rank_agreement(model, {"a": 3.0, "b": 2.0, "c": 1.0}) == 0.0
    # b and c swapped: one of three pairs disagrees
    assert emit.rank_agreement(model, {"a": 1.0, "b": 3.0, "c": 2.0}) == 0.6667
    # a candidate that failed its audit is left out of the pairs
    assert emit.rank_agreement(model, {"b": 2.0, "c": 1.0}) == 0.0
    assert emit.rank_agreement(model, {"a": 1.0}) is None


def test_model_of_keys_the_candidates_like_the_measurement() -> None:
    model = emit.model_of("3d-radius4-small", 3)
    assert sorted(m["rank"] for m in model.values()) == [0, 1, 2]
    for label, m in model.items():
        assert label.startswith("bsize=(")
        assert m["imbalance"] >= 1.0 and m["makespan_cells"] > 0
