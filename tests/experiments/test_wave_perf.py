"""Tests for the leapfrog wave performance projection."""

from __future__ import annotations

import pytest

from repro.experiments import wave_perf
from repro.experiments.table3 import paper_config


def test_wave_config_halves_partime_until_fit() -> None:
    for radius in (1, 2, 3, 4):
        base, _ = paper_config(3, radius)
        wcfg = wave_perf.wave_config(3, radius)
        assert wcfg.partime <= base.partime
        assert wcfg.parvec == base.parvec


def test_leapfrog_flop_accounting() -> None:
    # laplacian (4+1 muls + 24 adds) + scale + 2u - uprev + add = 33
    assert wave_perf.leapfrog_flops_per_cell(3, 4) == (4 + 1) + 24 + 1 + 3


@pytest.fixture(scope="module")
def result():
    return wave_perf.run()


def test_wave_slower_than_single_field(result) -> None:
    """Two fields + fewer PEs: the leapfrog cell rate must drop."""
    for radius in (1, 2, 3, 4):
        entry = result.data[radius]
        assert entry["wave"].gcell_s < entry["single"].gcell_s
        assert entry["partime_ratio"] >= 2.0 or entry["config"].partime == 1


def test_wave_is_memory_bound(result) -> None:
    """Doubled traffic with halved temporal reuse pushes the 3D leapfrog
    back into the memory-bound regime at every order."""
    for radius in (1, 2, 3, 4):
        assert not result.data[radius]["wave"].compute_bound


def test_wave_gflops_positive_and_reported(result) -> None:
    for radius in (1, 2, 3, 4):
        assert result.data[radius]["wave_gflops"] > 0
    assert "leapfrog" in result.text


def test_registry() -> None:
    from repro.experiments import EXPERIMENTS

    assert "wave-performance" in EXPERIMENTS
