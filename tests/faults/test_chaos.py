"""Chaos harness: randomized fault schedules through the scheduler.

The invariant under test: every admitted job either completes
bit-identical to the reference or fails with a typed error — never
silently wrong.  Fixed-seed cases keep CI deterministic; a short
randomized sweep widens coverage over time (its seed is printed on
failure so any escape is reproducible).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.resilience import (
    SEED,
    run_chaos_campaign,
    run_replay_cost,
)
from repro.experiments import EXPERIMENTS

FIXED_SEEDS = (2018, 385, 4242)
BENCH_RECOVERY = Path(__file__).resolve().parents[2] / "BENCH_recovery.json"


# -- fixed-seed invariant cases ---------------------------------------------- #


@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_chaos_invariant_holds_fixed_seeds(seed: int) -> None:
    batches = run_chaos_campaign(seed=seed, batches=3, jobs_per_batch=2)
    for batch in batches:
        assert batch.violations == 0, (
            f"chaos invariant violated (campaign seed {seed}, "
            f"plan seed {batch.seed}, faults {batch.fault_names})"
        )
        # every admitted job is accounted for, one way or the other
        assert batch.completed + batch.failed_typed == 2


def test_chaos_campaign_is_deterministic() -> None:
    a = run_chaos_campaign(seed=2018, batches=2, jobs_per_batch=2)
    b = run_chaos_campaign(seed=2018, batches=2, jobs_per_batch=2)
    assert a == b


def test_chaos_campaign_reproduces_committed_bench_recovery() -> None:
    # the full emitter's campaign (benchmarks/emit_recovery.py), batch
    # for batch: any drift in fault draws or outcomes shows up here
    committed = json.loads(BENCH_RECOVERY.read_text())["chaos"]
    assert committed["seed"] == SEED
    batches = run_chaos_campaign(seed=SEED, batches=4, jobs_per_batch=3)
    assert [
        {
            "seed": b.seed,
            "faults": list(b.fault_names),
            "completed": b.completed,
            "failed_typed": b.failed_typed,
            "violations": b.violations,
        }
        for b in batches
    ] == committed["batches"]


# -- short randomized sweep --------------------------------------------------- #


def test_chaos_invariant_randomized_sweep() -> None:
    sweep_seed = random.SystemRandom().randrange(2**31)
    rng = np.random.default_rng(sweep_seed)
    for campaign_seed in rng.integers(0, 2**31, size=2):
        batches = run_chaos_campaign(
            seed=int(campaign_seed), batches=2, jobs_per_batch=2
        )
        violations = sum(b.violations for b in batches)
        assert violations == 0, (
            f"chaos invariant violated in randomized sweep: re-run with "
            f"run_chaos_campaign(seed={int(campaign_seed)}) "
            f"(sweep seed {sweep_seed})"
        )


# -- recovery cost ------------------------------------------------------------- #


def test_tail_replay_beats_whole_run_retry() -> None:
    replay = run_replay_cost(iterations=1000, fault_at_fraction=0.9)
    assert replay["whole_run"]["bit_exact"]
    assert replay["tail_replay"]["bit_exact"]
    # both heal in-place with exactly one rollback...
    assert replay["whole_run"]["rollbacks"] == 1
    assert replay["tail_replay"]["rollbacks"] == 1
    # ...but the tail replay discards bounded work, the whole-run retry
    # discards the entire prefix
    assert replay["tail_replay"]["replayed_passes"] <= replay["checkpoint_every"]
    assert replay["whole_run"]["replayed_passes"] == replay["fault_pass"]
    assert replay["meets_3x_target"]
    assert replay["replay_cost_ratio"] >= 3.0


def test_recovery_cost_scales_with_tail_length() -> None:
    # the same fault with a denser snapshot cadence replays a shorter tail
    coarse = run_replay_cost(iterations=400, checkpoint_every=50)
    fine = run_replay_cost(iterations=400, checkpoint_every=10)
    assert (
        fine["tail_replay"]["replayed_passes"]
        <= coarse["tail_replay"]["replayed_passes"]
    )
    assert fine["replay_cost_ratio"] >= coarse["replay_cost_ratio"]


# -- experiment registration ---------------------------------------------------- #


def test_chaos_experiment_registered_and_passes() -> None:
    result = EXPERIMENTS["chaos"]()
    assert result.exp_id == "chaos"
    assert result.passed, [str(c) for c in result.comparisons]
    assert result.data["replay_cost"]["meets_3x_target"]
