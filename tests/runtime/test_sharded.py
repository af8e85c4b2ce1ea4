"""Sharded multi-device execution (repro.runtime.sharded)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BlockingConfig, StencilSpec, make_grid, reference_run
from repro.errors import (
    ConfigurationError,
    DeviceLostError,
    FaultDetectedError,
    HaloExchangeError,
)
from repro.faults import (
    ChannelStallFault,
    DeviceLossFault,
    FaultPlan,
    HaloCorruptFault,
    SEUFault,
    arm,
)
from repro.faults.checksum import crc32_array
from repro.runtime import ShardedRunner

SPEC = StencilSpec.star(2, 1)
CONFIG = BlockingConfig(dims=2, radius=1, bsize_x=32, parvec=4, partime=2)
GRID = make_grid((24, 64), "mixed", seed=7)
ITERS = 7
REF = reference_run(GRID, SPEC, ITERS)


def runner(**kwargs) -> ShardedRunner:
    kwargs.setdefault("engine", "numpy")
    kwargs.setdefault("checkpoint", 2)
    return ShardedRunner(SPEC, CONFIG, kwargs.pop("boundary", "clamp"), **kwargs)


# -- fault-free equivalence --------------------------------------------------- #


@pytest.mark.parametrize("boundary", ["clamp", "periodic"])
@pytest.mark.parametrize("shards", [2, 3, 4])
def test_bit_exact_vs_single_device(boundary: str, shards: int) -> None:
    ref = reference_run(GRID, SPEC, ITERS, boundary=boundary)
    with runner(shards=shards, boundary=boundary) as r:
        out = r.run(GRID, ITERS)
    np.testing.assert_array_equal(out.grid, ref)
    assert out.stats.passes == CONFIG.passes(ITERS)
    assert out.stats.rollbacks == 0
    assert out.stats.exchanges == (out.stats.passes - 1) * len(out.plan.edges)
    assert r.engines == ("numpy",) * shards
    assert out.stats.sim_time_s == r.sim_time_s > 0.0


def test_input_grid_never_modified() -> None:
    before = GRID.copy()
    with runner() as r:
        r.run(GRID, ITERS)
    np.testing.assert_array_equal(GRID, before)


def test_zero_iterations_is_identity() -> None:
    with runner() as r:
        out = r.run(GRID, 0)
    np.testing.assert_array_equal(out.grid, GRID)
    assert out.stats.passes == 0 and out.stats.exchanges == 0


def test_3d_sharded_bit_exact() -> None:
    spec = StencilSpec.star(3, 1)
    config = BlockingConfig(
        dims=3, radius=1, bsize_x=32, bsize_y=16, parvec=4, partime=2
    )
    grid = make_grid((12, 16, 32), "mixed", seed=9)
    ref = reference_run(grid, spec, 5)
    with ShardedRunner(spec, config, shards=2, engine="numpy") as r:
        out = r.run(grid, 5)
    np.testing.assert_array_equal(out.grid, ref)


def test_golden_crc_checked_when_given() -> None:
    with runner() as r:
        out = r.run(GRID, ITERS, expected_crc=crc32_array(REF))
    assert out.stats.output_crc32 == crc32_array(REF)
    with runner() as r, pytest.raises(FaultDetectedError):
        r.run(GRID, ITERS, expected_crc=0xDEADBEEF)


# -- validation / lifecycle --------------------------------------------------- #


def test_admission_is_typed() -> None:
    with pytest.raises(ConfigurationError):
        ShardedRunner(SPEC, CONFIG, "mirror")
    with pytest.raises(ConfigurationError):
        ShardedRunner(SPEC, CONFIG, shards=0)
    with pytest.raises(ConfigurationError):
        ShardedRunner(SPEC, CONFIG, engines=["numpy"], shards=2)
    with runner() as r:
        with pytest.raises(ConfigurationError):
            r.run(make_grid((3, 64), "mixed", seed=1), ITERS)  # too few rows


def test_close_is_terminal_and_idempotent() -> None:
    r = runner()
    r.close()
    r.close()
    assert r.closed
    with pytest.raises(ConfigurationError):
        r.run(GRID, 1)


def test_per_device_engines_override() -> None:
    with ShardedRunner(
        SPEC, CONFIG, shards=2, engines=["numpy", "numpy"]
    ) as r:
        assert r.engines == ("numpy", "numpy")


# -- shard-granular recovery -------------------------------------------------- #


def test_seu_rolls_back_one_shard_only() -> None:
    plan = FaultPlan(seed=3, faults=(SEUFault(site="block-buffer", at_touch=5),))
    with runner(shards=2) as r, arm(plan) as inj:
        out = r.run(GRID, ITERS)
    assert len(inj.fired) == 1
    np.testing.assert_array_equal(out.grid, REF)
    assert out.stats.rollbacks >= 1
    # replay stays confined: one shard replays a bounded tail (at most
    # the snapshot cadence), never the whole run across every shard
    assert out.stats.replayed_passes <= 2
    assert out.stats.replayed_passes < out.stats.passes * out.stats.shards
    assert r.device_faults.count(0) == 1
    assert any(n > 0 for n in r.device_faults)


def test_seu_without_checkpoint_is_typed() -> None:
    plan = FaultPlan(seed=3, faults=(SEUFault(site="block-buffer", at_touch=5),))
    with runner(shards=2, checkpoint=None) as r, arm(plan):
        with pytest.raises(FaultDetectedError):
            r.run(GRID, ITERS)


def test_replay_reserves_cached_halos() -> None:
    # fault late enough that the replayed tail spans an exchange round
    plan = FaultPlan(
        seed=3, faults=(SEUFault(site="block-buffer", at_touch=18),)
    )
    with runner(shards=2, checkpoint=2) as r, arm(plan):
        out = r.run(GRID, ITERS)
    np.testing.assert_array_equal(out.grid, REF)
    assert out.stats.replayed_passes >= 1
    assert out.stats.halo_reserved >= 1


# -- halo exchange protocol --------------------------------------------------- #


def test_corrupted_halo_detected_and_retried() -> None:
    plan = FaultPlan(seed=5, faults=(HaloCorruptFault(at_exchange=2),))
    with runner(shards=2) as r, arm(plan) as inj:
        out = r.run(GRID, ITERS)
    np.testing.assert_array_equal(out.grid, REF)
    assert out.stats.halo_detections == 1
    assert out.stats.exchange_retries == 1
    assert len(inj.detections) == 1 and len(inj.recoveries) == 1


def test_edge_selector_targets_one_channel() -> None:
    plan = FaultPlan(
        seed=5,
        faults=(HaloCorruptFault(edge="halo:1->0:hi", at_exchange=1),),
    )
    with runner(shards=2) as r, arm(plan) as inj:
        out = r.run(GRID, ITERS)
    np.testing.assert_array_equal(out.grid, REF)
    assert "halo:1->0:hi" in inj.fired[0].description


def test_persistent_corruption_exhausts_retries_typed() -> None:
    # every resend of the same edge is corrupted: retries run out
    plan = FaultPlan(
        seed=5,
        faults=tuple(
            HaloCorruptFault(edge="halo:0->1:lo", at_exchange=k)
            for k in range(4)
        ),
    )
    with runner(shards=2) as r, arm(plan):
        with pytest.raises(HaloExchangeError) as exc:
            r.run(GRID, ITERS)
    assert exc.value.edge == "halo:0->1:lo"


def test_wedged_halo_fifo_is_typed() -> None:
    plan = FaultPlan(
        seed=5,
        faults=(
            ChannelStallFault(
                channel="halo:0->1:lo", op="write", at_op=0, duration=10_000
            ),
        ),
    )
    with runner(shards=2, stall_watchdog=8) as r, arm(plan):
        with pytest.raises(HaloExchangeError):
            r.run(GRID, ITERS)


# -- per-device fault accounting ---------------------------------------------- #


def test_repeated_faults_charge_one_device() -> None:
    # faults are counted per board and never swap its engine mid-run:
    # the scheduler's per-worker breaker settles from the counts
    plan = FaultPlan(
        seed=3,
        faults=(
            SEUFault(site="block-buffer", at_touch=2),
            SEUFault(site="block-buffer", at_touch=9),
        ),
    )
    with runner(shards=2, engine="native") as r, arm(plan):
        out = r.run(GRID, ITERS)
    np.testing.assert_array_equal(out.grid, REF)
    assert sorted(r.device_faults) == [0, 2]
    assert r.engines == ("native", "native")


def test_run_state_readable_after_a_raise() -> None:
    plan = FaultPlan(seed=3, faults=(SEUFault(site="block-buffer", at_touch=18),))
    with runner(shards=2, checkpoint=None) as r:
        with arm(plan), pytest.raises(FaultDetectedError):
            r.run(GRID, ITERS)
        # the passes completed before the raise are on the clock
        assert r.sim_time_s > 0.0
        assert sorted(r.device_faults) == [0, 1]
        # a run rejected at admission spent nothing
        with pytest.raises(ConfigurationError):
            r.run(make_grid((3, 64), "mixed", seed=1), ITERS)
        assert r.sim_time_s == 0.0 and r.device_faults == (0, 0)


# -- device loss -------------------------------------------------------------- #


def test_device_loss_reshards_onto_survivor() -> None:
    plan = FaultPlan(seed=3, faults=(DeviceLossFault(at_pass=1, device=1),))
    with runner(shards=2) as r, arm(plan) as inj:
        out = r.run(GRID, ITERS)
    np.testing.assert_array_equal(out.grid, REF)
    assert out.stats.devices_lost == 1
    assert out.stats.reshards == 1
    assert r.engines == ("numpy", "lost")
    assert len(inj.recoveries) >= 1


def test_seu_during_loss_replay_rolls_back_and_retries() -> None:
    # device 1 dies after pass 2; its shard restores from the pass-2
    # snapshot and replays pass 2 on device 0, where touch 54 flips a
    # bit: the replay rolls back again and retries instead of failing
    plan = FaultPlan(
        seed=3,
        faults=(
            DeviceLossFault(at_pass=2, device=1),
            SEUFault(site="block-buffer", at_touch=54),
        ),
    )
    with runner(shards=2) as r, arm(plan) as inj:
        out = r.run(GRID, ITERS)
    assert len(inj.fired) == 2
    np.testing.assert_array_equal(out.grid, REF)
    assert out.stats.rollbacks >= 2
    assert out.stats.reshards == 1
    # the survivor that hosted the replay is charged for the SEU
    assert r.device_faults == (1, 1)


def test_device_loss_without_checkpoint_is_typed() -> None:
    plan = FaultPlan(seed=3, faults=(DeviceLossFault(at_pass=1, device=1),))
    with runner(shards=2, checkpoint=None) as r, arm(plan):
        with pytest.raises(DeviceLostError):
            r.run(GRID, ITERS)


def test_all_devices_lost_is_typed() -> None:
    plan = FaultPlan(
        seed=3,
        faults=(
            DeviceLossFault(at_pass=1, device=0),
            DeviceLossFault(at_pass=1, device=1),
        ),
    )
    with runner(shards=2) as r, arm(plan):
        with pytest.raises(DeviceLostError) as exc:
            r.run(GRID, ITERS)
    assert "device" in exc.value.details()


def test_loss_then_clean_rerun_reuses_survivors() -> None:
    plan = FaultPlan(seed=3, faults=(DeviceLossFault(at_pass=1, device=0),))
    with runner(shards=2) as r:
        with arm(plan):
            out = r.run(GRID, ITERS)
        np.testing.assert_array_equal(out.grid, REF)
        # a fresh run resets transient loss state (boards come back)
        out2 = r.run(GRID, ITERS)
    np.testing.assert_array_equal(out2.grid, REF)
    assert out2.stats.devices_lost == 0
