"""Unit behaviour of the fault injector and its hook sites."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core import BlockingConfig, StencilSpec, make_grid
from repro.core.channels import Channel
from repro.errors import (
    ConfigurationError,
    FaultDetectedError,
    WatchdogTimeoutError,
)
from repro.faults import (
    ChannelCorruptFault,
    ChannelStallFault,
    FaultInjector,
    FaultPlan,
    MemoryStallFault,
    SEUFault,
    arm,
    crc32_array,
)
from repro.faults.plan import SEU_SITES
from repro.fpga import NALLATECH_385A
from repro.fpga.cycle_sim import CycleSimulator
from repro.runtime.host import Buffer, CommandQueue, StencilProgram


def test_injector_randomness_is_seed_deterministic() -> None:
    plan = FaultPlan(seed=42, faults=(SEUFault(), SEUFault()))
    a, b = FaultInjector(plan), FaultInjector(plan)
    assert a._rand_word == b._rand_word
    assert a._rand_bit == b._rand_bit
    other = FaultInjector(FaultPlan(seed=43, faults=(SEUFault(), SEUFault())))
    assert (a._rand_word, a._rand_bit) != (other._rand_word, other._rand_bit)


def test_seu_fires_once_at_configured_touch() -> None:
    plan = FaultPlan(
        seed=0, faults=(SEUFault(site="block-buffer", at_touch=1, word=2, bit=3),)
    )
    inj = FaultInjector(plan)
    data = np.zeros(8, dtype=np.float32)
    inj.touch_sram(data, site="block-buffer")  # touch 0: no fire
    assert not inj.fired and not data.any()
    inj.touch_sram(data, site="block-buffer")  # touch 1: fire
    assert len(inj.fired) == 1
    assert data.view(np.uint32)[2] == np.uint32(1 << 3)
    inj.touch_sram(data, site="block-buffer")  # one-shot: never again
    assert len(inj.fired) == 1


def test_seu_respects_site() -> None:
    inj = FaultInjector(
        FaultPlan(seed=0, faults=(SEUFault(site="dram", at_touch=0, word=0, bit=0),))
    )
    data = np.zeros(4, dtype=np.float32)
    inj.touch_sram(data, site="block-buffer")
    assert not inj.fired
    inj.touch_sram(data, site="dram")
    assert len(inj.fired) == 1


@pytest.mark.parametrize("site", SEU_SITES)
def test_every_seu_site_fires_on_a_request_round_trip(site: str) -> None:
    """Each accepted site is one a request touches: an SEU there fires
    exactly once on a write -> kernel -> read round trip."""
    spec = StencilSpec.star(2, 1)
    cfg = BlockingConfig(dims=2, radius=1, bsize_x=32, parvec=4, partime=2)
    program = StencilProgram(spec, cfg)
    grid = make_grid((12, 40), "mixed", seed=11)
    queue = CommandQueue()
    src, dst = Buffer(grid.nbytes), Buffer(grid.nbytes)
    with arm(FaultPlan(seed=0, faults=(SEUFault(site=site, at_touch=0),))) as inj:
        queue.enqueue_write_buffer(src, grid)
        with contextlib.suppress(FaultDetectedError):
            queue.enqueue_kernel(program, src, dst, 4)
        assert len(inj.fired) == 1


def test_seu_rejects_a_site_nothing_touches() -> None:
    with pytest.raises(ConfigurationError):
        SEUFault(site="shift-register")


def test_channel_corrupt_targets_nth_write() -> None:
    chan = Channel(depth=8, name="c")
    with arm(
        FaultPlan(seed=1, faults=(ChannelCorruptFault(at_write=2, bit=0),))
    ) as inj:
        for value in [1.0, 2.0, 3.0, 4.0]:
            assert chan.try_write(value)
        assert len(inj.fired) == 1
    got = [chan.read() for _ in range(4)]
    assert got[0] == 1.0 and got[1] == 2.0 and got[3] == 4.0
    assert got[2] != 3.0  # bit 0 of the mantissa flipped


def test_channel_corrupt_array_payload_copies() -> None:
    chan = Channel(depth=2, name="blocks")
    payload = np.ones(16, dtype=np.float32)
    with arm(
        FaultPlan(seed=2, faults=(ChannelCorruptFault(at_write=0),))
    ) as inj:
        assert chan.try_write(payload)
        assert len(inj.fired) == 1
        (item,) = chan._queue
        assert crc32_array(item) != crc32_array(payload)
        assert np.array_equal(payload, np.ones(16, dtype=np.float32))  # original intact


def test_channel_stall_burst_then_recovers() -> None:
    chan = Channel(depth=4, name="s")
    with arm(
        FaultPlan(seed=3, faults=(ChannelStallFault(at_op=0, duration=3),))
    ) as inj:
        results = [chan.try_write(1.0) for _ in range(5)]
        assert results == [False, False, False, True, True]
        assert chan.write_stalls == 3
        assert len(inj.fired) == 1


def test_channel_stall_filters_by_name_and_op() -> None:
    with arm(
        FaultPlan(
            seed=4,
            faults=(ChannelStallFault(at_op=0, duration=1, op="read", channel="x"),),
        )
    ):
        other = Channel(depth=2, name="y")
        assert other.try_write(1.0)  # write port unaffected
        ok, _ = other.try_read()  # wrong channel name: unaffected
        assert ok
        target = Channel(depth=2, name="x")
        assert target.try_write(2.0)
        ok, item = target.try_read()
        assert not ok and item is None  # burst holds the read port
        ok, item = target.try_read()
        assert ok and item == 2.0


def test_cycle_sim_memory_stall_adds_stall_cycles() -> None:
    spec = StencilSpec.star(2, 1)
    config = BlockingConfig(dims=2, radius=1, bsize_x=64, parvec=4, partime=2)
    sim = CycleSimulator(spec, config, NALLATECH_385A)
    clean = sim.run_block(256)
    with arm(
        FaultPlan(seed=6, faults=(MemoryStallFault(at_cycle=4, duration=32),))
    ) as inj:
        stalled = sim.run_block(256)
        assert len(inj.fired) == 1
    assert stalled.read_stall_cycles >= clean.read_stall_cycles + 32
    assert stalled.cycles > clean.cycles
    assert stalled.vectors == clean.vectors


def test_cycle_sim_watchdog_on_endless_stall() -> None:
    spec = StencilSpec.star(2, 1)
    config = BlockingConfig(dims=2, radius=1, bsize_x=64, parvec=4, partime=2)
    sim = CycleSimulator(spec, config, NALLATECH_385A)
    with arm(
        FaultPlan(seed=7, faults=(MemoryStallFault(at_cycle=0, duration=10**9),))
    ):
        with pytest.raises(WatchdogTimeoutError):
            sim.run_block(64, max_cycles=5_000)


def test_disarmed_hooks_have_no_side_effects() -> None:
    chan = Channel(depth=2, name="quiet")
    assert chan.try_write(1.0) and chan.read() == 1.0
