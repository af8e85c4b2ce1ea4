"""Fault-isolated sharded execution across N simulated devices.

One grid, N boards: a :class:`~repro.core.sharding.ShardPlan` splits the
grid along the streamed axis into halo-extended sub-grids, each running
on its own :class:`~repro.core.FPGAAccelerator`.  Iterations execute as
lockstep *compute-pass → halo-exchange* rounds: every device advances
its sub-grid by one hardware pass (at most ``partime`` steps), then
every cut edge ships ``partime * radius`` rows of freshly-computed
interior to the neighbor's halo zone through a
:class:`~repro.core.channels.Channel`, guarded end to end by a CRC32
computed at the sender — a corrupted or stalled transfer is detected at
the receiver and retried from the sender's intact interior, exactly
like a PCIe transfer in :mod:`repro.runtime.host`.  The result is
bit-exact against the single-device engine for every boundary mode
(see :mod:`repro.core.sharding` for the argument, and the hypothesis
equivalence suite in ``tests/properties/test_sharding_props.py``).

Failure domains are per shard:

* **Detected fault mid-pass** (SEU, corrupted channel item, wedged
  FIFO, golden-CRC mismatch): only that shard rolls back, to its own
  :class:`~repro.runtime.checkpoint.CheckpointManager` snapshot, and
  replays its tail alone — neighbors re-serve the halo strips they
  already sent from a bounded host-side cache keyed by pass index, so
  recovery cost scales with the snapshot distance of *one* shard, not
  with the whole run (``ShardedStats.replayed_passes`` vs a whole-run
  retry's ``passes * shards``; gated in ``BENCH_sharding.json``).
* **Repeated faults on one board** degrade that shard's engine from
  ``native`` to ``numpy`` independently (all engines are bit-identical,
  so degradation never changes the answer).
* **Board lost outright** (:class:`~repro.faults.DeviceLossFault`,
  polled at pass boundaries): the lost shard's state is restored from
  its snapshots and replayed on a survivor, the global grid is
  recomposed from shard interiors — exact at a pass boundary — and the
  run re-shards onto the survivors.  With no survivor left the run
  fails with a typed :class:`~repro.errors.DeviceLostError`.

Simulated time: each device carries its own clock, advanced by the
performance model's per-pass time for its sub-grid shape; exchanges are
serialized on the host link at ``link_gbps`` and every round ends in a
lockstep barrier (all clocks snap to the maximum).  Host↔device scatter
and gather transfers are deliberately *not* charged — the clock covers
compute plus inter-shard exchange, which is what
:meth:`repro.models.performance.PerformanceModel.predict_sharded`
predicts (validated in ``tests/models/test_performance.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.accelerator import FLOOR_ENGINE, FPGAAccelerator, check_engine
from repro.core.blocking import BlockingConfig
from repro.core.channels import Channel
from repro.core.sharding import HaloEdge, ShardPlan
from repro.core.stencil import StencilSpec
from repro.errors import (
    ConfigurationError,
    DeviceLostError,
    FaultDetectedError,
    HaloExchangeError,
)
from repro.faults import hooks as fault_hooks
from repro.faults.checksum import crc32_array
from repro.fpga.board import NALLATECH_385A
from repro.models.performance import PerformanceModel
from repro.runtime.checkpoint import CheckpointManager, as_manager
from repro.runtime.host import PCIE_GBPS

#: Stats counters an :class:`~repro.core.AcceleratorStats` contributes to
#: a shard's aggregate (the checkpoint cursor fields).
_MERGE_FIELDS = (
    "passes",
    "steps_executed",
    "cells_written",
    "cells_processed",
    "words_read",
    "words_written",
    "vector_ops",
    "pe_invocations",
)


@dataclass
class ShardedStats:
    """Accounting of one sharded run (totals across re-shard segments)."""

    shards: int
    #: Global compute passes completed (one pass = all live shards).
    passes: int = 0
    steps_executed: int = 0
    #: Halo strips delivered / bytes moved on the link / CRC-retry count.
    exchanges: int = 0
    exchange_bytes: int = 0
    exchange_retries: int = 0
    #: Halo CRC mismatches detected at receivers (each one retried).
    halo_detections: int = 0
    #: Cached strips re-served to a replaying shard by its neighbors.
    halo_reserved: int = 0
    #: Shard-granular recovery accounting (summed over per-shard
    #: :class:`~repro.runtime.checkpoint.CheckpointManager` instances).
    rollbacks: int = 0
    replayed_passes: int = 0
    checkpoints: int = 0
    #: Per-shard engine degradations / boards lost / re-shard events.
    degradations: int = 0
    devices_lost: int = 0
    reshards: int = 0
    #: Lockstep simulated time (compute + exchange; see module docstring).
    sim_time_s: float = 0.0
    #: Final engine per device (``"lost"`` for boards that died).
    engines: tuple[str, ...] = ()
    #: Detected faults charged to each device this run (loss included) —
    #: the scheduler's per-device health accounting reads this.
    device_faults: tuple[int, ...] = ()
    output_crc32: int | None = None


@dataclass
class ShardedResult:
    """Outcome of one :meth:`ShardedRunner.run` call."""

    grid: np.ndarray
    stats: ShardedStats
    plan: ShardPlan


class _ShardDevice:
    """One simulated board: its accelerator, clock and fault history."""

    __slots__ = ("index", "acc", "clock_s", "faults", "lost")

    def __init__(self, index: int, acc: FPGAAccelerator):
        self.index = index
        self.acc = acc
        self.clock_s = 0.0
        self.faults = 0
        self.lost = False


class ShardedRunner:
    """Lockstep multi-device executor with shard-granular recovery.

    Parameters
    ----------
    spec, config, boundary:
        As for :class:`~repro.core.FPGAAccelerator`; the boundary mode
        is global (each sub-grid resolves cut edges locally, but those
        rows are discarded and rewritten by the exchange).
    shards:
        Number of simulated devices; the grid's streamed axis is split
        across them (see :class:`~repro.core.sharding.ShardPlan`).
    engine:
        Initial engine of every device's accelerator, one of
        :data:`~repro.core.accelerator.ENGINES`.  Each accelerator's
        native pool has the default size (one worker per CPU this
        process may run on); shards execute one at a time, so those
        pools never compete for the CPUs.  Per-shard fault
        pressure degrades individual devices to ``"numpy"``
        independently; degradation is sticky across runs (a flaky board
        stays degraded, mirroring scheduler quarantine).
    engines:
        Optional per-device engine list overriding ``engine`` (length
        ``shards``) — the scheduler passes each backing worker's
        breaker-resolved engine here, so a shard landing on a degraded
        board starts on that board's conservative engine.
    checkpoint:
        Per-shard snapshot cadence — a
        :class:`~repro.runtime.checkpoint.CheckpointPolicy`, an int
        shorthand, or ``None`` to disable recovery (detected faults
        then propagate as typed errors).
    model, link_gbps:
        The performance model pricing per-pass compute time, and the
        host-link bandwidth pricing halo exchange (defaults to the PCIe
        model of :mod:`repro.runtime.host`).
    max_halo_retries:
        CRC-failed halo transfers are retried this many times before
        the exchange fails with :class:`~repro.errors.HaloExchangeError`.
    degrade_after:
        Detected faults on one board before its engine degrades.
    """

    #: Spin attempts an exchange hop tolerates before declaring the
    #: transport wedged (mirrors FPGAAccelerator.STALL_WATCHDOG).
    STALL_WATCHDOG = 256

    def __init__(
        self,
        spec: StencilSpec,
        config: BlockingConfig,
        boundary: str = "clamp",
        shards: int = 2,
        engine: str = "auto",
        engines=None,
        checkpoint=8,
        model: PerformanceModel | None = None,
        link_gbps: float = PCIE_GBPS,
        stall_watchdog: int | None = None,
        max_halo_retries: int = 2,
        degrade_after: int = 2,
    ):
        if shards < 1:
            raise ConfigurationError(
                f"shards must be >= 1, got {shards}",
                param="shards", value=shards, constraint="shards >= 1",
            )
        if max_halo_retries < 0:
            raise ConfigurationError(
                f"max_halo_retries must be >= 0, got {max_halo_retries}",
                param="max_halo_retries", value=max_halo_retries,
                constraint="max_halo_retries >= 0",
            )
        if degrade_after < 1:
            raise ConfigurationError(
                f"degrade_after must be >= 1, got {degrade_after}",
                param="degrade_after", value=degrade_after,
                constraint="degrade_after >= 1",
            )
        if not link_gbps > 0:
            raise ConfigurationError(
                f"link_gbps must be > 0, got {link_gbps}",
                param="link_gbps", value=link_gbps, constraint="link_gbps > 0",
            )
        if engines is not None and len(engines) != shards:
            raise ConfigurationError(
                f"engines has {len(engines)} entries for {shards} shards",
                param="engines", value=len(engines),
                constraint="len(engines) == shards",
            )
        for name in engines if engines is not None else (engine,):
            check_engine(name)
        self.spec = spec
        self.config = config
        self.boundary = boundary
        self.shards = shards
        self.engine = engine
        self.max_halo_retries = max_halo_retries
        self.degrade_after = degrade_after
        self.stall_watchdog = (
            stall_watchdog if stall_watchdog is not None else self.STALL_WATCHDOG
        )
        self._policy = (
            None if checkpoint is None else as_manager(checkpoint).policy
        )
        self.model = model if model is not None else PerformanceModel(NALLATECH_385A)
        self._link_bps = link_gbps * 1e9
        self._pass_time_cache: dict[tuple[int, ...], float] = {}
        self._devices = [
            _ShardDevice(
                i,
                FPGAAccelerator(
                    spec, config, boundary,
                    stall_watchdog=self.stall_watchdog,
                    engine=engines[i] if engines is not None else engine,
                ),
            )
            for i in range(shards)
        ]
        self._closed = False

    # -- lifecycle ------------------------------------------------------- #

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release every device's worker pools (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for dev in self._devices:
            dev.acc.close()

    def __enter__(self) -> "ShardedRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def engines(self) -> tuple[str, ...]:
        """Current resolved engine per device (``"lost"`` for dead boards)."""
        return tuple(
            "lost" if d.lost else d.acc.resolved_engine for d in self._devices
        )

    @property
    def device_faults(self) -> tuple[int, ...]:
        """Detected faults charged to each device (this run; loss included).

        Readable even after a run raised — the scheduler settles
        per-worker health from it on the failure path, where no
        :class:`ShardedStats` exist.
        """
        return tuple(d.faults + (1 if d.lost else 0) for d in self._devices)

    # -- pricing --------------------------------------------------------- #

    def _pass_time(self, sub_shape: tuple[int, ...]) -> float:
        """Modeled time of one hardware pass over one sub-grid shape."""
        key = tuple(sub_shape)
        t = self._pass_time_cache.get(key)
        if t is None:
            t = self.model.predict_measured(
                self.spec, self.config, key, self.config.partime
            ).time_s
            self._pass_time_cache[key] = t
        return t

    def _steps_at(self, r: int) -> int:
        """Time steps global pass ``r`` advances (final pass may be partial)."""
        return min(self.config.partime, self._total_iters - r * self.config.partime)

    # -- entry point ------------------------------------------------------ #

    def run(
        self, grid: np.ndarray, iterations: int, expected_crc: int | None = None
    ) -> ShardedResult:
        """Advance ``grid`` by ``iterations`` steps across the devices.

        Returns the recomposed global grid; the input is not modified.
        Raises typed errors only: :class:`~repro.errors.ConfigurationError`
        at admission, :class:`~repro.errors.HaloExchangeError` when an
        exchange fails past its retry budget,
        :class:`~repro.errors.DeviceLostError` when a board dies with no
        survivor, and the original
        :class:`~repro.errors.FaultDetectedError` when a shard's
        rollback budget is exhausted (or ``checkpoint=None``).
        """
        if self._closed:
            raise ConfigurationError(
                "sharded runner is closed; create a new instance",
                param="closed", value=True,
                constraint="run() requires an open runner",
            )
        if iterations < 0:
            raise ConfigurationError(
                f"iterations must be >= 0, got {iterations}",
                param="iterations", value=iterations, constraint="iterations >= 0",
            )
        grid = np.ascontiguousarray(grid, dtype=np.float32)
        # Validates boundary/shape/halo-invariant before anything executes.
        plan = ShardPlan(self.config, grid.shape, self.boundary, self.shards)
        stats = ShardedStats(shards=self.shards)
        for dev in self._devices:
            dev.clock_s = 0.0
            dev.faults = 0
            dev.lost = False
        if iterations == 0:
            out = grid.copy()
            self._golden(out, expected_crc, stats)
            stats.engines = self.engines
            stats.device_faults = self.device_faults
            return ShardedResult(out, stats, plan)

        self._total_iters = iterations
        self._total_passes = self.config.passes(iterations)
        live = list(self._devices)
        current = grid
        pass_global = 0
        remaining = iterations

        while True:
            if len(live) != plan.n_shards:
                plan = ShardPlan(
                    self.config, grid.shape, self.boundary, len(live)
                )
            subs = plan.scatter(current)
            aggs = [_ShardAgg() for _ in plan.shards]
            mgrs: list[CheckpointManager | None] = []
            for i, shard in enumerate(plan.shards):
                aggs[i].passes = pass_global
                mgr = (
                    CheckpointManager(self._policy)
                    if self._policy is not None
                    else None
                )
                if mgr is not None:
                    mgr.seed(subs[i], aggs[i])
                mgrs.append(mgr)
            cache_len = (self._policy.every if self._policy else 0) + 1
            caches = {
                e.name: deque(maxlen=cache_len) for e in plan.edges
            }
            chans = {e.name: Channel(1, name=e.name) for e in plan.edges}

            resharded = False
            while remaining > 0:
                p = pass_global
                steps = self._steps_at(p)
                for i, dev in enumerate(live):
                    subs[i] = self._compute_pass(
                        i, dev, subs, p, steps, mgrs[i], aggs[i], plan,
                        caches, stats,
                    )
                    dev.clock_s += self._pass_time(subs[i].shape)
                remaining -= steps
                pass_global += 1
                stats.passes += 1
                stats.steps_executed += steps

                t_round = 0.0
                if remaining > 0:
                    t_round = self._exchange(plan, subs, p, chans, caches, stats)
                top = max(d.clock_s for d in live) + t_round
                for d in live:
                    d.clock_s = top

                if remaining > 0:
                    for i in range(len(live)):
                        if mgrs[i] is not None:
                            mgrs[i].maybe_snapshot(subs[i], aggs[i], remaining)
                    inj = fault_hooks.ACTIVE
                    if inj is not None:
                        lost_now = [
                            (i, dev)
                            for i, dev in enumerate(live)
                            if inj.device_lost(dev.index, p)
                        ]
                        if lost_now:
                            current = self._handle_loss(
                                plan, subs, live, lost_now, p, mgrs, aggs,
                                caches, stats,
                            )
                            self._fold_recovery(stats, mgrs)
                            resharded = True
                            break
            if resharded:
                continue
            self._fold_recovery(stats, mgrs)
            current = plan.gather(subs)
            break

        stats.sim_time_s = max(d.clock_s for d in self._devices)
        stats.engines = self.engines
        stats.device_faults = self.device_faults
        self._golden(current, expected_crc, stats)
        return ShardedResult(current, stats, plan)

    @staticmethod
    def _golden(out: np.ndarray, expected_crc: int | None, stats: ShardedStats):
        if expected_crc is None and fault_hooks.ACTIVE is None:
            return
        stats.output_crc32 = crc32_array(out)
        if expected_crc is not None and stats.output_crc32 != expected_crc:
            raise fault_hooks.report_detection(
                FaultDetectedError(
                    f"golden-CRC mismatch on sharded result: "
                    f"{stats.output_crc32:#010x} != expected {expected_crc:#010x}"
                )
            )

    # -- compute with shard-granular recovery ------------------------------ #

    @staticmethod
    def _merge(agg, s) -> None:
        for name in _MERGE_FIELDS:
            setattr(agg, name, getattr(agg, name) + getattr(s, name))

    def _compute_pass(
        self, i, dev, subs, p, steps, mgr, agg, plan, caches, stats
    ) -> np.ndarray:
        """Run global pass ``p`` on shard ``i``; recover on detected faults.

        Returns the shard's post-pass sub-grid.  A detected fault rolls
        only this shard back to its last snapshot and replays its tail
        with cached halos; the fault re-raises (typed) when recovery is
        disabled or the rollback budget is exhausted.
        """
        while True:
            try:
                out, s = dev.acc.run(subs[i], steps)
            except FaultDetectedError as err:
                dev.faults += 1
                if dev.faults >= self.degrade_after:
                    self._degrade(dev, stats)
                if mgr is None:
                    raise
                self._restore_shard(i, dev, subs, p, err, mgr, agg, plan,
                                    caches, stats)
                continue
            self._merge(agg, s)
            return out

    def _restore_shard(
        self, i, dev, subs, p, err, mgr, agg, plan, caches, stats
    ) -> None:
        """Bring shard ``i`` back to its ready-for-pass-``p`` state.

        Rolls back to the shard's last intact snapshot and replays
        passes ``[snapshot, p)`` on this shard alone, re-serving each
        replayed round's incoming halos from the host-side cache.  The
        original error escalates when the rollback budget is exhausted
        or a needed halo has aged out of the cache (only possible after
        a corrupt-snapshot fallback to the pass-0 base state).
        """
        subs[i] = mgr.rollback(agg, err).copy()
        r = int(agg.passes)
        replay_from = r
        while r < p:
            steps_r = self._steps_at(r)
            try:
                out, s = dev.acc.run(subs[i], steps_r)
            except FaultDetectedError as err2:
                dev.faults += 1
                if dev.faults >= self.degrade_after:
                    self._degrade(dev, stats)
                subs[i] = mgr.rollback(agg, err2).copy()
                r = int(agg.passes)
                continue
            self._merge(agg, s)
            subs[i] = out
            dev.clock_s += self._pass_time(out.shape)
            self._reserve_halos(plan, subs, i, r, caches, dev, err, stats)
            r += 1
        fault_hooks.report_recovery(
            f"shard {i}: tail replay from pass {replay_from} complete, "
            f"retrying pass {p} (neighbors untouched)"
        )

    def _reserve_halos(
        self, plan, subs, i, r, caches, dev, err, stats
    ) -> None:
        """Re-apply the halo strips shard ``i`` received after pass ``r``."""
        if r >= self._total_passes - 1:
            return  # no exchange follows the final pass
        for e in plan.edges:
            if e.dst != i:
                continue
            strip = self._cached(caches[e.name], r)
            if strip is None:
                raise err  # replay horizon exceeded the bounded halo cache
            subs[i][e.dst_rows[0]:e.dst_rows[1]] = strip
            dev.clock_s += strip.nbytes / self._link_bps
            stats.halo_reserved += 1

    @staticmethod
    def _cached(cache, r) -> np.ndarray | None:
        for idx, strip in cache:
            if idx == r:
                return strip
        return None

    def _degrade(self, dev: _ShardDevice, stats: ShardedStats) -> None:
        """Move one device's engine to the NumPy floor (once)."""
        old = dev.acc.resolved_engine
        if old == FLOOR_ENGINE:
            return
        acc = FPGAAccelerator(
            self.spec, self.config, self.boundary,
            stall_watchdog=self.stall_watchdog, engine=FLOOR_ENGINE,
        )
        dev.acc.close()
        dev.acc = acc
        stats.degradations += 1
        fault_hooks.report_recovery(
            f"device {dev.index} degraded {old} -> {acc.resolved_engine} "
            f"after {dev.faults} detected faults"
        )

    # -- halo exchange ----------------------------------------------------- #

    def _exchange(self, plan, subs, p, chans, caches, stats) -> float:
        """Run exchange round ``p``; returns its host-link time."""
        t = 0.0
        for e in plan.edges:
            strip, retries = self._transfer(subs, e, p, chans[e.name], stats)
            subs[e.dst][e.dst_rows[0]:e.dst_rows[1]] = strip
            caches[e.name].append((p, strip))
            stats.exchanges += 1
            stats.exchange_retries += retries
            nbytes = strip.nbytes * (1 + retries)
            stats.exchange_bytes += nbytes
            t += nbytes / self._link_bps
        return t

    def _transfer(self, subs, edge: HaloEdge, p, chan, stats):
        """Move one halo strip sender → receiver with CRC verification.

        The CRC is computed at the sender *before* the strip enters the
        transport (where :class:`~repro.faults.HaloCorruptFault` and
        channel faults can strike); a receiver-side mismatch is detected,
        reported, and retried from the sender's intact interior — a
        retry budget overrun raises :class:`~repro.errors.HaloExchangeError`.
        Disarmed no fault can strike the hop, so neither CRC is computed.
        """
        inj = fault_hooks.ACTIVE
        attempts = 0
        while True:
            strip = np.ascontiguousarray(
                subs[edge.src][edge.src_rows[0]:edge.src_rows[1]]
            )
            if inj is None:
                return self._hop(chan, strip, edge, p), attempts
            golden = crc32_array(strip)
            strip = inj.corrupt_halo(edge.name, strip)
            arrived = self._hop(chan, strip, edge, p)
            if crc32_array(arrived) == golden:
                if attempts:
                    fault_hooks.report_recovery(
                        f"halo {edge.name} retry {attempts} delivered an "
                        "intact strip"
                    )
                return arrived, attempts
            attempts += 1
            err = HaloExchangeError(
                f"halo CRC mismatch on {edge.name} at pass {p} "
                f"(attempt {attempts})",
                edge=edge.name, shard=edge.dst, passes=p,
            )
            fault_hooks.report_detection(err)
            stats.halo_detections += 1
            if attempts > self.max_halo_retries:
                raise err

    def _hop(self, chan, strip, edge: HaloEdge, p) -> np.ndarray:
        """One FIFO hop; spins under stall faults, watchdogged."""
        spins = 0
        while not chan.try_write(strip):
            spins += 1
            if spins > self.stall_watchdog:
                raise fault_hooks.report_detection(
                    HaloExchangeError(
                        f"halo {edge.name} write stalled for {spins} attempts "
                        f"(watchdog {self.stall_watchdog})",
                        edge=edge.name, shard=edge.dst, passes=p,
                    )
                )
        spins = 0
        while True:
            ok, item = chan.try_read()
            if ok:
                return item
            spins += 1
            if spins > self.stall_watchdog:
                raise fault_hooks.report_detection(
                    HaloExchangeError(
                        f"halo {edge.name} read stalled for {spins} attempts "
                        f"(watchdog {self.stall_watchdog})",
                        edge=edge.name, shard=edge.dst, passes=p,
                    )
                )

    # -- device loss and re-sharding --------------------------------------- #

    def _handle_loss(
        self, plan, subs, live, lost_now, p, mgrs, aggs, caches, stats
    ) -> np.ndarray:
        """Recover lost shards onto survivors; returns the recomposed grid.

        Every lost shard's state is restored from its own snapshots and
        replayed — including pass ``p`` and its exchange round — on the
        first survivor, so all shard interiors sit at the same pass
        boundary; the caller then re-shards the recomposed grid across
        the survivors.
        """
        for i, dev in lost_now:
            dev.lost = True
            stats.devices_lost += 1
        survivors = [d for d in live if not d.lost]
        if not survivors:
            i, dev = lost_now[0]
            raise fault_hooks.report_detection(
                DeviceLostError(
                    f"device {dev.index} lost after pass {p} and no "
                    "survivor remains",
                    device=dev.index, shard=i,
                )
            )
        host = survivors[0]
        for i, dev in lost_now:
            err = DeviceLostError(
                f"device {dev.index} (shard {i}) lost after pass {p}",
                device=dev.index, shard=i,
            )
            fault_hooks.report_detection(err)
            if mgrs[i] is None:
                raise err
            subs[i] = mgrs[i].rollback(aggs[i], err).copy()
            r = int(aggs[i].passes)
            while r <= p:
                out, s = host.acc.run(subs[i], self._steps_at(r))
                self._merge(aggs[i], s)
                subs[i] = out
                host.clock_s += self._pass_time(out.shape)
                self._reserve_halos(plan, subs, i, r, caches, host, err, stats)
                r += 1
            fault_hooks.report_recovery(
                f"shard {i} recovered onto device {host.index}; re-sharding "
                f"across {len(survivors)} survivors"
            )
        stats.reshards += 1
        live[:] = survivors
        return plan.gather(subs)

    @staticmethod
    def _fold_recovery(stats: ShardedStats, mgrs) -> None:
        for mgr in mgrs:
            if mgr is None:
                continue
            stats.rollbacks += mgr.rollbacks
            stats.replayed_passes += mgr.replayed_passes
            stats.checkpoints += mgr.checkpoints


class _ShardAgg:
    """Duck-typed stats object carrying a shard's checkpoint cursor.

    Holds exactly the fields :class:`~repro.runtime.checkpoint.
    CheckpointManager` reads and writes (the cursor counters plus the
    recovery tallies), with ``passes`` tracking the *global* pass index
    so snapshots and replay agree on pass numbering across re-shard
    segments.
    """

    __slots__ = _MERGE_FIELDS + ("rollbacks", "replayed_passes", "checkpoints")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)


__all__ = [
    "ShardedRunner",
    "ShardedResult",
    "ShardedStats",
]
