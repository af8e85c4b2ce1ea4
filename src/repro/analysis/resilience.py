"""Resilience report: fault coverage, detection rate, retry overhead.

Runs a seeded fault campaign against a small stencil workload: one
scenario per fault class of :mod:`repro.faults`, each armed around the
paper's measurement loop (:func:`repro.runtime.benchmark_kernel`).  For
every scenario the report records whether the fault actually fired
(coverage), whether the detection machinery caught it (checksums, CRCs,
watchdogs), whether the retry path recovered a bit-exact result, and
what the recovery cost in effective GCell/s.

Registered as experiment id ``resilience``; the whole campaign is
deterministic, so the report doubles as a regression gate on the
fault-injection subsystem.

A second experiment, ``chaos``, drives *randomized* fault schedules
through the multi-device :class:`~repro.runtime.StencilScheduler` and
checks the end-to-end invariant: every admitted job either completes
bit-identical to :func:`repro.core.reference_run` or fails with a typed
error — never silently wrong.  It also measures the recovery-cost claim
of pass-granular checkpointing: replaying the tail since the last
snapshot must beat a whole-run retry by at least 3x in replayed passes
on a long run faulted near the end (the numbers behind
``BENCH_recovery.json``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.compare import compare_values
from repro.analysis.tables import render_table
from repro.core import BlockingConfig, StencilSpec, make_grid, reference_run
from repro.errors import FaultDetectedError
from repro.experiments.base import ExperimentResult
from repro.faults import (
    ChannelCorruptFault,
    ChannelStallFault,
    FaultPlan,
    FmaxDerateFault,
    SensorDropoutFault,
    SEUFault,
    TransferFault,
    arm,
)
from repro.runtime.checkpoint import CheckpointPolicy
from repro.runtime.host import (
    Buffer,
    CommandQueue,
    HostDevice,
    RetryPolicy,
    StencilProgram,
    benchmark_kernel,
)
from repro.runtime.scheduler import StencilJob, StencilScheduler

#: Campaign workload: small enough for CI, large enough for several
#: blocks per pass (so block-level faults have real structure to hit).
GRID_SHAPE = (24, 96)
ITERATIONS = 4
SEED = 2018  # the paper's year; drives every random fault position

RETRY_POLICY = RetryPolicy(max_retries=3, backoff_s=100e-6, multiplier=2.0)


@dataclass(frozen=True)
class ScenarioOutcome:
    """One fault class, one armed run."""

    name: str
    injected: bool
    detected: bool
    recovered: bool
    gcell_s: float
    overhead_pct: float


def _program() -> StencilProgram:
    spec = StencilSpec.star(2, 2)
    config = BlockingConfig(dims=2, radius=2, bsize_x=64, parvec=4, partime=2)
    return StencilProgram(spec, config)


def _probe_first_kernel_window(program: StencilProgram, grid) -> tuple[float, float]:
    """Simulated-clock window of the first kernel launch (fault-free)."""
    queue = CommandQueue(HostDevice(program.board))
    src = Buffer(grid.astype(np.float32).nbytes)
    dst = Buffer(src.nbytes)
    queue.enqueue_write_buffer(src, grid)
    event = queue.enqueue_kernel(program, src, dst, ITERATIONS)
    return event.start_s, event.end_s


def _scenarios(program: StencilProgram, grid) -> list[tuple[str, FaultPlan, float | None]]:
    """(name, plan, watchdog_s) per fault class."""
    nominal_s = program.kernel_time_s(grid.shape, ITERATIONS)
    _, first_kernel_end = _probe_first_kernel_window(program, grid)
    watchdog = 1.5 * nominal_s
    return [
        (
            "seu-bram",
            FaultPlan(seed=SEED, faults=(SEUFault(site="block-buffer", at_touch=3),)),
            None,
        ),
        (
            "seu-dram",
            FaultPlan(seed=SEED + 1, faults=(SEUFault(site="dram", at_touch=0),)),
            None,
        ),
        (
            "channel-corrupt",
            FaultPlan(seed=SEED + 2, faults=(ChannelCorruptFault(at_write=2),)),
            None,
        ),
        (
            "channel-stall",
            FaultPlan(
                seed=SEED + 3,
                faults=(ChannelStallFault(at_op=0, duration=300),),
            ),
            None,
        ),
        (
            "transfer-fail",
            FaultPlan(
                seed=SEED + 4,
                faults=(TransferFault(direction="write", mode="fail"),),
            ),
            None,
        ),
        (
            "transfer-corrupt",
            FaultPlan(
                seed=SEED + 5,
                faults=(TransferFault(direction="read", mode="corrupt"),),
            ),
            None,
        ),
        (
            "sensor-dropout",
            FaultPlan(
                seed=SEED + 6,
                faults=(SensorDropoutFault(0.0, first_kernel_end),),
            ),
            None,
        ),
        (
            "fmax-derate",
            FaultPlan(seed=SEED + 7, faults=(FmaxDerateFault(factor=0.5),)),
            watchdog,
        ),
    ]


def run_campaign() -> tuple[list[ScenarioOutcome], float]:
    """Run every scenario; returns outcomes plus the fault-free GCell/s."""
    program = _program()
    grid = make_grid(GRID_SHAPE, "mixed", seed=11)
    golden = benchmark_kernel(program, grid, ITERATIONS, repeats=1)

    outcomes: list[ScenarioOutcome] = []
    for name, plan, watchdog_s in _scenarios(program, grid):
        with arm(plan) as injector:
            try:
                bench = benchmark_kernel(
                    program,
                    grid,
                    ITERATIONS,
                    repeats=1,
                    retry_policy=RETRY_POLICY,
                    watchdog_s=watchdog_s,
                )
                recovered = bool(np.array_equal(bench.result, golden.result))
                gcell = bench.gcell_s
            except FaultDetectedError:
                recovered = False  # detected but retries exhausted
                gcell = 0.0
            outcomes.append(
                ScenarioOutcome(
                    name=name,
                    injected=len(injector.fired) > 0,
                    detected=len(injector.detections) > 0,
                    recovered=recovered,
                    gcell_s=gcell,
                    overhead_pct=100.0 * (1.0 - gcell / golden.gcell_s),
                )
            )
    return outcomes, golden.gcell_s


def run() -> ExperimentResult:
    """Build the resilience report (experiment id ``resilience``)."""
    outcomes, golden_gcell = run_campaign()

    rows = [
        (
            o.name,
            "yes" if o.injected else "NO",
            "yes" if o.detected else "NO",
            "yes" if o.recovered else "NO",
            f"{o.gcell_s:.3f}",
            f"{o.overhead_pct:+.1f}%",
        )
        for o in outcomes
    ]
    table = render_table(
        ["fault", "injected", "detected", "recovered", "GCell/s", "overhead"],
        rows,
        title="Fault-injection campaign "
        f"(seed {SEED}, grid {GRID_SHAPE}, {ITERATIONS} iters, "
        f"fault-free {golden_gcell:.3f} GCell/s)",
    )

    n = len(outcomes)
    coverage = sum(o.injected for o in outcomes) / n
    detection = sum(o.detected for o in outcomes) / n
    recovery = sum(o.recovered for o in outcomes) / n
    comparisons = [
        compare_values("fault coverage (classes fired)", 1.0, coverage, 0.0),
        compare_values("detection rate", 1.0, detection, 0.0),
        compare_values("recovery rate (bit-exact)", 1.0, recovery, 0.0),
    ]
    return ExperimentResult(
        exp_id="resilience",
        title="Fault coverage, detection rate and retry overhead",
        text=table,
        comparisons=comparisons,
        data={
            "golden_gcell_s": golden_gcell,
            "outcomes": [
                {
                    "fault": o.name,
                    "injected": o.injected,
                    "detected": o.detected,
                    "recovered": o.recovered,
                    "gcell_s": o.gcell_s,
                    "overhead_pct": o.overhead_pct,
                }
                for o in outcomes
            ],
        },
    )


# --------------------------------------------------------------------- #
# chaos: randomized fault schedules through the scheduler
# --------------------------------------------------------------------- #

#: Chaos workload: single-digit-millisecond jobs, two blocks per pass.
CHAOS_SPEC = StencilSpec.star(2, 1)
CHAOS_CONFIG = BlockingConfig(dims=2, radius=1, bsize_x=64, parvec=4, partime=2)
CHAOS_GRID_SHAPE = (16, 64)

#: Error types an admitted job may legitimately fail with.  Anything
#: else — or a completed job whose bits differ from the reference —
#: violates the chaos invariant.
TYPED_FAILURES = frozenset(
    {
        "FaultDetectedError",
        "WatchdogTimeoutError",
        "DeadlineExceededError",
        "ConfigurationError",
    }
)


def _random_fault_plan(rng: np.random.Generator) -> FaultPlan:
    """A seeded random fault schedule: 1-2 faults, random class/position."""
    menu = (
        lambda: SEUFault(
            site="block-buffer", at_touch=int(rng.integers(0, 40))
        ),
        lambda: SEUFault(site="dram", at_touch=int(rng.integers(0, 3))),
        lambda: ChannelCorruptFault(at_write=int(rng.integers(0, 30))),
        lambda: ChannelStallFault(
            at_op=int(rng.integers(0, 20)),
            duration=int(rng.integers(100, 400)),  # straddles the watchdog
        ),
        lambda: TransferFault(
            at_transfer=int(rng.integers(0, 3)),
            direction=str(rng.choice(["write", "read"])),
            mode=str(rng.choice(["corrupt", "fail"])),
        ),
    )
    n_faults = int(rng.integers(1, 3))
    faults = tuple(menu[int(rng.integers(0, len(menu)))]() for _ in range(n_faults))
    return FaultPlan(seed=int(rng.integers(0, 2**31)), faults=faults)


@dataclass(frozen=True)
class ChaosBatch:
    """One armed batch of scheduled jobs."""

    seed: int
    fault_names: tuple[str, ...]
    completed: int
    failed_typed: int
    violations: int


def run_chaos_campaign(
    seed: int = SEED,
    batches: int = 4,
    jobs_per_batch: int = 3,
    devices: int = 2,
) -> list[ChaosBatch]:
    """Randomized fault schedules through the multi-device scheduler.

    Each batch arms a fresh random :class:`FaultPlan` (derived from
    ``seed`` — the whole campaign is reproducible) and runs a few jobs
    through the scheduler under it.  Every result is checked against the
    invariant: completed jobs must be bit-identical to
    :func:`reference_run`; failed jobs must carry a typed error.
    """
    rng = np.random.default_rng(seed)
    grid = make_grid(CHAOS_GRID_SHAPE, "mixed", seed=seed % 1000)
    references: dict[int, np.ndarray] = {}
    outcomes: list[ChaosBatch] = []
    for b in range(batches):
        plan = _random_fault_plan(rng)
        sched = StencilScheduler(
            devices=devices,
            retry_policy=RETRY_POLICY,
            default_checkpoint=CheckpointPolicy(every=4),
        )
        jobs = [
            StencilJob(
                job_id=f"b{b}-j{j}",
                spec=CHAOS_SPEC,
                config=CHAOS_CONFIG,
                grids=(grid,),
                iterations=int(rng.choice([4, 6, 10])),
            )
            for j in range(jobs_per_batch)
        ]
        with arm(plan):
            results = [sched.execute_job(job) for job in jobs]
        completed = failed_typed = violations = 0
        for res, job in zip(results, jobs):
            n = job.iterations
            if res.status == "completed":
                if n not in references:
                    references[n] = reference_run(grid, CHAOS_SPEC, n)
                if np.array_equal(res.result, references[n]):
                    completed += 1
                else:
                    violations += 1  # silently wrong: the cardinal sin
            elif res.error_type in TYPED_FAILURES:
                failed_typed += 1
            else:
                violations += 1
        outcomes.append(
            ChaosBatch(
                seed=plan.seed,
                fault_names=tuple(type(f).__name__ for f in plan.faults),
                completed=completed,
                failed_typed=failed_typed,
                violations=violations,
            )
        )
    return outcomes


def run_replay_cost(
    iterations: int = 1000,
    fault_at_fraction: float = 0.9,
    checkpoint_every: int = 25,
) -> dict:
    """Tail replay vs whole-run retry on a long run faulted near the end.

    Runs the same workload twice with the same mid-pass SEU at
    ``fault_at_fraction`` of the run: once with ``checkpoint_every``
    snapshots (tail replay) and once with an interval no run ever
    reaches (the whole-run-retry baseline: rollback lands on pass 0).
    Returns replayed-pass counts, clock overheads, and their ratio.
    """
    program = StencilProgram(CHAOS_SPEC, CHAOS_CONFIG)
    grid = make_grid(CHAOS_GRID_SHAPE, "mixed", seed=11)
    passes = -(-iterations // CHAOS_CONFIG.partime)
    fault_pass = int(passes * fault_at_fraction)
    if fault_pass % checkpoint_every == 0:
        fault_pass += checkpoint_every // 2  # keep a real tail to replay
    # armed block-buffer touches per pass: blocks x (1 + steps)
    _, probe = program.execute(grid, CHAOS_CONFIG.partime)
    touches_per_pass = probe.blocks_per_pass * (1 + CHAOS_CONFIG.partime)
    seu = SEUFault(
        site="block-buffer", at_touch=fault_pass * touches_per_pass + 1
    )

    def measure(every: int) -> dict:
        queue = CommandQueue(HostDevice(program.board), retry_policy=RETRY_POLICY)
        src = Buffer(grid.nbytes)
        dst = Buffer(grid.nbytes)
        with arm(FaultPlan(seed=SEED, faults=(seu,))):
            queue.enqueue_write_buffer(src, grid)
            event = queue.enqueue_kernel(
                program,
                src,
                dst,
                iterations,
                checkpoint=CheckpointPolicy(every=every),
            )
            out, _ = queue.enqueue_read_buffer(dst)
        return {
            "every": every,
            "replayed_passes": event.replayed_passes,
            "rollbacks": event.rollbacks,
            "checkpoint_overhead_s": event.checkpoint_overhead_s,
            "kernel_event_s": event.duration_s,
            "bit_exact": bool(
                np.array_equal(out, reference_run(grid, CHAOS_SPEC, iterations))
            ),
        }

    whole = measure(10**9)  # only the pass-0 base snapshot exists
    tail = measure(checkpoint_every)
    ratio = whole["replayed_passes"] / max(1, tail["replayed_passes"])
    return {
        "iterations": iterations,
        "passes": passes,
        "fault_pass": fault_pass,
        "checkpoint_every": checkpoint_every,
        "whole_run": whole,
        "tail_replay": tail,
        "replay_cost_ratio": ratio,
        "meets_3x_target": bool(ratio >= 3.0),
    }


def run_chaos() -> ExperimentResult:
    """Build the chaos report (experiment id ``chaos``)."""
    batches = run_chaos_campaign()
    replay = run_replay_cost()

    rows = [
        (
            f"{i}",
            "+".join(b.fault_names),
            f"{b.completed}",
            f"{b.failed_typed}",
            f"{b.violations}",
        )
        for i, b in enumerate(batches)
    ]
    table = render_table(
        ["batch", "faults", "bit-exact", "failed typed", "violations"],
        rows,
        title=f"Chaos campaign (seed {SEED}, scheduler with 2 devices, "
        "checkpoint every 4 passes)",
    )
    tail = replay["tail_replay"]
    whole = replay["whole_run"]
    table += (
        f"\n\nRecovery cost, {replay['iterations']}-iteration run faulted at "
        f"pass {replay['fault_pass']}/{replay['passes']}:\n"
        f"  whole-run retry : {whole['replayed_passes']} replayed passes\n"
        f"  tail replay     : {tail['replayed_passes']} replayed passes "
        f"(checkpoint every {replay['checkpoint_every']})\n"
        f"  ratio           : {replay['replay_cost_ratio']:.1f}x "
        "(target >= 3x)\n"
    )

    total = sum(b.completed + b.failed_typed + b.violations for b in batches)
    ok = sum(b.completed + b.failed_typed for b in batches)
    violations = sum(b.violations for b in batches)
    comparisons = [
        compare_values("jobs completed or failed typed", 1.0, ok / total, 0.0),
        compare_values(
            "invariant intact (no silent corruption, no untyped failure)",
            1.0,
            1.0 if violations == 0 else 0.0,
            0.0,
        ),
        compare_values(
            "tail replay >= 3x cheaper than whole-run retry",
            1.0,
            1.0 if replay["meets_3x_target"] else 0.0,
            0.0,
        ),
    ]
    return ExperimentResult(
        exp_id="chaos",
        title="Chaos scheduling: typed-failure invariant and recovery cost",
        text=table,
        comparisons=comparisons,
        data={
            "batches": [
                {
                    "seed": b.seed,
                    "faults": list(b.fault_names),
                    "completed": b.completed,
                    "failed_typed": b.failed_typed,
                    "violations": b.violations,
                }
                for b in batches
            ],
            "replay_cost": replay,
        },
    )


# --------------------------------------------------------------------- #
# overload: offered load past saturation through the serving layer
# --------------------------------------------------------------------- #

#: Typed terminations the serving layer may legitimately report under
#: overload, on top of the scheduler's own set: the service's two
#: overload rejections, by their concrete type names.
OVERLOAD_TYPED = TYPED_FAILURES | {"ShedError", "QueueTimeoutError"}

#: Per-request wall-clock budget in the overload campaign.  The
#: invariant is *bounded* termination: a ticket unresolved after this
#: many wall seconds counts as a violation (a hang or silent drop).
OVERLOAD_BOUND_S = 60.0


@dataclass(frozen=True)
class OverloadCell:
    """One offered-load factor of the overload sweep."""

    factor: float
    offered: int
    completed: int
    shed: int
    queue_timeouts: int
    deadline_misses: int
    other_typed: int
    degraded: int
    coalesced: int
    retries: int
    violations: int
    unterminated: int
    p50_ms: float
    p99_ms: float


def _overload_policy(max_queue_depth: int) -> "ServicePolicy":
    """The campaign's service policy: a shallow queue so pressure builds,
    a bounded queued wait and a short retry backoff.  Retries, jitter
    and the degrade ladder are the service's constants."""
    from repro.runtime.service import ServicePolicy

    return ServicePolicy(
        max_queue_depth=max_queue_depth,
        queue_timeout_s=20.0,
        retry_backoff_s=0.002,
        # the campaign pins the *per-job* backpressure ladder; batched
        # dispatch would drain the chaos queue before pressure builds
        coalesce_max_batch=1,
    )


def _measure_saturation_rate(
    grid: np.ndarray, iterations: int, devices: int, probe_jobs: int = 8
) -> float:
    """Unthrottled drain rate of the service (jobs per wall second)."""
    import time

    from repro.runtime.service import StencilService

    svc = StencilService(
        StencilScheduler(devices=devices, retry_policy=RETRY_POLICY),
        policy=_overload_policy(max_queue_depth=probe_jobs + 2),
        start=False,
    )
    try:
        # warm the artifact cache so the probe measures steady state
        svc.submit("probe", CHAOS_SPEC, CHAOS_CONFIG, grid, iterations)
        svc.run_pending()
        start = time.perf_counter()
        for _ in range(probe_jobs):
            svc.submit("probe", CHAOS_SPEC, CHAOS_CONFIG, grid, iterations)
        svc.run_pending()
        elapsed = time.perf_counter() - start
    finally:
        svc.close()
    return probe_jobs / max(elapsed, 1e-6)


def run_overload_campaign(
    seed: int = SEED,
    factors: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0),
    jobs_per_factor: int = 24,
    devices: int = 2,
    tenants: int = 3,
    iterations: int = 4,
    max_queue_depth: int = 8,
    with_faults: bool = True,
) -> dict:
    """Sweep offered load past saturation through :class:`StencilService`.

    For each factor the campaign paces ``jobs_per_factor`` requests from
    ``tenants`` round-robin tenants at ``factor x`` the measured
    saturation rate, with a fresh seeded random fault plan armed, and
    classifies every termination.  The invariant under test: **every
    submitted request terminates within** :data:`OVERLOAD_BOUND_S`
    **wall seconds with either a bit-exact result or a typed error** —
    no hangs, no silent drops, no corrupted outputs.  Backpressure must
    also engage: past saturation (factor >= 2) at least one request is
    shed, timed out, or explicitly degraded.
    """
    import contextlib
    import time

    from repro.errors import ShedError
    from repro.runtime.service import StencilService, TenantQuota

    rng = np.random.default_rng(seed)
    grid = make_grid(CHAOS_GRID_SHAPE, "mixed", seed=seed % 1000)
    reference = reference_run(grid, CHAOS_SPEC, iterations)
    saturation_rate = _measure_saturation_rate(grid, iterations, devices)

    cells: list[OverloadCell] = []
    for factor in factors:
        plan = _random_fault_plan(rng) if with_faults else None
        svc = StencilService(
            StencilScheduler(
                devices=devices,
                retry_policy=RETRY_POLICY,
                default_checkpoint=CheckpointPolicy(every=4),
            ),
            policy=_overload_policy(max_queue_depth),
            quotas={
                f"tenant-{t}": TenantQuota(weight=t + 1) for t in range(tenants)
            },
        )
        interval_s = 1.0 / (factor * saturation_rate)
        tickets = []
        shed = 0
        counts = dict.fromkeys(
            ("queue_timeouts", "deadline_misses", "other_typed",
             "degraded", "coalesced", "retries", "violations",
             "unterminated", "completed"),
            0,
        )
        latencies: list[float] = []
        ctx = arm(plan) if plan is not None else contextlib.nullcontext()
        try:
            with ctx:
                start = time.perf_counter()
                for j in range(jobs_per_factor):
                    tenant = f"tenant-{j % tenants}"
                    try:
                        tickets.append(
                            svc.submit(
                                tenant,
                                CHAOS_SPEC,
                                CHAOS_CONFIG,
                                grid,
                                iterations,
                                priority=j % 2,
                                deadline_s=OVERLOAD_BOUND_S / 2,
                            )
                        )
                    except ShedError:
                        shed += 1
                    # pace against an absolute schedule: a submit the
                    # dispatch thread delayed (it holds the GIL) is made
                    # up by the next ones instead of lowering the rate
                    delay = start + (j + 1) * interval_s - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                for ticket in tickets:
                    try:
                        res = ticket.result(timeout=OVERLOAD_BOUND_S)
                    except TimeoutError:
                        counts["unterminated"] += 1  # invariant violation
                        continue
                    counts["retries"] += res.retries
                    if res.status == "completed":
                        if np.array_equal(res.result, reference):
                            counts["completed"] += 1
                            latencies.append(res.wall_elapsed_s)
                            counts["degraded"] += int(res.degraded)
                            counts["coalesced"] += int(res.coalesced)
                        else:
                            counts["violations"] += 1  # silent corruption
                    elif res.error_type == "ShedError":
                        shed += 1
                    elif res.error_type == "QueueTimeoutError":
                        counts["queue_timeouts"] += 1
                    elif res.error_type == "DeadlineExceededError":
                        counts["deadline_misses"] += 1
                    elif res.error_type in OVERLOAD_TYPED:
                        counts["other_typed"] += 1
                    else:
                        counts["violations"] += 1  # untyped failure
        finally:
            svc.close()
        cells.append(
            OverloadCell(
                factor=factor,
                offered=jobs_per_factor,
                completed=counts["completed"],
                shed=shed,
                queue_timeouts=counts["queue_timeouts"],
                deadline_misses=counts["deadline_misses"],
                other_typed=counts["other_typed"],
                degraded=counts["degraded"],
                coalesced=counts["coalesced"],
                retries=counts["retries"],
                violations=counts["violations"],
                unterminated=counts["unterminated"],
                p50_ms=float(np.percentile(latencies, 50) * 1e3)
                if latencies
                else 0.0,
                p99_ms=float(np.percentile(latencies, 99) * 1e3)
                if latencies
                else 0.0,
            )
        )
    return {
        "seed": seed,
        "devices": devices,
        "tenants": tenants,
        "max_queue_depth": max_queue_depth,
        "saturation_rate_jobs_s": saturation_rate,
        "bound_s": OVERLOAD_BOUND_S,
        "with_faults": with_faults,
        "cells": cells,
    }


def run_overload() -> ExperimentResult:
    """Build the overload report (experiment id ``overload``)."""
    campaign = run_overload_campaign()
    cells: list[OverloadCell] = campaign["cells"]

    rows = [
        (
            f"{c.factor:g}x",
            f"{c.offered}",
            f"{c.completed}",
            f"{c.shed}",
            f"{c.queue_timeouts}",
            f"{c.deadline_misses}",
            f"{c.degraded}",
            f"{c.retries}",
            f"{c.violations + c.unterminated}",
            f"{c.p99_ms:.1f}",
        )
        for c in cells
    ]
    table = render_table(
        [
            "load", "offered", "bit-exact", "shed", "q-timeout",
            "deadline", "degraded", "retries", "violations", "p99 ms",
        ],
        rows,
        title=(
            f"Overload sweep (seed {campaign['seed']}, "
            f"{campaign['devices']} devices, queue depth "
            f"{campaign['max_queue_depth']}, saturation "
            f"{campaign['saturation_rate_jobs_s']:.1f} jobs/s, faults "
            f"{'armed' if campaign['with_faults'] else 'disarmed'})"
        ),
    )

    violations = sum(c.violations + c.unterminated for c in cells)
    overloaded = [c for c in cells if c.factor >= 2.0]
    backpressure = sum(
        c.shed + c.queue_timeouts + c.degraded for c in overloaded
    )
    comparisons = [
        compare_values(
            "invariant intact (bounded, bit-exact or typed)",
            1.0,
            1.0 if violations == 0 else 0.0,
            0.0,
        ),
        compare_values(
            "backpressure engages past saturation",
            1.0,
            1.0 if backpressure > 0 else 0.0,
            0.0,
        ),
    ]
    return ExperimentResult(
        exp_id="overload",
        title="Overload resilience: admission control past saturation",
        text=table,
        comparisons=comparisons,
        data={
            **{k: v for k, v in campaign.items() if k != "cells"},
            "cells": [
                {
                    "factor": c.factor,
                    "offered": c.offered,
                    "completed": c.completed,
                    "shed": c.shed,
                    "queue_timeouts": c.queue_timeouts,
                    "deadline_misses": c.deadline_misses,
                    "other_typed": c.other_typed,
                    "degraded": c.degraded,
                    "coalesced": c.coalesced,
                    "retries": c.retries,
                    "violations": c.violations,
                    "unterminated": c.unterminated,
                    "p50_ms": c.p50_ms,
                    "p99_ms": c.p99_ms,
                }
                for c in cells
            ],
        },
    )
