"""The empirical autotuner and its persistent plan-selection cache.

Resolution ladder (kill-switch -> memo -> persisted cache -> measure),
content-addressed identity, corruption tolerance, the bit-exactness
audit's veto, and the consumers that resolve configs through it
(``FPGAAccelerator.for_workload``, ``ArtifactCache.get_tuned``,
``StencilJob(config=None)``, ``StencilService.submit(config=None)``).

Measured-path tests resolve with ``engine="numpy"`` — the ladder's
behaviour (shortlist, audit, persist, reload) is engine-independent and
the numpy engine needs no compiler; consumer tests pin
``REPRO_NO_AUTOTUNE`` so the process-wide default tuner stays
deterministic and never touches the real user cache directory.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import repro

from repro.core import BlockingConfig, FPGAAccelerator, StencilSpec, make_grid
from repro.core import native
from repro.core.native import native_available
from repro.core.reference import reference_run
from repro.errors import ConfigurationError
from repro.fpga.board import NALLATECH_385A
from repro.models.tuner import Tuner
from repro.runtime import StencilScheduler, StencilService
from repro.runtime.artifacts import ArtifactCache
from repro.runtime import autotune
from repro.runtime.autotune import (
    CACHE_VERSION,
    DISABLE_ENV,
    Autotuner,
    PlanSelectionCache,
    cpu_fingerprint,
    plan_digest,
)
from repro.runtime.scheduler import StencilJob

SPEC = StencilSpec.star(2, 1)
SHAPE = (16, 64)

needs_driver = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the pass driver"
)


def tuner(tmp_path, **kwargs) -> Autotuner:
    kwargs.setdefault("shortlist_k", 2)
    kwargs.setdefault("repeats", 1)
    return Autotuner(cache=PlanSelectionCache(tmp_path), **kwargs)


# -- cache store ------------------------------------------------------------ #


def test_selection_cache_round_trip(tmp_path) -> None:
    cache = PlanSelectionCache(tmp_path)
    payload = {
        "version": CACHE_VERSION,
        "config": {
            "dims": 2, "radius": 1, "bsize_x": 32, "bsize_y": None,
            "parvec": 4, "partime": 2,
        },
        "measured_ms": {"a": 1.0},
    }
    assert cache.get("deadbeef") is None  # cold miss
    cache.put("deadbeef", payload)
    assert cache.get("deadbeef") == payload
    assert cache.stats == {"hits": 1, "misses": 1, "puts": 1}


def test_corrupt_and_stale_entries_are_misses(tmp_path) -> None:
    cache = PlanSelectionCache(tmp_path)
    (tmp_path / "bad1.json").write_text("{ not json")
    assert cache.get("bad1") is None
    (tmp_path / "bad2.json").write_text(
        json.dumps({"version": CACHE_VERSION - 1, "config": {}})
    )
    assert cache.get("bad2") is None  # schema-version bump goes cold
    (tmp_path / "bad3.json").write_text(
        json.dumps({"version": CACHE_VERSION, "config": {"dims": 2}})
    )
    assert cache.get("bad3") is None  # truncated config payload
    assert cache.stats["misses"] == 3 and cache.stats["hits"] == 0


def test_digest_separates_workloads_and_machines() -> None:
    base = plan_digest(SPEC, SHAPE, "clamp", "auto", "cpuA")
    assert plan_digest(SPEC, SHAPE, "clamp", "auto", "cpuA") == base
    # an equal-but-distinct spec object shares the digest (content key)
    clone = StencilSpec.star(2, 1)
    assert clone is not SPEC
    assert plan_digest(clone, SHAPE, "clamp", "auto", "cpuA") == base
    others = [
        plan_digest(SPEC, (16, 65), "clamp", "auto", "cpuA"),
        plan_digest(SPEC, SHAPE, "periodic", "auto", "cpuA"),
        plan_digest(SPEC, SHAPE, "clamp", "numpy", "cpuA"),
        plan_digest(SPEC, SHAPE, "clamp", "auto", "cpuB"),
        plan_digest(StencilSpec.star(2, 2), SHAPE, "clamp", "auto", "cpuA"),
    ]
    assert base not in others and len(set(others)) == len(others)


def test_digest_changes_with_the_generated_driver_source(monkeypatch) -> None:
    base = plan_digest(SPEC, SHAPE, "clamp", "auto", "cpuA")
    edited = autotune.driver_source(SPEC) + "/* codegen edit */\n"
    monkeypatch.setattr(autotune, "driver_source", lambda spec: edited)
    monkeypatch.setattr(autotune, "_SOURCE_DIGESTS", {})
    assert plan_digest(SPEC, SHAPE, "clamp", "auto", "cpuA") != base


def test_fingerprint_and_digest_follow_the_affinity_mask() -> None:
    # measured winners depend on the pool size, which is the affinity
    # count: shrinking the mask must move the plan to a fresh key
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("needs at least two usable CPUs to shrink the mask")
    probe = (
        "import json, os\n"
        "from repro.core import StencilSpec\n"
        "from repro.runtime.autotune import cpu_fingerprint, plan_digest\n"
        "def key():\n"
        "    cpu = cpu_fingerprint()\n"
        "    return [cpu, plan_digest(StencilSpec.star(2, 1), (16, 64),"
        " 'clamp', 'auto', cpu)]\n"
        "wide = key()\n"
        f"os.sched_setaffinity(0, {{{cpus[0]}}})\n"
        "print(json.dumps([wide, key()]))\n"
    )
    env = dict(
        os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1])
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    (wide_cpu, wide_digest), (one_cpu, one_digest) = json.loads(proc.stdout)
    assert wide_cpu == cpu_fingerprint()
    assert wide_cpu.endswith(f"/cores={len(cpus)}")
    assert one_cpu.endswith("/cores=1")
    assert one_digest != wide_digest


# -- resolution ladder ------------------------------------------------------ #


def test_kill_switch_returns_model_and_writes_nothing(
    tmp_path, monkeypatch
) -> None:
    monkeypatch.setenv(DISABLE_ENV, "1")
    plan = tuner(tmp_path).resolve(SPEC, SHAPE, engine="numpy")
    assert plan.source == "model"
    assert plan.measured_ms == {}
    assert list(tmp_path.iterdir()) == []  # nothing persisted


def test_cold_measures_warm_reloads_memo_short_circuits(tmp_path) -> None:
    cold = tuner(tmp_path)
    plan = cold.resolve(SPEC, SHAPE, iterations=2, engine="numpy")
    assert plan.source == "measured"
    assert plan.measured_ms  # at least one audited candidate timed
    assert plan.cpu == cpu_fingerprint()
    assert (tmp_path / f"{plan.digest}.json").exists()
    # same tuner: the in-process memo answers (same object, no I/O)
    assert cold.resolve(SPEC, SHAPE, iterations=2, engine="numpy") is plan
    # fresh tuner on the same directory: the cross-process round trip
    warm = tuner(tmp_path).resolve(SPEC, SHAPE, iterations=2, engine="numpy")
    assert warm.source == "cache"
    assert warm.config == plan.config
    assert warm.measured_ms == plan.measured_ms


def test_audit_failure_disqualifies_every_candidate(
    tmp_path, monkeypatch
) -> None:
    t = tuner(tmp_path)
    monkeypatch.setattr(
        Autotuner, "_measure", lambda self, *a, **k: None
    )
    plan = t.resolve(SPEC, SHAPE, engine="numpy")
    assert plan.source == "model"  # fallback, never persisted
    assert list(tmp_path.iterdir()) == []
    # ...and a later resolve with working measurement still measures
    monkeypatch.undo()
    assert t.resolve(SPEC, SHAPE, engine="numpy").source == "measured"


def test_resolve_validates_inputs(tmp_path) -> None:
    with pytest.raises(ConfigurationError):
        tuner(tmp_path).resolve(SPEC, SHAPE, boundary="reflect")
    with pytest.raises(ConfigurationError):
        Autotuner(shortlist_k=0)
    with pytest.raises(ConfigurationError):
        Autotuner(repeats=0)


#: A 3D radius-4 workload whose shortlist mixes parvec 8 and 16 (and
#: partime 7 and 3): the case that used to compile one driver per width.
MIXED_SPEC = StencilSpec.star(3, 4)
MIXED_SHAPE = (8, 32, 32)


def _mixed_shortlist() -> list:
    designs = Tuner(MIXED_SPEC, NALLATECH_385A).shortlist(MIXED_SHAPE, 4, k=3)
    assert len({d.config.parvec for d in designs}) > 1  # premise
    assert len({d.config.partime for d in designs}) > 1  # premise
    return designs


def test_every_candidate_is_timed_on_equal_work(tmp_path, monkeypatch) -> None:
    designs = _mixed_shortlist()
    calls = []

    class Recording(FPGAAccelerator):
        def run(self, grid, iterations, *args, **kwargs):
            calls.append((self.config, iterations))
            return super().run(grid, iterations, *args, **kwargs)

    monkeypatch.setattr(autotune, "FPGAAccelerator", Recording)
    plan = tuner(tmp_path, shortlist_k=3, repeats=2).resolve(
        MIXED_SPEC, MIXED_SHAPE, iterations=4, engine="numpy"
    )
    assert plan.source == "measured" and len(plan.measured_ms) == 3
    # min(iterations, largest shortlisted partime) steps for everyone
    steps = min(4, max(d.config.partime for d in designs))
    assert {iters for _, iters in calls} == {steps}
    # one audit run plus `repeats` timed runs per candidate
    for design in designs:
        assert sum(cfg == design.config for cfg, _ in calls) == 3


@needs_driver
def test_cold_mixed_width_resolve_compiles_once(tmp_path, monkeypatch) -> None:
    _mixed_shortlist()
    build_dir = tmp_path / "tmp"
    build_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(build_dir))
    monkeypatch.setattr(native, "_LIBS", {})
    compiles = []
    real_compile = native._compile

    def counting(source, flags):
        compiles.append(flags)
        return real_compile(source, flags)

    monkeypatch.setattr(native, "_compile", counting)
    plan = tuner(tmp_path / "cache", shortlist_k=3).resolve(
        MIXED_SPEC, MIXED_SHAPE, iterations=4, engine="auto"
    )
    assert plan.source == "measured" and len(plan.measured_ms) == 3
    assert len(compiles) == 1
    assert len(list(build_dir.glob("repro_native_*.so"))) == 1


def test_shortlist_ranks_valid_distinct_designs() -> None:
    designs = Tuner(SPEC, NALLATECH_385A).shortlist(SHAPE, 4, k=3)
    assert 1 <= len(designs) <= 3
    configs = [d.config for d in designs]
    assert len(set(configs)) == len(configs)
    for d in designs:
        assert isinstance(d.config, BlockingConfig)  # constructed => valid
    keys = [d.key for d in designs]
    assert keys == sorted(keys)  # ranked: faster (then cheaper) first


# -- consumers -------------------------------------------------------------- #


@needs_driver
def test_for_workload_builds_a_running_accelerator(monkeypatch) -> None:
    monkeypatch.setenv(DISABLE_ENV, "1")
    grid = make_grid(SHAPE, "random", seed=3)
    acc = FPGAAccelerator.for_workload(SPEC, SHAPE, iterations=4)
    try:
        out, _ = acc.run(grid, 4)
    finally:
        acc.close()
    assert np.array_equal(out, reference_run(grid, SPEC, 4))


def test_get_tuned_lands_on_the_pinned_programs_key(monkeypatch) -> None:
    monkeypatch.setenv(DISABLE_ENV, "1")
    cache = ArtifactCache(capacity=2)
    try:
        prog = cache.get_tuned(SPEC, SHAPE, iterations=4, engine="numpy")
        again = cache.get_tuned(SPEC, SHAPE, iterations=4, engine="numpy")
        assert again is prog  # one warm program, second call is a hit
        assert cache.snapshot()["flights"] == 1
        assert cache.snapshot()["hits"] == 1
    finally:
        cache.close()


def test_scheduler_resolves_job_with_no_config(monkeypatch) -> None:
    monkeypatch.setenv(DISABLE_ENV, "1")
    sched = StencilScheduler(devices=1, engine="numpy")
    grid = make_grid(SHAPE, "mixed", seed=5)
    job = StencilJob(job_id="untuned", spec=SPEC, config=None, grids=(grid,),
                     iterations=4)
    try:
        sched.submit(job)
        results = sched.run_until_idle()
    finally:
        sched.close()
    assert [r.status for r in results] == ["completed"]
    assert np.array_equal(results[0].result,
                          reference_run(grid, SPEC, 4))


def test_service_resolves_request_with_no_config(monkeypatch) -> None:
    monkeypatch.setenv(DISABLE_ENV, "1")
    sched = StencilScheduler(devices=1, engine="numpy")
    svc = StencilService(sched, start=False)
    grid = make_grid(SHAPE, "mixed", seed=6)
    ticket = svc.submit(tenant="t", spec=SPEC, config=None, grid=grid,
                        iterations=4)
    svc.run_pending()
    result = ticket.result(0)
    svc.close()
    assert result.status == "completed"
    assert np.array_equal(result.result, reference_run(grid, SPEC, 4))


# -- the native-scalar baseline engine -------------------------------------- #


@needs_driver
def test_native_scalar_engine_is_bit_exact_and_pinned() -> None:
    cfg = BlockingConfig(dims=2, radius=1, bsize_x=32, parvec=4, partime=2)
    grid = make_grid((12, 48), "random", seed=9)
    acc = FPGAAccelerator(SPEC, cfg, engine="native-scalar")
    try:
        assert acc.resolved_engine == "native-scalar"
        out, _ = acc.run(grid, 5)
    finally:
        acc.close()
    assert np.array_equal(out, reference_run(grid, SPEC, 5))


@needs_driver
def test_native_scalar_never_selected_by_auto() -> None:
    cfg = BlockingConfig(dims=2, radius=1, bsize_x=32, parvec=4, partime=2)
    acc = FPGAAccelerator(SPEC, cfg, engine="auto")
    try:
        assert acc.resolved_engine != "native-scalar"
    finally:
        acc.close()
