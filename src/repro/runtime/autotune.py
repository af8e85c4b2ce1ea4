"""Empirical autotuner with a persistent plan-selection cache (§V.A).

The paper tunes ``(bsize, parvec, partime)`` offline: the analytical
models shortlist a handful of design points and only the survivors are
place-and-routed.  This module closes the same loop for the software
engines: :class:`repro.models.tuner.Tuner` shortlists candidates by
predicted runtime, :class:`Autotuner` micro-benchmarks the survivors on
the real engine ladder (seeded, short, and only after each candidate's
output is audited bit-identical to the NumPy reference), and the winner
is persisted in a content-addressed :class:`PlanSelectionCache` so
repeated traffic for the same workload runs the tuned plan with zero
re-search.

Cache identity
--------------
A selection is keyed by the workload *and* the machine that measured
it::

    sha256(spec numeric content, grid shape, boundary, engine,
           cpu fingerprint, driver source digest, cache schema version)

The cpu fingerprint (:func:`cpu_fingerprint`) folds in the processor
model and the number of CPUs this process may run on, so a cache
directory shared between heterogeneous hosts never serves a plan
measured on different silicon, and a plan measured with a two-worker
pool is never served to a process pinned to one CPU.  The driver
source digest (:func:`source_digest`) does the same for code: an edit
to the generated driver invalidates every plan measured on the old one.
Bumping ``CACHE_VERSION`` invalidates every prior selection at once (the
old files are simply never looked up again).

Knobs
-----
``REPRO_AUTOTUNE_DIR``
    Overrides the cache directory (default
    ``~/.cache/repro-autotune``).
``REPRO_NO_AUTOTUNE``
    Kill-switch: when set, :meth:`Autotuner.resolve` skips both the
    measurement *and* the cache and returns the analytical model's best
    design — deterministic, file-system-free, and exactly what CI wants
    when benchmarking something else.

Consulted by :meth:`repro.runtime.artifacts.ArtifactCache.get_tuned`,
:meth:`repro.core.FPGAAccelerator.for_workload`, the scheduler
(``StencilJob(config=None)``) and :meth:`repro.runtime.service
.StencilService.submit` (``config=None``).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.accelerator import FPGAAccelerator
from repro.core.blocking import BlockingConfig
from repro.core.native import driver_source, usable_cpus
from repro.core.stencil import StencilSpec
from repro.errors import ConfigurationError
from repro.fpga.board import NALLATECH_385A, Board
from repro.models.tuner import TunedDesign, Tuner

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_AUTOTUNE_DIR"

#: Kill-switch: skip measurement and cache entirely (model-only).
DISABLE_ENV = "REPRO_NO_AUTOTUNE"

#: Bump to invalidate every persisted selection (schema or semantics
#: change); part of the content address, so old entries just go cold.
#: Version 2: candidates are measured with the default, affinity-sized
#: driver pool instead of one worker.
CACHE_VERSION = 2


_CPU_MODEL: str | None = None


def cpu_fingerprint() -> str:
    """A stable identity for the silicon a measurement ran on.

    Processor model name (from ``/proc/cpuinfo`` when available) plus
    the number of CPUs this process may run on
    (:func:`~repro.core.native.usable_cpus`, the size candidates are
    measured with) — enough that a cache directory shared across
    heterogeneous hosts, a container whose CPU allotment changed, or a
    process pinned to fewer CPUs never serves a foreign plan.  The model
    name is read once; the affinity mask on every call, since it can
    change while the process runs.
    """
    return f"{_cpu_model()}/cores={usable_cpus()}"


def _cpu_model() -> str:
    global _CPU_MODEL
    if _CPU_MODEL is not None:
        return _CPU_MODEL
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if not model:
        import platform

        model = platform.processor() or platform.machine() or "unknown"
    _CPU_MODEL = model
    return model


#: :func:`source_digest` memo per spec key: generating a 3D radius-4
#: driver takes about a millisecond, and the digest is on the per-request
#: resolve path.
_SOURCE_DIGESTS: dict[tuple, str] = {}


def source_digest(spec: StencilSpec) -> str:
    """sha256 of the generated driver source for ``spec`` at ``VEC=1``."""
    key = (
        spec.dims,
        spec.radius,
        float(np.float32(spec.center)),
        spec.coefficients.tobytes(),
    )
    digest = _SOURCE_DIGESTS.get(key)
    if digest is None:
        digest = hashlib.sha256(driver_source(spec, 1).encode()).hexdigest()
        _SOURCE_DIGESTS[key] = digest
    return digest


def plan_digest(
    spec: StencilSpec,
    shape: tuple[int, ...],
    boundary: str,
    engine: str,
    cpu: str,
) -> str:
    """Content address of one plan selection (hex sha256)."""
    h = hashlib.sha256()
    h.update(f"v{CACHE_VERSION}\x00".encode())
    h.update(f"{spec.dims}\x00{spec.radius}\x00".encode())
    h.update(repr(float(np.float32(spec.center))).encode())
    h.update(b"\x00")
    h.update(spec.coefficients.tobytes())
    h.update(f"\x00{tuple(int(n) for n in shape)}\x00".encode())
    h.update(f"{boundary}\x00{engine}\x00{cpu}\x00".encode())
    h.update(source_digest(spec).encode())
    return h.hexdigest()


@dataclass(frozen=True)
class TunedPlan:
    """The resolved configuration for a workload, with provenance.

    ``source`` is ``"cache"`` (persisted winner reloaded), ``"measured"``
    (micro-benchmarked this call, then persisted) or ``"model"``
    (analytical ranking only — the :envvar:`REPRO_NO_AUTOTUNE` path or a
    measurement that could not run).  ``measured_ms`` maps each
    benchmarked candidate's ``describe()`` string to its best wall-clock
    milliseconds (empty for model-only resolutions).
    """

    config: BlockingConfig
    engine: str
    source: str
    digest: str
    cpu: str
    measured_ms: dict

    def describe(self) -> str:
        c = self.config
        return (
            f"bsize=({c.bsize_x},{c.bsize_y}) parvec={c.parvec} "
            f"partime={c.partime} [{self.source}]"
        )


def _config_payload(config: BlockingConfig) -> dict:
    return {
        "dims": config.dims,
        "radius": config.radius,
        "bsize_x": config.bsize_x,
        "bsize_y": config.bsize_y,
        "parvec": config.parvec,
        "partime": config.partime,
    }


def _config_from_payload(payload: dict) -> BlockingConfig:
    return BlockingConfig(
        dims=int(payload["dims"]),
        radius=int(payload["radius"]),
        bsize_x=int(payload["bsize_x"]),
        bsize_y=(
            None if payload["bsize_y"] is None else int(payload["bsize_y"])
        ),
        parvec=int(payload["parvec"]),
        partime=int(payload["partime"]),
    )


class PlanSelectionCache:
    """Content-addressed, file-per-entry persistent selection store.

    One JSON file per digest under ``root`` (default
    ``~/.cache/repro-autotune``, overridden by
    :envvar:`REPRO_AUTOTUNE_DIR`).  Writes are atomic
    (temp-file-then-rename), so concurrent tuners on one machine race
    benignly: last writer wins and every reader sees a complete entry.
    Corrupt or unreadable entries behave as misses — the tuner simply
    re-measures and rewrites them.
    """

    def __init__(self, root: str | Path | None = None):
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or (
                Path.home() / ".cache" / "repro-autotune"
            )
        self.root = Path(root)
        self._lock = threading.Lock()
        self.stats = {"hits": 0, "misses": 0, "puts": 0}

    def _path(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    def get(self, digest: str) -> dict | None:
        """The persisted payload for ``digest``, or None (miss)."""
        try:
            payload = json.loads(self._path(digest).read_text())
            if payload.get("version") != CACHE_VERSION:
                raise ValueError("stale cache schema")
            _config_from_payload(payload["config"])  # validate shape
        except (OSError, ValueError, KeyError, TypeError):
            with self._lock:
                self.stats["misses"] += 1
            return None
        with self._lock:
            self.stats["hits"] += 1
        return payload

    def put(self, digest: str, payload: dict) -> None:
        """Persist ``payload`` under ``digest`` atomically."""
        path = self._path(digest)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(payload, indent=2) + "\n")
            tmp.replace(path)
        except OSError:
            return  # read-only cache dir: selection just isn't persisted
        with self._lock:
            self.stats["puts"] += 1


class Autotuner:
    """Shortlist by model, measure on the engine ladder, cache the winner.

    ``bench_iterations`` bounds how many time steps each candidate runs
    during measurement (clamped to cover at least one full pass);
    ``repeats`` is the min-of-N timing discipline; ``shortlist_k`` caps
    how many model-ranked candidates are measured.  One instance is
    thread-safe: concurrent resolutions of the same digest may both
    measure (benign — both persist the same winner modulo timing noise).
    """

    def __init__(
        self,
        board: Board = NALLATECH_385A,
        cache: PlanSelectionCache | None = None,
        shortlist_k: int = 3,
        bench_iterations: int = 2,
        repeats: int = 2,
        seed: int = 1234,
    ):
        if shortlist_k < 1:
            raise ConfigurationError(
                f"shortlist_k must be >= 1, got {shortlist_k}"
            )
        if bench_iterations < 1:
            raise ConfigurationError(
                f"bench_iterations must be >= 1, got {bench_iterations}"
            )
        if repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
        self.board = board
        self.cache = cache if cache is not None else PlanSelectionCache()
        self.shortlist_k = shortlist_k
        self.bench_iterations = bench_iterations
        self.repeats = repeats
        self.seed = seed
        # In-process memo over the persistent store: the serving path
        # resolves per request, and a dict hit must cost microseconds,
        # not a JSON read (the <=5% cache-hit latency budget).
        self._memo: dict[str, TunedPlan] = {}
        self._memo_lock = threading.Lock()

    # ------------------------------------------------------------------ #

    def _model_best(self, spec: StencilSpec, shape, iterations) -> TunedDesign:
        return Tuner(spec, self.board).shortlist(shape, iterations, k=1)[0]

    def _measure(
        self,
        spec: StencilSpec,
        design: TunedDesign,
        shape: tuple[int, ...],
        boundary: str,
        engine: str,
        golden: np.ndarray,
        grid: np.ndarray,
        iters: int,
    ) -> float | None:
        """Best-of-N seconds for one candidate, or None if unusable.

        The candidate's output is audited bit-identical to the NumPy
        golden reference *before* any timing is recorded — a plan that
        cannot reproduce the reference bits is never selected, however
        fast it is.
        """
        try:
            acc = FPGAAccelerator(
                spec, design.config, boundary=boundary, engine=engine
            )
        except ConfigurationError:
            return None
        try:
            out, _ = acc.run(grid, iters)
            if not np.array_equal(out, golden):
                return None  # bit-exactness audit failed: disqualified
            best = float("inf")
            for _ in range(self.repeats):
                t0 = time.perf_counter()
                acc.run(grid, iters)
                best = min(best, time.perf_counter() - t0)
            return best
        finally:
            acc.close()

    def resolve(
        self,
        spec: StencilSpec,
        shape: tuple[int, ...],
        boundary: str = "clamp",
        iterations: int = 1,
        engine: str = "auto",
    ) -> TunedPlan:
        """The tuned configuration for a workload (cache-first).

        Resolution ladder: kill-switch → analytical model only; cache
        hit → persisted winner; otherwise shortlist, audit + measure
        each survivor on this machine, persist and return the winner.
        If every candidate fails its audit or build, the model's best
        design is returned (source ``"model"``) without being persisted.
        """
        shape = tuple(int(n) for n in shape)
        if boundary not in ("clamp", "periodic"):
            raise ConfigurationError(
                f"boundary must be 'clamp' or 'periodic', got {boundary!r}"
            )
        cpu = cpu_fingerprint()
        digest = plan_digest(spec, shape, boundary, engine, cpu)
        if os.environ.get(DISABLE_ENV):
            design = self._model_best(spec, shape, iterations)
            return TunedPlan(
                config=design.config,
                engine=engine,
                source="model",
                digest=digest,
                cpu=cpu,
                measured_ms={},
            )
        with self._memo_lock:
            memo = self._memo.get(digest)
        if memo is not None:
            return memo
        payload = self.cache.get(digest)
        if payload is not None:
            plan = TunedPlan(
                config=_config_from_payload(payload["config"]),
                engine=engine,
                source="cache",
                digest=digest,
                cpu=cpu,
                measured_ms=dict(payload.get("measured_ms", {})),
            )
            with self._memo_lock:
                self._memo[digest] = plan
            return plan

        designs = Tuner(spec, self.board).shortlist(
            shape, iterations, k=self.shortlist_k
        )
        rng = np.random.default_rng(self.seed)
        grid = rng.standard_normal(shape).astype(np.float32)
        measured: dict[str, float] = {}
        winner: TunedDesign | None = None
        winner_s = float("inf")
        for design in designs:
            iters = min(iterations, max(1, design.config.partime))
            ref = FPGAAccelerator(
                spec, design.config, boundary=boundary, engine="numpy"
            )
            try:
                golden, _ = ref.run(grid, iters)
            finally:
                ref.close()
            seconds = self._measure(
                spec, design, shape, boundary, engine, golden, grid, iters
            )
            if seconds is None:
                continue
            label = (
                f"bsize=({design.config.bsize_x},{design.config.bsize_y})"
                f"/pv{design.config.parvec}/pt{design.config.partime}"
            )
            measured[label] = round(seconds * 1e3, 4)
            if seconds < winner_s:
                winner, winner_s = design, seconds
        if winner is None:
            design = self._model_best(spec, shape, iterations)
            return TunedPlan(
                config=design.config,
                engine=engine,
                source="model",
                digest=digest,
                cpu=cpu,
                measured_ms={},
            )
        self.cache.put(
            digest,
            {
                "version": CACHE_VERSION,
                "cpu": cpu,
                "engine": engine,
                "boundary": boundary,
                "shape": list(shape),
                "config": _config_payload(winner.config),
                "measured_ms": measured,
            },
        )
        plan = TunedPlan(
            config=winner.config,
            engine=engine,
            source="measured",
            digest=digest,
            cpu=cpu,
            measured_ms=measured,
        )
        with self._memo_lock:
            self._memo[digest] = plan
        return plan


# --------------------------------------------------------------------- #
# process-wide default: what the serving stack consults
# --------------------------------------------------------------------- #

_default_lock = threading.Lock()
_default: Autotuner | None = None


def default_autotuner() -> Autotuner:
    """The process-wide autotuner (lazily constructed, shared)."""
    global _default
    with _default_lock:
        if _default is None:
            _default = Autotuner()
        return _default


def resolve_config(
    spec: StencilSpec,
    shape: tuple[int, ...],
    boundary: str = "clamp",
    iterations: int = 1,
    engine: str = "auto",
) -> BlockingConfig:
    """Shorthand: the tuned :class:`BlockingConfig` for a workload."""
    return default_autotuner().resolve(
        spec, shape, boundary=boundary, iterations=iterations, engine=engine
    ).config
