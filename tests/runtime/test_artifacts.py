"""The warm-artifact cache: keys, single-flight builds, LRU eviction.

Real :class:`StencilProgram` instances (numpy engine — no compiler
dependency) cover keying and reuse; a stub program with a slow,
observable constructor covers the concurrency contract: one build per
key under contention, waiters parked, failures not cached, evictions
closed.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import BlockingConfig, StencilSpec
from repro.errors import ConfigurationError
from repro.runtime.artifacts import ArtifactCache, artifact_key, spec_key

SPEC = StencilSpec.star(2, 1)
OTHER_SPEC = StencilSpec.star(2, 2)
CONFIG = BlockingConfig(dims=2, radius=1, bsize_x=64, parvec=4, partime=2)
OTHER_CONFIG = BlockingConfig(dims=2, radius=1, bsize_x=32, parvec=4, partime=2)
WIDE_CONFIG = BlockingConfig(dims=2, radius=2, bsize_x=64, parvec=4, partime=2)


# -- keys ------------------------------------------------------------------- #


def test_spec_key_is_content_addressed() -> None:
    assert spec_key(SPEC) == spec_key(StencilSpec.star(2, 1))
    assert spec_key(SPEC) != spec_key(OTHER_SPEC)


def test_artifact_key_separates_config_and_engine() -> None:
    base = artifact_key(SPEC, CONFIG, engine="numpy")
    assert base == artifact_key(SPEC, CONFIG, engine="numpy")
    assert base != artifact_key(SPEC, OTHER_CONFIG, engine="numpy")
    assert base != artifact_key(SPEC, CONFIG, engine="auto")


# -- hit/miss/LRU with real programs ---------------------------------------- #


def test_get_reuses_and_counts_hits() -> None:
    cache = ArtifactCache(capacity=2)
    a = cache.get(SPEC, CONFIG, engine="numpy")
    assert cache.get(SPEC, CONFIG, engine="numpy") is a
    b = cache.get(SPEC, OTHER_CONFIG, engine="numpy")
    assert b is not a
    snap = cache.snapshot()
    assert snap["hits"] == 1
    assert snap["misses"] == snap["flights"] == 2
    assert snap["entries"] == 2
    cache.close()


def test_lru_eviction_closes_the_cold_program() -> None:
    cache = ArtifactCache(capacity=2)
    a = cache.get(SPEC, CONFIG, engine="numpy")
    cache.get(SPEC, OTHER_CONFIG, engine="numpy")
    cache.get(SPEC, CONFIG, engine="numpy")  # refresh a: other is now LRU
    c = cache.get(OTHER_SPEC, WIDE_CONFIG, engine="numpy")
    snap = cache.snapshot()
    assert snap["evictions"] == 1 and snap["entries"] == 2
    assert not a.closed and not c.closed
    assert cache.contains(artifact_key(SPEC, CONFIG, engine="numpy"))
    assert not cache.contains(artifact_key(SPEC, OTHER_CONFIG, engine="numpy"))
    cache.close()
    assert a.closed and c.closed


def test_externally_closed_entry_is_rebuilt() -> None:
    cache = ArtifactCache(capacity=2)
    a = cache.get(SPEC, CONFIG, engine="numpy")
    a.close()
    b = cache.get(SPEC, CONFIG, engine="numpy")
    assert b is not a and not b.closed
    assert cache.snapshot()["flights"] == 2
    cache.close()


def test_release_engines_drops_only_matching_tiers() -> None:
    cache = ArtifactCache(capacity=4)
    fast = cache.get(SPEC, CONFIG, engine="auto")
    slow = cache.get(SPEC, CONFIG, engine="numpy")
    released = cache.release_engines(
        "Nallatech 385A", ("auto", "native")
    )
    assert released == 1
    assert fast.closed and not slow.closed
    assert cache.contains(artifact_key(SPEC, CONFIG, engine="numpy"))
    assert not cache.contains(artifact_key(SPEC, CONFIG, engine="auto"))
    cache.close()


def test_close_is_idempotent_and_terminal() -> None:
    cache = ArtifactCache(capacity=2)
    prog = cache.get(SPEC, CONFIG, engine="numpy")
    cache.close()
    cache.close()
    assert prog.closed
    with pytest.raises(ConfigurationError) as exc:
        cache.get(SPEC, CONFIG, engine="numpy")
    assert exc.value.param == "closed"


def test_capacity_validation() -> None:
    with pytest.raises(ConfigurationError):
        ArtifactCache(capacity=0)


# -- single-flight under contention (stub program) -------------------------- #


class _SlowProgram:
    """Stands in for StencilProgram: slow to build, observable lifecycle."""

    builds = 0
    gate = threading.Event()
    fail_first = False

    def __init__(self, spec, config, board, engine="auto"):
        type(self).builds += 1
        if type(self).fail_first and type(self).builds == 1:
            raise ConfigurationError(
                "synthetic build failure", param="engine", value=engine,
                constraint="first build fails once",
            )
        type(self).gate.wait(timeout=5.0)
        self._closed = False

    @property
    def closed(self):
        return self._closed

    def close(self):
        self._closed = True


@pytest.fixture()
def slow_programs(monkeypatch):
    _SlowProgram.builds = 0
    _SlowProgram.gate = threading.Event()
    _SlowProgram.fail_first = False
    monkeypatch.setattr(
        "repro.runtime.artifacts.StencilProgram", _SlowProgram
    )
    return _SlowProgram


def test_single_flight_builds_once_under_contention(slow_programs) -> None:
    cache = ArtifactCache(capacity=2)
    results, errors = [], []

    def worker():
        try:
            results.append(cache.get(SPEC, CONFIG, engine="numpy"))
        except BaseException as err:  # pragma: no cover - failure path
            errors.append(err)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    for t in threads:
        t.start()
    slow_programs.gate.set()  # release the (single) in-flight build
    for t in threads:
        t.join(timeout=10.0)
    assert not errors
    assert slow_programs.builds == 1  # exactly one compile despite 6 callers
    assert len(results) == 6 and len(set(map(id, results))) == 1
    snap = cache.snapshot()
    assert snap["flights"] == 1
    assert snap["waits"] == 5  # everyone else parked behind the flight
    assert snap["hits"] == 5  # ... then picked the cached program up
    cache.close()


def test_build_failure_is_not_cached(slow_programs) -> None:
    cache = ArtifactCache(capacity=2)
    slow_programs.fail_first = True
    slow_programs.gate.set()
    with pytest.raises(ConfigurationError):
        cache.get(SPEC, CONFIG, engine="numpy")
    # the retry rebuilds instead of resurfacing the stale failure
    prog = cache.get(SPEC, CONFIG, engine="numpy")
    assert not prog.closed
    assert slow_programs.builds == 2
    cache.close()
