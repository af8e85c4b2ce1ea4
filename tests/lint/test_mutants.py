"""Seeded mutant suite: every rule fires on a crafted bad input.

Each mutant is a deliberately broken kernel, config point, plan or
source snippet; the test asserts the *expected rule id* fires with a
locus pointing at the mutated artifact.  Randomized parameters are
drawn from a seeded generator so failures reproduce exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.batch import BatchPlan
from repro.core.blocking import BlockingConfig
from repro.core.plan import PassPlan
from repro.core.sharding import ShardPlan
from repro.dsl.ast import Const, Equation, Grid
from repro.lint import (
    ConfigPoint,
    lint_batch_plan,
    lint_concurrency_source,
    lint_config,
    lint_driver_concurrency,
    lint_driver_source,
    lint_equation,
    lint_plan,
    lint_shard_plan,
    lint_source,
)

RNG = np.random.default_rng(20260806)

U = Grid("u", dims=2)
V = Grid("v", dims=2)


def _star2(extra=None):
    """A clean 2D star expression, optionally plus an extra term."""
    rhs = 0.5 * U(0, 0) + 0.25 * U(0, 1) + 0.25 * U(0, -1)
    if extra is not None:
        rhs = rhs + extra
    return rhs


def _plan(dims=2, radius=1, bsize_x=32, partime=4, shape=(64, 64),
          boundary="clamp", bsize_y=None):
    config = BlockingConfig(dims=dims, radius=radius, bsize_x=bsize_x,
                            bsize_y=bsize_y, partime=partime)
    return PassPlan(config, shape, boundary)


def _tamper(plan, block_index, **fields):
    """Overwrite frozen BlockPlan fields in place (test-only surgery)."""
    bp = plan.blocks[block_index]
    for name, value in fields.items():
        object.__setattr__(bp, name, value)
    return plan


# ------------------------- kernel mutants ------------------------------ #

def _k101():
    dy, dx = int(RNG.integers(1, 3)), int(RNG.integers(1, 3))
    return lint_equation(Equation(U, _star2(0.1 * U(dy, dx) * 0.5)))


def _k102():
    return lint_equation(Equation(U, _star2(0.25 * U(0, 5))))


def _k103():
    off = int(RNG.integers(1, 4))
    dup = 0.125 * U(0, off) + 0.125 * U(0, off)
    return lint_equation(Equation(U, _star2(dup)))


def _k104():
    return lint_equation(Equation(U, _star2(0.0 * U(0, 2))))


def _k105():
    # 0.1 is the canonical non-representable decimal.
    return lint_equation(Equation(U, 0.1 * U(0, 0) + 0.5 * U(0, 1)))


def _k106():
    return lint_equation(Equation(U, U(0, 0) * U(0, 1)))


def _k107():
    return lint_equation(Equation(U, _star2(0.25 * V(0, 1))))


def _k108():
    return lint_equation(Equation(U, _star2(Const(0.5))))


def _k109():
    return lint_equation(Equation(U, 1.0 * U(0, 0)))


def _k110():
    return lint_equation(Equation(U, Const(1.0)))  # reads no grid


# ------------------------- config mutants ------------------------------ #

def _c(rule_kwargs):
    return lint_config(ConfigPoint(**rule_kwargs))


def _c201():
    return _c(dict(dims=2, radius=4, bsize_x=64, partime=8, label="m-c201"))


def _c202():
    return _c(dict(dims=2, radius=1, bsize_x=63, parvec=2, partime=4,
                   label="m-c202"))


def _c203():
    return _c(dict(dims=2, radius=1, bsize_x=4096, parvec=16, partime=100,
                   label="m-c203"))


def _c204():
    return _c(dict(dims=3, radius=4, bsize_x=256, bsize_y=256, parvec=2,
                   partime=16, label="m-c204"))


def _c205():
    return _c(dict(dims=2, radius=1, bsize_x=64, partime=3, label="m-c205"))


def _c206():
    return _c(dict(dims=2, radius=1, bsize_x=64, partime=4,
                   grid_shape=(100, 100), label="m-c206"))


def _c207():
    return _c(dict(dims=2, radius=1, bsize_x=64, partime=4,
                   grid_shape=(16, 16, 16), label="m-c207"))


def _c208():
    return _c(dict(dims=2, radius=2, bsize_x=60, parvec=6, partime=2,
                   label="m-c208"))


def _c209():
    return _c(dict(dims=int(RNG.choice([0, 1, 4])), radius=1, bsize_x=32,
                   label="m-c209"))


def _c209_negative_partime():
    return _c(dict(dims=2, radius=1, bsize_x=32, partime=-2, label="m-c209b"))


# --------------------------- plan mutants ------------------------------ #

def _p301_gap():
    plan = _plan()
    sl = list(plan.blocks[0].write_sl)
    sl[1] = slice(0, 16)  # block writes half its compute region
    _tamper(plan, 0, write_sl=tuple(sl))
    return lint_plan(plan)


def _p301_out_of_bounds():
    plan = _plan()
    sl = list(plan.blocks[-1].write_sl)
    sl[1] = slice(sl[1].start, sl[1].stop + 8)  # runs past the grid
    _tamper(plan, -1, write_sl=tuple(sl))
    return lint_plan(plan)


def _p302():
    plan = _plan()
    table = plan.windows(4)
    blocks = [list(stages) for stages in table]
    lo, hi = blocks[1][3][1]
    blocks[1][3] = ((blocks[1][3][0]), (lo - 2, hi))  # widen final window
    plan._windows[4] = tuple(tuple(stages) for stages in blocks)
    return lint_plan(plan)


def _p303():
    plan = _plan()
    _tamper(plan, 0, dup_lo=(plan.blocks[0].dup_lo[0] + 2,))
    return lint_plan(plan)


def _p304():
    plan = _plan()
    segs = plan.blocks[0].segments[0]
    shifted = dataclasses.replace(
        segs[1], src_start=segs[1].src_start + 1, src_stop=segs[1].src_stop + 1
    )
    _tamper(plan, 0, segments=((segs[0], shifted) + segs[2:],))
    return lint_plan(plan)


def _p305():
    plan = _plan()
    rs = list(plan.blocks[0].read_sl)
    rs[1] = slice(rs[1].start + 1, rs[1].stop + 1)  # off-by-one copy-out
    _tamper(plan, 0, read_sl=tuple(rs))
    return lint_plan(plan)


def _p306_window_drift():
    # tamper the cached serialized windows: the Python schedule is fine,
    # the flat table the driver would execute is not
    plan = _plan()
    plan.to_driver_tables(4).windows[0, -1, 1, 1] += 2
    return lint_plan(plan)


def _p306_record_drift():
    plan = _plan()
    plan.to_driver_tables(4).blocks[0, 0] += 1  # footprint field
    return lint_plan(plan)


def _p306_segment_drift():
    plan = _plan()
    plan.to_driver_tables(1).segments[0, 2] += 1  # src_start of a run
    return lint_plan(plan)


def _p306_scratch_undersized():
    plan = _plan()
    tables = plan.to_driver_tables(4)
    object.__setattr__(tables, "scratch_floats", 1)
    return lint_plan(plan)


def _p309_padded_x_drift():
    # padded_x oversized by one extra vector: still aligned, but no
    # longer the exact roundup the C re-derives its row strides from
    plan = _plan()
    tables = plan.to_driver_tables(4, 8)
    object.__setattr__(tables, "padded_x", tables.padded_x + 8)
    return lint_plan(plan)


def _p309_scratch_misaligned():
    # capacity off by one float: worker 1's ping/pong bases lose their
    # vector alignment (bases sit at multiples of scratch_floats)
    plan = _plan()
    tables = plan.to_driver_tables(4, 8)
    object.__setattr__(tables, "scratch_floats", tables.scratch_floats + 1)
    return lint_plan(plan)


def _p309_width_drift():
    # tables built for width 8 claim width 4: every row stride the
    # generated C derives from the field is wrong
    plan = _plan()
    tables = plan.to_driver_tables(4, 8)
    object.__setattr__(tables, "vector_width", 4)
    return lint_plan(plan)


def _p309_window_into_padding():
    # a stage window on the *vector* tables reaches into the padded
    # lanes (the width-1 tables stay clean, so only the decode of the
    # width-8 tables can catch it)
    plan = _plan()
    tables = plan.to_driver_tables(4, 8)
    tables.windows[0, -1, -1, 1] = tables.padded_x
    return lint_plan(plan)


def _batch_plan(n_grids=4):
    config = BlockingConfig(dims=2, radius=1, bsize_x=32, partime=4)
    return BatchPlan(config, (64, 64), n_grids)


def _p307_stride_overlap():
    # a slab holding half of each grid's rows: the driver's grid stride
    # no longer covers a grid, so consecutive grids overlap
    bplan = _batch_plan()
    n_grids, ny, nx = bplan.slab_shape
    bplan.slab_shape = (n_grids, ny // 2, nx)
    return lint_batch_plan(bplan)


# ----------------------- shard plan mutants ---------------------------- #

def _shard_plan(boundary="clamp", shards=2, shape=(64, 64)):
    config = BlockingConfig(dims=2, radius=1, bsize_x=32, partime=4)
    return ShardPlan(config, shape, boundary, shards)


def _tamper_edge(plan, index, **fields):
    edges = list(plan.edges)
    edges[index] = dataclasses.replace(edges[index], **fields)
    plan.edges = tuple(edges)
    return plan


def _p308_interior_gap():
    plan = _shard_plan()
    object.__setattr__(plan.shards[0], "stop", plan.shards[0].stop - 2)
    return lint_shard_plan(plan)


def _p308_interior_overlap():
    plan = _shard_plan(shards=4)
    object.__setattr__(plan.shards[2], "start", plan.shards[2].start - 2)
    return lint_shard_plan(plan)


def _p308_thin_strip():
    # one exchanged row short: the receiver's outermost halo cell goes stale
    plan = _shard_plan()
    lo, hi = plan.edges[0].src_rows
    return lint_shard_plan(_tamper_edge(plan, 0, src_rows=(lo + 1, hi)))


def _p308_halo_sourced():
    # strip slides one row into the sender's own (garbage) halo zone
    plan = _shard_plan()
    lo, hi = plan.edges[1].src_rows
    return lint_shard_plan(_tamper_edge(plan, 1, src_rows=(lo - 1, hi - 1)))


def _p308_skewed_exchange():
    # strip stays inside the interior but tracks the wrong global rows
    plan = _shard_plan()
    lo, hi = plan.edges[1].src_rows
    return lint_shard_plan(_tamper_edge(plan, 1, src_rows=(lo + 1, hi + 1)))


def _p308_unfed_halo():
    plan = _shard_plan(boundary="periodic")
    plan.edges = plan.edges[:-1]  # a wrap halo now has no feeder
    return lint_shard_plan(plan)


# -------------------------- purity mutants ----------------------------- #

_PREFIX = "import repro.faults.hooks as fault_hooks\n"


def _h401_attr():
    return lint_source(
        _PREFIX + "def f():\n    inj = fault_hooks.ACTIVE\n"
        "    inj.touch_sram(None, site='x')\n",
        "mutant.py",
    )


def _h401_arg():
    return lint_source(
        _PREFIX + "def f(g):\n    inj = fault_hooks.ACTIVE\n    g(inj)\n",
        "mutant.py",
    )


def _h401_wrong_polarity():
    return lint_source(
        _PREFIX + "def f():\n    inj = fault_hooks.ACTIVE\n"
        "    if inj is None:\n        inj.hook()\n",
        "mutant.py",
    )


def _h402():
    return lint_source(
        "def f(a, cache):\n    cache[id(a)] = a\n", "mutant.py"
    )


def _h403_default_rng():
    return lint_source(
        "import numpy as np\ndef f():\n    return np.random.default_rng()\n",
        "mutant.py",
    )


def _h403_legacy():
    return lint_source(
        "import numpy as np\ndef f():\n    return np.random.rand(4)\n",
        "mutant.py",
    )


def _h403_stdlib():
    return lint_source(
        "import random\ndef f():\n    return random.choice([1, 2])\n",
        "mutant.py",
    )


def _h404_crc_size_threshold():
    # a CRC skipped for large payloads, armed or not: faults still enter
    return lint_source(
        _PREFIX + "from repro.faults.checksum import crc32_array\n"
        "def send(data):\n    inj = fault_hooks.ACTIVE\n"
        "    golden = crc32_array(data) if data.nbytes < 1 << 20 else None\n"
        "    return golden\n",
        "mutant.py",
    )


def _h404_mirror_early_return():
    return lint_source(
        "def write(self, buffer, data):\n"
        "    if data.nbytes > self.limit:\n        return\n"
        "    self._host_mirror[buffer] = data.copy()\n",
        "mutant.py",
    )


def _host_mutant(guarded: str, moved: str):
    """The command queue's own source with one disarmed hand-over moved
    outside its ``inj is None`` guard."""
    from repro.runtime import host

    with open(host.__file__) as f:
        source = f.read()
    assert guarded in source, "host.py no longer holds the mutated lines"
    return lint_source(source.replace(guarded, moved), "mutant.py")


def _h405_write_adopts_armed():
    # the caller's grid is bound for the uncopied hand-over whether or
    # not a plan is armed
    return _host_mutant(
        "        if (\n            inj is None\n            and isinstance(",
        "        if (\n            isinstance(",
    )


def _h405_read_hands_out_armed():
    # the read hands out the device storage before the disarmed check
    return _host_mutant(
        "            if inj is None:\n"
        "                data = buffer.share()\n"
        "                break\n",
        "            data = buffer.share()\n"
        "            if inj is None:\n"
        "                break\n",
    )


def _h401_driver_hook():
    # injection plumbing fused into generated driver C: unguardable
    return lint_driver_source(
        "static void stage(void) {\n"
        "  if (fault_hooks_ACTIVE) inject_bitflip();\n"
        "}\n",
        "driver<mutant>.c",
    )


# ----------------------- concurrency mutants --------------------------- #

_THREADING = "import threading\n\n\n"


def _t501_module_lock_cycle():
    return lint_concurrency_source(
        _THREADING
        + "LOCK_A = threading.Lock()\n"
        "LOCK_B = threading.Lock()\n\n\n"
        "def forward():\n"
        "    with LOCK_A:\n"
        "        with LOCK_B:\n"
        "            pass\n\n\n"
        "def backward():\n"
        "    with LOCK_B:\n"
        "        with LOCK_A:\n"
        "            pass\n",
        "mutant.py",
    )


def _t501_cross_class_call_cycle():
    # scheduler locks then calls into the cache; the cache's eviction
    # path locks then calls back into the scheduler: AB-BA by calls
    return lint_concurrency_source(
        _THREADING
        + "class Scheduler:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.cache = ArtifactCache()\n\n"
        "    def submit(self):\n"
        "        with self._lock:\n"
        "            self.cache.put()\n\n\n"
        "class ArtifactCache:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.sched = Scheduler()\n\n"
        "    def put(self):\n"
        "        with self._lock:\n"
        "            pass\n\n"
        "    def evict(self):\n"
        "        with self._lock:\n"
        "            self.sched.submit()\n",
        "mutant.py",
    )


def _t502_unguarded_write():
    return lint_concurrency_source(
        _THREADING
        + "class Counter:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._n = 0\n\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self._n += 1\n\n"
        "    def reset(self):\n"
        "        self._n = 0\n",
        "mutant.py",
    )


def _t503_unguarded_read():
    return lint_concurrency_source(
        _THREADING
        + "class Counter:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._n = 0\n\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self._n += 1\n\n"
        "    def peek(self):\n"
        "        return self._n\n",
        "mutant.py",
    )


def _t504_bare_suppression():
    # the suppression silences the T503, but its missing justification
    # is itself an error: the escape hatch cannot silently grow
    return lint_concurrency_source(
        _THREADING
        + "class Counter:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._n = 0\n\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self._n += 1\n\n"
        "    def peek(self):\n"
        "        return self._n  # lint: unguarded\n",
        "mutant.py",
    )


def _t505_wait_without_loop():
    return lint_concurrency_source(
        _THREADING
        + "class Mailbox:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._cond = threading.Condition(self._lock)\n"
        "        self._ready = False\n\n"
        "    def take(self):\n"
        "        with self._cond:\n"
        "            if not self._ready:\n"
        "                self._cond.wait()\n",
        "mutant.py",
    )


def _t506_dropped_notify():
    return lint_concurrency_source(
        _THREADING
        + "class Gate:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._cond = threading.Condition(self._lock)\n"
        "        self._open = False\n\n"
        "    def wait_open(self):\n"
        "        with self._cond:\n"
        "            while not self._open:\n"
        "                self._cond.wait()\n\n"
        "    def open(self):\n"
        "        with self._cond:\n"
        "            self._open = True\n",
        "mutant.py",
    )


def _t507_thread_never_joined():
    return lint_concurrency_source(
        _THREADING
        + "class Runner:\n"
        "    def __init__(self):\n"
        "        self._thread = threading.Thread(target=self._run)\n"
        "        self._thread.start()\n\n"
        "    def _run(self):\n"
        "        pass\n\n"
        "    def close(self):\n"
        "        pass\n",
        "mutant.py",
    )


def _t507_executor_never_shutdown():
    return lint_concurrency_source(
        "from concurrent.futures import ThreadPoolExecutor\n\n\n"
        "class Pool:\n"
        "    def __init__(self):\n"
        "        self._pool = ThreadPoolExecutor(4)\n\n"
        "    def close(self):\n"
        "        self._pool = None\n",
        "mutant.py",
    )


def _t508_close_before_daemon_join():
    return lint_concurrency_source(
        _THREADING
        + "class Driver:\n"
        "    def close(self):\n"
        "        pass\n\n\n"
        "class Owner:\n"
        "    def __init__(self):\n"
        "        self._driver = Driver()\n"
        "        self._thread = threading.Thread(\n"
        "            target=self._loop, daemon=True)\n\n"
        "    def _loop(self):\n"
        "        pass\n\n"
        "    def close(self):\n"
        "        self._driver.close()\n"
        "        self._thread.join()\n",
        "mutant.py",
    )


def _t509_nonatomic_claim():
    return lint_driver_concurrency(
        "static void *worker_main(void *arg) {\n"
        "  pool *p = arg;\n"
        "  i64 t = p->next_block++;\n"
        "  return 0;\n"
        "}\n",
        "driver<mutant>.c",
    )


def _t509_unlocked_reset():
    return lint_driver_concurrency(
        "static void run_pass(pool *p) {\n"
        "  p->next_block = 0;\n"
        "  pthread_mutex_lock(&p->mu);\n"
        "  p->generation++;\n"
        "  pthread_cond_broadcast(&p->cv_work);\n"
        "  pthread_mutex_unlock(&p->mu);\n"
        "}\n",
        "driver<mutant>.c",
    )


def _t509_inline_claim_outside_loop():
    # a one-unit pass run inline that still claims off the shared
    # counter: nothing reset it since the last pooled pass, so the claim
    # returns a stale index past the end of this pass's units
    return lint_driver_concurrency(
        "void driver_run_pass(void *handle, i64 total) {\n"
        "  pool_t *p = (pool_t *)handle;\n"
        "  if (p->n_workers == 1 || total <= 1) {\n"
        "    i64 t = __atomic_fetch_add(&p->next_block, 1, __ATOMIC_RELAXED);\n"
        "    run_unit(&job, t, scratch);\n"
        "    return;\n"
        "  }\n"
        "  for (;;) {\n"
        "    i64 u = __atomic_fetch_add(&p->next_block, 1, __ATOMIC_RELAXED);\n"
        "    if (u >= total) break;\n"
        "  }\n"
        "}\n",
        "driver<mutant>.c",
    )


def _t510_wait_without_while():
    return lint_driver_concurrency(
        "static void *worker_main(void *arg) {\n"
        "  pool *p = arg;\n"
        "  pthread_mutex_lock(&p->mu);\n"
        "  pthread_cond_wait(&p->cv_work, &p->mu);\n"
        "  pthread_mutex_unlock(&p->mu);\n"
        "  return 0;\n"
        "}\n",
        "driver<mutant>.c",
    )


def _t510_broadcast_before_bump():
    return lint_driver_concurrency(
        "static void run_pass(pool *p) {\n"
        "  pthread_mutex_lock(&p->mu);\n"
        "  pthread_cond_broadcast(&p->cv_work);\n"
        "  p->generation++;\n"
        "  pthread_mutex_unlock(&p->mu);\n"
        "}\n",
        "driver<mutant>.c",
    )


def _t510_wait_outside_mutex():
    return lint_driver_concurrency(
        "static void *worker_main(void *arg) {\n"
        "  pool *p = arg;\n"
        "  while (!p->shutdown)\n"
        "    pthread_cond_wait(&p->cv_work, &p->mu);\n"
        "  return 0;\n"
        "}\n",
        "driver<mutant>.c",
    )


def _t511_sleep_under_lock():
    return lint_concurrency_source(
        "import threading\nimport time\n\n\n"
        "class Slow:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n\n"
        "    def step(self):\n"
        "        with self._lock:\n"
        "            time.sleep(0.1)\n",
        "mutant.py",
    )


def _t512_untyped_raise_under_lock():
    return lint_concurrency_source(
        _THREADING
        + "class Registry:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._items = {}\n\n"
        "    def add(self, key):\n"
        "        with self._lock:\n"
        "            if key in self._items:\n"
        "                raise RuntimeError('duplicate')\n"
        "            self._items[key] = key\n",
        "mutant.py",
    )


MUTANTS = [
    ("k101-offaxis", "K101", _k101, "equation[u]"),
    ("k102-radius5", "K102", _k102, "equation[u]"),
    ("k103-duplicate", "K103", _k103, "equation[u]"),
    ("k104-zero-coeff", "K104", _k104, "equation[u]"),
    ("k105-float32", "K105", _k105, "equation[u]"),
    ("k106-nonlinear", "K106", _k106, "equation[u]"),
    ("k107-foreign-grid", "K107", _k107, "equation[u]"),
    ("k108-affine", "K108", _k108, "equation[u]"),
    ("k109-center-only", "K109", _k109, "equation[u]"),
    ("k110-no-grid", "K110", _k110, "equation[u]"),
    ("c201-csize", "C201", _c201, "config[m-c201]"),
    ("c202-divisibility", "C202", _c202, "config[m-c202]"),
    ("c203-dsp-budget", "C203", _c203, "config[m-c203]"),
    ("c204-bram", "C204", _c204, "config[m-c204]"),
    ("c205-alignment", "C205", _c205, "config[m-c205]"),
    ("c206-csize-align", "C206", _c206, "config[m-c206]"),
    ("c207-shape-dims", "C207", _c207, "config[m-c207]"),
    ("c208-port-width", "C208", _c208, "config[m-c208]"),
    ("c209-domain", "C209", _c209, "config[m-c209]"),
    ("c209-neg-partime", "C209", _c209_negative_partime, "config[m-c209b]"),
    ("p301-gap", "P301", _p301_gap, "plan["),
    ("p301-oob", "P301", _p301_out_of_bounds, "plan["),
    ("p302-escape", "P302", _p302, "plan["),
    ("p303-dup-count", "P303", _p303, "plan["),
    ("p304-shifted-segment", "P304", _p304, "plan["),
    ("p305-copyout", "P305", _p305, "plan["),
    ("p306-window-drift", "P306", _p306_window_drift, "plan["),
    ("p306-record-drift", "P306", _p306_record_drift, "plan["),
    ("p306-segment-drift", "P306", _p306_segment_drift, "plan["),
    ("p306-scratch", "P306", _p306_scratch_undersized, "plan["),
    ("p309-padded-x-drift", "P306", _p309_padded_x_drift, "plan["),
    ("p309-scratch-misaligned", "P306", _p309_scratch_misaligned, "plan["),
    ("p309-width-drift", "P306", _p309_width_drift, "plan["),
    ("p309-window-into-padding", "P306", _p309_window_into_padding,
     "plan["),
    ("p307-stride-overlap", "P307", _p307_stride_overlap, "batch["),
    ("p308-interior-gap", "P308", _p308_interior_gap, "shards["),
    ("p308-interior-overlap", "P308", _p308_interior_overlap, "shards["),
    ("p308-thin-strip", "P308", _p308_thin_strip, "shards["),
    ("p308-halo-sourced", "P308", _p308_halo_sourced, "shards["),
    ("p308-skewed-exchange", "P308", _p308_skewed_exchange, "shards["),
    ("p308-unfed-halo", "P308", _p308_unfed_halo, "shards["),
    ("h401-attr", "H401", _h401_attr, "mutant.py:"),
    ("h401-driver-c", "H401", _h401_driver_hook, "driver<mutant>.c:"),
    ("h401-arg", "H401", _h401_arg, "mutant.py:"),
    ("h401-polarity", "H401", _h401_wrong_polarity, "mutant.py:"),
    ("h402-id-key", "H402", _h402, "mutant.py:"),
    ("h404-crc-size-threshold", "H404", _h404_crc_size_threshold,
     "mutant.py:"),
    ("h404-mirror-early-return", "H404", _h404_mirror_early_return,
     "mutant.py:"),
    ("h405-write-adopts-armed", "H405", _h405_write_adopts_armed,
     "mutant.py:"),
    ("h405-read-hands-out-armed", "H405", _h405_read_hands_out_armed,
     "mutant.py:"),
    ("h403-default-rng", "H403", _h403_default_rng, "mutant.py:"),
    ("h403-legacy-np", "H403", _h403_legacy, "mutant.py:"),
    ("h403-stdlib", "H403", _h403_stdlib, "mutant.py:"),
    ("t501-module-lock-cycle", "T501", _t501_module_lock_cycle, "mutant.py:"),
    ("t501-call-cycle", "T501", _t501_cross_class_call_cycle, "mutant.py:"),
    ("t502-unguarded-write", "T502", _t502_unguarded_write, "mutant.py:"),
    ("t503-unguarded-read", "T503", _t503_unguarded_read, "mutant.py:"),
    ("t504-bare-suppression", "T504", _t504_bare_suppression, "mutant.py:"),
    ("t505-wait-no-loop", "T505", _t505_wait_without_loop, "mutant.py:"),
    ("t506-dropped-notify", "T506", _t506_dropped_notify, "mutant.py:"),
    ("t507-thread-no-join", "T507", _t507_thread_never_joined, "mutant.py:"),
    ("t507-executor-no-shutdown", "T507", _t507_executor_never_shutdown,
     "mutant.py:"),
    ("t508-close-before-join", "T508", _t508_close_before_daemon_join,
     "mutant.py:"),
    ("t509-nonatomic-claim", "T509", _t509_nonatomic_claim,
     "driver<mutant>.c:"),
    ("t509-unlocked-reset", "T509", _t509_unlocked_reset,
     "driver<mutant>.c:"),
    ("t509-inline-claim-outside-loop", "T509", _t509_inline_claim_outside_loop,
     "driver<mutant>.c:"),
    ("t510-wait-no-while", "T510", _t510_wait_without_while,
     "driver<mutant>.c:"),
    ("t510-early-broadcast", "T510", _t510_broadcast_before_bump,
     "driver<mutant>.c:"),
    ("t510-unlocked-wait", "T510", _t510_wait_outside_mutex,
     "driver<mutant>.c:"),
    ("t511-sleep-under-lock", "T511", _t511_sleep_under_lock, "mutant.py:"),
    ("t512-untyped-raise", "T512", _t512_untyped_raise_under_lock,
     "mutant.py:"),
]


def test_mutant_suite_is_large_enough():
    assert len(MUTANTS) >= 60
    assert len({rule for _, rule, _, _ in MUTANTS}) >= 40
    t_rules = [m for m in MUTANTS if m[1].startswith("T")]
    assert len(t_rules) >= 10  # the concurrency pass is self-tested too


@pytest.mark.parametrize(
    "expected_rule,build,locus_prefix",
    [m[1:] for m in MUTANTS],
    ids=[m[0] for m in MUTANTS],
)
def test_mutant_fires_expected_rule(expected_rule, build, locus_prefix):
    findings = build()
    fired = {f.rule for f in findings}
    assert expected_rule in fired, f"wanted {expected_rule}, got {sorted(fired)}"
    matching = [f for f in findings if f.rule == expected_rule]
    assert all(f.locus.startswith(locus_prefix) for f in matching)
    assert all(f.message for f in findings)
