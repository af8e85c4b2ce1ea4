"""The generated native pass driver.

The paper's host program *generates* the OpenCL device code from the
stencil parameters (radius, dimensionality, coefficients, ``parvec``)
and compiles it offline; the FPGA then executes a fixed-function
pipeline.  This module mirrors that structure for the functional
simulator: from a :class:`~repro.core.stencil.StencilSpec` it
generates one C translation unit — the fused pass driver, with the
coefficients baked in as exact float literals — compiles it once with
the system C compiler, and executes whole passes through ``ctypes`` on
a persistent pthread pool.  Unlike the FPGA, where every ``parvec`` is
its own bitstream, the SIMD width is not compiled in: it travels with
each pass's :class:`~repro.core.plan.DriverTables`, so every
configuration of one stencil runs the same library.

Bit-exactness is preserved by construction:

* coefficients are emitted as C99 hexadecimal-float literals
  (``float.hex()``), which reconstruct the exact float32 value;
* the per-element accumulation chain is the paper's fixed order —
  ``acc = c0 * x`` then ``acc += c_i * x_i`` per
  :meth:`StencilSpec.offsets` — each multiply and add a separately
  rounded float32 operation;
* ``-ffp-contract=off`` forbids the compiler from fusing the multiply
  and add into an FMA (which rounds once and would change the bits), and
  vectorization only batches *across* elements, never reassociating
  within an element's chain.

Everything is best-effort: no compiler, a failed compile, or
``REPRO_NO_NATIVE=1`` in the environment simply yields ``None`` and the
engine falls back to the pure-NumPy path (same bits, more wall-clock).
Compiled libraries are content-addressed by source and flags and cached
in the user's temp directory, so each ``(spec, flags)`` compiles at
most once per machine.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import weakref

import numpy as np

from repro.core.pe import stencil_terms
from repro.core.plan import DRIVER_RECORD_LEN, DriverTables
from repro.core.stencil import StencilSpec, spec_key

#: Environment variable that disables native kernels when set to a
#: non-empty value (the pure-NumPy path is used instead).
DISABLE_ENV = "REPRO_NO_NATIVE"


def _c_literal(value: float) -> str:
    """Exact C float literal for a float32 value (hex-float, ``f`` suffix)."""
    return f"{float(np.float32(value)).hex()}f"


def _acc_lines(spec: StencilSpec, indent: str, steps: dict[int, str]) -> list[str]:
    """The per-element accumulation chain over a single strided ``row``.

    ``steps[axis]`` is the C expression for one positive step along
    ``axis`` (e.g. ``"s0"`` or ``"1"``).  The driver holds exactly one
    chain — every PE stage runs ``stage_out`` — so every stage executes
    the identical fixed accumulation order: the bit-exactness invariant.
    """

    def read(axis: int | None, off: int) -> str:
        if axis is None:
            return "row[x]"
        return f"row[x + ({off}) * {steps[axis]}]"

    lines = [f"{indent}float acc = {_c_literal(spec.center)} * {read(None, 0)};"]
    for axis, off, coeff in stencil_terms(spec, spec.dims):
        lines.append(f"{indent}acc += {_c_literal(coeff)} * {read(axis, off)};")
    return lines


#: Bytes of footprint planes the read kernel copies ahead of each
#: stage-0 ``stage_out`` call, so the planes that call reads are still
#: in cache.  A block's chunk is ``max(2 * radius, READ_CHUNK_BYTES //
#: plane bytes)`` planes of its padded footprint: at least as many new
#: planes as the ``2 * radius`` each chunk carries over from the last.
READ_CHUNK_BYTES = 256 << 10


#: Shared C prelude of the generated pass driver: the job description,
#: the persistent worker pool, the streamed-axis halo fill (slab
#: copies, identical to :func:`repro.core.pe.fill_stream_halo`) and the
#: read kernel's row gather.
_DRIVER_PRELUDE = r"""
#include <pthread.h>
#include <stdlib.h>
#include <string.h>

typedef long long i64;

typedef struct {
  const float *src;
  float *out;
  const i64 *blocks;
  const i64 *segs;
  const i64 *wins;
  i64 n_blocks;
  i64 steps;
  i64 gs0;
  i64 gs1;
  int periodic;
  float *scratch;
  i64 scratch_half;
  i64 vec;          /* SIMD lanes each scratch row is padded to */
  i64 n_grids;      /* batched grids sharing these tables (1 = plain pass) */
  i64 grid_stride;  /* float offset between consecutive grids in the slab */
} job_t;

typedef struct {
  i64 n_workers;
  pthread_t *threads;
  pthread_mutex_t mu;
  pthread_cond_t cv_work;
  pthread_cond_t cv_done;
  i64 generation;
  i64 workers_done;
  int shutdown;
  i64 next_block;
  job_t job;
} pool_t;

typedef struct {
  pool_t *pool;
  i64 wid;
} worker_arg_t;

/* Refresh the streamed-axis pad slabs in place (clamp duplicates the
 * border slab, periodic wraps -- np.pad edge/wrap semantics). */
static void fill_halo(float *buf, i64 n0, i64 s0, int periodic) {
  const size_t slab = (size_t)s0 * sizeof(float);
  if (!periodic) {
    for (i64 i = 0; i < RAD; ++i)
      memcpy(buf + i * s0, buf + RAD * s0, slab);
    for (i64 i = 0; i < RAD; ++i)
      memcpy(buf + (RAD + n0 + i) * s0, buf + (RAD + n0 - 1) * s0, slab);
  } else if (n0 >= RAD) {
    memcpy(buf, buf + n0 * s0, (size_t)RAD * slab);
    memcpy(buf + (RAD + n0) * s0, buf + RAD * s0, (size_t)RAD * slab);
  } else {
    for (i64 i = 0; i < RAD; ++i) {
      i64 lo = ((n0 - RAD + i) % n0 + n0) % n0;
      memcpy(buf + i * s0, buf + (RAD + lo) * s0, slab);
      memcpy(buf + (RAD + n0 + i) * s0, buf + (RAD + i % n0) * s0, slab);
    }
  }
}

/* Source plane of padded footprint plane p: pad planes clamp to the
 * border plane or wrap, like fill_halo. */
static i64 src_plane(i64 p, i64 n0, int periodic) {
  const i64 g = p - RAD;
  if (periodic) return (g % n0 + n0) % n0;
  return g < 0 ? 0 : (g >= n0 ? n0 - 1 : g);
}

/* Stage 0 reads planes [z, z + chunk + 2*RAD) of the padded footprint
 * from the head of A.  Slide that window from the previous chunk: the
 * 2*RAD planes both share move down.  Returns the first plane the read
 * kernel still has to copy. */
static i64 slide_window(float *A, i64 s0, i64 chunk, i64 z, i64 z0) {
  if (z == z0) return z;
  memmove(A, A + chunk * s0, (size_t)(2 * RAD * s0) * sizeof(float));
  return z + 2 * RAD;
}

/* One row of the read kernel: replay the gather segments (P304), each
 * a clamp broadcast of one source cell or a contiguous copy. */
static void copy_row(float *restrict row, const float *restrict srow,
                     const i64 *seg, i64 nseg) {
  for (const i64 *end = seg + 4 * nseg; seg < end; seg += 4) {
    if (seg[3] - seg[2] == 1) {
      const float v = srow[seg[2]];
      for (i64 x = seg[0]; x < seg[1]; ++x) row[x] = v;
    } else {
      memcpy(row + seg[0], srow + seg[2],
             (size_t)(seg[1] - seg[0]) * sizeof(float));
    }
  }
}
"""

#: Shared C epilogue: work claiming (one atomic counter over
#: ``(grid, block)`` pairs, so idle workers steal whatever unit is next
#: — across grids of a batch as well as blocks of one grid) and the
#: public pool API.
_DRIVER_EPILOGUE = r"""
/* One (grid, block) unit on ping/pong scratch starting at ``base``. */
static void run_unit(const job_t *J, i64 t, float *base) {
  const i64 g = t / J->n_blocks;
  const i64 b = t % J->n_blocks;
  do_block(J, J->src + g * J->grid_stride, J->out + g * J->grid_stride,
           b, base, base + J->scratch_half);
}

static void run_worker(pool_t *p, i64 wid) {
  const job_t *J = &p->job;
  float *base = J->scratch + wid * 2 * J->scratch_half;
  const i64 total = J->n_grids * J->n_blocks;
  for (;;) {
    i64 t = __atomic_fetch_add(&p->next_block, 1, __ATOMIC_RELAXED);
    if (t >= total) break;
    run_unit(J, t, base);
  }
}

static void *worker_main(void *argp) {
  worker_arg_t *arg = (worker_arg_t *)argp;
  pool_t *p = arg->pool;
  i64 wid = arg->wid;
  free(arg);
  i64 seen = 0;
  pthread_mutex_lock(&p->mu);
  for (;;) {
    while (!p->shutdown && p->generation == seen)
      pthread_cond_wait(&p->cv_work, &p->mu);
    if (p->shutdown) break;
    seen = p->generation;
    pthread_mutex_unlock(&p->mu);
    run_worker(p, wid);
    pthread_mutex_lock(&p->mu);
    if (++p->workers_done == p->n_workers - 1)
      pthread_cond_signal(&p->cv_done);
  }
  pthread_mutex_unlock(&p->mu);
  return 0;
}

void *driver_create(i64 n_workers) {
  if (n_workers < 1) n_workers = 1;
  pool_t *p = (pool_t *)calloc(1, sizeof(pool_t));
  if (!p) return 0;
  p->n_workers = n_workers;
  pthread_mutex_init(&p->mu, 0);
  pthread_cond_init(&p->cv_work, 0);
  pthread_cond_init(&p->cv_done, 0);
  if (n_workers > 1) {
    p->threads = (pthread_t *)calloc((size_t)(n_workers - 1),
                                     sizeof(pthread_t));
    if (!p->threads) { free(p); return 0; }
    for (i64 i = 1; i < n_workers; ++i) {
      worker_arg_t *arg = (worker_arg_t *)malloc(sizeof(worker_arg_t));
      arg->pool = p;
      arg->wid = i;
      if (pthread_create(&p->threads[i - 1], 0, worker_main, arg) != 0) {
        /* spawn failure: fall back to the threads created so far */
        free(arg);
        p->n_workers = i;
        break;
      }
    }
  }
  return p;
}

void driver_run_pass(void *handle, const float *src, float *out,
                     const i64 *blocks, i64 n_blocks, const i64 *segs,
                     const i64 *wins, i64 steps, i64 gs0, i64 gs1,
                     int periodic, float *scratch, i64 scratch_half,
                     i64 vec, i64 n_grids, i64 grid_stride) {
  pool_t *p = (pool_t *)handle;
  const job_t job = {
      .src = src, .out = out, .blocks = blocks, .segs = segs, .wins = wins,
      .n_blocks = n_blocks, .steps = steps, .gs0 = gs0, .gs1 = gs1,
      .periodic = periodic, .scratch = scratch, .scratch_half = scratch_half,
      .vec = vec, .n_grids = n_grids, .grid_stride = grid_stride};
  const i64 total = n_grids * n_blocks;
  if (p->n_workers == 1 || total <= 1) {
    /* nothing to share: run inline on the calling thread (worker 0's
     * scratch) without waking, locking or waiting on the pool */
    for (i64 t = 0; t < total; ++t) run_unit(&job, t, scratch);
    return;
  }
  pthread_mutex_lock(&p->mu);
  p->job = job;
  p->next_block = 0;
  p->workers_done = 0;
  p->generation++;
  pthread_cond_broadcast(&p->cv_work);
  pthread_mutex_unlock(&p->mu);
  run_worker(p, 0);  /* the calling thread is worker 0 */
  pthread_mutex_lock(&p->mu);
  while (p->workers_done < p->n_workers - 1)
    pthread_cond_wait(&p->cv_done, &p->mu);
  pthread_mutex_unlock(&p->mu);
}

void driver_destroy(void *handle) {
  pool_t *p = (pool_t *)handle;
  if (!p) return;
  pthread_mutex_lock(&p->mu);
  p->shutdown = 1;
  pthread_cond_broadcast(&p->cv_work);
  pthread_mutex_unlock(&p->mu);
  for (i64 i = 1; i < p->n_workers; ++i)
    pthread_join(p->threads[i - 1], 0);
  free(p->threads);
  pthread_mutex_destroy(&p->mu);
  pthread_cond_destroy(&p->cv_work);
  pthread_cond_destroy(&p->cv_done);
  free(p);
}
"""


def driver_source(spec: StencilSpec) -> str:
    """C source of the fused pass driver for ``spec``.

    One translation unit executes an *entire pass*: for every block, the
    read kernel, all chained PE stages and the write kernel, driven from
    the flat tables of :meth:`repro.core.plan.PassPlan.to_driver_tables`.
    Stages ping-pong between two per-worker padded buffers; the
    overlapped-blocking shrink invariant (lint rule P302) guarantees
    every neighbor read at stage ``s`` lands inside stage ``s-1``'s
    window or in a clamp duplicate refreshed from it, so cells left
    stale outside the window are never read.  The SIMD width — the
    paper's ``parvec`` mapped onto CPU lanes (see
    :func:`vector_width_for`; 1 is the scalar case) — is a runtime
    argument taken from ``DriverTables.vector_width``, so one source
    serves every configuration of ``spec``:

    * **read kernel**: ``gather`` copies planes of the block's padded
      footprint — the streamed-axis pad planes included, each from the
      source plane it clamps or wraps to — by replaying the gather
      segments, each a clamp broadcast or a contiguous (possibly
      wrapped) copy; lint rule P304 proves the segments encode exactly
      that mapping.  As the paper's read kernel streams each block into
      the first PE, it feeds stage 0 one chunk of planes at a time
      (:data:`READ_CHUNK_BYTES`) through a window at the head of the
      first ping-pong buffer: the ``2 * RAD`` planes a chunk shares
      with the previous one slide down, the read kernel copies the
      rest, and the stage-0 ``stage_out`` call reads them while they
      are still in cache.  The window never holds more planes than the
      footprint, so the scratch sizing is unchanged;
    * **one PE kernel**: every stage, the first included, runs
      ``stage_out``, which writes its window to a base pointer and
      strides: the next ping-pong buffer, or — for the final stage of a
      *full* pass — the output grid itself, so the result never bounces
      through the ping-pong buffer and is never re-copied.  Lint rule
      P305 proves the final window lands exactly on the compute region
      the write kernel would copy, and the driver re-checks that
      geometry per block at runtime so short (tail) passes — whose
      final window is wider — fall back to the write kernel;
    * every scratch row is padded to the tables' width (``roundup(nx,
      J->vec)``), so consecutive rows start on lane boundaries and the
      compiler keeps one steady-state vector loop per row instead of
      re-peeling at every row;
    * the inner x loop carries ``#pragma omp simd`` + ``restrict``,
      batching independent per-element accumulation chains per
      instruction — lanes never reassociate *within* a chain, so the
      bits match the reference exactly (``-ffp-contract=off`` still
      forbids FMA fusion).

    No array on the stack is sized by a grid or block extent: the read
    kernel walks the segment rows directly.
    """
    head = [
        f"#define RAD {spec.radius}",
        f"#define REC {DRIVER_RECORD_LEN[spec.dims]}",
        f"#define CHUNK_BYTES {READ_CHUNK_BYTES}",
        _DRIVER_PRELUDE,
    ]
    if spec.dims == 2:
        body = [
            "/* One PE stage over the window [z0, z1) x [x0, x1) of `a`,",
            " * written to `o` (row stride os0) from the window origin on:",
            " * the next ping-pong buffer, or the output grid when the",
            " * window is the compute region (P305). */",
            "static void stage_out(const float *restrict a,",
            "                      float *restrict o, i64 s0, i64 os0,",
            "                      i64 z0, i64 z1, i64 x0, i64 x1) {",
            "  for (i64 z = z0; z < z1; ++z) {",
            "    const float *restrict row = a + z * s0;",
            "    float *restrict orow = o + (z - z0) * os0;",
            "#pragma omp simd",
            "    for (i64 x = x0; x < x1; ++x) {",
        ]
        body += _acc_lines(spec, "      ", {0: "s0", 1: "1"})
        body += [
            "      orow[x - x0] = acc;",
            "    }",
            "  }",
            "}",
            "",
            "/* Read kernel: padded footprint planes [p0, p1) into `dst`. */",
            "static void gather(const job_t *J, const float *src, float *dst,",
            "                   i64 s0, const i64 *segx, i64 nsx, i64 n0,",
            "                   i64 p0, i64 p1) {",
            "  for (i64 p = p0; p < p1; ++p)",
            "    copy_row(dst + (p - p0) * s0,",
            "             src + src_plane(p, n0, J->periodic) * J->gs0,",
            "             segx, nsx);",
            "}",
            "",
            "/* clamp-duplicate refresh (P302: sources sit inside the",
            " * stage window whenever a later stage reads the copies) */",
            "static void refresh_dups(float *buf, i64 s0, i64 n0, i64 nx,",
            "                         i64 dlx, i64 dhx) {",
            "  for (i64 z = RAD; z < RAD + n0; ++z) {",
            "    float *row = buf + z * s0;",
            "    if (dlx) {",
            "      const float v = row[dlx];",
            "      for (i64 x = 0; x < dlx; ++x) row[x] = v;",
            "    }",
            "    if (dhx) {",
            "      const float v = row[nx - 1 - dhx];",
            "      for (i64 x = 0; x < dhx; ++x) row[nx - 1 - x] = v;",
            "    }",
            "  }",
            "}",
            "",
            "static void do_block(const job_t *J, const float *src,",
            "                     float *out, i64 bi, float *A, float *B) {",
            "  const i64 *R = J->blocks + bi * REC;",
            "  const i64 n0 = R[0], nx = R[1];",
            "  const i64 dlx = R[2], dhx = R[3];",
            "  const i64 wx = R[4], cx = R[5], rx = R[6];",
            "  const i64 *segx = J->segs + 4 * R[7];",
            "  const i64 nsx = R[8];",
            "  const i64 s0 = (nx + J->vec - 1) / J->vec * J->vec;",
            "  i64 chunk = CHUNK_BYTES / ((i64)sizeof(float) * s0);",
            "  if (chunk < 2 * RAD) chunk = 2 * RAD;",
            "  const i64 *W = J->wins + bi * J->steps * 4;",
            "  /* every stage runs stage_out from A into B, then swaps;",
            "   * stage 0 reads each chunk from a window at the head of A",
            "   * that the read kernel has just filled, and the final stage",
            "   * writes `out` directly when the window proves it covers",
            "   * the compute region */",
            "  for (i64 s = 0; s < J->steps; ++s, W += 4) {",
            "    const i64 z0 = W[0], z1 = W[1], x0 = W[2], x1 = W[3];",
            "    const int fused = s + 1 == J->steps && z0 == 0 && z1 == n0",
            "        && x0 == rx && x1 == rx + cx;",
            "    if (s) fill_halo(A, n0, s0, J->periodic);",
            "    for (i64 z = z0, ze; z < z1; z = ze) {",
            "      ze = s || z1 - z <= chunk ? z1 : z + chunk;",
            "      if (!s) {",
            "        const i64 p = slide_window(A, s0, chunk, z, z0);",
            "        gather(J, src, A + (p - z) * s0, s0, segx, nsx, n0,",
            "               p, ze + 2 * RAD);",
            "      }",
            "      const i64 a0 = s ? z + RAD : RAD;",
            "      if (fused)",
            "        stage_out(A, out + z * J->gs0 + wx, s0, J->gs0,",
            "                  a0, a0 + ze - z, x0, x1);",
            "      else",
            "        stage_out(A, B + (z + RAD) * s0 + x0, s0, s0,",
            "                  a0, a0 + ze - z, x0, x1);",
            "    }",
            "    if (fused) return;",
            "    if (s + 1 < J->steps && !J->periodic && (dlx | dhx))",
            "      refresh_dups(B, s0, n0, nx, dlx, dhx);",
            "    float *t = A; A = B; B = t;",
            "  }",
            "  /* write kernel (unfused tail passes only) */",
            "  for (i64 z = 0; z < n0; ++z)",
            "    memcpy(out + z * J->gs0 + wx, A + (z + RAD) * s0 + rx,",
            "           (size_t)cx * sizeof(float));",
            "}",
        ]
    else:
        body = [
            "/* One PE stage over the window [z0, z1) x [y0, y1) x [x0, x1)",
            " * of `a`, written to `o` (strides os0, os1) from the window",
            " * origin on: the next ping-pong buffer, or the output grid",
            " * when the window is the compute region (P305). */",
            "static void stage_out(const float *restrict a,",
            "                      float *restrict o, i64 s0, i64 s1,",
            "                      i64 os0, i64 os1, i64 z0, i64 z1,",
            "                      i64 y0, i64 y1, i64 x0, i64 x1) {",
            "  for (i64 z = z0; z < z1; ++z) {",
            "    for (i64 y = y0; y < y1; ++y) {",
            "      const float *restrict row = a + z * s0 + y * s1;",
            "      float *restrict orow = o + (z - z0) * os0",
            "                               + (y - y0) * os1;",
            "#pragma omp simd",
            "      for (i64 x = x0; x < x1; ++x) {",
        ]
        body += _acc_lines(spec, "        ", {0: "s0", 1: "s1", 2: "1"})
        body += [
            "        orow[x - x0] = acc;",
            "      }",
            "    }",
            "  }",
            "}",
            "",
            "/* Read kernel: padded footprint planes [p0, p1) into `dst`,",
            " * row by row along the y segments. */",
            "static void gather(const job_t *J, const float *src, float *dst,",
            "                   i64 s0, i64 s1, const i64 *segy, i64 nsy,",
            "                   const i64 *segx, i64 nsx, i64 n0,",
            "                   i64 p0, i64 p1) {",
            "  for (i64 p = p0; p < p1; ++p) {",
            "    const float *sp = src + src_plane(p, n0, J->periodic) * J->gs0;",
            "    float *dp = dst + (p - p0) * s0;",
            "    for (const i64 *sy = segy; sy < segy + 4 * nsy; sy += 4)",
            "      for (i64 y = sy[0]; y < sy[1]; ++y) {",
            "        const i64 ys = sy[3] - sy[2] == 1 ? sy[2] : sy[2] + y - sy[0];",
            "        copy_row(dp + y * s1, sp + ys * J->gs1, segx, nsx);",
            "      }",
            "  }",
            "}",
            "",
            "/* clamp-duplicate refresh -- y rows first, then x columns,",
            " * matching refresh_border_duplicates order (P302: sources",
            " * sit inside the stage window whenever later stages read",
            " * the copies) */",
            "static void refresh_dups(float *buf, i64 s0, i64 s1, i64 n0,",
            "                         i64 ny, i64 nx, i64 dly, i64 dhy,",
            "                         i64 dlx, i64 dhx) {",
            "  for (i64 z = RAD; z < RAD + n0; ++z) {",
            "    float *bz = buf + z * s0;",
            "    for (i64 y = 0; y < dly; ++y)",
            "      memcpy(bz + y * s1, bz + dly * s1,",
            "             (size_t)nx * sizeof(float));",
            "    for (i64 y = 0; y < dhy; ++y)",
            "      memcpy(bz + (ny - 1 - y) * s1,",
            "             bz + (ny - 1 - dhy) * s1,",
            "             (size_t)nx * sizeof(float));",
            "    if (dlx)",
            "      for (i64 y = 0; y < ny; ++y) {",
            "        float *row = bz + y * s1;",
            "        const float v = row[dlx];",
            "        for (i64 x = 0; x < dlx; ++x) row[x] = v;",
            "      }",
            "    if (dhx)",
            "      for (i64 y = 0; y < ny; ++y) {",
            "        float *row = bz + y * s1;",
            "        const float v = row[nx - 1 - dhx];",
            "        for (i64 x = 0; x < dhx; ++x) row[nx - 1 - x] = v;",
            "      }",
            "  }",
            "}",
            "",
            "static void do_block(const job_t *J, const float *src,",
            "                     float *out, i64 bi, float *A, float *B) {",
            "  const i64 *R = J->blocks + bi * REC;",
            "  const i64 n0 = R[0], ny = R[1], nx = R[2];",
            "  const i64 dly = R[3], dhy = R[4], dlx = R[5], dhx = R[6];",
            "  const i64 wy = R[7], wx = R[8], cy = R[9], cx = R[10];",
            "  const i64 ry = R[11], rx = R[12];",
            "  const i64 *segy = J->segs + 4 * R[13];",
            "  const i64 nsy = R[14];",
            "  const i64 *segx = J->segs + 4 * R[15];",
            "  const i64 nsx = R[16];",
            "  const i64 s1 = (nx + J->vec - 1) / J->vec * J->vec;",
            "  const i64 s0 = ny * s1;",
            "  i64 chunk = CHUNK_BYTES / ((i64)sizeof(float) * s0);",
            "  if (chunk < 2 * RAD) chunk = 2 * RAD;",
            "  const i64 *W = J->wins + bi * J->steps * 6;",
            "  /* every stage runs stage_out from A into B, then swaps;",
            "   * stage 0 reads each chunk from a window at the head of A",
            "   * that the read kernel has just filled, and the final stage",
            "   * writes `out` directly when the window proves it covers",
            "   * the compute region */",
            "  for (i64 s = 0; s < J->steps; ++s, W += 6) {",
            "    const i64 z0 = W[0], z1 = W[1], y0 = W[2], y1 = W[3];",
            "    const i64 x0 = W[4], x1 = W[5];",
            "    const int fused = s + 1 == J->steps && z0 == 0 && z1 == n0",
            "        && y0 == ry && y1 == ry + cy && x0 == rx && x1 == rx + cx;",
            "    if (s) fill_halo(A, n0, s0, J->periodic);",
            "    for (i64 z = z0, ze; z < z1; z = ze) {",
            "      ze = s || z1 - z <= chunk ? z1 : z + chunk;",
            "      if (!s) {",
            "        const i64 p = slide_window(A, s0, chunk, z, z0);",
            "        gather(J, src, A + (p - z) * s0, s0, s1, segy, nsy,",
            "               segx, nsx, n0, p, ze + 2 * RAD);",
            "      }",
            "      const i64 a0 = s ? z + RAD : RAD;",
            "      if (fused)",
            "        stage_out(A, out + z * J->gs0 + wy * J->gs1 + wx, s0, s1,",
            "                  J->gs0, J->gs1, a0, a0 + ze - z,",
            "                  y0, y1, x0, x1);",
            "      else",
            "        stage_out(A, B + (z + RAD) * s0 + y0 * s1 + x0, s0, s1,",
            "                  s0, s1, a0, a0 + ze - z, y0, y1, x0, x1);",
            "    }",
            "    if (fused) return;",
            "    if (s + 1 < J->steps && !J->periodic",
            "        && (dly | dhy | dlx | dhx))",
            "      refresh_dups(B, s0, s1, n0, ny, nx, dly, dhy, dlx, dhx);",
            "    float *t = A; A = B; B = t;",
            "  }",
            "  /* write kernel (unfused tail passes only) */",
            "  for (i64 z = 0; z < n0; ++z) {",
            "    const float *az = A + (z + RAD) * s0;",
            "    float *oz = out + z * J->gs0;",
            "    for (i64 y = 0; y < cy; ++y)",
            "      memcpy(oz + (wy + y) * J->gs1 + wx, az + (ry + y) * s1 + rx,",
            "             (size_t)cx * sizeof(float));",
            "  }",
            "}",
        ]
    return "\n".join(head + body) + _DRIVER_EPILOGUE


def vector_width_for(parvec: int) -> int:
    """SIMD lanes the driver pads rows to for a config's ``parvec``.

    The largest power of two dividing ``parvec`` (``parvec & -parvec``):
    every power-of-two ``parvec`` keeps its own width, and an odd one
    runs unpadded rows (width 1).  The width only shapes the tables
    (:meth:`~repro.core.plan.PassPlan.to_driver_tables`); the compiled
    driver is the same for every width.
    """
    return parvec & -parvec


#: Compiler flags of the shipped driver.  ``-fopenmp-simd`` honors the
#: ``omp simd`` pragmas without linking an OpenMP runtime; vectorizing
#: across elements never reassociates within a chain, so the bits are
#: unaffected.  No ``-funroll-loops``: it lengthens every cold compile
#: (by 10-20% on this source), and the passes run within about 2%
#: without it.
VECTOR_FLAGS = ("-fopenmp-simd",)

#: Flags of the scalar SIMD baseline (engine ``"native-scalar"``): the
#: same source, run on width-1 tables, with every vectorizer off, so it
#: differs from the shipped build only in vectorization.  Dropping only
#: ``-ftree-vectorize`` is not enough — the ``omp simd`` loops would
#: still vectorize under ``-fopenmp-simd``.
SCALAR_FLAGS = ("-fno-tree-vectorize", "-fno-tree-slp-vectorize")


def _find_compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _compile(source: str, flags: tuple[str, ...]) -> str | None:
    """Compile ``source`` to a cached shared library; return its path.

    Content-addressed: the same source and flags always map to the same
    ``.so`` in the temp directory, built at most once (atomic rename, so
    racing processes are safe).  Returns ``None`` on any failure.
    """
    compiler = _find_compiler()
    if compiler is None:
        return None
    base = [compiler, "-O3", "-ffp-contract=off", "-shared", "-fPIC", *flags]
    tag = source + "\x00" + " ".join(base[1:])
    digest = hashlib.sha256(tag.encode()).hexdigest()[:16]
    cache = os.path.join(tempfile.gettempdir(), f"repro_native_{digest}.so")
    if os.path.exists(cache):
        return cache
    workdir = tempfile.mkdtemp(prefix="repro_native_build_")
    try:
        c_path = os.path.join(workdir, "kernel.c")
        so_path = os.path.join(workdir, "kernel.so")
        with open(c_path, "w") as fh:
            fh.write(source)
        attempts = [base + ["-march=native"], base]
        if "-fopenmp-simd" in base:
            # last resort: a compiler without -fopenmp-simd (the pragma
            # is then ignored as an unknown pragma, still correct)
            attempts.append([f for f in base if f != "-fopenmp-simd"])
        for cmd in attempts:
            proc = subprocess.run(
                cmd + ["-o", so_path, c_path, "-lpthread"],
                capture_output=True,
                timeout=120,
            )
            if proc.returncode == 0:
                os.replace(so_path, cache)
                return cache
        return None
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def native_available() -> bool:
    """True if native kernels are enabled and a C compiler is present."""
    return not os.environ.get(DISABLE_ENV) and _find_compiler() is not None


def usable_cpus() -> int:
    """How many CPUs this process may run on (its affinity mask).

    The default pool size: one worker per CPU the operating system
    will actually run this process on, so a process pinned to one CPU
    runs every pass inline on the calling thread.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


class NativeDriver:
    """A compiled fused pass driver with its own persistent worker pool.

    One instance owns one C-side ``pool_t``: ``n_workers - 1`` pthreads
    created at construction and parked on a condition variable between
    passes, plus the calling thread acting as worker 0.  Its one entry
    point, :meth:`run_pass`, executes an *entire pass* over a
    ``(n_grids, *grid_shape)`` slab — every block's gather, all chained
    PE stages and the write-back, for every grid — inside native code,
    with ``(grid, block)`` units claimed off one atomic counter
    (work-stealing).  A pass with a single ``(grid, block)`` unit, or
    any pass of a one-worker pool, runs inline on the calling thread
    and never touches the pool's mutex or condition variables.
    The handle is not reentrant: one pass at a time per driver, which is
    exactly the accelerator's pass loop.  Freed via ``weakref.finalize``
    (or an explicit :meth:`close`), so pools never leak across runs.
    """

    def __init__(self, spec: StencilSpec, workers: int, lib_path: str):
        self.spec = spec
        self.workers = max(1, int(workers))
        self.lib_path = lib_path
        lib = ctypes.CDLL(lib_path)
        lib.driver_create.argtypes = [ctypes.c_longlong]
        lib.driver_create.restype = ctypes.c_void_p
        lib.driver_run_pass.argtypes = [
            ctypes.c_void_p,  # pool handle
            ctypes.c_void_p,  # src
            ctypes.c_void_p,  # out
            ctypes.c_void_p,  # block records
            ctypes.c_longlong,  # n_blocks
            ctypes.c_void_p,  # segment rows
            ctypes.c_void_p,  # windows
            ctypes.c_longlong,  # steps
            ctypes.c_longlong,  # gs0 (element stride, axis 0)
            ctypes.c_longlong,  # gs1 (element stride, axis 1; 0 in 2D)
            ctypes.c_int,  # periodic
            ctypes.c_void_p,  # scratch
            ctypes.c_longlong,  # scratch_half (floats per ping buffer)
            ctypes.c_longlong,  # vec (lanes each scratch row is padded to)
            ctypes.c_longlong,  # n_grids (grids in the slab)
            ctypes.c_longlong,  # grid_stride (floats between slab grids)
        ]
        lib.driver_run_pass.restype = None
        lib.driver_destroy.argtypes = [ctypes.c_void_p]
        lib.driver_destroy.restype = None
        handle = lib.driver_create(self.workers)
        if not handle:
            raise OSError("driver_create returned NULL")
        self._lib = lib
        self._handle = handle
        self._finalizer = weakref.finalize(self, lib.driver_destroy, handle)
        # The last scratch buffer and its base address, looked up once
        # per allocation rather than once per pass.
        self._scratch: np.ndarray | None = None
        self._scratch_ptr = 0

    def close(self) -> None:
        """Shut down and join the worker pool (idempotent)."""
        self._finalizer()

    def run_pass(
        self,
        src: np.ndarray,
        out: np.ndarray,
        tables: DriverTables,
        periodic: bool,
        scratch: np.ndarray,
    ) -> None:
        """Execute one full pass of ``tables.steps`` chained stages.

        ``src``/``out`` are distinct C-contiguous float32 slabs of shape
        ``(n_grids,) + grid_shape`` (one grid is a ``grid[None]``
        view); the grid count and strides the C side sees are
        :func:`slab_layout` of ``src``.  The pool's atomic claim counter
        ranges over ``(grid, block)`` units, so one call services the
        whole slab and every worker stays busy even when one grid has
        fewer blocks than workers; grids never alias, so the result is
        bit-identical to a pass per grid.  ``scratch`` is a C-contiguous
        float32 array with at least ``workers * 2 *
        tables.scratch_floats`` elements.  Rows are padded to
        ``tables.vector_width`` lanes, the same width the scratch was
        sized for.  The ctypes call releases the GIL for the whole
        pass.
        """
        n_grids, grid_stride, gs0, gs1 = slab_layout(src, self.spec.dims)
        if scratch is not self._scratch:
            self._scratch, self._scratch_ptr = scratch, scratch.ctypes.data
        blocks, segments, windows = tables.pointers
        self._lib.driver_run_pass(
            self._handle,
            src.ctypes.data,
            out.ctypes.data,
            blocks,
            tables.blocks.shape[0],
            segments,
            windows,
            tables.steps,
            gs0,
            gs1,
            1 if periodic else 0,
            self._scratch_ptr,
            tables.scratch_floats,
            tables.vector_width,
            n_grids,
            grid_stride,
        )


def slab_layout(src: np.ndarray, dims: int) -> tuple[int, int, int, int]:
    """``(n_grids, grid_stride, gs0, gs1)`` of a ``(n_grids, *grid_shape)``
    slab: the layout :meth:`NativeDriver.run_pass` hands the C driver.

    Strides are in elements: ``grid_stride`` between consecutive grids,
    ``gs0`` along the streamed axis and ``gs1`` along axis 1 of a 3D
    grid (0 in 2D).  Lint rule P307 checks this layout against the plan
    without running a pass.
    """
    itemsize = src.itemsize
    strides = [s // itemsize for s in src.strides]
    return src.shape[0], strides[0], strides[1], strides[2] if dims == 3 else 0


#: Compiled driver library path per ``(stencil key, flags)``; ``None``
#: caches failures.  Pool handles are *not* shared —
#: each accelerator gets its own :class:`NativeDriver` so concurrent
#: runs never contend for a job slot.
_LIBS: dict[tuple, str | None] = {}


def native_driver(
    spec: StencilSpec,
    workers: int,
    flags: tuple[str, ...] = VECTOR_FLAGS,
) -> NativeDriver | None:
    """A fresh pass driver (own pool) for ``spec``, or ``None``.

    One library per ``(spec, flags)``: the SIMD width is not part of
    the build.  Each pass reads it from the
    :class:`~repro.core.plan.DriverTables` it runs, the same object the
    scratch was sized from, so every ``parvec`` of one stencil shares a
    single compile.  The compiled library is content-addressed and
    shared across calls; the pthread pool is per returned instance,
    created once and reused for every pass of every run of the owning
    accelerator.
    """
    if os.environ.get(DISABLE_ENV):
        return None
    key = spec_key(spec) + (flags,)
    if key not in _LIBS:
        _LIBS[key] = _compile(driver_source(spec), flags)
    lib_path = _LIBS[key]
    if lib_path is None:
        return None
    try:
        return NativeDriver(spec, workers, lib_path)
    except OSError:
        return None
