"""The generated native pass driver.

The paper's host program *generates* the OpenCL device code from the
stencil parameters (radius, dimensionality, coefficients, ``parvec``)
and compiles it offline; the FPGA then executes a fixed-function
pipeline.  This module mirrors that structure for the functional
simulator: from a :class:`~repro.core.stencil.StencilSpec` and a SIMD
width it generates one C translation unit — the fused pass driver,
with the coefficients baked in as exact float literals — compiles it
once with the system C compiler, and executes whole passes through
``ctypes`` on a persistent pthread pool.

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
in the user's temp directory, so each ``(spec, vector width, flags)``
compiles at most once per machine.
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
from repro.core.stencil import StencilSpec

#: Environment variable that disables native kernels when set to a
#: non-empty value (the pure-NumPy path is used instead).
DISABLE_ENV = "REPRO_NO_NATIVE"


def _c_literal(value: float) -> str:
    """Exact C float literal for a float32 value (hex-float, ``f`` suffix)."""
    return f"{float(np.float32(value)).hex()}f"


def _acc_chain(spec: StencilSpec, indent: str, read) -> list[str]:
    """The per-element accumulation chain, shared by every generated stage.

    ``read(axis, off)`` returns the C expression loading the neighbor at
    ``off`` along ``axis``; ``read(None, 0)`` loads the center.  Emitting
    the chain from one helper guarantees every stage of the driver — the
    buffered stages and the direct-read first stage — executes the
    identical fixed accumulation order: the bit-exactness invariant.
    """
    lines = [f"{indent}float acc = {_c_literal(spec.center)} * {read(None, 0)};"]
    for axis, off, coeff in stencil_terms(spec, spec.dims):
        lines.append(f"{indent}acc += {_c_literal(coeff)} * {read(axis, off)};")
    return lines


def _acc_lines(spec: StencilSpec, indent: str, steps: dict[int, str]) -> list[str]:
    """Accumulation chain over a single strided ``row`` pointer.

    ``steps[axis]`` is the C expression for one positive step along
    ``axis`` (e.g. ``"ps0"`` or ``"1"``).
    """

    def read(axis: int | None, off: int) -> str:
        if axis is None:
            return "row[x]"
        return f"row[x + ({off}) * {steps[axis]}]"

    return _acc_chain(spec, indent, read)


def _off_tag(off: int) -> str:
    """C-identifier-safe suffix for a signed offset (``-4`` -> ``m4``)."""
    return ("m" if off < 0 else "p") + str(abs(off))


#: Shared C prelude of the generated pass driver: the job description,
#: the persistent worker pool, and the streamed-axis halo fill (slab
#: copies, identical to :func:`repro.core.pe.fill_stream_halo`).
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
                     i64 n_grids, i64 grid_stride) {
  pool_t *p = (pool_t *)handle;
  const job_t job = {
      .src = src, .out = out, .blocks = blocks, .segs = segs, .wins = wins,
      .n_blocks = n_blocks, .steps = steps, .gs0 = gs0, .gs1 = gs1,
      .periodic = periodic, .scratch = scratch, .scratch_half = scratch_half,
      .n_grids = n_grids, .grid_stride = grid_stride};
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


def driver_source(spec: StencilSpec, vector_width: int) -> str:
    """C source of the fused pass driver for ``spec``.

    One translation unit executes an *entire pass*: for every block, the
    read kernel, all chained PE stages and the write kernel, driven from
    the flat tables of :meth:`repro.core.plan.PassPlan.to_driver_tables`.
    Stages ping-pong between two per-worker padded buffers; the
    overlapped-blocking shrink invariant (lint rule P302) guarantees
    every neighbor read at stage ``s`` lands inside stage ``s-1``'s
    window or in a clamp duplicate refreshed from it, so cells left
    stale outside the window are never read.  ``vector_width`` is the
    paper's ``parvec`` mapped onto CPU SIMD lanes (see
    :func:`vector_width_for`; 1 is the scalar case):

    * **fused read kernel**: stage 0 reads the source grid *directly*
      through per-axis index maps decoded from the gather segments —
      lint rule P304 proves the segments encode exactly the clamp/wrap
      source mapping the read kernel would materialize — so the gather
      copy and the stage-0 halo fill disappear entirely.  The window's
      x extent is decomposed once per block into pure (unit-stride)
      and impure (clamped/wrapped) runs — the map is row-invariant, so
      the decomposition is too — and pure runs take contiguous vector
      loads while impure runs vectorize through gathered loads;
    * every scratch row is padded to ``vector_width`` floats
      (``roundup(nx, VEC)``), so consecutive rows start on lane
      boundaries and the compiler keeps one steady-state vector loop
      per row instead of re-peeling at every row;
    * the inner x loops carry ``#pragma omp simd`` + ``restrict``,
      batching ``VEC`` independent per-element accumulation chains per
      instruction — lanes never reassociate *within* a chain, so the
      bits match the reference exactly (``-ffp-contract=off`` still
      forbids FMA fusion);
    * the final stage of a *full* pass streams its results straight
      into the output grid (``stage_out``, or ``stage_in`` itself when
      ``steps == 1``) instead of bouncing through the ping-pong buffer
      and re-copying: lint rule P305 proves the final window lands
      exactly on the compute region the write kernel would copy, and
      the driver re-checks that geometry per block at runtime so short
      (tail) passes — whose final window is wider — safely fall back
      to the write-kernel path.
    """
    rad = spec.radius
    rec = DRIVER_RECORD_LEN[spec.dims]
    head = [
        f"#define RAD {rad}",
        f"#define REC {rec}",
        f"#define VEC {int(vector_width)}",
        _DRIVER_PRELUDE,
    ]
    axis_offs: dict[int, list[int]] = {}
    for axis, off, _ in stencil_terms(spec, spec.dims):
        offs = axis_offs.setdefault(axis, [])
        if off not in offs:
            offs.append(off)
    z_offs = axis_offs.get(0, [])
    body: list[str] = []
    if spec.dims == 2:
        body += [
            "static void stage(const float *restrict a, float *restrict b,",
            "                  i64 s0, i64 z0, i64 z1, i64 x0, i64 x1) {",
            "  for (i64 z = z0; z < z1; ++z) {",
            "    const float *restrict row = a + z * s0;",
            "    float *restrict orow = b + z * s0;",
            "#pragma omp simd",
            "    for (i64 x = x0; x < x1; ++x) {",
        ]
        body += _acc_lines(spec, "      ", {0: "s0", 1: "1"})
        body += [
            "      orow[x] = acc;",
            "    }",
            "  }",
            "}",
            "",
            "/* Final-stage write-back fused into the output grid: the",
            " * window is the compute region (P305), so each computed lane",
            " * lands directly at its destination -- no B round-trip, no",
            " * write-kernel memcpy. */",
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
        ]
        # -- stage_in: the read kernel fused into stage 0 --------------
        setup = ["    const float *restrict rowc = src + zim[z + RAD] * gs0;"]
        vsetup = ["      const float *restrict vc = rowc + xb;"]
        for o in z_offs:
            t = _off_tag(o)
            setup.append(
                f"    const float *restrict rz_{t} = "
                f"src + zim[z + RAD + ({o})] * gs0;"
            )
            vsetup.append(f"      const float *restrict vz_{t} = rz_{t} + xb;")

        def s_read(axis: int | None, off: int) -> str:
            if axis is None:
                return "rowc[xim[x]]"
            if axis == 0:
                return f"rz_{_off_tag(off)}[xim[x]]"
            return f"rowc[xim[x + ({off})]]"

        def v_read(axis: int | None, off: int) -> str:
            if axis is None:
                return "vc[xv]"
            if axis == 0:
                return f"vz_{_off_tag(off)}[xv]"
            return f"vc[xv + ({off})]"

        body += [
            "/* Read-kernel-fused first stage: reads the source grid",
            " * directly through the per-axis index maps (the P304 gather",
            " * geometry).  `runs` decomposes the window's x extent into",
            " * pure (unit-stride vector loads) and impure (gathered",
            " * loads) runs, precomputed once per block. */",
            "static void stage_in(const float *restrict src, i64 gs0,",
            "                     float *restrict o, i64 os0,",
            "                     const i64 *restrict zim,",
            "                     const int *restrict xim,",
            "                     const i64 *restrict runs, i64 nruns,",
            "                     i64 n0, i64 x0) {",
            "  for (i64 z = 0; z < n0; ++z) {",
        ]
        body += setup
        body += [
            "    float *restrict orow = o + z * os0;",
            "    for (i64 ri = 0; ri < nruns; ++ri) {",
            "      const i64 xs = runs[3 * ri], xe = runs[3 * ri + 1];",
            "      if (!runs[3 * ri + 2]) {",
            "#pragma omp simd",
            "        for (i64 x = xs; x < xe; ++x) {",
        ]
        body += _acc_chain(spec, "          ", s_read)
        body += [
            "          orow[x - x0] = acc;",
            "        }",
            "        continue;",
            "      }",
            "      const i64 xb = (i64)xim[xs] - xs;",
        ]
        body += vsetup
        body += [
            "#pragma omp simd",
            "      for (i64 xv = xs; xv < xe; ++xv) {",
        ]
        body += _acc_chain(spec, "        ", v_read)
        body += [
            "        orow[xv - x0] = acc;",
            "      }",
            "    }",
            "  }",
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
            "  const i64 s0 = (nx + VEC - 1) / VEC * VEC;",
            "  /* read maps: footprint coordinate -> source element index",
            "   * (the gather segments encode exactly this mapping, P304) */",
            "  i64 zim[n0 + 2 * RAD];",
            "  /* int indices so impure-run gathers vectorize",
            "   * (vgatherdps needs 32-bit lanes) */",
            "  int xim[nx];",
            "  for (i64 z = 0; z < n0 + 2 * RAD; ++z) {",
            "    i64 g = z - RAD;",
            "    if (J->periodic) g = (g % n0 + n0) % n0;",
            "    else g = g < 0 ? 0 : (g >= n0 ? n0 - 1 : g);",
            "    zim[z] = g;",
            "  }",
            "  for (i64 j = 0; j < nsx; ++j) {",
            "    const i64 xd0 = segx[4 * j], xd1 = segx[4 * j + 1];",
            "    const i64 xs0 = segx[4 * j + 2], xs1 = segx[4 * j + 3];",
            "    for (i64 x = xd0; x < xd1; ++x)",
            "      xim[x] = (int)((xs1 - xs0 == 1) ? xs0 : xs0 + (x - xd0));",
            "  }",
            "  const i64 *W = J->wins + bi * J->steps * 4;",
            "  /* window-0 x extent decomposed into pure / impure runs",
            "   * (the map is row-invariant, so the decomposition is) */",
            "  const i64 rx0 = W[2], rx1 = W[3];",
            "  i64 runs[3 * (rx1 - rx0 > 0 ? rx1 - rx0 : 1)];",
            "  i64 nruns = 0;",
            "  for (i64 x = rx0; x < rx1;) {",
            "    const i64 pure =",
            "        (xim[x + RAD] - xim[x - RAD] == 2 * RAD);",
            "    i64 xe = x + 1;",
            "    while (xe < rx1 &&",
            "           (xim[xe + RAD] - xim[xe - RAD] == 2 * RAD) == pure)",
            "      ++xe;",
            "    runs[3 * nruns] = x;",
            "    runs[3 * nruns + 1] = xe;",
            "    runs[3 * nruns + 2] = pure;",
            "    ++nruns;",
            "    x = xe;",
            "  }",
            "  /* stage 0: the read kernel fused into the first PE stage */",
            "  {",
            "    const i64 x0 = W[2], x1 = W[3];",
            "    if (J->steps == 1 && W[0] == 0 && W[1] == n0",
            "        && x0 == rx && x1 == rx + cx) {",
            "      stage_in(src, J->gs0, out + wx, J->gs0,",
            "               zim, xim, runs, nruns, n0, x0);",
            "      return;",
            "    }",
            "    stage_in(src, J->gs0, A + RAD * s0 + x0, s0,",
            "             zim, xim, runs, nruns, n0, x0);",
            "    if (J->steps > 1 && !J->periodic && (dlx | dhx))",
            "      refresh_dups(A, s0, n0, nx, dlx, dhx);",
            "  }",
            "  W += 4;",
            "  /* stages 1..: ping-pong A -> B; final stage fused when the",
            "   * window proves it covers exactly the compute region */",
            "  for (i64 s = 1; s < J->steps; ++s, W += 4) {",
            "    fill_halo(A, n0, s0, J->periodic);",
            "    const i64 x0 = W[2], x1 = W[3];",
            "    if (s + 1 == J->steps && W[0] == 0 && W[1] == n0",
            "        && x0 == rx && x1 == rx + cx) {",
            "      stage_out(A, out + wx, s0, J->gs0,",
            "                RAD, RAD + n0, x0, x1);",
            "      return;",
            "    }",
            "    stage(A, B, s0, W[0] + RAD, W[1] + RAD, x0, x1);",
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
        y_offs = axis_offs.get(1, [])
        body += [
            "static void stage(const float *restrict a, float *restrict b,",
            "                  i64 s0, i64 s1, i64 z0, i64 z1,",
            "                  i64 y0, i64 y1, i64 x0, i64 x1) {",
            "  for (i64 z = z0; z < z1; ++z) {",
            "    for (i64 y = y0; y < y1; ++y) {",
            "      const float *restrict row = a + z * s0 + y * s1;",
            "      float *restrict orow = b + z * s0 + y * s1;",
            "#pragma omp simd",
            "      for (i64 x = x0; x < x1; ++x) {",
        ]
        body += _acc_lines(spec, "        ", {0: "s0", 1: "s1", 2: "1"})
        body += [
            "        orow[x] = acc;",
            "      }",
            "    }",
            "  }",
            "}",
            "",
            "/* Final-stage write-back fused into the output grid: the",
            " * window is the compute region (P305), so each computed lane",
            " * lands directly at its destination -- no B round-trip, no",
            " * write-kernel memcpy. */",
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
        ]
        # -- stage_in: the read kernel fused into stage 0 --------------
        setup = [
            "      const float *restrict rowc = src"
            " + zim[z + RAD] * gs0 + yoff[y];"
        ]
        vsetup = ["        const float *restrict vc = rowc + xb;"]
        for o in z_offs:
            t = _off_tag(o)
            setup.append(
                f"      const float *restrict rz_{t} = "
                f"src + zim[z + RAD + ({o})] * gs0 + yoff[y];"
            )
            vsetup.append(
                f"        const float *restrict vz_{t} = rz_{t} + xb;"
            )
        for o in y_offs:
            t = _off_tag(o)
            setup.append(
                f"      const float *restrict ry_{t} = "
                f"src + zim[z + RAD] * gs0 + yoff[y + ({o})];"
            )
            vsetup.append(
                f"        const float *restrict vy_{t} = ry_{t} + xb;"
            )

        def s_read(axis: int | None, off: int) -> str:
            if axis is None:
                return "rowc[xim[x]]"
            if axis == 0:
                return f"rz_{_off_tag(off)}[xim[x]]"
            if axis == 1:
                return f"ry_{_off_tag(off)}[xim[x]]"
            return f"rowc[xim[x + ({off})]]"

        def v_read(axis: int | None, off: int) -> str:
            if axis is None:
                return "vc[xv]"
            if axis == 0:
                return f"vz_{_off_tag(off)}[xv]"
            if axis == 1:
                return f"vy_{_off_tag(off)}[xv]"
            return f"vc[xv + ({off})]"

        body += [
            "/* Read-kernel-fused first stage: reads the source grid",
            " * directly through the per-axis index maps (the P304 gather",
            " * geometry).  `runs` decomposes the window's x extent into",
            " * pure (unit-stride vector loads) and impure (gathered",
            " * loads) runs, precomputed once per block. */",
            "static void stage_in(const float *restrict src,",
            "                     i64 gs0, i64 gs1,",
            "                     float *restrict o, i64 os0, i64 os1,",
            "                     const i64 *restrict zim,",
            "                     const i64 *restrict yoff,",
            "                     const int *restrict xim,",
            "                     const i64 *restrict runs, i64 nruns,",
            "                     i64 n0, i64 y0, i64 y1, i64 x0) {",
            "  for (i64 z = 0; z < n0; ++z) {",
            "    for (i64 y = y0; y < y1; ++y) {",
        ]
        body += setup
        body += [
            "      float *restrict orow = o + z * os0 + (y - y0) * os1;",
            "      for (i64 ri = 0; ri < nruns; ++ri) {",
            "        const i64 xs = runs[3 * ri], xe = runs[3 * ri + 1];",
            "        if (!runs[3 * ri + 2]) {",
            "#pragma omp simd",
            "          for (i64 x = xs; x < xe; ++x) {",
        ]
        body += _acc_chain(spec, "            ", s_read)
        body += [
            "            orow[x - x0] = acc;",
            "          }",
            "          continue;",
            "        }",
            "        const i64 xb = (i64)xim[xs] - xs;",
        ]
        body += vsetup
        body += [
            "#pragma omp simd",
            "        for (i64 xv = xs; xv < xe; ++xv) {",
        ]
        body += _acc_chain(spec, "          ", v_read)
        body += [
            "          orow[xv - x0] = acc;",
            "        }",
            "      }",
            "    }",
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
            "  const i64 s1 = (nx + VEC - 1) / VEC * VEC;",
            "  const i64 s0 = ny * s1;",
            "  /* read maps: footprint coordinate -> source element index",
            "   * (the gather segments encode exactly this mapping, P304) */",
            "  i64 zim[n0 + 2 * RAD];",
            "  i64 yoff[ny];",
            "  /* int indices so impure-run gathers vectorize",
            "   * (vgatherdps needs 32-bit lanes) */",
            "  int xim[nx];",
            "  for (i64 z = 0; z < n0 + 2 * RAD; ++z) {",
            "    i64 g = z - RAD;",
            "    if (J->periodic) g = (g % n0 + n0) % n0;",
            "    else g = g < 0 ? 0 : (g >= n0 ? n0 - 1 : g);",
            "    zim[z] = g;",
            "  }",
            "  for (i64 j = 0; j < nsy; ++j) {",
            "    const i64 yd0 = segy[4 * j], yd1 = segy[4 * j + 1];",
            "    const i64 ys0 = segy[4 * j + 2], ys1 = segy[4 * j + 3];",
            "    for (i64 y = yd0; y < yd1; ++y)",
            "      yoff[y] = J->gs1 *",
            "          ((ys1 - ys0 == 1) ? ys0 : ys0 + (y - yd0));",
            "  }",
            "  for (i64 j = 0; j < nsx; ++j) {",
            "    const i64 xd0 = segx[4 * j], xd1 = segx[4 * j + 1];",
            "    const i64 xs0 = segx[4 * j + 2], xs1 = segx[4 * j + 3];",
            "    for (i64 x = xd0; x < xd1; ++x)",
            "      xim[x] = (int)((xs1 - xs0 == 1) ? xs0 : xs0 + (x - xd0));",
            "  }",
            "  const i64 *W = J->wins + bi * J->steps * 6;",
            "  /* window-0 x extent decomposed into pure / impure runs",
            "   * (the map is row-invariant, so the decomposition is) */",
            "  const i64 rx0 = W[4], rx1 = W[5];",
            "  i64 runs[3 * (rx1 - rx0 > 0 ? rx1 - rx0 : 1)];",
            "  i64 nruns = 0;",
            "  for (i64 x = rx0; x < rx1;) {",
            "    const i64 pure =",
            "        (xim[x + RAD] - xim[x - RAD] == 2 * RAD);",
            "    i64 xe = x + 1;",
            "    while (xe < rx1 &&",
            "           (xim[xe + RAD] - xim[xe - RAD] == 2 * RAD) == pure)",
            "      ++xe;",
            "    runs[3 * nruns] = x;",
            "    runs[3 * nruns + 1] = xe;",
            "    runs[3 * nruns + 2] = pure;",
            "    ++nruns;",
            "    x = xe;",
            "  }",
            "  /* stage 0: the read kernel fused into the first PE stage */",
            "  {",
            "    const i64 y0 = W[2], y1 = W[3], x0 = W[4], x1 = W[5];",
            "    if (J->steps == 1 && W[0] == 0 && W[1] == n0",
            "        && y0 == ry && y1 == ry + cy",
            "        && x0 == rx && x1 == rx + cx) {",
            "      stage_in(src, J->gs0, J->gs1,",
            "               out + wy * J->gs1 + wx, J->gs0, J->gs1,",
            "               zim, yoff, xim, runs, nruns,",
            "               n0, y0, y1, x0);",
            "      return;",
            "    }",
            "    stage_in(src, J->gs0, J->gs1,",
            "             A + RAD * s0 + y0 * s1 + x0, s0, s1,",
            "             zim, yoff, xim, runs, nruns,",
            "             n0, y0, y1, x0);",
            "    if (J->steps > 1 && !J->periodic",
            "        && (dly | dhy | dlx | dhx))",
            "      refresh_dups(A, s0, s1, n0, ny, nx, dly, dhy, dlx, dhx);",
            "  }",
            "  W += 6;",
            "  /* stages 1..: ping-pong A -> B; final stage fused when the",
            "   * window proves it covers exactly the compute region */",
            "  for (i64 s = 1; s < J->steps; ++s, W += 6) {",
            "    fill_halo(A, n0, s0, J->periodic);",
            "    const i64 y0 = W[2], y1 = W[3], x0 = W[4], x1 = W[5];",
            "    if (s + 1 == J->steps && W[0] == 0 && W[1] == n0",
            "        && y0 == ry && y1 == ry + cy",
            "        && x0 == rx && x1 == rx + cx) {",
            "      stage_out(A, out + wy * J->gs1 + wx, s0, s1,",
            "                J->gs0, J->gs1, RAD, RAD + n0,",
            "                y0, y1, x0, x1);",
            "      return;",
            "    }",
            "    stage(A, B, s0, s1, W[0] + RAD, W[1] + RAD, y0, y1, x0, x1);",
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
    runs the same source at ``VEC=1``.
    """
    return parvec & -parvec


#: Compiler flags of the shipped driver.  ``-fopenmp-simd`` honors the
#: ``omp simd`` pragmas without linking an OpenMP runtime, and unrolling
#: lets independent accumulation chains overlap; neither reassociates
#: within a chain, so the bits are unaffected.
VECTOR_FLAGS = ("-fopenmp-simd", "-funroll-loops")

#: Flags of the scalar SIMD baseline (engine ``"native-scalar"``): the
#: same source at ``VEC=1`` with every vectorizer off.  Dropping only
#: ``-ftree-vectorize`` is not enough — the ``omp simd`` loops would
#: still vectorize under ``-fopenmp-simd``.
SCALAR_FLAGS = (
    "-funroll-loops", "-fno-tree-vectorize", "-fno-tree-slp-vectorize",
)


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
    passes, plus the calling thread acting as worker 0.  Each
    :meth:`run_pass` call executes an *entire pass* — every block's
    gather, all chained PE stages and the write-back — inside native
    code, with blocks claimed off one atomic counter (work-stealing).
    A pass with a single ``(grid, block)`` unit, or any pass of a
    one-worker pool, runs inline on the calling thread and never
    touches the pool's mutex or condition variables.
    The handle is not reentrant: one pass at a time per driver, which is
    exactly the accelerator's pass loop.  Freed via ``weakref.finalize``
    (or an explicit :meth:`close`), so pools never leak across runs.
    """

    def __init__(
        self,
        spec: StencilSpec,
        workers: int,
        lib_path: str,
        vector_width: int,
    ):
        self.spec = spec
        self.workers = max(1, int(workers))
        self.lib_path = lib_path
        #: SIMD lane count the compiled ``do_block`` pads rows to.
        self.vector_width = max(1, int(vector_width))
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
            ctypes.c_longlong,  # n_grids (batched grids; 1 for a plain pass)
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

        ``src``/``out`` must be distinct C-contiguous float32 grids of
        the plan's shape; ``scratch`` a C-contiguous float32 array with
        at least ``workers * 2 * tables.scratch_floats`` elements.  The
        ctypes call releases the GIL for the whole pass.
        """
        self._dispatch(src, out, tables, periodic, scratch, 1, 0)

    def run_batch_pass(
        self,
        src: np.ndarray,
        out: np.ndarray,
        tables: DriverTables,
        periodic: bool,
        scratch: np.ndarray,
        n_grids: int,
        grid_stride: int,
    ) -> None:
        """Execute one pass over ``n_grids`` grids packed in one slab.

        ``src``/``out`` are distinct C-contiguous float32 slabs of shape
        ``(n_grids,) + grid_shape``; consecutive grids sit
        ``grid_stride`` floats apart.  The pool's atomic claim counter
        ranges over ``(grid, block)`` pairs, so one ctypes call (and one
        scratch allocation) services the entire batch while every worker
        stays busy even when a single grid has fewer blocks than
        workers.  Bit-exact versus ``n_grids`` separate :meth:`run_pass`
        calls by construction: the same ``do_block`` body runs per
        ``(grid, block)`` unit, and writes to distinct grids never
        alias.
        """
        self._dispatch(src, out, tables, periodic, scratch,
                       int(n_grids), int(grid_stride))

    def _dispatch(
        self,
        src: np.ndarray,
        out: np.ndarray,
        tables: DriverTables,
        periodic: bool,
        scratch: np.ndarray,
        n_grids: int,
        grid_stride: int,
    ) -> None:
        itemsize = src.itemsize
        # Per-grid strides: for a slab, axis 0 of the slab is the grid
        # index, so the plan axes start at ndim - dims.
        base = src.ndim - self.spec.dims
        gs0 = src.strides[base] // itemsize
        gs1 = src.strides[base + 1] // itemsize if self.spec.dims == 3 else 0
        self._lib.driver_run_pass(
            self._handle,
            src.ctypes.data,
            out.ctypes.data,
            tables.blocks.ctypes.data,
            tables.blocks.shape[0],
            tables.segments.ctypes.data,
            tables.windows.ctypes.data,
            tables.steps,
            gs0,
            gs1,
            1 if periodic else 0,
            scratch.ctypes.data,
            tables.scratch_floats,
            n_grids,
            grid_stride,
        )


#: Compiled driver library path per ``(stencil key, vector width,
#: flags)``; ``None`` caches failures.  Pool handles are *not* shared —
#: each accelerator gets its own :class:`NativeDriver` so concurrent
#: runs never contend for a job slot.
_LIBS: dict[tuple, str | None] = {}


def native_driver(
    spec: StencilSpec,
    workers: int,
    vector_width: int,
    flags: tuple[str, ...] = VECTOR_FLAGS,
) -> NativeDriver | None:
    """A fresh pass driver (own pool) for ``spec``, or ``None``.

    ``vector_width`` is the SIMD lane count rows are padded to; it must
    match the ``vector_width`` the accelerator passes to
    :meth:`PassPlan.to_driver_tables` so the Python-side scratch sizing
    covers the padded rows the C code derives per block.  The compiled
    library is content-addressed and shared across calls; the pthread
    pool is per returned instance, created once and reused for every
    pass of every run of the owning accelerator.
    """
    if os.environ.get(DISABLE_ENV):
        return None
    key = (
        spec.dims,
        spec.radius,
        float(np.float32(spec.center)),
        spec.coefficients.tobytes(),
        vector_width,
        flags,
    )
    if key not in _LIBS:
        _LIBS[key] = _compile(driver_source(spec, vector_width), flags)
    lib_path = _LIBS[key]
    if lib_path is None:
        return None
    try:
        return NativeDriver(spec, workers, lib_path, vector_width)
    except OSError:
        return None
