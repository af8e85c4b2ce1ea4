"""Wave-equation (leapfrog) performance projection — extension.

The paper's motivating applications are wave-propagation codes, which
leapfrog *two* time levels.  Relative to the single-field stencil of
Table III, a leapfrog PE needs two eq.-7 shift registers (BRAM doubles
per PE) and the memory system carries two fields each way.  This
experiment re-runs the §V.A reasoning under those costs: per radius it
takes the paper's 3D configuration, halves ``partime`` until the doubled
registers fit, and evaluates the performance model with doubled traffic
(``field_count=2``) — quantifying what the paper's design would deliver
on its own motivating workload.
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.core.blocking import BlockingConfig
from repro.core.shift_register import shift_register_words
from repro.core.stencil import StencilSpec
from repro.experiments.base import ExperimentResult
from repro.experiments.table3 import paper_config
from repro.fpga.board import NALLATECH_385A
from repro.models.area import bram_overhead_factor
from repro.models.fmax import FmaxModel
from repro.models.performance import PerformanceModel

ITERATIONS = 1000


def leapfrog_flops_per_cell(dims: int, radius: int) -> int:
    """FLOPs of one leapfrog cell update,
    ``u' = 2u - u_prev + c^2 * Lap_2r(u)``: the Laplacian (shared axis
    weights: one FMUL per distance + center, ``2*dims*radius`` FADDs),
    the ``c^2`` scale, and the ``2u - u_prev +`` combination."""
    lap = (radius + 1) + 2 * dims * radius
    return lap + 1 + 3  # * c2, (2u), (-u_prev), (+lap)


def wave_config(dims: int, radius: int) -> BlockingConfig:
    """The paper's config with partime reduced until 2x registers fit."""
    config, _ = paper_config(dims, radius)
    device = NALLATECH_385A.device
    while True:
        words = 2 * shift_register_words(config) * config.partime
        bits = 32 * words * bram_overhead_factor(dims, radius)
        if bits <= device.bram_bits or config.partime == 1:
            return config
        config = BlockingConfig(
            dims=dims,
            radius=radius,
            bsize_x=config.bsize_x,
            bsize_y=config.bsize_y,
            parvec=config.parvec,
            partime=max(1, config.partime // 2),
        )


def run(dims: int = 3) -> ExperimentResult:
    model = PerformanceModel(NALLATECH_385A)
    rows = []
    data: dict = {}
    for radius in (1, 2, 3, 4):
        stencil_spec = StencilSpec.star(dims, radius)
        base_config, shape = paper_config(dims, radius)
        wcfg = wave_config(dims, radius)
        fmax = FmaxModel().fmax_mhz(dims, radius)
        single = model.predict_measured(
            stencil_spec, base_config, shape, ITERATIONS, fmax
        )
        wave = model.predict_measured(
            stencil_spec, wcfg, shape, ITERATIONS, fmax, field_count=2
        )
        wave_gflops = wave.gcell_s * leapfrog_flops_per_cell(dims, radius)
        rows.append(
            [
                radius,
                base_config.partime,
                wcfg.partime,
                f"{single.gcell_s:.2f}",
                f"{wave.gcell_s:.2f}",
                f"{wave_gflops:.0f}",
                "yes" if wave.compute_bound else "no",
            ]
        )
        data[radius] = dict(
            single=single,
            wave=wave,
            wave_gflops=wave_gflops,
            config=wcfg,
            partime_ratio=base_config.partime / wcfg.partime,
        )
    text = render_table(
        ["rad", "stencil partime", "wave partime", "stencil GC/s",
         "wave GC/s", "wave GFLOP/s", "compute-bound"],
        rows,
        title=f"{dims}D leapfrog wave projection on the 385A "
        "(2 fields, 2x registers/PE)",
    )
    note = (
        "\nLeapfrog halves the affordable temporal parallelism (doubled "
        "eq.-7 registers) and doubles traffic; cell rate drops accordingly "
        "— the multi-field cost the paper's §II attributes to high-order "
        "scientific stencils."
    )
    return ExperimentResult(
        "wave-performance", "Leapfrog wave projection", text + note, [], data
    )
