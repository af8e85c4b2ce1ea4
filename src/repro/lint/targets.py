"""The repository's shipped lint targets.

``python -m repro.lint`` verifies everything the repo itself ships:

* the eight paper kernels (Table I rows) rebuilt as DSL equations from
  the canonical :meth:`repro.core.stencil.StencilSpec.star`
  coefficients — kernel pass;
* the eight Table III configurations with their paper input shapes —
  config pass;
* the :class:`repro.core.plan.PassPlan` of each configuration at its
  paper shape (clamp, plus one periodic representative) — plan pass;
* every module under ``src/repro`` — hot-path purity pass.

The acceptance bar is zero findings: anything these targets trip is a
regression in the repo, not in user input.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.paper_data import PAPER_TABLE_III
from repro.core.native import driver_source, vector_width_for
from repro.core.plan import PassPlan
from repro.core.sharding import ShardPlan
from repro.core.stencil import StencilSpec
from repro.dsl.ast import Equation, Expr, Grid
from repro.lint.config_pass import ConfigPoint

#: Direction row index -> (offset axis from the end, sign), mirroring
#: repro.core.stencil.Direction and the dsl lowering's axis map.
_DIR_TO_AXIS_SIGN = {
    0: (-1, -1), 1: (-1, +1),  # x: WEST, EAST
    2: (-2, -1), 3: (-2, +1),  # y: SOUTH, NORTH
    4: (-3, -1), 5: (-3, +1),  # z: BELOW, ABOVE
}


def paper_equation(dims: int, radius: int) -> Equation:
    """The canonical star kernel as a DSL equation.

    Coefficients come from :meth:`StencilSpec.star`, which stores them
    as float32 — so every literal round-trips (rule K105 stays quiet)
    and the equation lowers back to a spec numerically identical to the
    one the simulator runs.
    """
    spec = StencilSpec.star(dims, radius)
    u = Grid("u", dims=dims)
    rhs: Expr = float(spec.center) * u(*([0] * dims))
    for direction in range(2 * dims):
        axis_from_end, sign = _DIR_TO_AXIS_SIGN[direction]
        axis = dims + axis_from_end
        for dist in range(1, radius + 1):
            offsets = [0] * dims
            offsets[axis] = sign * dist
            coeff = float(spec.coefficients[direction, dist - 1])
            rhs = rhs + coeff * u(*offsets)
    return Equation(target=u, rhs=rhs)


def shipped_equations() -> list[Equation]:
    """Kernel-pass targets: the eight Table I kernels."""
    return [paper_equation(dims, radius) for dims, radius in sorted(PAPER_TABLE_III)]


def shipped_config_points() -> list[ConfigPoint]:
    """Config-pass targets: the eight Table III rows, paper shapes."""
    points: list[ConfigPoint] = []
    for (dims, radius), row in sorted(PAPER_TABLE_III.items()):
        bsize_y, bsize_x = row["bsize"]
        points.append(
            ConfigPoint(
                dims=dims,
                radius=radius,
                bsize_x=bsize_x,
                bsize_y=bsize_y,
                parvec=row["parvec"],
                partime=row["partime"],
                grid_shape=tuple(row["shape"]),
                label=f"table3-{dims}d-rad{radius}",
            )
        )
    return points


def shipped_plans() -> list[PassPlan]:
    """Plan-pass targets: each Table III geometry under clamp, plus one
    periodic representative (the boundary modes differ structurally)."""
    plans: list[PassPlan] = []
    for point in shipped_config_points():
        config = point.to_blocking_config()
        assert point.grid_shape is not None
        plans.append(PassPlan(config, point.grid_shape, "clamp"))
        if (config.dims, config.radius) == (2, 1):
            plans.append(PassPlan(config, point.grid_shape, "periodic"))
    return plans


def shipped_shard_plans() -> list["ShardPlan"]:
    """Plan-pass targets: shard decompositions of the Table III rows.

    Each paper geometry is split 2 and 4 ways under clamp, plus one
    periodic representative per dimensionality (the wrap edge is the
    structurally distinct case).  Pure geometry — nothing executes.
    """
    plans: list[ShardPlan] = []
    for point in shipped_config_points():
        config = point.to_blocking_config()
        assert point.grid_shape is not None
        for shards in (2, 4):
            plans.append(ShardPlan(config, point.grid_shape, "clamp", shards))
        if (config.dims, config.radius) in ((2, 1), (3, 1)):
            plans.append(ShardPlan(config, point.grid_shape, "periodic", 3))
    return plans


def shipped_driver_sources() -> list[tuple[str, str]]:
    """Purity-pass targets: the generated pass-driver C per Table III row.

    Each driver is generated at the SIMD width its row's ``parvec`` runs
    at — exactly the source the ``auto`` engine compiles for that
    configuration.  Pure codegen — no compiler is needed, so the scan
    runs everywhere CI does.  Names mirror the kernel and width.
    """
    sources = []
    for (dims, radius), row in sorted(PAPER_TABLE_III.items()):
        vec = vector_width_for(row["parvec"])
        sources.append((
            f"driver<{dims}d-rad{radius}-vec{vec}>.c",
            driver_source(StencilSpec.star(dims, radius), vec),
        ))
    return sources


def source_root() -> Path:
    """Purity-pass target: the ``src/repro`` package directory."""
    return Path(__file__).resolve().parent.parent
