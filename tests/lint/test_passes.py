"""Per-pass behavior: clean targets stay quiet; plan lint never executes."""

from __future__ import annotations

import pytest

from repro.core.blocking import BlockingConfig
from repro.core.plan import PassPlan
from repro.lint import lint_config, lint_equation, lint_plan, lint_source
from repro.lint.targets import (
    paper_equation,
    shipped_config_points,
    shipped_equations,
    shipped_plans,
)


# ---------------------------------------------------------------------- #
# shipped targets are clean
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("equation", shipped_equations(),
                         ids=lambda e: f"{e.target.dims}d")
def test_shipped_equations_clean(equation):
    assert lint_equation(equation) == []


@pytest.mark.parametrize("point", shipped_config_points(),
                         ids=lambda p: p.label)
def test_shipped_configs_clean(point):
    assert lint_config(point) == []


def test_shipped_plans_clean():
    for plan in shipped_plans():
        assert lint_plan(plan) == []


def test_paper_equation_lowers_to_identical_spec():
    import numpy as np

    from repro.core.stencil import StencilSpec

    for dims in (2, 3):
        for radius in (1, 2):
            eq = paper_equation(dims, radius)
            spec = eq.to_stencil_spec()
            ref = StencilSpec.star(dims, radius)
            assert spec.dims == ref.dims and spec.radius == ref.radius
            assert np.float32(spec.center) == np.float32(ref.center)
            assert np.array_equal(spec.coefficients, ref.coefficients)


# ---------------------------------------------------------------------- #
# plan lint proves invariants without executing a single stencil pass
# ---------------------------------------------------------------------- #

def test_plan_lint_never_executes(monkeypatch):
    """The no-execution guard: every execution entry point is booby-trapped."""
    import repro.core.accelerator as accelerator
    import repro.core.pe as pe

    def boom(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("plan lint executed a stencil pass")

    monkeypatch.setattr(pe, "pe_step_padded", boom)
    monkeypatch.setattr(accelerator.FPGAAccelerator, "_run_pass", boom)
    monkeypatch.setattr(accelerator.FPGAAccelerator, "_exec_blocks", boom)
    monkeypatch.setattr(accelerator.FPGAAccelerator, "run", boom)

    for boundary in ("clamp", "periodic"):
        plan = PassPlan(
            BlockingConfig(dims=2, radius=2, bsize_x=48, partime=3),
            (40, 40),
            boundary,
        )
        assert lint_plan(plan) == []
    # A 3D shipped geometry too (clamp, paper shape).
    plan3 = next(p for p in shipped_plans() if p.config.dims == 3)
    assert lint_plan(plan3) == []


# ---------------------------------------------------------------------- #
# purity pass accepts every guard idiom the codebase uses
# ---------------------------------------------------------------------- #

GUARD_OK = [
    # plain body guard
    "def f():\n    inj = fault_hooks.ACTIVE\n"
    "    if inj is not None:\n        inj.hook()\n",
    # BoolOp guard inside the same test
    "def f(c):\n    inj = fault_hooks.ACTIVE\n"
    "    if inj is not None and inj.stall(c):\n        return 1\n",
    # IfExp, both polarities
    "def f(d):\n    inj = fault_hooks.ACTIVE\n"
    "    return d if inj is None else inj.on_transfer('w', d)\n",
    "def f():\n    inj = fault_hooks.ACTIVE\n"
    "    return len(inj.detections) if inj is not None else 0\n",
    # early-exit disarm
    "def f():\n    inj = fault_hooks.ACTIVE\n"
    "    if inj is None:\n        return\n    inj.hook()\n",
    # passing inj onward inside a guard
    "def f(g):\n    inj = fault_hooks.ACTIVE\n"
    "    if inj is not None:\n        g(1, inj)\n",
    # comparisons alone are always fine
    "def f():\n    return fault_hooks.ACTIVE is not None\n",
    # a parameter named inj is trusted (guarded at the call site)
    "def g(inj):\n    inj.touch_sram(None, site='x')\n",
    # H404: integrity checks skipped only where no fault can enter
    "def f(d):\n    inj = fault_hooks.ACTIVE\n"
    "    return crc32_array(d) if inj is not None else None\n",
    "def f(d, expected_crc):\n"
    "    if expected_crc is None and fault_hooks.ACTIVE is None:\n"
    "        return\n    return crc32_array(d)\n",
    "def f(outs, expected_crcs):\n    for g, o in enumerate(outs):\n"
    "        if expected_crcs[g] is None or o is None:\n            continue\n"
    "        crc32_array(o)\n",
    "def f(d):\n    inj = fault_hooks.ACTIVE\n"
    "    if inj is not None and crc32_array(d) != 0:\n        return 1\n",
    # a cache fill and an absent argument skip nothing
    "def f(self):\n    if self._crc is None and self._data is not None:\n"
    "        self._crc = crc32_array(self._data)\n",
    "def f(self):\n    if self._data is None:\n        return False\n"
    "    return crc32_array(self._data) == self._crc\n",
    # a raise fails loudly, it does not skip
    "def f(self, buf, d):\n    if d.nbytes != buf.nbytes:\n"
    "        raise ValueError(d)\n    self._host_mirror[buf] = d\n",
    # H405: uncopied hand-overs bound only while disarmed
    "def w(buf, a):\n    inj = fault_hooks.ACTIVE\n"
    "    g = a[0] if len(a) == 1 else a\n"
    "    if inj is None and g.flags.c_contiguous:\n"
    "        d = g if g is a else g[None]\n"
    "    else:\n        d = a.copy()\n    buf.adopt(d)\n",
    "def r(buf):\n    inj = fault_hooks.ACTIVE\n"
    "    if inj is None:\n        return buf.share()\n"
    "    return buf.data.copy()\n",
    "def r(buf):\n    if fault_hooks.ACTIVE is not None:\n"
    "        return buf.data.copy()\n    return buf.data\n",
    # fresh storage and copies are not hand-overs
    "def k(dst, n):\n    out = np.empty(n)\n    dst.adopt(out[0])\n",
    "def w(self, a):\n    self.adopt(np.array(a))\n",
]


@pytest.mark.parametrize("source", GUARD_OK, ids=range(len(GUARD_OK)))
def test_purity_accepts_real_guard_idioms(source):
    prefixed = "import repro.faults.hooks as fault_hooks\n" + source
    assert lint_source(prefixed, "snippet.py") == []


def test_purity_clean_on_own_source_tree():
    from repro.lint.purity import lint_tree
    from repro.lint.targets import source_root

    assert lint_tree(source_root()) == []


def test_purity_scan_reaches_runtime_and_analysis():
    """The tree walk covers the scheduler, serving and campaign layers."""
    from repro.lint.targets import source_root

    root = source_root()
    scanned = {str(p.relative_to(root)) for p in root.rglob("*.py")}
    for expected in (
        "runtime/service.py",
        "runtime/scheduler.py",
        "analysis/resilience.py",
    ):
        assert expected in scanned


def test_purity_catches_violations_under_runtime_and_analysis(tmp_path):
    """A seeded mutant in either subpackage trips the tree scan."""
    from repro.lint.purity import lint_tree

    for sub, source in (
        ("runtime", "import numpy as np\n"
                    "def f():\n    return np.random.default_rng()\n"),
        ("analysis", "def f(a, cache):\n    cache[id(a)] = a\n"),
    ):
        pkg = tmp_path / sub
        pkg.mkdir()
        (pkg / "hot.py").write_text(source)
    findings = lint_tree(tmp_path)
    assert {f.rule for f in findings} == {"H403", "H402"}
    loci = {f.locus.rsplit(":", 1)[0] for f in findings}
    assert any("runtime" in locus for locus in loci)
    assert any("analysis" in locus for locus in loci)


# -- batch slab layout (P307) ------------------------------------------------ #


def test_clean_batch_plans_lint_empty():
    from repro.core.batch import BatchPlan
    from repro.lint import lint_batch_plan

    cfg = BlockingConfig(dims=2, radius=1, bsize_x=32, parvec=4, partime=4)
    for n_grids in (1, 4, 17):
        for boundary in ("clamp", "periodic"):
            bplan = BatchPlan(cfg, (64, 64), n_grids, boundary)
            assert lint_batch_plan(bplan) == []


def test_batch_lint_includes_per_grid_plan_findings():
    """lint_batch_plan is a superset of lint_plan on the shared plan."""
    from repro.core.batch import BatchPlan
    from repro.lint import lint_batch_plan, lint_plan

    cfg = BlockingConfig(dims=2, radius=1, bsize_x=32, parvec=4, partime=4)
    bplan = BatchPlan(cfg, (64, 64), 4)
    plan_rules = {f.rule for f in lint_plan(bplan.plan)}
    batch_rules = {f.rule for f in lint_batch_plan(bplan)}
    assert plan_rules <= batch_rules
