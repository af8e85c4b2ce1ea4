"""Ahead-of-run static verifier (``repro.lint``).

Five analysis passes prove, before any simulation or hardware build:

* **kernel** — DSL equations are star-shaped, in-catalog, duplicate-free
  and float32-exact (:mod:`repro.lint.kernel`, rules ``K1xx``);
* **config** — parameter points construct, fit the device and avoid the
  paper's performance cliffs (:mod:`repro.lint.config_pass`, ``C2xx``);
* **plan** — :class:`repro.core.plan.PassPlan` geometry satisfies the
  overlapped-blocking invariants without executing a pass
  (:mod:`repro.lint.plan_pass`, ``P3xx``);
* **purity** — the repo's own hot paths keep fault hooks guarded,
  avoid ``id()`` keys and unseeded RNGs (:mod:`repro.lint.purity`,
  ``H4xx``);
* **concurrency** — the runtime's threading is deadlock-ordered,
  lock-guarded fields stay guarded, condvars follow the while/notify
  discipline, threads are joined on close, and the generated C
  driver's pthread pool keeps its atomic-claim/park-unpark protocol
  (:mod:`repro.lint.concurrency`, ``T5xx``).

Run ``python -m repro.lint`` for the shipped-target gate, or use the
per-pass functions programmatically.
"""

from repro.lint.concurrency import (
    build_lock_graph,
    find_lock_cycle,
    lint_concurrency_source,
    lint_concurrency_tree,
    lint_driver_concurrency,
)
from repro.lint.config_pass import ConfigPoint, lint_config, lint_configs
from repro.lint.findings import (
    RULES,
    Finding,
    LintReport,
    Rule,
    Severity,
    render_rule_catalog,
)
from repro.lint.kernel import CATALOG_MAX_RADIUS, lint_equation, lint_equations
from repro.lint.plan_pass import lint_batch_plan, lint_plan
from repro.lint.purity import lint_driver_source, lint_source, lint_tree

__all__ = [
    "CATALOG_MAX_RADIUS",
    "ConfigPoint",
    "Finding",
    "LintReport",
    "RULES",
    "Rule",
    "Severity",
    "build_lock_graph",
    "find_lock_cycle",
    "lint_concurrency_source",
    "lint_concurrency_tree",
    "lint_config",
    "lint_configs",
    "lint_driver_concurrency",
    "lint_driver_source",
    "lint_equation",
    "lint_equations",
    "lint_batch_plan",
    "lint_plan",
    "lint_source",
    "lint_tree",
    "render_rule_catalog",
]
