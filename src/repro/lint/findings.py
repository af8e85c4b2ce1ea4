"""Diagnostic framework of the :mod:`repro.lint` static verifier.

A lint run produces :class:`Finding` records — each tied to a rule in
the :data:`RULES` catalog (stable id, severity, one-line title), with a
*locus* (source ``file:line``, a config description, or an equation
name), a message and an optional fix hint.  :class:`LintReport`
aggregates findings across passes and renders them as text or JSON.

Rule ids are grouped by analysis pass:

* ``K1xx`` — kernel pass (:mod:`repro.lint.kernel`) over DSL equations;
* ``C2xx`` — config pass (:mod:`repro.lint.config_pass`) over raw
  ``(bsize, parvec, partime, rad, grid_shape)`` points;
* ``P3xx`` — plan pass (:mod:`repro.lint.plan_pass`) over compiled
  :class:`repro.core.plan.PassPlan` geometry;
* ``H4xx`` — hot-path purity pass (:mod:`repro.lint.purity`) over the
  repository's own source;
* ``T5xx`` — concurrency pass (:mod:`repro.lint.concurrency`) over the
  runtime/core/faults threading surfaces and the generated C driver's
  pthread pool protocol.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a finding is: errors gate, warnings advise."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Rule:
    """One catalog entry: stable id, fixed severity, short title."""

    rule_id: str
    severity: Severity
    pass_name: str
    title: str


def _catalog(entries: list[tuple[str, Severity, str, str]]) -> dict[str, Rule]:
    return {rid: Rule(rid, sev, pname, title) for rid, sev, pname, title in entries}


#: The rule catalog.  Ids are stable across releases; tests and CI key
#: on them, so retire ids rather than repurposing them.
RULES: dict[str, Rule] = _catalog([
    # ---- kernel pass -------------------------------------------------- #
    ("K101", Severity.ERROR, "kernel",
     "non-star access: an offset touches more than one axis"),
    ("K102", Severity.WARNING, "kernel",
     "stencil radius exceeds the hardware catalog's measured range"),
    ("K103", Severity.WARNING, "kernel",
     "syntactically identical access appears more than once"),
    ("K104", Severity.WARNING, "kernel",
     "access has a zero net coefficient (dead read)"),
    ("K105", Severity.WARNING, "kernel",
     "float literal does not round-trip float32 (bit-exactness hazard)"),
    ("K106", Severity.ERROR, "kernel",
     "equation is nonlinear (cannot lower to a StencilSpec)"),
    ("K107", Severity.ERROR, "kernel",
     "equation reads grids other than its target"),
    ("K108", Severity.ERROR, "kernel",
     "equation has an affine constant term"),
    ("K109", Severity.ERROR, "kernel",
     "equation reads only the center cell (radius 0)"),
    ("K110", Severity.ERROR, "kernel",
     "equation failed semantic analysis"),
    # ---- config pass -------------------------------------------------- #
    ("C201", Severity.ERROR, "config",
     "compute-block size is non-positive (eq. 2: bsize > 2*partime*rad)"),
    ("C202", Severity.ERROR, "config",
     "bsize_x is not a multiple of parvec"),
    ("C203", Severity.ERROR, "config",
     "partime * parvec exceeds the DSP budget (eq. 5)"),
    ("C204", Severity.ERROR, "config",
     "design overflows device Block RAM"),
    ("C205", Severity.WARNING, "config",
     "(partime * rad) is not a multiple of 4 (eq. 6 alignment)"),
    ("C206", Severity.WARNING, "config",
     "grid extent is not a csize multiple (redundant last block, §IV.C)"),
    ("C207", Severity.ERROR, "config",
     "grid dimensionality does not match the configuration"),
    ("C208", Severity.WARNING, "config",
     "parvec is not a power-of-two memory-port width (<= 16)"),
    ("C209", Severity.ERROR, "config",
     "parameter outside its valid domain"),
    # ---- plan pass ---------------------------------------------------- #
    ("P301", Severity.ERROR, "plan",
     "write windows do not partition the grid exactly once"),
    ("P302", Severity.ERROR, "plan",
     "per-stage shrink windows do not nest (a neighbor read escapes)"),
    ("P303", Severity.ERROR, "plan",
     "clamp-duplicate counts disagree with the boundary spec"),
    ("P304", Severity.ERROR, "plan",
     "gather segments do not cover the read footprint"),
    ("P305", Severity.ERROR, "plan",
     "final-stage window does not equal the compute region"),
    ("P306", Severity.ERROR, "plan",
     "driver tables do not round-trip the plan's geometry or padding"),
    ("P307", Severity.ERROR, "plan",
     "slab layout given to the driver overlaps or misindexes grids"),
    # ---- hot-path purity pass ----------------------------------------- #
    ("H401", Severity.ERROR, "purity",
     "fault-injection hook used outside a disarmed guard"),
    ("H402", Severity.ERROR, "purity",
     "id()-keyed state (object-identity reuse hazard)"),
    ("H403", Severity.ERROR, "purity",
     "unseeded random number generator on a simulation path"),
    ("H404", Severity.ERROR, "purity",
     "integrity check (CRC or host mirror) skipped outside a disarmed guard"),
    ("H405", Severity.ERROR, "purity",
     "caller's array or buffer storage handed over uncopied outside a "
     "disarmed guard"),
    # ---- concurrency pass ---------------------------------------------- #
    ("T501", Severity.ERROR, "concurrency",
     "lock-acquisition graph contains a cycle (potential deadlock)"),
    ("T502", Severity.ERROR, "concurrency",
     "lock-guarded attribute written outside its lock"),
    ("T503", Severity.WARNING, "concurrency",
     "lock-guarded attribute read outside its lock"),
    ("T504", Severity.ERROR, "concurrency",
     "lint suppression comment lacks a justification"),
    ("T505", Severity.ERROR, "concurrency",
     "condition wait() outside a while-predicate loop"),
    ("T506", Severity.ERROR, "concurrency",
     "condition predicate mutated without a notify"),
    ("T507", Severity.ERROR, "concurrency",
     "thread or executor is never joined/shut down on a close path"),
    ("T508", Severity.ERROR, "concurrency",
     "resource released before its daemon thread is joined"),
    ("T509", Severity.ERROR, "concurrency",
     "driver block-claim counter mutated without the atomic op"),
    ("T510", Severity.ERROR, "concurrency",
     "driver condvar park/unpark protocol violated"),
    ("T511", Severity.ERROR, "concurrency",
     "blocking call made while holding a lock"),
    ("T512", Severity.ERROR, "concurrency",
     "untyped raise inside a lock-holding block"),
])


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violation at a specific locus."""

    rule: str
    message: str
    locus: str
    hint: str = ""

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown lint rule id {self.rule!r}")

    @property
    def severity(self) -> Severity:
        return RULES[self.rule].severity

    def render(self) -> str:
        text = f"{self.locus}: {self.severity} [{self.rule}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "pass": RULES[self.rule].pass_name,
            "locus": self.locus,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass
class LintReport:
    """Aggregated findings of one verifier run."""

    findings: list[Finding] = field(default_factory=list)
    passes_run: list[str] = field(default_factory=list)

    def extend(self, pass_name: str, findings: list[Finding]) -> None:
        if pass_name not in self.passes_run:
            self.passes_run.append(pass_name)
        self.findings.extend(findings)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def rules_fired(self) -> set[str]:
        return {f.rule for f in self.findings}

    def render(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.append(
            f"repro.lint: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s) "
            f"({', '.join(self.passes_run) or 'no passes'} run)"
        )
        return "\n".join(lines)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(
            {
                "version": 1,
                "passes": list(self.passes_run),
                "counts": {
                    "error": len(self.errors),
                    "warning": len(self.warnings),
                },
                "findings": [f.to_dict() for f in self.findings],
            },
            indent=indent,
        )


def render_rule_catalog() -> str:
    """Markdown table of every rule (used by ``--rules`` and the docs)."""
    lines = [
        "| rule | pass | severity | description |",
        "|------|------|----------|-------------|",
    ]
    for rule in RULES.values():
        lines.append(
            f"| {rule.rule_id} | {rule.pass_name} | {rule.severity.value} "
            f"| {rule.title} |"
        )
    return "\n".join(lines)
