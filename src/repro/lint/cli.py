"""Command-line entry point: ``python -m repro.lint``.

Runs the five analysis passes over the repository's shipped targets
(see :mod:`repro.lint.targets`) and exits non-zero on any finding —
the zero-findings gate CI enforces.  ``--json`` emits the machine
format consumed as a CI artifact; ``--rules`` prints the rule catalog.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint import targets
from repro.lint.concurrency import lint_concurrency_tree, lint_driver_concurrency
from repro.lint.config_pass import lint_configs
from repro.lint.findings import LintReport, render_rule_catalog
from repro.lint.kernel import lint_equations
from repro.lint.plan_pass import lint_plan
from repro.lint.purity import lint_driver_source, lint_tree

PASS_NAMES = ("kernel", "config", "plan", "purity", "concurrency")


def run_default_lint(
    passes: tuple[str, ...] = PASS_NAMES, source_root: Path | None = None
) -> LintReport:
    """Lint the shipped targets; the programmatic face of the CLI."""
    report = LintReport()
    if "kernel" in passes:
        report.extend("kernel", lint_equations(targets.shipped_equations()))
    if "config" in passes:
        report.extend("config", lint_configs(targets.shipped_config_points()))
    if "plan" in passes:
        findings = []
        for plan in targets.shipped_plans():
            findings.extend(lint_plan(plan))
        report.extend("plan", findings)
    if "purity" in passes:
        root = source_root if source_root is not None else targets.source_root()
        findings = lint_tree(root)
        for name, text in targets.shipped_driver_sources():
            findings.extend(
                lint_driver_source(text, name, include_concurrency=False)
            )
        report.extend("purity", findings)
    if "concurrency" in passes:
        root = source_root if source_root is not None else targets.source_root()
        findings = lint_concurrency_tree(root)
        for name, text in targets.shipped_driver_sources():
            findings.extend(lint_driver_concurrency(text, name))
        report.extend("concurrency", findings)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Ahead-of-run static verifier for kernels, configs, "
        "pass plans and hot-path purity.",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the JSON report format"
    )
    parser.add_argument(
        "--rules",
        action="store_true",
        help="print the rule catalog (markdown) and exit",
    )
    parser.add_argument(
        "--passes",
        default=",".join(PASS_NAMES),
        help="comma-separated subset of passes to run "
        f"(default: {','.join(PASS_NAMES)})",
    )
    parser.add_argument(
        "--source-root",
        type=Path,
        default=None,
        help="directory tree for the purity pass "
        "(default: the installed repro package)",
    )
    parser.add_argument(
        "--allow-warnings",
        action="store_true",
        help="exit 0 when only warning-severity findings remain",
    )
    args = parser.parse_args(argv)

    if args.rules:
        print(render_rule_catalog())
        return 0

    requested = tuple(p.strip() for p in args.passes.split(",") if p.strip())
    unknown = [p for p in requested if p not in PASS_NAMES]
    if unknown:
        parser.error(
            f"unknown pass(es) {unknown}; choose from {list(PASS_NAMES)}"
        )

    report = run_default_lint(requested, source_root=args.source_root)
    print(report.to_json() if args.json else report.render())
    if report.errors:
        return 1
    if report.warnings and not args.allow_warnings:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
