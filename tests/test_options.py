"""Every runtime option is set by some caller outside the tests.

An option that no caller sets has one value in use, so it belongs in a
module constant: each settable value doubles the configurations tests
and benchmarks would have to cover.  The surfaces are the fields of
:class:`~repro.runtime.service.ServicePolicy` and the constructor
parameters of the service, the scheduler and the accelerator.  The walk
reads every module under ``src``, ``benchmarks``, ``examples`` and
``perfbench`` (their ``tests`` directories excluded) with :mod:`ast`,
and counts an option as set by a call of its surface that passes it by
keyword or by position.
"""

from __future__ import annotations

import ast
import functools
import inspect
from pathlib import Path

import pytest

from repro.core.accelerator import FPGAAccelerator
from repro.runtime.scheduler import StencilScheduler
from repro.runtime.service import ServicePolicy, StencilService

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench")
SURFACES = (ServicePolicy, StencilService, StencilScheduler, FPGAAccelerator)


def _options(surface: type) -> list[str]:
    """The surface's constructor parameters, in positional order."""
    return [
        p.name
        for p in inspect.signature(surface).parameters.values()
        if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    ]


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@functools.cache
def passed_options() -> dict[str, frozenset[str]]:
    """The options the callers pass, per surface name."""
    options = {s.__name__: _options(s) for s in SURFACES}
    passed: dict[str, set[str]] = {name: set() for name in options}
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                name = _called_name(node)
                if name not in options:
                    continue
                positional = 0
                for arg in node.args:
                    if isinstance(arg, ast.Starred):
                        break
                    positional += 1
                passed[name].update(options[name][:positional])
                passed[name].update(
                    kw.arg for kw in node.keywords if kw.arg is not None
                )
    return {name: frozenset(found) for name, found in passed.items()}


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.__name__)
def test_every_option_has_a_caller(surface: type) -> None:
    passed = passed_options()[surface.__name__]
    unset = [name for name in _options(surface) if name not in passed]
    assert not unset, (
        f"{surface.__name__} options no caller outside the tests sets: "
        f"{', '.join(unset)}; make each a module constant"
    )
