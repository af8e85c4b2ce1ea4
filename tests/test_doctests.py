"""Run the doctests embedded in public docstrings."""

from __future__ import annotations

import doctest

import pytest

import repro.core.accelerator
import repro.core.stencil
import repro.dsl
import repro.dsl.ast

MODULES = [
    repro.core.accelerator,
    repro.core.stencil,
    repro.dsl,
    repro.dsl.ast,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module) -> None:
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0
    # the modules above are the ones whose docstrings carry examples;
    # at least repro.dsl and the accelerator must actually exercise some
    if module in (repro.dsl, repro.core.accelerator):
        assert result.attempted > 0
