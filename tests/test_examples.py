"""Smoke tests: every example script runs to completion.

Examples are user-facing deliverables; these tests execute each one in a
subprocess (so their ``__main__`` path and internal assertions run) and
check key output markers.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

#: script name -> substring its output must contain.
EXPECTED = {
    "quickstart.py": "bit-identical to the reference",
    "heat_diffusion_2d.py": "energy",
    "seismic_volume_3d.py": "Paper-scale prediction",
    "image_filtering.py": "reduction",
    "dsl_stencil.py": "bit for bit",
    "tune_for_device.py": "paper in top-2",
    "codegen_demo.py": "bit-identical to the reference",
    "compare_hardware.py": "within tolerance",
    "ablation_study.py": "Ablation 5",
    "host_runtime.py": "GFLOP/s/W",
}


def _run(script: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{script} failed:\n{result.stdout[-2000:]}\n{result.stderr[-2000:]}"
    )
    return result.stdout


def test_every_example_is_covered() -> None:
    scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert scripts == set(EXPECTED), (
        "example list drifted; update EXPECTED in this test"
    )


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_example_runs(script: str) -> None:
    output = _run(script)
    assert EXPECTED[script] in output, f"{script}: marker missing from output"


def test_tune_for_device_2d_variant() -> None:
    output = _run("tune_for_device.py", "2")
    assert "2D design-space exploration" in output
