"""Experiments regenerating every table and figure of the paper.

Each module exposes ``run(**kwargs) -> ExperimentResult``; the registry
maps experiment ids (``table1`` ... ``fig4``, ``related-work``,
``ablations``) to those functions.  ``python -m repro.experiments <id>``
runs one from the command line.
"""

from repro.experiments.base import ExperimentResult
from repro.experiments import (
    table1,
    table2,
    table3,
    table4,
    table5,
    fig3,
    fig4,
    related_work,
    ablations,
    beyond_radius4,
    projection,
    fig1,
    fig2,
    model_validation,
    wave_perf,
    input_restriction,
)

EXPERIMENTS = {
    "table1": table1.run,
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "fig1": fig1.run,
    "fig2": fig2.run,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "related-work": related_work.run,
    "ablations": ablations.run,
    "beyond-radius4": beyond_radius4.run,
    "projection": projection.run,
    "model-validation": model_validation.run,
    "wave-performance": wave_perf.run,
    "input-restriction": input_restriction.run,
}


def _resilience(**kwargs):
    # Imported lazily: repro.analysis.resilience imports the host runtime,
    # which this package's experiment modules do not otherwise need.
    from repro.analysis.resilience import run

    return run(**kwargs)


def _chaos(**kwargs):
    from repro.analysis.resilience import run_chaos

    return run_chaos(**kwargs)


def _overload(**kwargs):
    from repro.analysis.resilience import run_overload

    return run_overload(**kwargs)


def _lint(**kwargs):
    # Imported lazily: repro.lint pulls in the area/fmax models and walks
    # the source tree, which table/figure experiments never need.
    from repro.experiments.preflight import run

    return run(**kwargs)


EXPERIMENTS["resilience"] = _resilience
EXPERIMENTS["chaos"] = _chaos
EXPERIMENTS["overload"] = _overload
EXPERIMENTS["lint"] = _lint

__all__ = ["EXPERIMENTS", "ExperimentResult"]
