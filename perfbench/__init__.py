"""Closed-loop serving benchmark for ``repro.runtime.service.StencilService``.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
prints one JSON result line; see ``perfbench/README.md``.
"""
