"""The entry points the traced benchmark wraps still exist.

``perfbench/ledger.py:install`` patches each layer's public methods
through ``owner.__dict__[attr]``, so renaming or deleting one of them
breaks the traced benchmark run (``perfbench/run.py --trace 1``) even
though every other test passes.  This runs ``install`` against a stub
tracer that only records those lookups, so nothing is patched.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import ledger  # noqa: E402  (needs the repo root on the path)


class LookupRecorder:
    """Tracer stand-in: ``patch`` looks the attribute up and records it."""

    def __init__(self) -> None:
        self.looked_up: list[tuple[str, str, str]] = []

    def patch(self, owner, attr: str, name: str, attrs=None, pre=None) -> None:
        target = owner.__dict__[attr]  # KeyError: a wrapped name is gone
        assert callable(target), f"{owner.__name__}.{attr} is not callable"
        self.looked_up.append((owner.__name__, attr, name))


def test_every_name_the_ledger_wraps_exists() -> None:
    recorder = LookupRecorder()
    ledger.install(recorder)
    wrapped = {(owner, attr) for owner, attr, _ in recorder.looked_up}
    assert {
        ("StencilScheduler", "execute_job"),
        ("StencilScheduler", "execute_batch"),
        ("CommandQueue", "enqueue_kernel"),
        ("CommandQueue", "enqueue_batch_kernel"),
        ("BatchPlan", "pack"),
        ("BatchPlan", "unpack"),
    } <= wrapped
    # one record per wrapped name: every span the ledger reads has a source
    assert len(recorder.looked_up) == len({n for *_, n in recorder.looked_up})
