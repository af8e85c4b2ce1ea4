#!/usr/bin/env python
"""Emit ``BENCH_sharding.json``: shard chaos campaign + tail-replay cost.

The scenario behind the fault-isolated sharding claim: randomized
device faults, halo corruption, wedged exchange FIFOs and board losses
are armed against :class:`repro.runtime.ShardedRunner`, and every run
must either complete bit-identical to the single-device reference or
fail with a typed error — with replay confined to the faulted shards.
A long sharded run losing a board near the end then measures the
recovery-cost claim: restoring the lost shard from its latest snapshot
must beat the whole-run-retry baseline by at least 3x in replayed
passes.  Both gates are enforced here and in CI.

Usage::

    PYTHONPATH=src python benchmarks/emit_sharding.py            # full run
    PYTHONPATH=src python benchmarks/emit_sharding.py --quick    # CI smoke

The JSON lands in the repository root by default (``--out`` overrides).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.analysis.resilience import (
    SEED,
    run_sharding_campaign,
    run_sharding_replay_cost,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="fewer scenarios, shorter replay run (CI smoke)")
    ap.add_argument("--out", type=Path,
                    default=Path(__file__).resolve().parent.parent
                    / "BENCH_sharding.json")
    args = ap.parse_args()

    if args.quick:
        scenarios_n, iterations = 6, 6
        replay_iters, cadences = 160, [10]
    else:
        scenarios_n, iterations = 12, 8
        replay_iters, cadences = 400, [5, 10, 25]

    scenarios = run_sharding_campaign(
        seed=SEED, scenarios=scenarios_n, iterations=iterations
    )
    ok = sum(s.status in ("bit-exact", "failed-typed") for s in scenarios)
    unconfined = sum(not s.confined for s in scenarios)
    violations = sum(s.status == "violation" for s in scenarios)
    print(f"  chaos: {len(scenarios)} runs, "
          f"{sum(s.status == 'bit-exact' for s in scenarios)} bit-exact, "
          f"{sum(s.status == 'failed-typed' for s in scenarios)} failed "
          f"typed, {violations} violations, {unconfined} unconfined replays")

    replays = []
    for every in cadences:
        replay = run_sharding_replay_cost(
            iterations=replay_iters, fault_at_fraction=0.9,
            checkpoint_every=every,
        )
        replays.append(replay)
        tail = replay["tail_replay"]
        whole = replay["whole_run"]
        print(f"  every={every:4d}: whole-run {whole['replayed_passes']:4d} "
              f"vs shard tail {tail['replayed_passes']:4d} replayed passes "
              f"({replay['replay_cost_ratio']:.1f}x)")
        if not (whole["bit_exact"] and tail["bit_exact"]):
            raise SystemExit(f"every={every}: recovered result not bit-exact")

    headline = min(r["replay_cost_ratio"] for r in replays)
    payload = {
        "generated_by": "benchmarks/emit_sharding.py",
        "quick": args.quick,
        "seed": SEED,
        "campaign": {
            "runs": len(scenarios),
            "bit_exact": sum(s.status == "bit-exact" for s in scenarios),
            "failed_typed": sum(
                s.status == "failed-typed" for s in scenarios
            ),
            "violations": violations,
            "unconfined_replays": unconfined,
            "scenarios": [
                {
                    "seed": s.seed,
                    "shards": s.shards,
                    "boundary": s.boundary,
                    "faults": list(s.fault_names),
                    "status": s.status,
                    "error_type": s.error_type,
                    "faulty_shards": s.faulty_shards,
                    "confined": s.confined,
                    "rollbacks": s.rollbacks,
                    "replayed_passes": s.replayed_passes,
                    "halo_detections": s.halo_detections,
                    "reshards": s.reshards,
                }
                for s in scenarios
            ],
        },
        "replay_scenarios": replays,
        "headline_replay_cost_ratio": round(headline, 2),
        "meets_3x_target": bool(headline >= 3.0),
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    print(f"headline replay-cost ratio (worst cadence): {headline:.1f}x")

    if violations or unconfined:
        raise SystemExit(
            "sharding invariant violated: silent failure or unconfined replay"
        )
    if headline < 3.0:
        raise SystemExit("shard tail replay fell below the 3x target")


if __name__ == "__main__":
    main()
