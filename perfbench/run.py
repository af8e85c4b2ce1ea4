#!/usr/bin/env python3
"""Closed-loop serving benchmark: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Generates the workload's inputs from
``--seed``, computes their goldens with ``core/reference.py``, then
starts fresh processes (``perfbench/serve.py``), each with its own empty
compile and autotune caches under ``.perfbench_run/``:

* ``--trace 0``: ``SETUP_RUNS - 1`` set-up probes, then one measured
  process; prints every end-to-end metric (``setup_s`` is the median
  of all ``SETUP_RUNS`` set-ups), each time scaled to nominal host
  speed by a :class:`perfbench.hostspeed.Sampler` that runs meanwhile.
* ``--trace 1``: one measured process whose window alternates untraced
  and traced slices; prints every per-layer metric, the tracing
  overhead among them.

The last line of standard output is the JSON result; the line before
it stamps the machine, the code and the sample counts.  Exits 2
without a result when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Cold set-ups per untraced run; ``setup_s`` is their median.
SETUP_RUNS = 3
#: Wall budget of one run, under the 180 s a run may take.
BUDGET_S = 170.0


class ChildFailed(RuntimeError):
    pass


def run_child(workload, mode: str, rundir: Path, k: int, deadline: float,
              seconds: float) -> dict:
    """Start one cold ``perfbench.serve`` process and return its result."""
    home = rundir / f"proc{k}"
    (home / "tmp").mkdir(parents=True)
    env = {n: v for n, v in os.environ.items() if not n.startswith("REPRO_")}
    env.update(
        TMPDIR=str(home / "tmp"),
        REPRO_AUTOTUNE_DIR=str(home / "autotune"),
        PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]),
    )
    out = home / "result.json"
    cmd = [
        sys.executable, "-m", "perfbench.serve",
        "--workload", workload.name, "--inputs", str(rundir / "inputs.npz"),
        "--mode", mode, "--seconds", repr(seconds), "--out", str(out),
    ]
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # the whole session: gcc children of a killed process die too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{mode} process overran the run's time budget")
    if proc.returncode != 0:
        raise ChildFailed(
            f"{mode} process exited {proc.returncode}:\n{err.decode(errors='replace')}"
        )
    return json.loads(out.read_text())


def make_inputs(workload, seed: int, path: Path) -> list[float]:
    """Write seeded grids and their goldens; return the golden times."""
    import numpy as np

    from repro.core.reference import reference_run

    grids = workload.inputs(seed)
    goldens = np.empty_like(grids)
    spec = workload.spec()
    times = []
    for k in range(len(grids)):
        t = time.monotonic()
        goldens[k] = reference_run(grids[k], spec, workload.iterations)
        times.append(time.monotonic() - t)
    np.savez(path, grids=grids, goldens=goldens)
    return times


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    """Digest of every source file, for checkouts that are not git repos."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def compiler_version() -> str | None:
    """First line of ``--version`` of the C compiler the engines use."""
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            proc = subprocess.run(
                [cand, "--version"], capture_output=True, text=True, timeout=30
            )
            return proc.stdout.splitlines()[0] if proc.stdout else cand
    return None


def stamp(args) -> dict:
    import numpy as np

    from repro.runtime.autotune import cpu_fingerprint

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu_fingerprint(),
        "nproc": os.cpu_count(),
        "cc": compiler_version(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
    }


def measure(workload, args, rundir: Path, deadline: float) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics, and details for the stamp line."""
    import numpy as np

    from perfbench import hostspeed
    from perfbench.stats import percentile

    # a pinned workload runs on the lowest CPU, and its host speed is
    # that CPU's: the sampler measured on another CPU spread its figures
    # 3 times as far (small-grids p90 0.10 against 0.03 unscaled)
    cpu = {min(os.sched_getaffinity(0))} if workload.one_cpu else None
    with hostspeed.Sampler(cpu) as sampler:
        probes = [
            run_child(workload, "setup", rundir, k, deadline, 0.0)
            for k in range(SETUP_RUNS - 1)
        ]
        main = run_child(workload, "measure", rundir, SETUP_RUNS - 1,
                         deadline, args.seconds)
    slow = [sampler.slowdown(p["t0"], p["first_reply"]) for p in (*probes, main)]
    done, latency = np.load(main["replies"])
    nominal_s, scaled = sampler.scale(main["window"], done, latency)
    jobs_s = len(done) / nominal_s
    setups = [p["setup_s"] for p in probes] + [main["setup_s"]]
    attempted = main["attempted"] + len(probes)
    failed = main["failed"] + sum(not p["first_ok"] for p in probes)
    metrics = {
        "setup_s": statistics.median(s / f for s, f in zip(setups, slow)),
        "throughput_gcell_s": jobs_s * workload.cells * workload.iterations / 1e9,
        "jobs_s": jobs_s,
        "latency_p50_ms": 1e3 * percentile(scaled, 50),
        "latency_p90_ms": 1e3 * percentile(scaled, 90),
        "success_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    units = {"setup_s": "s", "throughput_gcell_s": "Gcell/s", "jobs_s": "1/s",
             "latency_p50_ms": "ms", "latency_p90_ms": "ms",
             "success_ratio": "ratio", "peak_rss_mb": "MB"}
    result = {
        "correct": not any(p["mismatched"] or p["timed_out"]
                           for p in (*probes, main)),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    # the host's slowdowns and the figures as measured, before scaling
    w0, w1 = main["window"]
    detail = {"setup_slowdowns": slow, "window_slowdown": (w1 - w0) / nominal_s,
              "setups_s": setups, "latency_samples": main["latency_samples"],
              "measured": {n: main[n] for n in ("jobs_s", "latency_p50_ms",
                                                "latency_p90_ms")},
              "rss_replies": main["rss_replies"], "shed": main["shed"]}
    return result, detail


def trace(workload, args, rundir: Path, deadline: float,
          reference_s: list[float]) -> tuple[dict, dict]:
    """Traced run: per-layer metrics, and details for the stamp line."""
    from perfbench import ledger

    traced = run_child(workload, "trace", rundir, 0, deadline, args.seconds)
    layers = ledger.finish(traced["layers"], traced["untraced_jobs_s"],
                           traced["traced_jobs_s"], reference_s)
    result = {
        "correct": not (traced["mismatched"] or traced["timed_out"]),
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "metrics": {
            n: {"value": layers[n], "unit": ledger.UNITS[n]}
            for n, *_ in ledger.LAYERS
        },
    }
    detail = {"spans": traced["spans"], "spans_file": traced["spans_file"],
              "latency_samples": traced["latency_samples"],
              "untraced_jobs_s": traced["untraced_jobs_s"],
              "traced_jobs_s": traced["traced_jobs_s"]}
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program to benchmark ({SRC / 'repro'} is missing)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 2:
        # a trace window needs one untraced and one traced slice
        print("perfbench: --seconds must be >= 2", file=sys.stderr)
        return 2

    # compile the modules the measured processes import, so no process
    # pays for writing bytecode inside its set-up time
    import perfbench.serve  # noqa: F401

    rundir = ROOT / ".perfbench_run" / str(os.getpid())
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        reference_s = make_inputs(workload, args.seed, rundir / "inputs.npz")
        if args.trace:
            result, detail = trace(workload, args, rundir, deadline, reference_s)
        else:
            result, detail = measure(workload, args, rundir, deadline)
    except ChildFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            rundir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"stamp": stamp(args), **detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
