"""globinv job-level benchmark.

    python3 bench/run.py --workload {sweep,chain,profile_ladder} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the benchmark imports globinv from that
checkout's src/.  Each workload runs in a fresh worker process with BLAS
pinned to one thread.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds the details (sample counts, failures by job kind, setup samples).

--trace 0 reports the end-to-end metrics.  setup_s is the median over
SETUP_RUNS worker start-ups: SETUP_RUNS - 1 set-up-only workers plus the
worker that then runs the timed loop.
--trace 1 reports the per-layer metrics of one traced cycle.

See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_RUNS = 3
DEADLINE_S = 170.0  # the whole run, set-up workers included

_SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
_WORKER = Path(__file__).resolve().with_name("worker.py")
_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker(args, extra: list, deadline: float) -> dict:
    """Start one worker, wait for it, return its JSON line; exit on failure."""
    cmd = [sys.executable, str(_WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + extra
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawn-time", repr(spawned)],
            env={**os.environ, **_ENV}, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"bench: worker exceeded the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads(_SPEC.read_text())  # workload names, metric names and units
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    deadline = time.monotonic() + DEADLINE_S

    if args.trace:
        res = _worker(args, ["--trace"], deadline)
        details = {"spans": res.pop("spans"), "traced_jobs": res["metrics"]["trace.jobs"]}
    else:
        probes = [_worker(args, ["--setup-only"], deadline) for _ in range(SETUP_RUNS - 1)]
        res = _worker(args, [], deadline)
        setups = [p["setup_s"] for p in probes] + [res["metrics"]["setup_s"]]
        res["metrics"]["setup_s"] = statistics.median(setups)
        res["wall_clock"]["setup_s"] = statistics.median(
            [p["setup_raw_s"] for p in probes] + [res["wall_clock"]["setup_s"]])
        details = {k: res.pop(k) for k in
                   ("wall_clock", "samples", "beyond_p90", "cycles", "fail_frac", "slot_ms")}
        details["setup_samples_s"] = setups
    details["failures"] = res.pop("failures")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"workload": args.workload, "seed": args.seed, **details}))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
