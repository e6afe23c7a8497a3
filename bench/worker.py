"""Run one benchmark workload in this process and print one JSON line.

Started by bench/run.py, which pins BLAS to one thread and passes the
monotonic time just before it started this process, so that setup_s
counts interpreter start-up, imports, job generation and the warm-up job.

Modes:
  --setup-only   set up, then report setup_s and exit;
  (default)      closed loop: one client runs whole mix cycles through
                 globinv.cli.run_job until --seconds have passed;
  --trace        runs the first cycle untraced, then again with the
                 tracer installed, and reports per-layer numbers.  Its work
                 is fixed by the seed, not by --seconds, so its counts
                 repeat exactly.

Reference speed.  The host's speed swings by up to 2x over seconds to
minutes (other tenants share it), far more than the bounds the benchmark
enforces.  So every time this worker reports is scaled to a reference
speed: after each job it times a fixed numpy/Python kernel that does not
touch globinv, and the job's latency is multiplied by REF_NOMINAL_S over
the mean kernel time just before and just after the job.  A slower globinv
still reads slower; a slower host does not.  The raw wall-clock values are
printed in the details line next to the scaled ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
from numpy.linalg import svd as _svd  # bound before a traced pass rebinds numpy.linalg.svd

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Kernel time that defines the reference speed: about its median on the
# 2-core box the baseline was measured on, so scaled times read as ms there.
REF_NOMINAL_S = 0.003


def reference_s() -> float:
    """Time one run of a fixed kernel shaped like a lift step: small SVDs
    and scalar Python, about 3 ms."""
    t0 = time.perf_counter()
    x = 0.1
    for _ in range(200):
        s = _svd(np.array([[1.0, x], [0.5, 1.0 + x]]), compute_uv=False)
        x = 0.1 + 0.01 * float(s[-1])
        [x * k for k in range(20)]
    return time.perf_counter() - t0


def _import_program():
    """Import globinv from this checkout's src/ and nowhere else."""
    if not (SRC / "globinv" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'globinv'} not found; the benchmark runs the checkout's own source")
    sys.path.insert(0, str(SRC))
    import globinv.cli

    if Path(globinv.__file__).resolve().parent != (SRC / "globinv").resolve():
        sys.exit(f"bench: imported globinv from {globinv.__file__}, not from {SRC}")
    return globinv.cli


class Runner:
    """Runs jobs one at a time and keeps their latencies and verdicts."""

    def __init__(self, cli, oracle, out_dir: Path):
        self.cli, self.oracle, self.out_dir = cli, oracle, out_dir
        self.latencies = []  # scaled to the reference speed
        self.raw = []  # wall clock
        self.slots = []  # job kind and map, parallel to latencies
        self.statuses = Counter()
        self.failures = {}  # slot -> {"count", "status", "detail"}
        self.bytes_written = 0
        self._ref_s = reference_s()

    def run(self, job, count_bytes: bool = False) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        code = error = None
        with contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                # through the module attribute, so a traced pass sees its wrapper
                code = self.cli.run_job(job.spec, out_override=str(self.out_dir))
            except Exception as exc:  # a crash is a counted failure, not an abort
                error = exc
            dt = time.perf_counter() - t0
        ref_s = reference_s()
        status, detail = self.oracle.check(job, code, error, self.out_dir)
        slot = f"{job.kind}:{job.spec['map']}"
        self.raw.append(dt)
        self.latencies.append(dt * 2.0 * REF_NOMINAL_S / (self._ref_s + ref_s))
        self._ref_s = ref_s
        self.slots.append(slot)
        self.statuses[status] += 1
        if status != "ok":
            entry = self.failures.setdefault(slot, {"count": 0, "status": status})
            entry["count"] += 1
            entry["detail"] = detail
        if count_bytes:
            self.bytes_written += self._output_bytes()

    def _output_bytes(self) -> int:
        """Bytes the job wrote, less the timestamp, which is the only part
        of a rerun that may differ."""
        if not self.out_dir.exists():  # rejected before the output directory was made
            return 0
        total = sum(p.stat().st_size for p in self.out_dir.iterdir())
        report = self.out_dir / "report.json"
        if report.exists():
            total -= len(json.loads(report.read_text())["timestamp"])
        return total

    def summary(self) -> dict:
        return {
            "correct": self.statuses["wrong"] == 0,
            "attempted": len(self.latencies),
            "failed": len(self.latencies) - self.statuses["ok"],
            "failures": self.failures,
        }


def _end_to_end(runner: Runner, setup_s: float, setup_raw_s: float, cycles: int) -> dict:
    lat, raw = runner.latencies, runner.raw

    def p90(v):
        return statistics.quantiles(v, n=10, method="inclusive")[8]

    by_slot = {}
    for v, slot in zip(lat, runner.slots):
        by_slot.setdefault(slot, []).append(round(1e3 * v, 1))
    lat_p90 = p90(lat)
    return {
        "metrics": {
            "jobs_per_s": len(lat) / sum(lat),
            "job_ms_p50": 1e3 * statistics.median(lat),
            "job_ms_p90": 1e3 * lat_p90,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "wall_clock": {
            "jobs_per_s": len(raw) / sum(raw),
            "job_ms_p50": 1e3 * statistics.median(raw),
            "job_ms_p90": 1e3 * p90(raw),
            "setup_s": setup_raw_s,
        },
        "samples": len(lat),
        "beyond_p90": sum(1 for v in lat if v > lat_p90),
        "cycles": cycles,
        "fail_frac": runner.summary()["failed"] / len(lat),
        "slot_ms": {slot: sorted(vs) for slot, vs in by_slot.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawn-time", type=float, required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    cli = _import_program()
    import oracle
    import workloads

    OUT.mkdir(exist_ok=True)
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        runner = Runner(cli, oracle, out_dir)
        cycles = workloads.cycles(args.workload, args.seed)
        first = next(cycles)
        warmup = Runner(cli, oracle, out_dir)
        warmup.run(workloads.WARMUP[args.workload])
        setup_raw_s = time.monotonic() - args.spawn_time
        setup_s = setup_raw_s * REF_NOMINAL_S / statistics.median(reference_s() for _ in range(3))
        if args.setup_only:
            result = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
        elif args.trace:
            result = _traced(runner, first, args, out_dir)
        else:
            result = _timed(runner, first, cycles, args.seconds, setup_s, setup_raw_s)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _timed(runner: Runner, first, cycles, seconds: float, setup_s: float, setup_raw_s: float) -> dict:
    start = time.monotonic()
    done = 0
    cycle = first
    while True:
        for job in cycle:
            runner.run(job)
        done += 1
        if time.monotonic() - start >= seconds:
            break
        cycle = next(cycles)
    return {**runner.summary(), **_end_to_end(runner, setup_s, setup_raw_s, done)}


def _traced(runner: Runner, jobs: list, args, out_dir: Path) -> dict:
    import tracer as tracing

    for job in jobs:
        runner.run(job)
    untraced_s = sum(runner.latencies)

    traced = Runner(runner.cli, runner.oracle, out_dir)
    tr = tracing.Tracer()
    tr.install()
    try:
        for i, job in enumerate(jobs):
            tr.job = f"{i}:{job.kind}:{job.spec['map']}"
            traced.run(job, count_bytes=True)
    finally:
        tr.uninstall()
    traced_s = sum(traced.latencies)

    metrics = tracing.layer_metrics(tr.spans)
    metrics["cli.bytes_written"] = traced.bytes_written
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tr.write(spans_path)

    untraced, summary = runner.summary(), traced.summary()
    summary["correct"] = summary["correct"] and untraced["correct"]
    summary["attempted"] += untraced["attempted"]
    summary["failed"] += untraced["failed"]
    return {**summary, "metrics": metrics, "spans": str(spans_path.relative_to(ROOT))}


if __name__ == "__main__":
    sys.exit(main())
