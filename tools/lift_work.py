"""Summed lift work and an output digest of a benchmark workload's first cycles.

    python tools/lift_work.py [--src SRC] [--workload chain] [--seed 7] [--cycles 3]

Runs the jobs of the first N cycles of a workload, as bench/workloads.py
draws them for the seed, through globinv.cli.run_job in this process, each
job into its own output directory.  It prints the jobs' exit codes and CPU
time, then for the line lifts and the gradient flows apart: the number of
lanes, the LiftStats fields summed over them, and the Python call and
c_call events (a sys.setprofile count) made inside the lift entry points,
in all and per attempt (accepted and rejected steps) and per lane, and
the corrector rounds per line-lift attempt: (jacobians - lanes) /
attempts, as each lane's J(x0) is no round (a round whose f is not finite
takes no J and is not counted; f(x0) and the first step's probe, which
evals count, are no rounds), so a longer round budget shows as more
rounds per attempt over fewer attempts.  Then the line-lift events of
the one-row lift_lines calls (every solve, fibre-loop segment and
multistart seed) and of the others (star rays, test lifts, verification
sweeps) apart, from the same count, with the calls and the events per
attempt of each, as "one-row calls N events E events/attempt A" and
"multi-row calls ...": the calls are split by their shape, not by the
controller a tree runs them with.  Then the lockstep attempts of the
lift_lines calls, summed over the calls, as "lockstep attempts N": the
lanes of a call run in lockstep make their attempts together, so its
attempts, those of its busiest lane, set its time more than the work its
lanes add up (a call whose lanes run alone makes their sum, but the
count, read off the outcomes, is the same for every tree).  Next
comes the sampler's work: the number of Sobol draws (calls of
globinv.indicators._sobol, wrapped where the lift entry points are) and
the points they returned, as "sobol draws N points P", and the LAPACK
SVD work left after the closed forms of globinv.maps._svd and of the 2x2
indicator: the calls of numpy's SVD gufuncs (each svd* attribute of
numpy.linalg._umath_linalg, rebound there, where numpy.linalg.svd and
_svd look them up at each call, so a call through either is counted
once) and the matrices they took, as "lapack svds N matrices M".  Last
comes one sha256 over the raw bytes of every job's outputs, with only the
values of report.json's timestamp and job.output_dir blanked.  The tool
exits 1, naming the file on stderr, when a report.json is not laid out as
json.dumps(report, sort_keys=True, indent=2) + "\n" lays out the report it
holds.

All but the CPU time is deterministic, so two trees compare by running
this with --src on each and diffing the output, apart from the first
line's CPU time; an equal digest means byte-identical output files.  SRC
is a directory holding a globinv package (default: this checkout's
src/).  The counts are read off the public lift entry
points lift_lines and gradient_flow, wrapped here in globinv.lifting and
in every globinv module that imported them by name; lift_line_square and
lift_line_horizontal reach lifting.lift_lines, so no lift is counted
twice.  Any tree with those two entry points can be counted.  The event
count sees Python frames and builtin C functions, not a ufunc called
directly (np.add), and depends on the Python and numpy versions: compare
two trees in one environment only.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STATS = ("accepted", "rejected_error", "rejected_singular", "rejected_nonfinite", "evals", "jacobians", "svds")


def profiled(fn, args: tuple, kwargs: dict, uncounted=frozenset()) -> tuple:
    """fn(*args, **kwargs) and the call and c_call events sys.setprofile
    reports while it runs, but for those in the frames of the code objects
    uncounted (the tool's own counters, so that counting adds no events)."""
    events = 0

    def hook(frame, event, arg):
        nonlocal events
        if (event == "call" or event == "c_call") and frame.f_code not in uncounted:
            events += 1

    sys.setprofile(hook)
    try:
        out = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return out, events


def lockstep_attempts(outcomes: list) -> int:
    """The lockstep attempts of one lift_lines call, from its outcomes:
    every running lane is in every attempt of a lockstep run, so the call
    makes as many as its busiest lane, whose accepted and rejected steps
    count them."""
    return max((sum(getattr(o.stats, name) for name in STATS[:4]) for o in outcomes), default=0)


def blank_rerun_values(report: bytes) -> bytes:
    """report.json's bytes with the values of timestamp and job.output_dir,
    the parts of a rerun that may differ, replaced by "".  The report is
    laid out at indent 2 with sorted keys, so the timestamp is the top-level
    field and the first output_dir two levels deep is the job's."""
    fields = json.loads(report)
    for indent, key, value in ((2, "timestamp", fields["timestamp"]),
                               (4, "output_dir", fields["job"].get("output_dir"))):
        field = f'\n{" " * indent}"{key}": '.encode()
        report = report.replace(field + json.dumps(value).encode(), field + b'""', 1)
    return report


def digest_outputs(job_dirs: list) -> str:
    """The sha256 over every file of the job directories, in order: each
    file's name, then its bytes, report.json's through blank_rerun_values."""
    sha = hashlib.sha256()
    for job_dir in job_dirs:
        for path in sorted(job_dir.iterdir()) if job_dir.exists() else ():
            data = path.read_bytes()
            if path.name == "report.json":
                data = blank_rerun_values(data)
            sha.update(f"{job_dir.name}/{path.name} {len(data)}\n".encode())
            sha.update(data)
    return sha.hexdigest()


def off_layout(job_dirs: list) -> list:
    """The report.json files of the job directories whose bytes are not
    json.dumps(report, sort_keys=True, indent=2) + "\n" of their report."""
    off = []
    for path in (job_dir / "report.json" for job_dir in job_dirs):
        if path.exists():
            data = path.read_bytes()
            if data != (json.dumps(json.loads(data), sort_keys=True, indent=2) + "\n").encode():
                off.append(path)
    return off


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--workload", default="chain", choices=("sweep", "chain", "profile_ladder"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--cycles", type=int, default=3)
    args = ap.parse_args(argv)
    sys.path[:0] = [args.src, str(ROOT / "bench")]
    import numpy as np
    import workloads
    from globinv import cli, indicators, lifting

    totals = {kind: collections.Counter() for kind in ("lines", "flows", "sobol", "one-row", "multi-row")}
    lapack_work = [0, 0]

    def lapack(gufunc):
        def call(a, *args, **kwargs):  # a is an array: numpy.linalg.svd and maps._svd pass no other
            lapack_work[0] += 1
            lapack_work[1] += math.prod(a.shape[:-2])
            return gufunc(a, *args, **kwargs)
        return call

    def counted(kind, fn, outcomes):
        def run(*args, **kwargs):
            out, events = profiled(fn, args, kwargs, {lapack(None).__code__})  # every counter's code
            totals[kind]["events"] += events
            for outcome in outcomes(out):
                totals[kind]["lanes"] += 1
                totals[kind].update({name: getattr(outcome.stats, name) for name in STATS})
            totals[kind]["lockstep"] += lockstep_attempts(outcomes(out))
            if kind == "lines":  # by the call's shape: one row, or any other number
                attempts = sum(getattr(o.stats, name) for o in out for name in STATS[:4])
                totals["one-row" if len(out) == 1 else "multi-row"].update(calls=1, events=events, attempts=attempts)
            return out
        return run

    sobol = indicators._sobol

    def drawn(*args, **kwargs):
        out = sobol(*args, **kwargs)
        totals["sobol"].update(draws=1, points=out.shape[0])
        return out

    gufuncs = np.linalg._umath_linalg
    for name in [name for name in dir(gufuncs) if name.startswith("svd")]:
        setattr(gufuncs, name, lapack(getattr(gufuncs, name)))
    lines, flow = lifting.lift_lines, lifting.gradient_flow
    wrapped = {lines: counted("lines", lines, lambda out: out),
               flow: counted("flows", flow, lambda out: out[:1]), sobol: drawn}
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("globinv"):
            for name in ("lift_lines", "gradient_flow", "_sobol"):
                if getattr(module, name, None) in wrapped:
                    setattr(module, name, wrapped[getattr(module, name)])
    codes, cpu, job_dirs = collections.Counter(), 0.0, []
    cycles = workloads.cycles(args.workload, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(args.cycles):
            for job in next(cycles):
                job_dirs.append(Path(tmp) / f"{len(job_dirs):05d}")
                with contextlib.redirect_stderr(io.StringIO()):
                    t0 = time.process_time()
                    codes[cli.run_job(job.spec, out_override=job_dirs[-1])] += 1
                    cpu += time.process_time() - t0
        digest = digest_outputs(job_dirs)
        off = [path.relative_to(tmp) for path in off_layout(job_dirs)]
    print(f"{args.workload} seed {args.seed}, {args.cycles} cycles: "
          f"exit codes {dict(sorted(codes.items()))}, {cpu:.2f} s CPU")
    print(f"{'':18s} {'lines':>9s} {'flows':>9s}")
    for name in ("lanes", *STATS, "events"):
        print(f"{name:18s} {totals['lines'][name]:9d} {totals['flows'][name]:9d}")

    def ratio(kind, per, count="events", digits=1):
        n = sum(totals[kind][name] for name in per)
        return f"{totals[kind][count] / n:9.{digits}f}" if n else f"{'-':>9s}"

    for label, per in (("events/attempt", STATS[:4]), ("events/lane", ("lanes",))):
        print(f"{label:18s} {ratio('lines', per)} {ratio('flows', per)}")
    totals["lines"]["rounds"] = totals["lines"]["jacobians"] - totals["lines"]["lanes"]  # J(x0) is no round
    print(f"{'rounds/attempt':18s} {ratio('lines', STATS[:4], 'rounds', 2)} {'-':>9s}")
    for kind in ("one-row", "multi-row"):
        print(f"{kind} calls {totals[kind]['calls']} events {totals[kind]['events']} "
              f"events/attempt {ratio(kind, ('attempts',)).strip()}")
    print(f"lockstep attempts {totals['lines']['lockstep']}")
    print(f"sobol draws {totals['sobol']['draws']} points {totals['sobol']['points']}")
    print(f"lapack svds {lapack_work[0]} matrices {lapack_work[1]}")
    print(f"digest {digest}")
    for path in off:
        print(f"{path} is not laid out as json.dumps(sort_keys=True, indent=2)", file=sys.stderr)
    return 1 if off else 0


if __name__ == "__main__":
    sys.exit(main())
