"""Summed lift work of a benchmark workload's first cycles.

    python tools/lift_work.py [--src SRC] [--workload chain] [--seed 7] [--cycles 3]

Runs the jobs of the first N cycles of a workload, as bench/workloads.py
draws them for the seed, through globinv.cli.run_job in this process, and
prints the number of lanes and the LiftStats fields summed over them, for
the line lifts and the gradient flows apart, with the CPU time spent in
the jobs and their exit codes.  The counts are
deterministic: two runs of one tree print the same numbers, so two trees
compare by their work, not by a timing.  SRC is a directory holding a
globinv package (default: this checkout's src/).  The counts are read off
the outcomes of lifting's two lift classes (_LineLanes.outcomes and
_Flow.outcome, wrapped here), so SRC must have them.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--workload", default="chain", choices=("sweep", "chain", "profile_ladder"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--cycles", type=int, default=3)
    args = ap.parse_args(argv)
    sys.path[:0] = [args.src, str(ROOT / "bench")]
    import workloads
    from globinv import cli, lifting

    totals = {"lines": collections.Counter(), "flows": collections.Counter()}

    def count(kind, outcomes):
        totals[kind]["lanes"] += len(outcomes)
        for outcome in outcomes:
            totals[kind].update({k: v for k, v in vars(outcome.stats).items() if k != "h_min"})

    lines, flow = lifting._LineLanes.outcomes, lifting._Flow.outcome

    def lines_counted(self):
        out = lines(self)
        count("lines", out)
        return out

    def flow_counted(self):
        out = flow(self)
        count("flows", out[:1])
        return out

    lifting._LineLanes.outcomes, lifting._Flow.outcome = lines_counted, flow_counted
    codes, cpu = collections.Counter(), 0.0
    cycles = workloads.cycles(args.workload, args.seed)
    with tempfile.TemporaryDirectory() as out:
        for _ in range(args.cycles):
            for job in next(cycles):
                with contextlib.redirect_stderr(io.StringIO()):
                    t0 = time.process_time()
                    codes[cli.run_job(job.spec, out_override=out)] += 1
                    cpu += time.process_time() - t0
    print(f"{args.workload} seed {args.seed}, {args.cycles} cycles: "
          f"exit codes {dict(sorted(codes.items()))}, {cpu:.2f} s CPU")
    print(f"{'':18s} {'lines':>9s} {'flows':>9s}")
    for name in ("lanes", "accepted", "rejected_error", "rejected_singular", "rejected_nonfinite",
                 "evals", "jacobians", "svds"):
        print(f"{name:18s} {totals['lines'][name]:9d} {totals['flows'][name]:9d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
