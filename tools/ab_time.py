"""Interleaved A/B timing of two globinv source trees in one process.

    python tools/ab_time.py BASE_SRC CHANGE_SRC [--rounds N] [--calls]

Each SRC is a directory that holds a globinv package, such as the src/ of
a checkout.  Both packages are loaded side by side under distinct names,
so one interpreter times both on the same heap and the same CPU.  Every
round runs six workloads on each side:

  lines    16 one-row line lifts on registry maps;
  sweep    one 64-lane lift_lines call on complex_exp (2x2 Jacobians);
  sweep1d  one 64-lane lift_lines call on arctan1d (1x1 Jacobians);
  wide     one 512-lane lift_lines call on complex_exp, where the cost
           per lane, not per attempt, shows;
  flows    7 gradient flows, rejected non-finite stages included;
  profile  2 sampled mu_profile calls (grid 128, 64 samples per ball).

Each workload is cut into short blocks: one lift, flow or profile each,
and one block for a lift_lines call.  Both sides run each block back to
back, the side that goes first alternating from block to block and from
round to round, and each run is timed with time.process_time, the CPU
time of this process, so time the machine gives to other processes does
not count.  The garbage collector runs before each workload and is off
while its blocks run.  A round's ratio for a workload is the change's
summed block times over the base's.

For each workload it prints the median of the per-round time ratios
change / base, their quartiles, and whether both sides gave the same
outcomes bit for bit: the status, each LiftStats field, the recorded
times, points and mu values, the length, the residual and the flow
verdict of each lift, and the eta values of each profile.  Where they
differ it names the fields, as in "DIFFER: stats.svds".
CPU time still varies with the cache and the clock of a shared machine:
compare medians over many rounds.

--calls adds a count that does not vary: each workload runs once more on
each side (after one untimed run), with a sys.setprofile hook that counts
its call and c_call events, and one row per workload gives the events per
attempt (accepted and rejected steps, from LiftStats) and per lift (a
lane of a lift_lines call or a flow), base -> change.  The hook sees
Python frames and builtin C functions, not a ufunc called directly (np.add),
so the count is a proxy for interpreter overhead; it depends on the numpy
version, so compare two trees in one environment only.
Needs only the standard library and numpy (plus what globinv imports).
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def load(src: str, name: str):
    """The globinv package under src, imported as the package `name`."""
    root = Path(src) / "globinv"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


# (map, x0, w) of the one-row line lifts
LINES = [
    ("identity_2", [0.0, 0.0], [0.3, -0.4]),
    ("identity_3", [0.0, 1.0, 0.0], [0.5, 0.2, -0.7]),
    ("monotone1d", [0.0], [7.0]),
    ("monotone1d", [1.0], [-4.0]),
    ("asinh1d", [0.0], [3.0]),
    ("asinh1d", [0.5], [-2.0]),
    ("arctan1d", [0.0], [1.55]),  # a crawl toward the singular edge
    ("arctan1d", [0.0], [2.0]),  # Singular beyond pi/2
    ("exp1d", [0.0], [3.0]),
    ("exp1d", [0.0], [-2.0]),
    ("complex_exp", [0.0, 0.0], [0.5, -0.7]),
    ("complex_exp", [0.0, 0.0], [3.0, 4.0]),
    ("complex_exp", [1.0, 0.5], [-2.0, 1.0]),
    ("parabola_sub", [0.0, 0.5], [1.2]),
    ("projection2to1", [0.5, 3.0], [1.0]),
    ("linear", [0.0, 0.0], [1.0, 1.0]),
]

# (map, x0, y, options) of the gradient flows
FLOWS = [
    ("monotone1d", [2.0], [0.0], {}),
    ("arctan1d", [0.0], [2.0], {}),
    ("exp1d", [0.0], [-1.0], {}),
    ("complex_exp", [0.0, 0.0], [3.0, 4.0], {}),
    ("parabola_sub", [0.0, 0.5], [1.2], {}),
    ("tall", [5.0], [1.0, -1.0], {"rel_tol": 0.01, "abs_tol": 0.01}),
    ("half_line", [0.0], [3.0, 6.0], {}),  # NaN beyond x = 1
]


# (map, x0, r_max) of the sampled profiles
PROFILES = [
    ("complex_exp", [0.0, 0.0], 2.0),
    ("parabola_sub", [0.0, 0.5], 2.0),
]


class Side:
    """The workloads, built from one loaded package."""

    def __init__(self, pkg):
        self.pkg = pkg
        maps, lifting = pkg.maps, pkg.lifting
        extra = {
            "linear": maps.linear_map([[2.0, 1.0], [0.0, 0.5]]),
            "tall": maps.linear_map([[1.0], [2.0]]),
            "half_line": maps.MapModel(
                name="half_line", n=1, m=2,
                eval_fn=lambda x: np.array([x[0] if x[0] < 1.0 else math.nan, 2.0 * x[0]]),
                jac_fn=lambda x: np.array([[1.0], [2.0]]),
            ),
        }

        def model(name):
            return extra[name] if name in extra else maps.registry_get(name)

        self.lines = [(model(name), x0, w) for name, x0, w in LINES]
        self.flows = [(model(name), x0, y, lifting.LiftOptions(**opts)) for name, x0, y, opts in FLOWS]
        self.profiles = [(model(name), x0, r_max) for name, x0, r_max in PROFILES]
        angles = 2.0 * math.pi * np.arange(64) / 64
        self.sweep = (model("complex_exp"), [0.0, 0.0],
                      0.6 * np.column_stack([np.cos(angles), np.sin(angles)]))
        # 512 directions at radii 0.3 to 0.8: lanes that take different numbers of steps
        angles = 2.0 * math.pi * np.arange(512) / 512
        radii = np.linspace(0.3, 0.8, 512)[:, None]
        self.wide = (model("complex_exp"), [0.0, 0.0], radii * np.column_stack([np.cos(angles), np.sin(angles)]))
        # targets across the image (-pi/2, pi/2) of arctan1d; the ends +-1.6 lie past it (Singular)
        self.sweep1d = (model("arctan1d"), [0.0], np.linspace(-1.6, 1.6, 64)[:, None])

    def blocks(self, workload: str) -> list:
        """The workload as a list of blocks, each a call that returns a list of results."""
        pkg = self.pkg
        lift_lines, flow, profile = pkg.lifting.lift_lines, pkg.lifting.gradient_flow, pkg.indicators.mu_profile
        if workload == "lines":
            return [lambda m=m, x0=x0, w=w: lift_lines(m, x0, [w]) for m, x0, w in self.lines]
        if workload == "flows":
            return [lambda args=args: [flow(*args)] for args in self.flows]
        if workload == "profile":
            return [lambda m=m, x0=x0, r_max=r_max: [profile(m, x0, r_max, 128, mode="sampled", sample_count=64)]
                    for m, x0, r_max in self.profiles]
        return [lambda: lift_lines(*getattr(self, workload))]


WORKLOADS = ("lines", "sweep", "sweep1d", "wide", "flows", "profile")


def fingerprint(results) -> list:
    """What must agree bit for bit between the sides: for each result, its
    fields by name, each as bytes or as the repr of its value."""
    out = []
    for r in results:
        if hasattr(r, "eta_values"):  # a profile
            out.append({"eta_values": r.eta_values.tobytes()})
            continue
        outcome, verdict = r if isinstance(r, tuple) else (r, None)
        trajectory = outcome.trajectory
        out.append({
            "status": repr(outcome.status.to_json_dict()),
            **{f"stats.{name}": repr(value) for name, value in vars(outcome.stats).items()},
            **{f"trajectory.{name}": getattr(trajectory, name).tobytes()
               for name in ("times", "points", "mu_values")},
            "trajectory.length": repr(trajectory.length),
            "target_residual": repr(outcome.target_residual),
            "verdict": repr(None if verdict is None else verdict.to_json_dict()),
        })
    return out


def differing(base: list, change: list) -> set:
    """The names of the fields whose fingerprints differ in any result."""
    return {name for a, b in zip(base, change) for name in a.keys() | b.keys() if a.get(name) != b.get(name)}


def timed(fn) -> tuple:
    t0 = time.process_time()
    result = fn()
    return time.process_time() - t0, result


def run_round(sides, workload: str, first: int) -> tuple:
    """The workload's blocks on both sides, the side that goes first
    alternating from block to block (side `first` at block 0): the summed
    CPU times of each side and each side's results."""
    blocks = [side.blocks(workload) for side in sides]
    times, results = [0.0, 0.0], [[], []]
    gc.collect()
    gc.disable()
    try:
        for b, pair in enumerate(zip(*blocks)):
            for k in ((first, 1 - first) if b % 2 == 0 else (1 - first, first)):
                dt, result = timed(pair[k])
                times[k] += dt
                results[k] += result
    finally:
        gc.enable()
    return times, results


def python_calls(fn) -> tuple:
    """The call and c_call events sys.setprofile reports while fn runs, and fn's result."""
    events = 0

    def hook(frame, event, arg):
        nonlocal events
        if event == "call" or event == "c_call":
            events += 1

    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return events, result


def call_counts(side, workload: str) -> tuple:
    """(events, attempts, lifts) of one run of the workload's blocks, after
    one run that is not counted, with the garbage collector off."""
    blocks = side.blocks(workload)
    for block in blocks:
        block()
    events, results = 0, []
    gc.collect()
    gc.disable()
    try:
        for block in blocks:
            n, result = python_calls(block)
            events += n
            results += result
    finally:
        gc.enable()
    outcomes = [r[0] if isinstance(r, tuple) else r for r in results if not hasattr(r, "eta_values")]
    attempts = sum(o.stats.accepted + o.stats.rejected_error + o.stats.rejected_singular
                   + o.stats.rejected_nonfinite for o in outcomes)
    return events, attempts, len(outcomes)


def calls_row(workload: str, base: tuple, change: tuple) -> str:
    """One --calls row: events per attempt and per lift, base -> change."""
    (e0, a0, l0), (e1, a1, l1) = base, change
    if not (l0 and l1):
        return f"{workload:7s} no lifts, {e0} -> {e1} events"
    per_attempt = f"{e0 / a0:.1f} -> {e1 / a1:.1f}" if a0 and a1 else "-"
    return f"{workload:7s} {per_attempt} per attempt, {e0 / l0:.1f} -> {e1 / l1:.1f} per lift"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="directory holding the base globinv package")
    ap.add_argument("change", help="directory holding the changed globinv package")
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--calls", action="store_true", help="also print the call and c_call events")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    sides = (Side(load(args.base, "globinv_base")), Side(load(args.change, "globinv_change")))
    ratios = {w: [] for w in WORKLOADS}
    differ = {w: set() for w in WORKLOADS}
    for rnd in range(args.rounds):
        for w in WORKLOADS:
            times, results = run_round(sides, w, rnd % 2)
            ratios[w].append(times[1] / times[0])
            differ[w] |= differing(fingerprint(results[0]), fingerprint(results[1]))
    print(f"change / base over {args.rounds} rounds: median [quartiles], outcomes")
    for w in WORKLOADS:
        r = ratios[w]
        q1, _, q3 = statistics.quantiles(r, n=4) if len(r) > 1 else (r[0], r[0], r[0])
        outcomes = f"DIFFER: {', '.join(sorted(differ[w]))}" if differ[w] else "identical"
        print(f"{w:7s} {statistics.median(r):.3f} [{q1:.3f}, {q3:.3f}] {outcomes}")
    if args.calls:
        print("python call and c_call events, base -> change")
        for w in WORKLOADS:
            print(calls_row(w, *(call_counts(side, w) for side in sides)))
    return 1 if any(differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
