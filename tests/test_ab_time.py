"""Smoke test of tools/ab_time.py: two rounds with this checkout on both
sides, and its call counts, which two runs must print alike."""

import dataclasses
import importlib.util
import subprocess
import sys
from pathlib import Path

from globinv.lifting import gradient_flow, lift_lines
from globinv.maps import registry_get

ROOT = Path(__file__).resolve().parents[1]


def _load_ab_time():
    spec = importlib.util.spec_from_file_location("ab_time", ROOT / "tools" / "ab_time.py")
    ab_time = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_time)
    return ab_time


def test_ab_time_runs_this_checkout_against_itself():
    """Two timed rounds, then the --calls rows, which equal the counts of
    a second run in this process (a fresh load of the checkout)."""
    src = str(ROOT / "src")
    run = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "tools" / "ab_time.py"), src, src, "--rounds", "2",
         "--calls"],
        capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    header, *rows = run.stdout.splitlines()
    rows, calls_header, calls = rows[:6], rows[6], rows[7:]
    assert header.startswith("change / base over 2 rounds")
    assert [row.split()[0] for row in rows] == ["lines", "sweep", "sweep1d", "wide", "flows", "profile"]
    for row in rows:
        _, median, q1, q3, verdict = row.replace("[", "").replace("]", "").replace(",", "").split()
        assert float(q1) <= float(median) <= float(q3) and float(median) > 0.0
        assert verdict == "identical"

    assert calls_header == "python call and c_call events, base -> change"
    ab_time = _load_ab_time()
    side = ab_time.Side(ab_time.load(src, "globinv_calls"))
    counts = {w: ab_time.call_counts(side, w) for w in ab_time.WORKLOADS}
    assert calls == [ab_time.calls_row(w, counts[w], counts[w]) for w in ab_time.WORKLOADS]
    events, attempts, lifts = counts["lines"]
    assert lifts == 16 and attempts > lifts and events > attempts
    assert calls[-1] == f"profile no lifts, {counts['profile'][0]} -> {counts['profile'][0]} events"


def test_fingerprint_names_the_fields_that_differ():
    ab_time = _load_ab_time()
    flow = gradient_flow(registry_get("monotone1d"), [2.0], [0.0])
    line = lift_lines(registry_get("arctan1d"), [0.0], [[1.5]])[0]
    base = ab_time.fingerprint([flow, line])
    assert ab_time.differing(base, ab_time.fingerprint([flow, line])) == set()

    outcome, verdict = flow
    fewer_svds = dataclasses.replace(outcome, stats=dataclasses.replace(outcome.stats, svds=1))
    assert ab_time.differing(base, ab_time.fingerprint([(fewer_svds, verdict), line])) == {"stats.svds"}
    # a trajectory that differs only inside, not at its end point
    trajectory = line.trajectory
    mu_values = trajectory.mu_values.copy()
    mu_values[1] = -mu_values[1]
    points = trajectory.points.copy()
    points[1, 0] += 1.0
    moved = dataclasses.replace(line, trajectory=dataclasses.replace(trajectory, points=points, mu_values=mu_values))
    assert ab_time.differing(base, ab_time.fingerprint([flow, moved])) == {
        "trajectory.points", "trajectory.mu_values"}
