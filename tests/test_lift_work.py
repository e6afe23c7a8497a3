"""Tests of tools/lift_work.py and the work ceilings it gates.

The ceilings: seed-7 runs of the chain, sweep and profile_ladder workloads
must exit 0 (so every report they write is on the json.dumps layout) and
stay within the counts of CEILINGS, so the lifts' and the sampler's work
is gated on deterministic counts, not on wall time.  The tool itself: one
seed-7 chain cycle, whose summed lift work, call events (all, and those of
one-row and multi-row line-lift calls apart), corrector rounds per
attempt, lockstep attempts, Sobol draws, LAPACK SVDs and output digest two
runs must print alike, and which it counts at the public lift entry
points of any tree; unit tests of its lockstep attempt count, of its output
digest and of its report layout check, and a run that the layout check
fails."""

import collections
import functools
import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from globinv import lifting
from globinv.cli import run_job
from globinv.lifting import LiftOptions, lift_lines
from globinv.maps import registry_get

ROOT = Path(__file__).resolve().parents[1]
CPU = re.compile(r", [0-9.]+ s CPU$", re.MULTILINE)  # the one timing in the output

# (workload, cycles) -> {(row, column): ceiling} of the tool's output at seed 7;
# each ceiling is the count at the last change of the work plus 5%, as LAPACK
# builds differ in their rounding and so in the steps the lifts take
CEILINGS = {
    ("chain", 3): {("jacobians", "lines"): 5_649, ("jacobians", "flows"): 32, ("lapack", "matrices"): 2_936,
                   ("rejected_singular", "lines"): 10, ("rejected_error", "lines"): 35,
                   ("lockstep", "attempts"): 1_325, ("accepted", "lines"): 1_499},
    ("sweep", 1): {("jacobians", "lines"): 6_210, ("jacobians", "flows"): 0, ("lockstep", "attempts"): 37},
    ("profile_ladder", 1): {("sobol", "draws"): 49, ("sobol", "points"): 76_402, ("lapack", "matrices"): 1_480},
}


def _run(*args: str, workload: str = "chain", cycles: int = 1) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "lift_work.py"), "--workload", workload, "--seed", "7",
         "--cycles", str(cycles), *args],
        capture_output=True, text=True, timeout=600, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )


def _lift_work(*args: str) -> str:
    run = _run(*args)
    assert run.returncode == 0, run.stdout + run.stderr
    assert CPU.search(run.stdout), run.stdout
    return CPU.sub("", run.stdout)


def _table(out: str) -> dict:
    """The rows of the tool's output between its header and its digest, by
    name: a LiftStats row maps the columns (lines, flows) to its cells; a
    one-row, multi-row, lockstep, sobol or lapack row maps each of its
    labels to the value after it ("sobol draws 47 points 72764")."""
    _, columns, *rows, _ = out.splitlines()
    return {name: dict(zip(cells[::2], cells[1::2]))
            if name in ("one-row", "multi-row", "lockstep", "sobol", "lapack")
            else dict(zip(columns.split(), cells)) for name, *cells in map(str.split, rows)}


@functools.lru_cache(maxsize=None)
def _this_tree() -> str:
    return _lift_work()


@pytest.mark.parametrize(("workload", "cycles"), CEILINGS)
def test_lift_work_stays_within_its_ceilings(workload, cycles):
    run = _run(workload=workload, cycles=cycles)
    assert run.returncode == 0, run.stdout + run.stderr
    table = _table(run.stdout)
    over = {(row, column): (int(table[row][column]), ceiling)
            for (row, column), ceiling in CEILINGS[workload, cycles].items() if int(table[row][column]) > ceiling}
    assert not over, f"{workload} counts over their ceilings, (count, ceiling) by (row, column): {over}"


def test_lift_work_counts_repeat():
    """A second run prints the same work, events and digest."""
    first = _this_tree()
    assert _lift_work() == first
    header, columns, *_, digest = first.splitlines()
    assert header.startswith("chain seed 7, 1 cycles: exit codes {0: ")
    assert columns.split() == ["lines", "flows"]
    table = _table(first)
    assert list(table) == ["lanes", "accepted", "rejected_error", "rejected_singular", "rejected_nonfinite",
                           "evals", "jacobians", "svds", "events", "events/attempt", "events/lane",
                           "rounds/attempt", "one-row", "multi-row", "lockstep", "sobol", "lapack"]
    counts = {name: {column: int(cell) for column, cell in table[name].items()} for name in list(table)[:9]}
    assert counts["lanes"]["lines"] > 0 and counts["lanes"]["flows"] > 0
    assert all(counts[name]["flows"] > 0 for name in ("accepted", "evals", "jacobians", "svds"))
    attempts = {column: sum(counts[name][column] for name in
                            ("accepted", "rejected_error", "rejected_singular", "rejected_nonfinite"))
                for column in ("lines", "flows")}
    for column, made in attempts.items():
        events, lanes = counts["events"][column], counts["lanes"][column]
        assert events > made > 0
        assert table["events/attempt"][column] == f"{events / made:.1f}"
        assert table["events/lane"][column] == f"{events / lanes:.1f}"
    # corrector rounds per line-lift attempt: each lane's J(x0) is no round;
    # a flow attempt is no corrector round
    rounds = (counts["jacobians"]["lines"] - counts["lanes"]["lines"]) / attempts["lines"]
    assert table["rounds/attempt"] == {"lines": f"{rounds:.2f}", "flows": "-"} and 1.0 <= rounds <= 4.0
    # the line-lift events of one-row calls and of the others, apart: every
    # solve and fibre segment is a one-row call, every star a multi-row one
    shapes = {kind: table[kind] for kind in ("one-row", "multi-row")}
    assert all(list(cells) == ["calls", "events", "events/attempt"] for cells in shapes.values())
    split = {kind: int(cells["events"]) for kind, cells in shapes.items()}
    assert sum(split.values()) == counts["events"]["lines"] and min(split.values()) > 0
    assert min(int(cells["calls"]) for cells in shapes.values()) > 0
    assert all(0.0 < float(cells["events/attempt"]) < split[kind] for kind, cells in shapes.items())
    # the lanes of a call attempt together: the calls make at least the
    # attempts of the busiest lane (so of the mean lane) and at most those
    # of every lane
    assert list(table["lockstep"]) == ["attempts"]
    lockstep = int(table["lockstep"]["attempts"])
    assert attempts["lines"] / counts["lanes"]["lines"] <= lockstep <= attempts["lines"]
    assert list(table["sobol"]) == ["draws", "points"]
    draws, points = map(int, table["sobol"].values())
    assert 0 <= draws <= points
    assert list(table["lapack"]) == ["svds", "matrices"]
    svds, matrices = map(int, table["lapack"].values())
    assert 0 < svds <= matrices
    assert re.fullmatch(r"digest [0-9a-f]{64}", digest)


def test_lift_work_counts_a_tree_by_its_public_entry_points(tmp_path):
    """--src counts a tree whose lift classes carry other names, as the
    tree of an earlier change may: the counts are read off lift_lines and
    gradient_flow, so the copy prints what this tree prints."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    lifting = src / "globinv" / "lifting.py"
    lifting.write_text(lifting.read_text().replace("_LineLane", "_Lane").replace("_Flow", "_FlowLift"))
    assert _lift_work("--src", str(src)) == _this_tree()


def test_lift_work_fails_on_a_report_off_the_layout(tmp_path):
    """A tree whose reports are laid out at indent 3 makes the tool exit 1
    and name each report, after printing its counts and digest."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "globinv" / "cli.py"
    encoder = "json.JSONEncoder(sort_keys=True, indent=2,"
    assert cli.read_text().count(encoder) == 1
    cli.write_text(cli.read_text().replace(encoder, encoder.replace("2", "3")))
    run = _run("--src", str(src))
    assert run.returncode == 1
    assert run.stdout.splitlines()[-1].startswith("digest ")
    lines = run.stderr.splitlines()
    assert lines and all(line.endswith("/report.json is not laid out as json.dumps(sort_keys=True, indent=2)")
                         for line in lines)


def test_off_layout_flags_only_reports_off_the_json_dumps_layout(tmp_path):
    job = {"map": "arctan1d", "command": "indicators", "x0": [0.0], "r": 3.0, "grid_size": 8}
    dirs = [tmp_path / "00000", tmp_path / "00001", tmp_path / "00002"]
    for job_dir in dirs[:2]:
        assert run_job(job, out_override=job_dir) == 0
    report = dirs[1] / "report.json"
    report.write_bytes(report.read_bytes().replace(b'\n  "job": {', b'\n  "job":  {'))
    assert _tool().off_layout(dirs) == [report]


def _tool():
    spec = importlib.util.spec_from_file_location("lift_work", ROOT / "tools" / "lift_work.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lapack_row_counts_the_matrices_left_to_lapack(tmp_path):
    """The lapack row counts the calls of numpy's SVD gufuncs and the
    matrices they take: a tree whose 2x2 indicator calls LAPACK on every
    stack makes more calls on a profile_ladder cycle, one matrix per
    sampled point."""
    def lapack_row(*args: str) -> tuple:
        run = _run(*args, workload="profile_ladder")
        assert run.returncode == 0, run.stdout + run.stderr
        lapack = _table(run.stdout)["lapack"]
        return int(lapack["svds"]), int(lapack["matrices"])

    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    indicators = src / "globinv" / "indicators.py"
    closed_form = "if (m, n) == (2, 2):"
    assert indicators.read_text().count(closed_form) == 1
    indicators.write_text(indicators.read_text().replace(closed_form, "if False:"))
    svds, matrices = lapack_row()
    all_svds, all_matrices = lapack_row("--src", str(src))
    assert 0 < svds < all_svds and matrices + 10_000 < all_matrices


def test_digest_sees_every_byte_but_the_rerun_values(tmp_path):
    """The digest hashes the files' own bytes: a whitespace change in
    report.json changes it; a new timestamp or output directory does not."""
    digest = _tool().digest_outputs
    job = {"map": "arctan1d", "command": "indicators", "x0": [0.0], "r": 3.0, "grid_size": 8}
    job_dir = tmp_path / "a" / "00000"
    assert run_job(job, out_override=job_dir) == 0
    report = job_dir / "report.json"
    text = report.read_text()
    first = digest([job_dir])

    def edited(old: str, new: str) -> str:
        assert text.count(old) == 1
        report.write_text(text.replace(old, new))
        return digest([job_dir])

    stamp = re.search(r'"timestamp": "[^"]*"', text).group()
    assert edited(stamp, '"timestamp": "1999-01-01T00:00:00+00:00"') == first
    out = f'"output_dir": "{job_dir}"'
    assert edited(out, '"output_dir": "elsewhere \\"quoted\\" \\u00e9"') == first
    assert edited('"rho_at_r": ', '"rho_at_r":  ') != first
    assert edited('\n  "job": {', '\n   "job": {') != first
    assert edited('"schema_version": "1"', '"schema_version": "2"') != first
    # a rerun into another directory, at another time, digests alike
    again = tmp_path / "b" / "00000"
    assert run_job(job, out_override=again) == 0
    assert digest([again]) == first
    (again / "eta_profile.csv").write_bytes((again / "eta_profile.csv").read_bytes() + b"\n")
    assert digest([again]) != first


def test_lockstep_attempts_are_the_attempts_of_the_call(monkeypatch):
    """lockstep_attempts reads from a lift_lines call's outcomes the
    attempts the call made in lockstep (_LineLanes, three rows or more):
    lanes that stop at x0, after a rejection, at the step budget or on the
    way, next to lanes that complete; of a call of one or two rows, whose
    rows run as scalar lanes (_LineLane), the attempts of its busiest
    lane, those a lockstep run of the call would make."""
    made = []

    def spy(attempt):
        def counted(self, *args):
            made[-1][id(self)] += 1
            return attempt(self, *args)
        return counted

    for lanes in (lifting._LineLanes, lifting._LineLane):
        monkeypatch.setattr(lanes, "attempt", spy(lanes.attempt))
    calls = [
        (registry_get("complex_exp"), [0.0, 0.0], [[0.5, 0.2], [-0.9, 0.0], [0.0, 0.0], [3.0, 0.0]],
         LiftOptions(r_escape=1.0)),
        (registry_get("arctan1d"), [0.0], [[2.0], [0.7], [-0.3]], LiftOptions(mu_floor=0.9)),
        (registry_get("monotone1d"), [0.0], [[40.0], [0.01], [-3.0]], LiftOptions(max_steps=4)),
        (registry_get("arctan1d"), [0.0], [[2.0], [0.7]], LiftOptions(mu_floor=0.9)),
        (registry_get("monotone1d"), [0.0], [[0.01], [40.0]], LiftOptions(max_steps=4)),
        (registry_get("arctan1d"), [0.0], [[2.0]], LiftOptions(mu_floor=0.9)),
        (registry_get("monotone1d"), [0.0], [[40.0]], LiftOptions(max_steps=4)),
        (registry_get("identity_1"), [2.0], [[0.0]], None),
    ]
    counted, objects = [], []
    for model, x0, targets, opts in calls:
        made.append(collections.Counter())
        counted.append(_tool().lockstep_attempts(lift_lines(model, x0, targets, opts)))
        objects.append(len(made[-1]))
    assert counted == [max(n.values(), default=0) for n in made] and counted[-1] == 0 and min(counted[:-1]) > 0
    assert objects == [1, 1, 1, 2, 2, 1, 1, 0]  # the w = 0 lane makes no attempt
