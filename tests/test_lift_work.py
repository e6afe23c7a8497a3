"""Smoke test of tools/lift_work.py: one seed-7 chain cycle, whose summed
lift work, call events and output digest two runs must print alike, and
which it counts at the public lift entry points of any tree."""

import functools
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CPU = re.compile(r", [0-9.]+ s CPU$", re.MULTILINE)  # the one timing in the output


def _lift_work(*args: str) -> str:
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "lift_work.py"), "--workload", "chain", "--seed", "7",
         "--cycles", "1", *args],
        capture_output=True, text=True, timeout=600, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert CPU.search(run.stdout), run.stdout
    return CPU.sub("", run.stdout)


@functools.lru_cache(maxsize=None)
def _this_tree() -> str:
    return _lift_work()


def test_lift_work_counts_repeat():
    """A second run prints the same work, events and digest."""
    first = _this_tree()
    assert _lift_work() == first
    header, columns, *rows, digest = first.splitlines()
    assert header.startswith("chain seed 7, 1 cycles: exit codes {0: ")
    assert columns.split() == ["lines", "flows"]
    table = {name: values for name, *values in map(str.split, rows)}
    assert list(table) == ["lanes", "accepted", "rejected_error", "rejected_singular", "rejected_nonfinite",
                           "evals", "jacobians", "svds", "events", "events/attempt", "events/lane"]
    counts = {name: tuple(map(int, table[name])) for name in list(table)[:9]}
    lines, flows = counts["lanes"]
    assert lines > 0 and flows > 0
    assert all(counts[name][1] > 0 for name in ("accepted", "evals", "jacobians", "svds"))
    for kind, (events, lanes) in enumerate(zip(counts["events"], counts["lanes"])):
        attempts = sum(counts[name][kind] for name in
                       ("accepted", "rejected_error", "rejected_singular", "rejected_nonfinite"))
        assert events > attempts > 0
        assert table["events/attempt"][kind] == f"{events / attempts:.1f}"
        assert table["events/lane"][kind] == f"{events / lanes:.1f}"
    assert re.fullmatch(r"digest [0-9a-f]{64}", digest)


def test_lift_work_counts_a_tree_by_its_public_entry_points(tmp_path):
    """--src counts a tree whose lift classes carry other names, as the
    tree of an earlier change may: the counts are read off lift_lines and
    gradient_flow, so the copy prints what this tree prints."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    lifting = src / "globinv" / "lifting.py"
    lifting.write_text(lifting.read_text().replace("_LineLanes", "_Lanes").replace("_Flow", "_FlowLift"))
    assert _lift_work("--src", str(src)) == _this_tree()
