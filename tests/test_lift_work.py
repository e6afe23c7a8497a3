"""Smoke test of tools/lift_work.py: one seed-7 chain cycle, whose summed
lift work two runs must print alike, and which it counts at the public
lift entry points of any tree."""

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
    return run.stdout


def test_lift_work_counts_repeat():
    first, second = _lift_work(), _lift_work()
    assert CPU.search(first) and CPU.sub("", first) == CPU.sub("", second)
    header, columns, *rows = first.splitlines()
    assert header.startswith("chain seed 7, 1 cycles: exit codes {0: ")
    assert columns.split() == ["lines", "flows"]
    table = {name: (int(lines), int(flows)) for name, lines, flows in map(str.split, rows)}
    assert list(table) == ["lanes", "accepted", "rejected_error", "rejected_singular", "rejected_nonfinite",
                           "evals", "jacobians", "svds"]
    lines, flows = table["lanes"]
    assert lines > 0 and flows > 0
    assert all(table[name][1] > 0 for name in ("accepted", "evals", "jacobians", "svds"))


def test_lift_work_counts_a_tree_by_its_public_entry_points(tmp_path):
    """--src counts a tree whose lift classes carry other names, as the
    tree of an earlier change may: the counts are read off lift_lines and
    gradient_flow, so the copy prints what this tree prints."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    lifting = src / "globinv" / "lifting.py"
    lifting.write_text(lifting.read_text().replace("_LineLanes", "_Lanes").replace("_Flow", "_FlowLift"))
    assert CPU.sub("", _lift_work("--src", str(src))) == CPU.sub("", _lift_work())
