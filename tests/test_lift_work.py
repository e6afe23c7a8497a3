"""Smoke test of tools/lift_work.py: one seed-7 chain cycle, whose summed
lift work two runs must print alike."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _lift_work() -> str:
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "lift_work.py"), "--workload", "chain", "--seed", "7",
         "--cycles", "1"],
        capture_output=True, text=True, timeout=600, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert run.returncode == 0, run.stdout + run.stderr
    return run.stdout


def test_lift_work_counts_repeat():
    first, second = _lift_work(), _lift_work()
    cpu = re.compile(r", [0-9.]+ s CPU$", re.MULTILINE)  # the one timing in the output
    assert cpu.search(first) and cpu.sub("", first) == cpu.sub("", second)
    header, columns, *rows = first.splitlines()
    assert header.startswith("chain seed 7, 1 cycles: exit codes {0: ")
    assert columns.split() == ["lines", "flows"]
    table = {name: (int(lines), int(flows)) for name, lines, flows in map(str.split, rows)}
    assert list(table) == ["lanes", "accepted", "rejected_error", "rejected_singular", "rejected_nonfinite",
                           "evals", "jacobians", "svds"]
    lines, flows = table["lanes"]
    assert lines > 0 and flows > 0
    assert all(table[name][1] > 0 for name in ("accepted", "evals", "jacobians", "svds"))
