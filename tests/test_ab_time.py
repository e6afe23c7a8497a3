"""Smoke test of tools/ab_time.py: two rounds with this checkout on both sides."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_time_runs_this_checkout_against_itself():
    src = str(ROOT / "src")
    run = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "tools" / "ab_time.py"), src, src, "--rounds", "2"],
        capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    header, *rows = run.stdout.splitlines()
    assert header.startswith("change / base over 2 rounds")
    assert [row.split()[0] for row in rows] == ["lines", "sweep", "sweep1d", "flows", "profile"]
    for row in rows:
        _, median, q1, q3, verdict = row.replace("[", "").replace("]", "").replace(",", "").split()
        assert float(q1) <= float(median) <= float(q3) and float(median) > 0.0
        assert verdict == "identical"
