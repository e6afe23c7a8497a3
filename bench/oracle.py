"""Independent per-job output checks.

Each check reads what a user would read after a job (the exit code,
report.json and the CSV files) and tests it against closed forms or a fresh
evaluation of the registry map, never against the program's own helpers.
A wrong answer becomes a counted failure, never a faster number.

check() returns (status, detail) with status one of
  "ok"     the job did what a correct program does;
  "failed" the job did not finish as expected: an exception escaped
           run_job, the exit code differs, or a report is missing;
  "wrong"  the job claimed success but its output fails the check.
"""

from __future__ import annotations

import csv
import json
import math
import traceback
from pathlib import Path

import numpy as np

from globinv.maps import linear_entry, registry_entry

SOLVE_TOL = 1e-8
SHIFT_TOL = 1e-8
MU_FLOOR = 1e-8  # LiftOptions default; the benchmark jobs set no lift options

# Closed-form integral of each registry map's mu_bound over [s, s + r]:
# the largest radius a right-endpoint quadrature may certify.
_MONOTONE_F = lambda u: u + 0.5 * math.sin(u) if u <= math.pi else math.pi + 0.5 * (u - math.pi)  # noqa: E731
_BOUND_INTEGRALS = {
    "complex_exp": lambda s, r: math.exp(-s) * (1.0 - math.exp(-r)),
    "exp1d": lambda s, r: math.exp(-s) * (1.0 - math.exp(-r)),
    "arctan1d": lambda s, r: math.atan(s + r) - math.atan(s),
    "asinh1d": lambda s, r: math.asinh(s + r) - math.asinh(s),
    "monotone1d": lambda s, r: _MONOTONE_F(s + r) - _MONOTONE_F(s),
}


def _entry(spec: dict):
    if spec["map"] == "linear":
        return linear_entry(spec["matrix"])
    return registry_entry(spec["map"])


def _bound_integral(name: str, shift: float, r: float) -> float:
    if name in _BOUND_INTEGRALS:
        return _BOUND_INTEGRALS[name](shift, r)
    return r  # identity_n, projection2to1, parabola_sub: mu_bound == 1


def _residual(model, x, y) -> float:
    fx = np.asarray(model.eval_fn(np.asarray(x, dtype=float)), dtype=float)
    return float(np.linalg.norm(fx - np.asarray(y, dtype=float)))


def _last_csv_row(path: Path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [float(c) for c in rows[-1]]


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-300)


def _check_profile(profile: dict, model, out_dir: Path, r: float):
    """Shared by indicators, certify and diagnose.  Returns an error string or None."""
    radii = np.asarray(profile["radii"])
    eta = np.asarray(profile["eta_values"])
    if np.any(np.diff(eta) > 0.0):
        return "eta is not nonincreasing"
    if not profile["certified"]:
        shift = float(np.linalg.norm(np.asarray(profile["base_point"])))
        lower = np.array([model.mu_bound(shift + rho) for rho in radii])
        if np.any(eta < lower * (1.0 - 1e-12)):
            return "sampled eta falls below the analytic lower bound"
    rho_sum = float(np.sum(eta[1:] * np.diff(radii)))
    last = _last_csv_row(out_dir / "rho_curve.csv")
    if not (_close(last[0], r, 1e-12) and _close(last[1], rho_sum)):
        return f"last rho_curve.csv row {last} differs from the quadrature {rho_sum}"
    return None


def _check_certify(job, result, model, out_dir):
    v = result["verification"]
    if v["inside"] != v["targets"]:
        return f"only {v['inside']} of {v['targets']} verification lifts stayed inside"
    spec = job.spec
    shift = float(np.linalg.norm(np.asarray(result["x0"])))
    bound = _bound_integral(spec["map"], shift, spec["r"])
    if not 0.0 < result["rho"] <= bound * (1.0 + 1e-12):
        return f"rho={result['rho']} outside (0, {bound}]"
    return _check_profile(result["profile"], model, out_dir, spec["r"])


def _check_indicators(job, result, model, out_dir, facts):
    profile = result["profile"]
    err = _check_profile(profile, model, out_dir, job.spec["r"])
    if err:
        return err
    last = _last_csv_row(out_dir / "rho_curve.csv")
    if last[1] != result["rho_at_r"]:
        return f"last rho_curve.csv row {last[1]} differs from rho_at_r {result['rho_at_r']}"
    if profile["certified"]:
        bound = _bound_integral(job.spec["map"], 0.0, job.spec["r"])
        if not result["rho_at_r"] <= bound * (1.0 + 1e-12):
            return f"rho_at_r={result['rho_at_r']} exceeds the integral {bound}"
    mu0 = facts.mu_exact(np.asarray(profile["base_point"]))
    if not _close(result["sur_at_x0"], mu0):
        return f"sur_at_x0={result['sur_at_x0']} differs from the exact {mu0}"
    return None


def _weighted_witness_vanishes(facts) -> bool:
    """C22 with the default weight 1 + rho: does mu * weight go to zero
    along the analytic witness?"""
    x = np.asarray(facts.mu_vanishing_witness(1e6), dtype=float)
    return facts.mu_exact(x) * (1.0 + float(np.linalg.norm(x))) < 1e-3


def _certified_truth(facts) -> dict:
    """Which conditions are true for the map, from its analytic facts.
    None means the facts decide nothing, so no certified verdict is allowed."""
    witness = facts.mu_vanishing_witness is not None
    return {
        "C10": not witness,
        "C14": facts.coercive,
        "C15": facts.integral_divergent,
        "C17": False if (witness and facts.witness_image_limit is not None) else None,
        "C22": not (witness and _weighted_witness_vanishes(facts)),
    }


def _check_diagnose(job, result, model, out_dir, facts):
    err = _check_profile(result["profile"], model, out_dir, result["profile"]["radii"][-1])
    if err:
        return err
    truth = _certified_truth(facts)
    for entry in result["conditions"]:
        verdict = entry["verdict"]
        if verdict not in ("Holds", "Fails"):
            continue
        expected = truth.get(entry["condition_id"])
        if expected is None or expected != (verdict == "Holds"):
            return f"{entry['condition_id']} {verdict} disagrees with the analytic facts"
    return None


def _check_solve(job, result, model):
    if result["solution"] is None:
        return "no solution"
    res = _residual(model, result["solution"], job.spec["y"])
    if not res <= SOLVE_TOL:
        return f"|f(x) - y| = {res} > {SOLVE_TOL}"
    return None


def _true_edge(name: str, facts, y0, d) -> float:
    """Distance from y0 along the unit direction d to the star boundary."""
    if facts.star_interval is not None:
        lo, hi = facts.star_interval
        return hi - y0[0] if d[0] > 0 else y0[0] - lo
    if name == "complex_exp":
        toward = -np.asarray(y0) / np.linalg.norm(y0)
        if float(np.dot(d, toward)) > 1.0 - 1e-12:
            return float(np.linalg.norm(y0))
        return math.inf
    raise ValueError(f"no star oracle for map {name!r}")


def _check_star(job, result, facts):
    spec = job.spec
    budget = spec["t_budget"]
    # the indicator floor stops a lift short of the edge by at most
    # sqrt(mu_floor) in the codomain for the registry maps (arctan is the worst)
    tol = spec["rel_tol"] * budget + math.sqrt(MU_FLOOR)
    for ray in result["rays"]:
        d = np.asarray(ray["direction"])
        edge = _true_edge(spec["map"], facts, result["y0"], d)
        if edge >= budget:
            if ray["reach"] != budget or ray["reason"] != "BudgetExhausted":
                return f"ray {d.tolist()} should finish the budget {budget}, got {ray['reach']}"
        elif not abs(ray["reach"] - edge) <= tol:
            return f"ray {d.tolist()} reach {ray['reach']} is not within {tol} of the edge {edge}"
    return None


def _check_fibre(job, result, model, facts):
    y = job.spec["y"]
    points = result["points"]
    for p in points:
        res = _residual(model, p, y)
        if not res <= SOLVE_TOL:
            return f"fibre point {p} has residual {res}"
    if "loop" in job.spec:
        if len(points) != job.spec["max_points"]:
            return f"loop found {len(points)} points, expected {job.spec['max_points']}"
        shift = np.asarray(facts.monodromy_shift)
        for s in result["monodromy_shifts"]:
            if not float(np.max(np.abs(np.asarray(s) - shift))) <= SHIFT_TOL:
                return f"monodromy shift {s} differs from {shift.tolist()}"
        return None
    period = 2.0 * math.pi  # complex_exp fibres are (x, y + 2 pi k)
    for p in points[1:]:
        dx = np.asarray(p) - np.asarray(points[0])
        if abs(dx[0]) > 1e-6 or abs(dx[1] / period - round(dx[1] / period)) > 1e-6:
            return f"fibre points {points[0]} and {p} are not 2 pi apart"
    return None


def check(job, exit_code, error, out_dir: Path):
    """Judge one job; see the module docstring for the statuses."""
    if error is not None:
        where = traceback.extract_tb(error.__traceback__)[-1]
        return "failed", f"{type(error).__name__}: {error} ({Path(where.filename).name}:{where.lineno})"
    if exit_code != job.expect_exit:
        status = "wrong" if exit_code == 0 else "failed"
        return status, f"exit {exit_code}, expected {job.expect_exit}"
    report_path = out_dir / "report.json"
    if not report_path.exists():
        return "failed", "no report.json"
    try:
        err = _check_output(job, exit_code, json.loads(report_path.read_text())["result"], out_dir)
    except (OSError, LookupError, TypeError, ValueError) as exc:  # output not in the documented form
        err = f"malformed output: {type(exc).__name__}: {exc}"
    return ("wrong", err) if err else ("ok", "")


def _check_output(job, exit_code, result, out_dir: Path):
    if exit_code != 0:
        return None if result.get("solution") is None else f"exit {exit_code} report claims a solution"
    entry = _entry(job.spec)
    model, facts = entry.model, entry.facts
    command = job.spec["command"]
    if command == "certify":
        return _check_certify(job, result, model, out_dir)
    if command == "indicators":
        return _check_indicators(job, result, model, out_dir, facts)
    if command == "diagnose":
        return _check_diagnose(job, result, model, out_dir, facts)
    if command == "solve":
        return _check_solve(job, result, model)
    if command == "star":
        return _check_star(job, result, facts)
    return _check_fibre(job, result, model, facts)
