import collections
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from globinv import certificates, cli, indicators, solver
from globinv.cli import main, run_job
from globinv.indicators import MuProfile, rho_of_r
from globinv.maps import MapModel, RegistryEntry, list_map_names


def _reject_constant(token):
    raise ValueError(f"report.json holds the non-standard token {token}")


def _read_report(out_dir):
    """The parsed report.json, which must be strict JSON (no NaN or Infinity)."""
    return json.loads((out_dir / "report.json").read_text(), parse_constant=_reject_constant)


def _strip_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if '"timestamp"' not in line
    )


# ---------------------------------------------------------------------------
# exit codes and validation


def test_unknown_map_exits_4(tmp_path, capsys):
    assert run_job({"map": "unknown"}, out_override=tmp_path) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 4
    assert err["error"]["type"] == "UnknownMap"


def test_missing_command_exits_2(tmp_path, capsys):
    assert run_job({"map": "identity_2"}, out_override=tmp_path) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2


@pytest.mark.parametrize(
    "job",
    [
        {"map": "identity_2", "command": "indicators", "bogus": 1},
        {"map": "identity_2", "command": "indicators", "parameters": {"nope": 1}},
        {"map": "identity_2", "command": "indicators", "x0": "zero"},
        {"map": "identity_2", "command": "indicators", "r": -1.0},
        {"map": "identity_2", "command": "indicators", "seed": True},
        {"map": "identity_2", "command": "frobnicate"},
        {"map": "linear", "command": "indicators", "x0": [0.0]},
        {"map": "identity_1", "command": "solve", "y": [0.0], "opts": {"rel_tol": -1}},
        {"map": "identity_1", "command": "solve", "y": [0.0], "opts": {"nope": 1}},
        {"map": "identity_1", "command": "solve", "y": [0.0, 1.0]},
        {
            "map": "identity_2",
            "command": "indicators",
            "r": 1.0,
            "parameters": {"r": 2.0},
        },
        {"map": "projection2to1", "command": "solve", "y": [0.0], "strategy": "mystery"},
        {"map": "projection2to1", "command": "solve", "y": [0.0], "strategy": "wazewski"},
        {"map": "projection2to1", "command": "star"},
        {"map": "identity_2", "command": "star", "directions": [[0.0, 0.0]]},
        {"map": "projection2to1", "command": "fibre", "y": [1.0], "loop": [[2.0], [3.0]]},
        {"map": "identity_2", "command": "indicators", "x0": [0.0, "a"]},
        {"map": "identity_2", "command": "fibre", "y": [0.0, 0.0], "seeds": "none"},
        {"map": "identity_2", "command": "fibre", "y": [0.0, 0.0], "seeds": [[0.0]]},
        {"map": "identity_2", "command": "indicators", "grid_size": 0},
        {"map": "identity_2", "command": "indicators", "mode": "exact"},
        {"map": "identity_1", "command": "solve", "y": [0.0], "strategy": 3},
        {"map": "identity_1", "command": "diagnose", "levels": [2.0, 1.0]},
        {"map": "identity_1", "command": "solve", "y": [0.0], "opts": []},
        [{"map": "identity_1", "command": "solve", "y": [0.0]}],
        {"map": 3, "command": "indicators"},
        {"map": "linear", "command": "indicators", "matrix": [[1.0, 0.0], [1.0]]},
        {"map": "identity_1", "command": "indicators", "parameters": [1]},
        {"map": "identity_1", "command": "indicators", "output_dir": 3},
        {"map": "identity_1", "command": "solve"},
        {"map": "identity_1", "command": "fibre", "y": [0.0]},
        {"map": "identity_1", "command": "fibre", "y": [0.0], "seeds": [[0.0]], "loop": [[1.0]]},
        # a negative seed raised ValueError in the sampler (exit 3), or passed
        # where diagnose's seeds seed + 1 ... seed + 11 stayed non-negative
        {"map": "identity_2", "command": "certify", "verify_targets": 4, "seed": -5},
        {"map": "identity_2", "command": "indicators", "mode": "sampled", "seed": -1},
        {"map": "identity_2", "command": "diagnose", "seed": -1},
        {"map": "identity_2", "command": "diagnose", "seed": -2},
        {"map": "identity_1", "command": "solve", "y": [1.0], "seed": -1},
    ],
)
def test_invalid_jobs_exit_2(job, tmp_path, capsys):
    assert run_job(job, out_override=tmp_path) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2
    assert not (tmp_path / "report.json").exists()


def test_huge_inputs_run_without_runtime_warnings(tmp_path, capsys):
    """With warnings as errors: an arctan1d indicators job at x0 = 1e200
    (its Jacobian overflows to 1 / inf = 0 there) exits 0; a fibre loop at
    1e300 exits 3 with LoopNotInImage and no overflowed distance on the
    way; certify at r = 1e160 and 1e300, whose lift endpoint distances
    overflowed the plain norm (exit 3, inf in the report), exits 0 with
    both lifts inside the ball."""
    far = [1e300, 1e300]
    jobs = [
        ({"map": "arctan1d", "command": "indicators", "x0": [1e200]}, 0),
        ({"map": "identity_2", "command": "fibre", "y": far, "seed_point": far,
          "loop": [far, [2e300, 1e300]]}, 3),
        *(({"map": "identity_2", "command": "certify", "r": r, "verify_targets": 2}, 0) for r in (1e160, 1e300)),
    ]
    for k, (job, code) in enumerate(jobs):
        out = tmp_path / str(k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_job(job, out_override=out) == code, job
        err = capsys.readouterr().err
        result = _read_report(out)["result"]
        if job["command"] == "fibre":
            assert json.loads(err)["error"]["type"] == "LoopNotInImage"
        else:
            assert err == ""
        if job["command"] == "certify":
            verification = result["verification"]
            assert verification["completed"] == verification["inside"] == 2
            assert verification["max_distance"] < job["r"]


@pytest.mark.parametrize(
    "text",
    [
        '{"map": "arctan1d", "command": "solve", "y": [NaN]}',
        '{"map": "arctan1d", "command": "certify", "r": Infinity}',
        '{"map": "identity_2", "command": "indicators", "x0": [0.0, -Infinity]}',
        '{"map": "identity_1", "command": "solve", "y": [1.0], "opts": {"r_escape": Infinity}}',
        '{"map": "arctan1d", "command": "certify", "r": 1' + "0" * 400 + "}",
    ],
    ids=["nan_y", "infinite_r", "infinite_x0", "infinite_option", "huge_integer_r"],
)
def test_non_finite_job_numbers_exit_2(text, tmp_path, capsys):
    job_file = tmp_path / "job.json"
    job_file.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(job_file), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2
    assert err["error"]["type"] == "JobValidationError"
    assert not (out / "report.json").exists()


# a small target must not read as a Palais-Smale plateau: the flow's stall
# and gradient tests scale with the level and with the starting gradient
@pytest.mark.parametrize("c", [-2.0, -0.3, 0.0, 1.25, -0.0018075723517507747])
def test_overdetermined_solve_job(c, tmp_path):
    job = {"map": "linear", "command": "solve", "matrix": [[1.0], [2.0]], "y": [c, 2.0 * c]}
    assert run_job(job, out_override=tmp_path) == 0
    res = _read_report(tmp_path)["result"]
    assert res["strategy"] == "GradientFlow"
    assert res["flow_verdict"]["kind"] == "converged"
    assert set(res["flow_verdict"]) == {"kind", "level", "grad_norm"}
    x = res["solution"][0]
    assert np.linalg.norm([x - c, 2.0 * x - 2.0 * c]) <= 1e-8
    assert abs(x - c) <= 1e-9


def test_solve_without_solution_exits_3(tmp_path, capsys):
    job = {"map": "arctan1d", "command": "solve", "y": [2.0]}
    assert run_job(job, out_override=tmp_path) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 3
    # the report is still written, with the failed lift's status
    rep = _read_report(tmp_path)
    assert rep["result"]["solution"] is None
    assert rep["result"]["status"]["kind"] in ("Singular", "Escaped")


@pytest.mark.parametrize(("name", "y"), [("exp1d", [1e9]), ("complex_exp", [3e8, 4e8])])
def test_solve_far_target_exits_0(name, y, tmp_path):
    """The polish of a lift toward a target far out ends some ulps of |y| off
    it, past an absolute 1e-8; the tolerance scales with |y|, so the job is
    solved."""
    assert run_job({"map": name, "command": "solve", "y": y}, out_override=tmp_path) == 0
    result = _read_report(tmp_path)["result"]
    assert result["solution"] is not None
    assert 1e-8 < result["residual"] <= 1e-8 * np.linalg.norm(y)


def test_gradient_flow_solve_toward_a_far_target_exits_0(tmp_path):
    """The gradient flow toward (1e300, 1e300), where |r(x0)|^2 overflows,
    solves the job as the default lift of the same job does."""
    job = {"map": "identity_2", "command": "solve", "y": [1e300, 1e300], "strategy": "gradient_flow",
           "opts": {"r_escape": 1e308}}
    assert run_job(job, out_override=tmp_path) == 0
    result = _read_report(tmp_path)["result"]
    assert result["solution"] is not None and result["flow_verdict"]["kind"] == "converged"
    assert run_job({**job, "strategy": "auto"}, out_override=tmp_path / "lift") == 0


def test_solve_with_a_stride_past_int64_exits_0(tmp_path):
    """A record_stride past any int64 step count keeps the base point and
    the final point of the lift."""
    job = {"map": "complex_exp", "command": "solve", "y": [3.0, 4.0], "opts": {"record_stride": 2**63}}
    assert run_job(job, out_override=tmp_path) == 0
    assert _read_report(tmp_path)["result"]["solution"] is not None
    rows = (tmp_path / "traj_0.csv").read_text().splitlines()
    assert len(rows) == 3  # the header, the base point and the final point


# an exception that is not a package error (numpy's LinAlgError, an
# allocation that fails under a memory cap) is a numerical failure: exit 3
# with a report that names it, never a traceback
@pytest.mark.parametrize(
    "exc",
    [MemoryError("cannot allocate"), np.linalg.LinAlgError("SVD did not converge")],
    ids=["MemoryError", "LinAlgError"],
)
def test_foreign_exception_exits_3_with_report(exc, tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "mu_profile", boom)
    job = {"map": "identity_2", "command": "indicators"}
    assert run_job(job, out_override=tmp_path) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 3
    assert err["error"]["type"] == type(exc).__name__
    assert _read_report(tmp_path)["result"]["error"] == {
        "type": type(exc).__name__,
        "message": str(exc),
    }


def test_non_finite_result_exits_3_with_strict_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_execute", lambda job, entry, out_dir: ({"value": np.inf}, True))
    job = {"map": "identity_2", "command": "indicators"}
    assert run_job(job, out_override=tmp_path) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 3
    assert err["error"]["type"] == "ValueError"
    assert _read_report(tmp_path)["result"]["error"]["type"] == "ValueError"


def test_solve_overflowing_energy_exits_3(tmp_path, capsys):
    """x = 1e160 solves the system, and the flow energy overflows at the
    seed: the flow holds it in units of a power of two, so it runs, and
    leaves the default escape ball (r_escape 1e6) long before the root; the
    job fails with a strict-JSON report that says so, its level past the
    largest float written as null, never as an infinite level.  With the
    escape ball past the root, the same job is solved."""
    job = {"map": "linear", "command": "solve", "matrix": [[1.0], [2.0]], "y": [1e160, 2e160]}
    assert run_job(job, out_override=tmp_path) == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "GlobinvError"
    result = _read_report(tmp_path)["result"]
    assert result["solution"] is None and result["status"]["kind"] == "Escaped"
    assert result["flow_verdict"]["kind"] == "diverged" and result["flow_verdict"]["level"] is None
    job["opts"] = {"r_escape": 1e308}
    assert run_job(job, out_override=tmp_path / "far") == 0
    result = _read_report(tmp_path / "far")["result"]
    assert result["solution"] == [pytest.approx(1e160, rel=1e-12)]
    assert result["flow_verdict"]["kind"] == "converged"


def test_certify_success_exit_0(tmp_path):
    job = {
        "map": "identity_2",
        "command": "certify",
        "x0": [0.0, 0.0],
        "r": 1.0,
        "verify_targets": 8,
    }
    assert run_job(job, out_override=tmp_path) == 0
    rep = _read_report(tmp_path)
    assert rep["result"]["rho"] == pytest.approx(1.0, abs=1e-12)
    assert rep["result"]["verification"]["inside"] == 8
    assert not list(tmp_path.glob("traj_*.csv"))


# ---------------------------------------------------------------------------
# report schema and defaults


def test_report_schema_and_defaults(tmp_path):
    job = {"map": "monotone1d", "command": "indicators", "x0": [0.0], "r": 2.0}
    assert run_job(job, out_override=tmp_path) == 0
    rep = _read_report(tmp_path)
    assert rep["schema_version"] == "1"
    assert "timestamp" in rep
    j = rep["job"]
    assert j["map"] == "monotone1d" and j["command"] == "indicators"
    assert j["seed"] == 0
    p = j["parameters"]
    assert p["grid_size"] == 256
    assert p["mode"] == "certified"
    assert p["indicator_kind"] == "sur"
    text = (tmp_path / "report.json").read_text()
    # keys are emitted sorted, so the layout is reproducible
    assert text.index('"job"') < text.index('"result"')
    assert text.index('"result"') < text.index('"schema_version"')


@pytest.mark.parametrize(
    "job, expected",
    [
        (
            {"map": "arctan1d", "command": "indicators", "x0": [0], "r": 2},
            {"x0": [0.0], "r": 2.0, "grid_size": 256, "mode": "certified",
             "indicator_kind": "sur", "sample_count": 64},
        ),
        (
            {"map": "arctan1d", "command": "certify"},
            {"x0": [0.0], "r": 1.0, "grid_size": 1024, "mode": "certified",
             "sample_count": 64, "verify_targets": 0, "opts": {}},
        ),
        (
            {"map": "arctan1d", "command": "solve", "y": [0.5]},
            {"y": [0.5], "seed_point": [0.0], "strategy": "auto", "opts": {}},
        ),
        (
            {"map": "identity_1", "command": "star"},
            {"seed_point": [0.0], "directions": None, "t_budget": 10.0, "rel_tol": 0.001,
             "opts": {}},
        ),
        (
            {"map": "identity_1", "command": "fibre", "y": [1.0], "seeds": [[0.0]]},
            {"y": [1.0], "seeds": [[0.0]], "max_points": 8, "opts": {}},
        ),
        (
            {"map": "identity_2", "command": "fibre", "y": [1.0, 0.0],
             "loop": [[0.0, 1.0], [-1.0, 0.0]]},
            {"y": [1.0, 0.0], "loop": [[0.0, 1.0], [-1.0, 0.0]], "max_points": 8,
             "opts": {}},
        ),
        (
            {"map": "identity_1", "command": "diagnose"},
            {"x0": [0.0], "r": 10.0, "grid_size": 512, "mode": "certified",
             "levels": [1.0, 2.0], "weight": "one_plus_rho", "sample_count": 64,
             "opts": {}},
        ),
    ],
    ids=["indicators", "certify", "solve", "star", "fibre_seeds", "fibre_loop", "diagnose"],
)
def test_defaulted_job_parameters(job, expected, tmp_path):
    assert run_job(job, out_override=tmp_path) == 0
    j = _read_report(tmp_path)["job"]
    assert j["parameters"] == expected
    assert (j["map"], j["command"], j["seed"]) == (job["map"], job["command"], 0)


def test_solve_report_and_trajectory(tmp_path):
    job = {"map": "monotone1d", "command": "solve", "y": [7.0]}
    assert run_job(job, out_override=tmp_path) == 0
    rep = _read_report(tmp_path)
    res = rep["result"]
    assert res["strategy"] == "Wazewski"
    assert res["residual"] <= 1e-8
    x = res["solution"][0]
    assert abs(x + 0.5 * np.sin(x) - 7.0) <= 1e-7
    traj = (tmp_path / "traj_0.csv").read_text().splitlines()
    assert traj[0] == "t,x_1,mu,cumulative_length"
    assert len(traj) >= 3


# ---------------------------------------------------------------------------
# CSV outputs


def test_profile_csvs_certified_arctan(tmp_path):
    job = {
        "map": "arctan1d",
        "command": "indicators",
        "x0": [0.0],
        "r": 1.0,
        "grid_size": 500,
    }
    assert run_job(job, out_override=tmp_path) == 0
    lines = (tmp_path / "eta_profile.csv").read_text().splitlines()
    assert lines[0] == "rho,eta"
    assert len(lines) == 502  # grid_size + 1 radii
    for line in lines[1:]:
        rho, eta = (float(v) for v in line.split(","))
        assert abs(eta - 1.0 / (1.0 + rho**2)) <= 1e-12
    rlines = (tmp_path / "rho_curve.csv").read_text().splitlines()
    assert rlines[0] == "r,rho"
    r_last, rho_last = (float(v) for v in rlines[-1].split(","))
    assert r_last == 1.0
    assert abs(rho_last - np.pi / 4) <= 1e-3


def test_rho_curve_matches_rho_of_r(tmp_path):
    job = {"map": "arctan1d", "command": "indicators", "x0": [0.0], "r": 3.0, "grid_size": 2000}
    assert run_job(job, out_override=tmp_path) == 0
    res = _read_report(tmp_path)["result"]
    p = res["profile"]
    profile = MuProfile(
        base_point=p["base_point"], radii=p["radii"], eta_values=p["eta_values"],
        certified=p["certified"], indicator_kind=p["indicator_kind"],
    )
    rows = [
        [float(v) for v in line.split(",")]
        for line in (tmp_path / "rho_curve.csv").read_text().splitlines()[1:]
    ]
    assert [r for r, _ in rows] == p["radii"][1:]
    for r, rho in rows:
        assert rho == pytest.approx(rho_of_r(profile, r), rel=1e-12)
    assert rows[-1][1] == res["rho_at_r"]


def test_rho_curve_identity(tmp_path):
    job = {"map": "identity_1", "command": "indicators", "x0": [0.0], "r": 2.0}
    assert run_job(job, out_override=tmp_path) == 0
    for line in (tmp_path / "rho_curve.csv").read_text().splitlines()[1:]:
        r, rho = (float(v) for v in line.split(","))
        assert abs(rho - r) <= 1e-12


def _row_writer_bytes(header: str, rows) -> bytes:
    """The row-at-a-time CSV writer _write_csv replaced: the reference."""
    lines = [header]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else repr(float(c)) for c in row))
    return ("\n".join(lines) + "\n").encode()


def test_write_csv_matches_the_row_writer(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.normal(size=20001) * 10.0 ** rng.uniform(-320, 300, size=20001)
    x[:8] = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.0, -1e308]
    y = np.cumsum(rng.uniform(0.0, 1e-3, size=20001))
    path = tmp_path / "out.csv"
    cli._write_csv(path, "rho,eta", [x, y])
    assert path.read_bytes() == _row_writer_bytes("rho,eta", zip(x, y))
    # mixed columns as star_reach.csv has them: floats, a tuple of floats, str
    reasons = ("Singular", "BudgetExhausted", "Escaped")
    columns = [x[:3], y[:3], (2.0, 0.5, float(x[8])), reasons]
    cli._write_csv(path, "d_1,d_2,reach,reason", columns)
    assert path.read_bytes() == _row_writer_bytes("d_1,d_2,reach,reason", zip(*columns))
    cli._write_csv(path, "r,rho", [np.empty(0), np.empty(0)])
    assert path.read_bytes() == b"r,rho\n"


def test_profile_and_star_csvs_match_the_row_writer(tmp_path):
    job = {"map": "arctan1d", "command": "indicators", "x0": [0.0], "r": 3.0, "grid_size": 20000}
    assert run_job(job, out_override=tmp_path) == 0
    p = _read_report(tmp_path)["result"]["profile"]
    want = _row_writer_bytes("rho,eta", zip(p["radii"], p["eta_values"]))
    assert (tmp_path / "eta_profile.csv").read_bytes() == want
    job = {"map": "complex_exp", "command": "star", "directions": [[1.0, 0.0], [0.0, -1.0]],
           "t_budget": 5.0}
    assert run_job(job, out_override=tmp_path) == 0
    rays = _read_report(tmp_path)["result"]["rays"]
    rows = [(*r["direction"], r["reach"], r["reason"]) for r in rays]
    want = _row_writer_bytes("d_1,d_2,reach,reason", rows)
    assert (tmp_path / "star_reach.csv").read_bytes() == want


def test_star_csv(tmp_path):
    job = {
        "map": "arctan1d",
        "command": "star",
        "seed_point": [0.0],
        "t_budget": 2.0,
    }
    assert run_job(job, out_override=tmp_path) == 0
    lines = (tmp_path / "star_reach.csv").read_text().splitlines()
    assert lines[0] == "d_1,reach,reason"
    assert len(lines) == 3
    for line in lines[1:]:
        d, reach, reason = line.split(",")
        assert abs(float(reach) - np.pi / 2) <= 1e-2
        assert reason in ("Singular", "Escaped")
    rep = _read_report(tmp_path)
    rays = rep["result"]["rays"]
    assert len(rays) == 2
    # each ray records why its lift stopped; the reach is its stop time
    for ray in rays:
        assert ray["status"]["kind"] in ("Singular", "StepFailure", "Escaped")
        assert ray["reach"] == ray["status"]["t"] * 2.0


def test_star_huge_budget_one_lift_per_ray(tmp_path, monkeypatch):
    """A budget near the float limit ends after one lift_lines call with
    one lane per ray."""
    calls = []
    lift = solver.lift_lines

    def counted(model, x0, W, opts=None):
        calls.append(len(W))
        return lift(model, x0, W, opts)

    monkeypatch.setattr(solver, "lift_lines", counted)
    job = {"map": "complex_exp", "command": "star", "t_budget": 1e308}
    assert run_job(job, out_override=tmp_path) == 0
    rays = _read_report(tmp_path)["result"]["rays"]
    assert calls == [len(rays)] == [4]


def test_star_huge_budget_is_silent(tmp_path):
    """Stages that overflow on a huge target are rejected without a
    RuntimeWarning."""
    job = {"map": "complex_exp", "command": "star", "t_budget": 1e308}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_job(job, out_override=tmp_path) == 0
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("scale", [1e200, 1e-200], ids=["overflow", "underflow"])
def test_star_direction_norm_out_of_float_range(scale, tmp_path):
    """A direction whose norm overflows or underflows is divided by its
    largest component before it is normalised."""
    job = {"map": "identity_2", "command": "star", "directions": [[scale, scale]], "t_budget": 1.0}
    assert run_job(job, out_override=tmp_path) == 0
    (ray,) = _read_report(tmp_path)["result"]["rays"]
    assert ray["direction"] == pytest.approx([np.sqrt(0.5)] * 2, rel=1e-15)


# ---------------------------------------------------------------------------
# fibre and diagnose jobs


def test_fibre_loop_job(tmp_path):
    job = {
        "map": "complex_exp",
        "command": "fibre",
        "y": [1.0, 0.0],
        "loop": [[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        "max_points": 3,
    }
    assert run_job(job, out_override=tmp_path) == 0
    res = _read_report(tmp_path)["result"]
    assert len(res["points"]) == 3
    for k, pt in enumerate(res["points"]):
        assert np.allclose(pt, [0.0, 2.0 * np.pi * k], atol=1e-6)
    assert res["discreteness_gap"] == pytest.approx(2.0 * np.pi, abs=1e-3)


def test_fibre_loop_job_with_seed_point(tmp_path):
    """The loop starts from the given fibre point, here the second sheet."""
    job = {
        "map": "complex_exp",
        "command": "fibre",
        "y": [1.0, 0.0],
        "loop": [[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        "seed_point": [0.0, 2.0 * np.pi],
        "max_points": 3,
    }
    assert run_job(job, out_override=tmp_path) == 0
    res = _read_report(tmp_path)["result"]
    assert len(res["points"]) == 3
    for k, pt in enumerate(res["points"]):
        assert np.allclose(pt, [0.0, 2.0 * np.pi * (k + 1)], atol=1e-6)
    assert len(res["monodromy_shifts"]) == 2
    for shift in res["monodromy_shifts"]:
        assert np.allclose(shift, [0.0, 2.0 * np.pi], atol=1e-6)


def test_diagnose_job(tmp_path):
    job = {
        "map": "arctan1d",
        "command": "diagnose",
        "x0": [0.0],
        "r": 10.0,
        "grid_size": 512,
    }
    assert run_job(job, out_override=tmp_path) == 0
    res = _read_report(tmp_path)["result"]
    ids = [c["condition_id"] for c in res["conditions"]]
    assert ids == ["C8", "C10", "C14", "C15", "C17", "C22", "PS"]
    by_id = {c["condition_id"]: c for c in res["conditions"]}
    assert by_id["C10"]["verdict"] == "Fails"
    assert by_id["C22"]["verdict"] == "Fails"
    assert by_id["C17"]["verdict"] == "Fails"
    assert res["profile"]["certified"] is True
    assert (tmp_path / "eta_profile.csv").exists()


def test_diagnose_exp_overflow_is_silent(tmp_path):
    """Far-out exp1d samples overflow to +inf and fail the level test
    without a RuntimeWarning: around x0 = 3 the C17 balls reach out to
    128 (1 + e^3), far past the overflow at 709.8."""
    job = {"map": "exp1d", "command": "diagnose", "x0": [3.0], "r": 3}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_job(job, out_override=tmp_path) == 0
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("name", ["arctan1d", "asinh1d"])
@pytest.mark.parametrize("r", [1e300, 1e308])
def test_certified_profile_of_a_huge_radius_exits_0(name, r, tmp_path):
    """The bound 1 / (1 + rho^2) squared rho as a Python float, which raises
    OverflowError beyond about 1.3e154 (exit 3); the array bound reads 0
    there, without a RuntimeWarning."""
    job = {"map": name, "command": "indicators", "x0": [0.0], "r": r, "grid_size": 8}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_job(job, out_override=tmp_path) == 0
    assert [str(w.message) for w in caught] == []
    assert _read_report(tmp_path)["result"]["profile"]["eta_values"] == [1.0] + [0.0] * 8


@pytest.mark.parametrize("job, code", [
    ({"map": "complex_exp", "command": "diagnose", "r": 700}, 0),
    ({"map": "complex_exp", "command": "indicators", "r": 1e6, "mode": "sampled"}, 3),
], ids=["diagnose-r700", "sampled-indicators-r1e6"])
def test_sampled_checks_where_the_map_overflows_are_silent(job, code, tmp_path, capsys):
    """Samples where exp overflows (to inf, or to inf * 0 = NaN) are dropped
    by the diagnostics and reported NonFinite by a sampled profile, with
    warnings as errors: a RuntimeWarning would fail the job instead."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_job(job, out_override=tmp_path) == code
    if code:
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "NonFinite"
        assert _read_report(tmp_path)["result"]["error"]["type"] == "NonFinite"


def test_diagnose_at_an_overflowing_x0_exits_3_non_finite(tmp_path, capsys):
    """exp overflows at x0 = (1e300, 0), so f(x0) is not finite: the job
    exits 3 NonFinite, and stderr holds that error line alone, no
    RuntimeWarning (which the test's warnings-as-errors would turn into
    the job's error)."""
    job = {"map": "complex_exp", "command": "diagnose", "x0": [1e300, 0.0], "r": 1.0}
    assert run_job(job, out_override=tmp_path) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"]["type"] == "NonFinite"


def test_certify_at_an_overflowing_x0_exits_3_non_finite(tmp_path, capsys):
    """f(x0) overflows at x0 = (1e300, 0), where the profile's radius is
    also 0: certify exits 3 NonFinite, as indicators and diagnose do, not
    ZeroRadius, and without a RuntimeWarning."""
    job = {"map": "complex_exp", "command": "certify", "x0": [1e300, 0.0], "r": 1.0}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_job(job, out_override=tmp_path) == 3
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "NonFinite"


def test_diagnose_identity_10_finds_its_sublevel_sets(tmp_path):
    """C17 samples balls of radius (1 + |y0|) 2^j from j = -1: in ten
    dimensions the cubes it sampled from half width 1 put about 0.6 of
    their 256 points inside the unit ball, and the job exited 3 with
    EmptySublevel."""
    job = {"map": "identity_10", "command": "diagnose", "r": 1.0, "grid_size": 8}
    assert run_job(job, out_override=tmp_path) == 0
    by_id = {c["condition_id"]: c for c in _read_report(tmp_path)["result"]["conditions"]}
    levels = by_id["C17"]["evidence"]["levels"]
    assert [lv["level"] for lv in levels] == [1.0, 2.0]
    assert all(lv["hits"] >= 256 and lv["inf_estimate"] == 1.0 for lv in levels)
    assert by_id["C17"]["verdict"] == "HeuristicPass"


_SAMPLED_CHECKS = ("mu_profile", "expansive_estimate", "plastock_check", "katriel_check",
                   "weighted_certificate", "ps_direction_scan")


@pytest.mark.parametrize("name", list_map_names())
def test_diagnose_draws_once_per_sampled_check(name, tmp_path, monkeypatch):
    """Each sampled check of a diagnose job, and its sampled profile, makes
    one Sobol draw and slices it, where the ladder drew once per box,
    radius and direction."""
    draws = collections.Counter()
    sobol = indicators._sobol

    def counted(*args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_code.co_name not in _SAMPLED_CHECKS:
            frame = frame.f_back
        draws[frame.f_code.co_name] += 1
        return sobol(*args, **kwargs)

    monkeypatch.setattr(indicators, "_sobol", counted)
    monkeypatch.setattr(certificates, "_sobol", counted)
    job = {"map": name, "command": "diagnose", "mode": "sampled", "seed": 3}
    if name == "linear":
        job["matrix"] = [[1.1, 0.2], [-0.1, 0.9]]
    assert run_job(job, out_override=tmp_path) == 0
    # weighted_certificate's two test targets are signed axes, drawn from no
    # sequence; katriel_check draws nothing when the witness settles every level
    assert draws <= collections.Counter(mu_profile=1, expansive_estimate=1, plastock_check=1,
                                        katriel_check=1, ps_direction_scan=1)
    assert draws["mu_profile"] == draws["expansive_estimate"] == draws["ps_direction_scan"] == 1


def test_diagnose_map_error_exits_3(tmp_path, capsys, monkeypatch):
    """A map that raises outside |x| <= 2 fails a diagnose job whose ladder
    samples beyond that ball: exit 3 and a report naming the error."""
    def f(x):
        if np.linalg.norm(x) > 2.0:
            raise ValueError("outside the domain")
        return x.copy()

    entry = RegistryEntry(MapModel(name="ball_only", n=2, m=2, eval_fn=f))
    monkeypatch.setattr(cli, "registry_entry", lambda name: entry)
    job = {"map": "ball_only", "command": "diagnose", "r": 1.0, "grid_size": 8}
    assert run_job(job, out_override=tmp_path) == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValueError"
    assert _read_report(tmp_path)["result"]["error"] == {
        "type": "ValueError",
        "message": "outside the domain",
    }


# ---------------------------------------------------------------------------
# determinism


def test_rerun_is_reproducible(tmp_path):
    job = {
        "map": "monotone1d",
        "command": "indicators",
        "x0": [0.0],
        "r": 3.0,
        "mode": "sampled",
        "seed": 7,
    }
    assert run_job(job, out_override=tmp_path) == 0
    first_report = _strip_timestamp((tmp_path / "report.json").read_text())
    first_csvs = {
        p.name: p.read_bytes() for p in sorted(tmp_path.glob("*.csv"))
    }
    assert first_csvs
    assert run_job(job, out_override=tmp_path) == 0
    assert _strip_timestamp((tmp_path / "report.json").read_text()) == first_report
    for p in sorted(tmp_path.glob("*.csv")):
        assert p.read_bytes() == first_csvs[p.name]


def test_certify_rerun_is_reproducible(tmp_path):
    # 64 verification targets: the sweep runs as one lockstep lift_lines call
    job = {"map": "complex_exp", "command": "certify", "r": 1.1, "grid_size": 1024,
           "verify_targets": 64, "seed": 7}
    runs = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert run_job(job, out_override=out) == 0
        report = json.loads((out / "report.json").read_text())
        del report["timestamp"], report["job"]["output_dir"]
        runs.append((report, {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}))
    assert runs[0][0]["result"]["verification"]["inside"] == 64
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# report layout: the report writer against json.dumps, and the report
# against the profile CSVs


def _dumps(v) -> str:
    return json.dumps(v, sort_keys=True, indent=2, allow_nan=False)


class _Floats(list):
    """Finite floats that _write_report gets as a formatted cli._Cells array."""


def _with_arrays(v, array):
    """v with each _Floats list in it replaced by array(that list)."""
    if isinstance(v, _Floats):
        return array(v)
    if isinstance(v, dict):
        return {key: _with_arrays(item, array) for key, item in v.items()}
    if isinstance(v, (list, tuple)):
        return type(v)(_with_arrays(item, array) for item in v)
    return v


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e-7, 1e16]),
)
_INTS = st.one_of(st.integers(-(2**80), 2**80), st.sampled_from([2**63, -(2**63) - 1, 10**30]))
_TEXT = st.one_of(st.text(max_size=8), st.sampled_from(["", "\x00\x1f\x7f", '\t"\\\n\r\b\f', "é€", "😀 "]))
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _TEXT)
_KEYS = st.one_of(_TEXT, _INTS, _FLOATS, st.booleans(), st.none())
_JSON_VALUES = st.recursive(
    st.one_of(_SCALARS, st.lists(_FLOATS, max_size=6).map(_Floats)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
        st.dictionaries(_KEYS, inner, max_size=3),  # mixed key types: sorting may raise
    ),
    max_leaves=24,
)


def _outcome(write, v):
    """write(v), or the type and message of the error it raises."""
    try:
        return write(v)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _written(v) -> str:
    """report.json as _write_report writes it with v as the result."""
    with tempfile.TemporaryDirectory() as tmp:
        cli._write_report(Path(tmp), {}, v)
        return (Path(tmp) / "report.json").read_bytes().decode("ascii")


def _check_report_writer(v):
    """_write_report writes a report with v as its result, where each
    _Floats list in v is a formatted cli._Cells array, as json.dumps(report,
    sort_keys=True, indent=2, allow_nan=False) + "\\n" writes the report
    with those arrays as lists of their floats; on a v json cannot write,
    it raises what json.dumps raises.  Returns the written text or the
    error's type and message."""
    got = _outcome(_written, _with_arrays(v, cli._Cells))
    timestamp = json.loads(got)["timestamp"] if isinstance(got, str) else ""
    report = {"schema_version": cli.SCHEMA_VERSION, "timestamp": timestamp, "job": {}}
    assert got == _outcome(lambda result: _dumps({**report, "result": result}) + "\n", _with_arrays(v, list))
    return got


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(_JSON_VALUES)
@example([_Floats([]), [_Floats([2.5])], {"c": _Floats([0.0, -0.0])}])
@example({"a": _Floats([1.0]), "b": -np.inf})  # an error after an array
def test_report_writer_is_json_dumps(v):
    """Any JSON value, with formatted arrays at any depth."""
    _check_report_writer(v)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.lists(_FLOATS, max_size=6), _JSON_VALUES)
def test_report_writer_joins_formatted_cells(values, other):
    """Cells formatted once render as the list of their floats does, beside
    any other JSON value."""
    _check_report_writer({"a": other, "cells": [_Floats(values)]})


@pytest.mark.parametrize("bad",[np.nan, np.inf, -np.inf, np.float64(np.nan)])
@pytest.mark.parametrize(
    "place",
    [lambda b: b, lambda b: [1.0, {"a": b}], lambda b: {b: 1}, lambda b: ({"a": [1.0, b, np.nan]},)],
    ids=["top", "nested", "key", "first-of-two"],
)
def test_report_writer_rejects_non_finite(bad, place):
    assert _check_report_writer(place(bad))[0] is ValueError


@pytest.mark.parametrize("v", [np.int64(3), [1, {"a": np.int64(3)}], np.array([1.0]), {(1, 2): 0}, {1.0, 2.0}])
def test_report_writer_rejects_other_types(v):
    assert _check_report_writer(v)[0] is TypeError


_LAYOUT_JOBS = [
    (0, {"map": "arctan1d", "command": "indicators", "x0": [0.0], "r": 3.0, "grid_size": 64}),
    (0, {"map": "monotone1d", "command": "indicators", "x0": [0.0], "r": 3.0, "grid_size": 32,
         "mode": "sampled", "sample_count": 8, "seed": 7}),
    (0, {"map": "identity_2", "command": "certify", "r": 1.0, "grid_size": 64, "verify_targets": 8}),
    (0, {"map": "arctan1d", "command": "diagnose", "x0": [0.0], "r": 10.0, "grid_size": 64}),
    (0, {"map": "monotone1d", "command": "solve", "y": [7.0]}),
    (0, {"map": "complex_exp", "command": "star", "directions": [[1.0, 0.0], [0.0, -1.0]], "t_budget": 5.0}),
    (0, {"map": "complex_exp", "command": "fibre", "y": [1.0, 0.0],
         "loop": [[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], "max_points": 3}),
    # |grad F| = |J^T r| at the seed is past the largest float: NonFinite
    (3, {"map": "linear", "command": "solve", "matrix": [[1.0], [2.0]], "y": [1e308, 1.7e308]}),
]


def _hex(values) -> list:
    return [float.hex(float(v)) for v in values]


@pytest.mark.parametrize("code, job", _LAYOUT_JOBS, ids=[f"{j['command']}-{j['map']}" for _, j in _LAYOUT_JOBS])
def test_report_layout_and_profile_csvs(code, job, tmp_path, capsys):
    """Each report is json.dumps(sort_keys=True, indent=2) of itself, in
    ASCII with "\\n" line ends, and the profile CSVs hold its numbers bit for
    bit: the eta profile's columns are the report's radii and eta_values,
    and the last rho of an indicators job is its rho_at_r."""
    out = tmp_path / 'out "dir" é'  # free text the report must escape
    assert run_job(dict(job), out_override=out) == code
    data = (out / "report.json").read_bytes()
    text = data.decode("ascii")
    assert "\r" not in text
    report = json.loads(text)
    assert text == _dumps(report) + "\n"
    assert report["job"]["output_dir"] == str(out)
    if code == 3:
        assert report["result"]["error"]["type"] == "NonFinite"
    profile = report["result"].get("profile")
    assert (profile is not None) == (job["command"] in ("indicators", "certify", "diagnose"))
    if profile is None:
        assert not (out / "eta_profile.csv").exists()
        return
    header, *rows = (out / "eta_profile.csv").read_text().splitlines()
    assert header == "rho,eta"
    radii, eta = zip(*(map(float, row.split(",")) for row in rows))
    assert _hex(radii) == _hex(profile["radii"]) and _hex(eta) == _hex(profile["eta_values"])
    header, *rows = (out / "rho_curve.csv").read_text().splitlines()
    assert header == "r,rho" and len(rows) == len(radii) - 1
    last_r, last_rho = map(float, rows[-1].split(","))
    assert _hex([last_r]) == _hex(radii[-1:])
    if job["command"] == "indicators":
        assert _hex([last_rho]) == _hex([report["result"]["rho_at_r"]])


# ---------------------------------------------------------------------------
# main() and the installed entry point


def test_main_run_and_out_override(tmp_path):
    job_file = tmp_path / "job.json"
    job_file.write_text(
        json.dumps({"map": "identity_2", "command": "solve", "y": [1.0, 2.0]})
    )
    out = tmp_path / "results"
    assert main(["run", str(job_file), "--out", str(out)]) == 0
    rep = _read_report(out)
    assert rep["result"]["solution"] == pytest.approx([1.0, 2.0])
    assert rep["job"]["output_dir"] == str(out)


def test_main_bad_job_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", str(missing)]) == 2
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    assert main(["run", str(garbled)]) == 2
    err_lines = capsys.readouterr().err.strip().splitlines()
    for line in err_lines:
        assert json.loads(line)["exit_code"] == 2


# a job file json cannot decode, or a path the OS cannot take, is an invalid
# job (exit 2), never a traceback
@pytest.mark.parametrize(
    "data",
    [
        b'{"map": "identity_2", "command": "solve", "y": [1.0, 2.0], "note": "caf\xe9"}',
        b'{"map": "identity_2", "command": "solve", "y": [1.0, 2.0], "seed": 1' + b"0" * 4300 + b"}",
        b"[" * 100000,
    ],
    ids=["not-utf8", "integer-over-4300-digits", "nested-too-deep"],
)
def test_main_undecodable_job_file_exits_2(data, tmp_path, capsys):
    job_file = tmp_path / "job.json"
    job_file.write_bytes(data)
    out = tmp_path / "out"
    assert main(["run", str(job_file), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["exit_code"] == 2
    assert not out.exists()


@pytest.mark.parametrize("where", ["output_dir", "--out"])
def test_output_dir_with_nul_exits_2(where, tmp_path, capsys):
    out = str(tmp_path / "a\x00b")
    job = {"map": "identity_2", "command": "solve", "y": [1.0, 2.0]}
    if where == "output_dir":
        assert run_job({**job, "output_dir": out}) == 2
    else:
        assert run_job(job, out_override=out) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2 and err["error"]["type"] == "ValueError"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "job",
    [{"map": "identity_2", "command": "solve", "y": [1.0, 2.0]}, {"map": "arctan1d", "command": "solve", "y": [2.0]}],
    ids=["exit-0-job", "exit-3-job"],
)
def test_unwritable_report_exits_2(job, tmp_path, capsys):
    """A report.json that cannot be written, here because a directory holds
    its name, makes the output directory unusable: exit 2."""
    (tmp_path / "report.json").mkdir()
    assert run_job(job, out_override=tmp_path) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2 and err["error"]["type"] == "IsADirectoryError"


# the CLI contract over fuzzed job files: small jobs whose outer fields are
# dropped or replaced, written in other encodings, mutated byte by byte, or
# replaced by random bytes
_CONTRACT_JOBS = [
    {"map": "arctan1d", "command": "indicators", "x0": [0.0], "r": 3.0, "grid_size": 8},
    {"map": "monotone1d", "command": "certify", "r": 1.0, "grid_size": 8, "verify_targets": 2},
    {"map": "arctan1d", "command": "diagnose", "r": 2.0, "grid_size": 8},
    {"map": "identity_2", "command": "solve", "y": [1.0, 2.0]},
    {"map": "arctan1d", "command": "solve", "y": [2.0]},
    {"map": "complex_exp", "command": "star", "directions": [[1.0, 0.0]], "t_budget": 2.0},
    {"map": "complex_exp", "command": "fibre", "y": [1.0, 0.0], "seeds": [[0.0, 0.0]], "max_points": 1},
    {"map": "linear", "command": "solve", "matrix": [[1.0], [2.0]], "y": [1e160, 2e160]},
]
_HUGE = "\ue000"  # stands for an integer literal of 5000 digits in the job file
# no value holds a "/" or "..": a relative output_dir stays in the test's directory
_ODD = st.sampled_from([None, True, -1, 0.5, 7, "", "nope", "é", "a\x00b", [], {}, [1.0], _HUGE])
_OUTER = {
    "map": st.one_of(st.sampled_from(["arctan1d", "identity_2", "complex_exp", "linear", "unknown", "identity_2\x00"]), _ODD),
    "command": st.one_of(st.sampled_from(list(cli._SPECS)), _ODD),
    "seed": st.one_of(st.integers(-3, 3), _ODD),
    "parameters": st.one_of(
        st.dictionaries(st.sampled_from(["r", "grid_size", "x0", "y", "sample_count", "mode"]), _ODD, max_size=2),
        _ODD,
    ),
    "output_dir": _ODD,
}


@st.composite
def _job_files(draw):
    """(job, the bytes of its file, whether the file holds that job as it is)."""
    job = dict(draw(st.sampled_from(_CONTRACT_JOBS)))
    for field in draw(st.lists(st.sampled_from(sorted(_OUTER)), max_size=3, unique=True)):
        if draw(st.booleans()):
            job.pop(field, None)
        else:
            job[field] = draw(_OUTER[field])
    text = json.dumps(job, ensure_ascii=False).replace(json.dumps(_HUGE, ensure_ascii=False), "9" * 5000)
    form = draw(st.sampled_from(["utf-8", "utf-16", "latin-1", "mutated", "random"]))
    if form == "random":
        return job, draw(st.binary(max_size=64)), False
    data = text.encode("utf-8" if form == "mutated" else form, errors="replace")
    if form == "mutated":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(max_size=3)) + data[at + draw(st.integers(0, 3)):]
    return job, data, form != "mutated"


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_job_files(), st.sampled_from([None, "out", "o\x00ut"]))
def test_main_keeps_the_exit_contract(job_file, out):
    """main exits 0, 2, 3 or 4 on any job file and raises nothing; a failure
    prints a JSON error naming its exit code, and exit 3 leaves a report.json.
    Jobs run in a fresh working directory; a mutated or random file always
    gets --out, so its bytes cannot name a directory outside it."""
    job, data, exact = job_file
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("job.json").write_bytes(data)
            argv = ["run", "job.json"]
            if out is not None or not exact:
                argv += ["--out", out or "out"]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3, 4)
            if code:
                assert json.loads(err.getvalue().splitlines()[-1])["exit_code"] == code
            if code == 3:
                out_dir = argv[-1] if "--out" in argv else job.get("output_dir", ".")
                json.loads((Path(out_dir) / "report.json").read_text())
        finally:
            os.chdir(cwd)


def test_main_list_maps(capsys):
    assert main(["list-maps"]) == 0
    names = capsys.readouterr().out.split()
    for expected in ("identity_1", "identity_2", "arctan1d", "monotone1d", "linear"):
        assert expected in names


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "globinv", "list-maps"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "complex_exp" in proc.stdout.split()

    job_file = tmp_path / "job.json"
    job_file.write_text(
        json.dumps(
            {
                "map": "linear",
                "command": "indicators",
                "matrix": [[2.0, 0.0], [0.0, 0.5]],
                "x0": [0.0, 0.0],
                "r": 1.0,
            }
        )
    )
    out = tmp_path / "res"
    proc = subprocess.run(
        [sys.executable, "-m", "globinv", "run", str(job_file), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["result"]["sur_at_x0"] == pytest.approx(0.5)
    assert rep["job"]["parameters"]["matrix"] == [[2.0, 0.0], [0.0, 0.5]]
