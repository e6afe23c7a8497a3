import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from globinv import cli, solver
from globinv.cli import main, run_job
from globinv.indicators import MuProfile, rho_of_r
from globinv.maps import MapModel, RegistryEntry


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
    ],
)
def test_invalid_jobs_exit_2(job, tmp_path, capsys):
    assert run_job(job, out_override=tmp_path) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == 2
    assert not (tmp_path / "report.json").exists()


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
    """x = 1e160 solves the system, but the flow energy overflows at the
    seed: the job fails with a strict-JSON report instead of a converged
    verdict at an infinite level."""
    job = {"map": "linear", "command": "solve", "matrix": [[1.0], [2.0]], "y": [1e160, 2e160]}
    assert run_job(job, out_override=tmp_path) == 3
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "NonFinite"
    error = _read_report(tmp_path)["result"]["error"]
    assert error["type"] == "NonFinite" and "energy" in error["message"]


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
    """A budget near the float limit ends after one lift per ray."""
    calls = []
    lift = solver.lift_line_square

    def counted(*args, **kwargs):
        calls.append(1)
        if len(calls) > 10:
            raise RuntimeError("more than 10 lifts")
        return lift(*args, **kwargs)

    monkeypatch.setattr(solver, "lift_line_square", counted)
    job = {"map": "complex_exp", "command": "star", "t_budget": 1e308}
    assert run_job(job, out_override=tmp_path) == 0
    rays = _read_report(tmp_path)["result"]["rays"]
    assert len(calls) == len(rays) == 4


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
    """Residual norms of far-out exp1d samples overflow to +inf and fail the
    level test without a RuntimeWarning."""
    job = {"map": "exp1d", "command": "diagnose", "r": 3}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_job(job, out_override=tmp_path) == 0
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


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
