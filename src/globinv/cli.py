"""Batch front door: run jobs described by a JSON file.

    globinv run job.json [--out DIR]
    globinv list-maps

A job names a registered map and one of six commands (indicators, certify,
solve, star, fibre, diagnose) with command-specific parameters.  Each run
writes report.json (schema version "1") plus CSV plot data into the output
directory.  Reruns with the same seed are byte-identical apart from the
timestamp field.

Exit codes: 0 success, 2 invalid job, 3 numerical failure, 4 unknown map.
Failures also print a JSON error object to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .certificates import build_diagnostics, graves_certificate
from .errors import GlobinvError, JobValidationError, UnknownMap
from .indicators import (
    fredholm_data,
    inj_indicator,
    mu_profile,
    rho_of_r,
    sur_indicator,
)
from .lifting import LiftOptions
from .maps import (
    RegistryEntry,
    evaluate,
    jacobian,
    linear_entry,
    list_map_names,
    registry_entry,
)
from .solver import fibre_enumerate, solve, star_probe

SCHEMA_VERSION = "1"

_COMMANDS = ("indicators", "certify", "solve", "star", "fibre", "diagnose")

_TOP_FIELDS = {"map", "command", "parameters", "output_dir", "seed"}

_OPTS_FIELDS = {
    "rel_tol",
    "abs_tol",
    "mu_floor",
    "r_escape",
    "max_steps",
    "record_stride",
}

_PARAM_FIELDS = {
    "indicators": {"x0", "r", "grid_size", "mode", "indicator_kind", "sample_count"},
    "certify": {"x0", "r", "grid_size", "mode", "sample_count", "verify_targets", "opts"},
    "solve": {"y", "seed_point", "strategy", "opts"},
    "star": {"seed_point", "directions", "t_budget", "rel_tol", "opts"},
    "fibre": {"y", "seeds", "loop", "seed_point", "max_points", "opts"},
    "diagnose": {"x0", "r", "grid_size", "mode", "levels", "weight", "sample_count", "opts"},
}

_WEIGHTS = {
    "unit": (lambda rho: 1.0, True),
    "one_plus_rho": (lambda rho: 1.0 + rho, True),
    "one_plus_rho_sq": (lambda rho: (1.0 + rho) ** 2, False),
}


def _fail(msg: str) -> JobValidationError:
    return JobValidationError(msg)


def _is_number(v) -> bool:
    """A finite JSON number.  json parses NaN and Infinity, and integers of
    any size; none of those is a valid job number."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


def _check_vector(v, what: str) -> list:
    if not isinstance(v, list) or not v or not all(_is_number(c) for c in v):
        raise _fail(f"{what} must be a non-empty list of numbers")
    return [float(c) for c in v]


def _check_vector_list(v, what: str) -> list:
    if not isinstance(v, list) or not v:
        raise _fail(f"{what} must be a non-empty list of vectors")
    return [_check_vector(row, f"{what}[{i}]") for i, row in enumerate(v)]


def _resolve_map(raw: dict) -> RegistryEntry:
    name = raw.get("map")
    if not isinstance(name, str):
        raise _fail("field 'map' is required and must be a string")
    if name == "linear":
        params = raw.get("parameters")
        matrix = None
        if isinstance(params, dict):
            matrix = params.get("matrix")
        if matrix is None:
            matrix = raw.get("matrix")
        if matrix is None:
            raise _fail("map 'linear' needs a 'matrix' parameter (list of rows)")
        rows = _check_vector_list(matrix, "matrix")
        if len({len(r) for r in rows}) != 1:
            raise _fail("matrix rows must all have the same length")
        return linear_entry(rows)
    return registry_entry(name)


def _validate_job(raw: dict, entry: RegistryEntry) -> dict:
    if not isinstance(raw, dict):
        raise _fail("job must be a JSON object")
    command = raw.get("command")
    if command not in _COMMANDS:
        raise _fail(f"field 'command' must be one of {list(_COMMANDS)}")
    allowed = _PARAM_FIELDS[command] | ({"matrix"} if raw.get("map") == "linear" else set())

    params = raw.get("parameters", {})
    if not isinstance(params, dict):
        raise _fail("field 'parameters' must be an object")
    params = dict(params)
    for key in list(raw.keys()):
        if key in _TOP_FIELDS:
            continue
        if key in allowed:
            if key in params:
                raise _fail(f"parameter {key!r} given both inline and in 'parameters'")
            params[key] = raw[key]
        else:
            raise _fail(f"unknown field {key!r} for command {command!r}")
    for key in params:
        if key not in allowed:
            raise _fail(f"unknown parameter {key!r} for command {command!r}")

    output_dir = raw.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise _fail("field 'output_dir' must be a string")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise _fail("field 'seed' must be an integer")

    model = entry.model
    out = {
        "map": raw["map"],
        "command": command,
        "parameters": {},
        "output_dir": output_dir,
        "seed": seed,
    }
    p = out["parameters"]
    if raw.get("map") == "linear" and "matrix" in params:
        p["matrix"] = _check_vector_list(params["matrix"], "matrix")

    def vec_param(key, default=None, dim=None):
        if key in params:
            v = _check_vector(params[key], key)
        elif default is not None:
            v = [float(c) for c in default]
        else:
            raise _fail(f"command {command!r} requires parameter {key!r}")
        if dim is not None and len(v) != dim:
            raise _fail(f"parameter {key!r} must have length {dim}")
        return v

    def num_param(key, default, positive=True):
        v = params.get(key, default)
        if not _is_number(v) or (positive and not v > 0):
            raise _fail(f"parameter {key!r} must be a positive number")
        return float(v)

    def int_param(key, default, minimum=1):
        v = params.get(key, default)
        if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
            raise _fail(f"parameter {key!r} must be an integer >= {minimum}")
        return v

    def mode_param():
        default = "certified" if model.mu_bound is not None else "sampled"
        v = params.get("mode", default)
        if v not in ("certified", "sampled"):
            raise _fail("parameter 'mode' must be 'certified' or 'sampled'")
        return v

    def opts_param():
        v = params.get("opts", {})
        if not isinstance(v, dict):
            raise _fail("parameter 'opts' must be an object")
        for key, val in v.items():
            if key not in _OPTS_FIELDS:
                raise _fail(f"unknown lift option {key!r}")
            if key in ("max_steps", "record_stride"):
                if not isinstance(val, int) or isinstance(val, bool) or val < 1:
                    raise _fail(f"lift option {key!r} must be a positive integer")
            elif not _is_number(val) or not val > 0:
                raise _fail(f"lift option {key!r} must be a positive number")
        return dict(v)

    default_x0 = (
        list(model.base_point) if model.base_point is not None else [0.0] * model.n
    )

    if command == "indicators":
        p["x0"] = vec_param("x0", default_x0, model.n)
        p["r"] = num_param("r", 1.0)
        p["grid_size"] = int_param("grid_size", 256)
        p["mode"] = mode_param()
        kind = params.get("indicator_kind", "sur")
        if kind not in ("inj", "sur"):
            raise _fail("parameter 'indicator_kind' must be 'inj' or 'sur'")
        p["indicator_kind"] = kind
        p["sample_count"] = int_param("sample_count", 64)
    elif command == "certify":
        p["x0"] = vec_param("x0", default_x0, model.n)
        p["r"] = num_param("r", 1.0)
        p["grid_size"] = int_param("grid_size", 1024)
        p["mode"] = mode_param()
        p["sample_count"] = int_param("sample_count", 64)
        p["verify_targets"] = int_param("verify_targets", 0, minimum=0)
        p["opts"] = opts_param()
    elif command == "solve":
        p["y"] = vec_param("y", dim=model.m)
        p["seed_point"] = vec_param("seed_point", default_x0, model.n)
        strategy = params.get("strategy", "auto")
        if not isinstance(strategy, str):
            raise _fail("parameter 'strategy' must be a string")
        p["strategy"] = strategy
        p["opts"] = opts_param()
    elif command == "star":
        p["seed_point"] = vec_param("seed_point", default_x0, model.n)
        if "directions" in params:
            dirs = _check_vector_list(params["directions"], "directions")
            if any(len(d) != model.m for d in dirs):
                raise _fail(f"each direction must have length {model.m}")
            p["directions"] = dirs
        else:
            p["directions"] = None
        p["t_budget"] = num_param("t_budget", 10.0)
        p["rel_tol"] = num_param("rel_tol", 1e-3)
        p["opts"] = opts_param()
    elif command == "fibre":
        p["y"] = vec_param("y", dim=model.m)
        has_seeds = "seeds" in params
        has_loop = "loop" in params
        if has_seeds == has_loop:
            raise _fail("command 'fibre' needs exactly one of 'seeds' or 'loop'")
        if has_seeds:
            seeds = _check_vector_list(params["seeds"], "seeds")
            if any(len(s) != model.n for s in seeds):
                raise _fail(f"each seed must have length {model.n}")
            p["seeds"] = seeds
        else:
            loop = _check_vector_list(params["loop"], "loop")
            if any(len(v) != model.m for v in loop):
                raise _fail(f"each loop vertex must have length {model.m}")
            p["loop"] = loop
        if "seed_point" in params:
            p["seed_point"] = vec_param("seed_point", dim=model.n)
        p["max_points"] = int_param("max_points", 8)
        p["opts"] = opts_param()
    elif command == "diagnose":
        p["x0"] = vec_param("x0", default_x0, model.n)
        p["r"] = num_param("r", 10.0)
        p["grid_size"] = int_param("grid_size", 512)
        p["mode"] = mode_param()
        levels = params.get("levels", [1.0, 2.0])
        levels = _check_vector(levels, "levels")
        if any(v <= 0 for v in levels) or any(
            b <= a for a, b in zip(levels, levels[1:])
        ):
            raise _fail("parameter 'levels' must be positive and increasing")
        p["levels"] = levels
        weight = params.get("weight", "one_plus_rho")
        if weight not in _WEIGHTS:
            raise _fail(f"parameter 'weight' must be one of {sorted(_WEIGHTS)}")
        p["weight"] = weight
        p["sample_count"] = int_param("sample_count", 64)
        p["opts"] = opts_param()
    return out


def _lift_options(p: dict) -> LiftOptions:
    opts = p.get("opts", {})
    return replace(LiftOptions(), **opts) if opts else LiftOptions()


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else repr(float(c)) for c in row))
    path.write_text("\n".join(lines) + "\n")


def _profile_csvs(profile, out_dir: Path) -> None:
    _write_csv(
        out_dir / "eta_profile.csv",
        "rho,eta",
        zip(profile.radii, profile.eta_values),
    )
    # rho at every grid radius in one pass: the right-endpoint cells summed
    # in order.  The last row is rho_of_r(r_max) itself, so it matches the
    # reported rho to the bit; the cumulative sum agrees with it to rounding.
    rho = np.cumsum(profile.eta_values[1:] * np.diff(profile.radii))
    rho[-1] = rho_of_r(profile, profile.r_max)
    _write_csv(out_dir / "rho_curve.csv", "r,rho", zip(profile.radii[1:], rho))


def _execute(job: dict, entry: RegistryEntry, out_dir: Path):
    """Run the command; returns (result dict, numerical_success flag)."""
    model = entry.model
    p = job["parameters"]
    seed = job["seed"]
    command = job["command"]

    if command == "indicators":
        x0 = np.array(p["x0"])
        profile = mu_profile(
            model,
            x0,
            p["r"],
            p["grid_size"],
            mode=p["mode"],
            sample_count=p["sample_count"],
            indicator_kind=p["indicator_kind"],
            seed=seed,
        )
        J = jacobian(model, x0)
        result = {
            "profile": profile.to_json_dict(),
            "rho_at_r": rho_of_r(profile, p["r"]),
            "inj_at_x0": inj_indicator(J),
            "sur_at_x0": sur_indicator(J),
            "fredholm_at_x0": asdict(fredholm_data(J)),
        }
        _profile_csvs(profile, out_dir)
        return result, True

    if command == "certify":
        x0 = np.array(p["x0"])
        profile = mu_profile(
            model,
            x0,
            p["r"],
            p["grid_size"],
            mode=p["mode"],
            sample_count=p["sample_count"],
            seed=seed,
        )
        cert = graves_certificate(
            model,
            x0,
            p["r"],
            profile,
            verify_targets=p["verify_targets"],
            opts=_lift_options(p),
            seed=seed,
        )
        _profile_csvs(profile, out_dir)
        ok = cert.verification is None or (
            cert.verification["inside"] == cert.verification["targets"]
        )
        return cert.to_json_dict(), ok

    if command == "solve":
        rep = solve(
            model,
            np.array(p["y"]),
            x_seed=np.array(p["seed_point"]),
            strategy=p["strategy"],
            opts=_lift_options(p),
        )
        rep.outcome.trajectory.to_csv(out_dir / "traj_0.csv")
        return rep.to_json_dict(), rep.solution is not None

    if command == "star":
        rep = star_probe(
            model,
            np.array(p["seed_point"]),
            directions=None if p["directions"] is None else np.array(p["directions"]),
            t_budget=p["t_budget"],
            opts=_lift_options(p),
            rel_tol=p["rel_tol"],
        )
        rows = [
            tuple(d) + (t, reason)
            for d, t, reason in zip(rep.directions, rep.reaches, rep.reasons)
        ]
        header = ",".join(f"d_{i+1}" for i in range(model.m)) + ",reach,reason"
        _write_csv(out_dir / "star_reach.csv", header, rows)
        return rep.to_json_dict(), True

    if command == "fibre":
        kwargs = {"max_points": p["max_points"], "opts": _lift_options(p)}
        if "seeds" in p:
            kwargs["seeds"] = [np.array(s) for s in p["seeds"]]
        else:
            kwargs["loop"] = [np.array(v) for v in p["loop"]]
        if "seed_point" in p:
            kwargs["x_seed"] = np.array(p["seed_point"])
        rep = fibre_enumerate(model, np.array(p["y"]), **kwargs)
        return rep.to_json_dict(), len(rep.points) > 0

    # diagnose
    x0 = np.array(p["x0"])
    profile = mu_profile(
        model,
        x0,
        p["r"],
        p["grid_size"],
        mode=p["mode"],
        sample_count=p["sample_count"],
        seed=seed,
    )
    weight_fn, divergent = _WEIGHTS[p["weight"]]
    report = build_diagnostics(
        model,
        x0,
        profile,
        facts=entry.facts,
        weight=weight_fn,
        weight_divergent=divergent,
        levels=p["levels"],
        opts=_lift_options(p),
        seed=seed,
    )
    _profile_csvs(profile, out_dir)
    result = report.to_json_dict()
    result["profile"] = profile.to_json_dict()
    return result, True


def _emit_error(exc: Exception, code: int) -> int:
    payload = {
        "error": {"type": type(exc).__name__, "message": str(exc)},
        "exit_code": code,
    }
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def _write_report(out_dir: Path, job: dict, result: dict) -> None:
    report = {
        "schema_version": SCHEMA_VERSION,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "job": job,
        "result": result,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    (out_dir / "report.json").write_text(text)


def run_job(raw, out_override=None) -> int:
    """Validate and execute one job dict; returns the process exit code."""
    try:
        if not isinstance(raw, dict):
            raise _fail("job must be a JSON object")
        entry = _resolve_map(raw)
    except UnknownMap as exc:
        return _emit_error(exc, 4)
    except GlobinvError as exc:
        return _emit_error(exc, 2)
    try:
        job = _validate_job(raw, entry)
    except JobValidationError as exc:
        return _emit_error(exc, 2)
    if out_override is not None:
        job["output_dir"] = str(out_override)
    out_dir = Path(job["output_dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _emit_error(exc, 2)
    try:
        result, ok = _execute(job, entry, out_dir)
    except GlobinvError as exc:
        _write_report(
            out_dir,
            job,
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
        )
        return _emit_error(exc, 3)
    _write_report(out_dir, job, result)
    if not ok:
        return _emit_error(GlobinvError("job completed without the required solution"), 3)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="globinv",
        description="Global inverse machinery: indicators, certificates, lifting solves.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    run_p = sub.add_parser("run", help="execute a JSON job file")
    run_p.add_argument("job", help="path to the job JSON file")
    run_p.add_argument("--out", default=None, help="override the job's output_dir")
    sub.add_parser("list-maps", help="list registered map names")
    args = parser.parse_args(argv)

    if args.subcommand == "list-maps":
        for name in list_map_names():
            print(name)
        return 0

    try:
        raw = json.loads(Path(args.job).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return _emit_error(exc, 2)
    return run_job(raw, out_override=args.out)


if __name__ == "__main__":
    sys.exit(main())
