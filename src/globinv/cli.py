"""Batch front door: run jobs described by a JSON file.

    globinv run job.json [--out DIR]
    globinv list-maps

A job names a registered map and one of six commands (indicators, certify,
solve, star, fibre, diagnose) with command-specific parameters.  Each run
writes report.json (schema version "1") plus CSV plot data into the output
directory.  Reruns with the same seed are byte-identical apart from the
timestamp field.  report.json is written by json.JSONEncoder(sort_keys=True,
indent=2, allow_nan=False); the profile arrays are formatted once and written
to it and to the profile CSVs from the same strings.

Exit codes: 0 success, 2 invalid job (a job file json cannot decode, or an
output directory or report.json that cannot be written), 3 the job failed
while running (report.json names the error), 4 unknown map.  report.json is
strict JSON: a result holding a NaN or an infinity fails the job with exit 3.
Failures also print a JSON error object to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .certificates import build_diagnostics, graves_certificate
from .errors import GlobinvError, JobValidationError, StrategyMismatch, UnknownMap
from .indicators import (
    fredholm_data,
    inj_indicator,
    mu_profile,
    rho_of_r,
    sur_indicator,
)
from .lifting import LiftOptions, _write_csv
from .maps import (
    MapModel,
    RegistryEntry,
    default_point,
    jacobian,
    linear_entry,
    list_map_names,
    registry_entry,
)
from .solver import _resolve_strategy, fibre_enumerate, solve, star_probe

SCHEMA_VERSION = "1"

_TOP_FIELDS = {"map", "command", "parameters", "output_dir", "seed"}

_WEIGHTS = {
    "unit": (lambda rho: 1.0, True),
    "one_plus_rho": (lambda rho: 1.0 + rho, True),
    "one_plus_rho_sq": (lambda rho: (1.0 + rho) ** 2, False),
}


def _is_number(v) -> bool:
    """A finite JSON number.  json parses NaN and Infinity, and integers of
    any size; none of those is a valid job number."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


def _vector(v, what: str) -> list:
    if not isinstance(v, list) or not v or not all(_is_number(c) for c in v):
        raise JobValidationError(f"{what} must be a non-empty list of numbers")
    return [float(c) for c in v]


def _vectors(v, what: str) -> list:
    if not isinstance(v, list) or not v:
        raise JobValidationError(f"{what} must be a non-empty list of vectors")
    return [_vector(row, f"{what}[{i}]") for i, row in enumerate(v)]


# Parameter checks: check(value, what, model) returns the value as the
# defaulted job records it, or raises JobValidationError naming `what`.


def _point(dim: str):
    """A vector of length model.n (dim "n") or model.m (dim "m")."""

    def check(v, what, model):
        v = _vector(v, what)
        if len(v) != getattr(model, dim):
            raise JobValidationError(f"{what} must have length {getattr(model, dim)}")
        return v

    return check


def _points(dim: str):
    """A non-empty list of vectors, each of length model.n or model.m."""

    def check(v, what, model):
        rows = _vectors(v, what)
        if any(len(row) != getattr(model, dim) for row in rows):
            raise JobValidationError(f"each row of {what} must have length {getattr(model, dim)}")
        return rows

    return check


def _positive(v, what, model):
    if not _is_number(v) or not v > 0:
        raise JobValidationError(f"{what} must be a positive number")
    return float(v)


def _integer(minimum: int):
    def check(v, what, model):
        if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
            raise JobValidationError(f"{what} must be an integer >= {minimum}")
        return v

    return check


def _choice(*options):
    def check(v, what, model):
        if v not in options:
            raise JobValidationError(f"{what} must be one of {list(options)}")
        return v

    return check


def _strategy(v, what, model):
    if not isinstance(v, str):
        raise JobValidationError(f"{what} must be a string")
    try:
        _resolve_strategy(model, v)
    except StrategyMismatch as exc:
        raise JobValidationError(f"{what}: {exc}") from None
    return v  # the report keeps the name as written


def _levels(v, what, model):
    levels = _vector(v, what)
    if any(x <= 0 for x in levels) or any(b <= a for a, b in zip(levels, levels[1:])):
        raise JobValidationError(f"{what} must be positive and increasing")
    return levels


_LIFT_OPTIONS = {
    "rel_tol": _positive,
    "abs_tol": _positive,
    "mu_floor": _positive,
    "r_escape": _positive,
    "max_steps": _integer(1),
    "record_stride": _integer(1),
}


def _lift_options(v, what, model):
    if not isinstance(v, dict):
        raise JobValidationError(f"{what} must be an object")
    for key, val in v.items():
        if key not in _LIFT_OPTIONS:
            raise JobValidationError(f"unknown lift option {key!r}")
        _LIFT_OPTIONS[key](val, f"lift option {key!r}", model)
    return dict(v)  # as written: the report keeps integer tolerances as integers


def _default_point(model) -> list:
    return default_point(model).tolist()


def _default_mode(model) -> str:
    return "certified" if model.mu_bound is not None else "sampled"


_REQUIRED = object()  # the job must give the parameter
_ABSENT = object()  # a parameter left out stays out of the defaulted job


def _profile_params(r: float, grid_size: int) -> dict:
    """Parameters of the commands that build an indicator profile around x0."""
    return {
        "x0": (_point("n"), _default_point),
        "r": (_positive, r),
        "grid_size": (_integer(1), grid_size),
        "mode": (_choice("certified", "sampled"), _default_mode),
        "sample_count": (_integer(1), 64),
    }


_OPTS = (_lift_options, {})
_SEED_POINT = (_point("n"), _default_point)

# command -> parameter -> (check, default).  A default is a value, a
# function of the model, _REQUIRED or _ABSENT.  A default passes the same
# check as a given value, except a default of None (star's "directions":
# the signed coordinate axes).
_SPECS = {
    "indicators": {
        **_profile_params(1.0, 256),
        "indicator_kind": (_choice("inj", "sur"), "sur"),
    },
    "certify": {
        **_profile_params(1.0, 1024),
        "verify_targets": (_integer(0), 0),
        "opts": _OPTS,
    },
    "solve": {
        "y": (_point("m"), _REQUIRED),
        "seed_point": _SEED_POINT,
        "strategy": (_strategy, "auto"),
        "opts": _OPTS,
    },
    "star": {
        "seed_point": _SEED_POINT,
        "directions": (_points("m"), None),
        "t_budget": (_positive, 10.0),
        "rel_tol": (_positive, 1e-3),  # schema "1": checked and echoed, not used
        "opts": _OPTS,
    },
    "fibre": {
        "y": (_point("m"), _REQUIRED),
        "seeds": (_points("n"), _ABSENT),
        "loop": (_points("m"), _ABSENT),
        "seed_point": (_point("n"), _ABSENT),
        "max_points": (_integer(1), 8),
        "opts": _OPTS,
    },
    "diagnose": {
        **_profile_params(10.0, 512),
        "levels": (_levels, [1.0, 2.0]),
        "weight": (_choice(*_WEIGHTS), "one_plus_rho"),
        "opts": _OPTS,
    },
}


def _resolve_map(raw) -> tuple:
    """The job's registry entry, and the checked matrix rows of a 'linear'
    job (None for every other map)."""
    if not isinstance(raw, dict):
        raise JobValidationError("job must be a JSON object")
    name = raw.get("map")
    if not isinstance(name, str):
        raise JobValidationError("field 'map' is required and must be a string")
    if name != "linear":
        return registry_entry(name), None
    params = raw.get("parameters")
    matrix = params.get("matrix") if isinstance(params, dict) else None
    if matrix is None:
        matrix = raw.get("matrix")
    if matrix is None:
        raise JobValidationError("map 'linear' needs a 'matrix' parameter (list of rows)")
    rows = _vectors(matrix, "parameter 'matrix'")
    if len({len(r) for r in rows}) != 1:
        raise JobValidationError("matrix rows must all have the same length")
    return linear_entry(rows), rows


def _validate_job(raw: dict, model: MapModel, matrix) -> dict:
    """The fully defaulted job: every parameter of the command checked
    against _SPECS, and given inline or under 'parameters'."""
    command = raw.get("command")
    if not isinstance(command, str) or command not in _SPECS:
        raise JobValidationError(f"field 'command' must be one of {list(_SPECS)}")
    params = raw.get("parameters", {})
    if not isinstance(params, dict):
        raise JobValidationError("field 'parameters' must be an object")
    params = dict(params)
    for key, value in raw.items():
        if key not in _TOP_FIELDS:
            if key in params:
                raise JobValidationError(f"parameter {key!r} given both inline and in 'parameters'")
            params[key] = value
    for key in params:
        if key not in _SPECS[command] and not (key == "matrix" and matrix is not None):
            raise JobValidationError(f"unknown parameter {key!r} for command {command!r}")

    output_dir = raw.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise JobValidationError("field 'output_dir' must be a string")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise JobValidationError("field 'seed' must be a non-negative integer")

    p = {} if matrix is None else {"matrix": matrix}
    for key, (check, default) in _SPECS[command].items():
        what = f"parameter {key!r}"
        if key in params:
            p[key] = check(params[key], what, model)
        elif default is _REQUIRED:
            raise JobValidationError(f"command {command!r} requires {what}")
        elif default is not _ABSENT:
            value = default(model) if callable(default) else default
            p[key] = None if value is None else check(value, what, model)
    if command == "fibre" and ("seeds" in p) == ("loop" in p):
        raise JobValidationError("command 'fibre' needs exactly one of 'seeds' or 'loop'")
    if (command == "star" or "loop" in p) and model.n != model.m:
        raise JobValidationError("a star probe or a fibre loop needs a square map")
    if command == "star" and p["directions"] and not all(map(any, p["directions"])):
        raise JobValidationError("parameter 'directions' must not hold a zero direction")
    return {
        "map": raw["map"],
        "command": command,
        "parameters": p,
        "output_dir": output_dir,
        "seed": seed,
    }


class _Cells:
    """Finite floats formatted once by float.__repr__: .text is a CSV column
    as it is, and _write_report writes a JSON array of those numbers."""

    def __init__(self, values):
        self.text = list(map(float.__repr__, values))


def _profile_csvs(profile, out_dir: Path, radii: _Cells, eta: _Cells) -> None:
    """Write eta_profile.csv and rho_curve.csv from the profile's radii and
    eta cells, the strings its report holds."""
    _write_csv(out_dir / "eta_profile.csv", "rho,eta", [radii.text, eta.text])
    # rho at every grid radius in one pass: the right-endpoint cells summed
    # in order.  The last row is rho_of_r(r_max) itself, so it matches the
    # reported rho to the bit; the cumulative sum agrees with it to rounding.
    rho = np.cumsum(profile.eta_values[1:] * np.diff(profile.radii))
    rho[-1] = rho_of_r(profile, profile.r_max)
    _write_csv(out_dir / "rho_curve.csv", "r,rho", [radii.text[1:], _Cells(rho.tolist()).text])


def _execute(job: dict, entry: RegistryEntry, out_dir: Path):
    """Run the command; returns (result dict, numerical_success flag)."""
    model = entry.model
    p = job["parameters"]
    seed = job["seed"]
    command = job["command"]
    opts = LiftOptions(**p.get("opts", {}))  # indicators takes no lift options

    if command in ("indicators", "certify", "diagnose"):
        x0 = np.array(p["x0"])
        profile = mu_profile(
            model,
            x0,
            p["r"],
            p["grid_size"],
            mode=p["mode"],
            sample_count=p["sample_count"],
            indicator_kind=p.get("indicator_kind", "sur"),
            seed=seed,
        )
        ok = True
        if command == "indicators":
            # a map may overflow at a huge x0 where its Jacobian is finite
            with np.errstate(over="ignore", invalid="ignore"):
                J = jacobian(model, x0)
            result = {
                "profile": profile.to_json_dict(),
                "rho_at_r": rho_of_r(profile, p["r"]),
                "inj_at_x0": inj_indicator(J),
                "sur_at_x0": sur_indicator(J),
                "fredholm_at_x0": asdict(fredholm_data(J)),
            }
        elif command == "certify":
            cert = graves_certificate(
                model,
                x0,
                p["r"],
                profile,
                verify_targets=p["verify_targets"],
                opts=opts,
                seed=seed,
            )
            result = cert.to_json_dict()
            ok = cert.verification is None or (
                cert.verification["inside"] == cert.verification["targets"]
            )
        else:
            weight_fn, divergent = _WEIGHTS[p["weight"]]
            report = build_diagnostics(
                model,
                x0,
                profile,
                facts=entry.facts,
                weight=weight_fn,
                weight_divergent=divergent,
                levels=p["levels"],
                opts=opts,
                seed=seed,
            )
            result = report.to_json_dict()
            result["profile"] = profile.to_json_dict()
        # each profile array is formatted once, for the report and the CSVs
        profile_json = result["profile"]
        radii = profile_json["radii"] = _Cells(profile_json["radii"])
        eta = profile_json["eta_values"] = _Cells(profile_json["eta_values"])
        # after the command: a job that fails (exit 3) leaves no profile CSVs
        _profile_csvs(profile, out_dir, radii, eta)
        return result, ok

    if command == "solve":
        rep = solve(
            model,
            np.array(p["y"]),
            x_seed=np.array(p["seed_point"]),
            strategy=p["strategy"],
            opts=opts,
        )
        rep.outcome.trajectory.to_csv(out_dir / "traj_0.csv")
        return rep.to_json_dict(), rep.solution is not None

    if command == "star":
        rep = star_probe(
            model,
            np.array(p["seed_point"]),
            directions=None if p["directions"] is None else np.array(p["directions"]),
            t_budget=p["t_budget"],
            opts=opts,
        )
        header = ",".join(f"d_{i+1}" for i in range(model.m)) + ",reach,reason"
        columns = [*np.asarray(rep.directions).T, rep.reaches, rep.reasons]
        _write_csv(out_dir / "star_reach.csv", header, columns)
        return rep.to_json_dict(), True

    # fibre
    kwargs = {"max_points": p["max_points"], "opts": opts}
    if "seeds" in p:
        kwargs["seeds"] = [np.array(s) for s in p["seeds"]]
    else:
        kwargs["loop"] = [np.array(v) for v in p["loop"]]
    if "seed_point" in p:
        kwargs["x_seed"] = np.array(p["seed_point"])
    rep = fibre_enumerate(model, np.array(p["y"]), **kwargs)
    return rep.to_json_dict(), len(rep.points) > 0


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
    cells = []

    def default(v):
        # a _Cells array is written as "" by json, and joined in below
        if not isinstance(v, _Cells):
            raise TypeError(f"Object of type {v.__class__.__name__} is not JSON serializable")
        cells.append(v.text)
        return ""

    encoder = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False, default=default)
    indent = "\n"  # the newline and indentation of the current line
    # written chunk by chunk, each array's text made just before it is
    # written: a large-grid job then holds one array's text at a time
    with open(out_dir / "report.json", "w", encoding="ascii", newline="\n") as fh:
        for chunk in encoder.iterencode(report):
            if cells:  # chunk is the "" of the array just recorded
                text = cells.pop()
                inner = indent + "  "
                chunk = "[" + inner + ("," + inner).join(text) + indent + "]" if text else "[]"
            elif "\n" in chunk:
                indent = chunk[chunk.rindex("\n"):]
            fh.write(chunk)
        fh.write("\n")


def run_job(raw, out_override=None) -> int:
    """Validate and execute one job dict; returns the process exit code."""
    try:
        entry, matrix = _resolve_map(raw)
        job = _validate_job(raw, entry.model, matrix)
    except UnknownMap as exc:
        return _emit_error(exc, 4)
    except GlobinvError as exc:
        return _emit_error(exc, 2)
    if out_override is not None:
        job["output_dir"] = str(out_override)
    out_dir = Path(job["output_dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        return _emit_error(exc, 2)
    try:
        result, ok = _execute(job, entry, out_dir)
        _write_report(out_dir, job, result)
    except Exception as exc:  # numpy, allocation and strict-JSON errors fail the job too
        try:
            _write_report(out_dir, job, {"error": {"type": type(exc).__name__, "message": str(exc)}})
        except OSError as write_exc:  # no report.json can be written there
            return _emit_error(write_exc, 2)
        return _emit_error(exc, 3)
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

    # ValueError: a file that is not UTF-8 or not JSON, or holds an integer
    # literal over 4300 digits; RecursionError: JSON nested too deeply
    try:
        raw = json.loads(Path(args.job).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        return _emit_error(exc, 2)
    return run_job(raw, out_override=args.out)


if __name__ == "__main__":
    sys.exit(main())
