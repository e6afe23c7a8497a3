"""Outside-in tracing for the traced benchmark run.

The program under src/ is not edited.  install() rebinds the public names
of each layer in every globinv module that holds them, plus
numpy.linalg.svd, with wrappers from this file; uninstall() puts the
originals back.  The rebinding lives in the benchmark process only.

Three kinds of wrapper:
  span   a recorded span (name, start, end, parent, job id) around calls
         into lifting, indicators.mu_profile, certificates, solver and cli;
  timed  a call too frequent to record one by one (evaluate, jacobian,
         rho_of_r): its count, time, self time and exceptions are added
         to the enclosing span;
  count  numpy.linalg.svd: only its count is added to the enclosing span,
         so SVD time stays in the self time of the layer that asked for it.

A span's self time is its duration minus the time of its child spans and
timed calls.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy

import globinv
from globinv import certificates, cli, indicators, lifting, maps, solver

_MODULES = (globinv, maps, indicators, lifting, certificates, solver, cli)
_LAYERS = {"maps": maps, "indicators": indicators, "lifting": lifting,
           "certificates": certificates, "solver": solver, "cli": cli}

# The seven ladder checks, by condition id.
LADDER = {
    "expansive_estimate": "C8",
    "hadamard_levy_check": "C10",
    "plastock_check": "C14",
    "hadamard_integral_check": "C15",
    "katriel_check": "C17",
    "weighted_certificate": "C22",
    "ps_direction_scan": "PS",
}


def _lift_info(args, kwargs, result):
    outcome = result[0] if isinstance(result, tuple) else result  # gradient_flow
    return {"samples": int(outcome.trajectory.times.size), "status": outcome.status.kind}


_INFO = {
    "lift_line_square": _lift_info,
    "lift_line_horizontal": _lift_info,
    "gradient_flow": _lift_info,
    "mu_profile": lambda a, k, r: {"certified": bool(r.certified)},
    "star_probe": lambda a, k, r: {"rays": len(r.reaches)},
    "fibre_enumerate": lambda a, k, r: {"points": len(r.points)},
}

# (layer, name, kind) for every rebound function.
TARGETS = (
    [("maps", "evaluate", "timed"), ("maps", "jacobian", "timed"),
     ("indicators", "mu_profile", "span"), ("indicators", "rho_of_r", "timed")]
    + [("lifting", n, "span") for n in ("lift_line_square", "lift_line_horizontal", "gradient_flow")]
    + [("certificates", n, "span") for n in ("graves_certificate", "build_diagnostics", *LADDER)]
    + [("solver", n, "span") for n in ("solve", "star_probe", "fibre_enumerate")]
    + [("cli", "run_job", "span")]
)


class Span:
    __slots__ = ("id", "name", "layer", "parent", "job", "start", "end", "child_s", "calls", "info")

    def __init__(self, sid, name, layer, parent, job):
        self.id, self.name, self.layer, self.parent, self.job = sid, name, layer, parent, job
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.calls = {}  # name -> [count, total_s, self_s, errors]
        self.info = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_json_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "layer": self.layer, "parent": self.parent,
            "job": self.job, "start": self.start, "end": self.end, "self_s": self.self_s,
            "calls": self.calls, "info": self.info,
        }


class _Timed:
    __slots__ = ("child_s",)

    def __init__(self):
        self.child_s = 0.0


class Tracer:
    """Holds the spans of one traced pass; set .job before each job."""

    def __init__(self):
        self.job = None
        self.spans = []
        self._root = Span(0, "bench", "bench", None, None)
        self._stack = [self._root]  # every open frame, spans and timed calls
        self._open = [self._root]  # open spans only; calls are attributed to _open[-1]
        self._next_id = 1
        self._saved = []

    def _span(self, layer, name, fn):
        info = _INFO.get(name)

        def wrapper(*args, **kwargs):
            span = Span(self._next_id, name, layer, self._open[-1].id, self.job)
            self._next_id += 1
            self._stack.append(span)
            self._open.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
                self._open.pop()
                self._stack[-1].child_s += span.duration
                self.spans.append(span)
            if info is not None:
                span.info.update(info(args, kwargs, result))
            return result

        return wrapper

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            owner = self._open[-1]
            stats = owner.calls.get(name)
            if stats is None:
                stats = owner.calls[name] = [0, 0.0, 0.0, 0]
            frame = _Timed()
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats[3] += 1
                raise
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                self._stack[-1].child_s += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame.child_s

        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            calls = self._open[-1].calls
            stats = calls.get(name)
            if stats is None:
                stats = calls[name] = [0, 0.0, 0.0, 0]
            stats[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for layer, name, kind in TARGETS:
            original = getattr(_LAYERS[layer], name)
            wrapper = (self._span(layer, name, original) if kind == "span"
                       else self._timed(name, original))
            for module in _MODULES:
                if module.__dict__.get(name) is original:
                    self._saved.append((module, name, original))
                    setattr(module, name, wrapper)
        self._saved.append((numpy.linalg, "svd", numpy.linalg.svd))
        numpy.linalg.svd = self._counted("svd", numpy.linalg.svd)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json_dict()) + "\n")


def _calls(spans, name, field=0) -> float:
    return sum(s.calls[name][field] for s in spans if name in s.calls)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer numbers from the spans of one traced pass.  Counts repeat
    exactly for a seed; times (_s, _ms, _us) do not."""
    by_id = {s.id: s for s in spans}

    def nearest(span, names):
        while span.parent in by_id:
            span = by_id[span.parent]
            if span.name in names:
                return span
        return None

    def named(*names):
        return [s for s in spans if s.name in names]

    jobs = named("run_job")
    lifts = [s for s in spans if s.layer == "lifting"]
    profiles = named("mu_profile")
    sampled = [s for s in profiles if not s.info.get("certified", True)]
    stars, fibres = named("star_probe"), named("fibre_enumerate")
    ladder = named(*LADDER)
    steps = sum(s.info.get("samples", 1) - 1 for s in lifts)
    lift_s = sum(s.duration for s in lifts)
    job_s = sum(s.duration for s in jobs)
    m = {
        "maps.eval_calls": _calls(spans, "evaluate"),
        "maps.jac_calls": _calls(spans, "jacobian"),
        "maps.self_s": _calls(spans, "evaluate", 2) + _calls(spans, "jacobian", 2),
        "lifting.lifts": len(lifts),
        "lifting.accepted_steps": steps,
        "lifting.jac_per_step": _ratio(_calls(lifts, "jacobian"), steps),
        "lifting.svd_calls": _calls(lifts, "svd"),
        "lifting.complete_frac": _ratio(sum(s.info.get("status") == "Complete" for s in lifts), len(lifts)),
        "lifting.self_s": sum(s.self_s for s in lifts),
        "lifting.us_per_step": 1e6 * _ratio(lift_s, steps),
        "lifting.lift_ms_p50": 1e3 * statistics.median(s.duration for s in lifts) if lifts else 0.0,
        "lifting.job_share": _ratio(lift_s, job_s),
        "indicators.sampled_profile_s": sum(s.duration for s in sampled),
        "indicators.indicator_evals": _calls(sampled, "jacobian"),
        "indicators.svd_calls": _calls(profiles, "svd"),
        "indicators.rho_of_r_calls": _calls(spans, "rho_of_r"),
        "indicators.rho_of_r_s": _calls(spans, "rho_of_r", 1),
        "certificates.graves_s": sum(s.duration for s in named("graves_certificate")),
        "certificates.verify_lifts": sum(
            1 for s in lifts if by_id.get(s.parent) is not None and by_id[s.parent].name == "graves_certificate"
        ),
    }
    for fn_name in ("expansive_estimate", "plastock_check", "katriel_check",
                    "weighted_certificate", "ps_direction_scan"):
        m[f"certificates.{LADDER[fn_name]}_s"] = sum(s.duration for s in named(fn_name))
    m["certificates.sample_errors"] = _calls(ladder, "evaluate", 3) + _calls(ladder, "jacobian", 3)
    m["solver.self_s"] = sum(s.self_s for s in spans if s.layer == "solver")
    m["solver.lifts_per_ray"] = _ratio(
        sum(1 for s in lifts if nearest(s, ("star_probe",)) is not None),
        sum(s.info.get("rays", 0) for s in stars),
    )
    m["solver.lifts_per_fibre_point"] = _ratio(
        sum(1 for s in lifts if nearest(s, ("fibre_enumerate",)) is not None),
        sum(s.info.get("points", 0) for s in fibres),
    )
    m["cli.self_s"] = sum(s.self_s for s in jobs)
    m["trace.jobs"] = len(jobs)
    m["trace.job_s"] = job_s
    return m
