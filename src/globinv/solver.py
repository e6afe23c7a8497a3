"""High-level solving built on line lifting.

solve() turns f(x)=y into a lift of the segment from f(x_seed) to y and
polishes the endpoint with damped Newton steps.  star_probe() lifts one
codomain ray per direction and reads the reach off the time the lift
stopped.  fibre_enumerate() collects distinct solutions by multistart or by
lifting closed polygonal loops (monodromy).  trivialize() sends nearby
points of a submersion's domain to the fibre over y, each by a horizontal
solve().
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import LiftAborted, LoopNotInImage, NonFinite, OutOfRange, StrategyMismatch
from .indicators import _signed_axes
from .lifting import (
    FlowVerdict,
    LiftOptions,
    LiftOutcome,
    _norm,
    gradient_flow,
    lift_line_horizontal,
    lift_line_square,
    lift_lines,
)
from .maps import MapModel, _svd, _vector, default_point, evaluate, jacobian

Array = np.ndarray

SOLVE_TOL = 1e-8
_POLISH_ITERS = 12  # Newton steps of the endpoint polish

_STRATEGY_NAMES = {
    "auto": "auto",
    "wazewski": "Wazewski",
    "horizontal": "Horizontal",
    "gradient_flow": "GradientFlow",
    "gradientflow": "GradientFlow",
}


@dataclass(frozen=True)
class SolveReport:
    y: Array
    x_seed: Array
    strategy: str
    solution: Optional[Array]
    residual: Optional[float]
    outcome: LiftOutcome
    flow_verdict: Optional[FlowVerdict] = None

    def to_json_dict(self) -> dict:
        out = {
            "y": [float(v) for v in self.y],
            "x_seed": [float(v) for v in self.x_seed],
            "strategy": self.strategy,
            "solution": None if self.solution is None else [float(v) for v in self.solution],
            "residual": None if self.residual is None else float(self.residual),
            "status": self.outcome.status.to_json_dict(),
        }
        if self.flow_verdict is not None:
            out["flow_verdict"] = self.flow_verdict.to_json_dict()
        return out


@dataclass(frozen=True)
class StarReport:
    x_seed: Array
    y0: Array
    directions: Array
    reaches: tuple
    reasons: tuple
    statuses: tuple  # the LiftStatus of each ray's lift
    t_budget: float

    def to_json_dict(self) -> dict:
        return {
            "x_seed": [float(v) for v in self.x_seed],
            "y0": [float(v) for v in self.y0],
            "t_budget": float(self.t_budget),
            "rays": [
                {
                    "direction": [float(c) for c in d],
                    "reach": float(t),
                    "reason": reason,
                    "status": status.to_json_dict(),
                }
                for d, t, reason, status in zip(
                    self.directions, self.reaches, self.reasons, self.statuses
                )
            ],
        }


@dataclass(frozen=True)
class FibreReport:
    y: Array
    points: tuple
    residuals: tuple
    monodromy_shifts: tuple
    discreteness_gap: Optional[float]

    def to_json_dict(self) -> dict:
        return {
            "y": [float(v) for v in self.y],
            "points": [[float(v) for v in p] for p in self.points],
            "residuals": [float(r) for r in self.residuals],
            "monodromy_shifts": [[float(v) for v in s] for s in self.monodromy_shifts],
            "discreteness_gap": None
            if self.discreteness_gap is None
            else float(self.discreteness_gap),
        }


@np.errstate(over="ignore")  # _norm rescales an overflowed residual norm
def _newton_polish(model: MapModel, x: Array, y: Array):
    """Damped Newton / minimum-norm Gauss-Newton refinement of an approximate
    solution.  Returns (point, residual); stops at stagnation or rank loss.
    A trial point with a non-finite value halves the step; an error raised
    by the map propagates."""
    x = np.array(x, dtype=float)
    r = evaluate(model, x) - y
    best = _norm(r)
    for _ in range(_POLISH_ITERS):
        if best <= 1e-15 * (1.0 + _norm(y)):
            break
        J = jacobian(model, x)
        U, s, Vt = _svd(J)
        if s.size == 0 or s[-1] <= s[0] * 1e-13 or s[0] == 0.0:
            break
        dx = -(Vt.T @ ((U.T @ r) / s))
        step = 1.0
        improved = False
        for _ in range(10):
            xn = x + step * dx
            try:
                rn = evaluate(model, xn) - y
            except NonFinite:
                step *= 0.5
                continue
            nn = _norm(rn)
            if nn < best:
                x, r, best = xn, rn, nn
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return x, best


def _resolve_strategy(model: MapModel, strategy: str) -> str:
    key = strategy.lower().replace("-", "_")
    if key not in _STRATEGY_NAMES:
        raise StrategyMismatch(f"unknown strategy {strategy!r}")
    name = _STRATEGY_NAMES[key]
    if name == "auto":
        if model.n == model.m:
            return "Wazewski"
        if model.m < model.n:
            return "Horizontal"
        return "GradientFlow"
    if name == "Wazewski" and model.n != model.m:
        raise StrategyMismatch("Wazewski lifting needs a square map")
    if name == "Horizontal" and model.m > model.n:
        raise StrategyMismatch("horizontal lifting needs m <= n")
    return name


@np.errstate(over="ignore")  # _norm rescales an overflowed residual norm
def solve(
    model: MapModel,
    y,
    x_seed=None,
    strategy: str = "auto",
    opts: Optional[LiftOptions] = None,
) -> SolveReport:
    """Solve f(x)=y by lifting the segment from f(x_seed) to y (or by
    gradient descent on the residual), then polishing the endpoint.

    The solution field is set only when |f(x*) - y| <= SOLVE_TOL holds under
    direct re-evaluation.
    """
    yv = _vector(y, model.m, "solve: target")
    seed = default_point(model) if x_seed is None else np.asarray(x_seed, dtype=float)
    name = _resolve_strategy(model, strategy)
    lift_opts = opts or LiftOptions()

    flow_verdict = None
    if name == "GradientFlow":
        outcome, flow_verdict = gradient_flow(model, seed, yv, lift_opts)
        candidate = outcome.trajectory.points[-1]
        attempt_polish = flow_verdict.kind == "converged"
    else:
        w = yv - evaluate(model, seed)
        lift = lift_line_square if name == "Wazewski" else lift_line_horizontal
        outcome = lift(model, seed, w, lift_opts)
        candidate = outcome.trajectory.points[-1]
        attempt_polish = outcome.status.is_complete

    solution = None
    residual = None
    if attempt_polish:
        point, res = _newton_polish(model, candidate, yv)
        residual = res
        if res <= SOLVE_TOL:
            solution = point
    else:
        residual = _norm(evaluate(model, candidate) - yv)

    return SolveReport(
        y=yv,
        x_seed=seed,
        strategy=name,
        solution=solution,
        residual=residual,
        outcome=outcome,
        flow_verdict=flow_verdict,
    )


@np.errstate(over="ignore")  # an overflowed norm is rescaled below
def _direction_norms(directions) -> tuple:
    """The rows of directions and their norms.  A row whose norm underflows
    to 0 or overflows to inf, though its largest |component| is positive and
    finite, is first divided by that component; other rows stay as given.
    A norm of 0 marks a zero direction."""
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    norms = np.linalg.norm(dirs, axis=1)
    peak = np.max(np.abs(dirs), axis=1)
    rescale = ((norms == 0.0) | np.isinf(norms)) & (peak > 0.0) & np.isfinite(peak)
    if rescale.any():
        dirs = dirs.copy()
        dirs[rescale] /= peak[rescale, None]
        norms[rescale] = np.linalg.norm(dirs[rescale], axis=1)
    return dirs, norms


def star_probe(
    model: MapModel,
    x_seed,
    directions=None,
    t_budget: float = 10.0,
    opts: Optional[LiftOptions] = None,
) -> StarReport:
    """Probe the star of reachable targets around y0 = f(x_seed).

    Per direction d, lifts the segment from y0 to y0 + t_budget * d once, all
    rays in one lift_lines call (each ray's outcome is that of its own
    one-row lift).  The lift of t * d for t < t_budget is a prefix of it, so
    the reach is the stop time (a fraction of the segment, 1 when complete)
    times t_budget.  The reach is a numerical witness of the star boundary,
    not a proof.  The reason is the lift's stop: BudgetExhausted for a
    complete lift, else Singular (the indicator hit the floor, or fell
    toward 0 within an ulp of t: how a lift meets a boundary singularity),
    Escaped or StepFailure (the step budget ran out or the step collapsed);
    statuses keeps each lift's own stop.
    """
    if model.n != model.m:
        raise StrategyMismatch("star_probe needs a square map")
    if not 0.0 < t_budget < np.inf:
        raise OutOfRange("star_probe: t_budget must be positive and finite")
    seed = np.asarray(x_seed, dtype=float)
    y0 = evaluate(model, seed)
    if directions is None:
        dirs = _signed_axes(model.m)
    else:
        dirs, norms = _direction_norms(directions)
        if not np.isfinite(dirs).all():
            raise OutOfRange("star_probe: non-finite direction")
        if np.any(norms == 0.0):
            raise OutOfRange("star_probe: zero direction")
        dirs = dirs / norms[:, None]
    lift_opts = opts or LiftOptions()

    statuses = tuple(out.status for out in lift_lines(model, seed, t_budget * dirs, lift_opts))
    return StarReport(
        x_seed=seed,
        y0=y0,
        directions=dirs,
        reaches=tuple(s.t * t_budget for s in statuses),
        reasons=tuple("BudgetExhausted" if s.is_complete else s.kind for s in statuses),
        statuses=statuses,
        t_budget=float(t_budget),
    )


def _dedup_threshold(points) -> float:
    max_norm = max((float(np.linalg.norm(p)) for p in points), default=0.0)
    return 1e-5 * max_norm + 1e-8


def fibre_enumerate(
    model: MapModel,
    y,
    seeds: Optional[Sequence] = None,
    loop: Optional[Sequence] = None,
    x_seed=None,
    opts: Optional[LiftOptions] = None,
    max_points: int = 8,
) -> FibreReport:
    """Enumerate points of the fibre over y.

    Multistart mode solves from each seed and deduplicates.  Loop mode lifts
    a closed polygonal loop based at y; each traversal that lands on a new
    point records a monodromy shift and continues from there, until a
    traversal closes onto a known point or max_points is reached.
    """
    yv = _vector(y, model.m, "fibre_enumerate: y", finite=True)
    if (seeds is None) == (loop is None):
        raise OutOfRange("fibre_enumerate: supply exactly one of seeds or loop")
    lift_opts = opts or LiftOptions()

    if seeds is not None:
        found = []
        residuals = []
        for s in seeds:
            rep = solve(model, yv, x_seed=s, opts=lift_opts)
            if rep.solution is None:
                continue
            thr = _dedup_threshold(found + [rep.solution])
            if all(float(np.linalg.norm(rep.solution - p)) > thr for p in found):
                found.append(rep.solution)
                residuals.append(rep.residual)
                if len(found) >= max_points:
                    break
        return _finish_fibre(yv, found, residuals, [])

    if model.n != model.m:
        raise StrategyMismatch("loop lifting needs a square map")
    vertices = [_vector(v, model.m, f"fibre_enumerate: loop[{i}]", finite=True) for i, v in enumerate(loop)]
    if not vertices:
        raise OutOfRange("fibre_enumerate: empty loop")
    # The segments' targets: the vertices after y, then y itself, so that
    # each traversal's last polish lands on y (a vertex within 1e-12 of y at
    # either end of the loop is y).
    targets = vertices[1:] if float(np.linalg.norm(vertices[0] - yv)) <= 1e-12 else vertices
    if targets and float(np.linalg.norm(targets[-1] - yv)) <= 1e-12:
        targets = targets[:-1]
    targets = targets + [yv]

    start = default_point(model) if x_seed is None else np.asarray(x_seed, dtype=float)
    start, res0 = _newton_polish(model, start, yv)
    if res0 > SOLVE_TOL:
        raise LoopNotInImage("fibre_enumerate: no fibre point found at the loop base")

    points = [start]
    residuals = [res0]
    shifts = []
    x_cur = start
    first_segment = True
    while len(points) < max_points:
        loop_start = x_cur
        aborted = False
        for b in targets:
            w = b - evaluate(model, x_cur)
            out = lift_line_square(model, x_cur, w, lift_opts)
            if not out.status.is_complete:
                if first_segment:
                    raise LoopNotInImage(
                        f"fibre_enumerate: first segment lift failed ({out.status.kind})"
                    )
                aborted = True
                break
            first_segment = False
            x_cur, res = _newton_polish(model, out.trajectory.points[-1], b)
        if aborted or res > SOLVE_TOL:
            break
        shifts.append(x_cur - loop_start)
        thr = _dedup_threshold(points + [x_cur])
        if all(float(np.linalg.norm(x_cur - p)) > thr for p in points):
            points.append(x_cur)
            residuals.append(res)
        else:
            break
    return _finish_fibre(yv, points, residuals, shifts)


def _finish_fibre(yv, points, residuals, shifts) -> FibreReport:
    gap = None
    if len(points) >= 2:
        gap = min(
            float(np.linalg.norm(p - q))
            for i, p in enumerate(points)
            for q in points[i + 1 :]
        )
    return FibreReport(
        y=yv,
        points=tuple(points),
        residuals=tuple(residuals),
        monodromy_shifts=tuple(shifts),
        discreteness_gap=gap,
    )


def trivialize(
    model: MapModel,
    y,
    points: Sequence,
    opts: Optional[LiftOptions] = None,
):
    """Local trivialization for a submersion (m < n): each point p is sent
    to the fibre over y by solve's horizontal lift of the segment from f(p)
    to y and its endpoint polish.  Returns a list of (f(p), fibre_point)
    pairs; raises LiftAborted when a point yields no fibre point."""
    if model.m >= model.n:
        raise StrategyMismatch("trivialize needs a submersion with m < n")
    out_pairs = []
    for p in points:
        rep = solve(model, y, x_seed=p, strategy="horizontal", opts=opts)
        if rep.solution is None:
            raise LiftAborted(
                f"trivialize: no fibre point from {rep.x_seed.tolist()}: lift ended "
                f"{rep.outcome.status.kind}, residual {rep.residual!r}",
                outcome=rep.outcome,
            )
        out_pairs.append((evaluate(model, rep.x_seed), rep.solution))
    return out_pairs
