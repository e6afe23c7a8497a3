"""High-level solving built on line lifting.

solve() turns f(x)=y into a lift of the segment from f(x_seed) to y and
polishes the endpoint with local Newton steps.  Every fibre point this
module reports is a solve().  star_probe() lifts one codomain ray per
direction and reads the reach off the time the lift stopped.
fibre_enumerate() collects distinct solutions by multistart or by lifting
closed polygonal loops (monodromy), each segment one solve().
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import LoopNotInImage, NonFinite, OutOfRange, StrategyMismatch
from .indicators import _signed_axes
from .lifting import (
    FlowVerdict,
    LiftOptions,
    LiftOutcome,
    _velocities,
    gradient_flow,
    lift_line_horizontal,
    lift_line_square,
    lift_lines,
)
from .maps import MapModel, _norms, _svd, _vector, default_point, evaluate, jacobian

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


@np.errstate(over="ignore")  # _norms rescales an overflowed residual norm
def _newton_polish(model: MapModel, x: Array, y: Array):
    """Local Newton / minimum-norm Gauss-Newton refinement of the end point
    of a complete lift or a converged flow, where the first step lies within
    x_tol; each step is the lift corrector's (lifting._velocities).  Returns
    (point, residual) at the point of least residual: a step that does not
    lower |f(x) - y|, lands on a non-finite value or meets rank loss ends
    it; an error raised by the map propagates."""
    x = np.array(x, dtype=float)
    r = evaluate(model, x) - y
    best = _norms(r)
    for _ in range(_POLISH_ITERS):
        if best <= 1e-15 * (1.0 + _norms(y)):
            break
        U, s, Vt = _svd(jacobian(model, x)[None])
        if not s[0, -1] > s[0, 0] * 1e-13:
            break
        xn = x - _velocities(U, s, Vt, r[None])[0]
        try:
            rn = evaluate(model, xn) - y
        except NonFinite:
            break
        nn = _norms(rn)
        if not nn < best:
            break
        x, r, best = xn, rn, nn
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


@np.errstate(over="ignore")  # _norms rescales an overflowed residual norm
def solve(
    model: MapModel,
    y,
    x_seed=None,
    strategy: str = "auto",
    opts: Optional[LiftOptions] = None,
) -> SolveReport:
    """Solve f(x)=y by lifting the segment from f(x_seed) to y (or by
    gradient descent on the residual), then polishing the endpoint.

    The solution field is set only when |f(x*) - y| <= SOLVE_TOL max(1, |y|)
    holds under direct re-evaluation: an absolute tolerance up to |y| = 1 and
    a relative one beyond, where f itself rounds to ulps of |y|.
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
        if res <= SOLVE_TOL * max(1.0, _norms(yv)):
            solution = point
    else:
        residual = _norms(evaluate(model, candidate) - yv)

    return SolveReport(
        y=yv,
        x_seed=seed,
        strategy=name,
        solution=solution,
        residual=residual,
        outcome=outcome,
        flow_verdict=flow_verdict,
    )


@np.errstate(over="ignore")  # an overflowed norm is rescaled (_norms)
def _direction_norms(directions) -> tuple:
    """The rows of directions and their norms (_norms).  A row whose norm
    underflows to 0, though its largest |component| is positive, is first
    divided by that component, so that a subnormal direction does not read
    as zero; other rows stay as given.  A norm of 0 marks a zero direction."""
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    norms = _norms(dirs)
    peak = np.max(np.abs(dirs), axis=1)
    rescale = (norms == 0.0) & (peak > 0.0)
    if rescale.any():
        dirs = dirs.copy()
        dirs[rescale] /= peak[rescale, None]
        norms[rescale] = _norms(dirs[rescale])
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
    complete lift, else Singular (how a lift meets a boundary
    singularity: the lift stepped to the secant's crossing of mu_floor
    and stopped at its last point taken, within x_tol of that crossing;
    or the indicator fell toward 0 within an ulp of t; or the step
    collapsed on points below the floor),
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


def _is_new(points: list, x: Array) -> bool:
    """Whether x lies farther than 1e-5 times the largest norm among points
    and x, plus 1e-8, from every one of points."""
    P = np.reshape(points, (-1, x.size))
    threshold = 1e-5 * max(_norms(np.vstack([P, x])).tolist()) + 1e-8
    return bool(np.all(_norms(x - P) > threshold))


@np.errstate(over="ignore")  # an overflowed distance is rescaled (_norms)
def fibre_enumerate(
    model: MapModel,
    y,
    seeds: Optional[Sequence] = None,
    loop: Optional[Sequence] = None,
    x_seed=None,
    opts: Optional[LiftOptions] = None,
    max_points: int = 8,
) -> FibreReport:
    """Enumerate points of the fibre over y; each point is a solve().

    Multistart mode solves from each seed and deduplicates.  Loop mode
    solves for y from x_seed (the base point), then lifts a closed
    polygonal loop based at y, each segment a solve() for its end vertex
    from the last point; each traversal that lands on a new point records a
    monodromy shift and continues from there, until a traversal closes onto
    a known point, a vertex has no solution or max_points is reached.
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
            if rep.solution is not None and _is_new(found, rep.solution):
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
    # each traversal's last solve lands on y (a vertex within 1e-12 of y at
    # either end of the loop is y).
    targets = vertices[1:] if _norms(vertices[0] - yv) <= 1e-12 else vertices
    if targets and _norms(targets[-1] - yv) <= 1e-12:
        targets = targets[:-1]
    targets = targets + [yv]

    rep = solve(model, yv, x_seed=x_seed, opts=lift_opts)
    if rep.solution is None:
        raise LoopNotInImage(
            f"fibre_enumerate: no fibre point found at the loop base: lift ended "
            f"{rep.outcome.status.kind}, residual {rep.residual!r}"
        )
    x_cur = rep.solution
    points, residuals, shifts = [x_cur], [rep.residual], []
    while len(points) < max_points:
        loop_start = x_cur
        for b in targets:
            rep = solve(model, b, x_seed=x_cur, opts=lift_opts)
            if rep.solution is None:
                if not shifts and b is targets[0]:
                    raise LoopNotInImage(
                        f"fibre_enumerate: first segment found no fibre point: lift ended "
                        f"{rep.outcome.status.kind}, residual {rep.residual!r}"
                    )
                return _finish_fibre(yv, points, residuals, shifts)
            x_cur = rep.solution
        shifts.append(x_cur - loop_start)
        if not _is_new(points, x_cur):
            break
        points.append(x_cur)
        residuals.append(rep.residual)
    return _finish_fibre(yv, points, residuals, shifts)


def _finish_fibre(yv, points, residuals, shifts) -> FibreReport:
    gap = None
    if len(points) >= 2:
        i, j = np.triu_indices(len(points), 1)
        P = np.array(points)
        gap = float(_norms(P[i] - P[j]).min())
    return FibreReport(
        y=yv,
        points=tuple(points),
        residuals=tuple(residuals),
        monodromy_shifts=tuple(shifts),
        discreteness_gap=gap,
    )
