"""Path lifting through the derivative, and the residual gradient flow.

Straight lines p(t) = f(x0) + t w in the codomain are lifted back to the
domain by integrating

    q' = J(q)^{-1} w                     (square Jacobian)
    q' = J(q)^T (J(q) J(q)^T)^{-1} w     (wide Jacobian, minimum-norm route)

from q(0) = x0 over t in [0, 1], so f(q(t)) tracks the line exactly in
continuous time.  Both velocities come out of one SVD per evaluation, which
also yields the local invertibility indicator mu used for singularity
detection.  The integrator is an embedded Dormand-Prince 4(5) pair with a
decay-rate step guard so the solver slows down near singular loci instead of
jumping across them.

Every line lift is a lift_lines(model, x0, W, opts) call: the K lifts from
one base point, one per row of W, with f(x0), J(x0) and its SVD computed
once per call and counted in every lane.  lift_line_square and
lift_line_horizontal check the shape and make a one-row call, which runs on
the scalar stage code.  More rows run in lockstep as one (K, n) state:
every stage builds one stacked Jacobian and takes one stacked SVD over the
lanes still live.  Each lane keeps its own t, step size, recorder and
status, and returns the LiftOutcome, LiftStats included, that the one-row
call of its row returns.

gradient_flow integrates x' = -grad F_y under the same step controller
(_Lift: t, step size and budget, rejection and step collapse, error norm,
recorder, counters, escape stop).  Two judges take or reject the attempts
whose stages all succeeded: _LineLift (drift and residual against the line,
the mu-decay guard) and _FlowLift (F must not rise; time-doubling windows
give the verdict).  One loop, _integrate, runs either judge on the scalar
stage code; _lockstep_attempt drives the lanes of a lift_lines call with
more than one row.  Every LiftOutcome carries LiftStats, the work counters
of its integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, NonFinite, OutOfRange, TooFewPoints
from .maps import MapModel, _vector, evaluate, jacobian, jacobian_stack

Array = np.ndarray

# ---------------------------------------------------------------------------
# Dormand-Prince 4(5) tableau (FSAL: stage 7 sits at the 5th-order solution)

_DP_A = (
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
# 5th-order minus 4th-order weights, applied to all seven stages
_DP_ERR = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)

_SAFETY_DIV = 16.0  # internal controller runs tighter than the public tolerance
_H_MIN = 1e-14
_H_MAX = 1e15

# gradient-flow verdict constants
_PS_STALL_TOL = 2e-5  # F stall per time-doubling window, relative to F
_PS_GRAD_TOL = 1e-3  # gradient norm, relative to min(1, |grad F(x0)|)
_STAB_TOL = 1e-7


@dataclass(frozen=True)
class LiftOptions:
    """Shared numerical controls for every lifting operation."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    mu_floor: float = 1e-8
    r_escape: Optional[float] = 1e6
    max_steps: int = 20000
    record_stride: int = 1

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise OutOfRange("LiftOptions: tolerances must be positive")
        if not self.mu_floor >= 0.0:
            raise OutOfRange("LiftOptions: mu_floor must be nonnegative")
        if self.r_escape is not None and not self.r_escape > 0.0:
            raise OutOfRange("LiftOptions: r_escape must be positive or None")
        if self.max_steps < 1 or self.record_stride < 1:
            raise OutOfRange("LiftOptions: max_steps and record_stride must be >= 1")


@dataclass(frozen=True)
class LiftStatus:
    """Terminal state of a lift: Complete, Singular(t, mu),
    Escaped(t, distance) or StepFailure(t)."""

    kind: str
    t: float
    mu: Optional[float] = None
    distance: Optional[float] = None

    @property
    def is_complete(self) -> bool:
        return self.kind == "Complete"

    @staticmethod
    def complete(t: float) -> "LiftStatus":
        return LiftStatus("Complete", float(t))

    @staticmethod
    def singular(t: float, mu: float) -> "LiftStatus":
        return LiftStatus("Singular", float(t), mu=float(mu))

    @staticmethod
    def escaped(t: float, distance: float) -> "LiftStatus":
        return LiftStatus("Escaped", float(t), distance=float(distance))

    @staticmethod
    def step_failure(t: float) -> "LiftStatus":
        return LiftStatus("StepFailure", float(t))

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "t": float(self.t)}
        if self.mu is not None:
            out["mu"] = float(self.mu)
        if self.distance is not None:
            out["distance"] = float(self.distance)
        return out


@dataclass(frozen=True)
class LiftTrajectory:
    """Recorded sample of a lift: times, domain points, local indicator values,
    and the accumulated chord length over every accepted step."""

    times: Array
    points: Array
    mu_values: Array
    length: float

    def to_csv(self, path) -> None:
        """Columns t, x_1..x_n, mu, cumulative_length (chords of these rows)."""
        n = self.points.shape[1]
        header = ",".join(["t"] + [f"x_{i + 1}" for i in range(n)] + ["mu", "cumulative_length"])
        rows = [header]
        cum = 0.0
        for k in range(self.times.size):
            if k > 0:
                cum += float(np.linalg.norm(self.points[k] - self.points[k - 1]))
            cells = [repr(float(self.times[k]))]
            cells += [repr(float(v)) for v in self.points[k]]
            cells += [repr(float(self.mu_values[k])), repr(cum)]
            rows.append(",".join(cells))
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(rows) + "\n")


@dataclass
class LiftStats:
    """Work counters of one lift.

    accepted: accepted steps.  rejected_error, rejected_singular,
    rejected_nonfinite: rejected attempts by cause (the error estimate,
    or for the gradient flow the energy test; an indicator below the floor;
    a non-finite point, derivative, slope or value).  evals: model
    evaluations made by the lift itself, not those inside a
    finite-difference Jacobian.  jacobians: Jacobian evaluations.  svds:
    SVDs taken.  h_min: the smallest accepted step size, inf when no step
    was accepted.  The counters are deterministic; each lane of a lift_lines
    call counts the shared work at x0 as its own, so it counts exactly what
    the one-row call of its target counts.
    """

    accepted: int = 0
    rejected_error: int = 0
    rejected_singular: int = 0
    rejected_nonfinite: int = 0
    evals: int = 0
    jacobians: int = 0
    svds: int = 0
    h_min: float = math.inf


@dataclass(frozen=True)
class LiftOutcome:
    trajectory: LiftTrajectory
    status: LiftStatus
    target_residual: float
    max_drift: float
    stats: LiftStats = field(default_factory=LiftStats)


@dataclass(frozen=True)
class FlowVerdict:
    """converged (root or critical point), ps_candidate (residual energy
    plateaus at `level` while the gradient vanishes and the iterates keep
    moving), or diverged."""

    kind: str
    level: Optional[float] = None
    grad_norm: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "level": None if self.level is None else float(self.level),
            "grad_norm": float(self.grad_norm),
        }


class _StageSingular(Exception):
    def __init__(self, mu: float):
        self.mu = mu


class _StageBad(Exception):
    pass


def _norm(v: Array) -> float:
    """|v|.  When the plain norm of a finite v overflows, v is first divided
    by its largest |component|; every other norm is the plain one.  Callers
    run under np.errstate(over="ignore"), as the lift entry points do, so
    the overflow is silent."""
    norm = float(np.linalg.norm(v))
    if norm == math.inf:
        peak = float(np.max(np.abs(v)))
        if peak < math.inf:
            norm = peak * float(np.linalg.norm(v / peak))
    return norm


def _velocity(U: Array, s: Array, Vt: Array, w: Array, mu_floor: float):
    """Solve J v = w from the SVD J = U diag(s) Vt (the exact inverse for
    square J, the minimum-norm right inverse J^T (J J^T)^{-1} otherwise).
    Returns (v, mu) where mu is the smallest singular value, and raises when
    mu sits below the floor or v goes non-finite."""
    mu = float(s[-1])
    if not np.isfinite(mu) or mu <= 0.0 or mu < mu_floor:
        raise _StageSingular(mu)
    v = Vt.T @ ((U.T @ w) / s)
    if not np.all(np.isfinite(v)):
        raise _StageBad()
    return v, mu


def _velocities(U: Array, s: Array, Vt: Array, W: Array) -> Array:
    """_velocity's formula over a stack of SVDs, one row of W per matrix.
    Each row is computed by the same BLAS operation on the same operands as
    _velocity, so it is bitwise the same."""
    c = np.matmul(U.transpose(0, 2, 1), W[:, :, None])[:, :, 0] / s
    return np.matmul(Vt.transpose(0, 2, 1), c[:, :, None])[:, :, 0]


def _dp_attempt(vel, q: Array, k1: Array, h: float):
    """One Dormand-Prince attempt from q with slope k1.  Returns
    (q5, k7, extra7, err_vec); vel(x) -> (slope, extra)."""
    ks = [k1]
    for i in range(1, 6):
        qi = q + h * (np.stack(ks, axis=1) @ _DP_A[i])
        if not np.all(np.isfinite(qi)):
            raise _StageBad()
        vi, _ = vel(qi)
        ks.append(vi)
    q5 = q + h * (np.stack(ks, axis=1) @ _DP_A[6])
    if not np.all(np.isfinite(q5)):
        raise _StageBad()
    k7, extra7 = vel(q5)
    ks.append(k7)
    err = h * (np.stack(ks, axis=1) @ _DP_ERR)
    return q5, k7, extra7, err


class _Recorder:
    def __init__(self, stride: int):
        self.stride = stride
        self.times: list = []
        self.points: list = []
        self.mus: list = []
        self._since = 0

    def record(self, t: float, x: Array, mu: float):
        """Keep the first point and every stride-th one after it."""
        if self.times and self._since + 1 < self.stride:
            self._since += 1
            return
        self._since = 0
        self.force_last(t, x, mu)

    def force_last(self, t: float, x: Array, mu: float):
        """Keep the point unless its time is the last one kept."""
        if not self.times or self.times[-1] != t:
            self.times.append(float(t))
            self.points.append(np.array(x, dtype=float))
            self.mus.append(float(mu))

    def build(self, length: float) -> LiftTrajectory:
        return LiftTrajectory(
            times=np.array(self.times),
            points=np.stack(self.points, axis=0),
            mu_values=np.array(self.mus),
            length=float(length),
        )


class _Lift:
    """The step controller shared by every integration, t from 0 to t_end.
    A judge subclass adds vel (the stage slope) and finish (take or reject
    an attempt whose stages all succeeded)."""

    t_end = 1.0

    def __init__(self, model: MapModel, x0v: Array, opts: LiftOptions):
        self.model, self.x0, self.opts = model, x0v, opts
        self.stats = LiftStats()
        self.rtol = opts.rel_tol / _SAFETY_DIV
        self.atol = opts.abs_tol / _SAFETY_DIV
        self.rec = _Recorder(opts.record_stride)
        self.t = 0.0
        self.q = x0v
        self.k1 = None
        self.h = 0.0
        self.mu = None  # the indicator at q
        self.length = 0.0
        self.status = None
        self.last_singular_mu = None

    def begin_attempt(self) -> bool:
        """Size the next attempt; False once the integration has stopped."""
        if self.status is not None or self.t >= self.t_end - 1e-15:
            return False
        if self.stats.accepted >= self.opts.max_steps:
            self.status = LiftStatus.step_failure(self.t)
            return False
        self.h = min(self.h, self.t_end - self.t)
        return True

    def reject(self, cause: str, mu: Optional[float] = None, err_norm: float = np.inf) -> None:
        """Reject the attempt (cause "error", "singular" or "nonfinite") and
        shrink the step; a step that collapses ends the integration."""
        if cause == "singular":
            self.stats.rejected_singular += 1
            self.last_singular_mu = mu
        elif cause == "nonfinite":
            self.stats.rejected_nonfinite += 1
        else:
            self.stats.rejected_error += 1
        shrink = 0.5 if not np.isfinite(err_norm) else max(0.1, min(0.5, 0.9 * err_norm ** -0.2))
        self.h *= shrink
        if self.h < _H_MIN * max(1.0, self.t):
            if self.last_singular_mu is not None:
                self.status = LiftStatus.singular(self.t, self.last_singular_mu)
            else:
                self.status = LiftStatus.step_failure(self.t)

    def error_norm(self, q5: Array, err: Array) -> float:
        scale = self.atol + self.rtol * np.maximum(np.abs(self.q), np.abs(q5))
        return float(np.sqrt(np.mean((err / scale) ** 2)))

    def grown(self, err_norm: float) -> float:
        """The next step size after taking a step of this error norm, uncapped."""
        fac = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
        return self.h * fac

    def accept(self, q5: Array, k7: Array, mu: float) -> None:
        """Take the attempted step of size h to q5, where the slope is k7."""
        self.stats.accepted += 1
        self.stats.h_min = min(self.stats.h_min, self.h)
        t_new = self.t + self.h
        if self.t_end - t_new < 1e-15:
            t_new = self.t_end
        self.length += _norm(q5 - self.q)
        self.q, self.t, self.k1, self.mu = q5, t_new, k7, mu
        self.last_singular_mu = None
        self.rec.record(t_new, q5, mu)

    def stop(self, status: LiftStatus) -> None:
        self.rec.force_last(self.t, self.q, self.mu)
        self.status = status

    def stop_if_escaped(self) -> bool:
        dist = _norm(self.q - self.x0)
        if self.opts.r_escape is not None and dist > self.opts.r_escape:
            self.stop(LiftStatus.escaped(self.t, dist))
        return self.status is not None

    def trajectory(self) -> LiftTrajectory:
        self.rec.force_last(self.t, self.q, self.mu)
        return self.rec.build(self.length)


def _integrate(lift: _Lift) -> None:
    """Run one integration on the scalar stage code until it stops."""
    while lift.begin_attempt():
        try:
            q5, k7, extra7, err = _dp_attempt(lift.vel, lift.q, lift.k1, lift.h)
        except _StageSingular as exc:
            lift.reject("singular", exc.mu)
        except (_StageBad, NonFinite):
            lift.reject("nonfinite")
        else:
            lift.finish(q5, k7, extra7, err)


class _LineLift(_Lift):
    """The judge of one line lift: the residual and drift of f(q) against
    the line, the mu-decay step guard, and the singular stop at x0."""

    def __init__(self, model: MapModel, x0v: Array, f0: Array, wv: Array, opts: LiftOptions):
        super().__init__(model, x0v, opts)
        self.w = wv
        self.f0 = f0
        self.f = f0  # f(q), known from the step that accepted q
        self.norm_w = _norm(wv)
        self.complete_tol = 10.0 * opts.rel_tol * max(self.norm_w, 1.0) + 100.0 * opts.abs_tol
        self.drift_cap = max(1e3 * self.complete_tol, 1e-6 * max(self.norm_w, 1.0))
        self.max_drift = 0.0

    def vel(self, x: Array):
        self.stats.jacobians += 1
        J = jacobian(self.model, x)  # NonFinite from the model surfaces as a bad stage
        self.stats.svds += 1
        return _velocity(*np.linalg.svd(J, full_matrices=False), self.w, self.opts.mu_floor)

    def start(self, U: Array, s: Array, Vt: Array) -> None:
        """Set up from the SVD of J(x0): record the base point, stop at once
        when it is singular or w = 0, else take the first slope and step."""
        self.stats.evals += 1  # f(x0), J(x0) and its SVD, shared by the lanes
        self.stats.jacobians += 1
        self.stats.svds += 1
        self.mu = float(s[-1])
        self.rec.record(0.0, self.x0, self.mu)
        if self.mu < self.opts.mu_floor:
            self.status = LiftStatus.singular(0.0, self.mu)
            return
        if self.norm_w == 0.0:
            self.t = 1.0
            self.stop(LiftStatus.complete(1.0))
            return
        # Every attempt starts from this slope, so no step size can repair a
        # bad one: stop as the step collapse after such a stage would.
        try:
            self.k1, _ = _velocity(U, s, Vt, self.w, self.opts.mu_floor)
        except _StageSingular as exc:
            self.status = LiftStatus.singular(0.0, exc.mu)
            return
        except _StageBad:
            self.status = LiftStatus.step_failure(0.0)
            return
        self.h = min(0.2, 0.01 * (1.0 + _norm(self.x0)) / (1.0 + _norm(self.k1)))

    def finish(self, q5: Array, k7: Array, mu_new: float, err: Array) -> None:
        """Judge an attempt whose stages all succeeded: reject it on the
        error estimate or a non-finite f(q5), else take the step."""
        err_norm = self.error_norm(q5, err)
        if not err_norm <= 1.0:
            self.reject("error", err_norm=err_norm)
            return
        self.stats.evals += 1
        try:
            f_new = evaluate(self.model, q5)
        except NonFinite:
            self.reject("nonfinite")
            return
        mu_prev = self.mu
        self.accept(q5, k7, mu_new)
        self.f = f_new
        drift = _norm(f_new - (self.f0 + self.t * self.w))
        self.max_drift = max(self.max_drift, drift)
        if drift > self.drift_cap:
            self.stop(LiftStatus.step_failure(self.t))
            return
        if self.stop_if_escaped():
            return
        h_next = self.grown(err_norm)
        if mu_new < mu_prev:
            guard = 0.1 * self.h * mu_new / max(mu_prev - mu_new, 1e-300)
            h_next = min(h_next, guard)
        self.h = min(h_next, _H_MAX)

    def outcome(self) -> LiftOutcome:
        trajectory = self.trajectory()
        residual = _norm(self.f - (self.f0 + self.t * self.w))
        status = self.status
        if status is None:
            status = LiftStatus.complete(1.0) if residual <= self.complete_tol else LiftStatus.step_failure(1.0)
        return LiftOutcome(trajectory, status, float(residual), float(self.max_drift), self.stats)


class _FlowLift(_Lift):
    """The judge of the residual gradient flow x' = -grad F_y: a step must
    not raise F, and every time-doubling window ends in a verdict or goes
    on.  The flow runs until a verdict, the escape stop or the step budget."""

    t_end = math.inf

    def __init__(self, model: MapModel, x0v: Array, yv: Array, opts: LiftOptions):
        super().__init__(model, x0v, opts)
        self.y = yv
        self.grad_tol = opts.abs_tol
        # residual scale below which a plateau is a root, not a PS level
        self.res_tol = 10.0 * opts.rel_tol * max(_norm(yv), 1.0) + 100.0 * opts.abs_tol
        self.F = self.gn = self.h0 = None  # F, |grad F| at q; the first step size
        self.ps_grad_tol = None  # gradient norm below which a plateau may be PS
        self.verdict = None
        self.window = None  # (t, q, F) where the current window began
        self.window_dx = None  # how far q moved over the last window

    def vel(self, x: Array):
        """The slope -grad F at x, with (mu, F, |grad F|) as the extra; a
        non-finite gradient or energy F makes a bad stage."""
        self.stats.evals += 1
        r = evaluate(self.model, x) - self.y
        self.stats.jacobians += 1
        J = jacobian(self.model, x)
        g = J.T @ r
        self.stats.svds += 1
        mu = float(np.linalg.svd(J, compute_uv=False)[-1])
        F = 0.5 * float(r @ r)
        if not (np.all(np.isfinite(g)) and F < math.inf):
            raise _StageBad()
        return -g, (mu, F, _norm(g))

    def start(self) -> None:
        try:
            self.k1, (self.mu, self.F, self.gn) = self.vel(self.x0)
        except _StageBad:
            raise NonFinite(
                f"gradient_flow({self.model.name}): non-finite gradient or energy at x0"
            ) from None
        self.rec.record(0.0, self.x0, self.mu)
        self.ps_grad_tol = _PS_GRAD_TOL * min(1.0, self.gn)
        if self.gn <= self.grad_tol:
            self.conclude("converged", LiftStatus.complete(0.0))
        self.h0 = self.h = min(0.1, 0.01 * (1.0 + _norm(self.x0)) / (1.0 + self.gn))

    def finish(self, q5: Array, k7: Array, extra7: tuple, err: Array) -> None:
        """Judge an attempt whose stages all succeeded: reject it on the
        error estimate or when it raises F, else take the step and judge the
        window it may close."""
        mu7, F7, gn7 = extra7
        err_norm = self.error_norm(q5, err)
        if not err_norm <= 1.0:
            self.reject("error", err_norm=err_norm)
            return
        if not F7 <= self.F + 1e-12 * (1.0 + abs(self.F)):
            self.reject("error")
            return
        self.accept(q5, k7, mu7)
        self.F, self.gn = F7, gn7
        if self.stop_if_escaped():
            self.conclude("diverged")
            return
        if self.window is None:
            self.window = (self.t, q5, F7)
        elif self.t >= 2.0 * self.window[0]:
            _, q_w, F_w = self.window
            dx = _norm(q5 - q_w)
            stabilized = dx <= _STAB_TOL * (1.0 + _norm(q5))
            near_root = np.sqrt(2.0 * F7) <= self.res_tol
            if (gn7 <= self.grad_tol or near_root) and (stabilized or near_root):
                self.conclude("converged", LiftStatus.complete(self.t))
                return
            if (
                F_w - F7 <= _PS_STALL_TOL * F7
                and gn7 <= self.ps_grad_tol
                and not near_root
                and self.window_dx is not None
                and dx > 0.5 * self.window_dx
            ):
                self.conclude("ps_candidate", LiftStatus.escaped(self.t, _norm(q5 - self.x0)))
                return
            self.window_dx = dx
            self.window = (self.t, q5, F7)
        self.h = min(self.grown(err_norm), 10.0 * max(self.t, self.h0), _H_MAX)

    def conclude(self, kind: str, status: Optional[LiftStatus] = None) -> None:
        """Give the verdict at the current level and, with a status, stop."""
        self.verdict = FlowVerdict(kind, level=self.F, grad_norm=self.gn)
        if status is not None:
            self.stop(status)

    def outcome(self):
        trajectory = self.trajectory()
        if self.verdict is None:  # stopped by the step budget or a step collapse
            if np.sqrt(2.0 * self.F) <= self.res_tol:
                self.conclude("converged")
            elif self.gn <= self.ps_grad_tol:
                self.conclude("ps_candidate")
            else:
                self.conclude("diverged")
        residual = float(np.sqrt(2.0 * self.F))
        return LiftOutcome(trajectory, self.status, residual, 0.0, self.stats), self.verdict


def lift_line_square(model: MapModel, x0, w, opts: Optional[LiftOptions] = None) -> LiftOutcome:
    """Lift the line f(x0) + t w, t in [0, 1], through a square Jacobian."""
    if model.n != model.m:
        raise DimensionMismatch(
            f"lift_line_square: map {model.name!r} is {model.m}x{model.n}, need square"
        )
    return lift_lines(model, x0, [_vector(w, model.m, "lift: w")], opts)[0]


def lift_line_horizontal(model: MapModel, x0, w, opts: Optional[LiftOptions] = None) -> LiftOutcome:
    """Lift the line f(x0) + t w through the minimum-norm right inverse of a
    wide (m <= n) Jacobian; the velocity stays orthogonal to the kernel."""
    if model.m > model.n:
        raise DimensionMismatch(
            f"lift_line_horizontal: map {model.name!r} is {model.m}x{model.n}, need m <= n"
        )
    return lift_lines(model, x0, [_vector(w, model.m, "lift: w")], opts)[0]


def _drop_rows(failed: list, rows: Array, good: Array, cause: str, mus=None) -> Array:
    """Record (cause, mu) for the lanes of rows that are not good; return the rest."""
    for k in np.flatnonzero(~good):
        failed[rows[k]] = (cause, None if mus is None else float(mus[k]))
    return rows[good]


def _lockstep_attempt(model: MapModel, lanes: list, mu_floor: float) -> None:
    """One Dormand-Prince attempt for every lane, in lockstep.

    Each stage builds the Jacobians of the lanes still in the attempt as one
    stack and takes one SVD of it.  A lane whose stage fails leaves the rest
    of the attempt with that cause, as _dp_attempt's exception does.  Per
    lane the arithmetic is that of _dp_attempt, operation for operation.
    """
    count, n = len(lanes), model.n
    Q = np.array([lane.q for lane in lanes])
    H = np.array([[lane.h] for lane in lanes])
    W = np.array([lane.w for lane in lanes])
    KS = np.empty((count, n, 7))  # the seven stage slopes of every lane
    KS[:, :, 0] = [lane.k1 for lane in lanes]
    jacs = np.zeros(count, dtype=int)
    svds = np.zeros(count, dtype=int)
    failed = [None] * count  # (cause, mu) of the lanes that left the attempt
    passed = [None] * count  # (q5, k7, mu7, err) of the lanes that did not
    rows = np.arange(count)  # lanes still in the attempt
    for i in range(1, 7):  # stage 6 sits at the 5th-order point q5
        X = Q[rows] + H[rows] * (KS[rows, :, :i] @ _DP_A[i])
        good = np.isfinite(X).all(axis=1)
        rows, X = _drop_rows(failed, rows, good, "nonfinite"), X[good]
        if not rows.size:
            break
        J, good = jacobian_stack(model, X)
        jacs[rows] += 1
        rows, X, J = _drop_rows(failed, rows, good, "nonfinite"), X[good], J[good]
        if not rows.size:
            break
        U, s, Vt = np.linalg.svd(J, full_matrices=False)
        svds[rows] += 1
        mu = s[:, -1]
        good = np.isfinite(mu) & (mu > 0.0) & ~(mu < mu_floor)
        rows, X, mu = _drop_rows(failed, rows, good, "singular", mu), X[good], mu[good]
        if not rows.size:
            break
        V = _velocities(U[good], s[good], Vt[good], W[rows])
        good = np.isfinite(V).all(axis=1)
        rows, X, mu, V = _drop_rows(failed, rows, good, "nonfinite"), X[good], mu[good], V[good]
        if not rows.size:
            break
        KS[rows, :, i] = V
    else:
        err = H[rows] * (KS[rows] @ _DP_ERR)
        for k, j in enumerate(rows):
            passed[j] = (X[k], KS[j, :, 6], float(mu[k]), err[k])
    for lane, jac, svd, fail, done in zip(lanes, jacs, svds, failed, passed):
        lane.stats.jacobians += int(jac)
        lane.stats.svds += int(svd)
        if done is not None:
            lane.finish(*done)
        else:
            lane.reject(*fail)


@np.errstate(over="ignore", invalid="ignore")  # non-finite stages are rejected
def lift_lines(model: MapModel, x0, W, opts: Optional[LiftOptions] = None) -> list:
    """Lift the lines f(x0) + t W[k], t in [0, 1], for every row of W.

    Every line lift runs here.  f(x0), J(x0) and its SVD are computed once
    and counted in every lane.  One row runs on the scalar stage code.
    More rows run in lockstep as one (K, n) state: each lane keeps its own
    t, step size, step controller, recorder and status, and leaves the batch
    when it stops, and every stage takes one Jacobian stack and one SVD over
    the live lanes.  Square and wide (m <= n) maps are both served, as by
    lift_line_square and lift_line_horizontal.  Returns one LiftOutcome per
    row of W: the outcome the one-row call of that row returns.
    """
    opts = opts or LiftOptions()
    if model.m > model.n:
        raise DimensionMismatch(
            f"lift_lines: map {model.name!r} is {model.m}x{model.n}, need m <= n"
        )
    x0v = _vector(x0, model.n, "lift_lines: x0")
    Wv = np.asarray(W, dtype=float)
    if Wv.ndim != 2 or Wv.shape[1] != model.m:
        raise DimensionMismatch(f"lift_lines: W shape {Wv.shape}, expected (K, {model.m})")
    if not len(Wv):
        return []
    f0 = evaluate(model, x0v)
    U, s, Vt = np.linalg.svd(jacobian(model, x0v), full_matrices=False)
    lanes = [_LineLift(model, x0v, f0, w, opts) for w in Wv]
    for lane in lanes:
        lane.start(U, s, Vt)
    if len(lanes) == 1:
        _integrate(lanes[0])
    else:
        while True:
            live = [lane for lane in lanes if lane.begin_attempt()]
            if not live:
                break
            _lockstep_attempt(model, live, opts.mu_floor)
    return [lane.outcome() for lane in lanes]


@np.errstate(over="ignore", invalid="ignore")  # non-finite stages are rejected
def gradient_flow(model: MapModel, x0, y, opts: Optional[LiftOptions] = None):
    """Integrate x' = -grad F_y with F_y(x) = |f(x) - y|^2 / 2.

    Returns (LiftOutcome, FlowVerdict).  Recorded F values are nonincreasing
    (steps that would raise F are rejected).  Verdicts: converged when the
    state has stabilized and either the gradient is below abs_tol or the
    residual is at root scale; ps_candidate when F stalls (relative to its
    level c above root scale) while the gradient is small (relative to its
    start) and the iterates keep drifting; diverged when the flow leaves the
    escape ball.
    """
    opts = opts or LiftOptions()
    x0v = _vector(x0, model.n, "gradient_flow: x0")
    flow = _FlowLift(model, x0v, _vector(y, model.m, "gradient_flow: y"), opts)
    flow.start()
    _integrate(flow)
    return flow.outcome()


def path_length(trajectory: LiftTrajectory) -> float:
    """Chordal length of the recorded points."""
    if trajectory.points.shape[0] < 2:
        raise TooFewPoints("path_length: need at least two recorded points")
    return float(np.sum(np.linalg.norm(np.diff(trajectory.points, axis=0), axis=1)))


def weighted_path_length(
    trajectory: LiftTrajectory,
    weight: Callable[[float], float],
    x_ref=None,
) -> float:
    """Chordal length with each chord divided by weight(|midpoint - x_ref|).

    weight is the radial growth allowance omega; dividing by it realizes the
    line element eta(rho) |dx| with eta = 1/omega.  x_ref defaults to the
    trajectory's start point.
    """
    pts = trajectory.points
    if pts.shape[0] < 2:
        raise TooFewPoints("weighted_path_length: need at least two recorded points")
    ref = pts[0] if x_ref is None else np.asarray(x_ref, dtype=float)
    total = 0.0
    for k in range(pts.shape[0] - 1):
        mid = 0.5 * (pts[k] + pts[k + 1])
        om = float(weight(float(np.linalg.norm(mid - ref))))
        if not np.isfinite(om) or om <= 0.0:
            raise OutOfRange("weighted_path_length: weight must be positive and finite")
        total += float(np.linalg.norm(pts[k + 1] - pts[k])) / om
    return total
