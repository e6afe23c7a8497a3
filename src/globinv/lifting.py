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

lift_line_square and lift_line_horizontal run one lift.  lift_lines(model,
x0, W, opts) runs the K lifts from one base point, one per row of W, in
lockstep as a single (K, n) state: every stage builds one stacked Jacobian
and takes one stacked SVD over the lanes still live.  Per-lane contract:
each lane keeps its own t, step size, step controller, recorder and status;
a lane whose stage fails leaves the rest of that attempt, and a lane that
stops leaves the batch; lane k returns the LiftOutcome, LiftStats included,
that the single lift of W[k] returns.  Batching pays when several lifts share
a base point (verification sweeps); a single lift runs faster on the scalar
stage code, so both stage codes stay and share one step controller.
Every LiftOutcome carries LiftStats, the deterministic work counters of its
lift.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, NonFinite, OutOfRange, TooFewPoints
from .maps import MapModel, evaluate, jacobian, jacobian_stack

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
_PS_STALL_TOL = 2e-5  # absolute F stall per time-doubling window
_PS_GRAD_TOL = 1e-3
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
    t_checkpoints: tuple = ()

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise OutOfRange("LiftOptions: tolerances must be positive")
        if self.mu_floor < 0.0:
            raise OutOfRange("LiftOptions: mu_floor must be nonnegative")
        if self.r_escape is not None and not self.r_escape > 0.0:
            raise OutOfRange("LiftOptions: r_escape must be positive or None")
        if self.max_steps < 1 or self.record_stride < 1:
            raise OutOfRange("LiftOptions: max_steps and record_stride must be >= 1")
        cps = tuple(float(c) for c in self.t_checkpoints)
        if any(not c > 0.0 for c in cps) or any(b <= a for a, b in zip(cps, cps[1:])):
            raise OutOfRange("LiftOptions: t_checkpoints must be positive and increasing")


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
    weighted_length: Optional[float] = None

    def to_csv(self, path_or_handle) -> None:
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
        text = "\n".join(rows) + "\n"
        if isinstance(path_or_handle, io.TextIOBase):
            path_or_handle.write(text)
        else:
            with open(path_or_handle, "w", encoding="ascii", newline="\n") as fh:
                fh.write(text)


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
    was accepted.  The counters are deterministic, and a lane of lift_lines
    counts exactly what the sequential lift of its target counts.
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
    return float(np.linalg.norm(v))


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

    def record(self, t: float, x: Array, mu: float, force: bool = False):
        if self.times and not force and self._since + 1 < self.stride:
            self._since += 1
            return
        if self.times and abs(self.times[-1] - t) < 1e-300:
            return
        self.times.append(float(t))
        self.points.append(np.array(x, dtype=float))
        self.mus.append(float(mu))
        self._since = 0

    def force_last(self, t: float, x: Array, mu: float):
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


class _LineLift:
    """State and step control of one line lift.

    The stage code (scalar in _lift_line, batched in _lockstep_attempt)
    computes Dormand-Prince attempts; this class owns everything per lift:
    t, the step size and its controller with the mu-decay guard, the
    checkpoints, the recorder, the counters, and the singular, escape, drift
    and residual stops.
    """

    def __init__(self, model: MapModel, x0v: Array, wv: Array, opts: LiftOptions):
        self.model, self.x0, self.w, self.opts = model, x0v, wv, opts
        self.stats = LiftStats()
        self.stats.evals += 1
        self.f0 = evaluate(model, x0v)
        self.f = self.f0  # f(q), known from the step that accepted q
        self.norm_w = _norm(wv)
        self.complete_tol = 10.0 * opts.rel_tol * max(self.norm_w, 1.0) + 100.0 * opts.abs_tol
        self.drift_cap = max(1e3 * self.complete_tol, 1e-6 * max(self.norm_w, 1.0))
        self.rtol = opts.rel_tol / _SAFETY_DIV
        self.atol = opts.abs_tol / _SAFETY_DIV
        self.checkpoints = sorted(c for c in opts.t_checkpoints if 0.0 < c < 1.0)
        self.cp_idx = 0
        self.rec = _Recorder(opts.record_stride)
        self.t = 0.0
        self.q = x0v
        self.k1 = None
        self.h = 0.0
        self.mu_prev = None
        self.length = 0.0
        self.max_drift = 0.0
        self.status = None
        self.last_singular_mu = None

    def start(self, U: Array, s: Array, Vt: Array) -> None:
        """Set up from the SVD of J(x0): record the base point, stop at once
        when it is singular or w = 0, else take the first slope and step."""
        mu0 = float(s[-1])
        self.mu_prev = mu0
        self.rec.record(0.0, self.x0, mu0, force=True)
        if mu0 < self.opts.mu_floor:
            self.status = LiftStatus.singular(0.0, mu0)
            return
        if self.norm_w == 0.0:
            self.t = 1.0
            self.rec.force_last(1.0, self.x0, mu0)
            self.status = LiftStatus.complete(1.0)
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

    def begin_attempt(self) -> bool:
        """Size the next attempt; False once the lift has stopped."""
        if self.status is not None or self.t >= 1.0 - 1e-15:
            return False
        if self.stats.accepted >= self.opts.max_steps:
            self.status = LiftStatus.step_failure(self.t)
            return False
        cps = self.checkpoints
        while self.cp_idx < len(cps) and cps[self.cp_idx] <= self.t + 1e-15:
            self.cp_idx += 1
        self.h = min(self.h, 1.0 - self.t)
        if self.cp_idx < len(cps):
            self.h = min(self.h, cps[self.cp_idx] - self.t)
        return True

    def reject(self, cause: str, mu: Optional[float] = None, err_norm: float = np.inf) -> None:
        """Reject the attempt (cause "error", "singular" or "nonfinite") and
        shrink the step; a step that collapses ends the lift."""
        if cause == "singular":
            self.stats.rejected_singular += 1
            self.last_singular_mu = mu
        elif cause == "nonfinite":
            self.stats.rejected_nonfinite += 1
        else:
            self.stats.rejected_error += 1
        shrink = 0.5 if not np.isfinite(err_norm) else max(0.1, min(0.5, 0.9 * err_norm ** -0.2))
        self.h *= shrink
        if self.h < _H_MIN:
            if self.last_singular_mu is not None:
                self.status = LiftStatus.singular(self.t, self.last_singular_mu)
            else:
                self.status = LiftStatus.step_failure(self.t)

    def finish(self, q5: Array, k7: Array, mu_new: float, err: Array) -> None:
        """Judge an attempt whose stages all succeeded: reject it on the
        error estimate or a non-finite f(q5), else take the step."""
        scale = self.atol + self.rtol * np.maximum(np.abs(self.q), np.abs(q5))
        err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
        if not err_norm <= 1.0:
            self.reject("error", err_norm=err_norm)
            return
        self.stats.evals += 1
        try:
            f_new = evaluate(self.model, q5)
        except NonFinite:
            self.reject("nonfinite")
            return

        h_used = self.h
        self.stats.accepted += 1
        self.stats.h_min = min(self.stats.h_min, h_used)
        t_new = self.t + h_used
        if 1.0 - t_new < 1e-15:
            t_new = 1.0
        drift = _norm(f_new - (self.f0 + t_new * self.w))
        self.max_drift = max(self.max_drift, drift)
        self.length += _norm(q5 - self.q)
        cps = self.checkpoints
        at_checkpoint = self.cp_idx < len(cps) and abs(t_new - cps[self.cp_idx]) <= 1e-12
        self.q, self.t, self.k1, self.f = q5, t_new, k7, f_new
        self.rec.record(t_new, q5, mu_new, force=at_checkpoint or t_new >= 1.0)
        if drift > self.drift_cap:
            self.rec.force_last(t_new, q5, mu_new)
            self.status = LiftStatus.step_failure(t_new)
            return
        dist = _norm(q5 - self.x0)
        if self.opts.r_escape is not None and dist > self.opts.r_escape:
            self.rec.force_last(t_new, q5, mu_new)
            self.status = LiftStatus.escaped(t_new, dist)
            return
        fac = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
        h_next = h_used * fac
        if mu_new < self.mu_prev:
            guard = 0.1 * h_used * mu_new / max(self.mu_prev - mu_new, 1e-300)
            h_next = min(h_next, guard)
        self.mu_prev = mu_new
        self.last_singular_mu = None
        self.h = min(h_next, _H_MAX)

    def outcome(self) -> LiftOutcome:
        self.rec.force_last(self.t, self.q, self.mu_prev)
        residual = _norm(self.f - (self.f0 + self.t * self.w))
        status = self.status
        if status is None:
            status = LiftStatus.complete(1.0) if residual <= self.complete_tol else LiftStatus.step_failure(1.0)
        return LiftOutcome(
            self.rec.build(self.length), status, float(residual), float(self.max_drift), self.stats
        )


def _check_line_args(model: MapModel, x0, what: str) -> Array:
    x0v = np.asarray(x0, dtype=float)
    if x0v.shape != (model.n,):
        raise DimensionMismatch(f"{what}: x0 shape {x0v.shape}, expected ({model.n},)")
    return x0v


def _lift_line(model: MapModel, x0, w, opts: LiftOptions) -> LiftOutcome:
    x0v = _check_line_args(model, x0, "lift")
    wv = np.asarray(w, dtype=float)
    if wv.shape != (model.m,):
        raise DimensionMismatch(f"lift: w shape {wv.shape}, expected ({model.m},)")
    lift = _LineLift(model, x0v, wv, opts)
    stats = lift.stats

    def vel(x):
        stats.jacobians += 1
        J = jacobian(model, x)  # NonFinite from the model surfaces as a bad stage
        stats.svds += 1
        return _velocity(*np.linalg.svd(J, full_matrices=False), wv, opts.mu_floor)

    stats.jacobians += 1
    J0 = jacobian(model, x0v)
    stats.svds += 1
    lift.start(*np.linalg.svd(J0, full_matrices=False))
    while lift.begin_attempt():
        try:
            q5, k7, mu_new, err = _dp_attempt(vel, lift.q, lift.k1, lift.h)
        except _StageSingular as exc:
            lift.reject("singular", exc.mu)
        except (_StageBad, NonFinite):
            lift.reject("nonfinite")
        else:
            lift.finish(q5, k7, mu_new, err)
    return lift.outcome()


def lift_line_square(model: MapModel, x0, w, opts: Optional[LiftOptions] = None) -> LiftOutcome:
    """Lift the line f(x0) + t w, t in [0, 1], through a square Jacobian."""
    if model.n != model.m:
        raise DimensionMismatch(
            f"lift_line_square: map {model.name!r} is {model.m}x{model.n}, need square"
        )
    return _lift_line(model, x0, w, opts or LiftOptions())


def lift_line_horizontal(model: MapModel, x0, w, opts: Optional[LiftOptions] = None) -> LiftOutcome:
    """Lift the line f(x0) + t w through the minimum-norm right inverse of a
    wide (m <= n) Jacobian; the velocity stays orthogonal to the kernel."""
    if model.m > model.n:
        raise DimensionMismatch(
            f"lift_line_horizontal: map {model.name!r} is {model.m}x{model.n}, need m <= n"
        )
    return _lift_line(model, x0, w, opts or LiftOptions())


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


def lift_lines(model: MapModel, x0, W, opts: Optional[LiftOptions] = None) -> list:
    """Lift the lines f(x0) + t W[k], t in [0, 1], for every row of W at once.

    The K lifts run in lockstep as one (K, n) state; each lane keeps its own
    t, step size, step controller, recorder and status, and leaves the batch
    when it stops.  Every stage takes one Jacobian stack and one SVD over the
    live lanes.  Square and wide (m <= n) maps are both served, as by
    lift_line_square and lift_line_horizontal.  Returns one LiftOutcome per
    row of W: the outcome the sequential lift of that row returns.
    """
    opts = opts or LiftOptions()
    if model.m > model.n:
        raise DimensionMismatch(
            f"lift_lines: map {model.name!r} is {model.m}x{model.n}, need m <= n"
        )
    x0v = _check_line_args(model, x0, "lift_lines")
    Wv = np.asarray(W, dtype=float)
    if Wv.ndim != 2 or Wv.shape[1] != model.m:
        raise DimensionMismatch(f"lift_lines: W shape {Wv.shape}, expected (K, {model.m})")
    lanes = [_LineLift(model, x0v, w, opts) for w in Wv]
    if not lanes:
        return []
    # each lane takes its own base-point Jacobian and SVD, as its sequential
    # lift does, so the counters of the two agree
    J0, finite = jacobian_stack(model, np.repeat(x0v[None, :], len(lanes), axis=0))
    if not finite.all():
        raise NonFinite(f"lift_lines({model.name}): non-finite derivative at x0={x0v!r}")
    U, s, Vt = np.linalg.svd(J0, full_matrices=False)
    for k, lane in enumerate(lanes):
        lane.stats.jacobians += 1
        lane.stats.svds += 1
        lane.start(U[k], s[k], Vt[k])
    while True:
        live = [lane for lane in lanes if lane.begin_attempt()]
        if not live:
            break
        _lockstep_attempt(model, live, opts.mu_floor)
    return [lane.outcome() for lane in lanes]


def gradient_flow(model: MapModel, x0, y, opts: Optional[LiftOptions] = None):
    """Integrate x' = -grad F_y with F_y(x) = |f(x) - y|^2 / 2.

    Returns (LiftOutcome, FlowVerdict).  Recorded F values are nonincreasing
    (steps that would raise F are rejected).  Verdicts: converged when the
    state has stabilized and either the gradient is below abs_tol or the
    residual is at root scale; ps_candidate when F stalls at a level c above
    root scale while the gradient is small and the iterates keep drifting;
    diverged when the flow leaves the escape ball.
    """
    opts = opts or LiftOptions()
    x0v = np.asarray(x0, dtype=float)
    yv = np.asarray(y, dtype=float)
    if x0v.shape != (model.n,):
        raise DimensionMismatch(f"gradient_flow: x0 shape {x0v.shape}, expected ({model.n},)")
    if yv.shape != (model.m,):
        raise DimensionMismatch(f"gradient_flow: y shape {yv.shape}, expected ({model.m},)")

    stats = LiftStats()

    def eval_state(x):
        stats.evals += 1
        fx = evaluate(model, x)
        stats.jacobians += 1
        J = jacobian(model, x)
        r = fx - yv
        g = J.T @ r
        F = 0.5 * float(r @ r)
        stats.svds += 1
        mu = float(np.linalg.svd(J, compute_uv=False)[-1])
        return -g, (mu, F, _norm(g))

    def vel(x):
        v, extra = eval_state(x)
        if not np.all(np.isfinite(v)):
            raise _StageBad()
        return v, extra

    grad_tol = opts.abs_tol
    # residual scale below which a plateau is a root, not a PS level
    res_tol = 10.0 * opts.rel_tol * max(_norm(yv), 1.0) + 100.0 * opts.abs_tol
    rtol = opts.rel_tol / _SAFETY_DIV
    atol = opts.abs_tol / _SAFETY_DIV

    try:
        v0, (mu0, F0, gn0) = vel(x0v)
    except _StageBad:
        raise NonFinite(f"gradient_flow({model.name}): non-finite gradient at x0") from None
    rec = _Recorder(opts.record_stride)
    rec.record(0.0, x0v, mu0, force=True)
    if gn0 <= grad_tol:
        outcome = LiftOutcome(
            rec.build(0.0), LiftStatus.complete(0.0), float(np.sqrt(2 * F0)), 0.0, stats
        )
        return outcome, FlowVerdict("converged", level=F0, grad_norm=gn0)

    h0 = min(0.1, 0.01 * (1.0 + _norm(x0v)) / (1.0 + gn0))
    h = h0
    t = 0.0
    q = x0v.copy()
    k1, F, gn, mu = v0, F0, gn0, mu0
    length = 0.0
    status = None
    verdict = None
    cp = None  # (t, x, F) of the last checkpoint
    prev_window_dx = None
    nsteps = 0

    while status is None:
        if nsteps >= opts.max_steps:
            status = LiftStatus.step_failure(t)
            break
        stage_failed = False
        try:
            q5, k7, (mu7, F7, gn7), err = _dp_attempt(vel, q, k1, h)
            scale = atol + rtol * np.maximum(np.abs(q), np.abs(q5))
            err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
            monotone_ok = F7 <= F + 1e-12 * (1.0 + abs(F))
        except (_StageBad, _StageSingular, NonFinite):
            stage_failed, err_norm, monotone_ok = True, np.inf, False

        if err_norm <= 1.0 and monotone_ok:
            nsteps += 1
            h_used = h
            stats.accepted += 1
            stats.h_min = min(stats.h_min, h_used)
            length += _norm(q5 - q)
            t += h_used
            q, k1, F, gn, mu = q5, k7, F7, gn7, mu7
            rec.record(t, q, mu)
            dist = _norm(q - x0v)
            if opts.r_escape is not None and dist > opts.r_escape:
                rec.force_last(t, q, mu)
                status = LiftStatus.escaped(t, dist)
                verdict = FlowVerdict("diverged", level=F, grad_norm=gn)
                break
            if cp is None:
                cp = (t, q.copy(), F)
            elif t >= 2.0 * cp[0]:
                dF = cp[2] - F
                dx = _norm(q - cp[1])
                stabilized = dx <= _STAB_TOL * (1.0 + _norm(q))
                near_root = np.sqrt(2.0 * F) <= res_tol
                if (gn <= grad_tol or near_root) and (stabilized or near_root):
                    rec.force_last(t, q, mu)
                    status = LiftStatus.complete(t)
                    verdict = FlowVerdict("converged", level=F, grad_norm=gn)
                    break
                if (
                    dF <= _PS_STALL_TOL
                    and gn <= _PS_GRAD_TOL
                    and not near_root
                    and prev_window_dx is not None
                    and dx > 0.5 * prev_window_dx
                ):
                    rec.force_last(t, q, mu)
                    status = LiftStatus.escaped(t, dist)
                    verdict = FlowVerdict("ps_candidate", level=F, grad_norm=gn)
                    break
                prev_window_dx = dx
                cp = (t, q.copy(), F)
            fac = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
            h = min(h * fac, 10.0 * max(t, h0), _H_MAX)
        else:
            if stage_failed:
                stats.rejected_nonfinite += 1
            else:
                stats.rejected_error += 1
            h *= 0.5 if not np.isfinite(err_norm) else max(0.1, min(0.5, 0.9 * err_norm ** -0.2))
            if h < _H_MIN * max(1.0, t):
                status = LiftStatus.step_failure(t)
                break

    rec.force_last(t, q, mu)
    if verdict is None:
        if np.sqrt(2.0 * F) <= res_tol:
            verdict = FlowVerdict("converged", level=F, grad_norm=gn)
        elif gn <= _PS_GRAD_TOL:
            verdict = FlowVerdict("ps_candidate", level=F, grad_norm=gn)
        else:
            verdict = FlowVerdict("diverged", level=F, grad_norm=gn)
    residual = float(np.sqrt(2.0 * F))
    return LiftOutcome(rec.build(length), status, residual, 0.0, stats), verdict


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
