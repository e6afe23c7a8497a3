"""Path lifting through the derivative, and the residual gradient flow.

Straight lines p(t) = f(x0) + t w in the codomain are lifted back to the
domain by integrating

    q' = J(q)^{-1} w                     (square Jacobian)
    q' = J(q)^T (J(q) J(q)^T)^{-1} w     (wide Jacobian, minimum-norm route)

from q(0) = x0 over t in [0, 1], so f(q(t)) tracks the line exactly in
continuous time.  Both velocities come out of one SVD per evaluation, which
also yields the local invertibility indicator mu used for singularity
detection.  Every SVD is maps._svd: for a 1x1 stack whose every |J| lies in
[1e-100, 1e100] the closed form s = |J|, U = sign(J), Vt = 1, which LAPACK
returns there bit for bit, and LAPACK for any other stack.  The integrator
is an embedded Dormand-Prince 4(5) pair with a decay-rate step guard so the
solver slows down near singular loci instead of jumping across them.

Every line lift is a lift_lines(model, x0, W, opts) call: the K lifts from
one base point, one per row of W, with f(x0), J(x0) and its SVD computed
once per call and counted in every lane.  lift_line_square and
lift_line_horizontal check the shape and make a one-row call.
gradient_flow integrates x' = -grad F_y as one lane.

One stage code and one driver (_drive) serve both ODEs.  The lanes run in
lockstep as one (K, n) state (_lockstep_attempt) under one step controller
(_Lift: t, step size and budget, rejection and step collapse, recorder,
counters, escape stop).  _Attempt keeps the books of one attempt: one work
tally, one error test and one exit for every lane cut within it.  Two
judges supply the stage slopes, one stack of model calls per stage, and
take or reject the attempts under tolerance: _LineLift (J^+ w from an SVD
stack per stage, the mu floor; _judge_lanes: f(q5), chords, drifts against
the line and distances from x0, each stacked) and _FlowLift (-J^T r and F;
one singular-value stack per attempt, at q5; F must not rise, and
time-doubling windows give the verdict).  Each lane keeps its own t, step
size, recorder and status, and its LiftOutcome, LiftStats included, does
not depend on the other rows of the call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, NonFinite, OutOfRange, TooFewPoints
from .maps import MapModel, _svd, _vector, evaluate, evaluate_stack, jacobian, jacobian_stack

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
        for name in ("max_steps", "record_stride"):
            v = getattr(self, name)
            # a float (NaN or 2.5) or a bool is not a step count
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not v >= 1:
                raise OutOfRange(f"LiftOptions: {name} must be an integer >= 1, got {v!r}")


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

    @np.errstate(over="ignore")  # an overflowed chord is rescaled (_row_norms)
    def to_csv(self, path) -> None:
        """Columns t, x_1..x_n, mu, cumulative_length (chords of these rows)."""
        n = self.points.shape[1]
        header = ",".join(["t"] + [f"x_{i + 1}" for i in range(n)] + ["mu", "cumulative_length"])
        chords = _row_norms(np.diff(self.points, axis=0))
        cum = np.cumsum(np.concatenate([[0.0], chords]))
        _write_csv(path, header, [self.times, *self.points.T, self.mu_values, cum])


@dataclass
class LiftStats:
    """Work counters of one lift.

    accepted: accepted steps.  rejected_error, rejected_singular,
    rejected_nonfinite: rejected attempts by cause (the error estimate,
    or for the gradient flow the energy test; an indicator below the floor;
    a non-finite point, derivative, slope or value).  evals: model
    evaluations made by the lift itself, not those inside a
    finite-difference Jacobian.  jacobians: Jacobian evaluations.  svds:
    SVDs taken, a closed-form 1x1 one (maps._svd) included; a flow takes
    one at x0 and one per attempt that reaches q5.  h_min: the smallest
    accepted step size, inf when no step was accepted.  The counters are
    deterministic; each lane of a lift_lines call counts the shared work at
    x0 as its own, so it counts exactly what the one-row call of its target
    counts.
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


def _write_csv(path, header: str, columns) -> None:
    """Write the header and one row per entry of the columns: a numeric
    column's cells as repr of Python floats, a str column's as they are."""
    cells = []
    for col in map(np.asarray, columns):
        text = col.dtype.kind == "U"
        cells.append(col.tolist() if text else list(map(repr, col.astype(float).tolist())))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join([header, *map(",".join, zip(*cells))]) + "\n")


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


def _row_norms(D: Array) -> Array:
    """_norm of every row of D, bit for bit.  Each row's dot product goes
    through matmul, which rounds as np.linalg.norm of the row does;
    np.linalg.norm(D, axis=1), (D * D).sum(1) and einsum round differently
    in some rows.  Rows whose plain norm overflows go through _norm, so,
    like _norm, it runs under np.errstate(over="ignore")."""
    norms = np.sqrt(np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0])
    if not norms.max(initial=0.0) < math.inf:
        for k in np.flatnonzero(norms == math.inf):
            norms[k] = _norm(D[k])
    return norms


def _error_norms(atol: float, rtol: float, q: Array, q5: Array, err: Array):
    """The RMS over the last axis of err / (atol + rtol max(|q|, |q5|)): the
    error norm of one attempt, or a (K,) array of them for stacked rows,
    each bitwise the one-row value.  The sum over the count is np.mean's
    own arithmetic without its overhead."""
    scale = atol + rtol * np.maximum(np.abs(q), np.abs(q5))
    return np.sqrt(np.add.reduce((err / scale) ** 2, axis=-1) / err.shape[-1])


def _velocities(U: Array, s: Array, Vt: Array, W: Array) -> Array:
    """Solve J v = w for a stack of SVDs J = U diag(s) Vt, one row w of W
    per matrix: the exact inverse for square J, the minimum-norm right
    inverse J^T (J J^T)^{-1} otherwise.  Each row is computed by the same
    BLAS operations whatever the size of the stack."""
    c = np.matmul(U.transpose(0, 2, 1), W[:, :, None])[:, :, 0] / s
    return np.matmul(Vt.transpose(0, 2, 1), c[:, :, None])[:, :, 0]


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
    Its attempts are made by _lockstep_attempt; a judge subclass supplies
    the stage slopes (slopes) and takes or rejects the attempts whose
    stages all passed (judge)."""

    t_end = 1.0

    def __init__(self, model: MapModel, x0v: Array, wv: Array, opts: LiftOptions):
        self.model, self.x0, self.opts = model, x0v, opts
        self.w = wv  # the codomain vector of the ODE: the line's w, the flow's y
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

    def add_work(self, evals: int, jacobians: int, svds: int) -> None:
        self.stats.evals += evals
        self.stats.jacobians += jacobians
        self.stats.svds += svds

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

    def grown(self, err_norm: float) -> float:
        """The next step size after taking a step of this error norm, uncapped."""
        fac = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
        return self.h * fac

    def step_end(self) -> float:
        """The time an accepted attempt of size h reaches: t + h, or t_end
        when that lies within 1e-15 of it."""
        t_new = self.t + self.h
        return self.t_end if self.t_end - t_new < 1e-15 else t_new

    def accept(self, q5: Array, k7: Array, mu: float, t_new: float, chord: float) -> None:
        """Take the attempted step of size h to q5, where the slope is k7;
        t_new is step_end() and chord is |q5 - q|."""
        self.stats.accepted += 1
        self.stats.h_min = min(self.stats.h_min, self.h)
        self.length += chord
        self.q, self.t, self.k1, self.mu = q5, t_new, k7, mu
        self.last_singular_mu = None
        self.rec.record(t_new, q5, mu)

    def stop(self, status: LiftStatus) -> None:
        self.rec.force_last(self.t, self.q, self.mu)
        self.status = status

    def stop_if_escaped(self, dist: float) -> bool:
        """Stop as Escaped when dist = |q - x0| exceeds r_escape."""
        if self.opts.r_escape is not None and dist > self.opts.r_escape:
            self.stop(LiftStatus.escaped(self.t, dist))
        return self.status is not None

    def trajectory(self) -> LiftTrajectory:
        self.rec.force_last(self.t, self.q, self.mu)
        return self.rec.build(self.length)


def _surely_finite(A: Array) -> bool:
    """True when A has no non-finite entry, by one sum.  A finite A whose
    sum overflows reads False too, so False calls for the per-row test."""
    return math.isfinite(np.add.reduce(A, axis=None))


class _Attempt:
    """The live lanes of one lockstep attempt and their rows, kept aligned
    with the list of lanes: Q the points the step starts from, H the step
    sizes, W the codomain vectors, KS the seven stage slopes and X the
    current stage point.  evals, jacobians and svds tally the stack calls
    made so far, each raised right after its call: every lane still in the
    attempt did that work, and adds it to its LiftStats when it leaves or
    is judged."""

    def __init__(self, model: MapModel, lanes: list):
        self.lanes = lanes
        self.Q = self.X = np.array([lane.q for lane in lanes])
        self.H = np.array([[lane.h] for lane in lanes])
        self.W = np.array([lane.w for lane in lanes])
        self.KS = np.empty((len(lanes), model.n, 7))
        self.KS[:, :, 0] = [lane.k1 for lane in lanes]
        self.evals = self.jacobians = self.svds = 0

    def leave(self, good: Array, cause: str, *arrays, **values) -> list:
        """Reject the lanes that are not good with cause, adding the tally
        and passing values[key][k] to reject (mu= or err_norm=) as a Python
        float, whose ** -0.2 does not depend on the other rows.  Cuts the
        lanes and their rows, and the arrays, which it returns, to the good
        ones."""
        for k in np.flatnonzero(~good).tolist():
            lane = self.lanes[k]
            lane.add_work(self.evals, self.jacobians, self.svds)
            lane.reject(cause, **{key: float(v[k]) for key, v in values.items()})
        self.lanes = [lane for lane, g in zip(self.lanes, good.tolist()) if g]
        self.Q, self.H, self.W, self.KS, self.X, *arrays = (
            A[good] for A in (self.Q, self.H, self.W, self.KS, self.X, *arrays)
        )
        return arrays

    def close(self, model: MapModel, at: tuple, err: Array) -> None:
        """Judge the lanes whose stages all passed (X is q5, at what slopes
        returned there, err the error vectors): a lane whose error norm is
        over tolerance leaves, the judge takes or rejects the others."""
        first = self.lanes[0]  # tolerances: shared by the lanes of one call
        E = _error_norms(first.atol, first.rtol, self.Q, self.X, err)
        under = E <= 1.0  # a NaN norm is rejected
        if not under.all():
            *at, E = self.leave(under, "error", *at, E, err_norm=E)
            if not self.lanes:
                return
        first.judge(model, self, at, E)
        for lane in self.lanes:
            lane.add_work(self.evals, self.jacobians, self.svds)


def _lockstep_attempt(model: MapModel, lanes: list, mu_floor: float) -> None:
    """One Dormand-Prince attempt for every lane (all of one judge class),
    in lockstep: each stage point is one (K, n) array, and a lane whose
    stage fails leaves (_Attempt.leave).  Each check is one reduce over the
    whole stack; the per-row mask is built only when it does not pass.  The
    lanes whose stages all passed are judged together (_Attempt.close)."""
    a = _Attempt(model, lanes)
    slopes = lanes[0].slopes
    for i in range(1, 7):  # stage 6 sits at the 5th-order point q5
        a.X = a.Q + a.H * (a.KS[:, :, :i] @ _DP_A[i])
        if not _surely_finite(a.X):
            a.leave(np.isfinite(a.X).all(axis=1), "nonfinite")
        at = slopes(model, a, i, mu_floor)
        if not a.lanes:
            return
    a.close(model, at, a.H * (a.KS @ _DP_ERR))


def _judge_lanes(model: MapModel, a: _Attempt, at: tuple, E: Array) -> None:
    """Take or reject the attempts of the line lanes of a that passed the
    error test (E their error norms, at = (mu at q5,)): f(q5) by one
    evaluate_stack (a lane with a non-finite row leaves), and the step
    chords, the drifts against the line and the distances from x0 as row
    norms; each lane then takes its step through _LineLift.take."""
    first, (mu,) = a.lanes[0], at  # x0, f0: shared by the lanes of one call
    F, finite = evaluate_stack(model, a.X)
    a.evals += 1
    if not finite.all():
        F, mu, E = a.leave(finite, "nonfinite", F, mu, E)
    T = [lane.step_end() for lane in a.lanes]
    chords = _row_norms(a.X - a.Q).tolist()
    drifts = _row_norms(F - (first.f0 + np.array(T)[:, None] * a.W)).tolist()
    dists = _row_norms(a.X - first.x0).tolist()
    for k, (lane, mu_new, err_norm) in enumerate(zip(a.lanes, mu.tolist(), E.tolist())):
        lane.take(a.X[k], a.KS[k, :, 6], mu_new, err_norm, F[k], T[k], chords[k], drifts[k], dists[k])


class _LineLift(_Lift):
    """One lane of a lift_lines call, on q' = J(q)^+ w: the residual and
    drift of f(q) against the line, the mu-decay step guard, and the stops
    at x0.  Its stage slopes come from a Jacobian stack and its SVD
    (slopes); its finished attempts are judged by _judge_lanes."""

    judge = staticmethod(_judge_lanes)

    def __init__(self, model: MapModel, x0v: Array, f0: Array, wv: Array, opts: LiftOptions):
        super().__init__(model, x0v, wv, opts)
        self.f0 = f0
        self.f = f0  # f(q), known from the step that accepted q
        self.norm_w = _norm(wv)
        self.complete_tol = 10.0 * opts.rel_tol * max(self.norm_w, 1.0) + 100.0 * opts.abs_tol
        self.drift_cap = max(1e3 * self.complete_tol, 1e-6 * max(self.norm_w, 1.0))
        self.max_drift = 0.0

    @staticmethod
    def slopes(model: MapModel, a: _Attempt, i: int, mu_floor: float):
        """Stage i of the line lanes of a: one Jacobian stack and its SVD.
        A lane leaves on a non-finite Jacobian, on mu below mu_floor (or not
        positive and finite) and on a non-finite velocity.  Sets the slopes
        KS[:, :, i] and returns (mu,)."""
        J, good = jacobian_stack(model, a.X)
        a.jacobians += 1
        if not good.all():
            (J,) = a.leave(good, "nonfinite", J)
        U, s, Vt = _svd(J)
        a.svds += 1
        mu = s[:, -1]
        low, high = np.minimum.reduce(mu, initial=math.inf), np.maximum.reduce(mu, initial=0.0)
        if not (low >= mu_floor and low > 0.0 and high < math.inf):
            good = np.isfinite(mu) & (mu > 0.0) & ~(mu < mu_floor)
            U, s, Vt, mu = a.leave(good, "singular", U, s, Vt, mu, mu=mu)
        V = _velocities(U, s, Vt, a.W)
        if not _surely_finite(V):
            mu, V = a.leave(np.isfinite(V).all(axis=1), "nonfinite", mu, V)
        a.KS[:, :, i] = V
        return (mu,)

    def start(self, U: Array, s: Array, Vt: Array) -> None:
        """Set up from the SVD of J(x0): record the base point, stop at once
        when it is singular or w = 0, else take the first slope and step."""
        self.add_work(1, 1, 1)  # f(x0), J(x0) and its SVD, shared by the lanes
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
        if not 0.0 < self.mu < math.inf:
            self.status = LiftStatus.singular(0.0, self.mu)
            return
        self.k1 = _velocities(U[None], s[None], Vt[None], self.w[None])[0]
        if not np.isfinite(self.k1).all():
            self.status = LiftStatus.step_failure(0.0)
            return
        self.h = min(0.2, 0.01 * (1.0 + _norm(self.x0)) / (1.0 + _norm(self.k1)))

    def take(self, q5: Array, k7: Array, mu_new: float, err_norm: float, f_new: Array,
             t_new: float, chord: float, drift: float, dist: float) -> None:
        """Take the attempted step to q5, which _judge_lanes passed:
        f_new = f(q5) is reached at t_new = step_end(), chord = |q5 - q|,
        drift = |f_new - (f0 + t_new w)| and dist = |q5 - x0|.  Stop on the
        drift cap or outside the escape ball, else size the next step."""
        mu_prev = self.mu
        self.accept(q5, k7, mu_new, t_new, chord)
        self.f = f_new
        self.max_drift = max(self.max_drift, drift)
        if drift > self.drift_cap:
            self.stop(LiftStatus.step_failure(self.t))
            return
        if self.stop_if_escaped(dist):
            return
        self.h = self.next_step(err_norm, mu_prev, mu_new)

    def next_step(self, err_norm: float, mu_prev: float, mu_new: float) -> float:
        """The step after one of size h was taken: grown on its error norm,
        cut to a tenth of the distance to mu = 0 at the rate mu fell (the
        mu-decay guard), capped at _H_MAX."""
        h_next = self.grown(err_norm)
        if mu_new < mu_prev:
            guard = 0.1 * self.h * mu_new / max(mu_prev - mu_new, 1e-300)
            h_next = min(h_next, guard)
        return min(h_next, _H_MAX)

    def outcome(self) -> LiftOutcome:
        trajectory = self.trajectory()
        residual = _norm(self.f - (self.f0 + self.t * self.w))
        status = self.status
        if status is None:
            status = LiftStatus.complete(1.0) if residual <= self.complete_tol else LiftStatus.step_failure(1.0)
        return LiftOutcome(trajectory, status, float(residual), float(self.max_drift), self.stats)


def _descent(J: Array, R: Array) -> tuple:
    """For a stack of Jacobians J and residuals r = f - y: grad F = J^T r
    and F = |r|^2 / 2, each row the one-row value."""
    G = np.matmul(J.transpose(0, 2, 1), R[:, :, None])[:, :, 0]
    F = 0.5 * np.matmul(R[:, None, :], R[:, :, None])[:, 0, 0]
    return G, F


class _FlowLift(_Lift):
    """The judge of the residual gradient flow x' = -grad F_y: a step must
    not raise F, and every time-doubling window ends in a verdict or goes
    on.  The flow runs until a verdict, the escape stop or the step budget."""

    t_end = math.inf

    def __init__(self, model: MapModel, x0v: Array, yv: Array, opts: LiftOptions):
        super().__init__(model, x0v, yv, opts)
        self.grad_tol = opts.abs_tol
        # residual scale below which a plateau is a root, not a PS level
        self.res_tol = 10.0 * opts.rel_tol * max(_norm(yv), 1.0) + 100.0 * opts.abs_tol
        self.F = self.gn = self.h0 = None  # F, |grad F| at q; the first step size
        self.ps_grad_tol = None  # gradient norm below which a plateau may be PS
        self.verdict = None
        self.window = None  # (t, q, F) where the current window began
        self.window_dx = None  # how far q moved over the last window

    @staticmethod
    def slopes(model: MapModel, a: _Attempt, i: int, mu_floor: float):
        """Stage i of the flow lanes of a: -grad F from one evaluate_stack and
        one Jacobian stack.  A lane leaves on a non-finite value, Jacobian,
        gradient or energy F.  Sets the slopes KS[:, :, i]; at stage 6 (q5)
        returns (mu, F, grad F), with mu from one singular-value stack."""
        Y, good = evaluate_stack(model, a.X)
        a.evals += 1
        if not good.all():
            (Y,) = a.leave(good, "nonfinite", Y)
        J, good = jacobian_stack(model, a.X)
        a.jacobians += 1
        if not good.all():
            Y, J = a.leave(good, "nonfinite", Y, J)
        G, F = _descent(J, Y - a.W)
        if not (_surely_finite(G) and _surely_finite(F)):
            good = np.isfinite(G).all(axis=1) & (F < math.inf)
            G, F, J = a.leave(good, "nonfinite", G, F, J)
        a.KS[:, :, i] = -G
        if i < 6:
            return None
        a.svds += 1  # the attempt's one singular-value stack, at q5
        return _svd(J, compute_uv=False)[:, -1], F, G

    @staticmethod
    def judge(model: MapModel, a: _Attempt, at: tuple, E: Array) -> None:
        """Judge the flow lanes of a that passed the error test through
        finish; at holds mu, F and grad F at q5, E the error norms."""
        mu, F, G = at
        rows = zip(a.lanes, a.X, a.KS[:, :, 6], E.tolist(), mu.tolist(), F.tolist(), _row_norms(G).tolist())
        for lane, *row in rows:
            lane.finish(*row)

    def start(self) -> None:
        """f(x0), J(x0), mu and the slope there; a non-finite gradient or
        energy F at x0 raises NonFinite."""
        self.add_work(1, 1, 1)
        R = (evaluate(self.model, self.x0) - self.w)[None]
        J = np.array([jacobian(self.model, self.x0)])  # C order, as in a stack
        G, F = _descent(J, R)
        if not (np.isfinite(G).all() and F[0] < math.inf):
            raise NonFinite(f"gradient_flow({self.model.name}): non-finite gradient or energy at x0")
        self.k1, self.F, self.gn = -G[0], float(F[0]), _norm(G[0])
        self.mu = float(_svd(J, compute_uv=False)[0, -1])
        self.rec.record(0.0, self.x0, self.mu)
        self.ps_grad_tol = _PS_GRAD_TOL * min(1.0, self.gn)
        if self.gn <= self.grad_tol:
            self.conclude("converged", LiftStatus.complete(0.0))
        self.h0 = self.h = min(0.1, 0.01 * (1.0 + _norm(self.x0)) / (1.0 + self.gn))

    def finish(self, q5: Array, k7: Array, err_norm: float, mu7: float, F7: float, gn7: float) -> None:
        """Judge an attempt that passed the error test: reject it when it
        raises F, else take the step and judge the window it may close."""
        if not F7 <= self.F + 1e-12 * (1.0 + abs(self.F)):
            self.reject("error")
            return
        self.accept(q5, k7, mu7, self.step_end(), _norm(q5 - self.q))
        self.F, self.gn = F7, gn7
        if self.stop_if_escaped(_norm(q5 - self.x0)):
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


def _drive(model: MapModel, lanes: list, mu_floor: float) -> None:
    """Make lockstep attempts for the lanes until every one has stopped."""
    while live := [lane for lane in lanes if lane.begin_attempt()]:
        _lockstep_attempt(model, live, mu_floor)


def lift_line_square(model: MapModel, x0, w, opts: Optional[LiftOptions] = None) -> LiftOutcome:
    """Lift the line f(x0) + t w, t in [0, 1], through a square Jacobian."""
    if model.n != model.m:
        raise DimensionMismatch(f"lift_line_square: map {model.name!r} is {model.m}x{model.n}, need square")
    return lift_lines(model, x0, [_vector(w, model.m, "lift: w")], opts)[0]


def lift_line_horizontal(model: MapModel, x0, w, opts: Optional[LiftOptions] = None) -> LiftOutcome:
    """Lift the line f(x0) + t w through the minimum-norm right inverse of a
    wide (m <= n) Jacobian; the velocity stays orthogonal to the kernel."""
    if model.m > model.n:
        raise DimensionMismatch(f"lift_line_horizontal: map {model.name!r} is {model.m}x{model.n}, need m <= n")
    return lift_lines(model, x0, [_vector(w, model.m, "lift: w")], opts)[0]


@np.errstate(over="ignore", invalid="ignore")  # non-finite stages are rejected
def lift_lines(model: MapModel, x0, W, opts: Optional[LiftOptions] = None) -> list:
    """Lift the lines f(x0) + t W[k], t in [0, 1], for every row of W.

    Every line lift runs here.  f(x0), J(x0) and its SVD are computed once
    and counted in every lane.  The rows run in lockstep as one (K, n)
    state, one row as many, on the stage code and driver gradient_flow
    runs on too: each lane keeps its own t, step size, recorder and status
    and leaves the batch when it stops; every stage takes one Jacobian
    stack and one SVD over the live lanes, and _judge_lanes takes or
    rejects their attempts at once.  Square and wide
    (m <= n) maps are both served, as by lift_line_square and
    lift_line_horizontal.  Returns one LiftOutcome per row of W: the
    outcome the one-row call of that row returns.
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
    U, s, Vt = _svd(jacobian(model, x0v))
    lanes = [_LineLift(model, x0v, f0, w, opts) for w in Wv]
    for lane in lanes:
        lane.start(U, s, Vt)
    _drive(model, lanes, opts.mu_floor)
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
    _drive(model, [flow], opts.mu_floor)
    return flow.outcome()


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
