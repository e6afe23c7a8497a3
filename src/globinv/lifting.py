"""Path lifting through the derivative, and the residual gradient flow.

Straight lines p(t) = f(x0) + t w in the codomain are lifted back to the
domain: q(t) solves f(q(t)) = f(x0) + t w for t in [0, 1], from q(0) = x0,
along the curve whose slope is

    q' = J(q)^{-1} w                     (square Jacobian)
    q' = J(q)^T (J(q) J(q)^T)^{-1} w     (wide Jacobian, minimum-norm route)

The curve is an implicit one, so a line lift follows it by
predictor-corrector continuation (Allgower & Georg, Numerical
Continuation Methods, 1990, ch. 2 and 6; Deuflhard, Newton Methods for
Nonlinear Problems, 2004, ch. 5): a predictor, then at most _ROUNDS
minimum-norm Newton corrections back onto the line's point.  On a square
map the predictor is the cubic Hermite extrapolation through the lane's
last two points and their slopes, whose error is O(h^4); the first step,
and every step on a wide map, takes the Euler (tangent) predictor
q + h q', whose error is O(h^2).  A point is taken only when
its residual is within complete_tol and its next Newton correction within
x_tol, so every recorded point of a line lift lies on its line to that
tolerance; on a wide map, where the points over a line form a fibre and
not a curve, the lift follows the minimum-norm route to first order in the
step, which is why a wide map keeps the Euler predictor: its points do
not lie on one smooth curve for a cubic to extrapolate.  The slope, the
Newton step and the local invertibility
indicator mu (the least singular value, used for singularity detection)
all come out of one SVD of J per corrector round.  Every SVD is maps._svd:
for a 1x1 stack whose every |J| lies in [1e-100, 1e100] the closed form
s = |J|, U = sign(J), Vt = 1, which LAPACK returns there bit for bit, and
LAPACK for any other stack.  The step size aims the last corrector
round's correction at a share of its tolerance (so it grows as the 8th
root of that ratio after Euler and the 16th after Hermite), and the
mu-decay guard makes the lift slow down near singular loci instead of
jumping across them: mu, extrapolated at the rate it fell over the last
step, may at most halve over the next.  The gradient flow
x' = -grad F_y is an ODE without a curve to return to, so it takes
linearly implicit Euler steps with the Gauss-Newton Hessian J^T J: each is
a Levenberg-Marquardt step with lambda = 1/h (Levenberg 1944; Marquardt
1963), stable at any step size, under gain-ratio step control (Madsen,
Nielsen & Tingleff, Methods for Non-linear Least Squares Problems, 2004).

Every line lift is a lift_lines(model, x0, W, opts) call: the K lifts from
one base point, one per row of W, with f(x0), J(x0) and its SVD computed
once per call and counted in every lane.  lift_line_square and
lift_line_horizontal check the shape and make a one-row call.
gradient_flow integrates x' = -grad F_y.  Each call builds one object that
holds the model and runs itself: start() takes the facts at x0, run()
makes attempts (attempt) until it has stopped, and the outcome is read off
it; no method below the constructor takes the model.

_LineLanes holds the K lanes of a lift_lines call under one step
controller: each lane's t, step size, point, slope, last step taken (its
point, slope and size, for the Hermite predictor), mu, steps and
rejections, running flag, length, h_min, largest and last residual are
rows of arrays, so rejection (which halves the step), step collapse,
taking a step, the next step size and the stops are array operations over
the rows concerned, and per-lane Python is left for the LiftStatus of a
lane that stops.  Each attempt is the predictor and the corrector rounds
over the rows left, in lockstep; a row takes its step in the round it
meets both tolerances, with its chords, residuals and distances from x0 as
stacks, and stops at the edge where the mu-decay guard cannot advance t.
The steps of up to 64 takes are folded at once into those arrays and one
block of recorded points (a lane's every record_stride-th step).  Each
lane's LiftOutcome, LiftStats included, does not depend on the other rows
of the call.  _Attempt keeps the books of one attempt: the rows still in
it and the arrays aligned with them, one work tally, one corrector round
(round: the f, J and SVD stacks with the exits of the non-finite and the
singular rows) and one exit for every row cut.

_Flow is one Levenberg-Marquardt lane with Python scalars for its t, step
size, F, mu and LiftStats counters: one f per attempt, the gain test (F
must fall by a share of the model's predicted fall), J and its SVD at each
point taken, and time-doubling windows give the verdict.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, NonFinite, OutOfRange, TooFewPoints
from .maps import MapModel, _svd, _vector, evaluate, evaluate_stack, jacobian, jacobian_stack

Array = np.ndarray

_H_MIN = 1e-14  # a step size at or below _H_MIN times the lift's scale has collapsed

# Euler-Newton line lifts (Allgower & Georg, Numerical Continuation Methods, ch. 2 and 6)
_ROUNDS = 3  # corrector rounds per attempt, each one f, J and SVD stack
_GUARD = 0.5  # the first correction may be at most this share of the predictor step h |k1|
_CONTRACTION = 0.5  # each later correction may be at most this share of the one before
_AIM = 0.03  # the last round's correction the step size aims at, as a share of its tolerance
_GROW = 5.0  # the largest growth of the step size from one step to the next

# the gradient flow's Levenberg-Marquardt steps (Madsen, Nielsen & Tingleff, 2004)
_GAIN = 0.25  # the least share of the predicted fall of F that takes a step
_STEP = 4.0  # the step size grows this many times on a step taken, shrinks on a rejection
_H_MAX = 1e15  # the largest step size: lambda = 1/h stays at least 1e-15
_ROUNDING = 64 * 2.0 ** -52  # the rounding scale of F, relative to |r| (|r| + |y|)

# gradient-flow verdict constants
_PS_STALL_TOL = 2e-5  # F stall per time-doubling window, relative to F
_PS_GRAD_TOL = 1e-3  # gradient norm, relative to min(1, |grad F(x0)|)
_STAB_TOL = 1e-7  # the drift over a window at a critical point, relative to 1 + |q|
_CRIT_TOL = 1e-9  # |grad F| at a critical point, relative to |J| |r|


@dataclass(frozen=True)
class LiftOptions:
    """Shared numerical controls for every lifting operation.

    For a line lift, rel_tol and abs_tol set the tolerances every accepted
    point meets: its residual |f(q) - f(x0) - t w| is at most
    complete_tol = 10 rel_tol max(|w|, 1) + 100 abs_tol, and its next
    Newton correction at most 10 rel_tol max(|q|, 1) + 100 abs_tol.  For
    the gradient flow toward y they set the root scale of the residual,
    10 rel_tol max(|y|, 1) + 100 abs_tol, and abs_tol the gradient at a
    critical point where J vanishes.
    mu_floor is the least singular value below which a point is rejected
    as singular; r_escape the distance from x0 at which a lift stops
    Escaped (None: never); max_steps the steps a lift may take; and
    record_stride keeps every record_stride-th step in the trajectory.
    """

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
    rejected_nonfinite: rejected attempts by cause (for a line lift the
    corrector: a first correction, the predictor's error, longer than the
    distance guard, a correction that does not contract, or no point
    within tolerance after the last round; for the gradient flow the gain
    test; an indicator below the floor, which a
    line lift's mu-decay guard makes the steps approach rather than cross;
    a non-finite point, derivative, slope or value).  evals: model
    evaluations made by the lift itself, not those inside a
    finite-difference Jacobian.  jacobians: Jacobian evaluations.  svds:
    SVDs taken, a closed-form 1x1 one (maps._svd) included.  A line lift
    takes f, J and its SVD at x0 and at every corrector point whose f is
    finite; a flow takes them at x0, f at every finite trial point, and J
    and its SVD where the gain test passed.  h_min: the smallest accepted step
    size, inf when no step was accepted.  The counters are
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
    moving), diverged (the flow left the escape ball), or undecided (the
    step budget or a step collapse stopped the flow with neither root,
    critical-point nor PS evidence)."""

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
    """Write the header and one row per entry of the columns.  A list is a
    column of cells already formatted and is written as it is; of any other
    column, numeric cells are written as repr of Python floats and str
    cells as they are."""
    cells = []
    for col in columns:
        if not isinstance(col, list):
            col = np.asarray(col)
            col = col.tolist() if col.dtype.kind == "U" else list(map(repr, col.astype(float).tolist()))
        cells.append(col)
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


def _every(mask: Array) -> bool:
    """mask.all(), by one count: on the short masks of an attempt a count
    costs a third of a ufunc reduce."""
    return np.count_nonzero(mask) == mask.size


def _all_finite(A: Array) -> bool:
    return _every(np.isfinite(A))


def _row_norms(D: Array) -> Array:
    """_norm of every row of D, bit for bit.  Each row's dot product goes
    through matmul, which rounds as np.linalg.norm of the row does;
    np.linalg.norm(D, axis=1), (D * D).sum(1) and einsum round differently
    in some rows.  Rows whose plain norm overflows go through _norm, so,
    like _norm, it runs under np.errstate(over="ignore")."""
    norms = np.sqrt(np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0])
    if not _every(norms < math.inf):
        for k in np.flatnonzero(norms == math.inf):
            norms[k] = _norm(D[k])
    return norms


def _velocities(U: Array, s: Array, Vt: Array, W: Array) -> Array:
    """Solve J v = w for a stack of SVDs J = U diag(s) Vt, one row w of W
    per matrix: the exact inverse for square J, the minimum-norm right
    inverse J^T (J J^T)^{-1} otherwise.  Each row is computed by the same
    BLAS operations whatever the size of the stack."""
    c = np.matmul(U.transpose(0, 2, 1), W[:, :, None]) / s[:, :, None]
    return np.matmul(Vt.transpose(0, 2, 1), c)[:, :, 0]


_CAUSES = {"error": 0, "singular": 1, "nonfinite": 2}  # columns of _LineLanes.rejected
_RECORD_RUN = 64  # attempts whose steps are folded at once, so a long lift keeps a few arrays


class _Attempt:
    """One lockstep attempt of the rows of a lift_lines call (_LineLanes):
    Q the points the step starts from, W the codomain vectors, X the
    current trial point and the named arrays the attempt adds (aligned),
    each aligned with rows.
    evals, jacobians and svds tally the stack calls made so far, each
    raised right after its call: every row still in the attempt did that
    work, which a row adds to its lane's work when it leaves (rejected) or
    takes its step (_LineLanes.take)."""

    def __init__(self, lanes: "_LineLanes", rows: Array, **aligned):
        self.lanes, self.rows = lanes, rows
        self.Q = self.X = lanes.q.take(rows, axis=0)
        self.W = lanes.w.take(rows, axis=0)
        self.names = ("rows", "Q", "W", "X", *aligned)
        self.__dict__.update(aligned)
        self.evals = self.jacobians = self.svds = 0

    def keep(self, good: Array, *arrays) -> list:
        """Cut the rows and every array aligned with them, the given arrays
        too (returned), to the good ones."""
        for name in self.names:
            setattr(self, name, getattr(self, name)[good])
        return [A[good] for A in arrays]

    def leave(self, good: Array, cause: str, *arrays, mu: Optional[Array] = None) -> list:
        """Reject the rows that are not good with cause, adding the tally
        and passing their mu to _LineLanes.reject, and keep the good ones
        (keep)."""
        bad = ~good
        self.lanes.reject(self.rows[bad], cause, (self.evals, self.jacobians, self.svds),
                          None if mu is None else mu[bad])
        return self.keep(good, *arrays)

    def round(self) -> Optional[tuple]:
        """One corrector round at the trial points X of the rows: f, J and
        the SVD of J, each one stack call counted in the tally, and mu, the
        least singular value of each row.  A row whose f or J is not finite
        leaves (nonfinite), and so does one whose mu is below mu_floor, or
        not positive and finite (singular, with its mu).  Returns (F, U, s,
        Vt, mu) for the rows left, None when no row is left."""
        model = self.lanes.model
        F, good = evaluate_stack(model, self.X)
        self.evals += 1
        if not _every(good):
            (F,) = self.leave(good, "nonfinite", F)
            if not self.rows.size:
                return None
        J, good = jacobian_stack(model, self.X)
        self.jacobians += 1
        if not _every(good):
            J, F = self.leave(good, "nonfinite", J, F)
            if not self.rows.size:
                return None
        U, s, Vt = _svd(J)
        self.svds += 1
        mu, mu_floor = s[:, -1], self.lanes.opts.mu_floor
        # mu >= max(mu_floor, 5e-324) is mu >= mu_floor and mu > 0, NaN excluded
        if not _every((mu >= max(mu_floor, 5e-324)) & (mu < math.inf)):
            good = np.isfinite(mu) & (mu > 0.0) & ~(mu < mu_floor)
            F, U, s, Vt, mu = self.leave(good, "singular", F, U, s, Vt, mu, mu=mu)
            if not self.rows.size:
                return None
        return F, U, s, Vt, mu


class _LineLanes:
    """The K lanes of a lift_lines call, on the curves f(q(t)) = f(x0) + t w
    for t from 0 to 1, under one step controller.  Every per-lane fact the
    lift reads is a row of an array: t, the step size h, the point q and
    its slope k1, mu at q, the mu of the last singular rejection since a
    step was taken (last_singular_mu, NaN for none), the rejections by
    cause (one column per cause in _CAUSES), whether the lane still runs
    and the scale of its steps (h_scale: a step at or below _H_MIN
    max(h_scale, t) has collapsed, so every step taken advances t).  A lane
    runs until it stops with a LiftStatus (status[k]) or reaches t = 1,
    and every running lane is in every attempt, so a running lane has
    taken attempts - its rejections steps.
    The work (evals, Jacobians, SVDs) of every attempt, rejected or taken,
    is added up per lane (work; that of a step taken when it is folded).

    Each lane also keeps the point, slope and size of its last step taken
    (qp, kp, hp; hp 0 before the first), from which a square map's
    predictor extrapolates (predict).

    run makes attempts (attempt: one predictor and up to _ROUNDS
    Newton corrector rounds over the rows in lockstep) of the rows
    begin_attempt returns until every lane has stopped.  Each take's steps
    wait as one block in pending, until _RECORD_RUN blocks or the outcomes
    fold them (fold) into what the outcomes read, each a row per lane: the
    steps taken (accepted), the chord length, the least step (h_min), the
    largest residual of a point taken (max_drift) and the residual of the
    last one (residual); and into one block of the record, which holds each
    lane's base point and every record_stride-th step after it; kept_t is
    the time of the last point kept."""

    def __init__(self, model: MapModel, x0v: Array, W: Array, opts: LiftOptions):
        K = len(W)
        self.model, self.x0, self.w, self.opts = model, x0v, W, opts
        self.t, self.h, self.mu, self.length = np.zeros(K), np.zeros(K), np.zeros(K), np.zeros(K)
        self.residual, self.max_drift = np.zeros(K), np.zeros(K)
        self.h_min, self.last_singular_mu = np.full(K, math.inf), np.full(K, math.nan)
        self.h_scale = np.ones(K)  # a step at or below _H_MIN max(h_scale, t) has collapsed
        self.q, self.k1 = np.repeat(x0v[None], K, axis=0), np.zeros((K, model.n))
        # the point, slope and size of each lane's last step taken (hp 0: none yet)
        self.qp, self.kp, self.hp = np.zeros((K, model.n)), np.zeros((K, model.n)), np.zeros(K)
        self.square = model.m == model.n  # the Hermite predictor needs the points on one curve
        self.accepted = np.zeros(K, dtype=np.int64)
        self.rejected = np.zeros((K, 3), dtype=np.int64)
        self.work = np.ones((K, 3), dtype=np.int64)  # f(x0), J(x0) and its SVD
        self.status = [None] * K
        self.running = np.ones(K, dtype=bool)
        self.attempts = 0  # attempts made
        self.pending, self.tallies, self.records = [], [], []
        self.norm_w = _row_norms(W)
        self.complete_tol = 10.0 * opts.rel_tol * np.maximum(self.norm_w, 1.0) + 100.0 * opts.abs_tol

    def record_start(self) -> None:
        """Record every lane's base point: its t, q and mu now."""
        self.kept_t = self.t.copy()
        self.records.append((np.arange(len(self.t)), self.t.copy(), self.q.copy(), self.mu.copy()))

    def stop(self, k: int, status: LiftStatus) -> None:
        self.status[k] = status
        self.running[k] = False

    def start(self) -> None:
        """f(x0), J(x0) and its SVD, shared by the lanes: record the base
        point; every lane stops at once when J(x0) is singular, a lane with
        w = 0 completes, the others take their first slope and step."""
        self.f0 = evaluate(self.model, self.x0)
        U, s, Vt = _svd(jacobian(self.model, self.x0))
        K, mu = len(self.t), float(s[-1])
        self.mu[:] = mu
        self.record_start()
        if mu < self.opts.mu_floor:
            for k in range(K):
                self.stop(k, LiftStatus.singular(0.0, mu))
            return
        zero = self.norm_w == 0.0
        for k in np.flatnonzero(zero).tolist():
            self.t[k] = 1.0
            self.stop(k, LiftStatus.complete(1.0))
        rows = np.flatnonzero(~zero)
        if not rows.size:
            return
        # Every attempt starts from this slope, so no step size can repair a
        # bad one: stop as the step collapse after such an attempt would.
        if not 0.0 < mu < math.inf:
            for k in rows.tolist():
                self.stop(k, LiftStatus.singular(0.0, mu))
            return
        k1 = _velocities(*(np.repeat(A[None], len(rows), axis=0) for A in (U, s, Vt)), self.w[rows])
        bad = ~np.isfinite(k1).all(axis=1)
        for k in rows[bad].tolist():
            self.stop(k, LiftStatus.step_failure(0.0))
        self.k1[rows] = k1
        self.h[rows] = np.minimum(0.2, 0.01 * (1.0 + _norm(self.x0)) / (1.0 + _row_norms(k1)))
        self.h_scale[rows] = self.h[rows]  # a huge w makes every step small

    def begin_attempt(self) -> Array:
        """The rows of the next attempt: the running lanes, less those whose
        step budget is spent, which stop.  Every step size already ends at
        or before t = 1 (next_step cuts it so)."""
        rows = self.running.nonzero()[0]
        if self.attempts >= self.opts.max_steps:  # before, no lane has taken that many steps
            spent = self.attempts - self.rejected[rows].sum(axis=1) >= self.opts.max_steps
            for k in rows[spent].tolist():
                self.stop(k, LiftStatus.step_failure(self.t[k]))
            rows = rows[~spent]
        self.attempts += 1
        return rows

    def run(self) -> None:
        """Make lockstep attempts until every lane has stopped."""
        while (rows := self.begin_attempt()).size:
            self.attempt(rows)

    def reject(self, rows: Array, cause: str, work: tuple, mu: Optional[Array] = None) -> None:
        """Reject the attempts of rows (cause "error", "singular" or
        "nonfinite", with the mu of a singular one), adding work, and halve
        their steps; a lane whose step collapses stops (Singular after a
        singular rejection since its last step, else StepFailure)."""
        np.add.at(self.work, rows, work)
        self.rejected[rows, _CAUSES[cause]] += 1
        if mu is not None:
            self.last_singular_mu[rows] = mu
        self.h[rows] *= 0.5
        for k in rows[self.h[rows] <= _H_MIN * np.maximum(self.h_scale[rows], self.t[rows])].tolist():
            t, mu_k = self.t[k], self.last_singular_mu[k]
            self.stop(k, LiftStatus.step_failure(t) if math.isnan(mu_k) else LiftStatus.singular(t, mu_k))

    def step_end(self, rows: Array, H: Array) -> Array:
        """The times the attempts of rows, of step sizes H, reach: t + h, or
        1 where that lies within 1e-15 of it.  As t + h lies in [0, 2],
        1 - (t + h) is exact, so that is t + h >= 1 - 1e-15."""
        T = self.t.take(rows) + H
        T[T >= 1.0 - 1e-15] = 1.0
        return T

    def attempt(self, rows: Array) -> None:
        """One predictor-corrector attempt for rows, toward the points
        y = f(x0) + T w of their lines at T = step_end(t + h).  The
        predictor X is predict's: cubic Hermite on a square map after a
        step taken, else Euler's q + h k1.  Each corrector round takes f,
        J and its SVD at X over the rows left, as stacks (_Attempt.round: a
        row leaves on a non-finite f or J and on mu below the floor); a row
        also leaves on a non-finite X.  The minimum-norm Newton step there is
        -J^+ (f(X) - y).  A row whose residual |f(X) - y| is within
        complete_tol and whose Newton step is within
        x_tol = 10 rel_tol max(|X|, 1) + 100 abs_tol takes its step to X
        (take), unless its slope J^+ w there is not finite (nonfinite).  The
        others make their Newton step, which must be at most _GUARD h |k1|
        long in the first round (the distance to the curve) and at most
        _CONTRACTION times the step before in the next; a row whose step is
        longer, or that is not within tolerance after _ROUNDS rounds, is
        rejected (error)."""
        H, opts = self.h.take(rows), self.opts
        T = self.step_end(rows, H)
        K1 = self.k1.take(rows, axis=0)
        hermite = (self.hp.take(rows) > 0.0) & self.square
        # D: the longest Newton step allowed next; C0: the first one's length
        a = _Attempt(self, rows, H=H, T=T, Y=self.f0 + T[:, None] * self.w.take(rows, axis=0),
                     D=_GUARD * H * _row_norms(K1), C0=np.empty(len(rows)), hermite=hermite)
        a.X = self.predict(a, K1)
        for r in range(_ROUNDS):
            if not _all_finite(a.X):
                a.leave(np.isfinite(a.X).all(axis=1), "nonfinite")
                if not a.rows.size:
                    return
            got = a.round()
            if got is None:
                return
            F, U, s, Vt, mu = got
            R = F - a.Y
            dX = -_velocities(U, s, Vt, R)
            res, size = _row_norms(R), _row_norms(dX)
            if r == 0:
                a.C0 = size
            x_tol = 10.0 * opts.rel_tol * np.maximum(_row_norms(a.X), 1.0) + 100.0 * opts.abs_tol
            done = (res <= self.complete_tol.take(a.rows)) & (size <= x_tol)
            if np.count_nonzero(done):
                K1 = _velocities(U[done], s[done], Vt[done], a.W[done])
                if not _all_finite(K1):  # a slope past the float limit: no step to take
                    good = np.ones(len(done), dtype=bool)
                    good[done] = np.isfinite(K1).all(axis=1)
                    K1 = K1[good[done]]
                    done, U, s, Vt, mu, res, size, x_tol, dX = a.leave(
                        good, "nonfinite", done, U, s, Vt, mu, res, size, x_tol, dX)
                if len(K1):
                    self.take(a, done, r, K1, *(A[done] for A in (mu, res, size, x_tol)))
                U, s, Vt, dX, size = a.keep(~done, U, s, Vt, dX, size)
                if not a.rows.size:
                    return
            if r == _ROUNDS - 1:
                a.leave(np.zeros(len(a.rows), dtype=bool), "error")
                return
            short = size <= a.D
            if not _every(short):
                dX, size = a.leave(short, "error", dX, size)
                if not a.rows.size:
                    return
            a.X = a.X + dX
            a.D = _CONTRACTION * size

    def predict(self, a: _Attempt, K1: Array) -> Array:
        """The predictor point at t + H of each row of a, which starts at Q
        with slope K1: the Euler point Q + H K1 for a row without a step
        taken or on a wide map, else the cubic Hermite extrapolation
        through (t - hp, qp, kp) and (t, Q, K1).  With s = H / hp, V = hp K1,
        VP = hp kp and dq = Q - qp, that cubic at t + H is
        Q + s (V + s ((2 V - 3 dq + VP) + s (V - 2 dq + VP))); its terms are
        displacements of the size of the last step, so a slope near the
        float limit does not overflow them.  Each row's value is its own."""
        X = a.Q + a.H[:, None] * K1
        h = a.hermite
        if not np.count_nonzero(h):
            return X
        rows, hp = a.rows[h], self.hp.take(a.rows[h])[:, None]
        V, VP = hp * K1[h], hp * self.kp.take(rows, axis=0)
        dq, s = a.Q[h] - self.qp.take(rows, axis=0), a.H[h][:, None] / hp
        X[h] = a.Q[h] + s * (V + s * ((2.0 * V - 3.0 * dq + VP) + s * (V - 2.0 * dq + VP)))
        return X

    def take(self, a: _Attempt, done: Array, r: int, K1: Array, mu: Array, res: Array, e: Array,
             x_tol: Array) -> None:
        """The rows of a that are done in corrector round r take their steps
        to X, where the slope is K1, the indicator mu, the residual res, the
        Newton correction e long and its tolerance x_tol (each array a row
        per row done): the chords and distances from x0 as row norms, the
        next step (next_step), the step's block in pending (whose tally each
        of them did), and the stops of a lane that reaches t = 1, at the
        edge or outside the escape ball."""
        rows, X, H, T = a.rows[done], a.X[done], a.H[done], a.T[done]
        chords, dists = _row_norms(np.concatenate([X - a.Q[done], X - self.x0])).reshape(2, -1)
        h_next = self.next_step(H, T, r, a.C0[done], e, x_tol, self.mu.take(rows), mu, a.hermite[done])
        self.qp[rows], self.kp[rows], self.hp[rows] = a.Q[done], self.k1.take(rows, axis=0), H
        self.q[rows], self.k1[rows], self.t[rows], self.mu[rows], self.h[rows] = X, K1, T, mu, h_next
        self.last_singular_mu[rows] = math.nan
        self.running[rows] = T < 1.0 - 1e-15
        self.pending.append((rows, T, X, mu, H, chords, res))
        self.tallies.append((a.evals, a.jacobians, a.svds))
        if len(self.pending) == _RECORD_RUN:
            self.fold()
        # Only the mu-decay guard cuts a step below half an ulp of t <= 1:
        # mu falls to 0 within a few ulps of t, at the edge of the lift.
        edge = h_next < _H_MIN
        if np.count_nonzero(edge):
            edge &= (T + h_next == T) & (T < 1.0)
        out = edge if self.opts.r_escape is None else edge | (dists > self.opts.r_escape)
        for j in out.nonzero()[0].tolist():
            k = int(rows[j])
            t = self.t[k]
            self.stop(k, LiftStatus.singular(t, self.mu[k]) if edge[j] else LiftStatus.escaped(t, dists[j]))

    def next_step(self, H: Array, T: Array, r: int, e0: Array, e: Array, x_tol: Array, mu_prev: Array,
                  mu_new: Array, hermite: Array) -> Array:
        """The steps after steps of sizes H to times T, taken in corrector
        round r, whose first Newton correction was e0 long and whose
        correction at the point taken e; hermite marks the steps the cubic
        Hermite predictor made (the others Euler's).  Newton's
        e_{k+1} = c e_k^2 makes the last round's correction c^3 e0^4: it is
        e for r = 2 and e^3 / e0^2 for r = 1, and a step taken by the
        predictor (r = 0) tells nothing of c.  e0, the predictor's error,
        scales as h^2 after Euler and h^4 after Hermite, so that correction
        scales as h^8 or h^16.  The step is scaled so that it would be
        _AIM x_tol: by the 8th or 16th root of _AIM x_tol over it, at most
        _GROW times.  Then the mu-decay guard: mu, extrapolated at the rate
        it fell over this step, may fall by at most half over the next one,
        so a step is at most 0.5 H mu_new / (mu_prev - mu_new).  Last the
        step is cut to end at t = 1.  The roots are three or four square
        roots, each rounded exactly, so no lane's step depends on the other
        rows."""
        if r == 0:
            h_next = _GROW * H
        else:
            last = np.maximum(e if r == 2 else e * e * e / (e0 * e0), 1e-300)
            root = np.sqrt(np.sqrt(np.sqrt(_AIM * x_tol / last)))
            np.sqrt(root, out=root, where=hermite)
            h_next = H * np.fmin(_GROW, root)
        fell = mu_new < mu_prev
        if np.count_nonzero(fell):
            guard = 0.5 * H * mu_new / np.maximum(mu_prev - mu_new, 1e-300)
            np.minimum(h_next, guard, out=h_next, where=fell)
        return np.minimum(h_next, 1.0 - T)

    def fold(self) -> None:
        """Fold the pending steps, sorted by lane and in step order within
        a lane, into work (each block's tally), accepted, length (the chords
        summed one by one, as the steps add up), h_min, max_drift, residual
        (that of each lane's last step) and one block of the record."""
        if not self.pending:
            return
        sizes = [len(block[0]) for block in self.pending]
        rows, *columns = map(np.concatenate, zip(*self.pending))
        np.add.at(self.work, rows, np.repeat(self.tallies, sizes, axis=0))
        self.pending, self.tallies = [], []
        order = np.argsort(rows, kind="stable")
        rows, T, X, mu, H, chords, res = rows[order], *(A[order] for A in columns)
        counts = np.bincount(rows, minlength=len(self.t))
        firsts = np.cumsum(counts) - counts
        np.add.at(self.length, rows, chords)
        np.minimum.at(self.h_min, rows, H)
        np.fmax.at(self.max_drift, rows, res)
        lasts = firsts[counts > 0] + counts[counts > 0] - 1
        self.residual[rows[lasts]] = res[lasts]
        steps = self.accepted[rows] + np.arange(1, len(rows) + 1) - firsts[rows]  # each step's count
        self.accepted += counts
        stride = self.opts.record_stride
        if stride > 1:
            due = steps % stride == 0
            rows, T, X, mu = rows[due], T[due], X[due], mu[due]
            if not rows.size:
                return
        ends = np.flatnonzero(np.append(rows[1:] != rows[:-1], True))  # each lane's last due step
        self.kept_t[rows[ends]] = T[ends]
        self.records.append((rows, T, X, mu))

    def outcomes(self) -> list:
        """The LiftOutcome of every lane: its trajectory (the base point
        and every record_stride-th step after it, then the lane's final
        point unless its time is the last one kept), its residual at its
        last point taken, its largest residual at a point taken, its
        LiftStats, and Complete for a lane that ran to t = 1 (every
        accepted point is within complete_tol of its line)."""
        self.fold()
        last = np.flatnonzero(self.kept_t != self.t)
        final = (last, self.t[last], self.q[last], self.mu[last])
        rows, T, X, mu = map(np.concatenate, zip(*self.records, final))
        order = np.argsort(rows, kind="stable")  # by lane, in time within a lane
        T, X, mu = T[order], X[order], mu[order]
        ends = np.cumsum(np.bincount(rows, minlength=len(self.t))).tolist()
        out, a = [], 0
        for k, (b, length, steps, rejected, work_k, h_min, residual, drift) in enumerate(zip(
            ends, *(A.tolist() for A in (self.length, self.accepted, self.rejected, self.work, self.h_min,
                                         self.residual, self.max_drift))
        )):
            trajectory = LiftTrajectory(times=T[a:b], points=X[a:b], mu_values=mu[a:b], length=length)
            stats = LiftStats(steps, *rejected, *work_k, h_min)
            status = self.status[k] or LiftStatus.complete(1.0)
            out.append(LiftOutcome(trajectory, status, residual, drift, stats))
            a = b
        return out


class _Flow:
    """The residual gradient flow x' = -grad F_y from t = 0, by linearly
    implicit Euler steps, t the sum of their sizes.  t, the step size h, F,
    |r|, |grad F| and mu at q and the LiftStats counters (stats) are Python
    scalars.  A step taken grows h _STEP times, a rejection shrinks it so,
    and every time-doubling window ends in a verdict or goes on.  The flow
    runs until a verdict, the escape stop, a step collapse or the step
    budget; its trajectory keeps the base point and every record_stride-th
    step after it, then the final point."""

    def __init__(self, model: MapModel, x0v: Array, yv: Array, opts: LiftOptions):
        self.model, self.x0, self.y, self.opts = model, x0v, yv, opts
        self.grad_tol = opts.abs_tol
        # residual scale below which a plateau is a root, not a PS level
        self.norm_y = _norm(yv)
        self.res_tol = 10.0 * opts.rel_tol * max(self.norm_y, 1.0) + 100.0 * opts.abs_tol
        self.t = self.length = 0.0
        self.stats = LiftStats(evals=1, jacobians=1, svds=1)  # f(x0), J(x0) and its SVD
        # the recorded t, q and mu, as C doubles: a long flow keeps 8 bytes a number
        self.times, self.points, self.mu_values = array("d"), array("d"), array("d")
        self.status = self.verdict = None
        self.window = None  # (t, q, F, Gauss-Newton point) where the current window began
        self.window_dx = None  # how far q moved over the last window

    def record(self) -> None:
        self.times.append(self.t)
        self.points.extend(self.q.tolist())
        self.mu_values.append(self.mu)

    def at(self, q: Array, r: Array, F: float, J: Array) -> None:
        """Make q, with residual r, energy F and Jacobian J, the current
        point: the SVD of J, c = U^T r, |r|, |grad F| = |diag(s) c|, mu, and
        whether q is critical: |grad F| within _CRIT_TOL |J| |r|, r
        orthogonal to the range of J to that share."""
        self.q, self.F = q, F
        U, self.s, self.Vt = _svd(J)
        self.c = U.T @ r
        self.rn, self.gn, self.mu = _norm(r), _norm(self.s * self.c), float(self.s[-1])
        self.critical = self.gn <= _CRIT_TOL * float(self.s[0]) * self.rn

    def start(self) -> None:
        """f(x0), J(x0) and its SVD; a non-finite gradient or energy F at x0
        raises NonFinite."""
        r = evaluate(self.model, self.x0) - self.y
        F = 0.5 * float(r @ r)
        self.at(self.x0, r, F, jacobian(self.model, self.x0))
        if not (F < math.inf and self.gn < math.inf):
            raise NonFinite(f"gradient_flow({self.model.name}): non-finite gradient or energy at x0")
        self.record()
        # the gradient norm below which a plateau may be PS
        self.ps_grad_tol = _PS_GRAD_TOL * min(1.0, self.gn)
        if self.gn <= self.grad_tol:
            self.conclude("converged", LiftStatus.complete(0.0))
        self.h = min(0.1, 0.01 * (1.0 + _norm(self.x0)) / (1.0 + self.gn))

    def run(self) -> None:
        """Make attempts until the flow stops; it stops StepFailure once it
        has taken max_steps steps."""
        while self.status is None:
            if self.stats.accepted >= self.opts.max_steps:
                self.status = LiftStatus.step_failure(self.t)
            else:
                self.attempt()

    def attempt(self) -> None:
        """One Levenberg-Marquardt step of size h from q, to
        X = q - V diag(s / (s^2 + 1/h)) c, with f there (one evaluate_stack)
        and, for a step taken, J and its SVD there (take).  A non-finite X,
        f, F or J rejects the attempt (nonfinite), and so does the gain test
        (error): F must fall by at least _GAIN of the fall of the model
        |r + J dx|^2 / 2, sum(c^2 b (2 - b)) / 2 with b = s^2 / (s^2 + 1/h),
        less F's rounding scale _ROUNDING |r| (|r| + |y|)."""
        s, c = self.s, self.c
        z = s / (s * s + 1.0 / self.h)
        X = self.q - self.Vt.T @ (z * c)
        if not _all_finite(X):
            return self.reject("nonfinite")
        self.stats.evals += 1
        R, good = evaluate_stack(self.model, X[None])
        if not good[0]:
            return self.reject("nonfinite")
        r = R[0] - self.y
        F = 0.5 * float(r @ r)
        if not F < math.inf:
            return self.reject("nonfinite")
        b = s * z
        predicted = 0.5 * float(np.sum(c * c * b * (2.0 - b)))
        rounding = _ROUNDING * self.rn * (self.rn + self.norm_y)
        if not self.F - F + rounding >= _GAIN * predicted:  # a NaN is rejected
            return self.reject("error")
        self.stats.jacobians += 1
        J, good = jacobian_stack(self.model, X[None])
        if not good[0]:
            return self.reject("nonfinite")
        self.stats.svds += 1
        self.take(X, r, F, J[0])

    def reject(self, cause: str) -> None:
        """Reject the attempt (cause "error" or "nonfinite") and shrink the
        step; the flow stops StepFailure when its step collapses."""
        if cause == "error":
            self.stats.rejected_error += 1
        else:
            self.stats.rejected_nonfinite += 1
        self.h /= _STEP
        if self.h < _H_MIN * max(1.0, self.t):
            self.status = LiftStatus.step_failure(self.t)

    def take(self, X: Array, r: Array, F: float, J: Array) -> None:
        """Take the step of size h to X, with residual r, energy F and
        Jacobian J: count it, record it when due, judge the window the step
        may close, then stop outside the escape ball, else grow the step."""
        stats, h = self.stats, self.h
        stats.accepted += 1
        stats.h_min = min(stats.h_min, h)
        self.length += _norm(X - self.q)
        self.t += h
        self.at(X, r, F, J)
        if stats.accepted % self.opts.record_stride == 0:
            self.record()
        if self.window is None:
            self.window = (self.t, X, F, self.gauss_newton_point())
        elif self.t >= 2.0 * self.window[0] and self.judge():
            return
        dist = _norm(X - self.x0)
        if self.opts.r_escape is not None and dist > self.opts.r_escape:
            self.conclude("diverged", LiftStatus.escaped(self.t, dist))
            return
        self.h = min(_STEP * h, _H_MAX)

    def judge(self) -> bool:
        """Judge the window that ends at q; True when it gave a verdict.
        converged: a root (|r| within res_tol), or a critical point (|grad F|
        within abs_tol or within _CRIT_TOL |J| |r|) that q stayed at over
        the window; ps_candidate: F stalled above root scale while the
        gradient is small, q moved at least half as far as over the window
        before and the Gauss-Newton point at least half as far as q, so the
        flow is not closing in on a minimiser its linear model sees."""
        _, q_w, F_w, z_w = self.window
        t, q, z = self.t, self.q, self.gauss_newton_point()
        dx = _norm(q - q_w)
        near_root = self.rn <= self.res_tol
        critical = self.gn <= self.grad_tol or self.critical
        if near_root or (critical and dx <= _STAB_TOL * (1.0 + _norm(q))):
            self.conclude("converged", LiftStatus.complete(t))
            return True
        if (
            F_w - self.F <= _PS_STALL_TOL * self.F
            and self.gn <= self.ps_grad_tol
            and self.window_dx is not None
            and dx > 0.5 * self.window_dx
            and _norm(z - z_w) > 0.5 * dx
        ):
            self.conclude("ps_candidate", LiftStatus.escaped(t, _norm(q - self.x0)))
            return True
        self.window_dx = dx
        self.window = (t, q, self.F, z)
        return False

    def gauss_newton_point(self) -> Array:
        """q - J^+ r, where the linear model of f at q has its least |r|."""
        s, c = self.s, self.c
        return self.q - self.Vt.T @ np.divide(c, s, out=np.zeros_like(c), where=s > 0.0)

    def conclude(self, kind: str, status: Optional[LiftStatus] = None) -> None:
        """Give the verdict at the current level and, with a status, stop."""
        self.verdict = FlowVerdict(kind, level=self.F, grad_norm=self.gn)
        if status is not None:
            self.status = status

    def outcome(self):
        """(LiftOutcome, FlowVerdict); a flow stopped by the step budget or
        a step collapse is converged at a root or a critical point,
        ps_candidate where |grad F| is within the PS tolerance, else
        undecided."""
        if self.times[-1] != self.t:  # the last step was not due
            self.record()
        if self.verdict is None:
            if self.rn <= self.res_tol or self.critical:
                self.conclude("converged")
            elif self.gn <= self.ps_grad_tol:
                self.conclude("ps_candidate")
            else:
                self.conclude("undecided")
        points = np.array(self.points).reshape(len(self.times), self.x0.size)
        trajectory = LiftTrajectory(times=np.array(self.times), points=points,
                                    mu_values=np.array(self.mu_values), length=self.length)
        residual = float(np.sqrt(2.0 * self.F))
        return LiftOutcome(trajectory, self.status, residual, 0.0, self.stats), self.verdict


def lift_line_square(model: MapModel, x0, w, opts: Optional[LiftOptions] = None) -> LiftOutcome:
    """Lift the line f(x0) + t w, t in [0, 1], through a square Jacobian."""
    if model.n != model.m:
        raise DimensionMismatch(f"lift_line_square: map {model.name!r} is {model.m}x{model.n}, need square")
    return lift_lines(model, x0, [_vector(w, model.m, "lift: w")], opts)[0]


def lift_line_horizontal(model: MapModel, x0, w, opts: Optional[LiftOptions] = None) -> LiftOutcome:
    """Lift the line f(x0) + t w through the minimum-norm right inverse of a
    wide (m <= n) Jacobian: each predictor step and each Newton correction
    is orthogonal to the kernel of J where it is taken, so the path follows
    the horizontal curve to first order in the step, and every point it
    takes is on the line to complete_tol."""
    if model.m > model.n:
        raise DimensionMismatch(f"lift_line_horizontal: map {model.name!r} is {model.m}x{model.n}, need m <= n")
    return lift_lines(model, x0, [_vector(w, model.m, "lift: w")], opts)[0]


@np.errstate(over="ignore", invalid="ignore")  # non-finite points are rejected
def lift_lines(model: MapModel, x0, W, opts: Optional[LiftOptions] = None) -> list:
    """Lift the lines f(x0) + t W[k], t in [0, 1], for every row of W.

    Every line lift runs here, by Euler-Newton continuation.  f(x0), J(x0)
    and its SVD are computed once and counted in every lane.  The rows run
    in lockstep as one (K, n) state under one step controller (_LineLanes),
    one row as many: every lane's t, step size, point, slope and
    rejections are rows of arrays, and a lane leaves the batch when it
    stops; every attempt makes one predictor (cubic Hermite through a
    square lane's last two points, else Euler's tangent), then every
    corrector round one evaluate_stack, one Jacobian stack and one SVD over the lanes
    still in it, and takes the lanes that meet the tolerances (LiftOptions)
    at once.  Every accepted point lies within complete_tol of its line, so
    max_drift, the largest residual of an accepted point, and
    target_residual, that of the last one, are within it too (0 for a lane
    that took no step).  Square and wide (m <= n) maps
    are both served, as by lift_line_square and lift_line_horizontal.
    Returns one LiftOutcome per row of W: the outcome the one-row call of
    that row returns.
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
    if not _all_finite(Wv):
        k = int(np.flatnonzero(~np.isfinite(Wv).all(axis=1))[0])
        raise OutOfRange(f"lift_lines: w (row {k} of W) must be finite, got {Wv[k]!r}")
    if not len(Wv):
        return []
    lanes = _LineLanes(model, x0v, Wv, opts)
    lanes.start()
    lanes.run()
    return lanes.outcomes()


@np.errstate(over="ignore", invalid="ignore")  # non-finite stages are rejected
def gradient_flow(model: MapModel, x0, y, opts: Optional[LiftOptions] = None):
    """Integrate x' = -grad F_y with F_y(x) = |f(x) - y|^2 / 2.

    Returns (LiftOutcome, FlowVerdict).  The flow takes Levenberg-Marquardt
    steps with lambda = 1/h (_Flow), and recorded F values are nonincreasing
    to F's rounding scale.  Each time-doubling window of t ends in a verdict
    (_Flow.judge: converged at a root or at a critical point, ps_candidate
    on a plateau of F that the flow keeps drifting along) or goes on; the
    flow reads diverged when it leaves the escape ball, and undecided when
    the step budget or a step collapse stops it with neither a root, a
    critical point nor a small gradient.
    """
    opts = opts or LiftOptions()
    x0v = _vector(x0, model.n, "gradient_flow: x0")
    flow = _Flow(model, x0v, _vector(y, model.m, "gradient_flow: y"), opts)
    flow.start()
    flow.run()
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
