"""Path lifting through the derivative, and the residual gradient flow.

Straight lines p(t) = f(x0) + t w in the codomain are lifted back to the
domain: q(t) solves f(q(t)) = f(x0) + t w for t in [0, 1], from q(0) = x0,
along the curve whose slope is

    q' = J(q)^{-1} w                     (square Jacobian)
    q' = J(q)^T (J(q) J(q)^T)^{-1} w     (wide Jacobian, minimum-norm route)

The curve is an implicit one, so a line lift follows it by
predictor-corrector continuation (Allgower & Georg, Numerical
Continuation Methods, 1990, ch. 2 and 6; Deuflhard, Newton Methods for
Nonlinear Problems, 2004, ch. 5): a predictor, then at most R
minimum-norm Newton corrections back onto the line's point.  A point is
taken only when its residual is within complete_tol and its next Newton
correction within x_tol, so every recorded point of a line lift lies on
its line to that tolerance; on a wide map, where the points over a line
form a fibre and not a curve, the lift follows the minimum-norm route to
first order in the step.  The slope, the Newton step and the local
invertibility indicator mu (the least singular value, used for
singularity detection) all come out of one SVD of J per corrector round,
maps._svd (maps._svd1 in a _FloatLane).  The step rules are _LaneRules':
one probe of the predictor's error sizes the first step, every later one
aims the last round's correction at a share of its tolerance, and the
mu-decay guard and the floor cap make a lane slow down near a singular
locus and stop at the floor instead of jumping across it.  The gradient flow
x' = -grad F_y is an ODE without a curve to return to, so it takes
linearly implicit Euler steps with the Gauss-Newton Hessian J^T J: each is
a Levenberg-Marquardt step with lambda = 1/h (Levenberg 1944; Marquardt
1963), stable at any step size, under gain-ratio step control (Madsen,
Nielsen & Tingleff, Methods for Non-linear Least Squares Problems, 2004).

Every line lift is a lift_lines call, and gradient_flow integrates
x' = -grad F_y.  A lift is an object that holds the model and runs itself:
start() takes the facts at x0, run() makes attempts until it has stopped,
and the outcome is read off it; no method below the constructor takes the
model.  lift_lines picks the objects: _LineLanes runs the rows of a call
in lockstep (_Attempt keeps the books of one of its attempts), _LineLane
one row alone on one-row stacks, _FloatLane one row of an n = m = 1 map on
Python floats, and _Flow is the gradient flow; each states its books.  The
line controllers run the same rules, each written once in _LaneRules over
a kernel set of operations that each binds, so they agree bit for bit.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, NonFinite, OutOfRange, TooFewPoints
from .maps import (MapModel, _evaluate_stack, _finite_rows, _jacobian_stack, _norms, _svd, _svd1, _vector,
                   evaluate, jacobian)

Array = np.ndarray

_H_MIN = 1e-14  # a step size at or below _H_MIN times the lift's scale has collapsed

# Euler-Newton line lifts (Allgower & Georg, Numerical Continuation Methods, ch. 2 and 6)
_GUARD = 0.5  # the first correction may be at most this share of the predictor step h |k1|
# the first step's predicted first correction, as a share of the distance
# guard: the probe's quadratic model of the Euler error is one sample, so it
# leaves room for its own error and for the later rounds to contract
_PROBE = 0.2
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
    Escaped(t, distance) or StepFailure(t).

    A line lift stops Singular in three ways.  At the floor (the usual
    edge): t and mu are those of its last point taken, mu in [mu_floor,
    2 mu_floor), the secant's crossing of mu_floor within x_tol of it.  At
    an edge where mu falls toward 0 within half an ulp of t: the last
    point taken too.  On a step collapse after a singular rejection: t is
    the last point taken and mu that of the rejected point, below
    mu_floor (the singular value at x0, for a lift that stops there)."""

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

    @np.errstate(over="ignore")  # an overflowed chord is rescaled (_norms)
    def to_csv(self, path) -> None:
        """Columns t, x_1..x_n, mu, cumulative_length (chords of these rows)."""
        n = self.points.shape[1]
        header = ",".join(["t"] + [f"x_{i + 1}" for i in range(n)] + ["mu", "cumulative_length"])
        chords = _norms(np.diff(self.points, axis=0))
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
    line lift's mu-decay guard and floor cap make its steps approach rather
    than cross, so a singular rejection is left for a lane whose mu the
    secant overshoots, where mu is concave in t or falls at once;
    a non-finite point, derivative, slope or value).  evals: model
    evaluations made by the lift itself, not those inside a
    finite-difference Jacobian.  jacobians: Jacobian evaluations.  svds:
    SVDs taken, a closed-form 1x1 one (maps._svd) included.  A line lift
    takes f, J and its SVD at x0 and at every corrector point whose f is
    finite, and f alone at the probe of its first step (one per lane that
    makes an attempt, unless the probe's point is not finite); a flow
    takes them at x0, f at every finite trial point, and J and its SVD
    where the gain test passed.  h_min: the smallest accepted step size,
    inf when no step was accepted.  The counters are
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
    critical-point nor PS evidence).  level is F = |r|^2 / 2 where the
    flow stopped, None where that is past the largest float (a target
    past about 1e154, at root scale)."""

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


def _velocities(U: Array, s: Array, Vt: Array, W: Array) -> Array:
    """Solve J v = w for a stack of SVDs J = U diag(s) Vt, one row w of W
    per matrix: the exact inverse for square J, the minimum-norm right
    inverse J^T (J J^T)^{-1} otherwise.  Each row is computed by the same
    BLAS operations whatever the size of the stack."""
    c = np.matmul(U.transpose(0, 2, 1), W[:, :, None]) / s[:, :, None]
    return np.matmul(Vt.transpose(0, 2, 1), c)[:, :, 0]


_CAUSES = {"error": 0, "singular": 1, "nonfinite": 2}  # columns of _LineLanes.rejected
_RECORD_RUN = 64  # attempts whose steps are folded at once, so a long lift keeps a few arrays
# the fewest rows lift_lines runs in lockstep: on the benchmark's calls two
# rows ran faster as two scalar lanes, three or more faster in lockstep
_LOCKSTEP_ROWS = 3


# a line lift's float state: a non-finite point, value or slope is
# rejected, and the step rule's quotients are numpy's inf or NaN where a
# correction's square is 0, in either controller (each kernel set's divide)
_LINE_ERRSTATE = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


def _divide(a, b):
    """np.divide(a, b) under _LINE_ERRSTATE: inf or NaN where b is 0, without a warning."""
    with np.errstate(**_LINE_ERRSTATE):
        return np.divide(a, b)


def _roots(x, n: int, extra):
    """The square root of x taken n times, then once more where extra: np.sqrt's, on a fresh array."""
    x = np.array(x, dtype=float)
    for _ in range(n):
        np.sqrt(x, out=x)
    np.sqrt(x, out=x, where=extra)
    return x


def _float_roots(x: float, n: int, extra: bool) -> float:
    """_roots of a Python float: math.sqrt, and numpy's NaN for a negative
    (that of 0 inf) or a NaN (itself)."""
    for _ in range(n + extra):
        x = math.sqrt(x) if x >= 0.0 else x if x != x else 0.0 * math.inf
    return x


class _LaneRules:
    """The rules of a line lane, each written once as plain arithmetic over
    a kernel set of operations, which each controller binds as class
    attributes: _LineLanes numpy's ufuncs, over arrays with a row per lane,
    and _LineLane their Python float versions, over one lane's scalars.
    The set is divide (a / b, inf or NaN where b is 0, as np.divide),
    minimum and maximum (a NaN in either gives NaN), fmin (a NaN gives the
    other), roots (_roots) and select (np.where).  Each float version gives
    the ufunc's result bit for bit, zeros' and NaNs' signs included, so a
    lane's steps do not depend on the controller that runs it or on the
    other rows.  No rule branches on which controller calls it.
    Both controllers hold the model, opts, square, rounds (the corrector
    rounds per attempt, each one f, J and SVD: a fourth lets a square
    lane's step grow about twofold for 4/3 the rounds, the round budget of
    adaptive continuation (Deuflhard, ch. 5.1), and turns most rejections
    near a singular edge into steps taken; a wide lane keeps three, as its
    longer steps would drift further along its fibre), x_rel and x_abs
    (tolerance) and mu_least."""

    def __init__(self, model: MapModel, opts: LiftOptions):
        self.model, self.opts = model, opts
        self.square = model.m == model.n  # the Hermite predictor needs the points on one curve
        self.rounds = 4 if self.square else 3
        self.x_rel, self.x_abs = 10.0 * opts.rel_tol, 100.0 * opts.abs_tol
        self.mu_least = max(opts.mu_floor, 5e-324)  # mu >= mu_least: mu >= mu_floor and mu > 0, not NaN

    def tolerance(self, norm):
        """x_rel max(norm, 1) + x_abs: complete_tol of |w| and x_tol of |X|."""
        return self.x_rel * self.maximum(norm, 1.0) + self.x_abs

    def stop_at_x0(self, mu: float, norm_w: float) -> Optional[LiftStatus]:
        """The stop of a lane at x0, from J(x0)'s least singular value mu
        and |w|: Singular for mu below mu_floor, Complete at t = 1 for w = 0,
        Singular for mu not positive and finite (every attempt starts from
        the slope there, so no step size can repair it), else None."""
        if mu < self.opts.mu_floor:
            return LiftStatus.singular(0.0, mu)
        if norm_w == 0.0:
            return LiftStatus.complete(1.0)
        if not 0.0 < mu < math.inf:
            return LiftStatus.singular(0.0, mu)
        return None

    def blind_step(self, norm_x0, norm_k1):
        """h_a = min(0.2, 0.01 (1 + |x0|) / (1 + |k1|)), the lane's h_scale,
        from which the probe sizes its first step."""
        return self.minimum(0.2, 0.01 * (1.0 + norm_x0) / (1.0 + norm_k1))

    def probe_step(self, H, norm_k1, e1):
        """The first step (Hairer, Norsett & Wanner, Solving ODEs I, 1993,
        II.4; Gladwell, Shampine & Brankin, J. Comput. Appl. Math. 18, 1987)
        from the blind step H of a lane whose slope at x0 is norm_k1 long
        and whose probe, one f at the Euler point
        x0 + H k1, measured the predictor error e1 = |J(x0)^+ (f(x0 + H k1)
        - f(x0) - H w)| (NaN where that point or f there is not finite).
        Euler's error grows as h^2, so it is e1 (h / H)^2 at a step h, and
        the step is the h where that is _PROBE times the distance guard
        _GUARD h |k1|: H g, g = _PROBE _GUARD H |k1| / e1, clipped to
        [1, _GROW^2] (so the first step skips at most the first two growths
        the controller would make; e1 = 0 gives _GROW^2, a NaN or inf e1
        keeps H) and to end by t = 1, then cut so that the Euler step
        h |k1| ends inside r_escape, though never below H."""
        allowed = _PROBE * _GUARD * H * norm_k1  # the correction allowed at H
        g = _GROW * _GROW
        g = self.select(allowed < g * e1, self.divide(allowed, e1), g)
        g = self.select(e1 < math.inf, g, 1.0)
        h = self.minimum(H * self.maximum(g, 1.0), 1.0)
        if self.opts.r_escape is not None:
            h = self.select(h * norm_k1 > self.opts.r_escape, self.divide(self.opts.r_escape, norm_k1), h)
        return self.maximum(h, H)

    def step_end(self, t, H):
        """The time an attempt of step H from t reaches: t + H, or 1 where
        that lies within 1e-15 of it.  As t + H lies in [0, 2], 1 - (t + H)
        is exact, so that is t + H >= 1 - 1e-15."""
        T = t + H
        return self.select(T >= 1.0 - 1e-15, 1.0, T)

    @staticmethod
    def hermite(Q, H, K1, hp, qp, kp):
        """The cubic Hermite predictor at t + H of a lane at Q with slope
        K1, through its last step's (t - hp, qp, kp) and (t, Q, K1).  With
        s = H / hp, V = hp K1, VP = hp kp and dq = Q - qp, that cubic at
        t + H is Q + s (V + s ((2 V - 3 dq + VP) + s (V - 2 dq + VP))); its
        terms are displacements of the size of the last step, so a slope
        near the float limit does not overflow them.  Its error is O(h^4),
        where Euler's Q + H K1 is O(h^2); a wide map keeps Euler's, as its
        points do not lie on one smooth curve for a cubic to extrapolate."""
        V, VP = hp * K1, hp * kp
        dq, s = Q - qp, H / hp
        return Q + s * (V + s * ((2.0 * V - 3.0 * dq + VP) + s * (V - 2.0 * dq + VP)))

    def next_step(self, H, T, r: int, e_prev, e, x_tol, mu_prev, mu_new, hermite):
        """The step after a step of size H to time T, taken in corrector
        round r (of R = self.rounds), whose correction at the point taken
        was e long and the one before it e_prev; hermite marks a step the
        cubic Hermite predictor made (else Euler's).  Newton's
        e_{k+1} = c e_k^2, with c = e / e_prev^2, predicts the last round's
        correction: e for r = R - 1, c e^2 = e^3 / e_prev^2 one round
        before and c^3 e^4 = c e^2 (e / e_prev)^4 two rounds before (so an
        exact step, e = 0, predicts 0); a step taken by the predictor
        (r = 0) tells nothing of c, and grows _GROW times.  The first
        correction, the predictor's error, scales as h^2 after Euler and
        h^4 after Hermite, so the last one scales as h^(2^R) or
        h^(2^(R+1)).  The step is scaled so that it would be _AIM x_tol: by
        that root of _AIM x_tol over it, at most _GROW times (a NaN root
        too).  Then, where mu fell, the mu-decay guard and the floor cap,
        at the rate H / (mu_prev - mu_new) it fell over this step: mu may
        fall by at most half over the next step, and the step ends at the
        latest at the secant's crossing of mu_floor (a step-length control
        at a known target, Allgower & Georg, ch. 6), so a step is at most
        H min(0.5 mu_new, mu_new - mu_floor) / (mu_prev - mu_new).  The cap
        is the less where mu_new < 2 mu_floor, so it binds only there
        (at_edge stops a lane whose crossing is within x_tol).  Last the
        step is cut to end at t = 1."""
        if r == 0:
            h_next = _GROW * H
        else:
            last, ahead = e, self.rounds - 1 - r  # ahead: rounds left after the one taken in
            if ahead:
                last = self.divide(e * e * e, e_prev * e_prev)
                if ahead == 2:
                    q = self.divide(e, e_prev)
                    last = last * (q * q) * (q * q)
            root = self.roots(_AIM * x_tol / self.maximum(last, 1e-300), self.rounds, hermite)
            h_next = H * self.fmin(_GROW, root)
        share = self.minimum(0.5 * mu_new, mu_new - self.opts.mu_floor)
        guard = H * share / self.maximum(mu_prev - mu_new, 1e-300)
        h_next = self.select(mu_new < mu_prev, self.minimum(h_next, guard), h_next)
        return self.minimum(h_next, 1.0 - T)

    def at_edge(self, T, h_next, mu_prev, mu, chord, x_tol):
        """Whether a lane that took a step to time T < 1, with indicator mu
        (mu_prev before it), chord long, with x_tol the tolerance of its
        correction and h_next its next step, is at the edge and stops
        Singular there.  Only the mu-decay guard and the floor cap cut a
        step below half an ulp of t: mu falls to 0 or to the floor within a
        few ulps of t, at the edge of the lift.  Below twice the floor the
        floor cap binds, and the lane is at the edge once the secant's
        crossing of the floor is within x_tol of the point in x:
        chord (mu - mu_floor) <= x_tol (mu_prev - mu)."""
        floor = self.opts.mu_floor
        low = mu < 2.0 * floor
        drop = mu_prev - mu
        crossing = low & (drop > 0.0) & (chord * (mu - floor) <= x_tol * drop)
        return ((h_next < _H_MIN) | low) & ((T + h_next == T) | crossing) & (T < 1.0)

    def collapsed(self, h, h_scale, t):
        """Whether a step h, halved by a rejection, has collapsed: it is at
        or below _H_MIN max(h_scale, t), so every step taken advances t."""
        return h <= _H_MIN * self.maximum(h_scale, t)

    @staticmethod
    def collapse(t: float, mu: float) -> LiftStatus:
        """The stop of a lane whose step collapsed at t: Singular with mu, that of its last singular
        rejection since a step was taken, StepFailure where there was none (mu NaN)."""
        return LiftStatus.step_failure(t) if math.isnan(mu) else LiftStatus.singular(t, mu)


class _Attempt:
    """One lockstep attempt of the rows of a lift_lines call (_LineLanes):
    Q the points the step starts from, W the codomain vectors, X the
    current trial point and the named arrays the attempt adds (aligned),
    each aligned with rows.
    evals, jacobians and svds tally the stack calls made so far, each
    raised right after its call: every row still in the attempt did that
    work, which a row adds to its lane's work when it leaves (rejected) or
    takes its step (_LineLanes.take).  The None mask, a stack call's when
    every row is finite or a caller's that counted its mask, hands back the
    arrays as they are (pick, leave), uncounted, as does a mask that keeps
    every row (leave); one that keeps no row only empties rows, cutting no
    aligned array, as every caller then returns."""

    def __init__(self, lanes: "_LineLanes", rows: Array, **aligned):
        self.lanes, self.rows = lanes, rows
        self.Q = self.X = lanes.q.take(rows, axis=0)
        self.names = ("rows", "Q", "X", *aligned)
        self.__dict__.update(aligned)
        self.evals = self.jacobians = self.svds = 0

    @staticmethod
    def pick(mask: Optional[Array], *arrays) -> tuple:
        """The rows of each array that mask marks; the arrays themselves for mask None (every row)."""
        return arrays if mask is None else tuple([A[mask] for A in arrays])

    def keep(self, good: Array, *arrays) -> list:
        """Cut the rows and every array aligned with them, the given arrays
        too (returned), to the good ones: some rows, not every one."""
        for name in self.names:
            setattr(self, name, getattr(self, name)[good])
        return [A[good] for A in arrays]

    def leave(self, good: Optional[Array], cause: str, *arrays, mu: Optional[Array] = None):
        """Reject the rows that are not good with cause, adding the tally
        and passing their mu to _LineLanes.reject, and keep the good ones
        (keep), by the mask rule; good None, as a stack call returns when
        every row is finite, keeps every row uncounted."""
        if good is None:
            return arrays
        kept, rows = np.count_nonzero(good), self.rows
        if kept == good.size:
            return arrays
        if kept:
            bad = ~good
            rows, mu, arrays = rows[bad], None if mu is None else mu[bad], self.keep(good, *arrays)
        else:
            self.rows = rows[:0]
        self.lanes.reject(rows, cause, (self.evals, self.jacobians, self.svds), mu)
        return arrays

    def round(self) -> Optional[tuple]:
        """One corrector round at the trial points X of the rows: f, J and
        the SVD of J, each one stack call counted in the tally, and mu, the
        least singular value of each row.  A row whose f or J is not finite
        leaves (nonfinite), and so does one whose mu is below mu_floor, or
        not positive and finite (singular, with its mu).  Returns (F, U, s,
        Vt, mu) for the rows left, None when no row is left."""
        model = self.lanes.model
        F, good = _evaluate_stack(model, self.X)
        self.evals += 1
        (F,) = self.leave(good, "nonfinite", F)
        if not self.rows.size:
            return None
        J, good = _jacobian_stack(model, self.X)
        self.jacobians += 1
        J, F = self.leave(good, "nonfinite", J, F)
        if not self.rows.size:
            return None
        U, s, Vt = _svd(J)
        self.svds += 1
        mu = s[:, -1]
        good = (mu >= self.lanes.mu_least) & (mu < math.inf)
        F, U, s, Vt, mu = self.leave(good, "singular", F, U, s, Vt, mu, mu=mu)
        if not self.rows.size:
            return None
        return F, U, s, Vt, mu


class _LineLanes(_LaneRules):
    """The K lanes of a lift_lines call, on the curves
    f(q(t)) = f(x0) + t w for t from 0 to 1, under one step controller
    (lift_lines runs it for K >= _LOCKSTEP_ROWS, and each row of a smaller
    call as a _LineLane, the same lift of its row): _LaneRules over numpy's
    kernel set.  Every per-lane fact the lift reads is a row of an array:
    t, the step size h, the point q and its slope k1 (norm_k1 long), mu at
    q, the mu of the last singular rejection since a step was taken
    (last_singular_mu, NaN for none), the rejections by cause (one column
    per cause in _CAUSES), whether the lane still runs and the scale of its
    steps (h_scale, its blind step; collapsed).  A lane runs until it stops
    with a LiftStatus (status[k]) or reaches t = 1, and every running lane
    is in every attempt, so a running lane has taken attempts - its
    rejections steps.  The work (evals, Jacobians, SVDs) of every attempt, rejected or taken,
    is added up per lane (work; that of a step taken when it is folded).

    Each lane also keeps the point, slope and size of its last step taken
    (qp, kp, hp; hp 0 before the first), from which a square map's
    predictor extrapolates (predict).

    run makes attempts (attempt: one predictor and up to rounds Newton
    corrector rounds over the rows in lockstep) of the rows
    begin_attempt returns until every lane has stopped.  Each take's steps
    wait as one block in pending, until _RECORD_RUN blocks or the outcomes
    fold them (fold) into what the outcomes read, each a row per lane: the
    steps taken (accepted), the chord length, the least step (h_min), the
    largest residual of a point taken (max_drift) and the residual of the
    last one (residual); and into one block of the record, which holds each
    lane's base point and every record_stride-th step after it; kept_t is
    the time of the last point kept."""

    minimum, maximum, fmin = np.minimum, np.maximum, np.fmin
    divide, roots, select = staticmethod(_divide), staticmethod(_roots), staticmethod(np.where)

    def __init__(self, model: MapModel, x0v: Array, W: Array, opts: LiftOptions):
        super().__init__(model, opts)
        K = len(W)
        self.x0, self.w = x0v, W
        self.t, self.h, self.mu, self.length = np.zeros(K), np.zeros(K), np.zeros(K), np.zeros(K)
        self.residual, self.max_drift = np.zeros(K), np.zeros(K)
        self.h_min, self.last_singular_mu = np.full(K, math.inf), np.full(K, math.nan)
        self.h_scale = np.ones(K)
        self.q, self.k1, self.norm_k1 = np.repeat(x0v[None], K, axis=0), np.zeros((K, model.n)), np.zeros(K)
        # the point, slope and size of each lane's last step taken (hp 0: none yet)
        self.qp, self.kp, self.hp = np.zeros((K, model.n)), np.zeros((K, model.n)), np.zeros(K)
        self.accepted = np.zeros(K, dtype=np.int64)
        self.rejected = np.zeros((K, 3), dtype=np.int64)
        self.work = np.ones((K, 3), dtype=np.int64)  # f(x0), J(x0) and its SVD
        self.status = [None] * K
        self.running = np.ones(K, dtype=bool)
        self.attempts = 0  # attempts made
        self.pending, self.tallies, self.records = [], [], []
        self.norm_w = _norms(W)
        self.complete_tol = self.tolerance(self.norm_w)

    def record_start(self) -> None:
        """Record every lane's base point: its t, q and mu now."""
        self.kept_t = self.t.copy()
        self.records.append((np.arange(len(self.t)), self.t.copy(), self.q.copy(), self.mu.copy()))

    def stop(self, k: int, status: LiftStatus) -> None:
        self.status[k] = status
        self.running[k] = False

    def start(self, f0: Array, U: Array, s: Array, Vt: Array) -> None:
        """Start from f(x0) = f0 and the SVD U, s, Vt of J(x0), shared by the
        lanes: record the base point; a lane stops at x0 (stop_at_x0), the
        others take their first slope k1 (a lane whose k1 is not finite
        stops StepFailure) and their blind step, h_scale (blind_step), from
        which they size their first step by one probe (first_step)."""
        self.f0 = f0
        mu = float(s[-1])
        self.mu[:] = mu
        self.record_start()
        for k, norm_w in enumerate(self.norm_w.tolist()):
            if status := self.stop_at_x0(mu, norm_w):
                self.t[k] = status.t
                self.stop(k, status)
        rows = self.running.nonzero()[0]
        if not rows.size:
            return
        U, s, Vt = U[None], s[None], Vt[None]  # one SVD for every row: matmul broadcasts it
        k1 = _velocities(U, s, Vt, self.w[rows])
        bad = ~np.isfinite(k1).all(axis=1)
        for k in rows[bad].tolist():
            self.stop(k, LiftStatus.step_failure(0.0))
        self.k1[rows] = k1
        self.norm_k1[rows] = norm_k1 = _norms(k1)
        self.h_scale[rows] = h = self.blind_step(_norms(self.x0), norm_k1)
        live = ~bad
        h[live] = self.first_step(rows[live], h[live], norm_k1[live], U, s, Vt)
        self.h[rows] = h

    def first_step(self, rows: Array, H: Array, norm_k1: Array, U: Array, s: Array, Vt: Array) -> Array:
        """The first steps of rows (probe_step), whose slopes at x0 are k1
        (norm_k1 long), from the blind steps H and the SVD U, s, Vt of J(x0)
        as one-matrix stacks, broadcast over the rows: one f stack at the
        Euler points x0 + H k1 that are finite (counted in each row's
        evals) gives each row's predictor error e1."""
        e1 = np.full(rows.size, math.nan)
        P = self.x0 + H[:, None] * self.k1.take(rows, axis=0)
        at = np.isfinite(P).all(axis=1).nonzero()[0]
        if at.size:
            F, good = _evaluate_stack(self.model, P.take(at, axis=0))
            self.work[rows.take(at), 0] += 1
            if good is not None:
                at, F = at[good], F[good]
            R = F - (self.f0 + H.take(at)[:, None] * self.w.take(rows.take(at), axis=0))
            e1[at] = _norms(_velocities(U, s, Vt, R))
        return self.probe_step(H, norm_k1, e1)

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
        for k in rows[self.collapsed(self.h[rows], self.h_scale[rows], self.t[rows])].tolist():
            self.stop(k, self.collapse(self.t[k], self.last_singular_mu[k]))

    def attempt(self, rows: Array) -> None:
        """One predictor-corrector attempt for rows, toward the points
        y = f(x0) + T w of their lines at T = step_end(t, h).  The
        predictor X is predict's: cubic Hermite on a square map after a
        step taken, else Euler's q + h k1.  Each corrector round takes f,
        J and its SVD at X over the rows left, as stacks (_Attempt.round: a
        row leaves on a non-finite f or J and on mu below the floor); a row
        also leaves on a non-finite X.  The minimum-norm Newton step there is
        -J^+ (f(X) - y).  A row whose residual |f(X) - y| is within
        complete_tol and whose Newton step is within
        x_tol = tolerance(|X|) takes its step to X
        (take), unless its slope J^+ w there is not finite (nonfinite).  The
        others make their Newton step, which must be at most _GUARD h |k1|
        long in the first round (the distance to the curve) and at most
        _CONTRACTION times the step before in the next; a row whose step is
        longer, or that is not within tolerance after self.rounds rounds, is
        rejected (error).  A round takes |R|, |dX| and |X| by one _norms call
        (two on a wide map, where R is m wide); a mask that keeps every row
        cuts nothing (_Attempt), and a round where every row is done ends
        the attempt with take alone."""
        H = self.h.take(rows)
        T = self.step_end(self.t.take(rows), H)
        W, K1 = self.w.take(rows, axis=0), self.k1.take(rows, axis=0)
        hermite = (self.hp.take(rows) > 0.0) & self.square
        # D: the longest Newton step allowed next; C0: the first one's length; CT: complete_tol
        a = _Attempt(self, rows, W=W, H=H, T=T, Y=self.f0 + T[:, None] * W,
                     D=_GUARD * H * self.norm_k1.take(rows), C0=np.empty(rows.size),
                     CT=self.complete_tol.take(rows), hermite=hermite)
        a.X = self.predict(a, K1)
        for r in range(self.rounds):
            if (finite := _finite_rows(a.X)) is not None:
                a.leave(finite, "nonfinite")
                if not a.rows.size:
                    return
            got = a.round()
            if got is None:
                return
            F, U, s, Vt, mu = got
            R = F - a.Y
            dX = _velocities(U, s, Vt, R)  # the Newton step is -dX
            if self.square:
                res, size, norm_x = _norms(np.concatenate([R, dX, a.X])).reshape(3, -1)
            else:
                res, (size, norm_x) = _norms(R), _norms(np.concatenate([dX, a.X])).reshape(2, -1)
            if r == 0:
                a.C0 = size
            x_tol = self.tolerance(norm_x)
            done = (res <= a.CT) & (size <= x_tol)
            if taken := np.count_nonzero(done):
                K1 = _velocities(*a.pick(None if taken == done.size else done, U, s, Vt, a.W))
                if (finite := _finite_rows(K1)) is not None:  # a slope past the float limit: no step to take
                    good = np.ones(len(done), dtype=bool)
                    good[done], K1 = finite, K1[finite]
                    done, mu, res, size, x_tol, dX = a.leave(
                        good, "nonfinite", done, mu, res, size, x_tol, dX)
                    if not a.rows.size:
                        return
                if taken := len(K1):
                    every = taken == a.rows.size
                    self.take(a, None if every else done, r, K1, mu, res, size, x_tol)
                    if every:  # every row took its step
                        return
                    dX, size = a.keep(~done, dX, size)
            if r == self.rounds - 1:
                a.leave(np.zeros(a.rows.size, dtype=bool), "error")
                return
            dX, size = a.leave(size <= a.D, "error", dX, size)
            if not a.rows.size:
                return
            a.X = a.X - dX  # x - d is x + (-d) in IEEE arithmetic, bit for bit
            a.D = _CONTRACTION * size

    def predict(self, a: _Attempt, K1: Array) -> Array:
        """The predictor point at t + H of each row of a, which starts at Q
        with slope K1: the Euler point Q + H K1 for a row without a step
        taken or on a wide map, else the cubic Hermite one (hermite).  Each
        row's value is its own, and an attempt of one kind of row computes
        that kind alone."""
        h = a.hermite
        count = np.count_nonzero(h)
        if not count:
            return a.Q + a.H[:, None] * K1
        rows, Q, H, KH = a.pick(None if count == h.size else h, a.rows, a.Q, a.H, K1)
        P = self.hermite(Q, H[:, None], KH, self.hp.take(rows)[:, None], self.qp.take(rows, axis=0),
                         self.kp.take(rows, axis=0))
        if rows.size == h.size:
            return P
        X = a.Q + a.H[:, None] * K1
        X[h] = P
        return X

    def take(self, a: _Attempt, done: Optional[Array], r: int, K1: Array, mu: Array, res: Array,
             e: Array, x_tol: Array) -> None:
        """The rows of a that are done in corrector round r (every row for
        done None) take their steps to X, where the slope is K1 (a row per
        row done), the indicator mu, the residual res, the Newton correction
        e long and its tolerance x_tol (a row per row of a, picked): the
        chords and distances from x0 as row norms, the next step
        (next_step), the step's block in pending (whose tally each of them
        did), and the stops of a lane that reaches t = 1, at the edge
        (at_edge: Singular at X with its mu) or outside the escape ball."""
        e_prev = a.C0 if r < 2 else a.D / _CONTRACTION  # the correction before e, exactly: 0.5 is a power of 2
        rows, Q, X, H, T, e_prev, hermite, mu, res, e, x_tol = a.pick(
            done, a.rows, a.Q, a.X, a.H, a.T, e_prev, a.hermite, mu, res, e, x_tol)
        chords, dists, norm_k1 = _norms(np.concatenate([X - Q, X - self.x0, K1])).reshape(3, -1)
        mu_prev = self.mu.take(rows)
        h_next = self.next_step(H, T, r, e_prev, e, x_tol, mu_prev, mu, hermite)
        at = ... if rows.size == len(self.t) else rows  # every lane took its step: no scatter
        self.qp[at], self.kp[at], self.hp[at] = Q, self.k1.take(rows, axis=0), H
        self.q[at], self.k1[at], self.norm_k1[at] = X, K1, norm_k1
        self.t[at], self.mu[at], self.h[at] = T, mu, h_next
        self.last_singular_mu[at] = math.nan
        self.running[at] = T < 1.0 - 1e-15
        self.pending.append((rows, T, X, mu, H, chords, res))
        self.tallies.append((a.evals, a.jacobians, a.svds))
        if len(self.pending) == _RECORD_RUN:
            self.fold()
        edge = self.at_edge(T, h_next, mu_prev, mu, chords, x_tol)
        out = edge if self.opts.r_escape is None else edge | (dists > self.opts.r_escape)
        for j in out.nonzero()[0].tolist():
            k = int(rows[j])
            t = self.t[k]
            self.stop(k, LiftStatus.singular(t, self.mu[k]) if edge[j] else LiftStatus.escaped(t, dists[j]))

    def fold(self) -> None:
        """Fold the pending steps, by lane in step order, into work (each
        block's tally), accepted, length (the chords summed one by one, as
        the steps add up), h_min, max_drift, residual (that of each lane's
        last step) and one record block."""
        if not self.pending:
            return
        sizes = [len(block[0]) for block in self.pending]
        rows, *columns = map(np.concatenate, zip(*self.pending))
        np.add.at(self.work, rows, np.repeat(self.tallies, sizes, axis=0))
        self.pending, self.tallies = [], []
        order = np.argsort(rows, kind="stable")
        rows, *columns = rows[order], *(A[order] for A in columns)
        T, X, mu, H, chords, res = columns
        counts = np.bincount(rows, minlength=len(self.t))
        firsts = np.cumsum(counts) - counts
        np.add.at(self.length, rows, chords)
        np.minimum.at(self.h_min, rows, H)
        np.fmax.at(self.max_drift, rows, res)
        lasts = firsts[counts > 0] + counts[counts > 0] - 1
        self.residual[rows[lasts]] = res[lasts]
        steps = self.accepted[rows] + np.arange(1, len(rows) + 1) - firsts[rows]  # each step's count
        self.accepted += counts
        # no int64 step count reaches a larger stride, which keeps no step
        stride = min(self.opts.record_stride, np.iinfo(np.int64).max)
        if stride > 1:
            due = steps % stride == 0
            rows, T, X, mu = rows[due], T[due], X[due], mu[due]
            if not rows.size:
                return
        np.maximum.at(self.kept_t, rows, T)  # each lane's last due step: t grows along a lane
        self.records.append((rows, T, X, mu))

    def outcomes(self) -> list:
        """The LiftOutcome of every lane: its trajectory (the base point
        and every record_stride-th step after it, then the lane's final
        point unless its time is the last one kept), its residual at its
        last point taken, its largest residual at a point taken, its
        LiftStats, and Complete for a lane that ran to t = 1 (every
        accepted point is within complete_tol of its line)."""
        self.fold()
        last = (self.kept_t != self.t).nonzero()[0]
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


class _LineLane(_LaneRules):
    """One lane of a lift_lines call of fewer than _LOCKSTEP_ROWS rows: the
    lift _LineLanes makes of that row, under the same _LaneRules over their
    Python float kernel set, its books in Python floats and ints, as _Flow
    keeps its own.  Its x0, w, f(x0), point q, slope k1 and last step's
    point and slope (qp, kp; its size hp, 0 before the first) are one-row
    stacks; the rest are scalars.  Every number that is not elementwise
    comes from _evaluate_stack, _jacobian_stack and the lane's stack kernels
    (item, stack, finite, factor, velocities, norms: here those of
    _LineLanes on one-row stacks), and every other is the same IEEE
    operation as in _LineLanes, so the outcome is that of the same row in a
    call of any number of rows.  Work is counted as it is done: every
    attempt ends in a rejection or a step taken, which add their tally."""

    divide = staticmethod(lambda a, b: a / b if b else a * math.copysign(math.inf, b))
    minimum = staticmethod(lambda a, b: a if a != a or a < b else b)
    maximum = staticmethod(lambda a, b: a if a != a or a > b else b)
    fmin = staticmethod(lambda a, b: b if a != a else a if a <= b or b != b else b)
    roots = staticmethod(_float_roots)
    select = staticmethod(lambda c, a, b: a if c else b)
    item = stack = staticmethod(lambda A: A)  # a one-row stack as the lane holds it, and a point as one
    finite = staticmethod(lambda V: _finite_rows(V) is None)
    velocities = staticmethod(_velocities)
    norms = staticmethod(lambda *V: _norms(np.concatenate(V)).tolist())

    @staticmethod
    def factor(F: Array, J: Array) -> tuple:
        """The one-row f stack F as the lane holds it, the SVD U, s, Vt of
        the one-row stack J and mu, its least singular value."""
        U, s, Vt = _svd(J)
        return F, U, s, Vt, float(s[0, -1])

    def __init__(self, model: MapModel, x0v: Array, W: Array, opts: LiftOptions):
        super().__init__(model, opts)
        self.x0, self.w = self.item(x0v[None]), self.item(W)
        self.t = self.h = self.mu = self.length = self.residual = self.max_drift = 0.0
        self.h_min, self.last_singular_mu, self.h_scale, self.hp = math.inf, math.nan, 1.0, 0.0
        self.q = self.x0
        self.accepted, self.rejected = 0, [0, 0, 0]  # rejected: by _CAUSES
        self.evals = self.jacobians = self.svds = 1  # f(x0), J(x0) and its SVD
        self.status = None
        self.times, self.points, self.mu_values = [], [], []
        (self.norm_w,) = self.norms(self.w)
        self.complete_tol = self.tolerance(self.norm_w)

    def record(self) -> None:
        """Keep t, q and mu: the base point, every record_stride-th step and the final point."""
        self.kept_t = self.t
        self.times.append(self.t)
        self.points.append(self.q)
        self.mu_values.append(self.mu)

    def stop(self, status: LiftStatus) -> None:
        self.status = status

    def start(self, f0, U, s, Vt, mu: float) -> None:
        """_LineLanes.start of the lane, from f(x0) = f0, the SVD U, s, Vt
        of J(x0) and mu, as factor gives them."""
        self.f0, self.mu = f0, mu
        self.record()
        if status := self.stop_at_x0(mu, self.norm_w):
            self.t = status.t
            return self.stop(status)
        self.k1 = self.velocities(U, s, Vt, self.w)
        if not self.finite(self.k1):
            return self.stop(LiftStatus.step_failure(0.0))
        self.norm_k1, norm_x0 = self.norms(self.k1, self.x0)
        self.h_scale = H = self.blind_step(norm_x0, self.norm_k1)
        self.h = self.first_step(H, U, s, Vt)

    def first_step(self, H: float, U, s, Vt) -> float:
        """_LineLanes.first_step of the lane, from the blind step H: one f
        at the Euler point x0 + H k1 measures the predictor's error e1."""
        e1 = math.nan
        P = self.x0 + H * self.k1
        if self.finite(P):
            F, good = _evaluate_stack(self.model, self.stack(P))
            self.evals += 1
            if good is None:
                R = self.item(F) - (self.f0 + H * self.w)
                (e1,) = self.norms(self.velocities(U, s, Vt, R))
        return self.probe_step(H, self.norm_k1, e1)

    def run(self) -> None:
        """Make attempts until the lane has stopped or reached t = 1; it
        stops StepFailure once it has taken max_steps steps."""
        while self.status is None and self.t < 1.0:
            if self.accepted >= self.opts.max_steps:
                return self.stop(LiftStatus.step_failure(self.t))
            self.attempt()

    def attempt(self) -> None:
        """_LineLanes.attempt and predict of the lane: the predictor, then up
        to self.rounds corrector rounds, each f and J at the one-row stack
        of X and the SVD of J (factor), until the lane takes its step (take)
        or is rejected (reject, by _CAUSES)."""
        H, W, Q, K1 = self.h, self.w, self.q, self.k1
        T = self.step_end(self.t, H)
        hermite = self.hp > 0.0 and self.square
        Y = self.f0 + T * W
        D = _GUARD * H * self.norm_k1
        X = self.hermite(Q, H, K1, self.hp, self.qp, self.kp) if hermite else Q + H * K1
        for r in range(self.rounds):
            if not self.finite(X):
                return self.reject(_CAUSES["nonfinite"])
            F, good = _evaluate_stack(self.model, Xs := self.stack(X))
            self.evals += 1
            if good is not None:
                return self.reject(_CAUSES["nonfinite"])
            J, good = _jacobian_stack(self.model, Xs)
            self.jacobians += 1
            if good is not None:
                return self.reject(_CAUSES["nonfinite"])
            F, U, s, Vt, mu = self.factor(F, J)
            self.svds += 1
            if not (mu >= self.mu_least and mu < math.inf):
                return self.reject(_CAUSES["singular"], mu)
            R = F - Y
            dX = self.velocities(U, s, Vt, R)  # the Newton step is -dX
            if self.square:
                res, size, norm_x = self.norms(R, dX, X)
            else:
                (res,), (size, norm_x) = self.norms(R), self.norms(dX, X)
            if r == 0:
                C0 = size
            if res <= self.complete_tol and size <= (x_tol := self.tolerance(norm_x)):
                K1 = self.velocities(U, s, Vt, W)
                if not self.finite(K1):  # a slope past the float limit: no step to take
                    return self.reject(_CAUSES["nonfinite"])
                e_prev = C0 if r < 2 else D / _CONTRACTION  # the correction before size
                return self.take(H, T, X, K1, r, mu, res, e_prev, size, x_tol, hermite)
            if r == self.rounds - 1 or not size <= D:
                return self.reject(_CAUSES["error"])
            X = X - dX
            D = _CONTRACTION * size

    def reject(self, cause: int, mu: Optional[float] = None) -> None:
        """_LineLanes.reject of the lane: count the cause, keep a singular
        rejection's mu, halve the step, and stop when it has collapsed."""
        self.rejected[cause] += 1
        if mu is not None:
            self.last_singular_mu = mu
        self.h *= 0.5
        if self.collapsed(self.h, self.h_scale, self.t):
            self.stop(self.collapse(self.t, self.last_singular_mu))

    def take(self, H: float, T: float, X, K1, r: int, mu: float, res: float, e_prev: float, e: float,
             x_tol: float, hermite: bool) -> None:
        """_LineLanes.take and fold of the lane: the step of size H to X at
        T, taken in round r with slope K1, indicator mu, residual res and a
        correction e long (e_prev the one before, x_tol its tolerance)."""
        chord, dist, norm_k1 = self.norms(X - self.q, X - self.x0, K1)
        mu_prev = self.mu
        h_next = self.next_step(H, T, r, e_prev, e, x_tol, mu_prev, mu, hermite)
        self.qp, self.kp, self.hp = self.q, self.k1, H
        self.q, self.k1, self.norm_k1 = X, K1, norm_k1
        self.t, self.mu, self.h = T, mu, h_next
        self.last_singular_mu = math.nan
        self.accepted += 1
        self.length += chord
        self.h_min = min(self.h_min, H)
        if res > self.max_drift:
            self.max_drift = res
        self.residual = res
        if self.accepted % self.opts.record_stride == 0:
            self.record()
        if self.at_edge(T, h_next, mu_prev, mu, chord, x_tol):
            return self.stop(LiftStatus.singular(T, mu))
        if self.opts.r_escape is not None and dist > self.opts.r_escape:
            self.stop(LiftStatus.escaped(T, dist))

    def outcome(self) -> LiftOutcome:
        """The lane's LiftOutcome, as _LineLanes.outcomes reads it."""
        if self.kept_t != self.t:
            self.record()
        points = np.array(self.points).reshape(len(self.times), self.model.n)
        trajectory = LiftTrajectory(times=np.array(self.times), points=points,
                                    mu_values=np.array(self.mu_values), length=self.length)
        stats = LiftStats(self.accepted, *self.rejected, self.evals, self.jacobians, self.svds, self.h_min)
        status = self.status or LiftStatus.complete(1.0)
        return LiftOutcome(trajectory, status, self.residual, self.max_drift, stats)


class _FloatLane(_LineLane):
    """The _LineLane of an n = m = 1 map, run on Python floats: x0, w,
    f(x0), the point, its slope, f, J and the SVD (u, s, vt) of J.  f and J
    are taken at the one-row stack of the point, and the kernels make the
    IEEE operations of the stack kernels: the velocity vt ((u r) / s),
    + 0.0 as matmul's sum starts at +0; each norm sqrt(v v), |v| where v v
    overflows, as _norms rescales; and the SVD maps._svd1, the closed form
    for |J| in _svd's window, and LAPACK's SVD of the stack outside it."""

    item = staticmethod(np.ndarray.item)
    stack = staticmethod(lambda x: np.array([[x]]))
    finite = staticmethod(math.isfinite)
    velocities = staticmethod(lambda u, s, vt, r: vt * ((u * r) / s) + 0.0)
    norms = staticmethod(lambda *V: [abs(v) if v * v == math.inf else math.sqrt(v * v) for v in V])

    @staticmethod
    def factor(F: Array, J: Array) -> tuple:
        u, s, vt = _svd1(J)
        return F.item(), u, s, vt, s


class _Flow:
    """The residual gradient flow x' = -grad F_y from t = 0, by linearly
    implicit Euler steps, t the sum of their sizes.  t, the step size h, F,
    |r|, |grad F| and mu at q and the LiftStats counters (stats) are Python
    scalars.  F, the model's predicted fall and F's rounding scale are held
    in units of scale^2, scale a power of two fixed at x0: 1, unless
    |r(x0)|^2 would overflow, and then the power of two at or below the
    largest |r_i(x0)|, so that the gain test and the stall test compare
    finite numbers; |r|, |grad F|, the level and the residual reported are
    not scaled.  A step taken grows h _STEP times, a rejection shrinks it so,
    and every time-doubling window ends in a verdict or goes on.  The flow
    runs until a verdict, the escape stop, a step collapse or the step
    budget; its trajectory keeps the base point and every record_stride-th
    step after it, then the final point."""

    def __init__(self, model: MapModel, x0v: Array, yv: Array, opts: LiftOptions):
        self.model, self.x0, self.y, self.opts = model, x0v, yv, opts
        self.grad_tol = opts.abs_tol
        # residual scale below which a plateau is a root, not a PS level
        self.norm_y = _norms(yv)
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
        self.rn, self.gn, self.mu = _norms(r), _norms(self.s * self.c), float(self.s[-1])
        self.critical = self.gn <= _CRIT_TOL * float(self.s[0]) * self.rn

    def start(self) -> None:
        """f(x0), J(x0) and its SVD, and the scale of F; a non-finite
        gradient or energy F at x0 raises NonFinite."""
        r = evaluate(self.model, self.x0) - self.y
        self.scale = 1.0
        F = 0.5 * float(r @ r)
        if F == math.inf and _finite_rows(r[None]) is None:  # r / scale is exact above the subnormals
            self.scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(r))))[1] - 1)
            rs = r / self.scale
            F = 0.5 * float(rs @ rs)
        self.at(self.x0, r, F, jacobian(self.model, self.x0))
        if not (F < math.inf and self.gn < math.inf):
            raise NonFinite(f"gradient_flow({self.model.name}): non-finite gradient or energy at x0")
        self.record()
        # the gradient norm below which a plateau may be PS
        self.ps_grad_tol = _PS_GRAD_TOL * min(1.0, self.gn)
        if self.gn <= self.grad_tol:
            self.conclude("converged", LiftStatus.complete(0.0))
        self.h = min(0.1, 0.01 * (1.0 + _norms(self.x0)) / (1.0 + self.gn))

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
        X = q - V diag(s / (s^2 + 1/h)) c, with f there (one f stack)
        and, for a step taken, J and its SVD there (take).  A non-finite X,
        f, F or J rejects the attempt (nonfinite), and so does the gain test
        (error): F must fall by at least _GAIN of the fall of the model
        |r + J dx|^2 / 2, sum(c^2 b (2 - b)) / 2 with b = s^2 / (s^2 + 1/h),
        less F's rounding scale _ROUNDING |r| (|r| + |y|), all three in
        units of scale^2."""
        s, c = self.s, self.c
        z = s / (s * s + 1.0 / self.h)
        X = self.q - self.Vt.T @ (z * c)
        if _finite_rows(X[None]) is not None:
            return self.reject("nonfinite")
        self.stats.evals += 1
        R, good = _evaluate_stack(self.model, X[None])
        if good is not None:
            return self.reject("nonfinite")
        r = R[0] - self.y
        rs = r / self.scale  # F in units of scale^2
        F = 0.5 * float(rs @ rs)
        if not F < math.inf:
            return self.reject("nonfinite")
        b, c, scale = s * z, c / self.scale, self.scale
        predicted = 0.5 * float(np.sum(c * c * b * (2.0 - b)))
        rounding = _ROUNDING * (self.rn / scale) * (self.rn / scale + self.norm_y / scale)
        if not self.F - F + rounding >= _GAIN * predicted:  # a NaN is rejected
            return self.reject("error")
        self.stats.jacobians += 1
        J, good = _jacobian_stack(self.model, X[None])
        if good is not None:
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
        self.length += _norms(X - self.q)
        self.t += h
        self.at(X, r, F, J)
        if stats.accepted % self.opts.record_stride == 0:
            self.record()
        if self.window is None:
            self.window = (self.t, X, F, self.gauss_newton_point())
        elif self.t >= 2.0 * self.window[0] and self.judge():
            return
        dist = _norms(X - self.x0)
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
        dx = _norms(q - q_w)
        near_root = self.rn <= self.res_tol
        critical = self.gn <= self.grad_tol or self.critical
        if near_root or (critical and dx <= _STAB_TOL * (1.0 + _norms(q))):
            self.conclude("converged", LiftStatus.complete(t))
            return True
        if (
            F_w - self.F <= _PS_STALL_TOL * self.F
            and self.gn <= self.ps_grad_tol
            and self.window_dx is not None
            and dx > 0.5 * self.window_dx
            and _norms(z - z_w) > 0.5 * dx
        ):
            self.conclude("ps_candidate", LiftStatus.escaped(t, _norms(q - self.x0)))
            return True
        self.window_dx = dx
        self.window = (t, q, self.F, z)
        return False

    def gauss_newton_point(self) -> Array:
        """q - J^+ r, where the linear model of f at q has its least |r|."""
        s, c = self.s, self.c
        return self.q - self.Vt.T @ np.divide(c, s, out=np.zeros_like(c), where=s > 0.0)

    def conclude(self, kind: str, status: Optional[LiftStatus] = None) -> None:
        """Give the verdict at the current level, unscaled (None past the
        float limit), and, with a status, stop."""
        level = self.F * self.scale * self.scale
        self.verdict = FlowVerdict(kind, level=level if level < math.inf else None, grad_norm=self.gn)
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
        residual = float(np.sqrt(2.0 * self.F)) * self.scale
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


@np.errstate(**_LINE_ERRSTATE)
def lift_lines(model: MapModel, x0, W, opts: Optional[LiftOptions] = None) -> list:
    """Lift the lines f(x0) + t W[k], t in [0, 1], for every row of W.

    Every line lift runs here, by Euler-Newton continuation.  f(x0), J(x0)
    and its SVD are computed once and counted in every lane.  A call of
    _LOCKSTEP_ROWS rows or more runs in lockstep (_LineLanes); a smaller
    one runs each row as one scalar lane, on one-row stacks (_LineLane) or,
    on an n = m = 1 map, on Python floats (_FloatLane).  Every accepted
    point lies within complete_tol of its line (LiftOptions), so max_drift,
    the largest residual of an accepted point, and target_residual, that of
    the last one, are within it too (0 for a lane that took no step).
    Square and wide (m <= n) maps are both served, as by lift_line_square
    and lift_line_horizontal.
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
    if (finite := _finite_rows(Wv)) is not None:
        k = int(np.flatnonzero(~finite)[0])
        raise OutOfRange(f"lift_lines: w (row {k} of W) must be finite, got {Wv[k]!r}")
    if not len(Wv):
        return []
    f0, J0 = evaluate(model, x0v), jacobian(model, x0v)
    if len(Wv) >= _LOCKSTEP_ROWS:
        lanes = _LineLanes(model, x0v, Wv, opts)
        lanes.start(f0, *_svd(J0))
        lanes.run()
        return lanes.outcomes()
    lane_type = _FloatLane if model.n == model.m == 1 else _LineLane
    at_x0 = lane_type.factor(f0[None], J0[None])
    out = []
    for w in Wv:
        lane = lane_type(model, x0v, w[None], opts)
        lane.start(*at_x0)
        lane.run()
        out.append(lane.outcome())
    return out


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


@np.errstate(over="ignore")  # an overflowed norm is rescaled (_norms)
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
    radii = _norms(0.5 * (pts[:-1] + pts[1:]) - ref)
    total = 0.0
    for radius, chord in zip(radii.tolist(), _norms(np.diff(pts, axis=0)).tolist()):
        om = float(weight(radius))
        if not (math.isfinite(om) and om > 0.0):
            raise OutOfRange("weighted_path_length: weight must be positive and finite")
        total += chord / om
    return total
