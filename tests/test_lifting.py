import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from globinv import lifting, maps
from globinv.errors import DimensionMismatch, NonFinite, OutOfRange, TooFewPoints
from globinv.lifting import (
    FlowVerdict,
    LiftOptions,
    LiftStats,
    LiftStatus,
    LiftTrajectory,
    gradient_flow,
    lift_line_horizontal,
    lift_line_square,
    lift_lines,
    weighted_path_length,
)
from globinv.certificates import _BOUNDARY_SCALE, unit_sphere_points
from globinv.indicators import mu_profile, rho_of_r
from globinv.maps import MapModel, evaluate, linear_map, registry_get
from globinv.solver import solve


def _bisect(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) <= 0) == (flo <= 0):
            lo, flo = mid, f(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_identity_lift_is_the_segment():
    m = registry_get("identity_2")
    w = np.array([0.3, -0.4])
    out = lift_line_square(m, [1.0, 1.0], w)
    assert out.status.is_complete
    assert np.allclose(out.trajectory.points[-1], [1.3, 0.6], atol=1e-9)
    assert out.trajectory.length == pytest.approx(0.5, rel=1e-9)
    assert np.allclose(out.trajectory.mu_values, 1.0)
    assert out.target_residual <= 1e-9


def test_linear_lift_endpoint_is_inverse_image():
    A = np.array([[2.0, 1.0], [0.0, 0.5]])
    m = linear_map(A)
    w = np.array([1.0, 1.0])
    out = lift_line_square(m, [0.0, 0.0], w)
    want = np.linalg.solve(A, w)
    assert out.status.is_complete
    assert np.allclose(out.trajectory.points[-1], want, atol=1e-8)
    assert out.trajectory.length == pytest.approx(np.linalg.norm(want), rel=1e-7)


def test_monotone_lift_matches_bisection_oracle():
    m = registry_get("monotone1d")
    target = 7.0
    out = lift_line_square(m, [0.0], [target])
    oracle = _bisect(lambda x: x + 0.5 * np.sin(x) - target, 0.0, 10.0)
    assert out.status.is_complete
    assert abs(out.trajectory.points[-1][0] - oracle) <= 1e-6


def test_exp_singular_stop():
    m = registry_get("exp1d")
    out = lift_line_square(m, [0.0], [-2.0])
    assert out.status.kind in ("Singular", "Escaped")
    assert 0.45 <= out.status.t <= 0.5
    if out.status.kind == "Singular":
        assert out.status.mu is not None and out.status.mu <= 1e-6


def test_mu_floor_respected_along_trajectory():
    m = registry_get("exp1d")
    opts = LiftOptions(mu_floor=1e-3)
    out = lift_line_square(m, [0.0], [-2.0], opts)
    assert out.status.kind == "Singular"
    # mu = 1 - 2t along this lift, so the stop is near t = (1 - 1e-3) / 2
    assert out.status.t == pytest.approx(0.4995, abs=1e-3)


def test_escape_stop():
    m = registry_get("identity_2")
    opts = LiftOptions(r_escape=0.5)
    out = lift_line_square(m, [0.0, 0.0], [3.0, 0.0], opts)
    assert out.status.kind == "Escaped"
    assert out.status.distance is not None and out.status.distance > 0.5
    assert out.status.t < 1.0


def test_zero_direction_completes_immediately():
    m = registry_get("identity_1")
    out = lift_line_square(m, [2.0], [0.0])
    assert out.status.is_complete
    assert out.trajectory.length == 0.0


def test_record_stride_keeps_endpoints():
    m = registry_get("monotone1d")
    full = lift_line_square(m, [0.0], [5.0])
    sparse = lift_line_square(m, [0.0], [5.0], LiftOptions(record_stride=5))
    assert sparse.trajectory.times.shape[0] < full.trajectory.times.shape[0]
    assert sparse.trajectory.times[0] == 0.0
    assert sparse.trajectory.times[-1] == full.trajectory.times[-1] == 1.0
    # recorded length is the full accumulated length either way
    assert sparse.trajectory.length == pytest.approx(full.trajectory.length, rel=1e-9)
    # a stride longer than the lift keeps the base point and the final one,
    # also one past any int64 step count
    for stride in (10**6, 2**63, 10**30):
        ends = lift_line_square(m, [0.0], [5.0], LiftOptions(record_stride=stride))
        assert ends.trajectory.times.tolist() == [0.0, 1.0]
        assert ends.trajectory.length == full.trajectory.length and ends.stats == full.stats


@pytest.mark.parametrize("stride, kept", [(1, 54), (3, 19)], ids=["stride_1", "stride_3"])
def test_steps_that_do_not_advance_t_are_not_recorded(stride, kept):
    """With no mu floor, the mu-decay guard on exp1d toward its singular
    edge (f = -1, at t = 1/2) lets mu = 1 - 2t at most halve per step, so
    the steps shrink with the distance to the edge; the lane stops with
    StepFailure within 1e-14 of t = 1/2, when its step collapses, after 53
    steps.  The trajectory keeps the base point, every stride-th step and
    the final point, one point per time.  A lane of the same call that
    reaches t = 1 completes."""
    opts = LiftOptions(mu_floor=0.0, record_stride=stride)
    toward_edge, away = lift_lines(registry_get("exp1d"), [0.0], [[-2.0], [1.0]], opts)
    times = toward_edge.trajectory.times
    assert toward_edge.status == LiftStatus.step_failure(times[-1]) and 0.5 - 1e-14 < times[-1] < 0.5
    assert toward_edge.stats.accepted == 53 and toward_edge.stats.h_min < 1e-14
    assert len(times) == len(toward_edge.trajectory.points) == kept
    assert np.all(np.diff(times) > 0.0)
    assert away.status.is_complete


def test_square_dimension_check():
    m = registry_get("projection2to1")
    with pytest.raises(DimensionMismatch):
        lift_line_square(m, [0.0, 0.0], [1.0])


def test_horizontal_projection_moves_base_coordinate_only():
    m = registry_get("projection2to1")
    out = lift_line_horizontal(m, [0.5, 3.0], [-0.5])
    assert out.status.is_complete
    assert np.allclose(out.trajectory.points[-1], [0.0, 3.0], atol=1e-9)
    # kernel coordinate never moves
    assert np.max(np.abs(out.trajectory.points[:, 1] - 3.0)) <= 1e-12


def test_horizontal_velocity_is_minimum_norm():
    m = registry_get("parabola_sub")
    out = lift_line_horizontal(m, [0.0, 1.0], [0.05])
    traj = out.trajectory
    step = traj.points[1] - traj.points[0]
    # at (0,1) the row Jacobian is [1, -2]; the min-norm direction is J^T/|J|^2
    want = np.array([1.0, -2.0]) / 5.0
    assert np.allclose(step / np.linalg.norm(step), want / np.linalg.norm(want), atol=1e-4)


def test_horizontal_dimension_check():
    tall = MapModel(name="embed", n=1, m=2, eval_fn=lambda x: np.array([x[0], x[0]]))
    with pytest.raises(DimensionMismatch):
        lift_line_horizontal(tall, [0.0], [1.0, 1.0])


def test_lift_fidelity_bound():
    cases = [
        ("monotone1d", [0.0], [3.0]),
        ("arctan1d", [0.0], [0.7]),
        ("complex_exp", [0.0, 0.0], [-1.0, 1.0]),
    ]
    for name, x0, w in cases:
        m = registry_get(name)
        out = lift_line_square(m, x0, w)
        assert out.status.is_complete, name
        bound = 10.0 * 1e-9 * np.linalg.norm(w)
        assert out.max_drift <= bound, name


def test_length_times_min_mu_bound():
    for name, x0, w in [
        ("monotone1d", [0.0], [3.0]),
        ("complex_exp", [0.0, 0.0], [1.0, 1.5]),
        ("parabola_sub", [0.0, 0.5], [1.0]),
    ]:
        m = registry_get(name)
        lift = lift_line_square if m.n == m.m else lift_line_horizontal
        out = lift(m, x0, w)
        assert out.status.is_complete
        lhs = out.trajectory.length * float(np.min(out.trajectory.mu_values))
        assert lhs <= np.linalg.norm(w) * (1.0 + 1e-6)


def test_lift_stats_count_the_work():
    m = registry_get("monotone1d")
    out = lift_line_square(m, [0.0], [5.0])
    st = out.stats
    assert st.accepted == out.trajectory.times.size - 1
    assert st.rejected_singular == st.rejected_nonfinite == 0
    # f, J and its SVD at x0 and the first step's probe f, then one of each
    # per corrector round: 13 rounds over 4 attempts (each of one to four)
    assert (st.accepted, st.rejected_error) == (4, 0)
    assert st.evals - 1 == st.jacobians == st.svds == 13
    steps = np.diff(out.trajectory.times)
    assert st.h_min == pytest.approx(float(np.min(steps)), rel=1e-12)


def _blind_step(model, x0, w) -> float:
    """The first step a lane would take without its probe:
    min(0.2, 0.01 (1 + |x0|) / (1 + |k1|)), with k1 = J(x0)^-1 w."""
    k1 = np.linalg.solve(maps.jacobian(model, x0), w)
    return min(0.2, 0.01 * (1.0 + np.linalg.norm(x0)) / (1.0 + np.linalg.norm(k1)))


@pytest.mark.parametrize("model, x0", [
    (registry_get("identity_3"), [0.0, 1.0, 0.0]),
    (linear_map([[2.0, 1.0], [0.0, 0.5]]), [0.0, 0.0]),
], ids=["identity_3", "linear"])
def test_a_linear_lane_takes_the_largest_first_step(model, x0):
    """On a linear map the Euler point lies on the line, so the probe
    measures no predictor error beyond rounding and the first step is the
    clip's top, _GROW^2 times the blind step: a lane toward a unit target
    completes in at most 3 attempts (the blind step, grown fivefold per
    step, took 5)."""
    w = np.ones(model.m) / math.sqrt(model.m)
    out = lift_line_square(model, x0, w)
    assert out.status == LiftStatus.complete(1.0)
    top = lifting._GROW ** 2 * _blind_step(model, x0, w)
    assert top < 1.0 and out.trajectory.times[1] == pytest.approx(top, rel=1e-12)
    st = out.stats
    assert st.accepted + st.rejected_error + st.rejected_singular + st.rejected_nonfinite <= 3


def test_a_far_solve_takes_its_first_attempt(monkeypatch):
    """complex_exp from 0 toward y = (-100, 5), |w| about 101: the probe
    sizes the first step at some 20 blind steps, past the first growth the
    controller would make, and the first attempt takes it.  solve lifts
    one row, so the lane is a _LineLane; its attempts are numbered by the
    steps and rejections it counted before each."""
    made, rejected, attempt, reject = [], [], lifting._LineLane.attempt, lifting._LineLane.reject

    def spy_attempt(self):
        made.append(self.accepted + sum(self.rejected) + 1)
        return attempt(self)

    def spy_reject(self, *args, **kwargs):
        rejected.append(made[-1])
        return reject(self, *args, **kwargs)

    monkeypatch.setattr(lifting._LineLane, "attempt", spy_attempt)
    monkeypatch.setattr(lifting._LineLane, "reject", spy_reject)
    model = registry_get("complex_exp")
    rep = solve(model, [-100.0, 5.0], x_seed=[0.0, 0.0])
    assert rep.solution is not None and rep.outcome.status.is_complete
    h_a = _blind_step(model, [0.0, 0.0], np.array([-100.0, 5.0]) - evaluate(model, [0.0, 0.0]))
    assert rep.outcome.trajectory.times[1] > lifting._GROW * h_a
    st = rep.outcome.stats
    assert made == list(range(1, st.accepted + st.rejected_error + 1)) and 1 not in rejected


def test_the_probe_is_one_stack_counted_in_evals(monkeypatch):
    """start evaluates f once, as one stack, at the Euler points x0 + h_a k1
    of the lanes that run (not at a w = 0 lane), and each of those lanes
    counts that f in its evals: one more than its Jacobians."""
    stacks, evaluate_stack = [], lifting._evaluate_stack

    def spy(model, X):
        stacks.append(X.copy())
        return evaluate_stack(model, X)

    monkeypatch.setattr(lifting, "_evaluate_stack", spy)
    model, W = registry_get("complex_exp"), np.array([[0.5, 0.2], [0.0, 0.0], [-0.9, 0.0]])
    outs = lift_lines(model, [0.0, 0.0], W)
    k1 = W[[0, 2]]  # J(0) = I
    h_a = np.array([_blind_step(model, [0.0, 0.0], w) for w in k1])
    assert np.allclose(stacks[0], h_a[:, None] * k1, rtol=1e-15, atol=0.0)
    assert [o.stats.evals - o.stats.jacobians for o in outs] == [1, 0, 1]
    assert outs[1].stats == LiftStats(evals=1, jacobians=1, svds=1)


def test_the_first_step_ends_inside_the_escape_ball():
    """identity_1 from 10 by w = 1: the blind step is 0.055, so the clip's
    top is 1, one step to the end of the line.  Under r_escape = 0.5 the
    first step stops at r_escape / |k1| = 0.5, on the sphere, and the lane
    leaves the ball on a later step."""
    model = registry_get("identity_1")
    free = lift_line_square(model, [10.0], [1.0])
    assert free.trajectory.times.tolist() == [0.0, 1.0] and free.status.is_complete
    out = lift_line_square(model, [10.0], [1.0], LiftOptions(r_escape=0.5))
    assert out.trajectory.times[1] == 0.5 and out.trajectory.points[1][0] == 10.5
    assert out.status.kind == "Escaped" and out.status.distance > 0.5


def test_exp_toward_the_edge_takes_every_step_it_tries():
    """exp1d from 0 toward 3e-4 nears its singular edge (mu = e^x falls to
    3e-4): the step aimed at a fourth round's correction leaves room for
    the corrector there, so no attempt is rejected for its error (a budget
    of three rounds took, took and rejected, 11 times in 36 attempts)."""
    out = lift_line_square(registry_get("exp1d"), [0.0], [3e-4 - 1.0])
    assert out.status == LiftStatus.complete(1.0)
    assert out.stats.rejected_error == 0 and out.stats.accepted == 13


def test_lift_stats_rejections_by_cause():
    # mu = 1 / (1 + x^2) is concave in t near the floor 0.9, so the secant's
    # floor crossing overshoots it and some corrector points fall below
    edge = lift_line_square(registry_get("arctan1d"), [0.0], [2.0], LiftOptions(mu_floor=0.9))
    assert edge.status.kind == "Singular"
    assert edge.stats.rejected_singular > 0
    # e^x overflows at a predictor point of a lift that ends just below
    # log(max float), at the closed-form inverse to the lift's tolerances:
    # its residual within complete_tol, its distance within x_tol (the
    # bound on the Newton correction at a point taken)
    opts = LiftOptions(r_escape=None)
    over = lift_line_square(registry_get("exp1d"), [705.0], [1.7e308], opts)
    y = math.exp(705.0) + 1.7e308
    want, x = math.log(y), over.trajectory.points[-1][0]
    assert over.status == LiftStatus.complete(1.0)
    assert abs(math.exp(x) - y) <= 10.0 * opts.rel_tol * 1.7e308 + 100.0 * opts.abs_tol
    assert abs(x - want) <= 10.0 * opts.rel_tol * want + 100.0 * opts.abs_tol
    assert over.stats.rejected_nonfinite == 1
    # no Jacobian at the first step's probe (where f overflowed too) nor
    # where f overflowed in an attempt
    assert over.stats.jacobians == over.stats.evals - 2
    zero = lift_line_square(registry_get("identity_1"), [2.0], [0.0])
    assert zero.stats == LiftStats(evals=1, jacobians=1, svds=1)


def _assert_floor_stop(model, out, w, opts, t_star):
    """out stopped Singular at its last point taken, within x_tol / |k1|
    of the closed-form floor crossing t_star (x_tol and the slope
    k1 = J^-1 w at that point), with mu in [mu_floor, 2 mu_floor)."""
    x = out.trajectory.points[-1]
    assert out.status.kind == "Singular" and out.status.t == out.trajectory.times[-1]
    assert opts.mu_floor <= out.status.mu < 2.0 * opts.mu_floor
    x_tol = 10.0 * opts.rel_tol * max(np.linalg.norm(x), 1.0) + 100.0 * opts.abs_tol
    k1 = np.linalg.solve(maps.jacobian(model, x), w)
    assert abs(out.status.t - t_star) <= x_tol / np.linalg.norm(k1), (out.status.t, t_star)


@pytest.mark.parametrize("floor", [1e-8, 0.9])
def test_arctan_edge_lane_stops_at_the_floor_crossing(floor):
    """arctan1d from 0 toward 2: mu = 1 / (1 + x^2) meets the floor where
    tan(2 t) = sqrt(1 / floor - 1), and the lane stops there."""
    model, opts, w = registry_get("arctan1d"), LiftOptions(mu_floor=floor), np.array([2.0])
    out = lift_line_square(model, [0.0], w, opts)
    _assert_floor_stop(model, out, w, opts, math.atan(math.sqrt(1.0 / floor - 1.0)) / 2.0)


def test_huge_target_completes_without_overflow():
    """complex_exp from (0, 0) by w = (0, 1e308): the lift reaches the
    closed-form inverse (log 1e308, pi/2) and no operation overflows.
    Dormand-Prince formed its stage sums before multiplying by the step
    (1e308 slopes summed) and ended StepFailure at t = 0 with no step."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = lift_line_square(registry_get("complex_exp"), [0.0, 0.0], [0.0, 1e308])
    want = np.array([math.log(1e308), math.pi / 2])
    assert out.status == LiftStatus.complete(1.0)
    assert np.linalg.norm(out.trajectory.points[-1] - want) <= 1e-6 * (1.0 + np.linalg.norm(want))


def _inverse(name: str, x0: np.ndarray, y: np.ndarray):
    """The end point of the lift of the segment from f(x0) to y, in closed
    form, or None when y lies outside the image.  For complex_exp it is the
    branch continued along the segment: x0 + (log |y / f(x0)|, the signed
    angle from f(x0) to y)."""
    if name == "complex_exp":
        f0 = np.exp(x0[0]) * np.array([np.cos(x0[1]), np.sin(x0[1])])
        angle = math.atan2(f0[0] * y[1] - f0[1] * y[0], f0 @ y)
        return x0 + np.array([math.log(np.linalg.norm(y) / np.linalg.norm(f0)), angle])
    if name == "arctan1d":
        return np.tan(y) if abs(y[0]) < math.pi / 2 else None
    if name == "exp1d":
        return np.log(y) if y[0] > 0.0 else None
    return np.sinh(y)  # asinh1d


@pytest.mark.parametrize("name", ["complex_exp", "arctan1d", "exp1d", "asinh1d"])
def test_complete_lifts_end_at_the_closed_form_inverse(name):
    """50 random square lifts per map, from 5 base points, with |w| up to 30
    (most of them short): a Complete lift ends within 1e-6 (1 + |x|) of the
    closed-form inverse (for complex_exp, on the branch continued along the
    segment, so a jump to another sheet fails), and a target outside the
    image never reads Complete."""
    model, opts = registry_get(name), LiftOptions()
    rng = np.random.default_rng(20)
    complete = 0
    for _ in range(5):
        x0 = rng.uniform(-1.5, 1.5, model.n)
        dirs = rng.normal(size=(10, model.m))
        W = 30.0 * rng.uniform(size=(10, 1)) ** 3 * dirs / np.linalg.norm(dirs, axis=1)[:, None]
        f0 = evaluate(model, x0)
        for w, out in zip(W, lift_lines(model, x0, W, opts)):
            want = _inverse(name, x0, f0 + w)
            if want is None:
                assert not out.status.is_complete, w
                continue
            if not out.status.is_complete:
                continue
            complete += 1
            x = out.trajectory.points[-1]
            assert np.linalg.norm(x - want) <= 1e-6 * (1.0 + np.linalg.norm(want)), w
    assert complete >= 15


@pytest.mark.parametrize("lift", [
    lambda m, w: lift_line_square(m, [0.0], w),
    lambda m, w: lift_lines(m, [0.0], [w, [1.0]])[0],
], ids=["single", "lockstep"])
def test_bad_first_velocity_ends_the_lift(lift):
    # J(x0) = 1e-4 is above the mu floor, but the slope 1e305 / 1e-4 overflows
    out = lift(linear_map([[1e-4]]), [1e305])
    assert out.status == LiftStatus.step_failure(0.0)
    assert out.trajectory.times.tolist() == [0.0]
    assert out.stats.accepted == 0


# the lift of w alone, and the first lane of a two-lane lift_lines call
ENTRY_POINTS = {
    "single": lambda m, x0, w, opts=None: lift_line_square(m, x0, w, opts),
    "lockstep": lambda m, x0, w, opts=None: lift_lines(m, x0, [w, np.ones(m.m)], opts)[0],
}


@pytest.mark.parametrize("mu_floor", [1e-8, 0.0])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_singular_base_point_stops_at_zero(entry, mu_floor):
    # mu(x0) = 0 sits below the default floor; with floor 0 the first
    # velocity finds the zero singular value instead
    m = linear_map([[1.0, 0.0], [0.0, 0.0]])
    out = ENTRY_POINTS[entry](m, [0.0, 0.0], [1.0, 1.0], LiftOptions(mu_floor=mu_floor))
    assert out.status == LiftStatus.singular(0.0, 0.0)
    assert out.trajectory.times.tolist() == [0.0]
    assert out.stats == LiftStats(evals=1, jacobians=1, svds=1)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_finite_base_jacobian_raises(entry):
    m = MapModel(name="nan_jac", n=1, m=1, eval_fn=lambda x: x.copy(),
                 jac_fn=lambda x: np.full((1, 1), np.nan))
    with pytest.raises(NonFinite, match=r"^jacobian\(nan_jac\): non-finite derivative"):
        ENTRY_POINTS[entry](m, [0.0], [1.0])


def _floor_step():
    """x + 0.01 floor(x) with the Jacobian of x: the values jump by 0.01 at
    every integer while the Jacobian says nothing of it."""
    return MapModel(name="floor_step", n=1, m=1, eval_fn=lambda x: x + 0.01 * np.floor(x),
                    jac_fn=lambda x: np.ones((1, 1)))


def _nan_beyond_one():
    """The identity up to x = 1 and NaN beyond, with a finite Jacobian everywhere."""
    return MapModel(name="nan_beyond_one", n=1, m=1,
                    eval_fn=lambda x: x.copy() if x[0] <= 1.0 else np.full(1, np.nan),
                    jac_fn=lambda x: np.ones((1, 1)))


def _raises_beyond_one(jac: bool = True):
    """The identity up to x = 1; beyond it the map itself raises NonFinite.
    Without jac, the Jacobian is the finite difference, which meets the
    raise in its own evaluations."""
    def f(x):
        if x[0] > 1.0:
            raise NonFinite("outside the domain")
        return x.copy()
    return MapModel(name="raises_beyond_one", n=1, m=1, eval_fn=f,
                    jac_fn=(lambda x: np.ones((1, 1))) if jac else None)


def _jacobian_raises_beyond_one():
    """The identity, whose Jacobian raises NonFinite beyond x = 1."""
    def jac(x):
        if x[0] > 1.0:
            raise NonFinite("outside the domain")
        return np.ones((1, 1))
    return MapModel(name="jacobian_raises_beyond_one", n=1, m=1, eval_fn=lambda x: x.copy(),
                    jac_fn=jac)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_jump_of_the_map_is_stepped_over(entry):
    """The corrector takes points on the line: on a map that jumps by 0.01
    at every integer, the lift toward 4 (q(t) = 4t meets the jump at
    x = 1) steps over the targets in [1, 1.01), which no point reaches, and
    completes at f^-1(4) = 3.97 with every accepted point on its line (to
    the rounding of the Hermite predictor's sum, far inside complete_tol).
    The lift toward -4 meets the jump at x = 0 at once: its first target
    has no point, and its step collapses before any step is taken."""
    up = ENTRY_POINTS[entry](_floor_step(), [0.0], [4.0])
    assert up.status == LiftStatus.complete(1.0) and up.max_drift <= 1e-15
    assert up.trajectory.points[-1][0] == pytest.approx(3.97, rel=1e-12)
    down = ENTRY_POINTS[entry](_floor_step(), [0.0], [-4.0])
    assert down.status == LiftStatus.step_failure(0.0) and down.stats.accepted == 0


def test_a_probe_without_a_finite_error_keeps_the_blind_step():
    """A map whose second value leaps by 1e305 for x1 > 0, where J says
    nothing of it: the probe's residual (0, 1e305) through J(x0)^+ =
    diag(1, 1e8) is past the float limit, so its error is NaN and the lane
    keeps the blind step h_a; every attempt is rejected, and the step
    collapses after the 47 halvings from h_a to _H_MIN h_a (52 from the
    clip's top, 25 h_a)."""
    cliff = MapModel(name="cliff", n=2, m=2,
                     eval_fn=lambda x: np.array([x[0], 1e-8 * x[1] + (1e305 if x[0] > 0.0 else 0.0)]),
                     jac_fn=lambda x: np.diag([1.0, 1e-8]))
    out = lift_line_square(cliff, [0.0, 0.0], [1.0, 0.0])
    assert out.status == LiftStatus.step_failure(0.0)
    halvings = math.ceil(-math.log2(lifting._H_MIN))
    assert halvings == 47 and out.stats.accepted == 0 and out.stats.rejected_error == halvings


@pytest.mark.parametrize("model", [_raises_beyond_one(jac=False), _jacobian_raises_beyond_one()],
                         ids=["finite_difference", "jac_fn"])
def test_map_raising_non_finite_rejects_the_step(model):
    """A map that raises NonFinite beyond x = 1 rejects the steps past it,
    in one-row and two-row calls alike; neither call raises."""
    (beyond,) = lift_lines(model, [0.0], [[2.0]])
    (inside,) = lift_lines(model, [0.0], [[0.5]])
    assert beyond.status.kind == "StepFailure"
    # the finite difference meets the raise a stencil step before x = 1
    assert beyond.status.t == pytest.approx(0.5, abs=1e-5)
    assert beyond.stats.rejected_nonfinite > 0
    assert inside.status == LiftStatus.complete(1.0)
    both = lift_lines(model, [0.0], [[2.0], [0.5]])
    assert [o.status for o in both] == [beyond.status, inside.status]
    assert [o.stats for o in both] == [beyond.stats, inside.stats]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_finite_value_rejects_the_step(entry):
    # q(t) = 2t leaves the finite part at t = 0.5; every step beyond is rejected
    out = ENTRY_POINTS[entry](_nan_beyond_one(), [0.0], [2.0])
    assert out.status.kind == "StepFailure"
    assert out.status.t == pytest.approx(0.5, abs=1e-9)
    assert out.stats.rejected_nonfinite > 0
    # f(x0), the first step's probe, then one f per attempt (each takes its
    # step in its first round or leaves on its non-finite f)
    assert out.stats.evals == 2 + out.stats.accepted + out.stats.rejected_nonfinite


def test_a_trial_point_past_the_float_limit_rejects_the_step():
    """identity_1 from 1e308 by w = 1e308: q(t) = 1e308 (1 + t) passes the
    largest float at t* = (max - 1e308) / 1e308, so every predictor point
    beyond it is infinite and leaves before any f is taken (nonfinite).
    The lane stops StepFailure short of t*, within x_tol of it in x."""
    opts = LiftOptions(r_escape=1.7e308)
    out = lift_line_square(registry_get("identity_1"), [1e308], [1e308], opts)
    big = np.finfo(float).max
    t_star = (big - 1e308) / 1e308
    x_tol = 10.0 * opts.rel_tol * big + 100.0 * opts.abs_tol
    assert out.status.kind == "StepFailure"
    assert out.status.t <= t_star and (t_star - out.status.t) * 1e308 <= x_tol
    assert out.stats.rejected_nonfinite > 0
    # an infinite trial point takes no f: f(x0), the first step's probe and
    # one f per attempt that reached a corrector round
    assert out.stats.evals < 2 + out.stats.accepted + out.stats.rejected_nonfinite


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_step_halved_to_zero_stops_step_failure(entry):
    """From x0 = 1, the end of the finite part, every step toward w = 1e308
    lands in the NaN and is halved, down to 0 (the first step is already
    subnormal): the lift stops StepFailure at t = 0 without taking a step,
    where it took a step of length 0 and read Singular."""
    out = ENTRY_POINTS[entry](_nan_beyond_one(), [1.0], [1e308])
    assert out.status == LiftStatus.step_failure(0.0)
    assert out.stats.accepted == 0 and out.stats.rejected_nonfinite > 0
    assert out.trajectory.times.tolist() == [0.0]


def test_gradient_flow_rejects_a_non_finite_target():
    m = linear_map([[1.0], [2.0]])
    with pytest.raises(NonFinite):
        gradient_flow(m, [0.0], [np.nan, 0.0])


@pytest.mark.parametrize("name, x0, y, max_steps, verdict", [
    # residual at root scale (the flow judges its first window at step 2)
    ("identity_1", [1e-9], [0.0], 1, "converged"),
    # F nears its infimum 1/2 below the image of e^x, and the gradient has
    # fallen under the PS tolerance (the flow reads ps_candidate at step 14)
    ("exp1d", [0.0], [-1.0], 10, "ps_candidate"),
    # neither: the flow is still on its way to the root x = 0 (step 9)
    ("monotone1d", [5.0], [0.0], 1, "undecided"),
])
def test_gradient_flow_verdict_when_the_budget_runs_out(name, x0, y, max_steps, verdict):
    out, got = gradient_flow(registry_get(name), x0, y, LiftOptions(max_steps=max_steps))
    assert out.status.kind == "StepFailure"
    assert out.stats.accepted == max_steps
    assert got.kind == verdict


def test_gradient_flow_stats():
    out, _ = gradient_flow(registry_get("complex_exp"), np.array([-2.0, -2.0]), np.array([3.0, 4.0]))
    st = out.stats
    assert st.accepted == out.trajectory.times.size - 1
    # f at x0 and at every trial point (each finite here); J and its SVD at
    # x0 and at every point taken: an attempt the gain test rejects takes none
    assert st.evals == 1 + st.accepted + st.rejected_error
    assert st.rejected_error > 0 and st.jacobians == st.svds == 1 + st.accepted


@pytest.mark.parametrize("stride", [1, 2, 3, 7])
def test_gradient_flow_keeps_its_final_point_at_every_stride(stride):
    """A flow of 9 steps keeps its last point whether or not the stride
    records step 9 (stride 3 does, 2 and 7 do not): solve reads its
    candidate off the trajectory's last point."""
    m, x0, y = linear_map([[1.0], [2.0]]), [0.0], [0.7, 1.4]
    full, _ = gradient_flow(m, x0, y, LiftOptions(record_stride=1))
    out, _ = gradient_flow(m, x0, y, LiftOptions(record_stride=stride))
    assert full.status.is_complete and full.stats.accepted == 9
    assert out.trajectory.times[-1] == out.status.t == full.status.t
    assert np.array_equal(out.trajectory.points[-1], full.trajectory.points[-1])
    assert out.stats == full.stats


def test_gradient_flow_rejects_a_step_that_raises_F():
    """A step is taken only when F falls by a share of the predicted fall,
    so the recorded F is nonincreasing, at loose tolerances too."""
    A, y = np.array([[1.0], [2.0]]), np.array([1.0, -1.0])
    out, verdict = gradient_flow(linear_map(A), [5.0], y, LiftOptions(rel_tol=0.01, abs_tol=0.01))
    assert verdict.kind == "converged"
    assert out.trajectory.points[-1][0] == pytest.approx(-0.2, abs=1e-6)
    F = 0.5 * np.sum((out.trajectory.points @ A.T - y) ** 2, axis=1)
    assert np.all(F[1:] <= F[:-1] + 1e-12 * (1.0 + F[:-1]))


def test_gradient_flow_crosses_a_stiff_map_in_few_steps():
    """A linear map with singular values 2.42, 1.10 and 0.0074: each
    linearly implicit step is stable at any size, so the flow reaches the
    root within 50 steps (an explicit integrator spent its 20,000-step
    budget here and read StepFailure)."""
    A = np.diag([2.42, 1.10, 0.0074])
    y = np.array([1.0, 1.0, 1.0])
    out, verdict = gradient_flow(linear_map(A), [0.0, 0.0, 0.0], y, LiftOptions(max_steps=50))
    assert verdict.kind == "converged" and out.status.kind == "Complete"
    assert out.stats.accepted <= 50
    assert np.linalg.norm(A @ out.trajectory.points[-1] - y) <= 1e-8


def test_gradient_flow_below_the_asymptote_is_ps():
    """arctan x never reaches 1.6: F plateaus at (1.6 - pi/2)^2 / 2 =
    4.27e-4 while x runs off.  The plateau is judged before the escape
    stop, so the flow reads ps_candidate, not diverged."""
    out, verdict = gradient_flow(registry_get("arctan1d"), [0.0], [1.6])
    assert verdict.kind == "ps_candidate" and out.status.kind == "Escaped"
    assert verdict.level == pytest.approx(0.5 * (1.6 - np.pi / 2) ** 2, rel=1e-3)


def test_gradient_flow_judges_the_window_before_the_escape_stop():
    """Toward y = 2 the window that reads ps_candidate closes at x = 141081.7;
    with the escape radius just below it, the same step leaves the ball,
    and the window's verdict stands."""
    opts = LiftOptions(r_escape=1.4e5)
    out, verdict = gradient_flow(registry_get("arctan1d"), [0.0], [2.0], opts)
    assert verdict.kind == "ps_candidate"
    assert out.trajectory.points[-1][0] > opts.r_escape


@pytest.mark.parametrize("scale", [1.0, 1e5 / 3])
def test_gradient_flow_converges_at_the_least_squares_minimiser(scale):
    """y = (3, 5) scale is off the image of x -> (x, 2x); F has its least
    value 0.1 scale^2 at x = 2.6 scale, where grad F vanishes but r does not:
    a critical point, which reads converged, not ps_candidate.  At scale
    1e5 / 3 the rounding of grad F there is about 1e-11, above abs_tol, and
    within 1e-9 |J| |r|."""
    out, verdict = gradient_flow(linear_map([[1.0], [2.0]]), [0.0], [3.0 * scale, 5.0 * scale])
    assert verdict.kind == "converged" and out.status.kind == "Complete"
    assert out.stats.accepted <= 50
    assert verdict.level == pytest.approx(0.1 * scale ** 2, rel=1e-12)
    assert out.trajectory.points[-1][0] == pytest.approx(2.6 * scale, rel=1e-10)


@st.composite
def _linear_flow(draw):
    """A linear map A with singular values from 1 down to 1/cond (cond up
    to 1e4), the target y and the least-squares minimiser x*: square
    (y = A x*), consistent overdetermined (y = A x*) or inconsistent
    overdetermined (y = A x* plus a part orthogonal to the range of A), and
    a start point x0."""
    kind = draw(st.sampled_from(["square", "consistent", "inconsistent"]))
    n = draw(st.integers(1, 3))
    m = n if kind == "square" else draw(st.integers(n + 1, 4))
    cond = 10.0 ** draw(st.floats(0.0, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Q1, _ = np.linalg.qr(rng.normal(size=(m, m)))
    Q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    A = Q1[:, :n] @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ Q2.T
    d = rng.normal(size=n)
    x_star = d / np.linalg.norm(d) * 10.0 ** draw(st.floats(-3.0, 2.0))
    y = A @ x_star
    if kind == "inconsistent":
        y = y + Q1[:, n] * 10.0 ** draw(st.floats(-2.0, 1.0))
    return A, cond, y, x_star, rng.normal(size=n)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(_linear_flow())
def test_linear_flows_converge_at_the_least_squares_minimiser(flow):
    """Every linear flow reads converged at the least-squares minimiser x*:
    within res_tol / sigma_min = cond res_tol of it, the distance a residual
    at root scale allows, after at most 50 steps."""
    A, cond, y, x_star, x0 = flow
    out, verdict = gradient_flow(linear_map(A), x0, y)
    assert verdict.kind == "converged" and out.status.kind == "Complete"
    assert out.stats.accepted <= 50
    res_tol = 10.0 * 1e-9 * max(np.linalg.norm(y), 1.0) + 100.0 * 1e-12
    assert np.linalg.norm(out.trajectory.points[-1] - x_star) <= cond * res_tol


def _half_line(beyond: str):
    """x -> (x, 2x) up to x = 1; beyond it the first value is NaN ("nan"),
    the map raises NonFinite ("raises"), the Jacobian is NaN ("jac") or
    the values are 1e200 times larger, so F overflows ("huge")."""
    def f(x):
        if x[0] < 1.0 or beyond == "jac":
            return np.array([x[0], 2.0 * x[0]])
        if beyond == "raises":
            raise NonFinite("outside the domain")
        return np.array([np.nan, 2.0 * x[0]]) if beyond == "nan" else np.array([x[0], 2.0 * x[0]]) * 1e200

    def jac(x):
        return np.array([[1.0 if x[0] < 1.0 or beyond != "jac" else np.nan], [2.0]])
    return MapModel(name=f"half_line_{beyond}", n=1, m=2, eval_fn=f, jac_fn=jac)


_HALF_LINE_STOP = (LiftStatus.step_failure(0.0856285454766112),
                   FlowVerdict("undecided", 10.000000000002128, 10.000000000001064), [0.9999999999997873])


@pytest.mark.parametrize("label, model, x0, y, opts, stats, status, verdict, x_end", [
    ("monotone1d", registry_get("monotone1d"), [2.0], [0.0], None,
     LiftStats(9, 0, 0, 0, 10, 10, 10, 0.010190558120949616), LiftStatus.complete(890.4611591666983),
     FlowVerdict("converged", 4.997916087563411e-21, 1.4996873805575397e-10), [6.665277246922399e-11]),
    ("arctan1d", registry_get("arctan1d"), [0.0], [2.0], None,
     LiftStats(30, 0, 0, 0, 31, 31, 31, 0.0033333333333333335),
     LiftStatus.escaped(1281023894007607.8, 141081.65468688754),
     FlowVerdict("ps_candidate", 0.09211093880738637, 2.1564009416645677e-11), [141081.65468688754]),
    ("exp1d", registry_get("exp1d"), [0.0], [-1.0], None,
     LiftStats(14, 0, 0, 0, 15, 15, 15, 0.0033333333333333335),
     LiftStatus.escaped(298261.6166666667, 13.377715014770281),
     FlowVerdict("ps_candidate", 0.5000015492893126, 1.549290512829759e-06), [-13.377715014770281]),
    ("complex_exp", registry_get("complex_exp"), [0.0, 0.0], [3.0, 4.0], None,
     LiftStats(9, 0, 0, 0, 10, 10, 10, 0.001827439976315568), LiftStatus.complete(159.68353257043066),
     FlowVerdict("converged", 1.5026132919919412e-18, 8.667794677298049e-09), [1.6094379122224645, 0.927295218276238]),
    ("parabola_sub", registry_get("parabola_sub"), [0.0, 0.5], [1.2], None,
     LiftStats(10, 0, 0, 0, 11, 11, 11, 0.0049170499162604735), LiftStatus.complete(1718.631871980942),
     FlowVerdict("converged", 3.759482951881201e-21, 8.672112213771005e-11),
     [1.2000527705030717, 0.007264336844042616]),
    ("linear_loose", linear_map([[1.0], [2.0]]), [5.0], [1.0, -1.0], LiftOptions(rel_tol=0.01, abs_tol=0.01),
     LiftStats(10, 0, 0, 0, 11, 11, 11, 0.0022222222222222222), LiftStatus.complete(776.7222222222222),
     FlowVerdict("converged", 0.8999999999999999, 1.4193206312763672e-11), [-0.1999999999971614]),
    # f is taken at every finite trial point, J and its SVD only where the
    # gain test passed: a NaN value or a raise rejects before J, and so does
    # an F that overflows; a NaN Jacobian rejects after it, before the SVD.
    # Beyond x = 1 every trial fails, the step collapses and the flow, with
    # neither root nor small gradient, reads undecided
    ("nan_value", _half_line("nan"), [0.0], [3.0, 6.0], None,
     LiftStats(29, 0, 0, 47, 77, 30, 30, 3.6379788070917137e-14), *_HALF_LINE_STOP),
    ("raises", _half_line("raises"), [0.0], [3.0, 6.0], None,
     LiftStats(29, 0, 0, 47, 77, 30, 30, 3.6379788070917137e-14), *_HALF_LINE_STOP),
    ("nan_jacobian", _half_line("jac"), [0.0], [3.0, 6.0], None,
     LiftStats(29, 0, 0, 47, 77, 77, 30, 3.6379788070917137e-14), *_HALF_LINE_STOP),
    ("energy_overflow", _half_line("huge"), [0.0], [3.0, 6.0], None,
     LiftStats(29, 0, 0, 47, 77, 30, 30, 3.6379788070917137e-14), *_HALF_LINE_STOP),
])
def test_gradient_flow_pinned(label, model, x0, y, opts, stats, status, verdict, x_end):
    """Exact LiftStats, status, verdict and end point of flows, rejected
    non-finite trial points included."""
    out, got = gradient_flow(model, x0, y, opts)
    assert out.stats == stats
    assert out.status == status
    assert got == verdict
    assert out.trajectory.points[-1].tolist() == x_end


@pytest.mark.parametrize("name, x0, y", [
    ("identity_2", [0.0, 0.0], [1e300, 1e300]),
    ("identity_2", [1.0, -2.0], [-6e307, 6e307]),
    ("identity_2", [0.0, 0.0], [1e160, -1e160]),
    ("linear_tall", [0.0], [1e300, 2e300]),
    ("linear_tall", [0.0], [1e200, 3e200]),  # off the image: x* = 1.4e200
])
def test_gradient_flow_toward_a_far_target_converges(name, x0, y):
    """F = |r|^2 / 2 overflows at x0 when |r(x0)| is past about 1.3e154:
    the flow holds F, its predicted fall and its rounding term in units of
    a power of two fixed at x0, so it converges at the least-squares
    minimiser x* (the root, where there is one), as the lift does, and
    reports its residual and level unscaled: the level is |r|^2 / 2 at
    its end, None where that is past the largest float."""
    model = linear_map([[1.0], [2.0]]) if name == "linear_tall" else registry_get(name)
    out, verdict = gradient_flow(model, x0, y, LiftOptions(r_escape=1e308))
    assert verdict.kind == "converged" and out.status.kind == "Complete"
    A = maps.jacobian(model, x0)
    x_star = np.linalg.lstsq(A, np.asarray(y), rcond=None)[0]
    assert np.all(np.abs(out.trajectory.points[-1] - x_star) <= 1e-8 * np.abs(x_star))
    residual = out.target_residual
    with np.errstate(over="ignore"):  # an overflowed norm is rescaled
        assert residual == pytest.approx(maps._norms(A @ out.trajectory.points[-1] - y), rel=1e-6)
    level = 0.5 * residual * residual
    assert verdict.level == (None if level == math.inf else pytest.approx(level, rel=1e-12))
    assert 0.0 < verdict.grad_norm < math.inf


def test_gradient_flow_does_not_depend_on_the_jacobian_layout():
    """grad F = J^T r is one stacked product whatever the memory order of
    the Jacobian a map returns; a Fortran-ordered J (as the finite
    difference builds it) once took another BLAS path and other bits."""
    A = np.random.default_rng(3).normal(size=(3, 3))

    def model(order):
        return MapModel(name=f"cubic_{order}", n=3, m=3, eval_fn=lambda x: A @ x + 0.1 * (A @ x) ** 3,
                        jac_fn=lambda x: np.asarray((1.0 + 0.3 * (A @ x) ** 2)[:, None] * A, order=order))
    y = [1.0, -2.0, 0.5]
    c_out, c_verdict = gradient_flow(model("C"), [0.0, 0.0, 0.0], y, LiftOptions(max_steps=300))
    f_out, f_verdict = gradient_flow(model("F"), [0.0, 0.0, 0.0], y, LiftOptions(max_steps=300))
    assert c_out.stats == f_out.stats and c_out.status == f_out.status and c_verdict == f_verdict
    assert np.array_equal(c_out.trajectory.points, f_out.trajectory.points)


def test_flow_verdict_json():
    assert FlowVerdict("converged", level=0.0, grad_norm=1e-13).to_json_dict() == {
        "kind": "converged", "level": 0.0, "grad_norm": 1e-13,
    }
    assert FlowVerdict("diverged").to_json_dict()["level"] is None


# ---------------------------------------------------------------------------
# lockstep lifting: every lane matches its one-lane call


def _fd_complex_exp():
    """complex_exp without an analytic Jacobian (finite-difference fallback)."""
    f = registry_get("complex_exp").eval_fn
    return MapModel(name="complex_exp_fd", n=2, m=2, eval_fn=f)


def _jacobian_off_x0(x0: float, value: float):
    """The identity map with Jacobian 1 at x0 and `value` everywhere else."""
    return MapModel(name="jacobian_off_x0", n=1, m=1, eval_fn=lambda x: x.copy(),
                    jac_fn=lambda x: np.full((1, 1), 1.0 if x[0] == x0 else value))


def _lane_targets(m: int, scale: float) -> np.ndarray:
    rng = np.random.default_rng(m)
    dirs = rng.normal(size=(5, m))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return np.vstack([scale * dirs, 3.0 * scale * dirs[:2], np.zeros((1, m))])


def _graves_case(label: str, name: str, x0: list, r: float, r_cert: float) -> tuple:
    """64 boundary targets at 0.99 rho(r_cert), lifted with r_escape = r, as
    graves_certificate's verification sweep lifts them when r_cert = r."""
    model = registry_get(name)
    rho = rho_of_r(mu_profile(model, x0, r_cert, 1024), r_cert)
    targets = _BOUNDARY_SCALE * rho * unit_sphere_points(model.m, 64, seed=5)
    return (label, model, x0, targets, LiftOptions(r_escape=r))


LOCKSTEP_CASES = [
    # (label, model, x0, targets, opts)
    ("identity_1", registry_get("identity_1"), [0.5], _lane_targets(1, 1.0), None),
    ("identity_2", registry_get("identity_2"), [0.0, 0.0], _lane_targets(2, 1.0), None),
    ("identity_3", registry_get("identity_3"), [0.0, 1.0, 0.0], _lane_targets(3, 1.0), None),
    ("linear", linear_map([[2.0, 1.0], [0.0, 0.5]]), [0.0, 0.0], _lane_targets(2, 1.0), None),
    ("monotone1d", registry_get("monotone1d"), [0.0], _lane_targets(1, 4.0), None),
    ("asinh1d", registry_get("asinh1d"), [0.0], _lane_targets(1, 3.0), None),
    ("complex_exp", registry_get("complex_exp"), [0.0, 0.0], _lane_targets(2, 0.9), None),
    ("projection2to1", registry_get("projection2to1"), [0.5, 3.0], _lane_targets(1, 1.0), None),
    ("parabola_sub", registry_get("parabola_sub"), [0.0, 0.5], _lane_targets(1, 1.5), None),
    # Singular beyond pi/2, Complete inside, w = 0
    ("arctan1d", registry_get("arctan1d"), [0.0], [[2.0], [-2.0], [0.7], [-1.5], [0.0]], None),
    # non-finite values where e^x overflows just below log(max float)
    ("exp1d", registry_get("exp1d"), [705.0], [[1.7e308], [1e308], [1e306], [0.0]],
     LiftOptions(r_escape=None)),
    # StepFailure once the step budget runs out
    ("budget", registry_get("monotone1d"), [0.0], [[40.0], [0.01], [-40.0]],
     LiftOptions(max_steps=4)),
    # Escaped lanes next to Complete ones
    ("escape", registry_get("complex_exp"), [0.0, 0.0], [[3.0, 0.0], [0.2, 0.1], [-0.5, 0.4]],
     LiftOptions(r_escape=0.5)),
    ("checkpoints_stride", registry_get("complex_exp"), [0.2, -0.1], _lane_targets(2, 0.8),
     LiftOptions(record_stride=3)),
    # lanes that end Complete, Escaped and StepFailure in different attempts,
    # after odd and even step counts, recorded at every second step: toward
    # (0.01, 0), 6 steps out, the lane leaves the ball; the one toward
    # (21, 0) needs 9 steps and has 7
    ("mixed_stops_stride", registry_get("complex_exp"), [0.0, 0.0],
     [[0.1, 0.0], [0.3, 0.2], [5.0, 0.0], [2.0, 1.5], [-0.9, 0.3], [-0.5, -0.8], [0.0, 2.5], [1.0, -3.0],
      [-0.99, 0.0], [20.0, 0.0], [0.0, 0.0]],
     LiftOptions(record_stride=2, max_steps=7, r_escape=3.0)),
    ("finite_difference", _fd_complex_exp(), [0.0, 0.0], _lane_targets(2, 0.9), None),
    # a jump of the map stepped over, a first step that collapses and a
    # rejected non-finite f(X), next to Complete lanes
    ("drift", _floor_step(), [0.0], [[4.0], [0.5], [-4.0]], None),
    ("nan_beyond_one", _nan_beyond_one(), [0.0], [[2.0], [0.5], [-3.0]], None),
    ("raises_beyond_one", _raises_beyond_one(), [0.0], [[2.0], [0.5], [-3.0]], None),
    ("raises_beyond_one_fd", _raises_beyond_one(jac=False), [0.0], [[2.0], [0.5], [-3.0]], None),
    ("jacobian_raises_beyond_one", _jacobian_raises_beyond_one(), [0.0], [[2.0], [0.5]], None),
    # every lane leaves each attempt in the same round: its Jacobian falls
    # from 1 to 1e-308 after the first step (mu falls to 0 at once:
    # Singular), is not finite, or gives a slope past the float limit
    ("all_points_non_finite", _jacobian_off_x0(100.0, 1e-308), [100.0], [[1.0], [-1.0], [1.5]],
     LiftOptions(mu_floor=0.0)),
    ("all_jacobians_non_finite", _jacobian_off_x0(0.0, np.nan), [0.0], [[1.0], [-2.0]], None),
    ("all_velocities_non_finite", _jacobian_off_x0(100.0, 1e-308), [100.0], [[10.0], [-20.0]],
     LiftOptions(mu_floor=0.0)),
    # the closed-form 1x1 SVD window |J| <= 1e100: the 1e120 lane crosses it
    # and completes; from x0 = 230 (J = 7.7e99) the corrector stacks hold
    # rows on both sides of it
    ("svd_window_crossed", registry_get("exp1d"), [0.0], [[1e120], [3.0], [-0.5], [1e90]], None),
    ("svd_window_mixed", registry_get("exp1d"), [230.0], [[1e101], [-1e99], [3e100], [0.0], [-7e99]],
     None),
    # Graves sweeps of 64 lanes: targets past the radius certified at r (some
    # lanes Escaped), and a horizontal sweep at the certified radius
    _graves_case("graves_complex_exp", "complex_exp", [0.0, 0.0], 1.0, 2.0),
    _graves_case("graves_parabola_sub", "parabola_sub", [0.0, 0.5], 1.0, 1.0),
    # the lane shapes of the chain workload's one-row lifts: exp1d from 0
    # toward tiny targets (the mu-decay guard binds at almost every step)
    ("chain_exp1d_tiny", registry_get("exp1d"), [0.0], [[1e-4 - 1.0], [1e-3 - 1.0], [1e-2 - 1.0]], None),
    # arctan1d toward its edge, and toward 1.6, outside the image (Singular
    # at the floor crossing)
    ("chain_arctan1d_edge", registry_get("arctan1d"), [0.0], [[1.2], [1.55], [1.6]], None),
    # complex_exp from 0 toward targets of modulus 10 to 100
    ("chain_complex_exp_far", registry_get("complex_exp"), [0.0, 0.0],
     [[rho * math.cos(phi) - 1.0, rho * math.sin(phi)]
      for rho, phi in ((10.0, -1.2), (23.0, 0.4), (47.0, 1.1), (71.0, -0.3), (100.0, 0.9))], None),
    # the chords of unit-circle fibre loops of 4 to 7 sides from their
    # common vertex, lifted from its fibre point
    ("chain_fibre_chords", registry_get("complex_exp"), [0.0, 0.7],
     [[math.cos(0.7 + 2.0 * math.pi / sides) - math.cos(0.7),
       math.sin(0.7 + 2.0 * math.pi / sides) - math.sin(0.7)] for sides in (4, 5, 6, 7)], None),
    # parabola_sub, horizontal, from (0, +-0.5) (f = -0.25) toward y in [-5, 5]
    *((f"chain_parabola_sub_{label}", registry_get("parabola_sub"), [0.0, x2],
       [[y + 0.25] for y in (-5.0, -2.2, -0.4, 0.9, 3.1, 5.0)], None)
      for label, x2 in (("up", 0.5), ("down", -0.5))),
]


def test_every_lockstep_case_has_two_rows_or_more():
    """Each case compares the rows of a lockstep call, which _LineLanes
    runs (_lockstep), against their one-row calls, which _LineLane runs."""
    assert all(len(targets) >= 2 for _, _, _, targets, _ in LOCKSTEP_CASES)


@np.errstate(**lifting._LINE_ERRSTATE)  # as lift_lines runs its lanes
def _lockstep(model, x0, targets, opts=None):
    """The outcomes of the rows of targets run in lockstep by _LineLanes,
    as lift_lines runs a call of _LOCKSTEP_ROWS rows or more: a call of
    two rows too, whose rows lift_lines runs as scalar lanes."""
    x0 = np.asarray(x0, dtype=float)
    lanes = lifting._LineLanes(model, x0, np.asarray(targets, dtype=float), opts or LiftOptions())
    lanes.start(evaluate(model, x0), *maps._svd(maps.jacobian(model, x0)))
    lanes.run()
    return lanes.outcomes()


def _assert_same_outcome(got, want, where):
    """got and want agree bit for bit, the sign of a zero and NaN included:
    each float by its repr, each array by its bytes."""
    assert repr(got.status) == repr(want.status), where
    assert repr(got.stats) == repr(want.stats), where
    for field in ("times", "points", "mu_values"):
        a, b = getattr(got.trajectory, field), getattr(want.trajectory, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), (where, field)
    assert repr((got.trajectory.length, got.max_drift, got.target_residual)) == repr(
        (want.trajectory.length, want.max_drift, want.target_residual)), where


@pytest.mark.parametrize(
    "label, model, x0, targets, opts", LOCKSTEP_CASES, ids=[c[0] for c in LOCKSTEP_CASES]
)
def test_lift_lines_match_sequential_lifts(label, model, x0, targets, opts):
    lift = lift_line_square if model.n == model.m else lift_line_horizontal
    want = [lift(model, x0, w, opts) for w in targets]
    for batch in (lift_lines(model, x0, targets, opts), _lockstep(model, x0, targets, opts)):
        assert len(batch) == len(targets)
        for w, got, one in zip(targets, batch, want):
            _assert_same_outcome(got, one, w)


_PROPERTY_MAPS = [name for name in maps.list_map_names() if name != "linear"]  # linear needs its matrix


@st.composite
def _lockstep_call(draw):
    """A registry map (square or wide), x0 in [-2, 2]^n, 2 to 4 targets of
    one scale from 1e-3 to 30 (a zero row among them at times) and
    LiftOptions: rel_tol, record_stride 1 to 3, a step budget of 1 to 30,
    r_escape on or off and mu_floor (the default, 0, or one that the
    lanes of arctan1d, exp1d and complex_exp reach)."""
    model = registry_get(draw(st.sampled_from(_PROPERTY_MAPS)))
    x0 = [draw(st.floats(-2.0, 2.0)) for _ in range(model.n)]
    scale = 10.0 ** draw(st.floats(-3.0, 1.5))
    W = [[scale * draw(st.floats(-1.0, 1.0)) for _ in range(model.m)] for _ in range(draw(st.integers(2, 4)))]
    opts = LiftOptions(rel_tol=10.0 ** draw(st.floats(-12.0, -4.0)), record_stride=draw(st.integers(1, 3)),
                       max_steps=draw(st.integers(1, 30)), r_escape=draw(st.one_of(st.none(), st.floats(0.1, 10.0))),
                       mu_floor=draw(st.one_of(st.sampled_from([1e-8, 0.0]), st.floats(0.01, 0.9))))
    return model, x0, W, opts


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_lockstep_call())
def test_every_lane_of_a_lockstep_call_is_its_one_row_call(call):
    """Each lane of two to four rows run in lockstep (_LineLanes) returns,
    bit for bit, what the one-row call of its target returns (_LineLane)."""
    model, x0, W, opts = call
    for k, (w, got) in enumerate(zip(W, _lockstep(model, x0, W, opts))):
        _assert_same_outcome(got, lift_lines(model, x0, [w], opts)[0], (k, w))


def _one_by_one_maps() -> list:
    """(model, scale of w) for the 1x1 maps the float lanes are crossed on:
    the 1-D registry maps; a user map called point by point (tanh); one
    with a finite-difference Jacobian (sinh); and linear [[a]] with |a| at,
    just inside and just outside the edges of maps._svd's closed-form
    window, and subnormal, with w scaled by |a|."""
    out = [(registry_get(name), 1.0) for name in ("arctan1d", "exp1d", "monotone1d", "asinh1d")]
    out.append((MapModel(name="tanh_user", n=1, m=1, eval_fn=lambda x: np.tanh(x),
                         jac_fn=lambda x: (1.0 / np.cosh(x) ** 2)[:, None]), 1.0))
    out.append((MapModel(name="sinh_fd", n=1, m=1, eval_fn=lambda x: np.sinh(x), stacked=True), 1.0))
    for edge in (maps._SVD_LO, maps._SVD_HI):
        for a in (edge, np.nextafter(edge, 1.0), np.nextafter(edge, 1.0 / edge)):
            out += [(linear_map([[a]]), a), (linear_map([[-a]]), a)]
    return out + [(linear_map([[-5e-320]]), 5e-320)]


_ONE_BY_ONE = _one_by_one_maps()


@st.composite
def _one_by_one_call(draw):
    """A 1x1 map of _ONE_BY_ONE, x0 in [-2, 2], three targets of one scale
    from 1e-3 to 30 times the map's (a zero row among them at times), and
    LiftOptions: record_stride 1 to 3, a step budget of 1 to 40, r_escape
    on or off and mu_floor (the default, 0, or one from 0.01 to 0.9)."""
    model, scale = draw(st.sampled_from(_ONE_BY_ONE))
    x0 = [draw(st.floats(-2.0, 2.0))]
    scale *= 10.0 ** draw(st.floats(-3.0, 1.5))
    W = [[scale * draw(st.floats(-1.0, 1.0))] for _ in range(3)]
    opts = LiftOptions(record_stride=draw(st.integers(1, 3)), max_steps=draw(st.integers(1, 40)),
                       r_escape=draw(st.one_of(st.none(), st.floats(0.1, 10.0))),
                       mu_floor=draw(st.one_of(st.sampled_from([1e-8, 0.0]), st.floats(0.01, 0.9))))
    return model, x0, W, opts


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_one_by_one_call())
# star_probe's rays at t_budget 1e308: slopes past the float limit, and the
# norm of w past it too, so both the non-finite-slope rejection and the
# norm's overflow rescale run
@example((registry_get("arctan1d"), [0.0], [[1e308], [-1e308], [1.0]], LiftOptions()))
# a slope that underflows to a zero from x0 = -0, past the window (LAPACK's
# SVD): the zero's sign shows in the points
@example((linear_map([[1e200]]), [-0.0], [[-1e-150], [1e-150], [0.5]], LiftOptions()))
def test_one_by_one_float_lanes_are_their_lockstep_rows(call):
    """The one-row call of a 1x1 map, which lift_lines runs as a
    _FloatLane on Python floats, returns bit for bit what the same row of
    a three-row lockstep call returns (_LineLanes): trajectory, status and
    LiftStats, the sign of every zero included."""
    model, x0, W, opts = call
    for k, (w, got) in enumerate(zip(W, _lockstep(model, x0, W, opts))):
        _assert_same_outcome(lift_lines(model, x0, [w], opts)[0], got, (k, w))


def test_one_by_one_rows_run_as_float_lanes(monkeypatch):
    """lift_lines runs the rows of a call of fewer than _LOCKSTEP_ROWS rows
    on a 1x1 map as _FloatLanes, and no other map's."""
    made = []
    init = lifting._LineLane.__init__

    def spy(self, *args):
        made.append(type(self))
        return init(self, *args)

    monkeypatch.setattr(lifting._LineLane, "__init__", spy)
    lift_lines(registry_get("exp1d"), [0.0], [[1.0], [-0.5]])
    lift_lines(registry_get("complex_exp"), [0.0, 0.0], [[0.5, 0.2]])
    lift_lines(registry_get("projection2to1"), [0.0, 0.0], [[0.5]])
    assert made == [lifting._FloatLane] * 2 + [lifting._LineLane] * 2


def test_svd_window_cases_cross_the_window(monkeypatch):
    """The svd_window cases do what their lane-equality runs rely on: a
    lane's |J| crosses the closed-form window, and some corrector SVD
    stacks mix rows inside and outside it (so go to LAPACK as a whole)."""
    mixed = []

    def spy(J, compute_uv=True):
        a = np.abs(J).ravel()
        inside = (maps._SVD_LO <= a) & (a <= maps._SVD_HI)
        mixed.append(J.shape[-2:] == (1, 1) and inside.any() and not inside.all())
        return maps._svd(J, compute_uv)

    monkeypatch.setattr(lifting, "_svd", spy)
    cases = {c[0]: c for c in LOCKSTEP_CASES}
    _, model, x0, targets, opts = cases["svd_window_crossed"]
    crossed = lift_lines(model, x0, targets, opts)[0]
    assert crossed.status == LiftStatus.complete(1.0) and crossed.stats.accepted == 719
    assert crossed.trajectory.points[-1][0] == pytest.approx(np.log1p(1e120), rel=1e-9)
    assert crossed.trajectory.mu_values.min() < maps._SVD_HI < crossed.trajectory.mu_values.max()
    _, model, x0, targets, opts = cases["svd_window_mixed"]
    lift_lines(model, x0, targets, opts)
    assert sum(mixed) == 18


def test_lockstep_cases_reach_every_mask_shape(monkeypatch):
    """The LOCKSTEP_CASES do what their lane-equality runs rely on to cover
    each path of _Attempt's mask rule: masks of pick and leave that keep
    every row and some rows, leaves that keep no row of an attempt of more
    than one row, and attempts whose predictor mixes Hermite and Euler
    rows."""
    shapes, mixed = set(), []
    pick, leave, predict = lifting._Attempt.pick, lifting._Attempt.leave, lifting._LineLanes.predict

    def shape(mask):
        if mask is None:  # every row: a stack call's when every row is finite, or a counted mask's
            return "every"
        kept = np.count_nonzero(mask)
        return "every" if kept == mask.size else "some" if kept else "none" if mask.size > 1 else "none of one"

    def spy_pick(mask, *arrays):
        shapes.add(("pick", shape(mask)))
        return pick(mask, *arrays)

    def spy_leave(self, good, *args, **kwargs):
        shapes.add(("leave", shape(good)))
        return leave(self, good, *args, **kwargs)

    def spy_predict(self, a, K1):
        mixed.append(0 < np.count_nonzero(a.hermite) < a.hermite.size)
        return predict(self, a, K1)

    monkeypatch.setattr(lifting._Attempt, "pick", staticmethod(spy_pick))
    monkeypatch.setattr(lifting._Attempt, "leave", spy_leave)
    monkeypatch.setattr(lifting._LineLanes, "predict", spy_predict)
    for _, model, x0, targets, opts in LOCKSTEP_CASES:
        _lockstep(model, x0, targets, opts)
    assert {(f, kind) for f in ("pick", "leave") for kind in ("every", "some")} | {("leave", "none")} <= shapes
    assert sum(mixed) == 5


@pytest.mark.parametrize("label, most", [
    ("projection2to1", 1), ("parabola_sub", 3), ("graves_parabola_sub", 3), ("complex_exp", 4)])
def test_wide_lanes_never_make_a_fourth_round(monkeypatch, label, most):
    """A lift's corrector budget is four rounds on a square map and three
    on a wide one: no attempt of a wide map's lanes makes a fourth round
    (the linear projection2to1 needs one), while a square map's do."""
    _, model, x0, targets, opts = next(c for c in LOCKSTEP_CASES if c[0] == label)
    rounds, attempt, do_round = [], lifting._LineLanes.attempt, lifting._Attempt.round

    def spy_attempt(self, rows):
        rounds.append(0)
        return attempt(self, rows)

    def spy_round(self):
        rounds[-1] += 1
        return do_round(self)

    monkeypatch.setattr(lifting._LineLanes, "attempt", spy_attempt)
    monkeypatch.setattr(lifting._Attempt, "round", spy_round)
    _lockstep(model, x0, targets, opts)
    assert max(rounds) == most


def test_mixed_stops_case_stops_lanes_apart():
    """The mixed_stops_stride case does what its lane-equality run relies
    on: its lanes stop Complete, Escaped and StepFailure after different
    numbers of attempts, some after an odd number of steps, so that the
    stride-2 recorder keeps their last point by the force-last rule."""
    _, model, x0, targets, opts = next(c for c in LOCKSTEP_CASES if c[0] == "mixed_stops_stride")
    outs = lift_lines(model, x0, targets, opts)
    attempts = {}
    for out in outs:
        st = out.stats
        attempts.setdefault(out.status.kind, set()).add(st.accepted + st.rejected_error + st.rejected_singular)
    assert set(attempts) == {"Complete", "Escaped", "StepFailure"}
    assert len(set().union(*attempts.values())) >= 5
    odd = [out for out in outs if out.stats.accepted % 2]
    assert odd and all(len(out.trajectory.times) == out.stats.accepted // 2 + 2 for out in odd)


@pytest.mark.parametrize("label", ["graves_complex_exp", "arctan1d", "exp1d", "mixed_stops_stride"])
def test_lift_lines_do_not_depend_on_the_row_order(label):
    """lift_lines on the targets in another order returns the outcomes in
    that order, bit for bit: leave and the stops act on the rows of their
    own lanes (exp1d has lanes with non-finite stages)."""
    _, model, x0, targets, opts = next(c for c in LOCKSTEP_CASES if c[0] == label)
    targets = np.asarray(targets, dtype=float)
    perm = np.random.default_rng(7).permutation(len(targets))
    assert not np.array_equal(perm, np.arange(len(targets)))
    want = lift_lines(model, x0, targets, opts)
    for k, got in zip(perm.tolist(), lift_lines(model, x0, targets[perm], opts)):
        _assert_same_outcome(got, want[k], k)


def test_every_point_of_a_complete_lift_meets_its_tolerance():
    """Every point a Complete line lift records, the base point included,
    lies within complete_tol of its line, and so does every point taken
    (max_drift): the lanes of LOCKSTEP_CASES, square and wide maps, with
    and without a Jacobian, recorded at every step or every third."""
    checked = 0
    for label, model, x0, targets, opts in LOCKSTEP_CASES:
        opts = opts or LiftOptions()
        f0 = evaluate(model, x0)
        for w, out in zip(np.asarray(targets, dtype=float), lift_lines(model, x0, targets, opts)):
            if not out.status.is_complete:
                continue
            F, _ = maps.evaluate_stack(model, out.trajectory.points)
            with np.errstate(over="ignore"):  # the exp1d lanes near the float limit
                tol = 10.0 * opts.rel_tol * max(maps._norms(w), 1.0) + 100.0 * opts.abs_tol
                residuals = maps._norms(F - (f0 + out.trajectory.times[:, None] * w))
            assert np.all(residuals <= tol) and out.max_drift <= tol, (label, w)
            checked += 1
    assert checked > 200


def test_lift_lines_cover_every_terminal_status():
    """The LOCKSTEP_CASES lanes end in every terminal status, and every
    lane's recorded times strictly increase: every step taken advances t."""
    kinds = set()
    for label, model, x0, targets, opts in LOCKSTEP_CASES:
        for k, out in enumerate(lift_lines(model, x0, targets, opts)):
            kinds.add(out.status.kind)
            assert np.all(np.diff(out.trajectory.times) > 0.0), (label, k)
    assert kinds == {"Complete", "Singular", "Escaped", "StepFailure"}


def _lanes_at(model, opts, W, Q, H, T, mu):
    """The lanes of a lift_lines call from x0 = 0 toward the rows of W,
    started and then set mid-lift: lane k at q = Q[k] with its slope
    J(q)^+ w there, time T[k], step size H[k] and indicator mu[k], with
    x0 and that point recorded."""
    lanes = lifting._LineLanes(model, np.zeros(model.n), np.asarray(W, dtype=float), opts)
    lanes.start(evaluate(model, np.zeros(model.n)), *maps._svd(maps.jacobian(model, np.zeros(model.n))))
    lanes.q[:], lanes.t[:], lanes.h[:], lanes.mu[:] = Q, T, H, mu
    J, _ = maps.jacobian_stack(model, lanes.q)
    lanes.k1[:] = lifting._velocities(*maps._svd(J), lanes.w)
    lanes.record_start()
    return lanes


def _lane_at(model, opts, w, q, h, t, mu):
    """The lane of a one-row lift_lines call from x0 = 0 toward w (a
    _LineLane), started and then set mid-lift as _lanes_at sets each row:
    at q with its slope J(q)^+ w there, time t, step size h and indicator
    mu, with x0 and that point recorded."""
    lane = lifting._LineLane(model, np.zeros(model.n), np.asarray([w], dtype=float), opts)
    lane.start(*lane.factor(evaluate(model, np.zeros(model.n))[None], maps.jacobian(model, np.zeros(model.n))[None]))
    lane.q, lane.t, lane.h, lane.mu = np.array([q], dtype=float), float(t), float(h), float(mu)
    J, _ = maps.jacobian_stack(model, lane.q)
    lane.k1 = lifting._velocities(*maps._svd(J), lane.w)
    lane.record()
    return lane


def test_stacked_judge_matches_one_lane_judges():
    """One lockstep attempt of 2000 complex_exp lanes against the attempt
    of each lane alone, as a one-row call runs it (_LineLane).  Each lane
    is set on the lift of its line (the branch of log continued from
    x0 = 0) at a time in [0, 0.95), with step sizes from 1e-4 to 1 and a mu before the step from
    half to twice its own (the mu-decay guard cuts some steps).  Lanes take
    their steps in every corrector round and are rejected by the distance
    guard, the contraction test, the round limit and the mu floor; some
    stop outside the escape ball.  No lane's verdict, step or outcome
    depends on the other rows."""
    model, opts, K = registry_get("complex_exp"), LiftOptions(r_escape=3.0, mu_floor=0.05), 2000
    rng = np.random.default_rng(11)
    W = rng.normal(size=(K, 2)) * rng.uniform(0.5, 3.0, (K, 1))
    T, H = rng.uniform(0.0, 0.95, K), 10.0 ** rng.uniform(-4.0, 0.0, K)
    Y = np.array([1.0, 0.0]) + T[:, None] * W
    Q = np.column_stack([np.log(np.hypot(Y[:, 0], Y[:, 1])), np.arctan2(Y[:, 1], Y[:, 0])])
    mu_prev = np.exp(Q[:, 0]) * 2.0 ** rng.uniform(-1.0, 1.0, K)

    stacked = _lanes_at(model, opts, W, Q, H, T, mu_prev)
    stacked.attempt(np.arange(K))
    alone = []
    for k in range(K):
        lane = _lane_at(model, opts, W[k], Q[k], H[k], T[k], mu_prev[k])
        lane.attempt()
        alone.append(lane)

    outcomes = stacked.outcomes()
    for k, (got, lane) in enumerate(zip(outcomes, alone)):
        _assert_same_outcome(got, lane.outcome(), k)
    for name in ("t", "h", "mu", "accepted", "length", "h_min", "residual", "max_drift"):
        assert np.array_equal(getattr(stacked, name), [getattr(lane, name) for lane in alone]), name
    assert np.array_equal(stacked.k1, np.concatenate([lane.k1 for lane in alone]))
    assert np.array_equal(stacked.rejected, [lane.rejected for lane in alone])
    assert np.array_equal(stacked.work, [[lane.evals, lane.jacobians, lane.svds] for lane in alone])
    assert np.array_equal(stacked.running, [lane.status is None and lane.t < 1.0 for lane in alone])
    assert stacked.status == [lane.status for lane in alone]
    rounds = {int(w) for w, taken in zip(stacked.work[:, 1] - 1, stacked.accepted) if taken}
    assert rounds == {1, 2, 3, 4}  # steps taken in every corrector round
    assert (stacked.rejected[:, :2] > 0).any(axis=0).all()  # error and singular rejections
    assert {status.kind for status in stacked.status if status is not None} == {"Escaped"}


def _rules(model, opts):
    """The lane rules (_LaneRules) for model and opts under each kernel
    set, as (numpy's, the Python float one): the rules of a _LineLanes and
    of a _LineLane, neither started, as no rule reads a lane's state."""
    x0, w = np.zeros(model.n), np.ones((1, model.m))
    return lifting._LineLanes(model, x0, w, opts), lifting._LineLane(model, x0, w, opts)


_KERNEL_GRID = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, 1e300, -1e300, math.inf, -math.inf,
                math.nan, -math.nan]


def _bits(x) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def test_float_kernels_are_numpys_ufuncs_bit_for_bit():
    """Each op of the float kernel set (_LineLane's) returns, as a Python
    float, what the same op of numpy's (_LineLanes') returns on one-element
    arrays, bit for bit, the signs of zeros and NaNs included: divide,
    minimum, maximum and fmin on every pair of the grid in both orders,
    select either way, and 3 or 4 repeated roots with and without the
    extra one on every grid value.  numpy's one-element loop is the
    reference, as np.fmin's SIMD loop returns the other operand of a tie of
    zeros or of two NaNs; no rule meets one, as its fmin's first operand is
    _GROW."""
    lockstep, scalar = lifting._LineLanes, lifting._LineLane
    pairs = [(a, b) for a in _KERNEL_GRID for b in _KERNEL_GRID]
    for name in ("divide", "minimum", "maximum", "fmin"):
        for a, b in pairs:
            want = getattr(lockstep, name)(np.array([a]), np.array([b]))[0]
            got = getattr(scalar, name)(a, b)
            assert type(got) is float and _bits(got) == _bits(want), (name, a, b, got, want)
    for (a, b), c in zip(pairs, [False, True] * len(pairs)):
        assert _bits(scalar.select(c, a, b)) == _bits(lockstep.select(np.array([c]), [a], [b])[0]), (a, b, c)
    with np.errstate(**lifting._LINE_ERRSTATE):  # the root of a negative is NaN
        for x in _KERNEL_GRID:
            for n, extra in ((3, False), (3, True), (4, False), (4, True)):
                want = lockstep.roots(np.array([x]), n, np.array([extra]))[0]
                assert _bits(scalar.roots(x, n, extra)) == _bits(want), (x, n, extra)


def _scalar_last_correction(rounds: int, r: int, e_prev: float, e: float) -> float:
    """The last round's correction a step taken in round r of a budget of
    rounds predicts, with Python's floats: e, c e^2 or c^3 e^4 for
    Newton's e_{k+1} = c e_k^2 with c = e / e_prev^2."""
    ahead = rounds - 1 - r
    if not ahead:
        return e
    last, q = e * e * e / (e_prev * e_prev), e / e_prev
    return last if ahead == 1 else last * (q * q) * (q * q)


def test_next_step_is_grown_with_the_mu_guard():
    """The step rule (_LaneRules.next_step) of many lanes under numpy's
    kernel set, of each lane under the float one, and the rule with
    Python's floats: grown 5 times after a step the predictor took,
    else scaled by the 2^R-th root (Euler predictor) or the 2^(R+1)-th
    (Hermite) of _AIM x_tol over the last round's correction predicted
    from the step's last two corrections, up to 5 times, cut by the
    mu-decay guard (mu may at most halve over the next step at the rate
    it fell) and by the floor cap (the secant's crossing of mu_floor), and
    cut to end at t = 1.  R is 4 on a square map such as identity_1 (the
    wide map's 3 is test_three_round_budget_keeps_the_three_round_rule's).
    A fifth of the lanes have mu_new in [mu_floor, 2 mu_floor), where the
    floor cap is the one that binds."""
    rng = np.random.default_rng(12)
    K, floor = 20000, 0.01
    e_prev, e = 10.0 ** rng.uniform(-6.0, 0.0, K), 10.0 ** rng.uniform(-18.0, -8.0, K)
    x_tol = 1e-8 * rng.uniform(1.0, 10.0, K)
    e[:10] = 0.0
    H, T = 10.0 ** rng.uniform(-8, 0, K), rng.uniform(0.0, 1.0, K)
    mu_prev, mu_new = rng.uniform(floor, 1.0, K), rng.uniform(floor, 1.0, K)
    near = rng.uniform(size=K) < 0.2
    mu_new[near] = floor * rng.uniform(1.0, 2.0, np.count_nonzero(near))
    hermite = rng.uniform(size=K) < 0.5
    (lanes, lane), rounds = _rules(registry_get("identity_1"), LiftOptions(mu_floor=floor)), 4
    assert lanes.rounds == lane.rounds == rounds
    for r in range(rounds):
        steps = lanes.next_step(H, T, r, e_prev, e, x_tol, mu_prev, mu_new, hermite).tolist()
        capped = 0
        for k, (h, t, a, b, tol, m0, m1, cubic) in enumerate(zip(*(A.tolist() for A in (
                H, T, e_prev, e, x_tol, mu_prev, mu_new, hermite)))):
            assert lane.next_step(h, t, r, a, b, tol, m0, m1, cubic) == steps[k], (r, k)
            if r == 0:
                want = 5.0 * h
            else:
                root = 0.03 * tol / max(_scalar_last_correction(rounds, r, a, b), 1e-300)
                for _ in range(rounds + cubic):
                    root = math.sqrt(root)
                want = h * min(5.0, root)
            if m1 < m0:
                drop = max(m0 - m1, 1e-300)
                guard, cap = 0.5 * h * m1 / drop, h * (m1 - floor) / drop
                capped += cap < min(want, guard, 1.0 - t)
                want = min(want, guard, cap)
            assert steps[k] == min(want, 1.0 - t), (r, k)
        assert 0 < sum(s == 1.0 - t for s, t in zip(steps, T.tolist())) < K
        assert capped > K // 20  # the floor cap is the least step of many lanes


@pytest.mark.parametrize("name", ["identity_1", "parabola_sub"])
def test_one_lane_step_rule_divides_as_numpy(name):
    """The step rule under the float kernel set gives its step under
    numpy's where Newton's prediction divides by a correction whose square
    is 0 (0, or one whose square underflows): inf or NaN, as numpy divides,
    where a Python division would raise, in every round of the budget.
    Under lift_lines' float state neither warns (warnings are errors)."""
    e_prev, e = np.array([0.0, 0.0, 1e-170, 5e-324, 1e-170]), np.array([0.0, 1e-20, 1e-20, 0.0, 1e-170])
    K = len(e)
    H, T, x_tol, mu = np.full(K, 1e-3), np.full(K, 0.5), np.full(K, 1e-8), np.ones(K)
    lanes, lane = _rules(registry_get(name), LiftOptions())
    for r in range(1, lanes.rounds):
        for hermite in (False, True):
            with np.errstate(**lifting._LINE_ERRSTATE):
                want = lanes.next_step(H, T, r, e_prev, e, x_tol, mu, mu, np.full(K, hermite))
            got = [lane.next_step(1e-3, 0.5, r, a, b, 1e-8, 1.0, 1.0, hermite)
                   for a, b in zip(e_prev.tolist(), e.tolist())]  # Python floats, as a lift passes them
            assert np.array_equal(want, got), (r, hermite, want, got)


def test_three_round_budget_keeps_the_three_round_rule():
    """A wide map's budget of three rounds sizes its steps as the rule
    written for three rounds did, bit for bit, under either kernel set:
    the last correction is e after round 2 and e^3 / e0^2 after round 1
    (e0 the first correction), under the eighth root after Euler and the
    sixteenth after Hermite."""
    rng = np.random.default_rng(5)
    K = 5000
    e0, e = 10.0 ** rng.uniform(-6.0, 0.0, K), 10.0 ** rng.uniform(-18.0, -8.0, K)
    x_tol, H = 1e-8 * rng.uniform(1.0, 10.0, K), 10.0 ** rng.uniform(-8, -1, K)
    hermite, mu, T = rng.uniform(size=K) < 0.5, np.ones(K), np.zeros(K)
    lanes, lane = _rules(registry_get("parabola_sub"), LiftOptions())
    for r in (1, 2):
        last = np.maximum(e if r == 2 else e * e * e / (e0 * e0), 1e-300)
        root = np.sqrt(np.sqrt(np.sqrt(0.03 * x_tol / last)))
        np.sqrt(root, out=root, where=hermite)
        want = np.minimum(H * np.fmin(5.0, root), 1.0 - T)
        assert np.array_equal(lanes.next_step(H, T, r, e0, e, x_tol, mu, mu, hermite), want), r
        got = [lane.next_step(*args) for args in zip(H.tolist(), T.tolist(), [r] * K, e0.tolist(), e.tolist(),
                                                     x_tol.tolist(), mu.tolist(), mu.tolist(), hermite.tolist())]
        assert np.array_equal(got, want), r


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("hermite", [False, True])
def test_four_round_budget_predicts_the_fourth_correction(r, hermite):
    """On an exact Newton sequence e_{k+1} = c e_k^2 from e0, a step taken
    in round r of a square map's four predicts the fourth round's
    correction c^7 e0^8 from its last two corrections: the step it grows
    to is H (_AIM x_tol / c^7 e0^8)^(1/16) after Euler, the 32nd root
    after Hermite, under either kernel set."""
    c, e0, x_tol, H = 3.0, 1e-2, np.array([1e-8]), np.array([1e-3])
    seq = [e0]
    for _ in range(3):
        seq.append(c * seq[-1] ** 2)
    lanes, lane = _rules(registry_get("identity_1"), LiftOptions())
    h_next = lanes.next_step(H, np.zeros(1), r, np.array([seq[r - 1]]), np.array([seq[r]]), x_tol,
                             np.ones(1), np.ones(1), np.array([hermite]))
    assert lane.next_step(1e-3, 0.0, r, seq[r - 1], seq[r], 1e-8, 1.0, 1.0, hermite) == h_next[0]
    growth = float(h_next[0] / H[0])
    assert 1.0 < growth < 5.0
    assert 0.03 * x_tol[0] / growth ** (32 if hermite else 16) == pytest.approx(c ** 7 * e0 ** 8, rel=1e-12)


def _on_log(W, t):
    """The lift of each row of W from x0 = 0 under complex_exp at time t:
    log of f(0) + t w, continued along the segment (atan2 as t |w| < 1)."""
    Y = np.array([1.0, 0.0]) + t[:, None] * W
    return np.column_stack([np.log(np.hypot(Y[:, 0], Y[:, 1])), np.arctan2(Y[:, 1], Y[:, 0])])


def _on_parabola(W, t):
    """A point over f(0) + t w = t w on each fibre of parabola_sub."""
    return np.column_stack([t * W[:, 0] + 0.25, np.full(len(t), 0.5)])


def _first_corrections(model, W, at, H, hp):
    """C0, the length of the first Newton correction, of one attempt of
    step H by each lane set at at(W, 0.3) with its slope there, after a
    step of size hp from at(W, 0.3 - hp) (hp 0: no step taken yet)."""
    K = len(W)
    t = np.full(K, 0.3)
    lanes = _lanes_at(model, LiftOptions(r_escape=None), W, at(W, t), np.full(K, H), t, np.ones(K))
    if hp:
        lanes.qp[:], lanes.hp[:] = at(W, t - hp), hp
        J, _ = maps.jacobian_stack(model, lanes.qp)
        lanes.kp[:] = lifting._velocities(*maps._svd(J), lanes.w)
    seen, take = np.full(K, np.nan), lanes.take

    def spy(a, done, *args):
        seen[a.rows[done]] = a.C0[done]
        return take(a, done, *args)

    lanes.take = spy
    lanes.attempt(np.arange(K))
    assert np.isfinite(seen).all()  # every lane took its step
    return seen


@pytest.mark.parametrize("name, at, hp, order", [
    ("complex_exp", _on_log, 1.0, 4),  # Hermite: the previous step is as long as this one
    ("complex_exp", _on_log, 0.0, 2),  # Euler: no step taken yet
    ("parabola_sub", _on_parabola, 1.0, 2),  # Euler: a wide map's points are not on one curve
], ids=["hermite", "euler_first_step", "euler_wide"])
def test_first_correction_scales_with_the_predictor_order(name, at, hp, order):
    """The first correction C0 measures the predictor's error: halving the
    step (and the previous one with it) cuts it about 2^4 = 16 times after
    the cubic Hermite predictor and about 2^2 = 4 times after Euler's."""
    model = registry_get(name)
    W = np.random.default_rng(3).normal(size=(8, model.m))
    W /= np.linalg.norm(W, axis=1)[:, None]
    ratio = (_first_corrections(model, W, at, 0.04, 0.04 * hp)
             / _first_corrections(model, W, at, 0.02, 0.02 * hp))
    assert np.all(np.abs(np.log2(ratio) - order) < 0.2), ratio


def test_lift_lines_work_counters(monkeypatch):
    """A 64-lane call evaluates f once at x0 (by evaluate) and takes J(x0)
    once (by jacobian); after x0 it evaluates f and J only through stacks:
    one _evaluate_stack at the first step's probe points, then one
    _evaluate_stack and one _jacobian_stack (the stacks without the shape
    check) per corrector round.  Every lane counts f(x0), J(x0) and its
    SVD, its probe's f, and its own rows of each stack: the totals of its
    one-row call."""
    _, model, x0, targets, opts = next(c for c in LOCKSTEP_CASES if c[0] == "graves_complex_exp")
    calls = {name: [] for name in ("evaluate", "jacobian", "_evaluate_stack", "_jacobian_stack")}

    def counted(name):
        fn = getattr(lifting, name)

        def wrapped(model, x):
            calls[name].append(len(x) if name.endswith("stack") else 1)
            return fn(model, x)
        return wrapped

    for name in calls:
        monkeypatch.setattr(lifting, name, counted(name))
    batch = lift_lines(model, x0, targets, opts)
    monkeypatch.undo()

    assert calls["evaluate"] == calls["jacobian"] == [1]
    assert len(calls["_evaluate_stack"]) - 1 == len(calls["_jacobian_stack"]) > 1
    assert calls["_evaluate_stack"][0] == len(targets)  # the probe: one row per lane
    assert sum(calls["_evaluate_stack"]) == sum(o.stats.evals - 1 for o in batch)
    assert sum(calls["_jacobian_stack"]) == sum(o.stats.jacobians - 1 for o in batch)
    assert all(o.stats.evals - 1 == o.stats.jacobians == o.stats.svds for o in batch)
    sequential = [lift_line_square(model, x0, w, opts) for w in targets]
    assert [o.stats for o in batch] == [o.stats for o in sequential]


def test_lifts_check_no_stack_of_their_own_points(monkeypatch):
    """Line lifts and the flow stack their own float points, so neither
    f(x0) and J(x0) nor a corrector round or a flow attempt goes through
    the shape check of evaluate_stack and jacobian_stack."""
    checked = []
    stack_points = maps._stack_points

    def spy(model, X, what):
        checked.append(what)
        return stack_points(model, X, what)

    monkeypatch.setattr(maps, "_stack_points", spy)
    model = registry_get("complex_exp")
    outs = lift_lines(model, [0.0, 0.0], [[0.5, 0.2], [-0.9, 0.0], [0.0, 2.0]])
    _, verdict = gradient_flow(model, [0.0, 0.0], [0.5, 0.5])
    assert sum(o.stats.evals for o in outs) > 3 and verdict.kind == "converged"
    assert checked == []


@pytest.mark.parametrize("label, k, stats", [
    ("graves_complex_exp", 1, LiftStats(accepted=3, evals=13, jacobians=12, svds=12,
                                        h_min=0.13475763990092446)),
    ("arctan1d", 0, LiftStats(accepted=40, evals=120, jacobians=119, svds=119,
                              h_min=1.851115622433451e-10)),
    ("exp1d", 0, LiftStats(accepted=12, rejected_error=2, rejected_nonfinite=1, evals=55,
                           jacobians=53, svds=53, h_min=0.007745456643393971)),
    ("nan_beyond_one", 0, LiftStats(accepted=22, rejected_nonfinite=94, evals=118, jacobians=23,
                                    svds=23, h_min=6.548161810916602e-15)),
])
def test_one_row_work_counters(monkeypatch, label, k, stats):
    """A one-row call takes J(x0) by jacobian and f(x0) by evaluate, and
    after x0 only stacks: one _evaluate_stack at the first step's probe,
    then one _evaluate_stack and, for the rows whose f is finite, one
    _jacobian_stack per corrector round."""
    _, model, x0, targets, opts = next(c for c in LOCKSTEP_CASES if c[0] == label)
    calls = {"jacobian": 0, "_jacobian_stack": 0, "evaluate": 0, "_evaluate_stack": 0}

    def counted(name):
        fn = getattr(lifting, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for name in calls:
        monkeypatch.setattr(lifting, name, counted(name))
    (out,) = lift_lines(model, x0, [targets[k]], opts)
    monkeypatch.undo()
    assert out.stats == stats
    assert calls == {"jacobian": 1, "_jacobian_stack": stats.jacobians - 1,
                     "evaluate": 1, "_evaluate_stack": stats.evals - 1}


@pytest.mark.parametrize("K, lanes", [(1, [1, 0]), (2, [2, 0]), (3, [0, 1]), (4, [0, 1])])
def test_the_row_count_picks_the_controller(monkeypatch, K, lanes):
    """A call of fewer than _LOCKSTEP_ROWS rows runs each row as a
    _LineLane, and a larger call runs one _LineLanes; either way f(x0) and
    J(x0) are taken once per call, and each lane's outcome is its one-row
    call's."""
    assert lifting._LOCKSTEP_ROWS == 3
    made = {lifting._LineLane: 0, lifting._LineLanes: 0}
    calls = {"evaluate": 0, "jacobian": 0}

    def spy_init(cls):
        init = cls.__init__

        def counted(self, *args):
            made[cls] += 1
            return init(self, *args)
        return counted

    def spy(name):
        fn = getattr(lifting, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for cls in made:
        monkeypatch.setattr(cls, "__init__", spy_init(cls))
    for name in calls:
        monkeypatch.setattr(lifting, name, spy(name))
    model, W = registry_get("complex_exp"), [[0.5, 0.2], [-0.9, 0.0], [0.0, 2.0], [3.0, -1.0]][:K]
    outs = lift_lines(model, [0.0, 0.0], W)
    assert list(made.values()) == lanes and calls == {"evaluate": 1, "jacobian": 1}
    for w, got in zip(W, outs):
        _assert_same_outcome(got, lift_lines(model, [0.0, 0.0], [w])[0], w)


@pytest.mark.parametrize("w", [[math.inf, 0.0], [math.nan, 1.0], [0.0, -math.inf]])
@pytest.mark.parametrize("entry", ["lift_lines", "lift_line_square", "lift_line_horizontal"])
def test_non_finite_w_is_refused_at_the_boundary(entry, w):
    """A non-finite w raises OutOfRange naming w before any work, where it
    ended StepFailure(0) after f, J and the SVD at x0."""
    model = registry_get("complex_exp")
    calls = []
    counted = MapModel(name="counted", n=2, m=2, eval_fn=lambda x: calls.append(1) or model.eval_fn(x),
                       jac_fn=model.jac_fn)
    lift = {"lift_lines": lambda: lift_lines(counted, [0.0, 0.0], [[0.1, 0.2], w]),
            "lift_line_square": lambda: lift_line_square(counted, [0.0, 0.0], w),
            "lift_line_horizontal": lambda: lift_line_horizontal(counted, [0.0, 0.0], w)}[entry]
    with pytest.raises(OutOfRange, match=r"\bw\b.*finite"):
        lift()
    assert calls == []


def test_lift_lines_argument_checks():
    m = registry_get("identity_2")
    assert lift_lines(m, [0.0, 0.0], np.zeros((0, 2))) == []
    with pytest.raises(DimensionMismatch):
        lift_lines(m, [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        lift_lines(m, [0.0], [[1.0, 1.0]])
    tall = MapModel(name="embed", n=1, m=2, eval_fn=lambda x: np.array([x[0], x[0]]))
    with pytest.raises(DimensionMismatch):
        lift_lines(tall, [0.0], [[1.0, 1.0]])


def test_options_validation():
    with pytest.raises(OutOfRange):
        LiftOptions(rel_tol=0.0)
    with pytest.raises(OutOfRange):
        LiftOptions(mu_floor=-1.0)
    with pytest.raises(OutOfRange):
        LiftOptions(max_steps=0)


@pytest.mark.parametrize("kwargs", [{"mu_floor": np.nan}, {"r_escape": 0.0}])
def test_options_reject_bad_values(kwargs):
    # a NaN floor would make every mu < mu_floor test False: no singular stop
    with pytest.raises(OutOfRange):
        LiftOptions(**kwargs)


@pytest.mark.parametrize("name", ["max_steps", "record_stride"])
@pytest.mark.parametrize("value", [np.nan, 2.5, 1.0, True, 0, -3])
def test_options_reject_counts_that_are_not_positive_integers(name, value):
    # max_steps=nan switched the step budget off and max_steps=2.5 stopped
    # after 3 steps: accepted >= max_steps never holds for NaN
    with pytest.raises(OutOfRange, match=name):
        LiftOptions(**{name: value})


def test_options_accept_numpy_integer_counts():
    opts = LiftOptions(max_steps=np.int64(3), record_stride=np.int32(2))
    out = lift_line_square(registry_get("arctan1d"), [0.0], [1.5], opts)
    assert out.status.kind == "StepFailure" and out.stats.accepted == 3


def test_status_constructors_and_json():
    s = LiftStatus.singular(0.5, 1e-9)
    assert s.kind == "Singular" and not s.is_complete
    assert s.to_json_dict() == {"kind": "Singular", "t": 0.5, "mu": 1e-9}
    c = LiftStatus.complete(1.0)
    assert c.is_complete and c.to_json_dict() == {"kind": "Complete", "t": 1.0}
    e = LiftStatus.escaped(0.25, 7.0)
    assert e.to_json_dict()["distance"] == 7.0


def test_trajectory_csv_roundtrip(tmp_path):
    m = registry_get("monotone1d")
    out = lift_line_square(m, [0.0], [2.0])
    out.trajectory.to_csv(tmp_path / "traj.csv")
    lines = (tmp_path / "traj.csv").read_text().strip().split("\n")
    assert lines[0] == "t,x_1,mu,cumulative_length"
    assert len(lines) == out.trajectory.times.shape[0] + 1
    row = lines[-1].split(",")
    assert float(row[0]) == 1.0
    assert float(row[1]) == pytest.approx(out.trajectory.points[-1][0])
    assert float(row[3]) == pytest.approx(out.trajectory.length, rel=1e-12)


def _trajectory_row_writer_bytes(traj: LiftTrajectory) -> bytes:
    """The row-at-a-time writer to_csv replaced, with its running chord sum:
    the reference."""
    n = traj.points.shape[1]
    rows = [",".join(["t"] + [f"x_{i + 1}" for i in range(n)] + ["mu", "cumulative_length"])]
    cum = 0.0
    for k in range(traj.times.size):
        if k > 0:
            cum += float(np.linalg.norm(traj.points[k] - traj.points[k - 1]))
        cells = [repr(float(traj.times[k]))] + [repr(float(v)) for v in traj.points[k]]
        rows.append(",".join(cells + [repr(float(traj.mu_values[k])), repr(cum)]))
    return ("\n".join(rows) + "\n").encode()


@pytest.mark.parametrize("name, x0, w", [
    ("arctan1d", [0.0], [1.55]),  # a crawl toward the singular edge
    ("complex_exp", [0.0, 0.0], [0.5, -0.7]),
    ("parabola_sub", [0.0, 0.5], [1.2]),
    ("exp1d", [0.0], [3.0]),
])
def test_trajectory_csv_matches_the_row_writer(tmp_path, name, x0, w):
    (out,) = lift_lines(registry_get(name), x0, [w])
    out.trajectory.to_csv(tmp_path / "traj.csv")
    assert (tmp_path / "traj.csv").read_bytes() == _trajectory_row_writer_bytes(out.trajectory)
    single = LiftTrajectory(times=np.zeros(1), points=np.ones((1, 2)), mu_values=np.ones(1),
                            length=0.0)
    single.to_csv(tmp_path / "one.csv")
    assert (tmp_path / "one.csv").read_bytes() == _trajectory_row_writer_bytes(single)


def test_gradient_flow_converges_monotone():
    m = registry_get("monotone1d")
    out, verdict = gradient_flow(m, np.array([2.0]), np.array([0.0]))
    assert verdict.kind == "converged"
    assert out.status.kind == "Complete"
    assert abs(out.trajectory.points[-1][0]) <= 1e-6
    # recorded residual levels never increase
    levels = [
        0.5 * float(np.linalg.norm(evaluate(m, p)) ** 2) for p in out.trajectory.points
    ]
    assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(levels, levels[1:]))


def test_gradient_flow_ps_candidate_arctan():
    m = registry_get("arctan1d")
    out, verdict = gradient_flow(m, np.array([0.0]), np.array([2.0]))
    assert verdict.kind == "ps_candidate"
    assert out.status.kind == "Escaped"
    c_exact = 0.5 * (2.0 - np.pi / 2) ** 2
    assert abs(verdict.level - c_exact) <= 1e-3
    assert verdict.grad_norm <= 1e-3


def test_gradient_flow_ps_candidate_exp_below_range():
    # no solution of e^x = -1; F = 0.5*(e^x+1)^2 stalls at its infimum 0.5
    m = registry_get("exp1d")
    out, verdict = gradient_flow(m, np.array([0.0]), np.array([-1.0]))
    assert verdict.kind == "ps_candidate"
    assert verdict.level == pytest.approx(0.5, abs=1e-3)


def test_gradient_flow_diverged_on_escape():
    m = registry_get("arctan1d")
    out, verdict = gradient_flow(
        m, np.array([0.0]), np.array([2.0]), LiftOptions(r_escape=10.0)
    )
    assert out.status.kind == "Escaped"
    assert verdict.kind == "diverged"


def test_gradient_flow_immediate_convergence():
    m = registry_get("monotone1d")
    out, verdict = gradient_flow(m, np.array([0.0]), np.array([0.0]))
    assert verdict.kind == "converged"
    assert out.status.t == 0.0


def test_weighted_length_radial_log_oracle():
    # unit radial segment, weight 1 + rho: the closed form is log 2
    ts = np.linspace(0.0, 1.0, 4001)
    traj = LiftTrajectory(
        times=ts, points=ts[:, None], mu_values=np.ones_like(ts), length=1.0
    )
    got = weighted_path_length(traj, lambda r: 1.0 + r)
    oracle, err = quad(lambda r: 1.0 / (1.0 + r), 0.0, 1.0)
    assert err < 1e-10
    assert oracle == pytest.approx(np.log(2.0), abs=1e-12)
    assert abs(got - oracle) <= 1e-4


def test_weighted_length_respects_reference_point():
    ts = np.linspace(0.0, 1.0, 2001)
    pts = np.column_stack([ts + 5.0, np.zeros_like(ts)])
    traj = LiftTrajectory(times=ts, points=pts, mu_values=np.ones_like(ts), length=1.0)
    got = weighted_path_length(traj, lambda r: 1.0 + r, x_ref=np.array([5.0, 0.0]))
    assert abs(got - np.log(2.0)) <= 1e-4


def test_weighted_length_is_its_chord_by_chord_sum():
    """weighted_path_length equals the chord-by-chord loop with one
    np.linalg.norm per chord and midpoint, bit for bit; a path far out,
    whose chords and radii overflow the plain norm, has a finite length."""
    rng = np.random.default_rng(5)
    pts = np.cumsum(rng.normal(size=(200, 3)), axis=0)
    traj = LiftTrajectory(times=np.linspace(0.0, 1.0, 200), points=pts, mu_values=np.ones(200), length=1.0)
    ref = np.array([0.5, -1.0, 2.0])
    weight = lambda r: 1.0 + r * r
    want = 0.0
    for k in range(len(pts) - 1):
        om = weight(float(np.linalg.norm(0.5 * (pts[k] + pts[k + 1]) - ref)))
        want += float(np.linalg.norm(pts[k + 1] - pts[k])) / om
    assert weighted_path_length(traj, weight, x_ref=ref) == want
    far = LiftTrajectory(times=traj.times, points=1e200 * pts, mu_values=traj.mu_values, length=1.0)
    assert 0.0 < weighted_path_length(far, lambda r: 1.0) < np.inf


def test_weighted_length_needs_two_points():
    traj = LiftTrajectory(times=np.zeros(1), points=np.zeros((1, 1)), mu_values=np.ones(1),
                          length=0.0)
    with pytest.raises(TooFewPoints):
        weighted_path_length(traj, lambda r: 1.0)


def test_weighted_length_rejects_bad_weight():
    ts = np.linspace(0.0, 1.0, 11)
    traj = LiftTrajectory(times=ts, points=ts[:, None], mu_values=np.ones_like(ts), length=1.0)
    with pytest.raises(OutOfRange):
        weighted_path_length(traj, lambda r: -1.0)
