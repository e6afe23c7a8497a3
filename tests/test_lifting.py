import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
    # a stride longer than the lift keeps the base point and the final one
    ends = lift_line_square(m, [0.0], [5.0], LiftOptions(record_stride=10**6))
    assert ends.trajectory.times.tolist() == [0.0, 1.0]
    assert ends.trajectory.length == full.trajectory.length and ends.stats == full.stats


@pytest.mark.parametrize("stride, kept", [(1, 84), (3, 29)])
def test_steps_that_do_not_advance_t_are_not_recorded(stride, kept):
    """With no mu floor, the mu-decay guard on exp1d toward its singular
    edge (f = -1, at t = 1/2) lets mu = 1 - 2t at most halve per step, so
    the steps shrink with the distance to the edge; the lane stops with
    StepFailure within 1e-14 of t = 1/2, when its step collapses, after 83
    steps.  The trajectory keeps the base point, every stride-th step and
    the final point, one point per time.  A lane of the same call that
    reaches t = 1 completes."""
    opts = LiftOptions(mu_floor=0.0, record_stride=stride)
    toward_edge, away = lift_lines(registry_get("exp1d"), [0.0], [[-2.0], [1.0]], opts)
    times = toward_edge.trajectory.times
    assert toward_edge.status == LiftStatus.step_failure(times[-1]) and 0.5 - 1e-14 < times[-1] < 0.5
    assert toward_edge.stats.accepted == 83 and toward_edge.stats.h_min < 1e-14
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
    # f, J and its SVD at x0, then one of each per corrector round: 50
    # over 18 attempts (each of one to three rounds)
    assert (st.accepted, st.rejected_error) == (14, 4)
    assert st.evals == st.jacobians == st.svds == 50
    steps = np.diff(out.trajectory.times)
    assert st.h_min == pytest.approx(float(np.min(steps)), rel=1e-12)


def test_lift_stats_rejections_by_cause():
    edge = lift_line_square(registry_get("arctan1d"), [0.0], [2.0])
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
    assert over.stats.jacobians == over.stats.evals - 1  # no Jacobian where f overflowed
    zero = lift_line_square(registry_get("identity_1"), [2.0], [0.0])
    assert zero.stats == LiftStats(evals=1, jacobians=1, svds=1)


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
    assert out.stats.evals == 1 + out.stats.accepted + out.stats.rejected_nonfinite


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
    # after odd and even step counts, recorded at every second step
    ("mixed_stops_stride", registry_get("complex_exp"), [0.0, 0.0],
     [[0.1, 0.0], [0.3, 0.2], [5.0, 0.0], [2.0, 1.5], [-0.9, 0.3], [-0.5, -0.8], [0.0, 2.5], [1.0, -3.0],
      [-0.99, 0.0], [0.0, 0.0]],
     LiftOptions(record_stride=2, max_steps=7, r_escape=1.2)),
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
]


def _assert_same_outcome(got, want, where):
    """got and want agree bit for bit: a NaN field would compare unequal,
    and none arises in these tests."""
    assert got.status == want.status, where
    assert got.stats == want.stats, where
    for field in ("times", "points", "mu_values"):
        assert np.array_equal(getattr(got.trajectory, field), getattr(want.trajectory, field)), (where, field)
    assert got.trajectory.length == want.trajectory.length, where
    assert got.max_drift == want.max_drift, where
    assert got.target_residual == want.target_residual, where


@pytest.mark.parametrize(
    "label, model, x0, targets, opts", LOCKSTEP_CASES, ids=[c[0] for c in LOCKSTEP_CASES]
)
def test_lift_lines_match_sequential_lifts(label, model, x0, targets, opts):
    lift = lift_line_square if model.n == model.m else lift_line_horizontal
    batch = lift_lines(model, x0, targets, opts)
    assert len(batch) == len(targets)
    for w, got in zip(targets, batch):
        _assert_same_outcome(got, lift(model, x0, w, opts), w)


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
    assert crossed.status == LiftStatus.complete(1.0) and crossed.stats.accepted == 1055
    assert crossed.trajectory.points[-1][0] == pytest.approx(np.log1p(1e120), rel=1e-9)
    assert crossed.trajectory.mu_values.min() < maps._SVD_HI < crossed.trajectory.mu_values.max()
    _, model, x0, targets, opts = cases["svd_window_mixed"]
    lift_lines(model, x0, targets, opts)
    assert sum(mixed) == 42


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
                tol = 10.0 * opts.rel_tol * max(lifting._norm(w), 1.0) + 100.0 * opts.abs_tol
                residuals = lifting._row_norms(F - (f0 + out.trajectory.times[:, None] * w))
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
    lanes.start()
    lanes.q[:], lanes.t[:], lanes.h[:], lanes.mu[:] = Q, T, H, mu
    J, _ = maps.jacobian_stack(model, lanes.q)
    lanes.k1[:] = lifting._velocities(*maps._svd(J), lanes.w)
    lanes.record_start()
    return lanes


def test_stacked_judge_matches_one_lane_judges():
    """One lockstep attempt of 2000 complex_exp lanes against the attempt
    of each lane alone, as a one-lane call.  Each lane is set on the lift
    of its line (the branch of log continued from x0 = 0) at a time in
    [0, 0.95), with step sizes from 1e-4 to 1 and a mu before the step from
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
        row = slice(k, k + 1)
        lane = _lanes_at(model, opts, W[row], Q[row], H[row], T[row], mu_prev[row])
        lane.attempt(np.arange(1))
        alone.append(lane)

    outcomes = stacked.outcomes()
    for k, (got, lane) in enumerate(zip(outcomes, alone)):
        _assert_same_outcome(got, lane.outcomes()[0], k)
    for name in ("t", "h", "mu", "k1", "accepted", "rejected", "work", "running", "length", "h_min", "residual",
                 "max_drift"):
        want = np.concatenate([getattr(lane, name) for lane in alone])
        assert np.array_equal(getattr(stacked, name), want), name
    assert stacked.status == [lane.status[0] for lane in alone]
    rounds = {int(w) for w, taken in zip(stacked.work[:, 1] - 1, stacked.accepted) if taken}
    assert rounds == {1, 2, 3}  # steps taken in every corrector round
    assert (stacked.rejected[:, :2] > 0).any(axis=0).all()  # error and singular rejections
    assert {status.kind for status in stacked.status if status is not None} == {"Escaped"}


def test_next_step_is_grown_with_the_mu_guard():
    """The array step rule of many lanes against the scalar rule of each,
    with Python's floats: grown 5 times after a step the predictor took,
    else scaled by the eighth root (Euler predictor) or the sixteenth root
    (Hermite) of _AIM x_tol over the last round's correction (e, or
    e^3 / e0^2 after one round) up to 5 times, cut by the mu-decay guard
    (mu may at most halve over the next step at the rate it fell) and cut
    to end at t = 1."""
    rng = np.random.default_rng(12)
    K = 20000
    e0, e = 10.0 ** rng.uniform(-6.0, 0.0, K), 10.0 ** rng.uniform(-18.0, -8.0, K)
    x_tol = 1e-8 * rng.uniform(1.0, 10.0, K)
    e[:10] = 0.0
    H, T = 10.0 ** rng.uniform(-8, 0, K), rng.uniform(0.0, 1.0, K)
    mu_prev, mu_new = rng.uniform(size=K), rng.uniform(size=K)
    hermite = rng.uniform(size=K) < 0.5
    lanes = _lanes_at(registry_get("identity_1"), LiftOptions(), np.ones((K, 1)), np.zeros((K, 1)), H,
                      np.zeros(K), mu_prev)
    for r in (0, 1, 2):
        steps = lanes.next_step(H, T, r, e0, e, x_tol, mu_prev, mu_new, hermite).tolist()
        for k, (h, t, a, b, tol, m0, m1, cubic) in enumerate(zip(*(A.tolist() for A in (
                H, T, e0, e, x_tol, mu_prev, mu_new, hermite)))):
            if r == 0:
                want = 5.0 * h
            else:
                last = b if r == 2 else b * b * b / (a * a)
                root = math.sqrt(math.sqrt(math.sqrt(0.03 * tol / max(last, 1e-300))))
                want = h * min(5.0, math.sqrt(root) if cubic else root)
            if m1 < m0:
                want = min(want, 0.5 * h * m1 / max(m0 - m1, 1e-300))
            assert steps[k] == min(want, 1.0 - t), (r, k)
        assert 0 < sum(s == 1.0 - t for s, t in zip(steps, T.tolist())) < K


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_norms_equal_norm_row_by_row(n):
    rng = np.random.default_rng(n)
    D = rng.normal(size=(20000, n)) * 10.0 ** rng.uniform(-160.0, 160.0, (20000, 1))
    D[:10] = 0.0
    D[10:20] = 1e200  # the plain norm overflows; _norm rescales
    D[20:30] = 1e200 * rng.normal(size=(10, n))
    D[30:40, 0] = -1e200
    with np.errstate(over="ignore"):
        got = lifting._row_norms(D)
        assert got.tolist() == [lifting._norm(row) for row in D]
    assert np.isfinite(got).all()


def test_lift_lines_work_counters(monkeypatch):
    """A 64-lane call evaluates f once at x0 (by evaluate) and takes J(x0)
    once (by jacobian); after x0 it evaluates f and J only through stacks,
    one evaluate_stack and one jacobian_stack per corrector round.  Every
    lane counts f(x0), J(x0) and its SVD, and its own rows of each stack:
    the totals of its one-row call."""
    _, model, x0, targets, opts = next(c for c in LOCKSTEP_CASES if c[0] == "graves_complex_exp")
    calls = {name: [] for name in ("evaluate", "jacobian", "evaluate_stack", "jacobian_stack")}

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
    assert len(calls["evaluate_stack"]) == len(calls["jacobian_stack"]) > 1
    assert sum(calls["evaluate_stack"]) == sum(o.stats.evals - 1 for o in batch)
    assert sum(calls["jacobian_stack"]) == sum(o.stats.jacobians - 1 for o in batch)
    assert all(o.stats.evals == o.stats.jacobians == o.stats.svds for o in batch)
    sequential = [lift_line_square(model, x0, w, opts) for w in targets]
    assert [o.stats for o in batch] == [o.stats for o in sequential]


@pytest.mark.parametrize("label, k, stats", [
    ("graves_complex_exp", 1, LiftStats(accepted=6, rejected_error=1, evals=19, jacobians=19, svds=19,
                                        h_min=0.005390305596036978)),
    ("arctan1d", 0, LiftStats(accepted=57, rejected_error=3, rejected_singular=66, evals=216,
                              jacobians=216, svds=216, h_min=2.2612731200193238e-14)),
    ("exp1d", 0, LiftStats(accepted=17, rejected_error=4, rejected_nonfinite=1, evals=64,
                           jacobians=63, svds=63, h_min=0.0019363641608484928)),
    ("nan_beyond_one", 0, LiftStats(accepted=23, rejected_nonfinite=92, evals=116, jacobians=24,
                                    svds=24, h_min=5.090618029004342e-15)),
])
def test_one_row_work_counters(monkeypatch, label, k, stats):
    """A one-row call takes J(x0) by jacobian and f(x0) by evaluate, and
    after x0 only stacks: one evaluate_stack and, for the rows whose f is
    finite, one jacobian_stack per corrector round."""
    _, model, x0, targets, opts = next(c for c in LOCKSTEP_CASES if c[0] == label)
    calls = {"jacobian": 0, "jacobian_stack": 0, "evaluate": 0, "evaluate_stack": 0}

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
    assert calls == {"jacobian": 1, "jacobian_stack": stats.jacobians - 1,
                     "evaluate": 1, "evaluate_stack": stats.evals - 1}


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
