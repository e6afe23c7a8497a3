import numpy as np
import pytest
from scipy.integrate import quad

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
    path_length,
    weighted_path_length,
)
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
    # one Jacobian and one SVD at x0, then six per attempt (FSAL)
    attempts = st.accepted + st.rejected_error
    assert st.jacobians == st.svds == 1 + 6 * attempts
    # f(x0), then f at every candidate that passed the error test
    assert st.evals == 1 + st.accepted
    steps = np.diff(out.trajectory.times)
    assert st.h_min == pytest.approx(float(np.min(steps)), rel=1e-12)


def test_lift_stats_rejections_by_cause():
    edge = lift_line_square(registry_get("arctan1d"), [0.0], [2.0])
    assert edge.status.kind == "Singular"
    assert edge.stats.rejected_singular > 0
    # e^x overflows in the stages of a lift that ends just below log(max
    # float); the end misses the 1.7e300 tolerance (residual about 5.6e300)
    over = lift_line_square(registry_get("exp1d"), [705.0], [1.7e308], LiftOptions(r_escape=None))
    assert over.status == LiftStatus.step_failure(1.0) and np.isfinite(over.target_residual)
    assert over.stats.rejected_nonfinite > 0
    assert over.stats.svds < over.stats.jacobians  # no SVD of a non-finite Jacobian
    zero = lift_line_square(registry_get("identity_1"), [2.0], [0.0])
    assert zero.stats == LiftStats(evals=1, jacobians=1, svds=1)


@pytest.mark.parametrize("lift", [
    lambda m, w: lift_line_square(m, [0.0], w),
    lambda m, w: lift_lines(m, [0.0], [w, [1.0]])[0],
], ids=["single", "lockstep"])
def test_bad_first_velocity_ends_the_lift(lift):
    out = lift(registry_get("identity_1"), [np.nan])
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


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_drift_from_the_line_ends_the_lift(entry):
    # q(t) = 4t crosses the jump at t = 0.25; the step across it drifts 0.01
    out = ENTRY_POINTS[entry](_floor_step(), [0.0], [4.0])
    assert out.status.kind == "StepFailure"
    assert 0.25 < out.status.t < 0.5
    assert out.max_drift == pytest.approx(0.01, rel=1e-9)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_finite_value_rejects_the_step(entry):
    # q(t) = 2t leaves the finite part at t = 0.5; every step beyond is rejected
    out = ENTRY_POINTS[entry](_nan_beyond_one(), [0.0], [2.0])
    assert out.status.kind == "StepFailure"
    assert out.status.t == pytest.approx(0.5, abs=1e-9)
    assert out.stats.rejected_nonfinite > 0
    assert out.stats.evals == 1 + out.stats.accepted + out.stats.rejected_nonfinite


def test_gradient_flow_rejects_a_non_finite_target():
    m = linear_map([[1.0], [2.0]])
    with pytest.raises(NonFinite):
        gradient_flow(m, [0.0], [np.nan, 0.0])


@pytest.mark.parametrize("name, x0, y, max_steps, verdict", [
    # residual at root scale
    ("identity_1", [1e-9], [0.0], 1, "converged"),
    # F plateaus at 1/2 below the image of e^x, and the gradient has vanished
    ("exp1d", [0.0], [-1.0], 200, "ps_candidate"),
    ("monotone1d", [5.0], [0.0], 1, "diverged"),
])
def test_gradient_flow_verdict_when_the_budget_runs_out(name, x0, y, max_steps, verdict):
    out, got = gradient_flow(registry_get(name), x0, y, LiftOptions(max_steps=max_steps))
    assert out.status.kind == "StepFailure"
    assert out.stats.accepted == max_steps
    assert got.kind == verdict


def test_gradient_flow_stats():
    out, _ = gradient_flow(registry_get("monotone1d"), np.array([2.0]), np.array([0.0]))
    st = out.stats
    assert st.accepted == out.trajectory.times.size - 1
    # every stage evaluates f, J and one SVD
    assert st.evals == st.jacobians == st.svds == 1 + 6 * (st.accepted + st.rejected_error)


def test_gradient_flow_rejects_a_step_that_raises_F():
    """At these loose tolerances some attempts pass the error test yet raise
    F; rejecting them keeps the recorded F nonincreasing."""
    A, y = np.array([[1.0], [2.0]]), np.array([1.0, -1.0])
    out, verdict = gradient_flow(linear_map(A), [5.0], y, LiftOptions(rel_tol=0.01, abs_tol=0.01))
    assert verdict.kind == "converged"
    assert out.trajectory.points[-1][0] == pytest.approx(-0.2, abs=1e-6)
    F = 0.5 * np.sum((out.trajectory.points @ A.T - y) ** 2, axis=1)
    assert np.all(F[1:] <= F[:-1] + 1e-12 * (1.0 + F[:-1]))


def test_flow_verdict_json():
    assert FlowVerdict("converged", level=0.0, grad_norm=1e-13).to_json_dict() == {
        "kind": "converged", "level": 0.0, "grad_norm": 1e-13,
    }
    assert FlowVerdict("diverged").to_json_dict()["level"] is None


# ---------------------------------------------------------------------------
# lockstep lifting: every lane matches its sequential lift


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
    # non-finite stages where e^x overflows just below log(max float)
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
    ("finite_difference", _fd_complex_exp(), [0.0, 0.0], _lane_targets(2, 0.9), None),
    # the drift stop and a rejected non-finite f(q5), next to Complete lanes
    ("drift", _floor_step(), [0.0], [[4.0], [0.5], [-4.0]], None),
    ("nan_beyond_one", _nan_beyond_one(), [0.0], [[2.0], [0.5], [-3.0]], None),
    # every lane leaves each attempt at the same stage, with a non-finite
    # stage point (slopes near the float limit), Jacobian or velocity
    ("all_points_non_finite", _jacobian_off_x0(100.0, 1e-308), [100.0], [[1.0], [-1.0], [1.5]],
     LiftOptions(mu_floor=0.0)),
    ("all_jacobians_non_finite", _jacobian_off_x0(0.0, np.nan), [0.0], [[1.0], [-2.0]], None),
    ("all_velocities_non_finite", _jacobian_off_x0(100.0, 1e-308), [100.0], [[10.0], [-20.0]],
     LiftOptions(mu_floor=0.0)),
]


@pytest.mark.parametrize(
    "label, model, x0, targets, opts", LOCKSTEP_CASES, ids=[c[0] for c in LOCKSTEP_CASES]
)
def test_lift_lines_match_sequential_lifts(label, model, x0, targets, opts):
    lift = lift_line_square if model.n == model.m else lift_line_horizontal
    batch = lift_lines(model, x0, targets, opts)
    assert len(batch) == len(targets)
    for w, got in zip(targets, batch):
        want = lift(model, x0, w, opts)
        assert got.status.kind == want.status.kind, w
        assert got.status.t == want.status.t, w
        assert got.trajectory.times.size == want.trajectory.times.size, w
        assert got.stats == want.stats, w
        np.testing.assert_allclose(got.trajectory.points[-1], want.trajectory.points[-1], rtol=1e-12)
        for a, b in [
            (got.target_residual, want.target_residual),
            (got.trajectory.length, want.trajectory.length),
            (got.max_drift, want.max_drift),
        ]:
            assert a == pytest.approx(b, rel=1e-12, abs=0.0), w


def test_lift_lines_cover_every_terminal_status():
    kinds = {
        out.status.kind
        for _, model, x0, targets, opts in LOCKSTEP_CASES
        for out in lift_lines(model, x0, targets, opts)
    }
    assert kinds == {"Complete", "Singular", "Escaped", "StepFailure"}


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


def test_path_length_oracle():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 8.0]])
    traj = LiftTrajectory(
        times=np.array([0.0, 0.5, 1.0]),
        points=pts,
        mu_values=np.ones(3),
        length=9.0,
    )
    assert path_length(traj) == pytest.approx(9.0)
    single = LiftTrajectory(
        times=np.array([0.0]), points=np.zeros((1, 2)), mu_values=np.ones(1), length=0.0
    )
    with pytest.raises(TooFewPoints):
        path_length(single)


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
