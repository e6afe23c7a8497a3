import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from globinv import solver
from globinv.certificates import graves_certificate
from globinv.errors import (
    DimensionMismatch,
    LiftAborted,
    LoopNotInImage,
    OutOfRange,
    StrategyMismatch,
)
from globinv.indicators import mu_profile
from globinv.lifting import LiftOptions, lift_line_square
from globinv.maps import MapModel, linear_map, registry_get
from globinv.solver import fibre_enumerate, solve, star_probe, trivialize


def _bisect(f, lo, hi, tol=1e-13):
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# solve


def test_solve_monotone_matches_bisection():
    m = registry_get("monotone1d")
    rep = solve(m, [7.0])
    assert rep.strategy == "Wazewski"
    assert rep.solution is not None
    x_star = _bisect(lambda t: t + 0.5 * np.sin(t) - 7.0, 0.0, 10.0)
    assert abs(rep.solution[0] - x_star) <= 1e-6
    assert rep.residual <= 1e-8
    assert rep.outcome.status.is_complete


def test_solve_arctan_outside_image():
    m = registry_get("arctan1d")
    rep = solve(m, [2.0])
    assert rep.solution is None
    assert rep.outcome.status.kind in ("Singular", "Escaped")


def test_solve_residual_invariant():
    """A reported solution always satisfies |f(x) - y| <= tol on re-evaluation."""
    cases = [
        ("monotone1d", [3.0]),
        ("identity_3", [0.3, -0.2, 1.0]),
        ("parabola_sub", [-3.0]),
        ("asinh1d", [2.5]),
    ]
    for name, y in cases:
        m = registry_get(name)
        rep = solve(m, y)
        assert rep.solution is not None, name
        res = float(np.linalg.norm(m.eval_fn(np.asarray(rep.solution)) - np.asarray(y)))
        assert res <= 1e-8, name


def test_solve_parabola_horizontal_membership():
    m = registry_get("parabola_sub")
    rep = solve(m, [-3.0])
    assert rep.strategy == "Horizontal"
    x = np.asarray(rep.solution)
    assert abs((x[0] - x[1] ** 2) - (-3.0)) <= 1e-8


def test_solve_gradient_flow_on_tall_map():
    tall = MapModel(
        name="embed12",
        n=1,
        m=2,
        eval_fn=lambda x: np.array([x[0], x[0]]),
        jac_fn=lambda x: np.array([[1.0], [1.0]]),
    )
    rep = solve(tall, [1.0, 1.0], x_seed=[0.2])
    assert rep.strategy == "GradientFlow"
    assert rep.flow_verdict is not None and rep.flow_verdict.kind == "converged"
    assert rep.solution is not None
    assert abs(rep.solution[0] - 1.0) <= 1e-6


def test_solve_gradient_flow_unreachable_target():
    tall = MapModel(
        name="embed12",
        n=1,
        m=2,
        eval_fn=lambda x: np.array([x[0], x[0]]),
        jac_fn=lambda x: np.array([[1.0], [1.0]]),
    )
    # (1, 0) is off the diagonal image; the flow stops at the projection
    # x = 1/2, the least-squares minimiser: a critical point, not a solution
    rep = solve(tall, [1.0, 0.0], x_seed=[0.0])
    assert rep.solution is None
    assert rep.flow_verdict is not None
    assert rep.flow_verdict.kind == "converged"
    assert rep.outcome.trajectory.points[-1][0] == pytest.approx(0.5, abs=1e-9)
    assert rep.residual == pytest.approx(np.sqrt(0.5), rel=1e-12)


@st.composite
def _consistent_overdetermined_system(draw):
    """A full-column-rank m x n matrix A (n < m <= 4) and x* of norm
    1e-6 to 1e2; the target y = A x* has the exact solution x*."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n + 1, 4))
    unit = st.floats(-1.0, 1.0)
    A = np.array(draw(st.lists(unit, min_size=m * n, max_size=m * n))).reshape(m, n)
    assume(np.linalg.svd(A, compute_uv=False)[-1] >= 0.05)
    d = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    assume(np.linalg.norm(d) >= 0.1)
    x_star = d / np.linalg.norm(d) * 10.0 ** draw(st.floats(-6.0, 2.0))
    return A, x_star


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_consistent_overdetermined_system())
def test_solve_overdetermined_linear_finds_the_solution(system):
    A, x_star = system
    rep = solve(linear_map(A), A @ x_star)
    assert rep.strategy == "GradientFlow"
    assert rep.solution is not None, rep.flow_verdict
    assert np.linalg.norm(rep.solution - x_star) <= 1e-6 * np.linalg.norm(x_star)


def test_solve_strategy_mismatch():
    proj = registry_get("projection2to1")
    with pytest.raises(StrategyMismatch):
        solve(proj, [1.0], strategy="wazewski")
    tall = MapModel(
        name="embed12",
        n=1,
        m=2,
        eval_fn=lambda x: np.array([x[0], x[0]]),
    )
    with pytest.raises(StrategyMismatch):
        solve(tall, [1.0, 1.0], strategy="horizontal")
    with pytest.raises(StrategyMismatch):
        solve(registry_get("identity_1"), [1.0], strategy="mystery")


def test_solve_strategy_aliases():
    m = registry_get("identity_2")
    for label in ("auto", "wazewski"):
        assert solve(m, [0.5, 0.5], strategy=label).strategy == "Wazewski"
    proj = registry_get("projection2to1")
    assert solve(proj, [1.0], strategy="auto").strategy == "Horizontal"


@pytest.mark.parametrize(
    "call",
    [
        lambda m: solve(m, [1.0, 2.0, 3.0]),
        lambda m: graves_certificate(m, [0.0, 0.0, 0.0], 1.0, mu_profile(m, [0.0, 0.0], 1.0, 16)),
    ],
    ids=["solve_target", "graves_x0"],
)
def test_wrong_shape_vector_raises_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch):
        call(registry_get("identity_2"))


def test_solve_seed_defaults_to_base_point():
    m = registry_get("monotone1d")  # base point 0
    rep = solve(m, [0.0])
    assert rep.x_seed == [0.0]
    assert rep.solution is not None and abs(rep.solution[0]) <= 1e-9


# ---------------------------------------------------------------------------
# star_probe


def test_star_identity_budget_exhausted():
    m = registry_get("identity_2")
    rep = star_probe(m, [0.0, 0.0], t_budget=3.0)
    assert rep.reaches == pytest.approx([3.0] * 4)
    assert set(rep.reasons) == {"BudgetExhausted"}
    rays = rep.to_json_dict()["rays"]
    assert len(rays) == 4 and rays[0]["reason"] == "BudgetExhausted"


def test_star_arctan_half_pi():
    m = registry_get("arctan1d")
    rep = star_probe(m, [0.0], t_budget=2.0)
    assert len(rep.reaches) == 2
    for reach, reason in zip(rep.reaches, rep.reasons):
        assert abs(reach - np.pi / 2) <= 1e-2
        assert reason in ("Singular", "Escaped")


def test_star_exp_asymmetric():
    m = registry_get("exp1d")  # at x=0, image ray down hits 0 at distance 1
    rep = star_probe(m, [0.0], t_budget=2.0)
    by_dir = dict(zip(tuple(d[0] for d in np.asarray(rep.directions)), range(2)))
    down = rep.reaches[by_dir[-1.0]]
    up_reason = rep.reasons[by_dir[1.0]]
    assert abs(down - 1.0) <= 3e-3
    assert up_reason == "BudgetExhausted"


def test_star_budget_consistency():
    """A larger budget never shrinks a reach, and both budgets find the same
    edge: each reach is read off one lift's stop time."""
    m = registry_get("arctan1d")
    small = star_probe(m, [0.0], t_budget=2.0)
    large = star_probe(m, [0.0], t_budget=8.0)
    for a, b in zip(small.reaches, large.reaches):
        assert b >= a - 2 * 1e-4 * 2.0
        assert abs(a - b) <= 2 * (1e-4 * 8.0 + 1e-4 * 2.0)


def _count_lifts(monkeypatch):
    """The number of lanes of each lift_lines call the solver makes; the
    one-row entry points raise, so every lift is counted."""
    calls = []
    lift = solver.lift_lines

    def counted(model, x0, W, opts=None):
        calls.append(len(W))
        return lift(model, x0, W, opts)

    def refused(*args, **kwargs):
        raise RuntimeError("a one-row lift")

    monkeypatch.setattr(solver, "lift_lines", counted)
    monkeypatch.setattr(solver, "lift_line_square", refused)
    return calls


def test_star_one_lift_per_ray(monkeypatch):
    """Each probe is one lift_lines call with one lane per ray, whether a
    ray stops at the edge or finishes the budget; the reach is the stop
    time times the budget, and each ray's outcome is its one-row lift's."""
    calls = _count_lifts(monkeypatch)
    rep = star_probe(registry_get("exp1d"), [0.0], directions=[[-1.0]], t_budget=2.0)
    assert calls == [1]
    assert abs(rep.reaches[0] - 1.0) <= 1e-6
    assert rep.reasons == ("Singular",)
    assert rep.reaches[0] == rep.statuses[0].t * 2.0

    rep = star_probe(registry_get("exp1d"), [0.0], t_budget=2.0)
    assert calls == [1, 2]
    assert rep.reasons == ("BudgetExhausted", "Singular")
    assert rep.reaches[0] == 2.0 and rep.statuses[0].is_complete
    monkeypatch.undo()
    for d, status in zip(rep.directions, rep.statuses):
        assert lift_line_square(registry_get("exp1d"), [0.0], 2.0 * d).status == status


def test_star_huge_budget_finds_edge():
    """A budget far beyond the edge still finds it: the reach is not limited
    to a resolution proportional to the budget."""
    rep = star_probe(registry_get("exp1d"), [0.0], directions=[[-1.0]], t_budget=1e6)
    assert abs(rep.reaches[0] - 1.0) <= 1e-6
    assert rep.reasons == ("Singular",)


@pytest.mark.parametrize("t_budget", [1e160, 1e200])
def test_star_huge_finite_budget_escapes(t_budget):
    """|t_budget d|^2 overflows, yet the lift norms stay finite: each ray of
    the identity leaves the escape ball within a few steps, where an
    infinite |w| gave a zero first step and a stall at reach 0."""
    m = registry_get("identity_2")
    opts = LiftOptions(max_steps=100)
    rep = star_probe(m, [0.0, 0.0], t_budget=t_budget, opts=opts)
    assert rep.reasons == ("Escaped",) * 4
    for d in rep.directions:
        out = lift_line_square(m, [0.0, 0.0], t_budget * d, opts)
        assert out.status.kind == "Escaped"
        assert out.stats.accepted == 13


def test_star_step_failure_reason():
    """A ray whose lift ends StepFailure reports StepFailure, not Singular:
    on complex_exp with a budget of 5 and three steps per lift, both rays
    run out of steps far from any singular boundary.  With the default
    step budget and a budget of 1e160 the +e1 ray finishes the budget (its
    lift ends at the closed-form inverse) and the -e1 ray meets the
    singular edge at the origin."""
    m = registry_get("complex_exp")
    short = star_probe(m, [0.0, 0.0], directions=[[1.0, 0.0], [-1.0, 0.0]], t_budget=5.0,
                       opts=LiftOptions(max_steps=3))
    assert short.reasons == ("StepFailure", "StepFailure")
    assert all(0.0 < t < 1.0 for t in (s.t for s in short.statuses))
    rep = star_probe(m, [0.0, 0.0], directions=[[1.0, 0.0], [-1.0, 0.0]], t_budget=1e160)
    assert [s.kind for s in rep.statuses] == ["Complete", "Singular"]
    assert rep.reasons == ("BudgetExhausted", "Singular")
    assert rep.reaches[0] == 1e160


@pytest.mark.parametrize("t_budget", [1e200, 1e300])
def test_star_edge_reason_does_not_depend_on_the_budget(t_budget):
    """The -e1 ray of complex_exp from (0, 0) meets the singular edge at the
    origin (reach 1) and reads Singular whatever the budget's magnitude;
    under Dormand-Prince a budget of 1e300 read StepFailure."""
    rep = star_probe(registry_get("complex_exp"), [0.0, 0.0], directions=[[-1.0, 0.0]], t_budget=t_budget)
    assert rep.reasons == ("Singular",)
    assert abs(rep.reaches[0] - 1.0) <= 1e-6


def test_star_validation():
    m = registry_get("identity_2")
    with pytest.raises(OutOfRange):
        star_probe(m, [0.0, 0.0], directions=[[0.0, 0.0]])
    with pytest.raises(StrategyMismatch):
        star_probe(registry_get("projection2to1"), [0.0, 0.0])


@pytest.mark.parametrize("t_budget", [0.0, np.nan, np.inf])
def test_star_rejects_a_bad_budget(t_budget):
    # a NaN or infinite budget would make every reach NaN
    with pytest.raises(OutOfRange, match="t_budget"):
        star_probe(registry_get("identity_2"), [0.0, 0.0], t_budget=t_budget)


@pytest.mark.parametrize("direction", [[np.nan, 0.0], [np.inf, 0.0], [np.inf, -np.inf]])
def test_star_rejects_a_non_finite_direction(direction):
    with pytest.raises(OutOfRange, match="direction"):
        star_probe(registry_get("identity_2"), [0.0, 0.0], directions=[[1.0, 0.0], direction])


# ---------------------------------------------------------------------------
# fibre_enumerate


def test_fibre_multistart_single_root():
    m = registry_get("monotone1d")
    seeds = [[float(s)] for s in range(-5, 6)]
    rep = fibre_enumerate(m, [0.0], seeds=seeds)
    assert len(rep.points) == 1
    assert abs(rep.points[0][0]) <= 1e-9
    assert len(rep.monodromy_shifts) == 0
    assert rep.discreteness_gap is None


def test_fibre_multistart_outside_the_image_finds_nothing():
    rep = fibre_enumerate(registry_get("arctan1d"), [1.6], seeds=[[0.0], [1.0]])
    assert rep.points == () and rep.residuals == ()
    assert rep.discreteness_gap is None


def test_fibre_multistart_stops_at_max_points():
    seeds = [[0.0, 2.0 * np.pi * k] for k in range(4)]
    rep = fibre_enumerate(registry_get("complex_exp"), [1.0, 0.0], seeds=seeds, max_points=2)
    assert len(rep.points) == 2
    for k, p in enumerate(rep.points):
        assert np.allclose(p, [0.0, 2.0 * np.pi * k], atol=1e-9)


def test_fibre_loop_complex_exp():
    m = registry_get("complex_exp")
    y = [1.0, 0.0]
    diamond = [[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]  # winds once around 0
    rep = fibre_enumerate(m, y, loop=diamond, max_points=3)
    assert len(rep.points) == 3
    for k, p in enumerate(rep.points):
        assert np.allclose(p, [0.0, 2.0 * np.pi * k], atol=1e-6)
    # each completed traversal shifts the lift by one deck transformation
    assert len(rep.monodromy_shifts) == 2
    for s in rep.monodromy_shifts:
        assert np.allclose(s, [0.0, 2.0 * np.pi], atol=1e-6)
    for r in rep.residuals:
        assert r <= 1e-8
    gap = rep.discreteness_gap
    assert gap is not None and abs(gap - 2.0 * np.pi) <= 1e-3
    d = rep.to_json_dict()
    assert len(d["points"]) == 3 and d["discreteness_gap"] == gap
    assert d["monodromy_shifts"][0] == pytest.approx([0.0, 2.0 * np.pi], abs=1e-6)


def test_fibre_loop_polishes_once_per_segment(monkeypatch):
    """A traversal polishes once per segment, the last one onto y itself,
    and the base point is polished once: no traversal polishes onto y a
    second time."""
    calls = []
    polish = solver._newton_polish

    def counted(model, x, y):
        calls.append(np.array(y))
        return polish(model, x, y)

    monkeypatch.setattr(solver, "_newton_polish", counted)
    diamond = [[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]  # and back to y: four segments
    rep = fibre_enumerate(registry_get("complex_exp"), [1.0, 0.0], loop=diamond, max_points=6)
    assert len(rep.points) == 6 and len(rep.monodromy_shifts) == 5
    assert len(calls) == 1 + 5 * 4
    assert all(np.array_equal(y, [1.0, 0.0]) for y in calls[::4])  # the base, then each traversal's end


def test_fibre_loop_trivial_monodromy():
    m = registry_get("identity_2")
    rep = fibre_enumerate(m, [0.5, 0.5], loop=[[2.0, 0.0], [0.0, 2.0]], max_points=4)
    assert len(rep.points) == 1
    assert len(rep.monodromy_shifts) == 1
    assert np.linalg.norm(rep.monodromy_shifts[0]) <= 1e-8


def test_fibre_loop_not_in_image():
    m = registry_get("exp1d")
    with pytest.raises(LoopNotInImage):
        fibre_enumerate(m, [-1.0], loop=[[1.0], [2.0]])


def test_fibre_loop_first_segment_fails():
    # arctan never reaches 2, so the first segment of the loop cannot be lifted
    with pytest.raises(LoopNotInImage, match="first segment"):
        fibre_enumerate(registry_get("arctan1d"), [0.0], loop=[[2.0]])


def test_fibre_loop_later_segment_failure_ends_the_enumeration():
    # 0 -> 1 lifts, 1 -> 2 leaves the image of arctan
    rep = fibre_enumerate(registry_get("arctan1d"), [0.0], loop=[[1.0], [2.0]])
    assert len(rep.points) == 1 and abs(rep.points[0][0]) <= 1e-12
    assert rep.monodromy_shifts == ()


def test_fibre_argument_validation():
    m = registry_get("identity_1")
    with pytest.raises(OutOfRange):
        fibre_enumerate(m, [0.0])
    with pytest.raises(OutOfRange):
        fibre_enumerate(m, [0.0], seeds=[[0.0]], loop=[[1.0]])
    with pytest.raises(StrategyMismatch):
        fibre_enumerate(registry_get("projection2to1"), [0.0], loop=[[1.0], [2.0]])


@pytest.mark.parametrize("y, loop, error", [
    # a 1-vector y was broadcast against the 2-D loop: 8 "fibre points" over (1, 1)
    ([1.0], [[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], DimensionMismatch),
    ([1.0, 0.0], [[0.0, 1.0], [-1.0], [0.0, -1.0]], DimensionMismatch),
    ([1.0, 0.0], [[0.0, 1.0], [-1.0, 0.0, 2.0], [0.0, -1.0]], DimensionMismatch),
    ([np.nan, 0.0], [[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], OutOfRange),
    ([1.0, 0.0], [[0.0, 1.0], [-1.0, np.inf], [0.0, -1.0]], OutOfRange),
])
def test_fibre_loop_checks_its_points(y, loop, error):
    with pytest.raises(error, match="fibre_enumerate"):
        fibre_enumerate(registry_get("complex_exp"), y, loop=loop, x_seed=[0.3, 0.7])


def test_fibre_empty_loop_is_rejected():
    with pytest.raises(OutOfRange, match="empty loop"):
        fibre_enumerate(registry_get("identity_1"), [0.0], loop=[])


def test_fibre_max_points_truncates():
    m = registry_get("complex_exp")
    diamond = [[0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    rep = fibre_enumerate(m, [1.0, 0.0], loop=diamond, max_points=2)
    assert len(rep.points) == 2


def test_fibre_seeds_keep_distinct_roots():
    # f(x) = x^3 - 3x maps three points to 0
    cubic = MapModel(
        name="cubic",
        n=1,
        m=1,
        eval_fn=lambda x: np.array([x[0] ** 3 - 3.0 * x[0]]),
        jac_fn=lambda x: np.array([[3.0 * x[0] ** 2 - 3.0]]),
    )
    rep = fibre_enumerate(cubic, [0.0], seeds=[[-2.0], [0.2], [2.0]])
    got = sorted(p[0] for p in rep.points)
    assert np.allclose(got, [-np.sqrt(3.0), 0.0, np.sqrt(3.0)], atol=1e-8)


@pytest.mark.parametrize("outside", ["nan", "raise"])
def test_newton_polish_propagates_map_errors(outside):
    """A trial step with a non-finite value is halved; an error raised by
    the map is not a bad point and propagates."""
    def f(x):
        if abs(x[0]) <= 1.6:
            return np.arctan(x)
        if outside == "raise":
            raise ValueError("outside the domain")
        return np.full(1, np.nan)

    m = MapModel(name="arctan_bounded", n=1, m=1, eval_fn=f,
                 jac_fn=lambda x: np.array([[1.0 / (1.0 + x[0] ** 2)]]))
    # the full Newton step from 1.5 lands at -1.69
    if outside == "raise":
        with pytest.raises(ValueError, match="outside the domain"):
            solver._newton_polish(m, np.array([1.5]), np.array([0.0]))
    else:
        x, res = solver._newton_polish(m, np.array([1.5]), np.array([0.0]))
        assert abs(x[0]) <= 1e-12 and res <= 1e-12


def test_newton_polish_halves_a_step_that_raises_the_residual():
    """From 1.5 the full Newton step for arctan(x) = 0 lands at -1.69, where
    |arctan| is larger; the polish halves it and still reaches the root."""
    arctan = registry_get("arctan1d")
    visited = []

    def f(x):
        visited.append(float(x[0]))
        return arctan.eval_fn(x)

    m = MapModel(name="arctan_spy", n=1, m=1, eval_fn=f, jac_fn=arctan.jac_fn)
    x, res = solver._newton_polish(m, np.array([1.5]), np.array([0.0]))
    assert (x[0], res) == (0.0, 0.0)
    assert visited[1] == pytest.approx(-1.694, abs=1e-3)
    assert visited[2] == pytest.approx(0.5 * (visited[0] + visited[1]), abs=1e-12)


# ---------------------------------------------------------------------------
# trivialize


def test_trivialize_projection():
    m = registry_get("projection2to1")
    pairs = trivialize(m, [0.0], [[0.5, 3.0]])
    (image_pt, fibre_pt), = (pairs[0],)
    assert image_pt == pytest.approx([0.5])
    assert np.allclose(fibre_pt, [0.0, 3.0], atol=1e-9)


def test_trivialize_parabola():
    m = registry_get("parabola_sub")
    pairs = trivialize(m, [0.0], [[0.25, 0.0], [1.25, 1.0]])
    for (img, fib), src in zip(pairs, ([0.25, 0.0], [1.25, 1.0])):
        assert img == pytest.approx([m.eval_fn(np.asarray(src))[0]])
        fib = np.asarray(fib)
        assert abs(fib[0] - fib[1] ** 2) <= 1e-8  # lands on the zero fibre


def test_trivialize_continuity():
    m = registry_get("parabola_sub")
    p = [0.3, 0.7]
    q = [0.3 + 1e-3, 0.7]
    (_, fp), (_, fq) = trivialize(m, [0.0], [p, q])
    assert np.linalg.norm(np.asarray(fp) - np.asarray(fq)) <= 1e-2


def test_trivialize_requires_submersion_shape():
    with pytest.raises(StrategyMismatch):
        trivialize(registry_get("identity_2"), [0.0, 0.0], [[1.0, 1.0]])


def test_trivialize_aborts_outside_image():
    # first coordinate moves through arctan, second is free; pulling the
    # image value to 2 leaves the arctan range and the lift must abort
    sub = MapModel(
        name="arctan_sub",
        n=2,
        m=1,
        eval_fn=lambda x: np.array([np.arctan(x[0])]),
        jac_fn=lambda x: np.array([[1.0 / (1.0 + x[0] ** 2), 0.0]]),
    )
    with pytest.raises(LiftAborted) as exc:
        trivialize(sub, [2.0], [[0.0, 1.0]])
    assert exc.value.outcome is not None
    assert exc.value.outcome.status.kind in ("Singular", "Escaped")
