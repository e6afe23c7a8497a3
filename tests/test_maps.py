import numpy as np
import pytest

from globinv.errors import DimensionMismatch, NonFinite, UnknownMap
from globinv.maps import (
    MapModel,
    default_point,
    evaluate,
    evaluate_stack,
    jacobian,
    jacobian_stack,
    linear_map,
    list_map_names,
    registry_entry,
    registry_get,
)

ALL_NAMES = [
    "identity_1",
    "identity_2",
    "identity_3",
    "arctan1d",
    "monotone1d",
    "exp1d",
    "complex_exp",
    "projection2to1",
    "parabola_sub",
    "asinh1d",
]


def _sample_points(n, count, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(scale=2.0, size=(count, n))


def test_evaluate_shapes_and_validation():
    m = registry_get("projection2to1")
    y = evaluate(m, [0.5, 3.0])
    assert y.shape == (1,)
    with pytest.raises(DimensionMismatch):
        evaluate(m, [1.0])
    with pytest.raises(DimensionMismatch):
        evaluate(m, [[1.0, 2.0]])


def test_evaluate_rejects_nonfinite_output():
    m = MapModel(
        name="bad",
        n=1,
        m=1,
        eval_fn=lambda x: np.array([np.inf if x[0] == 0 else 1.0 / x[0]]),
    )
    with pytest.raises(NonFinite):
        evaluate(m, [0.0])


@pytest.mark.parametrize("value", [np.zeros(2), np.zeros((1, 1)), 1.0])
def test_evaluate_rejects_a_value_of_the_wrong_shape(value):
    m = MapModel(name="wrong_shape", n=1, m=1, eval_fn=lambda x: value)
    with pytest.raises(DimensionMismatch, match="map returned shape"):
        evaluate(m, [0.0])


def test_finite_difference_jacobian_matches_analytic():
    # strip the analytic jac and compare the FD fallback against it
    for k, name in enumerate(ALL_NAMES):
        model = registry_get(name)
        stripped = MapModel(
            name=model.name, n=model.n, m=model.m, eval_fn=model.eval_fn
        )
        for x in _sample_points(model.n, 5, seed=100 + k):
            Ja = jacobian(model, x)
            Jf = jacobian(stripped, x)
            scale = max(1.0, float(np.max(np.abs(Ja))))
            assert np.max(np.abs(Ja - Jf)) <= 5e-6 * scale, name


def test_jacobian_shape_validation():
    bad = MapModel(name="badjac", n=2, m=1, eval_fn=lambda x: x[:1], jac_fn=lambda x: np.eye(2))
    with pytest.raises(DimensionMismatch):
        jacobian(bad, [0.0, 0.0])


def test_jacobian_stack_rows_match_jacobian():
    for k, name in enumerate(ALL_NAMES):
        model = registry_get(name)
        stripped = MapModel(name=model.name, n=model.n, m=model.m, eval_fn=model.eval_fn)
        X = _sample_points(model.n, 4, seed=200 + k)
        for m in (model, stripped):
            J, finite = jacobian_stack(m, X)
            assert J.shape == (4, m.m, m.n) and finite.all(), name
            for x, Jx in zip(X, J):
                assert np.array_equal(Jx, jacobian(m, x)), name


def test_jacobian_stack_flags_non_finite_rows():
    exp1d = registry_get("exp1d")
    X = np.array([[0.0], [800.0], [1.0]])  # e^800 overflows
    stripped = MapModel(name="exp_fd", n=1, m=1, eval_fn=exp1d.eval_fn)
    for m in (exp1d, stripped):
        with np.errstate(over="ignore"):
            J, finite = jacobian_stack(m, X)
            with pytest.raises(NonFinite):
                jacobian(m, X[1])
        assert finite.tolist() == [True, False, True]


def test_jacobian_stack_shape_validation():
    bad = MapModel(name="badjac", n=2, m=1, eval_fn=lambda x: x[:1], jac_fn=lambda x: np.eye(2))
    with pytest.raises(DimensionMismatch):
        jacobian_stack(bad, np.zeros((3, 2)))
    good = registry_get("identity_2")
    with pytest.raises(DimensionMismatch):
        jacobian_stack(good, np.zeros(2))
    J, finite = jacobian_stack(good, np.zeros((0, 2)))
    assert J.shape == (0, 2, 2) and finite.shape == (0,)


def test_evaluate_stack_rows_match_evaluate():
    for k, name in enumerate(ALL_NAMES):
        model = registry_get(name)
        X = _sample_points(model.n, 4, seed=300 + k)
        Y, finite = evaluate_stack(model, X)
        assert Y.shape == (4, model.m) and finite.all(), name
        for x, y in zip(X, Y):
            assert np.array_equal(y, evaluate(model, x)), name


def test_evaluate_stack_flags_non_finite_rows():
    exp1d = registry_get("exp1d")
    X = np.array([[0.0], [800.0], [1.0]])  # e^800 overflows
    with np.errstate(over="ignore"):
        Y, finite = evaluate_stack(exp1d, X)
        with pytest.raises(NonFinite):
            evaluate(exp1d, X[1])
    assert finite.tolist() == [True, False, True]


def test_evaluate_stack_shape_validation():
    wide = MapModel(name="wide", n=2, m=1, eval_fn=lambda x: x.copy())
    ragged = MapModel(name="ragged", n=1, m=1, eval_fn=lambda x: x if x[0] < 1.0 else np.zeros(2))
    with pytest.raises(DimensionMismatch, match=r"returned shape \(2,\)"):
        evaluate_stack(wide, np.zeros((3, 2)))
    with pytest.raises(DimensionMismatch, match=r"returned shape \(2,\)"):
        evaluate_stack(ragged, [[0.0], [2.0]])
    good = registry_get("identity_2")
    with pytest.raises(DimensionMismatch):
        evaluate_stack(good, np.zeros(2))
    Y, finite = evaluate_stack(good, np.zeros((0, 2)))
    assert Y.shape == (0, 2) and finite.shape == (0,)


def test_registry_names():
    for name in ALL_NAMES:
        entry = registry_entry(name)
        assert entry.model.name == name
    assert registry_get("identity_64").n == 64
    for bad in ["identity_0", "identity_513", "identity_x", "nope", "linear"]:
        with pytest.raises(UnknownMap):
            registry_entry(bad)
    listed = list_map_names()
    assert "arctan1d" in listed and "identity_2" in listed


def test_registry_entries_are_fresh():
    a = registry_get("arctan1d")
    b = registry_get("arctan1d")
    assert a is not b


def test_linear_map_validation():
    m = linear_map([[2.0, 0.0], [0.0, 0.5]])
    assert m.n == 2 and m.m == 2
    assert m.mu_bound(0.0) == pytest.approx(0.5)
    x = np.array([1.0, 2.0])
    assert np.allclose(evaluate(m, x), [2.0, 1.0])
    with pytest.raises(DimensionMismatch):
        linear_map([1.0, 2.0])
    with pytest.raises(NonFinite):
        linear_map([[np.inf, 0.0], [0.0, 1.0]])


def test_mu_exact_facts_match_indicator():
    """Registered closed-form mu values must agree with the SVD indicator."""
    from globinv.indicators import sur_indicator

    for name in ALL_NAMES:
        entry = registry_entry(name)
        if entry.facts is None or entry.facts.mu_exact is None:
            continue
        for x in _sample_points(entry.model.n, 8, seed=3):
            want = float(entry.facts.mu_exact(x))
            got = sur_indicator(jacobian(entry.model, x))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), name


def test_mu_bound_is_a_lower_bound_on_the_ball():
    """mu_bound(rho) must lower-bound the exact indicator over the ball |x| <= rho."""
    rng = np.random.default_rng(11)
    for name in ALL_NAMES:
        entry = registry_entry(name)
        model = entry.model
        if model.mu_bound is None or entry.facts.mu_exact is None:
            continue
        for rho in [0.3, 1.0, 4.0]:
            bound = float(model.mu_bound(rho))
            pts = rng.uniform(-1.0, 1.0, size=(64, model.n))
            norms = np.linalg.norm(pts, axis=1)
            norms[norms == 0] = 1.0
            pts = pts / norms[:, None] * rho * rng.random((64, 1))
            vals = [float(entry.facts.mu_exact(p)) for p in pts]
            assert bound <= min(vals) + 1e-12, (name, rho)


def test_vanishing_witness_facts():
    for name in ["arctan1d", "exp1d", "complex_exp", "asinh1d"]:
        facts = registry_entry(name).facts
        ks = [1, 16, 256, 4096, 65536]
        mus = [facts.mu_exact(facts.mu_vanishing_witness(k)) for k in ks]
        assert all(b < a or b == 0.0 for a, b in zip(mus, mus[1:])), name
        assert mus[0] > mus[-1] and mus[-1] < 1e-4, name


def test_witness_image_limits():
    # f at the witness points converges to the registered boundary value
    for name in ["arctan1d", "exp1d", "complex_exp"]:
        entry = registry_entry(name)
        lim = entry.facts.witness_image_limit
        dists = []
        for k in [10, 1000, 10**6]:
            pt = entry.facts.mu_vanishing_witness(k)
            img = evaluate(entry.model, np.asarray(pt, dtype=float))
            dists.append(float(np.linalg.norm(img - lim)))
        assert all(b <= a for a, b in zip(dists, dists[1:])), name
        assert dists[-1] < 1e-5, name
    assert registry_entry("asinh1d").facts.witness_image_limit is None


def test_monodromy_fact():
    shift = registry_entry("complex_exp").facts.monodromy_shift
    assert np.allclose(shift, [0.0, 2.0 * np.pi])


def test_model_dimension_validation():
    with pytest.raises(DimensionMismatch):
        MapModel(name="zero", n=0, m=1, eval_fn=lambda x: x)


def test_default_point_is_base_point_or_origin():
    assert default_point(registry_get("identity_3")).tolist() == [0.0, 0.0, 0.0]
    base = np.array([1.0, -2.0])
    shifted = MapModel("shifted", 2, 2, eval_fn=lambda x: x - base, base_point=base)
    point = default_point(shifted)
    assert point.tolist() == [1.0, -2.0]
    point[0] = 5.0  # a copy: the model's base point is untouched
    assert base.tolist() == [1.0, -2.0]
