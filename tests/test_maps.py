import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import globinv
from globinv.errors import DimensionMismatch, NonFinite, UnknownMap
from globinv.maps import (
    _SVD_HI,
    _SVD_LO,
    MapModel,
    _finite_rows,
    _norms,
    _svd,
    _svd1,
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


@pytest.mark.parametrize("shape", [(1, 1), (1, 1, 1)])
def test_one_entry_stacks_are_checked_as_arrays_are(shape):
    """_finite_rows answers a one-entry stack with one Python test: the
    mask the array path gives (None where the row is finite), on +-0,
    subnormals, the float limits, +-inf and NaN."""
    for v in (0.0, -0.0, 5e-324, -2.5e-310, 1e-300, 1.7976931348623157e308, -1.0, math.inf, -math.inf, math.nan):
        Y = np.full(shape, v)
        want = np.isfinite(Y).reshape(1, -1).all(axis=1)
        got = _finite_rows(Y)
        assert (got is None) if want.all() else (got.dtype == bool and got.tolist() == want.tolist()), v


def test_evaluate_stack_flags_non_finite_rows():
    exp1d = registry_get("exp1d")
    X = np.array([[0.0], [800.0], [1.0]])  # e^800 overflows
    with np.errstate(over="ignore"):
        Y, finite = evaluate_stack(exp1d, X)
        with pytest.raises(NonFinite):
            evaluate(exp1d, X[1])
    assert finite.tolist() == [True, False, True]


def test_stacks_flag_rows_where_the_map_raises_non_finite():
    """A map that raises NonFinite beyond x = 1 gives a NaN row there, in
    evaluate_stack, in the finite-difference jacobian_stack and, for a
    jac_fn that raises, in jacobian_stack; any other error propagates.
    evaluate and jacobian, the one-row stacks, raise NonFinite naming the
    point."""
    def f(x):
        if x[0] > 1.0:
            raise NonFinite("outside the domain")
        return x.copy()

    def jac(x):
        if x[0] > 1.0:
            raise NonFinite("outside the domain")
        return np.ones((1, 1))

    X = np.array([[0.0], [2.0], [0.5]])
    Y, finite = evaluate_stack(MapModel(name="raises", n=1, m=1, eval_fn=f), X)
    assert finite.tolist() == [True, False, True] and np.isnan(Y[1]).all()
    for m in (MapModel(name="raises_fd", n=1, m=1, eval_fn=f),
              MapModel(name="raises_jac", n=1, m=1, eval_fn=lambda x: x.copy(), jac_fn=jac)):
        J, finite = jacobian_stack(m, X)
        assert finite.tolist() == [True, False, True] and np.isnan(J[1]).all(), m.name
        with pytest.raises(NonFinite, match=r"jacobian\(raises_(fd|jac)\): non-finite derivative at x=array\(\[2\.\]\)"):
            jacobian(m, X[1])
    with pytest.raises(NonFinite, match=r"evaluate\(raises\): non-finite value at x=array\(\[2\.\]\)"):
        evaluate(MapModel(name="raises", n=1, m=1, eval_fn=f), X[1])

    def boom(x):
        raise ValueError("not a number")

    with pytest.raises(ValueError):
        evaluate_stack(MapModel(name="boom", n=1, m=1, eval_fn=boom), X)


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


# ---------------------------------------------------------------------------
# stacked maps


def _ref_complex_exp_eval(x):
    ex = np.exp(x[0])
    return np.array([ex * np.cos(x[1]), ex * np.sin(x[1])])


def _ref_complex_exp_jac(x):
    ex = np.exp(x[0])
    c, s = np.cos(x[1]), np.sin(x[1])
    return np.array([[ex * c, -ex * s], [ex * s, ex * c]])


_A3 = np.random.default_rng(5).normal(size=(3, 3))
_A23 = np.random.default_rng(6).normal(size=(2, 3))

# The registry's functions as they were written before they were stacked,
# one point at a time (x[0] ** 2 squares a numpy scalar, A @ x is one
# matrix-vector product).  The stacked functions must equal them bit for bit.
REFERENCE = {
    "identity_1": (lambda x: x.copy(), lambda x: np.eye(1)),
    "identity_3": (lambda x: x.copy(), lambda x: np.eye(3)),
    "linear_3x3": (lambda x: _A3 @ x, lambda x: _A3.copy()),
    "linear_2x3": (lambda x: _A23 @ x, lambda x: _A23.copy()),
    "arctan1d": (lambda x: np.arctan(x), lambda x: np.array([[1.0 / (1.0 + x[0] ** 2)]])),
    "monotone1d": (lambda x: x + 0.5 * np.sin(x),
                   lambda x: np.array([[1.0 + 0.5 * np.cos(x[0])]])),
    "exp1d": (lambda x: np.exp(x), lambda x: np.array([[np.exp(x[0])]])),
    "complex_exp": (_ref_complex_exp_eval, _ref_complex_exp_jac),
    "projection2to1": (lambda x: np.array([x[0]]), lambda x: np.array([[1.0, 0.0]])),
    "parabola_sub": (lambda x: np.array([x[0] - x[1] ** 2]),
                     lambda x: np.array([[1.0, -2.0 * x[1]]])),
    "asinh1d": (lambda x: np.arcsinh(x),
                lambda x: np.array([[1.0 / np.sqrt(1.0 + x[0] ** 2)]])),
}


def _reference_model(name):
    if name == "linear_3x3":
        return linear_map(_A3)
    if name == "linear_2x3":
        return linear_map(_A23)
    return registry_get(name)


def _pin_points(n, seed):
    """20,000 seeded points of magnitudes from 1e-8 to 1e8, then every
    point whose coordinates are 0, +-1e-150, +-1e150 or +-1e300."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(20000, n)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(20000, n))
    special = np.array([0.0, 1e-150, -1e-150, 1e150, -1e150, 1e300, -1e300])
    grid = np.stack(np.meshgrid(*[special] * min(n, 2), indexing="ij"), axis=-1).reshape(-1, min(n, 2))
    extra = np.zeros((len(grid), n))
    extra[:, : grid.shape[1]] = grid
    return np.concatenate([X, extra])


def _bits(a):
    """The bytes of a float array with every NaN made the same NaN."""
    a = np.asarray(a, dtype=float)
    return np.where(np.isnan(a), np.nan, a).tobytes()


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_stacked_registry_maps_equal_the_row_functions_bit_for_bit(name):
    """One stacked call gives, row for row, the bits of the per-row
    functions; evaluate() and jacobian() at a point give that row too."""
    model = _reference_model(name)
    ref_eval, ref_jac = REFERENCE[name]
    assert model.stacked
    X = _pin_points(model.n, seed=len(name))
    with np.errstate(all="ignore"):
        Y, Y_finite = evaluate_stack(model, X)
        J, J_finite = jacobian_stack(model, X)
        assert _bits(Y) == _bits([ref_eval(x) for x in X]), name
        assert _bits(J) == _bits([ref_jac(x) for x in X]), name
        for x, y, ok in zip(X, Y, Y_finite):
            if ok:
                assert _bits(evaluate(model, x)) == _bits(y), (name, x)
            else:
                with pytest.raises(NonFinite):
                    evaluate(model, x)
        for x, Jx, ok in zip(X, J, J_finite):
            if ok:
                assert _bits(jacobian(model, x)) == _bits(Jx), (name, x)
            else:
                with pytest.raises(NonFinite):
                    jacobian(model, x)
        # a single (n,) point still works when the functions are called directly
        assert _bits(model.eval_fn(X[0])) == _bits(ref_eval(X[0]))
        assert _bits(model.jac_fn(X[0])) == _bits(ref_jac(X[0]))


def test_stacked_finite_difference_rows_equal_one_row_calls():
    """Row k of a K-row finite-difference stack equals the one-row finite
    difference at row k bit for bit, for a stacked and a per-row map, also
    where the map raises NonFinite (beyond x_0 = 1)."""
    ce = registry_get("complex_exp")

    def f(x):
        if np.any(x[..., 0] > 1.0):
            raise NonFinite("outside the domain")
        return ce.eval_fn(x)

    X = np.array([[0.0, 0.0], [0.3, -1.2], [2.0, 0.5], [-4.0, 1e6], [1.0 - 1e-9, 3.0]])
    for stacked in (True, False):
        for fn in (ce.eval_fn, f):
            model = MapModel(name="fd", n=2, m=2, eval_fn=fn, stacked=stacked)
            J, finite = jacobian_stack(model, X)
            for k, x in enumerate(X):
                one, one_finite = jacobian_stack(model, X[k:k + 1])
                assert _bits(J[k]) == _bits(one[0]) and finite[k] == one_finite[0]
                if finite[k]:
                    assert _bits(jacobian(model, x)) == _bits(J[k])
                else:
                    with pytest.raises(NonFinite):
                        jacobian(model, x)
            assert finite.tolist() == [True, True, fn is ce.eval_fn, True, fn is ce.eval_fn]


def _half_line(x):
    """(x, 2x) on x < 1 and NaN beyond, over stacks."""
    y = np.empty((*x.shape[:-1], 2))
    y[..., 0] = np.where(x[..., 0] < 1.0, x[..., 0], np.nan)
    y[..., 1] = 2.0 * x[..., 0]
    return y


def test_stacked_user_map_shape_is_checked_once_per_stack():
    wide = MapModel(name="wide", n=1, m=1, eval_fn=lambda x: np.zeros((*x.shape[:-1], 2)),
                    jac_fn=lambda x: np.zeros((*x.shape[:-1], 2, 1)), stacked=True)
    with pytest.raises(DimensionMismatch, match=r"returned shape \(3, 2\), expected \(3, 1\)"):
        evaluate_stack(wide, np.zeros((3, 1)))
    with pytest.raises(DimensionMismatch, match=r"returned shape \(3, 2, 1\), expected \(3, 1, 1\)"):
        jacobian_stack(wide, np.zeros((3, 1)))
    with pytest.raises(DimensionMismatch, match=r"map returned shape \(1, 2\), expected \(1, 1\)"):
        evaluate(wide, [0.0])
    with pytest.raises(DimensionMismatch, match=r"returned shape \(1, 2, 1\), expected \(1, 1, 1\)"):
        jacobian(wide, [0.0])
    # a function that ignores the stack and returns one row
    flat = MapModel(name="flat", n=1, m=1, eval_fn=lambda x: np.zeros(1), stacked=True)
    with pytest.raises(DimensionMismatch, match=r"returned shape \(1,\), expected \(3, 1\)"):
        evaluate_stack(flat, np.zeros((3, 1)))
    Y, finite = evaluate_stack(wide, np.zeros((0, 1)))
    assert Y.shape == (0, 1) and finite.shape == (0,)


def test_stacked_user_map_non_finite_rows():
    """A NaN row is cleared in the mask while the others stay finite;
    evaluate and jacobian raise NonFinite at that point; a stacked function
    that raises NonFinite for one row gives exactly that row NaN, and
    evaluate and jacobian (by jac_fn or the finite difference) raise
    NonFinite naming that point."""
    calls = []

    def jac(x):
        calls.append(x.shape)
        return np.broadcast_to([[1.0], [2.0]], (*x.shape[:-1], 2, 1)) * np.where(
            x[..., :1, None] < 1.0, 1.0, np.nan)

    model = MapModel(name="half_line", n=1, m=2, eval_fn=_half_line, jac_fn=jac, stacked=True)
    X = np.array([[0.0], [2.0], [0.5]])
    Y, finite = evaluate_stack(model, X)
    assert finite.tolist() == [True, False, True]
    assert Y[[0, 2]].tolist() == [[0.0, 0.0], [0.5, 1.0]]
    J, finite = jacobian_stack(model, X)
    assert finite.tolist() == [True, False, True] and calls == [(3, 1)]
    with pytest.raises(NonFinite):
        evaluate(model, X[1])
    with pytest.raises(NonFinite):
        jacobian(model, X[1])

    def raises(x):
        calls.append(x.shape)
        if np.any(x[..., 0] > 1.0):
            raise NonFinite("outside the domain")
        return x.copy()

    calls.clear()
    Y, finite = evaluate_stack(MapModel(name="raises", n=1, m=1, eval_fn=raises, stacked=True), X)
    assert finite.tolist() == [True, False, True] and np.isnan(Y[1]).all()
    assert Y[[0, 2], 0].tolist() == [0.0, 0.5]
    assert calls == [(3, 1), (1, 1), (1, 1), (1, 1)]  # the stack, then each row alone
    for m in (MapModel(name="raises", n=1, m=1, eval_fn=raises, stacked=True),
              MapModel(name="raises_jac", n=1, m=1, eval_fn=raises, jac_fn=raises, stacked=True)):
        with pytest.raises(NonFinite, match=r"evaluate\(raises(_jac)?\): non-finite value at x=array\(\[2\.\]\)"):
            evaluate(m, X[1])
        with pytest.raises(NonFinite, match=r"jacobian\(raises(_jac)?\): non-finite derivative at x=array\(\[2\.\]\)"):
            jacobian(m, X[1])


def test_stacked_map_without_jacobian_uses_the_stacked_finite_difference():
    calls = []

    def f(x):
        calls.append(x.shape)
        return _half_line(x)

    model = MapModel(name="half_line_fd", n=1, m=2, eval_fn=f, stacked=True)
    X = np.array([[0.0], [2.0], [0.5]])
    J, finite = jacobian_stack(model, X)
    assert calls == [(6, 1)]  # 2n points per row, one call
    assert finite.tolist() == [True, False, True]
    assert np.allclose(J[[0, 2]], [[[1.0], [2.0]]] * 2)
    assert _bits(jacobian(model, X[2])) == _bits(J[2])
    with pytest.raises(NonFinite):
        jacobian(model, X[1])


def _assert_svd_is_lapack(J):
    """_svd(J) is np.linalg.svd(J, full_matrices=False) bit for bit, and
    _svd(J, compute_uv=False) is np.linalg.svd(J, compute_uv=False)."""
    for got, want in [*zip(_svd(J), np.linalg.svd(J, full_matrices=False)),
                      (_svd(J, compute_uv=False), np.linalg.svd(J, compute_uv=False))]:
        assert got.shape == want.shape and got.dtype == want.dtype
        assert _bits(got) == _bits(want), J.ravel()[:8]


def test_svd_window_lies_inside_lapack_exact_range():
    """LAPACK rescales a 1x1 matrix outside about [6.5e-139, 1.59e138] and
    then no longer returns |a| exactly; the closed-form window must stay
    inside that range."""
    assert 6.6e-139 < _SVD_LO <= 1e-100 and 1e100 <= _SVD_HI < 1.58e138


def test_svd_of_one_by_one_stacks_is_lapack_bit_for_bit():
    """200,000 signed draws over 1e-300..1e300: as one-row stacks (every
    tenth for s alone), as the floats of _svd1 on each one-row stack, as
    stacks of 16 and of 64 neighbours in magnitude (some all inside the
    window, some across an edge, some outside) and as one stack of the
    draws inside the window.  Outside about 1e+-138 LAPACK's s differs
    from |a| in about one draw in eight, so a window widened that far
    fails here."""
    rng = np.random.default_rng(17)
    a = rng.choice([-1.0, 1.0], 200_000) * 10.0 ** rng.uniform(-300.0, 300.0, 200_000)
    J = a[:, None, None]
    U, s, Vt = np.linalg.svd(J, full_matrices=False)  # each row as its one-row call
    assert (s[:, 0] != np.abs(a)).sum() > 1000  # LAPACK's rescaling does show
    rows = [_svd(J[k:k + 1]) for k in range(len(a))]
    for got, want in zip(zip(*rows), (U, s, Vt)):
        assert _bits(np.concatenate(got)) == _bits(want)
    floats = [_svd1(J[k:k + 1]) for k in range(len(a))]
    assert _bits(floats) == _bits(np.column_stack([U[:, 0, 0], s[:, 0], Vt[:, 0, 0]]))
    s_only = np.concatenate([_svd(J[k:k + 1], compute_uv=False) for k in range(0, len(a), 10)])
    assert _bits(s_only) == _bits(s[::10])
    by_size = np.argsort(np.abs(a))
    for size in (16, 64):  # a few rows are tested one by one, more at once
        stacks = [by_size[k:k + size] for k in range(0, len(a), size)]
        got = [_svd(J[rows]) for rows in stacks]
        for part, want in zip(zip(*got), (U, s, Vt)):
            assert _bits(np.concatenate(part)) == _bits(want[by_size])
        s_only = np.concatenate([_svd(J[rows], compute_uv=False) for rows in stacks])
        assert _bits(s_only) == _bits(s[by_size])
    inside = J[(_SVD_LO <= np.abs(a)) & (np.abs(a) <= _SVD_HI)]
    assert len(inside) > 60_000
    _assert_svd_is_lapack(inside)
    _assert_svd_is_lapack(inside[:, 0])  # 2-D 1x1 matrices one at a time
    for x in inside[:100]:
        _assert_svd_is_lapack(x)


def test_svd_of_one_by_one_edge_values():
    """Zeros, the least subnormal, the window edges and their neighbours on
    either side, and infinities: each alone, in 2-D and in one stack."""
    edges = []
    for edge in (_SVD_LO, _SVD_HI):
        edges += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]
    values = np.array([0.0, 5e-324, 1e-100, 1e100, np.inf, *edges, 2.0])
    values = np.concatenate([values, -values])
    for v in values:
        _assert_svd_is_lapack(np.array([[[v]]]))
        _assert_svd_is_lapack(np.array([[v]]))
    _assert_svd_is_lapack(values[:, None, None])
    _assert_svd_is_lapack(np.array(edges)[:, None, None])  # all inside but the outer neighbours


def test_svd_of_a_mixed_stack_equals_its_one_row_calls():
    """A stack with one row outside the window goes to LAPACK as a whole;
    each row still equals its one-row result (the closed form inside)."""
    J = np.array([3.0, -0.5, 1e120, 2e-7, -7e99])[:, None, None]
    U, s, Vt = _svd(J)
    for k in range(len(J)):
        for got, want in zip((U[k], s[k], Vt[k]), _svd(J[k:k + 1])):
            assert _bits(got) == _bits(want[0])
        assert _bits(_svd(J, compute_uv=False)[k]) == _bits(_svd(J[k:k + 1], compute_uv=False)[0])
    _assert_svd_is_lapack(J)


def _lapack_calls(monkeypatch) -> list:
    """The stacks handed to numpy's LAPACK SVD gufuncs from here on (each
    svd* attribute of numpy.linalg._umath_linalg, which numpy.linalg.svd
    and maps._svd look up at each call)."""
    calls, gufuncs = [], np.linalg._umath_linalg

    def counted(gufunc):
        def call(a, *args, **kwargs):
            calls.append(np.shape(a))
            return gufunc(a, *args, **kwargs)
        return call

    for name in [name for name in dir(gufuncs) if name.startswith("svd")]:
        monkeypatch.setattr(gufuncs, name, counted(getattr(gufuncs, name)))
    return calls


def _rank_one_stacks(a: np.ndarray) -> list:
    """The (K, 2) rows of a as a 2x1 and as a 1x2 stack."""
    return [a[:, :, None], a[:, None, :]]


def test_svd_of_rank_one_stacks_is_lapack_bit_for_bit(monkeypatch):
    """s alone of 2x1 and 1x2 matrices, 200,000 signed draws over the window
    with about one entry in ten 0: as one stack, as stacks of 16 and of 64,
    as one-row stacks (every 20th) and one 2-D matrix at a time (the first
    100), each equal to LAPACK's s bit for bit, and none calls LAPACK."""
    rng = np.random.default_rng(29)
    a = rng.choice([-1.0, 1.0], (200_000, 2)) * 10.0 ** rng.uniform(-100.0, 100.0, (200_000, 2))
    a[rng.random(a.shape) < 0.1] = 0.0
    a[:5] = [[0.0, 0.0], [-0.0, 0.0], [0.0, -3.0], [1e100, 1e100], [1e-100, -1e-100]]
    want = [np.linalg.svd(J, compute_uv=False) for J in _rank_one_stacks(a)]
    calls = _lapack_calls(monkeypatch)
    for J, s in zip(_rank_one_stacks(a), want):
        assert _bits(_svd(J, compute_uv=False)) == _bits(s)
        for size in (16, 64):
            parts = [_svd(J[k:k + size], compute_uv=False) for k in range(0, len(J), size)]
            assert _bits(np.concatenate(parts)) == _bits(s)
        rows = np.concatenate([_svd(J[k:k + 1], compute_uv=False) for k in range(0, len(J), 20)])
        assert _bits(rows) == _bits(s[::20])
        for k in range(100):
            got = _svd(J[k], compute_uv=False)
            assert got.shape == (1,) and _bits(got) == _bits(s[k])
    assert calls == []


def test_svd_of_rank_one_edge_values():
    """Every pair of zeros, the least subnormal, the window edges and their
    neighbours on either side, infinities and 2, signed: each pair alone as
    a 2x1 and a 1x2 matrix, in 2-D and as a stack, and the pairs all inside
    the window as one stack, equal LAPACK bit for bit (those outside the
    window go to LAPACK)."""
    edges = []
    for edge in (_SVD_LO, _SVD_HI):
        edges += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]
    values = np.array([0.0, 5e-324, np.inf, *edges, 2.0])
    values = np.concatenate([values, -values])
    pairs = np.array([(u, v) for u in values for v in values])
    for J in _rank_one_stacks(pairs):
        for k in range(len(J)):
            _assert_svd_is_lapack(J[k:k + 1])
            _assert_svd_is_lapack(J[k])
        inside = np.all((np.abs(pairs) == 0.0) | ((np.abs(pairs) >= _SVD_LO) & (np.abs(pairs) <= _SVD_HI)), axis=1)
        assert inside.sum() > 100
        _assert_svd_is_lapack(J[inside])
        _assert_svd_is_lapack(J)


def test_svd_of_a_mixed_rank_one_stack_equals_its_one_row_calls():
    """A rank-one stack with one entry outside the window goes to LAPACK as a
    whole; each row still equals its one-row result (the closed form inside)."""
    J = np.array([[3.0, -4.0], [0.0, 1e-30], [1e120, 2.0], [2e-7, 0.0], [-7e99, 5e99]])
    for stack in _rank_one_stacks(J):
        s = _svd(stack, compute_uv=False)
        for k in range(len(stack)):
            assert _bits(s[k]) == _bits(_svd(stack[k:k + 1], compute_uv=False)[0])
        _assert_svd_is_lapack(stack)


def test_svd_of_nan_raises():
    for J in (np.array([[[np.nan]]]), np.array([[[1.0]], [[np.nan]]]), np.array([[np.nan]])):
        for compute_uv in (True, False):
            with pytest.raises(np.linalg.LinAlgError):
                _svd(J, compute_uv)


@pytest.mark.parametrize("shape", [(2, 2), (1, 2), (2, 1), (3, 3)])
def test_svd_of_other_shapes_is_lapack(shape):
    """Finite stacks of K = 1, 4, 50 and 64 matrices that LAPACK takes,
    whatever route _svd sends them by: rows scaled from 1e-150 to 1e150
    with one entry of each just outside the closed-form window, and normal
    draws.  U, s and Vt are np.linalg.svd's bit for bit, for the stack,
    its first matrix in 2-D and its empty slice."""
    rng = np.random.default_rng(len(shape) + shape[0] * 3 + shape[1])
    for K in (1, 4, 50, 64):
        J = rng.normal(size=(K, *shape)) * 10.0 ** rng.uniform(-150.0, 150.0, (K, 1, 1))
        edges = np.resize([np.nextafter(_SVD_LO, 0.0), np.nextafter(_SVD_HI, np.inf)], K)
        J[:, 0, -1] = rng.choice([-1.0, 1.0], K) * edges
        for stack in (J, rng.normal(size=J.shape)):
            _assert_svd_is_lapack(stack)
            _assert_svd_is_lapack(stack[0])
            _assert_svd_is_lapack(stack[:0])


def test_every_svd_of_src_is_maps_svd():
    """numpy.linalg.svd and its gufuncs (any attribute .svd, .svd_s or
    .svd_f, any imported svd) appear in the package only inside maps._svd,
    so every SVD takes its closed forms and is counted where maps._svd is."""
    outside = []
    for path in sorted(Path(globinv.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = set()
        if path.name == "maps.py":
            helper = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_svd")
            inside = {id(node) for node in ast.walk(helper)}
        for node in ast.walk(tree):
            named = node.attr if isinstance(node, ast.Attribute) else getattr(node, "name", None)
            if isinstance(node, (ast.Attribute, ast.alias)) and named.split(".")[-1] in ("svd", "svd_s", "svd_f"):
                if id(node) not in inside:
                    outside.append(f"{path.name}:{node.lineno}")
    assert outside == []


def _plain_norms(D: np.ndarray) -> list:
    return [float(np.linalg.norm(v)) for v in D]


@pytest.mark.parametrize("n", [*range(1, 65), 128, 512])
def test_norms_equal_norm_vector_by_vector(n):
    """_norms rounds each vector's norm as np.linalg.norm of that vector
    alone does, bit for bit: 40 vectors of n entries, their magnitudes from
    1e-150 to 1e150, as one stack, as a (4, 10, n) stack, as strided
    views and one at a time, where the result is a float."""
    rng = np.random.default_rng(n)
    D = rng.normal(size=(40, 2 * n)) * 10.0 ** rng.uniform(-150.0, 150.0, (40, 1))
    for X in (D[:, :n], D[:, ::2], np.asfortranarray(D[:, ::-2])):
        want = _plain_norms(X)
        got = _norms(X)
        assert got.shape == (40,) and got.tolist() == want
        assert _norms(X.reshape(4, 10, n)).ravel().tolist() == want
        for v, norm in zip(X, want):
            alone = _norms(v)
            assert type(alone) is float and alone == norm


@pytest.mark.parametrize("n", [1, 2, 3])
def test_norms_rescale_the_vectors_whose_plain_norm_overflows(n):
    """A vector whose plain norm overflows, its largest |component| peak
    finite, reads peak * |v / peak|; every other vector keeps its plain
    norm (0 for a zero vector, inf or NaN for one that holds inf or NaN),
    alone and in a stack, without a warning under errstate(over="ignore")."""
    rng = np.random.default_rng(n)
    D = rng.normal(size=(20000, n)) * 10.0 ** rng.uniform(-160.0, 160.0, (20000, 1))
    D[:10] = 0.0
    D[10:20] = 1e200
    D[20:30] = 1e200 * rng.normal(size=(10, n))
    D[30:40, 0] = -1e200
    D[40, 0], D[41, 0] = np.inf, np.nan
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")
        got = _norms(D)
        want = _plain_norms(D)
        overflow = np.isinf(want) & np.isfinite(D).all(axis=1)
        assert overflow.sum() >= 30
        for k in np.flatnonzero(overflow):
            peak = np.max(np.abs(D[k]))
            want[k] = peak * float(np.linalg.norm(D[k] / peak))
        assert np.array_equal(got, want, equal_nan=True)
        assert all(np.array_equal(_norms(v), w, equal_nan=True) for v, w in zip(D[:50], want))
        assert np.array_equal(_norms(D.reshape(100, 200, n)).ravel(), got, equal_nan=True)
    assert got[:10].tolist() == [0.0] * 10
    assert np.isfinite(got[overflow]).all() and got[40] == np.inf and np.isnan(got[41])


def test_every_norm_of_src_is_maps_norms():
    """numpy.linalg.norm (any attribute .linalg.norm, any import of a norm
    from numpy.linalg) appears in the package only inside maps._norms and
    indicators._unit_directions, whose axis norm sets the bits of every
    Sobol direction; and no module imports a norm helper from lifting or
    solver, so every distance and residual is rounded and rescaled in one
    place."""
    allowed = {"maps.py": "_norms", "indicators.py": "_unit_directions"}
    outside = []
    for path in sorted(Path(globinv.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = set()
        if path.name in allowed:
            helper = next(n for n in tree.body
                          if isinstance(n, ast.FunctionDef) and n.name == allowed[path.name])
            inside = {id(node) for node in ast.walk(helper)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "norm":
                if isinstance(node.value, ast.Attribute) and node.value.attr == "linalg":
                    if id(node) not in inside:
                        outside.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                norm_names = [a.name for a in node.names if "norm" in a.name]
                if norm_names and (module.split(".")[-1] in ("lifting", "solver")
                                   or module.endswith("linalg")):
                    outside.append(f"{path.name}:{node.lineno}")
    assert outside == []


def test_every_error_class_is_raised_in_src():
    """Each exception class of globinv.errors but the base GlobinvError is
    raised (raise X or raise X(...)) in another module of the package: a
    class nothing raises is dead taxonomy."""
    package = Path(globinv.__file__).parent
    errors = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    classes = {n.name for n in errors.body if isinstance(n, ast.ClassDef)} - {"GlobinvError"}
    raised = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    assert len(classes) >= 10 and classes - raised == set()
