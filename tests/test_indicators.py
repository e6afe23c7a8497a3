import numpy as np
import pytest
from scipy.integrate import quad

from globinv import indicators
from globinv.errors import DimensionMismatch, MissingBound, NonFinite, OutOfRange
from globinv.indicators import (
    FredholmData,
    MuProfile,
    fredholm_data,
    inj_indicator,
    mu_profile,
    rho_of_r,
    sur_indicator,
    unit_ball_points,
    unit_ball_sets,
)
from globinv.maps import MapModel, default_point, linear_map, list_map_names, registry_get


def _random_invertible(rng, n):
    while True:
        A = rng.normal(size=(n, n))
        s = np.linalg.svd(A, compute_uv=False)
        if s[-1] > 1e-3:
            return A


def test_indicators_match_inverse_norm_oracle():
    """Independent oracle: 1 / ||J^-1||_2 via explicit inverse."""
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        A = _random_invertible(rng, n)
        smax = float(np.linalg.svd(A, compute_uv=False)[0])
        oracle = 1.0 / np.linalg.norm(np.linalg.inv(A), 2)
        assert abs(inj_indicator(A) - oracle) <= 1e-9 * smax
        assert abs(sur_indicator(A) - oracle) <= 1e-9 * smax
        assert abs(inj_indicator(A) - sur_indicator(A)) <= 1e-9 * smax


def test_indicators_rectangular():
    wide = np.array([[1.0, 0.0]])
    assert inj_indicator(wide) == 0.0
    assert sur_indicator(wide) == pytest.approx(1.0)
    tall = wide.T
    assert sur_indicator(tall) == 0.0
    assert inj_indicator(tall) == pytest.approx(1.0)
    # stretches of the wide map: sigma_min of J^T over the codomain sphere
    J = np.array([[3.0, 0.0, 4.0]])
    assert sur_indicator(J) == pytest.approx(5.0)


def _rotations(t: np.ndarray) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return np.stack([c, -s, s, c], -1).reshape(-1, 2, 2)


def _two_by_two_sets(rng) -> dict:
    """Sets of 2x2 matrices, 20,000 each."""
    K = 20_000
    normal = rng.normal(size=(K, 2, 2))
    # R diag(1, 1/cond) R' with condition numbers up to 1e17
    diag = np.zeros((K, 2, 2))
    diag[:, 0, 0], diag[:, 1, 1] = 1.0, 10.0 ** -rng.uniform(0.0, 17.0, K)
    ill = _rotations(rng.uniform(0.0, 7.0, K)) @ diag @ _rotations(rng.uniform(0.0, 7.0, K))
    ab = rng.normal(size=(K, 2)) * 10.0 ** rng.uniform(-30.0, 30.0, (K, 1))
    conformal = np.stack([ab[:, 0], -ab[:, 1], ab[:, 1], ab[:, 0]], -1).reshape(K, 2, 2)
    rank_one = rng.normal(size=(K, 2, 1)) @ rng.normal(size=(K, 1, 2))
    return {
        "normal": normal,
        "scaled": normal * 10.0 ** rng.uniform(-90.0, 90.0, (K, 1, 1)),
        "ill-conditioned": ill * 10.0 ** rng.uniform(-40.0, 40.0, (K, 1, 1)),
        "conformal": conformal,
        "rank-one": rank_one,
        "zeros": normal * (rng.random((K, 2, 2)) < 0.5),
    }


def test_two_by_two_indicator_is_lapack_to_4_eps():
    """inj and sur of a 2x2 stack are the closed form, within 4 eps s_max
    of LAPACK's least singular value on every set, and exactly 1 on the
    identity."""
    eps = np.finfo(float).eps
    for name, J in _two_by_two_sets(np.random.default_rng(31)).items():
        s = np.linalg.svd(J, compute_uv=False)
        for kind in ("inj", "sur"):
            got = indicators._indicator_stack(J, kind)
            assert np.all(np.abs(got - s[:, 1]) <= 4.0 * eps * s[:, 0]), (name, kind)
    assert indicators._indicator_stack(np.eye(2)[None], "inj").tolist() == [1.0]
    assert inj_indicator(np.eye(2)) == sur_indicator(np.eye(2)) == 1.0
    assert inj_indicator(np.zeros((2, 2))) == 0.0


def test_two_by_two_indicator_calls_lapack_only_outside_the_window(monkeypatch):
    """A stack inside the window makes no LAPACK call.  Rows with an entry
    outside it go to LAPACK, and only they: each is LAPACK's value bit for
    bit, and each row inside keeps the value it has in a stack of its own."""
    calls, svd, gufuncs = [], np.linalg.svd, np.linalg._umath_linalg

    def counted(gufunc):  # numpy.linalg.svd and maps._svd look each svd* gufunc up at each call
        def call(a, *args, **kwargs):
            calls.append(np.shape(a))
            return gufunc(a, *args, **kwargs)
        return call

    for name in [name for name in dir(gufuncs) if name.startswith("svd")]:
        monkeypatch.setattr(gufuncs, name, counted(getattr(gufuncs, name)))
    J = np.random.default_rng(37).normal(size=(8, 2, 2))
    inside = indicators._indicator_stack(J, "sur")
    assert calls == []
    J[2, 0, 1], J[5, 1, 1], J[6, 1, 0] = 1e120, 3e-200, 5e-324
    mixed = indicators._indicator_stack(J, "inj")
    assert calls == [(3, 2, 2)]
    out = [2, 5, 6]
    assert mixed[out].tobytes() == svd(J[out], compute_uv=False)[:, -1].tobytes()
    keep = [0, 1, 3, 4, 7]
    assert mixed[keep].tobytes() == inside[keep].tobytes()
    for k in keep:
        assert mixed[k] == indicators._indicator_stack(J[k:k + 1], "inj")[0]


def test_fredholm_data():
    d = fredholm_data(np.diag([2.0, 1.0, 1e-14]))
    assert d == FredholmData(rank=2, dim_ker=1, dim_coker=1, index=0)
    d = fredholm_data(np.array([[1.0, 0.0]]))
    assert d.rank == 1 and d.dim_ker == 1 and d.dim_coker == 0 and d.index == 1
    d = fredholm_data(np.zeros((2, 3)))
    assert d.rank == 0 and d.index == 1
    with pytest.raises(OutOfRange):
        fredholm_data(np.eye(2), tol=0.0)


def test_unit_ball_points_deterministic_and_inside():
    a = unit_ball_points(3, 50, seed=5)
    b = unit_ball_points(3, 50, seed=5)
    c = unit_ball_points(3, 50, seed=6)
    assert a.shape == (50, 3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.linalg.norm(a, axis=1) <= 1.0 + 1e-12)
    with pytest.raises(OutOfRange):
        unit_ball_points(2, 0, seed=0)


@pytest.mark.parametrize("count, sets", [(100, 7), (128, 9), (1, 5), (384, 3)])
@pytest.mark.parametrize("budget_sets", [1, 2, 4, 1000])
def test_unit_ball_sets_are_aligned_blocks_of_one_prefix(count, sets, budget_sets, monkeypatch):
    """Set k is rows [k 2^p, k 2^p + count) of unit_ball_points' prefix of
    the sequence, bit for bit, however many sets a chunk draws."""
    stride = 1 << (count - 1).bit_length()
    prefix = unit_ball_points(3, sets * stride, seed=4).reshape(sets, stride, 3)[:, :count]
    monkeypatch.setattr(indicators, "_DRAW_FLOATS", budget_sets * stride * 4)
    chunks = list(unit_ball_sets(3, count, 4, sets))
    per = min(budget_sets, sets)
    assert [len(c) for c in chunks] == [per] * (sets // per) + [sets % per] * (sets % per > 0)
    assert np.concatenate(chunks).tobytes() == np.ascontiguousarray(prefix).tobytes()


def test_certified_profile_is_analytic_passthrough():
    m = registry_get("arctan1d")
    prof = mu_profile(m, [0.0], 2.0, 128)
    assert prof.certified
    for rho, eta in zip(prof.radii, prof.eta_values):
        assert abs(eta - 1.0 / (1.0 + rho**2)) <= 1e-12


def test_certified_profile_shifts_for_off_base_center():
    # centered away from the bound's base point, the bound must be evaluated
    # at the enlarged radius |x0 - base| + rho
    m = registry_get("arctan1d")
    prof = mu_profile(m, [1.0], 1.0, 64)
    for rho, eta in zip(prof.radii, prof.eta_values):
        assert eta == pytest.approx(1.0 / (1.0 + (1.0 + rho) ** 2), abs=1e-12)


@pytest.mark.parametrize("name", list_map_names())
@pytest.mark.parametrize("shift", [0.0, 0.37])
def test_certified_eta_at_python_floats_is_bitwise_the_numpy_scalar_eta(name, shift):
    """mu_profile calls the bound once, on the array of its 20001 radii;
    every registry bound gives there the bits its per-float calls give,
    at Python floats and at numpy scalars alike."""
    m = linear_map([[1.0, 0.3], [-0.2, 0.8]]) if name == "linear" else registry_get(name)
    x0 = default_point(m) + shift * np.eye(m.n)[0]
    prof = mu_profile(m, x0, 200.0, 20000)
    offset = float(np.linalg.norm(x0 - default_point(m)))
    radii = offset + np.linspace(0.0, 200.0, 20001)
    at_once = np.broadcast_to(m.mu_bound(radii), radii.shape)
    for values in (radii.tolist(), radii):
        eta = np.array([float(m.mu_bound(rho)) for rho in values])
        assert at_once.tobytes() == eta.tobytes()
    eta = np.minimum.accumulate(np.maximum(eta, 0.0))
    assert prof.eta_values.tobytes() == eta.tobytes()


def test_sampled_profile_upper_bounds_certified():
    m = registry_get("monotone1d")
    cert = mu_profile(m, [0.0], 5.0, 64)
    samp = mu_profile(m, [0.0], 5.0, 64, mode="sampled", sample_count=128, seed=2)
    assert not samp.certified
    assert samp.seed == 2
    for e_c, e_s in zip(cert.eta_values, samp.eta_values):
        assert e_s >= e_c - 1e-12


def test_sampled_profile_constant_for_linear():
    m = linear_map(np.diag([2.0, 0.5]))
    prof = mu_profile(m, [0.0, 0.0], 3.0, 32, mode="sampled", sample_count=32, seed=0)
    assert np.allclose(prof.eta_values, 0.5, atol=1e-12)


def test_profile_validation():
    with pytest.raises(OutOfRange):
        MuProfile(
            base_point=np.zeros(1),
            radii=np.array([0.0, 1.0]),
            eta_values=np.array([0.5, 0.7]),  # increasing, invalid
            certified=True,
            indicator_kind="sur",
        )
    with pytest.raises(OutOfRange):
        MuProfile(
            base_point=np.zeros(1),
            radii=np.array([0.5, 1.0]),  # must start at 0
            eta_values=np.array([1.0, 0.5]),
            certified=True,
            indicator_kind="sur",
        )


@pytest.mark.parametrize("J, error", [
    (np.ones(2), DimensionMismatch),
    (np.array([[1.0, np.nan]]), NonFinite),
])
def test_indicators_reject_bad_matrices(J, error):
    for indicator in (inj_indicator, sur_indicator, fredholm_data):
        with pytest.raises(error):
            indicator(J)


@pytest.mark.parametrize("radii, eta, kind, error", [
    ([0.0], [1.0], "sur", OutOfRange),
    ([0.0, 1.0], [1.0], "sur", DimensionMismatch),
    ([0.0, 1.0], [1.0, np.inf], "sur", NonFinite),
    ([0.0, 1.0], [1.0, -0.5], "sur", NonFinite),
    ([0.0, 1.0], [1.0, 0.5], "both", OutOfRange),
    ([0.0, np.inf], [1.0, 0.5], "sur", OutOfRange),
    ([0.0, 1.0, np.nan], [1.0, 0.5, 0.5], "sur", OutOfRange),
    ([0.0, np.nan, 1.0], [1.0, 0.5, 0.5], "sur", OutOfRange),
])
def test_profile_rejects_bad_fields(radii, eta, kind, error):
    with pytest.raises(error):
        MuProfile(base_point=np.zeros(1), radii=np.array(radii), eta_values=np.array(eta),
                  certified=True, indicator_kind=kind)


def _bound_nan_beyond_one():
    return MapModel(name="bounded", n=1, m=1, eval_fn=lambda x: x.copy(),
                    mu_bound=lambda rho: np.where(rho <= 1.0, 1.0, np.nan))


def _bound_of_one_row():
    """A bound that returns its radii as one row, not in their shape."""
    return MapModel(name="row_bound", n=1, m=1, eval_fn=lambda x: x.copy(),
                    mu_bound=lambda rho: np.ones((1, rho.size)))


@pytest.mark.parametrize("model, kwargs, error", [
    (registry_get("arctan1d"), {"r_max": 0.0}, OutOfRange),
    (registry_get("arctan1d"), {"r_max": np.nan}, OutOfRange),
    (registry_get("arctan1d"), {"grid_size": 0}, OutOfRange),
    (registry_get("arctan1d"), {"indicator_kind": "both"}, OutOfRange),
    (registry_get("arctan1d"), {"mode": "exact"}, OutOfRange),
    (MapModel(name="plain", n=1, m=1, eval_fn=lambda x: x.copy()), {}, MissingBound),
    (_bound_nan_beyond_one(), {"r_max": 2.0}, NonFinite),
    (_bound_of_one_row(), {}, DimensionMismatch),
])
def test_profile_arguments_are_checked(model, kwargs, error):
    args = {"r_max": 1.0, "grid_size": 4, **kwargs}
    with pytest.raises(error):
        mu_profile(model, [0.0], **args)


def test_profile_json_fields():
    m = registry_get("identity_2")
    prof = mu_profile(m, [0.0, 0.0], 1.0, 8)
    d = prof.to_json_dict()
    assert set(d) == {
        "base_point",
        "radii",
        "eta_values",
        "certified",
        "indicator_kind",
        "seed",
    }


def test_rho_identity_exact():
    m = registry_get("identity_2")
    prof = mu_profile(m, [0.0, 0.0], 2.0, 100)
    for r in [0.013, 0.5, 1.0, 2.0]:
        assert rho_of_r(prof, r) == pytest.approx(r, abs=1e-12)


def test_rho_arctan_against_quadrature_oracle():
    m = registry_get("arctan1d")
    prof = mu_profile(m, [0.0], 1.0, 4000)
    got = rho_of_r(prof, 1.0)
    oracle, err = quad(lambda t: 1.0 / (1.0 + t * t), 0.0, 1.0)
    assert err < 1e-10
    assert oracle == pytest.approx(np.pi / 4, abs=1e-12)
    assert got <= oracle  # right-endpoint rule is conservative for decreasing eta
    assert abs(got - oracle) <= 1e-4


def test_rho_conservative_on_partial_cells():
    m = registry_get("arctan1d")
    prof = mu_profile(m, [0.0], 1.0, 17)
    for r in np.linspace(0.05, 1.0, 23):
        exact = quad(lambda t: 1.0 / (1.0 + t * t), 0.0, r)[0]
        val = rho_of_r(prof, float(r))
        assert val <= exact + 1e-12


def test_rho_monotone_in_r():
    m = registry_get("monotone1d")
    prof = mu_profile(m, [0.0], 6.0, 256)
    rs = np.linspace(0.1, 6.0, 40)
    vals = [rho_of_r(prof, float(r)) for r in rs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_rho_out_of_range():
    m = registry_get("identity_1")
    prof = mu_profile(m, [0.0], 1.0, 16)
    with pytest.raises(OutOfRange):
        rho_of_r(prof, 1.5)
    with pytest.raises(OutOfRange):
        rho_of_r(prof, 0.0)


def test_inj_profile_on_tall_map():
    tall = MapModel(
        name="embed", n=1, m=2, eval_fn=lambda x: np.array([x[0], x[0]])
    )
    prof = mu_profile(
        tall, [0.0], 1.0, 16, mode="sampled", indicator_kind="inj", sample_count=16
    )
    assert np.allclose(prof.eta_values, np.sqrt(2.0), atol=1e-6)
    assert prof.indicator_kind == "inj"
