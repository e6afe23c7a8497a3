import numpy as np
import pytest
from scipy.integrate import quad

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
)
from globinv.maps import MapModel, linear_map, registry_get


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
])
def test_profile_rejects_bad_fields(radii, eta, kind, error):
    with pytest.raises(error):
        MuProfile(base_point=np.zeros(1), radii=np.array(radii), eta_values=np.array(eta),
                  certified=True, indicator_kind=kind)


def _bound_nan_beyond_one():
    return MapModel(name="bounded", n=1, m=1, eval_fn=lambda x: x.copy(),
                    mu_bound=lambda rho: 1.0 if rho <= 1.0 else np.nan)


@pytest.mark.parametrize("model, kwargs, error", [
    (registry_get("arctan1d"), {"r_max": 0.0}, OutOfRange),
    (registry_get("arctan1d"), {"r_max": np.nan}, OutOfRange),
    (registry_get("arctan1d"), {"grid_size": 0}, OutOfRange),
    (registry_get("arctan1d"), {"indicator_kind": "both"}, OutOfRange),
    (registry_get("arctan1d"), {"mode": "exact"}, OutOfRange),
    (MapModel(name="plain", n=1, m=1, eval_fn=lambda x: x.copy()), {}, MissingBound),
    (_bound_nan_beyond_one(), {"r_max": 2.0}, NonFinite),
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
