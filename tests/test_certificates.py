import json
import math

import numpy as np
import pytest

from globinv.certificates import (
    CONDITION_ORDER,
    build_diagnostics,
    expansive_estimate,
    graves_certificate,
    hadamard_integral_check,
    hadamard_levy_check,
    katriel_check,
    plastock_check,
    ps_direction_scan,
    unit_sphere_points,
    weighted_certificate,
)
from globinv.errors import DimensionMismatch, EmptySublevel, NonFinite, OutOfRange, ZeroRadius
from globinv.indicators import MuProfile, mu_profile, rho_of_r, unit_ball_points
from globinv.lifting import LiftOptions
from globinv.maps import MapModel, linear_entry, linear_map, registry_entry, registry_get


def _profile(name, x0, r, grid=512, **kw):
    return mu_profile(registry_get(name), x0, r, grid, **kw)


# ---------------------------------------------------------------------------
# graves_certificate


def test_graves_identity_full_radius():
    prof = _profile("identity_2", [0.0, 0.0], 1.0)
    cert = graves_certificate(
        registry_get("identity_2"), [0.0, 0.0], 1.0, prof, verify_targets=16
    )
    assert cert.rho == pytest.approx(1.0, abs=1e-12)
    assert cert.certified
    v = cert.verification
    assert v["completed"] == v["targets"] == v["inside"] == 16
    assert set(v["statuses"]) == {"Complete"}
    assert v["max_distance"] < 1.0


def test_graves_arctan_quarter_pi():
    m = registry_get("arctan1d")
    prof = mu_profile(m, [0.0], 1.0, 4000)
    cert = graves_certificate(m, [0.0], 1.0, prof, verify_targets=8)
    assert abs(cert.rho - np.pi / 4) <= 1e-4
    # the boundary target at 0.99 rho has the closed-form solution tan(y)
    y = 0.99 * cert.rho
    assert np.tan(y) < 1.0
    assert cert.verification["inside"] == 8


def test_graves_parabola_horizontal():
    m = registry_get("parabola_sub")
    prof = mu_profile(m, [0.0, 0.0], 2.0, 256)
    cert = graves_certificate(m, [0.0, 0.0], 2.0, prof, verify_targets=8)
    assert cert.rho == pytest.approx(2.0, abs=1e-12)
    assert cert.verification["inside"] == 8


def test_graves_verification_sweep_invariant():
    """Certified positive-rho certificates pass their boundary sweep."""
    cases = [
        ("identity_2", [0.0, 0.0], 1.0),
        ("monotone1d", [0.0], 3.0),
        ("parabola_sub", [0.0, 0.0], 2.0),
    ]
    for name, x0, r in cases:
        m = registry_get(name)
        prof = mu_profile(m, x0, r, 1024)
        cert = graves_certificate(m, x0, r, prof, verify_targets=32, seed=1)
        v = cert.verification
        assert v["inside"] >= int(np.ceil(0.99 * v["targets"])), name
        bad = [s for s in v["statuses"] if s != "Complete"]
        assert all(s == "StepFailure" for s in bad), name


def test_graves_zero_radius():
    flat = MapModel(
        name="flatbound",
        n=1,
        m=1,
        eval_fn=lambda x: x.copy(),
        mu_bound=lambda rho: 0.0,
    )
    prof = mu_profile(flat, [0.0], 1.0, 16)
    with pytest.raises(ZeroRadius):
        graves_certificate(flat, [0.0], 1.0, prof)


def test_graves_precondition_errors():
    m = registry_get("identity_1")
    prof = mu_profile(m, [0.0], 1.0, 16)
    with pytest.raises(OutOfRange):
        graves_certificate(m, [0.5], 1.0, prof)  # profile centered elsewhere
    with pytest.raises(OutOfRange):
        graves_certificate(m, [0.0], 2.0, prof)  # beyond r_max


def test_graves_refuses_a_profile_centred_a_little_elsewhere():
    """The centre check is absolute: a profile of the ball about 1000 is
    refused for the ball about 1000.009, which a relative tolerance of
    1e-5 let through, reading rho off the other ball; a centre within
    1e-12 of the profile's is accepted."""
    m = registry_get("identity_1")
    prof = mu_profile(m, [1000.0], 1.0, 16)
    with pytest.raises(OutOfRange, match="centered at a different point"):
        graves_certificate(m, [1000.009], 1.0, prof)
    with pytest.raises(OutOfRange, match="centered at a different point"):
        graves_certificate(m, [1000.0 + 1e-9], 1.0, prof)
    assert graves_certificate(m, [1000.0], 1.0, prof).rho == graves_certificate(m, [1000.0 + 5e-13], 1.0, prof).rho


def test_graves_inherits_sampled_flag():
    m = registry_get("monotone1d")
    prof = mu_profile(m, [0.0], 1.0, 64, mode="sampled", seed=0)
    cert = graves_certificate(m, [0.0], 1.0, prof)
    assert not cert.certified
    d = cert.to_json_dict()
    assert d["certified"] is False and "verification" not in d


# ---------------------------------------------------------------------------
# condition ladder


def test_hadamard_levy_verdicts():
    mono = registry_entry("monotone1d")
    prof = _profile("monotone1d", [0.0], 8.0)
    entry = hadamard_levy_check(prof, facts=mono.facts)
    assert entry.condition_id == "C10"
    assert entry.verdict == "Holds"
    assert entry.evidence["beta"] == pytest.approx(2.0, rel=1e-9)

    ident = _profile("identity_2", [0.0, 0.0], 5.0)
    assert hadamard_levy_check(ident).verdict == "Holds"
    assert hadamard_levy_check(ident).evidence["beta"] == pytest.approx(1.0)

    arct = registry_entry("arctan1d")
    prof = _profile("arctan1d", [0.0], 10.0)
    assert hadamard_levy_check(prof, facts=arct.facts).verdict == "Fails"
    # without the analytic witness, decay over the examined radii is heuristic
    assert hadamard_levy_check(prof).verdict == "HeuristicFail"

    sampled = _profile("monotone1d", [0.0], 8.0, mode="sampled", seed=0)
    assert hadamard_levy_check(sampled).verdict == "HeuristicPass"


def test_hadamard_levy_asinh_witness_beats_examined_region():
    # over a small examined ball the certified bound looks fine; the analytic
    # witness still refutes the global claim
    ent = registry_entry("asinh1d")
    prof = _profile("asinh1d", [0.0], 10.0)
    assert hadamard_levy_check(prof, facts=ent.facts).verdict == "Fails"
    assert hadamard_levy_check(prof).verdict == "Holds"


def test_hadamard_integral_verdicts():
    mono = registry_entry("monotone1d")
    prof = _profile("monotone1d", [0.0], 12.0)
    with_facts = hadamard_integral_check(prof, facts=mono.facts)
    assert with_facts.condition_id == "C15"
    assert with_facts.verdict == "Holds"
    assert with_facts.evidence["non_conclusive"] is False

    no_facts = hadamard_integral_check(prof)
    assert no_facts.verdict == "HeuristicPass"
    # closed form: rho(12) = pi/2 + 6, rho(6) = pi/2 + 3
    oracle = (np.pi / 2 + 6.0) / (np.pi / 2 + 3.0)
    assert no_facts.evidence["growth_ratio_observed"] == pytest.approx(oracle, abs=0.01)
    assert no_facts.evidence["non_conclusive"] is True

    ident = registry_entry("identity_2")
    iprof = _profile("identity_2", [0.0, 0.0], 8.0)
    assert hadamard_integral_check(iprof, facts=ident.facts).verdict == "Holds"

    arct = registry_entry("arctan1d")
    aprof = _profile("arctan1d", [0.0], 10.0, grid=2048)
    entry = hadamard_integral_check(aprof, facts=arct.facts)
    assert entry.verdict == "HeuristicFail"
    # rho(10) = arctan(10); the quadrature is a conservative lower bound
    got = entry.evidence["rho_values"][-1]
    assert np.arctan(10.0) - 5e-3 <= got <= np.arctan(10.0)


def test_katriel_monotone_passes_with_half():
    m = registry_get("monotone1d")
    entry = katriel_check(m, [0.0], [1.0, 10.0], seed=0)
    assert entry.condition_id == "C17"
    assert entry.verdict == "HeuristicPass"
    ests = [lv["inf_estimate"] for lv in entry.evidence["levels"]]
    # inf mu over the level-10 sublevel set hits the global minimum 1/2
    assert ests[-1] == pytest.approx(0.5, abs=0.05)


def test_katriel_exp_level_split():
    m = registry_get("exp1d")
    entry = katriel_check(m, [1.0], [0.5, 2.0], seed=0)
    by_level = {lv["level"]: lv for lv in entry.evidence["levels"]}
    assert by_level[0.5]["verdict"] == "HeuristicPass"
    assert by_level[0.5]["inf_estimate"] == pytest.approx(0.5, abs=0.02)
    assert by_level[2.0]["verdict"] == "HeuristicFail"
    assert entry.verdict == "HeuristicFail"


def test_katriel_certified_fails_with_witness():
    ent = registry_entry("exp1d")
    entry = katriel_check(ent.model, [1.0], [2.0], facts=ent.facts, seed=0)
    assert entry.verdict == "Fails"
    lv = entry.evidence["levels"][0]
    assert lv["verdict"] == "Fails"
    assert lv["witness_mu_values"][-1] < 1e-5
    # witness images fall inside the sublevel set eventually
    assert lv["witness_residuals"][-1] < 2.0


def test_katriel_witness_not_applicable_at_small_level():
    # |witness limit - y0| = 1, so level 0.5 cannot use it
    ent = registry_entry("exp1d")
    entry = katriel_check(ent.model, [1.0], [0.5], facts=ent.facts, seed=0)
    assert entry.evidence["levels"][0]["verdict"] == "HeuristicPass"


def test_katriel_empty_sublevel():
    m = registry_get("arctan1d")
    with pytest.raises(EmptySublevel):
        katriel_check(m, [3.0], [0.5], seed=0)


def test_katriel_level_validation():
    m = registry_get("identity_1")
    with pytest.raises(OutOfRange):
        katriel_check(m, [0.0], [2.0, 1.0])
    with pytest.raises(OutOfRange):
        katriel_check(m, [0.0], [-1.0])


@pytest.mark.parametrize("levels", [[np.nan], [1.0, np.nan], [np.nan, 1.0]])
def test_katriel_rejects_a_nan_level(levels):
    with pytest.raises(OutOfRange):
        katriel_check(registry_get("identity_1"), [0.0], levels)


@pytest.mark.parametrize("name, y0, box_center, error", [
    ("identity_2", [0.0, 0.0, 0.0], None, DimensionMismatch),  # was numpy's broadcast ValueError
    ("identity_2", [0.0, 0.0], [5.0], DimensionMismatch),  # was broadcast to (5, 5) silently
    ("identity_1", [np.nan], None, OutOfRange),  # read EmptySublevel
    ("identity_1", [np.inf], None, OutOfRange),
    ("identity_2", [0.0, 0.0], [np.nan, 0.0], OutOfRange),
])
def test_katriel_checks_its_points(name, y0, box_center, error):
    with pytest.raises(error, match="katriel_check"):
        katriel_check(registry_get(name), y0, [0.5], box_center=box_center)


def test_unit_sphere_points_needs_a_count():
    with pytest.raises(OutOfRange):
        unit_sphere_points(2, 0, seed=0)


def test_expansive_linear_attains_sigma_min():
    # the minimal stretch sigma_min is approached at every radius; an
    # isometry reads it exactly
    for model, sigma_min, upper in (
        (linear_entry(np.diag([2.0, 0.5])).model, 0.5, 0.55),
        (registry_get("identity_2"), 1.0, 1.0 + 1e-9),
    ):
        entry = expansive_estimate(model, seed=0)
        assert entry.condition_id == "C8"
        assert entry.verdict == "HeuristicPass"
        alpha = entry.evidence["alpha_hat"]
        assert sigma_min - 1e-9 <= alpha <= upper
        for row in entry.evidence["per_radius"]:
            assert sigma_min - 1e-9 <= row["alpha_hat"] <= upper


def test_expansive_monotone_half():
    m = registry_get("monotone1d")
    entry = expansive_estimate(m, seed=0)
    assert entry.verdict == "HeuristicPass"
    assert entry.evidence["alpha_hat"] == pytest.approx(0.5, abs=0.05)


def test_expansive_arctan_trend_fails():
    m = registry_get("arctan1d")
    entry = expansive_estimate(m, seed=0)
    assert entry.verdict == "HeuristicFail"
    last = entry.evidence["per_radius"][-1]
    assert last["radius"] == 100.0
    assert last["alpha_hat"] <= np.pi / 200.0 + 1e-6


def test_weighted_identity_holds():
    ent = registry_entry("identity_2")
    prof = _profile("identity_2", [0.0, 0.0], 5.0)
    entry = weighted_certificate(
        ent.model, [0.0, 0.0], lambda r: 1.0 + r, prof, weight_divergent=True
    )
    assert entry.condition_id == "C22"
    assert entry.verdict == "Holds"
    assert entry.evidence["alpha"] == pytest.approx(1.0)  # attained at rho = 0
    for ratio in entry.evidence["lift_bound_ratios"]:
        assert ratio <= 1.0 + 1e-6


def test_weighted_constant_weight_reduces_to_unweighted():
    ent = registry_entry("monotone1d")
    prof = _profile("monotone1d", [0.0], 8.0)
    entry = weighted_certificate(
        ent.model, [0.0], lambda r: 1.0, prof, weight_divergent=True
    )
    assert entry.verdict == "Holds"
    assert entry.evidence["alpha"] == pytest.approx(0.5, abs=1e-9)


def test_weighted_rescues_decaying_indicator():
    # mu ~ 1/(1+rho) decays, so C10 fails, but mu * (1+rho) stays near 1
    ent = registry_entry("asinh1d")
    prof = _profile("asinh1d", [0.0], 10.0)
    c10 = hadamard_levy_check(prof, facts=ent.facts)
    assert c10.verdict == "Fails"
    c22 = weighted_certificate(
        ent.model, [0.0], lambda r: 1.0 + r, prof, weight_divergent=True, facts=ent.facts
    )
    assert c22.verdict in ("Holds", "HeuristicPass")
    assert c22.evidence["alpha"] >= 0.99


def test_weighted_witness_refutes_bounded_image_maps():
    # arctan: eta * (1+rho) -> 0, so the divergent weight cannot rescue it;
    # the analytic witness certifies the failure
    ent = registry_entry("arctan1d")
    prof = _profile("arctan1d", [0.0], 10.0)
    entry = weighted_certificate(
        ent.model, [0.0], lambda r: 1.0 + r, prof, weight_divergent=True, facts=ent.facts
    )
    assert entry.verdict == "Fails"
    assert entry.evidence["weighted_witness_values"][-1] < 1e-5

    exp = registry_entry("exp1d")
    eprof = _profile("exp1d", [0.0], 10.0)
    entry = weighted_certificate(
        exp.model, [0.0], lambda r: 1.0 + r, eprof, weight_divergent=True, facts=exp.facts
    )
    assert entry.verdict == "Fails"


def test_weighted_unstabilized_minimum_stays_heuristic():
    # without facts the examined minimum is positive but still falling at
    # r_max, so a certified Holds would overreach
    prof = _profile("arctan1d", [0.0], 10.0)
    entry = weighted_certificate(
        registry_get("arctan1d"), [0.0], lambda r: 1.0 + r, prof, weight_divergent=True
    )
    assert entry.verdict == "HeuristicPass"
    assert entry.evidence["alpha_stabilized"] is False
    assert entry.evidence["alpha"] == pytest.approx(11.0 / 101.0, rel=0.05)


def test_weighted_nondivergent_weight_stays_heuristic():
    ent = registry_entry("arctan1d")
    prof = _profile("arctan1d", [0.0], 10.0)
    entry = weighted_certificate(
        ent.model, [0.0], lambda r: (1.0 + r) ** 2, prof, weight_divergent=False
    )
    assert entry.verdict == "HeuristicPass"
    assert entry.evidence["alpha"] >= 0.99


def test_weighted_products_are_the_grid_point_products():
    """weight is called once per profile radius, on Python floats; alpha,
    the argmin and the tail are those of the products eta * weight formed
    one grid point at a time, bit for bit."""
    prof = _profile("asinh1d", [0.0], 10.0)
    seen = []

    def weight(r):
        seen.append(r)
        return 1.0 + 0.3 * r + math.sin(r) ** 2

    entry = weighted_certificate(registry_get("asinh1d"), [0.0], weight, prof, weight_divergent=True)
    assert seen[:len(prof.radii)] == prof.radii.tolist() and all(type(r) is float for r in seen)
    products = [eta * weight(float(rho)) for rho, eta in zip(prof.radii, prof.eta_values)]
    assert entry.evidence["alpha"] == float(min(products))
    i_min = int(np.argmin(products))
    tail = products[(3 * len(products)) // 4]
    still_falling = i_min == len(products) - 1 and products[-1] < tail * (1.0 - 1e-3)
    assert entry.evidence["alpha_stabilized"] is (not still_falling)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_weighted_refuses_a_weight_that_is_not_positive_and_finite(bad):
    prof = _profile("asinh1d", [0.0], 10.0)
    at = float(prof.radii[100])
    with pytest.raises(OutOfRange, match="weight must be positive and finite"):
        weighted_certificate(registry_get("asinh1d"), [0.0], lambda r: bad if r == at else 1.0 + r, prof)


def test_weighted_singular_map_fails_heuristically():
    # eta = 0 everywhere, so alpha = 0 and no test lift is made
    ent = linear_entry([[1.0, 0.0], [0.0, 0.0]])
    prof = mu_profile(ent.model, [0.0, 0.0], 2.0, 64)
    entry = weighted_certificate(
        ent.model, [0.0, 0.0], lambda r: 1.0 + r, prof, weight_divergent=True
    )
    assert entry.verdict == "HeuristicFail"
    assert entry.evidence["alpha"] == 0.0
    assert entry.evidence["lift_bound_ratios"] == []


def test_weighted_skips_incomplete_test_lifts():
    # one step cannot finish a lift, so no test lift yields a ratio
    ent = registry_entry("identity_2")
    prof = _profile("identity_2", [0.0, 0.0], 5.0)
    entry = weighted_certificate(
        ent.model, [0.0, 0.0], lambda r: 1.0 + r, prof, weight_divergent=True,
        opts=LiftOptions(max_steps=1),
    )
    assert entry.verdict == "Holds"
    assert entry.evidence["lift_bound_ratios"] == []


def test_weighted_rejects_bad_weight():
    prof = _profile("identity_1", [0.0], 1.0)
    with pytest.raises(OutOfRange):
        weighted_certificate(
            registry_get("identity_1"), [0.0], lambda r: 0.0, prof, weight_divergent=True
        )


@pytest.mark.parametrize("x0", [[5.0], [0.0, 0.0, 0.0], [[0.0, 0.0]]])
@pytest.mark.parametrize("check", [
    lambda ent, x0, prof: weighted_certificate(ent.model, x0, lambda r: 1.0 + r, prof, facts=ent.facts),
    lambda ent, x0, prof: plastock_check(ent.model, x0, prof, facts=ent.facts, seed=0),
], ids=["weighted_certificate", "plastock_check"])
def test_checks_reject_a_wrong_shaped_x0(check, x0):
    # complex_exp has a vanishing witness: a one-entry x0 was broadcast
    # against its 2-D witness points and C22 returned a certified Fails
    ent = registry_entry("complex_exp")
    prof = _profile("complex_exp", [0.0, 0.0], 2.0, grid=16)
    with pytest.raises(DimensionMismatch, match=": x0"):
        check(ent, x0, prof)


def test_plastock_verdicts():
    mono = registry_entry("monotone1d")
    prof = _profile("monotone1d", [0.0], 8.0)
    entry = plastock_check(mono.model, [0.0], prof, facts=mono.facts, seed=0)
    assert entry.condition_id == "C14"
    assert entry.verdict == "Holds"

    # same data without facts: growth is visible but only heuristically
    assert plastock_check(mono.model, [0.0], prof, seed=0).verdict == "HeuristicPass"

    arct = registry_entry("arctan1d")
    aprof = _profile("arctan1d", [0.0], 10.0)
    assert plastock_check(arct.model, [0.0], aprof, facts=arct.facts, seed=0).verdict == "HeuristicFail"

    proj = registry_entry("projection2to1")
    pprof = _profile("projection2to1", [0.0, 0.0], 8.0)
    entry = plastock_check(proj.model, [0.0, 0.0], pprof, facts=proj.facts, seed=0)
    assert entry.verdict == "HeuristicFail"
    # the kernel direction pins the coercivity minimum at zero
    assert max(entry.evidence["coercivity_minima"]) <= 1e-12


def test_ps_direction_scan_verdicts():
    mono = registry_get("monotone1d")
    entry = ps_direction_scan(mono, seed=0)
    assert entry.condition_id == "PS"
    assert entry.verdict == "HeuristicPass"

    arct = registry_get("arctan1d")
    entry = ps_direction_scan(arct, seed=0)
    assert entry.verdict == "HeuristicFail"
    assert all(d["collapses"] for d in entry.evidence["directions"])

    cexp = registry_get("complex_exp")
    assert ps_direction_scan(cexp, seed=0).verdict == "HeuristicFail"


def test_sampled_checks_drop_failing_samples():
    # the identity on the ball of radius 2, NaN outside it: evaluate raises
    # NonFinite there, and so does the finite-difference Jacobian
    def f(x):
        return x.copy() if np.linalg.norm(x) <= 2.0 else np.full(2, np.nan)

    m = MapModel(name="ball_identity", n=2, m=2, eval_fn=f)
    # C14: every sphere sample beyond the ball is dropped, and a radius
    # with no sample left reads 0.0
    prof = MuProfile([0.0, 0.0], [0.0, 27.0], [1.0, 1.0], False, "sur")
    entry = plastock_check(m, [0.0, 0.0], prof, seed=0)
    assert entry.evidence["radii"] == [1.0, 3.0, 9.0, 27.0]
    assert entry.evidence["coercivity_minima"][0] == pytest.approx(1.0, abs=1e-12)
    assert entry.evidence["coercivity_minima"][1:] == [0.0, 0.0, 0.0]
    assert entry.evidence["dropped"] == [0, 96, 96, 96]
    assert entry.verdict == "HeuristicFail"

    # PS: no Jacobian can be formed anywhere in the ball of radius 1000
    entry = ps_direction_scan(m, radii=(0.5, 1000.0), seed=0)
    for d in entry.evidence["directions"]:
        assert d["inf_adjoint_stretch"][0] == pytest.approx(1.0, abs=1e-9)
        assert d["inf_adjoint_stretch"][1] == 0.0
        assert d["dropped"] == [0, 128]
        assert d["collapses"]

    # C8: pairs with an end outside the ball are ignored, not read as 0;
    # a radius whose every pair is dropped reads 0.0
    entry = expansive_estimate(m, radii=(1.0, 4.0, 1000.0), seed=0)
    alphas = [row["alpha_hat"] for row in entry.evidence["per_radius"]]
    assert alphas[:2] == pytest.approx([1.0, 1.0], abs=1e-9)
    assert alphas[2] == 0.0
    assert entry.evidence["alpha_hat"] == 0.0
    dropped = [row["dropped"] for row in entry.evidence["per_radius"]]
    assert dropped[0] == 0 and 0 < dropped[1] < 194 and dropped[2] == 194

    # C17: the ball samples outside the ball of radius 2 are dropped and
    # counted; the balls have radii 2^-1 .. 2^7, 256 points each
    entry = katriel_check(m, [0.0, 0.0], [1.0], seed=0)
    balls = np.repeat(2.0 ** np.arange(-1, 8), 256)[:, None] * unit_ball_points(2, 9 * 256, 0)
    level = entry.evidence["levels"][0]
    assert level["dropped"] == int(np.sum(np.linalg.norm(balls, axis=1) > 2.0)) > 0
    assert level["hits"] > 0


def test_sampled_checks_drop_a_sample_where_the_map_raises_non_finite():
    """A map that raises NonFinite outside the ball of radius 2 reads as one
    that returns NaN there: every sampled check drops the same samples."""
    def nan_outside(x):
        return x.copy() if np.linalg.norm(x) <= 2.0 else np.full(2, np.nan)

    def raise_outside(x):
        if np.linalg.norm(x) > 2.0:
            raise NonFinite("outside the domain")
        return x.copy()

    nan_map = MapModel(name="ball_identity", n=2, m=2, eval_fn=nan_outside)
    raising = MapModel(name="ball_identity", n=2, m=2, eval_fn=raise_outside)
    prof = MuProfile([0.0, 0.0], [0.0, 27.0], [1.0, 1.0], False, "sur")
    checks = [
        lambda m: plastock_check(m, [0.0, 0.0], prof, seed=0),
        lambda m: expansive_estimate(m, radii=(1.0, 4.0, 1000.0), seed=0),
        lambda m: katriel_check(m, [0.0, 0.0], [1.0], seed=0),
        lambda m: ps_direction_scan(m, radii=(1.0, 10.0), seed=0),
    ]
    for check in checks:
        want = check(nan_map)
        assert check(raising) == want
        assert "dropped" in json.dumps(want.evidence)


def test_katriel_residual_norms_do_not_overflow():
    """Residuals up to about 1.3e202 (balls of radius up to 128) sit below
    the level 1e250, though their plain norm overflows: every sample hits,
    with no overflow warning."""
    entry = katriel_check(linear_map([[1e200, 0.0], [0.0, 1e200]]), [0.0, 0.0], [1e250], seed=0)
    (level,) = entry.evidence["levels"]
    assert level["hits"] == 9 * 256 and level["dropped"] == 0


def _ball_only_map(outside):
    """The identity on the ball of radius 2; outside it the map raises
    ValueError ("raise") or returns a value of the wrong shape ("shape")."""
    def f(x):
        if np.linalg.norm(x) <= 2.0:
            return x.copy()
        if outside == "raise":
            raise ValueError("outside the domain")
        return np.zeros(3)

    return MapModel(name="ball_only", n=2, m=2, eval_fn=f)


@pytest.mark.parametrize("outside,error", [("raise", ValueError), ("shape", DimensionMismatch)])
def test_sampled_checks_propagate_map_errors(outside, error):
    """Only a non-finite value or Jacobian drops a sample; an error raised by
    the map, or a wrong-shape value, fails the check."""
    m = _ball_only_map(outside)
    prof = MuProfile([0.0, 0.0], [0.0, 27.0], [1.0, 1.0], False, "sur")
    with pytest.raises(error):
        plastock_check(m, [0.0, 0.0], prof, seed=0)
    with pytest.raises(error):
        expansive_estimate(m, radii=(1.0, 10.0), seed=0)
    with pytest.raises(error):
        katriel_check(m, [0.0, 0.0], [1.0], seed=0)
    with pytest.raises(error):
        ps_direction_scan(m, radii=(1.0, 10.0), seed=0)


def test_expansive_emptied_last_radius_fails():
    """A last radius with no pair left reads 0.0 and fails C8, and the
    evidence is strict JSON; it read inf, a pass and an Infinity token."""
    def f(x):
        return x.copy() if np.linalg.norm(x) <= 2.0 else np.full(2, np.nan)

    m = MapModel(name="ball_identity", n=2, m=2, eval_fn=f)
    entry = expansive_estimate(m, radii=(0.15, 1.5, 15.0), seed=1)
    alphas = [row["alpha_hat"] for row in entry.evidence["per_radius"]]
    assert alphas[:2] == pytest.approx([1.0, 1.0], abs=1e-9)
    assert alphas[2] == 0.0
    assert entry.verdict == "HeuristicFail"
    json.dumps(entry.to_json_dict(), allow_nan=False)


def test_build_diagnostics_order_and_contrast():
    ent = registry_entry("asinh1d")
    prof = _profile("asinh1d", [0.0], 10.0)
    rep = build_diagnostics(ent.model, [0.0], prof, facts=ent.facts, seed=0)
    ids = [e["condition_id"] for e in rep.to_json_dict()["conditions"]]
    assert ids == list(CONDITION_ORDER)
    assert rep.entry("C10").verdict == "Fails"
    assert rep.entry("C22").verdict in ("Holds", "HeuristicPass")
    with pytest.raises(KeyError):
        rep.entry("C99")


def test_ladder_implication_consistency():
    """Maps whose C10 holds must not fail the integral check; coercive facts
    imply katriel passes at the tested levels."""
    names = [
        "identity_2",
        "monotone1d",
        "arctan1d",
        "exp1d",
        "asinh1d",
        "projection2to1",
        "parabola_sub",
    ]
    for name in names:
        ent = registry_entry(name)
        x0 = [0.0] * ent.model.n
        prof = mu_profile(ent.model, x0, 10.0, 512)
        c10 = hadamard_levy_check(prof, facts=ent.facts)
        c15 = hadamard_integral_check(prof, facts=ent.facts)
        if c10.verdict == "Holds":
            assert c15.verdict != "HeuristicFail", name
        if ent.facts.coercive:
            y0 = [float(v) for v in np.zeros(ent.model.m)]
            entry = katriel_check(ent.model, y0, [1.0, 2.0], facts=ent.facts, seed=0)
            assert entry.verdict in ("HeuristicPass", "Holds"), name


def test_unit_sphere_points_structure():
    pts = unit_sphere_points(3, 20, seed=0)
    assert pts.shape == (20, 3)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    # signed axes come first
    assert np.allclose(pts[0], [1, 0, 0]) and np.allclose(pts[1], [-1, 0, 0])
    one_d = unit_sphere_points(1, 5, seed=0)
    assert set(np.ravel(one_d).tolist()) == {1.0, -1.0}
    assert np.array_equal(unit_sphere_points(2, 9, 3), unit_sphere_points(2, 9, 3))
