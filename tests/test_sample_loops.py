"""The stacked sampling of the sampled profile and the condition ladder
against the per-point loops it replaced.

The reference functions below sample one point at a time, through the
scalar evaluate / jacobian / indicator calls, and drop a sample whose value
or Jacobian is non-finite.  Each takes its points block by block from a
plain prefix of the check's one Sobol draw (_ball_block), where the checks
draw all their blocks at once.  The stacked code must give the same numbers bit
for bit, and the same count of dropped samples, however its batches are cut;
and a batch must stay within its memory budget in any dimension.
"""

import json
import tracemalloc

import numpy as np
import pytest

from globinv.certificates import (
    expansive_estimate,
    katriel_check,
    plastock_check,
    ps_direction_scan,
    unit_sphere_points,
)
from globinv import indicators
from globinv.errors import EmptySublevel, NonFinite
from globinv.indicators import (
    MuProfile,
    _batches,
    _signed_axes,
    _sobol,
    _unit_directions,
    inj_indicator,
    mu_profile,
    sur_indicator,
    unit_ball_points,
)
from globinv.maps import (
    MapModel,
    default_point,
    evaluate,
    jacobian,
    linear_map,
    list_map_names,
    registry_entry,
    registry_get,
)


def _fd_map():
    # no jac_fn: every Jacobian is a central finite difference
    return MapModel(
        name="fd_cubic",
        n=2,
        m=2,
        eval_fn=lambda x: np.array([x[0] + x[1] ** 3, np.sin(x[0]) + x[1]]),
    )


def _nan_outside_ball():
    # the identity on the ball of radius 2, NaN outside it
    def f(x):
        return x.copy() if np.linalg.norm(x) <= 2.0 else np.full(2, np.nan)

    return MapModel(name="nan_outside_ball", n=2, m=2, eval_fn=f)


def _cases():
    """(model, facts) for every registry map and four maps built here."""
    cases = [registry_entry(name) for name in list_map_names() if name != "linear"]
    cases = [(e.model, e.facts) for e in cases]
    cases.append((linear_map([[1.0, 0.3], [-0.2, 0.8]]), None))
    cases.append((linear_map([[1.0, 2.0, -0.5]], name="linear_wide"), None))
    cases.append((_fd_map(), None))
    cases.append((_nan_outside_ball(), None))
    return cases


_CASES = _cases()
_IDS = [model.name for model, _ in _CASES]


def _bits(obj) -> str:
    """A text that differs whenever a float in obj differs in any bit."""
    return json.dumps(obj, sort_keys=True)


class _Kept:
    """Runs fn on each sample, dropping (and counting) the ones whose value
    or Jacobian is non-finite."""

    def __init__(self):
        self.dropped = 0

    def __call__(self, fn, items):
        for item in items:
            try:
                value = fn(item)
            except NonFinite:
                self.dropped += 1
                continue
            yield item, value


# ---------------------------------------------------------------------------
# the per-point reference loops


def _ball_block(n, count, seed, k):
    """Set k of a check's unit-ball points: rows [k 2^p, k 2^p + count) of
    the Sobol sequence drawn with the check's seed, 2^p >= count, sent
    through the radial-direction map of unit_ball_points."""
    stride = 1 << (count - 1).bit_length()
    u = _sobol(n + 1, (k + 1) * stride, seed)[k * stride : k * stride + count]
    return _unit_directions(u[:, :n]) * (u[:, n] ** (1.0 / n))[:, None]


def _indicator(model, x, kind):
    J = jacobian(model, x)
    return sur_indicator(J) if kind == "sur" else inj_indicator(J)


def _loop_eta(model, x0, r_max, grid_size, sample_count, kind, seed):
    radii = np.linspace(0.0, float(r_max), grid_size + 1)
    ball = unit_ball_points(model.n, sample_count, seed)
    center_value = _indicator(model, x0, kind)
    eta = np.empty(radii.size)
    eta[0] = center_value
    for k in range(1, radii.size):
        pts = x0[None, :] + radii[k] * ball
        vals = [_indicator(model, p, kind) for p in pts]
        eta[k] = min(center_value, min(vals))
    return np.minimum.accumulate(eta)


def _loop_segment_min_ratio(model, u, x):
    gap = float(np.linalg.norm(u - x))
    if gap <= 1e-12:
        return np.inf
    d = (u - x) / gap
    delta = gap / 64.0
    half = 0.5 * delta * d

    def quotient(s):
        c = x + s * (u - x)
        return float(np.linalg.norm(evaluate(model, c + half) - evaluate(model, c - half))) / delta

    return min((val for _, val in _Kept()(quotient, np.linspace(0.0, 1.0, 33))), default=np.inf)


@np.errstate(over="ignore")
def _loop_c8(model, radii, seed):
    def pair_ratio(pair):
        u, x = pair
        gap = float(np.linalg.norm(u - x))
        if gap <= 1e-12:
            return np.inf
        return float(np.linalg.norm(evaluate(model, u) - evaluate(model, x))) / gap

    per_radius = []
    overall = np.inf
    for ri, R in enumerate(radii):
        ball = _ball_block(model.n, 2 * 192, seed, ri)
        us, xs = R * ball[:192], R * ball[192:]
        axes = R * _signed_axes(model.n)
        us, xs = np.vstack([us, axes[0::2]]), np.vstack([xs, axes[1::2]])
        kept_fn = _Kept()
        kept = list(kept_fn(pair_ratio, zip(us, xs)))
        best = np.inf if kept else 0.0
        worst_pair = None
        for (u, x), ratio in kept:
            if ratio < best:
                best, worst_pair = ratio, (u, x)
        if worst_pair is not None:
            best = min(best, _loop_segment_min_ratio(model, worst_pair[0], worst_pair[1]))
        per_radius.append(
            {"radius": float(R), "alpha_hat": float(best), "dropped": kept_fn.dropped}
        )
        overall = min(overall, best)
    return {"per_radius": per_radius, "alpha_hat": float(overall)}


def _loop_c14(model, x0, r_max, seed):
    radii = [r_max / 27.0, r_max / 9.0, r_max / 3.0, r_max]
    f0 = evaluate(model, x0)

    def residual(x):
        return float(np.linalg.norm(evaluate(model, x) - f0))

    dirs = unit_sphere_points(model.n, 96, seed)
    m_values, dropped = [], []
    for R in radii:
        kept_fn = _Kept()
        m_values.append(min((v for _, v in kept_fn(residual, x0 + R * dirs)), default=0.0))
        dropped.append(kept_fn.dropped)
    return {"coercivity_minima": m_values, "dropped": dropped}


@np.errstate(over="ignore")
def _loop_c17(model, y0, levels, facts, center, seed):
    witness = None
    if facts is not None and facts.mu_exact is not None and facts.mu_vanishing_witness is not None:
        witness = [np.asarray(facts.mu_vanishing_witness(2 ** j), dtype=float)
                   for j in range(1, 21, 2)]

    def residual(p):
        return float(np.linalg.norm(evaluate(model, p) - y0))

    per_level = []
    for li, level in enumerate(levels):
        if (
            witness is not None
            and facts.witness_image_limit is not None
            and float(np.linalg.norm(np.asarray(facts.witness_image_limit) - y0)) < level
        ):
            per_level.append({
                "level": level,
                "verdict": "Fails",
                "witness_mu_values": [float(facts.mu_exact(p)) for p in witness],
                "witness_residuals": [float(np.linalg.norm(evaluate(model, p) - y0))
                                      for p in witness],
                "dropped": 0,
            })
            continue
        hits = 0
        est = np.inf
        kept_fn = _Kept()
        for j in range(9):
            radius = (1.0 + float(np.linalg.norm(y0))) * (2.0 ** (j - 1))
            ball = _ball_block(model.n, 256, seed, 9 * li + j)
            for p, res in kept_fn(residual, center[None, :] + radius * ball):
                if res < level:
                    hits += 1
                    mu = sur_indicator(jacobian(model, p))
                    est = min(est, mu)
        if hits == 0:
            raise EmptySublevel(f"katriel_check: no sample hit the sublevel set at level {level}")

        per_level.append({
            "level": level,
            "verdict": "HeuristicFail" if est <= 1e-6 else "HeuristicPass",
            "inf_estimate": float(est),
            "hits": hits,
            "dropped": kept_fn.dropped,
        })
    return per_level


def _loop_ps(model, radii, seed):
    per_direction = []
    for di, v in enumerate(_signed_axes(model.m)):
        def stretch(p):
            return float(np.linalg.norm(jacobian(model, p).T @ v))

        g_values, dropped = [], []
        for ri, R in enumerate(radii):
            pts = R * _ball_block(model.n, 128, seed, len(radii) * di + ri)
            kept_fn = _Kept()
            g_values.append(min((g for _, g in kept_fn(stretch, pts)), default=0.0))
            dropped.append(kept_fn.dropped)
        per_direction.append({"direction": [float(c) for c in v],
                              "inf_adjoint_stretch": g_values, "dropped": dropped})
    return per_direction


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the error itself is compared
        return (type(exc).__name__, str(exc))


# ---------------------------------------------------------------------------
# stacked == loop


@pytest.mark.parametrize("kind", ["sur", "inj"])
@pytest.mark.parametrize("model", [m for m, _ in _CASES], ids=_IDS)
def test_sampled_profile_matches_loop(model, kind):
    # 65 radii x 64 points: more points than one stacked batch holds
    x0 = default_point(model)
    eta = mu_profile(model, x0, 1.5, 65, mode="sampled", sample_count=64,
                     indicator_kind=kind, seed=3).eta_values
    ref = _loop_eta(model, x0, 1.5, 65, 64, kind, 3)
    assert eta.tobytes() == ref.tobytes()


@np.errstate(over="ignore")  # exp1d's Jacobian overflows to inf far out
def test_sampled_profile_raises_as_loop():
    """The first non-finite Jacobian in radius-major order raises, with the
    message jacobian() gives there."""
    for model in (_nan_outside_ball(), registry_entry("exp1d").model):
        x0 = default_point(model)
        ref = _outcome(_loop_eta, model, x0, 800.0, 70, 64, "sur", 1)
        out = _outcome(lambda: mu_profile(model, x0, 800.0, 70, mode="sampled",
                                          sample_count=64, seed=1))
        assert ref[0] == "NonFinite"
        assert out == ref


def _assert_ladder_matches_loop(model, facts):
    x0 = default_point(model)
    r_max = 2.0
    scan = (0.1 * r_max, r_max, 10.0 * r_max)

    ev = expansive_estimate(model, radii=scan, seed=1).evidence
    assert _bits({k: ev[k] for k in ("per_radius", "alpha_hat")}) == _bits(_loop_c8(model, scan, 1))

    prof = MuProfile(x0, [0.0, r_max], [1.0, 1.0], False, "sur")
    ev = plastock_check(model, x0, prof, seed=3).evidence
    assert _bits({k: ev[k] for k in ("coercivity_minima", "dropped")}) == _bits(
        _loop_c14(model, x0, r_max, 3)
    )

    y0 = evaluate(model, x0)
    for levels in ((1.0, 2.0), (1e-3,)):
        out = _outcome(lambda: katriel_check(model, y0, levels, facts=facts,
                                             box_center=x0, seed=5).evidence["levels"])
        ref = _outcome(_loop_c17, model, y0, levels, facts, x0, 5)
        assert _bits(out) == _bits(ref)

    ev = ps_direction_scan(model, radii=scan, seed=11).evidence
    directions = [{k: d[k] for k in ("direction", "inf_adjoint_stretch", "dropped")}
                  for d in ev["directions"]]
    assert _bits(directions) == _bits(_loop_ps(model, scan, 11))


@pytest.mark.parametrize("model,facts", _CASES, ids=_IDS)
def test_ladder_evidence_matches_loop(model, facts):
    _assert_ladder_matches_loop(model, facts)


_SMALL_CASES = [c for c in _CASES if c[0].name in
                ("exp1d", "complex_exp", "linear_wide", "fd_cubic", "nan_outside_ball")]


@pytest.mark.parametrize("model,facts", _SMALL_CASES, ids=[m.name for m, _ in _SMALL_CASES])
def test_small_batches_match_loop(model, facts, monkeypatch):
    """Batches cut far below the default budget (37 points of a 2 x 2
    Jacobian) give the same numbers as the loops."""
    monkeypatch.setattr(indicators, "_STACK_FLOATS", 37 * 4)
    _assert_ladder_matches_loop(model, facts)
    x0 = default_point(model)
    eta = mu_profile(model, x0, 1.5, 9, mode="sampled", sample_count=64, seed=3).eta_values
    assert eta.tobytes() == _loop_eta(model, x0, 1.5, 9, 64, "sur", 3).tobytes()


def test_small_batches_raise_as_loop(monkeypatch):
    """With 37-point batches the first non-finite Jacobian lies several
    batches in, and still raises there with jacobian()'s message: in the
    sampled profile, and at a C17 hit."""
    monkeypatch.setattr(indicators, "_STACK_FLOATS", 37 * 4)
    model = _nan_outside_ball()
    x0 = default_point(model)
    ref = _outcome(_loop_eta, model, x0, 3.0, 6, 64, "sur", 1)
    out = _outcome(lambda: mu_profile(model, x0, 3.0, 6, mode="sampled",
                                      sample_count=64, seed=1))
    assert ref[0] == "NonFinite"
    assert out == ref

    # the identity, with a NaN Jacobian on the cap x_0 > 0.9 of the unit disc
    cap = MapModel(name="nan_jacobian_cap", n=2, m=2, eval_fn=lambda x: x.copy(),
                   jac_fn=lambda x: np.full((2, 2), np.nan) if x[0] > 0.9 else np.eye(2))
    y0 = np.zeros(2)
    ref = _outcome(_loop_c17, cap, y0, (1.0,), None, y0, 5)
    out = _outcome(lambda: katriel_check(cap, y0, (1.0,), seed=5))
    assert ref[0] == "NonFinite"
    assert out == ref


@pytest.mark.parametrize("floats_per_row", [1, 4, 9, 576, 4096, 512 * 512, 2 ** 21])
@pytest.mark.parametrize("total", [1, 383, 4096, 4097, 20000])
def test_batches_cover_rows_within_budget(total, floats_per_row):
    batches = _batches(total, floats_per_row)
    assert batches[0].start == 0 and batches[-1].stop == total
    assert all(a.stop == b.start for a, b in zip(batches, batches[1:]))
    for b in batches:
        rows = b.stop - b.start
        assert 1 <= rows <= 4096
        assert rows == 1 or rows * floats_per_row <= 2 ** 20


def test_high_dimension_stacks_stay_bounded():
    """On identity_32 (1024 floats per Jacobian) no sampled stage holds
    more than a few budgets of stacked Jacobians: all PS samples at once
    would take about 400 MiB, one 4096-point profile batch about 64 MiB."""
    model = registry_get("identity_32")
    x0 = np.zeros(32)
    stages = [
        lambda: ps_direction_scan(model, radii=(0.1, 1.0, 10.0), seed=1),
        lambda: mu_profile(model, x0, 1.0, 16, mode="sampled", sample_count=512, seed=1),
        lambda: katriel_check(model, x0, (12.0,), seed=1),
    ]
    for stage in stages:
        tracemalloc.start()
        try:
            stage()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


def test_high_dimension_ps_draw_stays_bounded():
    """PS on identity_128 samples 256 signed axes: its one draw of 256 sets
    of 128 points, 129 coordinates each, would take about 100 MiB at once.
    Drawn a few sets at a time it stays under the same few budgets."""
    model = registry_get("identity_128")
    tracemalloc.start()
    try:
        entry = ps_direction_scan(model, radii=(1.0,), seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(entry.evidence["directions"]) == 256
    assert peak < 32 * 2 ** 20
