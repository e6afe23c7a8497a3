"""Radius certificates and the invertibility condition ladder.

The central object is the accessible-radius certificate: if the integrated
indicator profile gives rho > 0 at domain radius r, then the codomain ball of
radius rho around f(x0) is covered by the image of the domain ball of radius
r around x0, and every target in the smaller ball is reached by a line lift
that stays inside the larger ball.

The remaining checks grade a map against classical global-invertibility
conditions, ordered from strongest to weakest:

  C8   uniform expansiveness        |f(u) - f(x)| >= alpha |u - x|
  C10  uniformly bounded inverse    indicator >= 1/beta everywhere
  C14  coercive + locally positive indicator
  C15  divergent integrated profile (rho(r) -> infinity)
  C17  indicator bounded below on every residual sublevel set
  C22  weighted bound               mu(x) * omega(|x - x0|) >= alpha
  PS   per-direction residual scan (no implication claims)

Verdicts are Holds/Fails only when backed by an analytic bound or witness;
every sampled judgement is HeuristicPass/HeuristicFail because sampling can
refute but never certify an infimum.

Each check's thresholds and sample sizes are fixed module constants:

  Graves  verification targets at 0.99 rho
  C8      192 ball pairs per radius plus the axis pairs; fails when the last
          radius's alpha is <= 1e-9 or below 0.1 times the first radius's
  C10     passes when inf eta > 1e-12 and inf eta >= 0.05 eta(0)
  C14     96 sphere directions at r_max/27, r_max/9, r_max/3 and r_max;
          growing when the last increment is >= 0.5 times the first;
          positive when inf eta > 1e-9
  C15     rho at r_max/8, r_max/4, r_max/2 and r_max; passes when
          rho(r_max) >= 1.3 rho(r_max/2)
  C17     9 boxes of 256 Sobol points each, of half width (1 + |y0|) 2^j;
          a level fails when its infimum estimate is <= 1e-6
  C22     2 test lifts to 0.5 rho(r_max); fails when alpha < 1e-9
  PS      the 2m signed axes, 128 ball points per radius; a direction
          collapses when its last infimum is <= 1e-8 or below 0.05 times its
          first

The evidence records the ones a verdict is read against (the Graves scale,
the C14 radii, the C15 schedule, the C17 floor).  The samples of C8, C14,
C17 and PS are stacked: one evaluate_stack or jacobian_stack and at most one
SVD per batch.  A Jacobian batch holds at most 4096 points and 2**20 floats,
so its memory stays bounded in any dimension; a value stack holds one
m-vector per sample, no more floats than the sample points.  A sample is dropped only when its value or Jacobian is
non-finite, and the evidence counts the dropped samples (`dropped`: per C8
radius, counting pairs; per C14 radius; per C17 level; per PS direction and
radius); a radius with no sample left reads 0.0 in C8, C14 and PS.  An
exception raised by the map itself, or a value of the wrong shape,
propagates.  A C17 sample inside the sublevel set whose Jacobian is
non-finite raises NonFinite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import EmptySublevel, OutOfRange, ZeroRadius
from .indicators import (
    MuProfile,
    _batches,
    _indicators_at,
    _signed_axes,
    _sobol,
    _unit_directions,
    rho_of_r,
    unit_ball_points,
)
from .lifting import LiftOptions, lift_lines, weighted_path_length
from .maps import (
    AnalyticFacts,
    MapModel,
    _vector,
    evaluate,
    evaluate_stack,
    jacobian_stack,
)

Array = np.ndarray

CONDITION_ORDER = ("C8", "C10", "C14", "C15", "C17", "C22", "PS")

VERDICT_HOLDS = "Holds"
VERDICT_FAILS = "Fails"
VERDICT_HEURISTIC_PASS = "HeuristicPass"
VERDICT_HEURISTIC_FAIL = "HeuristicFail"

_BOUNDARY_SCALE = 0.99
_C8_PAIRS, _C8_FAIL_RATIO, _C8_FLOOR = 192, 0.1, 1e-9
_C10_FLOOR, _C10_DECAY_RATIO = 1e-12, 0.05
_C14_SAMPLES, _C14_GROWTH_INC_RATIO, _C14_FLOOR = 96, 0.5, 1e-9
_C15_GROWTH_RATIO = 1.3
_C17_BOXES, _C17_BOX_SAMPLES, _C17_FLOOR = 9, 256, 1e-6
_C22_TEST_LIFTS, _C22_FLOOR = 2, 1e-9
_PS_SAMPLES, _PS_FAIL_RATIO, _PS_FLOOR = 128, 0.05, 1e-8


@dataclass(frozen=True)
class DiagnosticsEntry:
    condition_id: str
    verdict: str
    evidence: dict

    def to_json_dict(self) -> dict:
        return {
            "condition_id": self.condition_id,
            "verdict": self.verdict,
            "evidence": self.evidence,
        }


@dataclass(frozen=True)
class DiagnosticsReport:
    entries: tuple

    def entry(self, condition_id: str) -> DiagnosticsEntry:
        for e in self.entries:
            if e.condition_id == condition_id:
                return e
        raise KeyError(condition_id)

    def to_json_dict(self) -> dict:
        order = {cid: k for k, cid in enumerate(CONDITION_ORDER)}
        ordered = sorted(self.entries, key=lambda e: order.get(e.condition_id, 99))
        return {"conditions": [e.to_json_dict() for e in ordered]}


@dataclass(frozen=True)
class RadiusCertificate:
    """B(f(x0), rho) is covered by the image of B(x0, r), with rho from the
    right-endpoint quadrature of the profile (a lower bound when certified)."""

    x0: Array
    y0: Array
    r: float
    rho: float
    profile: MuProfile
    certified: bool
    verification: Optional[dict] = None

    def to_json_dict(self) -> dict:
        out = {
            "x0": [float(v) for v in self.x0],
            "y0": [float(v) for v in self.y0],
            "r": float(self.r),
            "rho": float(self.rho),
            "certified": bool(self.certified),
            "profile": self.profile.to_json_dict(),
        }
        if self.verification is not None:
            out["verification"] = self.verification
        return out


def unit_sphere_points(m: int, count: int, seed: int) -> Array:
    """Deterministic unit directions: the 2m signed axes first, then
    low-discrepancy directions."""
    if count < 1:
        raise OutOfRange("unit_sphere_points: count must be >= 1")
    axes = _signed_axes(m)
    if count <= len(axes):
        return axes[:count]
    extra = _unit_directions(_sobol(m, count - len(axes), seed))
    return np.vstack([axes, extra])


@np.errstate(over="ignore")  # an overflowed norm is +inf, as np.linalg.norm gives
def _row_norms(D: Array) -> Array:
    """The Euclidean norm of each row of D.  Each row goes through the same
    dot product as np.linalg.norm, so every norm equals the row's own
    np.linalg.norm bit for bit (np.linalg.norm(D, axis=1) does not)."""
    return np.sqrt(np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0])


def _values(model: MapModel, X: Array) -> tuple:
    """f at the rows of X, the non-finite rows zeroed, and the (K,) mask of
    the rows whose value is finite."""
    Y, finite = evaluate_stack(model, X)
    Y[~finite] = 0.0
    return Y, finite


def _kept_minima(values: Array, kept: Array) -> list:
    """Per row of a (G, S) array, the minimum over the kept samples; 0.0 for
    a row with none left."""
    return [float(v[k].min()) if k.any() else 0.0 for v, k in zip(values, kept)]


def _dropped(kept: Array) -> list:
    """Per row of a (G, S) mask, the count of samples not kept."""
    return [int(c) for c in np.sum(~kept, axis=1)]


def graves_certificate(
    model: MapModel,
    x0,
    r: float,
    profile: MuProfile,
    verify_targets: int = 0,
    opts: Optional[LiftOptions] = None,
    seed: int = 0,
) -> RadiusCertificate:
    """Accessible-radius certificate at domain radius r, optionally verified
    by lifting boundary targets at 0.99 rho and checking that every lift
    completes inside the domain ball."""
    x0v = _vector(x0, model.n, "graves_certificate: x0")
    if not np.allclose(x0v, profile.base_point, atol=1e-12):
        raise OutOfRange("graves_certificate: profile is centered at a different point")
    if not 0.0 < r <= profile.r_max * (1.0 + 1e-12):
        raise OutOfRange(f"graves_certificate: r={r} outside (0, {profile.r_max}]")
    rho = rho_of_r(profile, r)
    if rho <= 0.0:
        raise ZeroRadius(f"graves_certificate: accessible radius is zero at r={r}")
    y0 = evaluate(model, x0v)

    verification = None
    if verify_targets > 0:
        base_opts = opts or LiftOptions()
        lift_opts = replace(base_opts, r_escape=float(r))
        dirs = unit_sphere_points(model.m, verify_targets, seed)
        statuses = []
        inside = 0
        completed = 0
        max_residual = 0.0
        max_distance = 0.0
        for out in lift_lines(model, x0v, _BOUNDARY_SCALE * rho * dirs, lift_opts):
            statuses.append(out.status.kind)
            if out.status.is_complete:
                completed += 1
                dist = float(np.linalg.norm(out.trajectory.points[-1] - x0v))
                max_distance = max(max_distance, dist)
                if dist < r:
                    inside += 1
                max_residual = max(max_residual, out.target_residual)
        verification = {
            "targets": int(verify_targets),
            "boundary_scale": _BOUNDARY_SCALE,
            "completed": completed,
            "inside": inside,
            "max_residual": max_residual,
            "max_distance": max_distance,
            "statuses": statuses,
            "seed": int(seed),
        }

    return RadiusCertificate(
        x0=x0v,
        y0=y0,
        r=float(r),
        rho=float(rho),
        profile=profile,
        certified=bool(profile.certified),
        verification=verification,
    )


def _witness_points(facts: Optional[AnalyticFacts]) -> Optional[list]:
    """Points x_k of the facts' analytic witness, along which the indicator
    vanishes, for k = 2, 8, ..., 2^19; None when the facts supply no
    witness or no exact indicator to evaluate along it."""
    if facts is None or facts.mu_exact is None or facts.mu_vanishing_witness is None:
        return None
    return [
        np.asarray(facts.mu_vanishing_witness(2 ** j), dtype=float) for j in range(1, 21, 2)
    ]


def hadamard_levy_check(
    profile: MuProfile, facts: Optional[AnalyticFacts] = None
) -> DiagnosticsEntry:
    """Uniform inverse bound (C10).  Holds asserts indicator >= 1/beta over the
    examined ball when the profile is certified; an analytic vanishing witness
    in the facts refutes it outright; otherwise the verdict is heuristic."""
    witness = _witness_points(facts)
    if witness is not None:
        vals = [float(facts.mu_exact(p)) for p in witness]
        if vals[-1] < min(vals[0] * 1e-3, 1e-5):
            return DiagnosticsEntry(
                "C10",
                VERDICT_FAILS,
                {
                    "witness_mu_values": vals,
                    "note": "analytic witness drives the indicator to zero",
                },
            )
    eta0 = float(profile.eta_values[0])
    inf_eta = float(profile.eta_values[-1])
    decaying = eta0 <= 0.0 or inf_eta < _C10_DECAY_RATIO * eta0
    evidence = {
        "inf_eta": inf_eta,
        "eta_at_zero": eta0,
        "r_max": profile.r_max,
        "certified_profile": bool(profile.certified),
    }
    if inf_eta > _C10_FLOOR and not decaying:
        evidence["beta"] = 1.0 / inf_eta
        if profile.certified:
            return DiagnosticsEntry("C10", VERDICT_HOLDS, evidence)
        return DiagnosticsEntry("C10", VERDICT_HEURISTIC_PASS, evidence)
    evidence["note"] = "indicator bound decays over the examined radii; sampling cannot certify failure"
    return DiagnosticsEntry("C10", VERDICT_HEURISTIC_FAIL, evidence)


def hadamard_integral_check(
    profile: MuProfile, facts: Optional[AnalyticFacts] = None
) -> DiagnosticsEntry:
    """Divergent accessible radius (C15).  Numerics cannot decide divergence;
    the verdict is Holds only with an analytic tail in the facts, otherwise a
    growth heuristic over the schedule, flagged non-conclusive."""
    rmax = profile.r_max
    r_schedule = [rmax / 8.0, rmax / 4.0, rmax / 2.0, rmax]
    rho_values = [rho_of_r(profile, r) for r in r_schedule]
    evidence = {
        "r_schedule": r_schedule,
        "rho_values": rho_values,
        "non_conclusive": True,
    }
    if (
        facts is not None
        and facts.integral_divergent
        and profile.certified
        and rho_values[-1] > 0.0
    ):
        evidence["analytic_tail"] = facts.integral_tail or "divergent by analytic bound"
        evidence["non_conclusive"] = False
        return DiagnosticsEntry("C15", VERDICT_HOLDS, evidence)
    half = rho_values[2]  # rho(r_max / 2)
    observed = rho_values[-1] / half if half > 0.0 else 0.0
    evidence["growth_ratio_observed"] = observed
    if rho_values[-1] > 0.0 and observed >= _C15_GROWTH_RATIO:
        return DiagnosticsEntry("C15", VERDICT_HEURISTIC_PASS, evidence)
    return DiagnosticsEntry("C15", VERDICT_HEURISTIC_FAIL, evidence)


@np.errstate(over="ignore")  # an overflowed residual norm is +inf and fails the test
def katriel_check(
    model: MapModel,
    y0,
    varrho_levels,
    facts: Optional[AnalyticFacts] = None,
    box_center=None,
    seed: int = 0,
) -> DiagnosticsEntry:
    """Indicator positivity on residual sublevel sets (C17).

    For each level, estimates inf of the indicator over
    {x : |f(x) - y0| < level} as the least indicator over the samples of
    expanding boxes that fall inside the set.  An applicable analytic witness (a
    sequence entering the sublevel set with vanishing indicator) upgrades the
    level to a certified Fails."""
    y0v = np.asarray(y0, dtype=float)
    levels = [float(v) for v in varrho_levels]
    if not (all(v > 0.0 for v in levels) and all(b > a for a, b in zip(levels, levels[1:]))):
        raise OutOfRange("katriel_check: levels must be positive and increasing")
    center = np.zeros(model.n) if box_center is None else np.asarray(box_center, dtype=float)
    witness = _witness_points(facts)
    scale = 1.0 + float(np.linalg.norm(y0v))

    per_level = []
    worst = VERDICT_HEURISTIC_PASS
    rank = {VERDICT_HEURISTIC_PASS: 0, VERDICT_HEURISTIC_FAIL: 1, VERDICT_FAILS: 2}
    for li, level in enumerate(levels):
        if (
            witness is not None
            and facts.witness_image_limit is not None
            and float(np.linalg.norm(np.asarray(facts.witness_image_limit) - y0v)) < level
        ):
            mus = [float(facts.mu_exact(p)) for p in witness]
            residuals = [float(np.linalg.norm(evaluate(model, p) - y0v)) for p in witness]
            per_level.append(
                {
                    "level": level,
                    "verdict": VERDICT_FAILS,
                    "witness_mu_values": mus,
                    "witness_residuals": residuals,
                    "dropped": 0,
                }
            )
            worst = VERDICT_FAILS
            continue

        boxes = []
        for j in range(_C17_BOXES):
            half_width = scale * (2.0 ** j)
            cube = 2.0 * _sobol(model.n, _C17_BOX_SAMPLES, seed + 1000 * li + j) - 1.0
            boxes.append(center[None, :] + half_width * cube)
        pts = np.vstack(boxes)
        Y, finite = _values(model, pts)
        inside = pts[finite & (_row_norms(Y - y0v) < level)]
        hits = inside.shape[0]
        if hits == 0:
            raise EmptySublevel(
                f"katriel_check: no sample hit the sublevel set at level {level}"
            )
        est = float(_indicators_at(model, inside, "sur").min())
        verdict = VERDICT_HEURISTIC_FAIL if est <= _C17_FLOOR else VERDICT_HEURISTIC_PASS
        per_level.append(
            {
                "level": level,
                "verdict": verdict,
                "inf_estimate": est,
                "hits": hits,
                "dropped": int(np.sum(~finite)),
            }
        )
        if rank[verdict] > rank[worst]:
            worst = verdict

    return DiagnosticsEntry(
        "C17",
        worst,
        {"y0": [float(v) for v in y0v], "levels": per_level, "floor": _C17_FLOOR},
    )


def _pair_ratios(model: MapModel, U: Array, X: Array) -> tuple:
    """|f(u) - f(x)| / |u - x| for the row pairs of U and X, and the mask of
    the pairs kept: both values finite.  A pair with |u - x| <= 1e-12 reads
    inf and is always kept; a dropped pair reads inf too."""
    K = U.shape[0]
    Y, finite = _values(model, np.vstack([U, X]))
    gap = _row_norms(U - X)
    live = gap > 1e-12
    kept = (finite[:K] & finite[K:]) | ~live
    ratios = np.full(K, np.inf)
    np.divide(_row_norms(Y[:K] - Y[K:]), gap, out=ratios, where=live & kept)
    return ratios, kept


def _segment_min_ratio(model: MapModel, u: Array, x: Array) -> float:
    """Minimum difference-quotient ratio over tight sub-pairs along [x, u]."""
    gap = float(np.linalg.norm(u - x))
    d = (u - x) / gap
    delta = gap / 64.0
    half = 0.5 * delta * d
    c = x + np.linspace(0.0, 1.0, 33)[:, None] * (u - x)
    Y, finite = _values(model, np.vstack([c + half, c - half]))
    quotients = _row_norms(Y[:33] - Y[33:]) / delta
    return float(np.min(quotients[finite[:33] & finite[33:]], initial=np.inf))


@np.errstate(over="ignore")  # an overflowed ratio is +inf and never the minimum
def expansive_estimate(
    model: MapModel, radii=(1.0, 10.0, 100.0), seed: int = 0
) -> DiagnosticsEntry:
    """Global expansiveness (C8): alpha_hat = min |f(u)-f(x)|/|u-x| over
    sampled pairs, per radius, with a refinement sweep along the worst pair.
    Sampling upper-bounds the true infimum, so it can only refute."""
    per_radius = []
    overall = np.inf
    for ri, R in enumerate(radii):
        ball = unit_ball_points(model.n, 2 * _C8_PAIRS, seed + 17 * ri)
        axes = R * _signed_axes(model.n)  # the pairs (R e_i, -R e_i)
        us = np.vstack([R * ball[:_C8_PAIRS], axes[0::2]])
        xs = np.vstack([R * ball[_C8_PAIRS:], axes[1::2]])
        ratios, kept = _pair_ratios(model, us, xs)
        best = np.inf if kept.any() else 0.0  # no pair left: nothing shows expansion
        i = int(np.argmin(ratios))  # the first minimum
        if ratios[i] < best:  # refine along the worst pair
            best = min(float(ratios[i]), _segment_min_ratio(model, us[i], xs[i]))
        per_radius.append(
            {"radius": float(R), "alpha_hat": float(best), "dropped": int(np.sum(~kept))}
        )
        overall = min(overall, best)
    first, last = per_radius[0]["alpha_hat"], per_radius[-1]["alpha_hat"]
    evidence = {
        "per_radius": per_radius,
        "alpha_hat": float(overall),
        "note": "sampled estimate upper-bounds the true infimum; it can refute, not certify",
    }
    if last <= _C8_FLOOR or last < _C8_FAIL_RATIO * first:
        return DiagnosticsEntry("C8", VERDICT_HEURISTIC_FAIL, evidence)
    return DiagnosticsEntry("C8", VERDICT_HEURISTIC_PASS, evidence)


def weighted_certificate(
    model: MapModel,
    x0,
    weight: Callable[[float], float],
    profile: MuProfile,
    weight_divergent: Optional[bool] = None,
    facts: Optional[AnalyticFacts] = None,
    opts: Optional[LiftOptions] = None,
    seed: int = 0,
) -> DiagnosticsEntry:
    """Weighted indicator bound (C22): checks eta(rho) * weight(rho) >= alpha
    on the profile grid and records the weighted length bound realized on a
    few test lifts.  Holds needs a certified profile, a caller-asserted
    divergent weight integral, and a grid minimum that has stabilized before
    r_max; an analytic vanishing witness whose weighted indicator collapses
    refutes the condition outright."""
    x0v = np.asarray(x0, dtype=float)
    products = []
    for rho, eta in zip(profile.radii, profile.eta_values):
        om = float(weight(float(rho)))
        if not np.isfinite(om) or om <= 0.0:
            raise OutOfRange("weighted_certificate: weight must be positive and finite")
        products.append(eta * om)
    alpha = float(min(products))

    witness = _witness_points(facts)
    if witness is not None:
        vals = [
            float(facts.mu_exact(xk)) * float(weight(float(np.linalg.norm(xk - x0v))))
            for xk in witness
        ]
        if vals[-1] < min(vals[0] * 1e-3, 1e-5):
            return DiagnosticsEntry(
                "C22",
                VERDICT_FAILS,
                {
                    "alpha": alpha,
                    "weighted_witness_values": vals,
                    "note": "analytic witness drives the weighted indicator to zero",
                },
            )

    lift_ratios = []
    rho_total = rho_of_r(profile, profile.r_max)
    if rho_total > 0.0:
        lift_opts = opts or LiftOptions()
        targets = 0.5 * rho_total * unit_sphere_points(model.m, _C22_TEST_LIFTS, seed)
        for w, out in zip(targets, lift_lines(model, x0v, targets, lift_opts)):
            if not out.status.is_complete or out.trajectory.points.shape[0] < 2:
                continue
            wl = weighted_path_length(out.trajectory, weight, x_ref=x0v)
            mus = out.trajectory.mu_values
            radii_along = np.linalg.norm(out.trajectory.points - x0v[None, :], axis=1)
            weighted_mu = min(
                float(m * weight(float(r))) for m, r in zip(mus, radii_along)
            )
            lift_ratios.append(wl * weighted_mu / float(np.linalg.norm(w)))
    # a minimum sitting at r_max with the product still falling is an
    # examined-region artifact, not a global bound
    i_min = int(np.argmin(products))
    tail = products[(3 * len(products)) // 4]
    still_falling = i_min == len(products) - 1 and products[-1] < tail * (1.0 - 1e-3)
    evidence = {
        "alpha": alpha,
        "weight_divergent": weight_divergent,
        "certified_profile": bool(profile.certified),
        "alpha_stabilized": not still_falling,
        "lift_bound_ratios": lift_ratios,
    }
    if alpha < _C22_FLOOR:
        return DiagnosticsEntry("C22", VERDICT_HEURISTIC_FAIL, evidence)
    if profile.certified and bool(weight_divergent) and not still_falling:
        return DiagnosticsEntry("C22", VERDICT_HOLDS, evidence)
    return DiagnosticsEntry("C22", VERDICT_HEURISTIC_PASS, evidence)


def plastock_check(
    model: MapModel,
    x0,
    profile: MuProfile,
    facts: Optional[AnalyticFacts] = None,
    seed: int = 0,
) -> DiagnosticsEntry:
    """Coercivity plus local indicator positivity (C14).  Holds only when the
    facts assert coercivity and the certified profile stays positive."""
    x0v = np.asarray(x0, dtype=float)
    rmax = profile.r_max
    radii = [rmax / 27.0, rmax / 9.0, rmax / 3.0, rmax]
    f0 = evaluate(model, x0v)
    dirs = unit_sphere_points(model.n, _C14_SAMPLES, seed)
    pts = np.vstack([x0v + R * dirs for R in radii])
    Y, finite = _values(model, pts)
    residuals = _row_norms(Y - f0).reshape(len(radii), -1)
    kept = finite.reshape(len(radii), -1)
    m_values = _kept_minima(residuals, kept)
    inc_first = m_values[1] - m_values[0]
    inc_last = m_values[-1] - m_values[-2]
    growing = inc_last > 0.0 and inc_last >= _C14_GROWTH_INC_RATIO * inc_first
    positive = float(profile.eta_values[-1]) > _C14_FLOOR
    evidence = {
        "radii": radii,
        "coercivity_minima": m_values,
        "dropped": _dropped(kept),
        "eta_min": float(profile.eta_values[-1]),
        "certified_profile": bool(profile.certified),
        "facts_coercive": None if facts is None else facts.coercive,
    }
    if facts is not None and facts.coercive and profile.certified and positive:
        return DiagnosticsEntry("C14", VERDICT_HOLDS, evidence)
    if growing and positive:
        return DiagnosticsEntry("C14", VERDICT_HEURISTIC_PASS, evidence)
    return DiagnosticsEntry("C14", VERDICT_HEURISTIC_FAIL, evidence)


def ps_direction_scan(
    model: MapModel, radii=(1.0, 10.0, 100.0), seed: int = 0
) -> DiagnosticsEntry:
    """Per-direction residual scan: for each signed codomain axis v, tracks
    the sampled infimum of |J(x)^T v| over growing balls.  A direction whose
    infimum collapses signals candidate escaping sequences for targets far out
    along v.  No implication claims are made either way."""
    per_direction = []
    any_fail = False
    for di, v in enumerate(_signed_axes(model.m)):
        pts = np.vstack([
            R * unit_ball_points(model.n, _PS_SAMPLES, seed + 31 * di + 7 * ri)
            for ri, R in enumerate(radii)
        ])
        stretch = np.empty(len(pts))
        kept = np.empty(len(pts), dtype=bool)
        for rows in _batches(len(pts), model.m * model.n):
            J, finite = jacobian_stack(model, pts[rows])
            J[~finite] = 0.0
            # v = +-e_i, so J^T v is +-(row i of J) exactly, with the same norm
            stretch[rows], kept[rows] = _row_norms(J[:, di // 2]), finite
        shape = (len(radii), _PS_SAMPLES)
        stretch, kept = stretch.reshape(shape), kept.reshape(shape)
        g_values = _kept_minima(stretch, kept)
        failed = g_values[-1] <= _PS_FLOOR or g_values[-1] < _PS_FAIL_RATIO * g_values[0]
        any_fail = any_fail or failed
        per_direction.append(
            {
                "direction": [float(c) for c in v],
                "inf_adjoint_stretch": g_values,
                "collapses": bool(failed),
                "dropped": _dropped(kept),
            }
        )
    verdict = VERDICT_HEURISTIC_FAIL if any_fail else VERDICT_HEURISTIC_PASS
    return DiagnosticsEntry(
        "PS",
        verdict,
        {"radii": [float(r) for r in radii], "directions": per_direction},
    )


def build_diagnostics(
    model: MapModel,
    x0,
    profile: MuProfile,
    facts: Optional[AnalyticFacts] = None,
    weight: Optional[Callable[[float], float]] = None,
    weight_divergent: Optional[bool] = None,
    levels=(1.0, 2.0),
    opts: Optional[LiftOptions] = None,
    seed: int = 0,
) -> DiagnosticsReport:
    """Run the full condition ladder and assemble entries in ladder order."""
    x0v = np.asarray(x0, dtype=float)
    y0v = evaluate(model, x0v)
    if weight is None:
        weight = lambda rho: 1.0 + rho  # noqa: E731
        weight_divergent = True
    rmax = profile.r_max
    scan_radii = (0.1 * rmax, rmax, 10.0 * rmax)
    entries = (
        expansive_estimate(model, radii=scan_radii, seed=seed + 1),
        hadamard_levy_check(profile, facts=facts),
        plastock_check(model, x0v, profile, facts=facts, seed=seed + 3),
        hadamard_integral_check(profile, facts=facts),
        katriel_check(model, y0v, levels, facts=facts, box_center=x0v, seed=seed + 5),
        weighted_certificate(
            model, x0v, weight, profile,
            weight_divergent=weight_divergent, facts=facts, opts=opts, seed=seed + 7,
        ),
        ps_direction_scan(model, radii=scan_radii, seed=seed + 11),
    )
    return DiagnosticsReport(entries=entries)
