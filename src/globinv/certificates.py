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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.optimize import minimize
from scipy.stats import norm as _normal
from scipy.stats import qmc

from .errors import EmptySublevel, OutOfRange, ZeroRadius
from .indicators import MuProfile, mu_profile, rho_of_r, sur_indicator, unit_ball_points
from .lifting import LiftOptions, lift_lines, weighted_path_length
from .maps import AnalyticFacts, MapModel, evaluate, jacobian

Array = np.ndarray

CONDITION_ORDER = ("C8", "C10", "C14", "C15", "C17", "C22", "PS")

VERDICT_HOLDS = "Holds"
VERDICT_FAILS = "Fails"
VERDICT_HEURISTIC_PASS = "HeuristicPass"
VERDICT_HEURISTIC_FAIL = "HeuristicFail"


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
    axes = []
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        axes.append(e.copy())
        axes.append(-e)
    if count <= len(axes):
        if m == 1:
            # alternate +1, -1 so both rays are covered for any count
            return np.array([axes[k % 2] for k in range(count)])
        return np.array(axes[:count])
    extra = count - len(axes)
    size = 1
    while size < extra:
        size *= 2
    sampler = qmc.Sobol(d=m, scramble=True, seed=seed)
    u = sampler.random(size)[:extra]
    z = _normal.ppf(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(z, axis=1)
    degenerate = norms == 0.0
    if np.any(degenerate):
        z[degenerate] = np.eye(m)[0]
        norms[degenerate] = 1.0
    return np.vstack([np.array(axes), z / norms[:, None]])


def graves_certificate(
    model: MapModel,
    x0,
    r: float,
    profile: MuProfile,
    verify_targets: int = 0,
    opts: Optional[LiftOptions] = None,
    seed: int = 0,
    boundary_scale: float = 0.99,
) -> RadiusCertificate:
    """Accessible-radius certificate at domain radius r, optionally verified
    by lifting boundary targets at boundary_scale * rho and checking that every
    lift completes inside the domain ball."""
    x0v = np.asarray(x0, dtype=float)
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
        for out in lift_lines(model, x0v, boundary_scale * rho * dirs, lift_opts):
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
            "boundary_scale": float(boundary_scale),
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


def hadamard_levy_check(
    profile: MuProfile,
    facts: Optional[AnalyticFacts] = None,
    floor: float = 1e-12,
    decay_ratio: float = 0.05,
) -> DiagnosticsEntry:
    """Uniform inverse bound (C10).  Holds asserts indicator >= 1/beta over the
    examined ball when the profile is certified; an analytic vanishing witness
    in the facts refutes it outright; otherwise the verdict is heuristic."""
    if facts is not None and facts.mu_exact is not None and facts.mu_vanishing_witness is not None:
        ks = [2 ** j for j in range(1, 21, 2)]
        vals = [float(facts.mu_exact(np.asarray(facts.mu_vanishing_witness(k), dtype=float))) for k in ks]
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
    decaying = eta0 <= 0.0 or inf_eta < decay_ratio * eta0
    evidence = {
        "inf_eta": inf_eta,
        "eta_at_zero": eta0,
        "r_max": profile.r_max,
        "certified_profile": bool(profile.certified),
    }
    if inf_eta > floor and not decaying:
        evidence["beta"] = 1.0 / inf_eta
        if profile.certified:
            return DiagnosticsEntry("C10", VERDICT_HOLDS, evidence)
        return DiagnosticsEntry("C10", VERDICT_HEURISTIC_PASS, evidence)
    evidence["note"] = "indicator bound decays over the examined radii; sampling cannot certify failure"
    return DiagnosticsEntry("C10", VERDICT_HEURISTIC_FAIL, evidence)


def hadamard_integral_check(
    profile: MuProfile,
    r_schedule=None,
    facts: Optional[AnalyticFacts] = None,
    growth_ratio: float = 1.3,
) -> DiagnosticsEntry:
    """Divergent accessible radius (C15).  Numerics cannot decide divergence;
    the verdict is Holds only with an analytic tail in the facts, otherwise a
    growth heuristic over the schedule, flagged non-conclusive."""
    rmax = profile.r_max
    if r_schedule is None:
        r_schedule = [rmax / 8.0, rmax / 4.0, rmax / 2.0, rmax]
    r_schedule = [float(r) for r in r_schedule]
    if any(
        not 0.0 < r <= rmax * (1.0 + 1e-12) for r in r_schedule
    ) or any(b <= a for a, b in zip(r_schedule, r_schedule[1:])):
        raise OutOfRange("hadamard_integral_check: r_schedule must increase within (0, r_max]")
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
    half = rho_of_r(profile, r_schedule[-1] / 2.0)
    observed = rho_values[-1] / half if half > 0.0 else 0.0
    evidence["growth_ratio_observed"] = observed
    if rho_values[-1] > 0.0 and observed >= growth_ratio:
        return DiagnosticsEntry("C15", VERDICT_HEURISTIC_PASS, evidence)
    return DiagnosticsEntry("C15", VERDICT_HEURISTIC_FAIL, evidence)


def _cube_points(n: int, count: int, seed: int) -> Array:
    size = 1
    while size < count:
        size *= 2
    sampler = qmc.Sobol(d=n, scramble=True, seed=seed)
    return 2.0 * sampler.random(size)[:count] - 1.0


def katriel_check(
    model: MapModel,
    y0,
    varrho_levels,
    sampler: Optional[Callable[[float, int], Array]] = None,
    facts: Optional[AnalyticFacts] = None,
    box_center=None,
    box_levels: int = 9,
    samples_per_box: int = 256,
    floor: float = 1e-6,
    seed: int = 0,
) -> DiagnosticsEntry:
    """Indicator positivity on residual sublevel sets (C17).

    For each level, estimates inf of the indicator over
    {x : |f(x) - y0| < level} by expanding-box rejection sampling plus a local
    minimization from the worst sample.  An applicable analytic witness (a
    sequence entering the sublevel set with vanishing indicator) upgrades the
    level to a certified Fails."""
    y0v = np.asarray(y0, dtype=float)
    levels = [float(v) for v in varrho_levels]
    if any(v <= 0.0 for v in levels) or any(b <= a for a, b in zip(levels, levels[1:])):
        raise OutOfRange("katriel_check: levels must be positive and increasing")
    center = np.zeros(model.n) if box_center is None else np.asarray(box_center, dtype=float)

    per_level = []
    worst = VERDICT_HEURISTIC_PASS
    rank = {VERDICT_HEURISTIC_PASS: 0, VERDICT_HEURISTIC_FAIL: 1, VERDICT_FAILS: 2}
    for li, level in enumerate(levels):
        if (
            facts is not None
            and facts.mu_exact is not None
            and facts.mu_vanishing_witness is not None
            and facts.witness_image_limit is not None
            and float(np.linalg.norm(np.asarray(facts.witness_image_limit) - y0v)) < level
        ):
            ks = [2 ** j for j in range(1, 21, 2)]
            pts = [np.asarray(facts.mu_vanishing_witness(k), dtype=float) for k in ks]
            mus = [float(facts.mu_exact(p)) for p in pts]
            residuals = [float(np.linalg.norm(evaluate(model, p) - y0v)) for p in pts]
            per_level.append(
                {
                    "level": level,
                    "verdict": VERDICT_FAILS,
                    "witness_mu_values": mus,
                    "witness_residuals": residuals,
                }
            )
            worst = VERDICT_FAILS
            continue

        hits = 0
        est = np.inf
        worst_point = None
        for j in range(box_levels):
            half_width = (1.0 + float(np.linalg.norm(y0v))) * (2.0 ** j)
            if sampler is not None:
                pts = np.asarray(sampler(half_width, samples_per_box), dtype=float)
            else:
                pts = center[None, :] + half_width * _cube_points(
                    model.n, samples_per_box, seed + 1000 * li + j
                )
            for p in pts:
                try:
                    res = float(np.linalg.norm(evaluate(model, p) - y0v))
                except Exception:
                    continue
                if res < level:
                    hits += 1
                    mu = sur_indicator(jacobian(model, p))
                    if mu < est:
                        est, worst_point = mu, p
        if hits == 0:
            raise EmptySublevel(
                f"katriel_check: no sample hit the sublevel set at level {level}"
            )

        def objective(x):
            try:
                res = float(np.linalg.norm(evaluate(model, x) - y0v))
                mu = sur_indicator(jacobian(model, x))
            except Exception:
                return 1e6
            if res >= level:
                return mu + 10.0 + (res - level)
            return mu
        refined = minimize(
            objective, worst_point, method="Nelder-Mead",
            options={"maxiter": 200, "xatol": 1e-10, "fatol": 1e-12},
        )
        if refined.fun < est and refined.fun < 5.0:
            est = float(refined.fun)
        verdict = VERDICT_HEURISTIC_FAIL if est <= floor else VERDICT_HEURISTIC_PASS
        per_level.append(
            {"level": level, "verdict": verdict, "inf_estimate": float(est), "hits": hits}
        )
        if rank[verdict] > rank[worst]:
            worst = verdict

    return DiagnosticsEntry(
        "C17",
        worst,
        {"y0": [float(v) for v in y0v], "levels": per_level, "floor": floor},
    )


def _segment_min_ratio(model: MapModel, u: Array, x: Array) -> float:
    """Minimum difference-quotient ratio over tight sub-pairs along [x, u]."""
    gap = float(np.linalg.norm(u - x))
    if gap <= 1e-12:
        return np.inf
    d = (u - x) / gap
    delta = gap / 64.0
    best = np.inf
    for s in np.linspace(0.0, 1.0, 33):
        c = x + s * (u - x)
        a, b = c - 0.5 * delta * d, c + 0.5 * delta * d
        try:
            val = float(np.linalg.norm(evaluate(model, b) - evaluate(model, a))) / delta
        except Exception:
            continue
        best = min(best, val)
    return best


def expansive_estimate(
    model: MapModel,
    pair_sampler: Optional[Callable[[int, float], tuple]] = None,
    radii=(1.0, 10.0, 100.0),
    pairs_per_radius: int = 192,
    seed: int = 0,
    fail_ratio: float = 0.1,
    floor: float = 1e-9,
) -> DiagnosticsEntry:
    """Global expansiveness (C8): alpha_hat = min |f(u)-f(x)|/|u-x| over
    sampled pairs, per radius, with a refinement sweep along the worst pair.
    Sampling upper-bounds the true infimum, so it can only refute."""
    per_radius = []
    overall = np.inf
    for ri, R in enumerate(radii):
        if pair_sampler is not None:
            us, xs = pair_sampler(pairs_per_radius, float(R))
            us, xs = np.asarray(us, dtype=float), np.asarray(xs, dtype=float)
        else:
            ball = unit_ball_points(model.n, 2 * pairs_per_radius, seed + 17 * ri)
            us, xs = R * ball[:pairs_per_radius], R * ball[pairs_per_radius:]
            axes = []
            for i in range(model.n):
                e = np.zeros(model.n)
                e[i] = R
                axes.append((e, -e))
            us = np.vstack([us] + [a for a, _ in axes])
            xs = np.vstack([xs] + [b for _, b in axes])
        best = np.inf
        worst_pair = None
        for u, x in zip(us, xs):
            gap = float(np.linalg.norm(u - x))
            if gap <= 1e-12:
                continue
            try:
                ratio = float(np.linalg.norm(evaluate(model, u) - evaluate(model, x))) / gap
            except Exception:
                continue
            if ratio < best:
                best, worst_pair = ratio, (u, x)
        if worst_pair is not None:
            best = min(best, _segment_min_ratio(model, worst_pair[0], worst_pair[1]))
        per_radius.append({"radius": float(R), "alpha_hat": float(best)})
        overall = min(overall, best)
    first, last = per_radius[0]["alpha_hat"], per_radius[-1]["alpha_hat"]
    evidence = {
        "per_radius": per_radius,
        "alpha_hat": float(overall),
        "note": "sampled estimate upper-bounds the true infimum; it can refute, not certify",
    }
    if last <= floor or last < fail_ratio * first:
        return DiagnosticsEntry("C8", VERDICT_HEURISTIC_FAIL, evidence)
    return DiagnosticsEntry("C8", VERDICT_HEURISTIC_PASS, evidence)


def weighted_certificate(
    model: MapModel,
    x0,
    weight: Callable[[float], float],
    profile: MuProfile,
    weight_divergent: Optional[bool] = None,
    facts: Optional[AnalyticFacts] = None,
    test_lift_count: int = 2,
    opts: Optional[LiftOptions] = None,
    floor: float = 1e-9,
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

    if facts is not None and facts.mu_exact is not None and facts.mu_vanishing_witness is not None:
        ks = [2 ** j for j in range(1, 21, 2)]
        vals = []
        for k in ks:
            xk = np.asarray(facts.mu_vanishing_witness(k), dtype=float)
            rk = float(np.linalg.norm(xk - x0v))
            vals.append(float(facts.mu_exact(xk)) * float(weight(rk)))
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
    if test_lift_count > 0 and rho_total > 0.0:
        lift_opts = opts or LiftOptions()
        targets = 0.5 * rho_total * unit_sphere_points(model.m, test_lift_count, seed)
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
    if alpha < floor:
        return DiagnosticsEntry("C22", VERDICT_HEURISTIC_FAIL, evidence)
    if profile.certified and bool(weight_divergent) and not still_falling:
        return DiagnosticsEntry("C22", VERDICT_HOLDS, evidence)
    return DiagnosticsEntry("C22", VERDICT_HEURISTIC_PASS, evidence)


def plastock_check(
    model: MapModel,
    x0,
    profile: MuProfile,
    radii=None,
    samples: int = 96,
    facts: Optional[AnalyticFacts] = None,
    seed: int = 0,
    growth_inc_ratio: float = 0.5,
    floor: float = 1e-9,
) -> DiagnosticsEntry:
    """Coercivity plus local indicator positivity (C14).  Holds only when the
    facts assert coercivity and the certified profile stays positive."""
    x0v = np.asarray(x0, dtype=float)
    rmax = profile.r_max
    if radii is None:
        radii = [rmax / 27.0, rmax / 9.0, rmax / 3.0, rmax]
    radii = [float(r) for r in radii]
    if len(radii) < 3 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise OutOfRange("plastock_check: need at least three increasing radii")
    f0 = evaluate(model, x0v)
    dirs = unit_sphere_points(model.n, samples, seed)
    m_values = []
    for R in radii:
        vals = []
        for d in dirs:
            try:
                vals.append(float(np.linalg.norm(evaluate(model, x0v + R * d) - f0)))
            except Exception:
                continue
        m_values.append(min(vals) if vals else 0.0)
    inc_first = m_values[1] - m_values[0]
    inc_last = m_values[-1] - m_values[-2]
    growing = inc_last > 0.0 and inc_last >= growth_inc_ratio * inc_first
    positive = float(profile.eta_values[-1]) > floor
    evidence = {
        "radii": radii,
        "coercivity_minima": m_values,
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
    model: MapModel,
    directions=None,
    radii=(1.0, 10.0, 100.0),
    samples: int = 128,
    seed: int = 0,
    fail_ratio: float = 0.05,
    floor: float = 1e-8,
) -> DiagnosticsEntry:
    """Per-direction residual scan: for each codomain direction v, tracks the
    sampled infimum of |J(x)^T v| over growing balls.  A direction whose
    infimum collapses signals candidate escaping sequences for targets far out
    along v.  No implication claims are made either way."""
    if directions is None:
        dirs = unit_sphere_points(model.m, 2 * model.m, seed)
    else:
        dirs = np.asarray(directions, dtype=float)
        dirs = dirs / np.linalg.norm(dirs, axis=1)[:, None]
    per_direction = []
    any_fail = False
    for di, v in enumerate(dirs):
        g_values = []
        for ri, R in enumerate(radii):
            pts = R * unit_ball_points(model.n, samples, seed + 31 * di + 7 * ri)
            vals = []
            for p in pts:
                try:
                    vals.append(float(np.linalg.norm(jacobian(model, p).T @ v)))
                except Exception:
                    continue
            g_values.append(min(vals) if vals else 0.0)
        failed = g_values[-1] <= floor or g_values[-1] < fail_ratio * g_values[0]
        any_fail = any_fail or failed
        per_direction.append(
            {
                "direction": [float(c) for c in v],
                "inf_adjoint_stretch": g_values,
                "collapses": bool(failed),
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
    y0=None,
    opts: Optional[LiftOptions] = None,
    seed: int = 0,
) -> DiagnosticsReport:
    """Run the full condition ladder and assemble entries in ladder order."""
    x0v = np.asarray(x0, dtype=float)
    y0v = evaluate(model, x0v) if y0 is None else np.asarray(y0, dtype=float)
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
