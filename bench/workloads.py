"""Seeded job mixes for the three benchmark workloads.

A workload is an endless sequence of *cycles*.  Every cycle holds the same
job kinds in the same proportions; the seed only draws the numbers inside
the jobs (radii, targets, seed points, sampling seeds), stratified so that
every few cycles cover each range evenly.  The timed loop runs whole
cycles, so every run sees the stated mix whatever its length, and
jobs-per-second from two seeds compare like with like.

The program sees only the job dicts built here, exactly as a user would
write them in a job file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Every registry name list_map_names() returns; "linear" gets a seeded matrix.
REGISTRY_MAPS = (
    "identity_1", "identity_2", "identity_3", "arctan1d", "asinh1d", "complex_exp",
    "exp1d", "monotone1d", "parabola_sub", "projection2to1", "linear",
)

# sweep: the certify radius r of every map is drawn from this range.
SWEEP_MAPS = ("complex_exp", "arctan1d", "monotone1d", "asinh1d", "identity_3", "parabola_sub")
SWEEP_R = (0.75, 1.25)
SWEEP_CYCLE_COPIES = 2  # each map appears this many times per cycle

CHAIN_SOLVES_PER_KIND = 6  # far complex_exp, edge arctan1d, tiny exp1d
STAR_BUDGETS = {"arctan1d": 2.0, "exp1d": 4.0, "complex_exp": 5.0}
STAR_REL_TOL = 1e-3
FIBRE_MAX_POINTS = 6

SAMPLED_MAPS = {"complex_exp": (1.0, 3.0), "asinh1d": (1.0, 5.0), "parabola_sub": (1.0, 3.0)}
SAMPLED_GRIDS = (128, 256)
SAMPLE_COUNT = 64
LARGE_GRID = 20000


@dataclass(frozen=True)
class Job:
    """One job: kind names the oracle rule, spec is the job dict run_job gets,
    expect_exit is the exit code a correct program returns."""

    kind: str
    spec: dict
    expect_exit: int = 0


STRATA = 4


class _Draws:
    """Uniform draws from [lo, hi) in batches of STRATA: one from each equal
    stratum, in shuffled order.  Each batch covers the range evenly, so a run
    of a few cycles sees the same spread of job sizes whatever the seed."""

    def __init__(self, rng: random.Random, lo: float, hi: float):
        self.rng, self.lo, self.hi = rng, lo, hi
        self.batch = []

    def __call__(self) -> float:
        if not self.batch:
            width = (self.hi - self.lo) / STRATA
            self.batch = [self.lo + (i + self.rng.random()) * width for i in range(STRATA)]
            self.rng.shuffle(self.batch)
        return self.batch.pop()


def _seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


def _sweep(rng: random.Random):
    r = {name: _Draws(rng, *SWEEP_R) for name in SWEEP_MAPS}
    while True:
        yield [
            Job("certify", {
                "map": name, "command": "certify", "r": r[name](),
                "grid_size": 1024, "mode": "certified", "verify_targets": 64,
                "seed": _seed(rng),
            })
            for _ in range(SWEEP_CYCLE_COPIES) for name in SWEEP_MAPS
        ]


class _Loops:
    """Counter-clockwise polygons around the complex_exp puncture."""

    def __init__(self, rng: random.Random):
        self.radius = _Draws(rng, 0.5, 2.0)
        self.theta = _Draws(rng, -math.pi, math.pi)
        self.sides = _Draws(rng, 4.0, 7.0)

    def __call__(self) -> tuple:
        """(base y, the other vertices, the fibre point over y at angle theta)."""
        radius, theta, sides = self.radius(), self.theta(), int(self.sides())
        ring = [
            [radius * math.cos(theta + 2.0 * math.pi * k / sides),
             radius * math.sin(theta + 2.0 * math.pi * k / sides)]
            for k in range(sides)
        ]
        return ring[0], ring[1:], [math.log(radius), theta]


def _chain(rng: random.Random):
    far_rho, far_phi = _Draws(rng, 10.0, 100.0), _Draws(rng, -1.2, 1.2)
    edge_y = _Draws(rng, 1.2, 1.55)
    tiny_log10 = _Draws(rng, -4.0, -2.0)
    parabola_y, parabola_seed = _Draws(rng, -5.0, 5.0), _Draws(rng, -1.0, 1.0)
    overdetermined_c = _Draws(rng, -2.0, 2.0)
    loops, jitter = _Loops(rng), _Draws(rng, -0.3, 0.3)
    while True:
        jobs = []
        for _ in range(CHAIN_SOLVES_PER_KIND):
            rho, phi = far_rho(), far_phi()
            jobs.append(Job("solve", {
                "map": "complex_exp", "command": "solve",
                "y": [rho * math.cos(phi), rho * math.sin(phi)],
            }))
            jobs.append(Job("solve", {"map": "arctan1d", "command": "solve", "y": [edge_y()]}))
            jobs.append(Job("solve", {"map": "exp1d", "command": "solve", "y": [10.0 ** tiny_log10()]}))
        jobs.append(Job("solve", {
            "map": "parabola_sub", "command": "solve", "y": [parabola_y()],
            "seed_point": [0.0, parabola_seed()],
        }))
        jobs.append(Job("solve_out_of_image", {
            "map": "arctan1d", "command": "solve", "y": [1.6],
        }, expect_exit=3))
        c = overdetermined_c()
        # m > n: the only route into gradient_flow.
        jobs.append(Job("solve_overdetermined", {
            "map": "linear", "command": "solve", "matrix": [[1.0], [2.0]], "y": [c, 2.0 * c],
        }))
        # The star jobs are the same in every cycle: with the seed point
        # drawn, the bisection's work swung by up to 60% from job to job.
        for name, budget in STAR_BUDGETS.items():
            jobs.append(Job("star", {
                "map": name, "command": "star", "t_budget": budget, "rel_tol": STAR_REL_TOL,
            }))
        y, loop, base = loops()
        jobs.append(Job("fibre_loop", {
            "map": "complex_exp", "command": "fibre", "y": y, "loop": loop,
            "seed_point": base, "max_points": FIBRE_MAX_POINTS,
        }))
        y, _, base = loops()
        seeds = [[base[0] + jitter(), base[1] + 2.0 * math.pi * k + jitter()] for k in (-1, 0, 1, 2)]
        jobs.append(Job("fibre_multistart", {
            "map": "complex_exp", "command": "fibre", "y": y, "seeds": seeds,
        }))
        yield jobs


def _profile_ladder(rng: random.Random):
    sampled = {name: (_Draws(rng, *r_range), _Draws(rng, SAMPLED_GRIDS[0], SAMPLED_GRIDS[1] + 1))
               for name, r_range in SAMPLED_MAPS.items()}
    x0 = _Draws(rng, -0.5, 0.5)
    large_r = _Draws(rng, 1.0, 4.0)
    matrix = _Draws(rng, -0.3, 0.3)
    while True:
        jobs = []
        for name, (r, grid) in sampled.items():
            n = 1 if name == "asinh1d" else 2
            jobs.append(Job("indicators", {
                "map": name, "command": "indicators", "mode": "sampled",
                "x0": [x0() for _ in range(n)], "r": r(), "grid_size": int(grid()),
                "sample_count": SAMPLE_COUNT, "seed": _seed(rng),
            }))
        jobs.append(Job("indicators", {
            "map": "arctan1d", "command": "indicators", "mode": "certified",
            "r": large_r(), "grid_size": LARGE_GRID,
        }))
        for name in REGISTRY_MAPS:
            spec = {"map": name, "command": "diagnose", "seed": _seed(rng)}
            if name == "linear":
                # well conditioned: the identity plus a small perturbation
                spec["matrix"] = [[1.0 + matrix(), matrix()], [matrix(), 1.0 + matrix()]]
            jobs.append(Job("diagnose", spec))
        yield jobs


_CYCLES = {"sweep": _sweep, "chain": _chain, "profile_ladder": _profile_ladder}

# One small untimed job per workload, the same for every seed, so that
# setup_s measures the same work on every run.
WARMUP = {
    "sweep": Job("certify", {
        "map": "identity_3", "command": "certify", "r": 1.0, "grid_size": 1024,
        "mode": "certified", "verify_targets": 64, "seed": 0,
    }),
    "chain": Job("solve", {"map": "complex_exp", "command": "solve", "y": [3.0, 4.0]}),
    "profile_ladder": Job("diagnose", {"map": "identity_2", "command": "diagnose", "seed": 0}),
}


def cycles(workload: str, seed: int):
    """The endless sequence of a workload's cycles, each a list of Jobs."""
    return _CYCLES[workload](random.Random(f"{workload}:{seed}"))
