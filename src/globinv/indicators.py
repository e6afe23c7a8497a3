"""Quantitative invertibility indicators and radial profiles.

For a linear map T given by an m x n matrix J:

  inj(J) = inf_{|v|=1} |J v|      (0 whenever m < n, else the smallest
                                   singular value of J)
  sur(J) = inf_{|u|=1} |J^T u|    (0 whenever n < m, else the smallest
                                   singular value of J^T)

For invertible square J both equal 1/||J^{-1}||.  A radial profile tracks
eta(rho) = inf of the pointwise indicator over the closed ball of radius rho,
and the accessible-radius function integrates eta with a right-endpoint rule,
which under-estimates the integral of a nonincreasing eta and therefore keeps
every downstream certificate conservative.

Every sampled check draws its points from one sampler, _sobol: Sobol's
sequence with Joe and Kuo's direction numbers (SIAM J. Sci. Comput. 30,
2008), scrambled by Matousek's random linear matrix scramble with a digital
shift (J. Complexity 14, 1998).  It equals scipy.stats.qmc.Sobol bit for bit
but reads the direction-number table from scipy's data file when it first
draws, so importing globinv loads no scipy module.  Directions come from the
normal quantile of those points (_normal_quantile, a numpy port of the
Cephes ndtri that scipy.special.ndtri computes).  Each check draws
once, with one seed, and slices the draw into the sets it uses (per level,
ball, radius or direction): set k is the head of the k-th aligned block of
2^p points, 2^p >= the set's size.  Every such block is a (t, p, d)-net and
a digitally shifted copy of the first, so each set samples as well as a
draw of its own; an unaligned slice would not.  A draw of more than
_DRAW_FLOATS floats comes a power-of-two number of sets at a time
(unit_ball_sets), so its memory stays bounded in any dimension; the
scramble is derived once per check and handed to each chunk.
"""

from __future__ import annotations

import importlib.util
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, MissingBound, NonFinite, OutOfRange
from .maps import _SVD_HI, _SVD_LO, MapModel, _norms, _svd, _vector, default_point, jacobian_stack

Array = np.ndarray

# A stacked batch of samples holds at most this many points, and its Jacobian
# stack at most this many floats, so its memory is bounded in any dimension.
_STACK_ROWS, _STACK_FLOATS = 4096, 1 << 20
# A chunk of a check's one Sobol draw (unit_ball_sets) holds at most this
# many floats: drawing it and mapping it into the ball make about four copies.
_DRAW_FLOATS = _STACK_FLOATS // 4


def _matrix(J) -> Array:
    arr = np.asarray(J, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite("matrix has non-finite entries")
    return arr


def _sigma_min_2x2(J: Array) -> Array:
    """The least singular value of each matrix [[a, b], [c, d]] of a (K, 2,
    2) stack: |ad - bc| / s_max with s_max = (hypot(a + d, c - b) +
    hypot(a - d, c + b)) / 2, the larger of the two singular values whose
    sum and difference the hypots are (Demmel and Kahan, SIAM J. Sci. Stat.
    Comput. 11, 1990).  A row with an entry outside the window of
    maps._svd, 0 allowed, goes to LAPACK, so no product over- or
    underflows.  The form lies within a few eps s_max of LAPACK, not bit
    for bit, and each row's value is its own."""
    a = np.abs(J)
    inside = ((a >= _SVD_LO) & (a <= _SVD_HI)) | (a == 0.0)
    if np.count_nonzero(inside) < inside.size:
        out = ~inside.all(axis=(1, 2))
        s = np.empty(len(J))
        s[out] = _svd(J[out], compute_uv=False)[:, -1]
        s[~out] = _sigma_min_2x2(J[~out])
        return s
    a, b, c, d = J[:, 0, 0], J[:, 0, 1], J[:, 1, 0], J[:, 1, 1]
    s_max = 0.5 * (np.hypot(a + d, c - b) + np.hypot(a - d, c + b))
    # s_max is at least the largest |entry|, so only a zero matrix meets the floor
    return np.abs(a * d - b * c) / np.maximum(s_max, _SVD_LO * _SVD_LO)


def _indicator_stack(J: Array, kind: str) -> Array:
    """inj or sur of each matrix of a finite (K, m, n) stack: the closed
    form on a 2x2 stack, else one stacked SVD (maps._svd)."""
    if kind == "sur":
        J = J.transpose(0, 2, 1)
    K, m, n = J.shape
    if m < n:
        return np.zeros(K)
    if (m, n) == (2, 2):
        return _sigma_min_2x2(J)
    return _svd(J, compute_uv=False)[:, -1]


def inj_indicator(J) -> float:
    """Smallest stretch of J over the unit sphere of the domain."""
    return float(_indicator_stack(_matrix(J)[None], "inj")[0])


def sur_indicator(J) -> float:
    """Smallest stretch of the adjoint J^T over the unit sphere of the codomain."""
    return float(_indicator_stack(_matrix(J)[None], "sur")[0])


@dataclass(frozen=True)
class FredholmData:
    rank: int
    dim_ker: int
    dim_coker: int
    index: int


def fredholm_data(J, tol: float = 1e-10) -> FredholmData:
    """Numerical rank and kernel/cokernel dimensions at relative tolerance tol."""
    if not tol > 0.0:
        raise OutOfRange(f"fredholm_data: tol must be positive, got {tol}")
    arr = _matrix(J)
    m, n = arr.shape
    s = _svd(arr, compute_uv=False)
    smax = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > tol * smax)) if smax > 0.0 else 0
    return FredholmData(rank=rank, dim_ker=n - rank, dim_coker=m - rank, index=n - m)


@dataclass(frozen=True)
class MuProfile:
    """eta(rho) on an increasing radii grid starting at 0.

    certified means eta came from an analytic lower bound; otherwise it is a
    sampled estimate (an upper bound for the true infimum).  eta_values are
    nonincreasing by construction.
    """

    base_point: Array
    radii: Array
    eta_values: Array
    certified: bool
    indicator_kind: str
    seed: Optional[int] = None

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        eta = np.asarray(self.eta_values, dtype=float)
        if radii.ndim != 1 or radii.size < 2:
            raise OutOfRange("MuProfile: need at least two grid radii")
        if radii[0] != 0.0 or not np.all(np.diff(radii) > 0.0) or not np.isfinite(radii[-1]):
            raise OutOfRange("MuProfile: radii must be finite and increase strictly from 0")
        if eta.shape != radii.shape:
            raise DimensionMismatch("MuProfile: eta_values shape differs from radii")
        if not np.all(np.isfinite(eta)) or np.any(eta < 0.0):
            raise NonFinite("MuProfile: eta_values must be finite and nonnegative")
        if np.any(np.diff(eta) > 0.0):
            raise OutOfRange("MuProfile: eta_values must be nonincreasing")
        if self.indicator_kind not in ("inj", "sur"):
            raise OutOfRange(f"MuProfile: bad indicator_kind {self.indicator_kind!r}")
        object.__setattr__(self, "base_point", np.asarray(self.base_point, dtype=float))
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "eta_values", eta)

    @property
    def r_max(self) -> float:
        return float(self.radii[-1])

    def to_json_dict(self) -> dict:
        return {
            "base_point": self.base_point.tolist(),
            "radii": self.radii.tolist(),
            "eta_values": self.eta_values.tolist(),
            "certified": bool(self.certified),
            "indicator_kind": self.indicator_kind,
            "seed": None if self.seed is None else int(self.seed),
        }


# Joe and Kuo's direction numbers as scipy ships them: the primitive
# polynomial and the initial direction numbers of each of 21201 dimensions.
# The file is read directly, so no scipy module is imported; it is located
# (by find_spec, which imports nothing) when the table is first read.
_SOBOL_MAXDIM, _SOBOL_BITS = 21201, 30


def _integer_in(v, lo: int, hi: int) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and lo <= v <= hi


def _scipy_sobol_table() -> str:
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise FileNotFoundError("Sobol direction numbers not found: scipy, which ships them, is not installed")
    return os.path.join(spec.submodule_search_locations[0], "stats", "_sobol_direction_numbers.npz")


@lru_cache(maxsize=None)
def _sobol_table() -> tuple:
    path = _scipy_sobol_table()
    try:
        with np.load(path) as table:
            return table["poly"], table["vinit"]
    except FileNotFoundError:
        raise FileNotFoundError(f"Sobol direction numbers not found: {path}") from None


@lru_cache(maxsize=None)
def _direction_numbers(d: int) -> Array:
    """The 30 direction numbers of each of the first d dimensions, as 30-bit
    integers, a (d, 30) array.  Dimension 0 is the van der Corput sequence;
    dimension i > 0 extends its initial numbers by the recurrence of its
    primitive polynomial (Bratley and Fox, ACM TOMS 14, 1988)."""
    poly, vinit = _sobol_table()
    poly, vinit = poly[1:d, None], vinit[1:d]
    deg = np.frexp(poly)[1] - 1
    k = np.arange(vinit.shape[1])
    # taps[i, k]: whether v[i, j - k - 1] << (k + 1) enters v[i, j]
    taps = (k < deg) & ((poly >> np.maximum(deg - 1 - k, 0)) & 1 == 1)
    deg, rows = deg[:, 0], np.arange(d - 1)
    v = np.ones((d, _SOBOL_BITS), dtype=np.int64)
    for j in range(_SOBOL_BITS):
        kj = k[:j]
        terms = np.where(taps[:, kj], v[1:, j - 1 - kj] << (kj + 1), 0)
        new = v[1:][rows, np.maximum(j - deg, 0)] ^ np.bitwise_xor.reduce(terms, axis=1)
        initial = vinit[:, min(j, k.size - 1)]  # read only where j < deg <= 18
        v[1:, j] = np.where(j < deg, initial, new)
    return v << np.arange(_SOBOL_BITS - 1, -1, -1)


# the place values of the 30 bits, least significant first, and the masks
# that make a random bit matrix lower unitriangular
_POW2 = 1 << np.arange(_SOBOL_BITS)
_MSB = _POW2[::-1]
_STRICT_LOWER = np.tril(np.ones((_SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32), -1)
_EYE = np.eye(_SOBOL_BITS, dtype=np.uint32)


@lru_cache(maxsize=None)
def _direction_bits(d: int) -> Array:
    """The bits of each direction number of _direction_numbers(d), most
    significant first, as floats: a (d, 30, 30) array."""
    return (_direction_numbers(d)[:, :, None] & _MSB != 0).astype(float)


def _scramble(d: int, seed: int, levels: int) -> tuple:
    """The scramble of the first d dimensions for a seed: the digital shift
    of each dimension, a (d,) array of 30-bit integers, and its first
    `levels` direction numbers scrambled, a (d, levels) array.  The shift
    bits, then the lower-triangular matrices, are drawn from
    np.random.default_rng(seed) as scipy.stats.qmc.Sobol draws them."""
    if not _integer_in(d, 1, _SOBOL_MAXDIM):
        raise OutOfRange(f"_sobol: dimension must be an integer in [1, {_SOBOL_MAXDIM}], got {d!r}")
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(d, _SOBOL_BITS), dtype=np.uint32) @ _POW2
    ltm = rng.integers(2, size=(d, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32) & _STRICT_LOWER | _EYE
    # the bits of each direction number, most significant first, times the
    # transposed matrix of its dimension, mod 2
    bits = _direction_bits(d)[:, :levels]
    return shift, ((bits @ ltm.transpose(0, 2, 1)).astype(np.int64) & 1) @ _MSB


def _sobol(d: int, count: int, seed: int, start: int = 0, scramble: Optional[tuple] = None) -> Array:
    """Points start .. start + count - 1 of a scrambled Sobol sequence in
    [0, 1)^d, drawn as an aligned power-of-two batch (where the sequence is
    balanced): start must be a multiple of 2^p, the least power of two
    >= count.

    Sobol's sequence with Joe and Kuo's direction numbers (SIAM J. Sci.
    Comput. 30, 2008), scrambled by a random linear matrix scramble and a
    digital shift (Matousek, J. Complexity 14, 1998), in 30 bits.  The
    points equal scipy.stats.qmc.Sobol(d, scramble=True, seed=seed)
    .random(size)[start : start + count] bit for bit: the scramble is
    _scramble(d, seed, levels), and the points come in Gray-code order.  A
    caller that draws several batches of one seed derives the scramble once
    and hands it over as `scramble`, with at least the levels the batch
    reads, (start + 2^p - 1).bit_length().  An aligned batch is a (t, p,
    d)-net, a digitally shifted copy of the first batch: the same seed at
    the starts 0, 2^p, 2 2^p, ... gives sets that each sample as well as a
    seed of their own.
    """
    if not _integer_in(count, 0, 1 << _SOBOL_BITS):
        raise OutOfRange(f"_sobol: count must be an integer in [0, 2**{_SOBOL_BITS}], got {count!r}")
    p = max(int(count) - 1, 0).bit_length()
    if not (_integer_in(start, 0, (1 << _SOBOL_BITS) - (1 << p)) and int(start) % (1 << p) == 0):
        raise OutOfRange(
            f"_sobol: start must be a multiple of {1 << p} in [0, 2**{_SOBOL_BITS} - {1 << p}], got {start!r}"
        )
    start = int(start)
    # point i is the xor of the scrambled direction numbers b set in the
    # Gray code i ^ (i >> 1), so only the first `levels` are read
    levels = (start + (1 << p) - 1).bit_length()
    shift, sv = _scramble(d, seed, levels) if scramble is None else scramble
    # Gray-code order: points 2**b .. 2**(b+1) - 1 mirror the first 2**b
    # with direction number b added
    q = np.zeros((1 << p, d), dtype=np.int64)
    for b in range(p):
        q[1 << b : 2 << b] = q[(1 << b) - 1 :: -1] ^ sv[:, b]
    # the Gray code is linear over xor, so the batch at an aligned start is
    # the first batch shifted by the point at start
    gray = start ^ start >> 1
    for b in range(levels):
        if gray >> b & 1:
            shift = shift ^ sv[:, b]
    q ^= shift
    return q[:count] * 2.0**-_SOBOL_BITS


def _signed_axes(m: int) -> Array:
    """The 2m signed coordinate axes e_1, -e_1, ..., e_m, -e_m as rows."""
    eye = np.eye(m)
    return np.stack([eye, -eye], axis=1).reshape(2 * m, m)


# Moshier's Cephes ndtri (Methods and Programs for Mathematical Functions,
# 1989), the algorithm of scipy.special.ndtri, with its coefficients: P0/Q0
# on the centre e^-2 < u <= 1 - e^-2, and P1/Q1 in the tails, in
# x = sqrt(-2 ln y) for y = min(u, 1 - u).  u is clipped to
# [1e-12, 1 - 1e-12] first, so x <= 7.43 stays below 8, where Cephes turns
# to a third pair (P2/Q2) that is not needed here.  The Q's leading
# coefficient 1 is implicit (p1evl).
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_SQRT_2PI, _EXP_M2 = 2.50662827463100050242e0, 0.13533528323661269189
# the quantile works through a draw this many values at a time, so that its
# temporaries stay small
_QUANTILE_BLOCK = 1 << 16


def _horner(x: Array, coef: tuple, monic: bool) -> Array:
    """Cephes polevl (monic=False) or p1evl (monic=True, a leading
    coefficient 1 left out of coef) at x, in the same order: one product and
    one sum per coefficient, each rounded."""
    ans = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _quantile_block(u: Array) -> None:
    """_normal_quantile of a 1-D block, in place: the centre formula on
    every value (it is finite on all of [0, 1]), then the tail values
    replaced, each clipped first, which costs less than gathering the
    centre."""
    tail = np.flatnonzero((u <= _EXP_M2) | (u > 1.0 - _EXP_M2))
    t = np.clip(u[tail], 1e-12, 1.0 - 1e-12)
    u -= 0.5
    y2 = u * u
    x = y2 * _horner(y2, _NDTRI_P0, False)
    x /= _horner(y2, _NDTRI_Q0, True)
    x *= u
    u += x
    u *= _SQRT_2PI
    x = np.log(np.minimum(t, 1.0 - t))
    x *= -2.0
    np.sqrt(x, out=x)
    z = 1.0 / x
    x1 = z * _horner(z, _NDTRI_P1, False)
    x1 /= _horner(z, _NDTRI_Q1, True)
    x0 = x - np.log(x) / x
    x0 -= x1
    # negative below 1/2, as Cephes negates the lower tail
    u[tail] = np.copysign(x0, t - 0.5)


def _normal_quantile(u: Array) -> Array:
    """The standard normal quantile of each entry of u, 0 <= u <= 1, with u
    clipped to [1e-12, 1 - 1e-12] (|quantile| <= 7.04): a numpy port of
    Cephes ndtri, computed in place when u is C-contiguous (use the
    result).  Each operation is the one Cephes makes, in its order, so the
    centre e^-2 < u <= 1 - e^-2 equals scipy.special.ndtri bit for bit; in
    the tails np.log rounds a few logarithms apart from the C library's
    log, which moves about 2 tail values in 10^4 by a few ulp."""
    flat = u.reshape(-1)
    for start in range(0, flat.size, _QUANTILE_BLOCK):
        _quantile_block(flat[start : start + _QUANTILE_BLOCK])
    return flat.reshape(u.shape)


def _unit_directions(u: Array) -> Array:
    """Rows of u in (0, 1)^d sent through the normal quantile and scaled to
    unit length: directions spread evenly over the sphere."""
    if u.shape[1] == 1:
        # the quantile has the sign of u - 1/2 and is 0 only at u = 1/2,
        # which the guard below sends to e1: z / |z| is exactly this
        return np.where(u >= 0.5, 1.0, -1.0)
    # in place, as the division below: a draw can be large
    z = _normal_quantile(u.copy())
    norms = np.linalg.norm(z, axis=1)
    # a zero direction is essentially impossible with scrambling; guard anyway
    degenerate = norms == 0.0
    if np.any(degenerate):
        z[degenerate] = np.eye(u.shape[1])[0]
        norms[degenerate] = 1.0
    z /= norms[:, None]
    return z


def _ball_map(u: Array) -> Array:
    """Rows of u in [0, 1)^(n+1) sent into the closed unit ball of R^n: n
    coordinates map through the normal quantile to a direction, the last
    coordinate maps through u^(1/n) to a radius."""
    n = u.shape[1] - 1
    points = _unit_directions(u[:, :n])
    points *= (u[:, n] ** (1.0 / n))[:, None]
    return points


def unit_ball_points(n: int, count: int, seed: int) -> Array:
    """Deterministic low-discrepancy points in the closed unit ball of R^n:
    the first count points of a scrambled Sobol sequence in [0, 1)^(n+1),
    through a radial-direction construction (_ball_map)."""
    if count < 1:
        raise OutOfRange("unit_ball_points: count must be >= 1")
    return _ball_map(_sobol(n + 1, count, seed))


def unit_ball_sets(n: int, count: int, seed: int, sets: int):
    """Sets of count points in the closed unit ball of R^n from one
    scrambled Sobol sequence: set k maps the head of its aligned block k of
    2^p points, 2^p the least power of two >= count, as unit_ball_points
    maps a prefix.  Yielded as (k, count, n) arrays, k sets drawn at once
    with k a power of two (the last chunk may hold fewer), so that a
    chunk's draw holds at most _DRAW_FLOATS floats (but always at least one
    set): the memory of a check's one draw stays bounded in any dimension
    and for any number of sets.  The scramble is derived once and handed to
    each chunk's _sobol draw."""
    stride = 1 << (count - 1).bit_length()
    per = 1 << max((_DRAW_FLOATS // (stride * (n + 1))).bit_length() - 1, 0)
    # the sets lie in rows [0, sets 2^p) of the sequence, whose Gray codes
    # read the first (sets 2^p - 1).bit_length() direction numbers
    scramble = _scramble(n + 1, seed, (sets * stride - 1).bit_length())
    for first in range(0, sets, per):
        k = min(per, sets - first)
        u = _sobol(n + 1, (k - 1) * stride + count, seed, first * stride, scramble)
        if count < stride:
            u = u[(np.arange(k)[:, None] * stride + np.arange(count)).ravel()]
        yield _ball_map(u).reshape(k, count, n)


def _batches(total: int, floats_per_row: int) -> list:
    """Consecutive slices covering range(total), each short enough that the
    stack of its rows, floats_per_row floats each, holds at most _STACK_ROWS
    rows and _STACK_FLOATS floats (but always at least one row)."""
    step = max(1, min(_STACK_ROWS, _STACK_FLOATS // floats_per_row))
    return [slice(start, min(start + step, total)) for start in range(0, total, step)]


def _indicators_at(model: MapModel, X: Array, kind: str) -> Array:
    """inj or sur at each row of X: one Jacobian stack and one
    _indicator_stack per batch of rows.  The first row whose Jacobian is
    not finite (a row where the map raises NonFinite included) raises
    NonFinite naming its point, as jacobian() does; any other error the map
    raises in that row's batch comes first."""
    vals = []
    for rows in _batches(X.shape[0], model.m * model.n):
        J, finite = jacobian_stack(model, X[rows])
        if not finite.all():
            bad = X[rows][int(np.argmin(finite))]
            raise NonFinite(f"jacobian({model.name}): non-finite derivative at x={bad!r}")
        vals.append(_indicator_stack(J, kind))
    return np.concatenate(vals)


# an overflowed bound or Jacobian entry is checked below (NonFinite)
@np.errstate(over="ignore", invalid="ignore")
def mu_profile(
    model: MapModel,
    x0,
    r_max: float,
    grid_size: int,
    mode: str = "certified",
    sample_count: int = 64,
    indicator_kind: str = "sur",
    seed: int = 0,
) -> MuProfile:
    """Radial indicator profile around x0 on grid_size equal cells of [0, r_max].

    Certified mode evaluates the model's analytic mu_bound in one call on
    the array of radii (a scalar result is broadcast; any other shape
    raises DimensionMismatch).  Bounds are anchored at the model's
    canonical base point; a profile centered elsewhere shifts the radius by
    the offset, keeping the bound valid (enclosing ball).
    Sampled mode takes sample_count low-discrepancy points per ball and
    records the running minimum of the pointwise indicator, an optimistic
    (upper) estimate of the true infimum.  The grid_size * sample_count
    points are stacked in batches of at most 4096 points and 2**20 Jacobian
    floats: one Jacobian stack and one _indicator_stack per batch (the
    closed form on 2x2 Jacobians, else one stacked SVD), so memory stays
    bounded; x0 is a one-row stack of its own, taken first.  A non-finite
    Jacobian raises NonFinite at the first such point in radius-major
    order, unless the map raises an error of its own anywhere in that
    point's batch.
    """
    x0v = _vector(x0, model.n, "mu_profile: x0")
    if not r_max > 0.0:
        raise OutOfRange(f"mu_profile: r_max must be positive, got {r_max}")
    if grid_size < 1:
        raise OutOfRange(f"mu_profile: grid_size must be >= 1, got {grid_size}")
    if indicator_kind not in ("inj", "sur"):
        raise OutOfRange(f"mu_profile: bad indicator_kind {indicator_kind!r}")
    radii = np.linspace(0.0, float(r_max), grid_size + 1)

    if mode == "certified":
        if model.mu_bound is None:
            raise MissingBound(f"map {model.name!r} carries no analytic bound")
        shift = _norms(x0v - default_point(model))
        eta = np.asarray(model.mu_bound(shift + radii), dtype=float)
        if eta.shape != radii.shape:
            if eta.ndim:
                raise DimensionMismatch(
                    f"mu_profile: bound of {model.name!r} returned shape {eta.shape}, expected {radii.shape}"
                )
            eta = np.full(radii.shape, eta)
        if not np.all(np.isfinite(eta)):
            raise NonFinite("mu_profile: analytic bound returned non-finite values")
        eta = np.maximum(eta, 0.0)
        eta = np.minimum.accumulate(eta)
        return MuProfile(
            base_point=x0v,
            radii=radii,
            eta_values=eta,
            certified=True,
            indicator_kind=indicator_kind,
            seed=None,
        )

    if mode != "sampled":
        raise OutOfRange(f"mu_profile: mode must be 'certified' or 'sampled', got {mode!r}")
    ball = unit_ball_points(model.n, sample_count, seed)
    eta = np.full(radii.size, _indicators_at(model, x0v[None], indicator_kind)[0])
    # the grid_size * sample_count points, radius-major, in batches of rows
    for batch in _batches(grid_size * sample_count, model.m * model.n):
        rows = np.arange(batch.start, batch.stop)
        k = 1 + rows // sample_count
        pts = x0v[None, :] + radii[k, None] * ball[rows % sample_count]
        np.minimum.at(eta, k, _indicators_at(model, pts, indicator_kind))
    eta = np.minimum.accumulate(eta)
    return MuProfile(
        base_point=x0v,
        radii=radii,
        eta_values=eta,
        certified=False,
        indicator_kind=indicator_kind,
        seed=int(seed),
    )


def rho_of_r(profile: MuProfile, r: float) -> float:
    """Accessible codomain radius: right-endpoint quadrature of eta up to r.

    Partial cells use the eta value at the right endpoint of the enclosing
    grid cell, so the result never exceeds the true integral of a
    nonincreasing eta.
    """
    if not r > 0.0:
        raise OutOfRange(f"rho_of_r: r must be positive, got {r}")
    radii = profile.radii
    eta = profile.eta_values
    rmax = float(radii[-1])
    if r > rmax * (1.0 + 1e-12):
        raise OutOfRange(f"rho_of_r: r={r} exceeds profile r_max={rmax}")
    r = min(float(r), rmax)
    j = int(np.searchsorted(radii, r, side="right")) - 1
    total = float(np.sum(eta[1 : j + 1] * np.diff(radii[: j + 1])))
    if j < radii.size - 1 and r > radii[j]:
        total += float(eta[j + 1]) * (r - float(radii[j]))
    return total
