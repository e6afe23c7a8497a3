"""Smooth map models and the built-in benchmark registry.

A :class:`MapModel` wraps a pure vector function f: R^n -> R^m together with an
optional analytic Jacobian and an optional certified lower bound on the local
invertibility indicator over centered balls.  Everything downstream (profiles,
lifts, certificates, the CLI) consumes models through :func:`evaluate_stack`
and :func:`jacobian_stack`, which take K points as one (K, n) stack, check
the shape once and flag the rows whose result is not finite.  There is one
call path from a caller to the map: :func:`evaluate` and :func:`jacobian`
are row 0 of those on the one-row stack of their point, and raise NonFinite
naming the point where the row is flagged.

A model declared ``stacked`` has shape-polymorphic functions: eval_fn maps a
(..., n) array to (..., m) and jac_fn to (..., m, n).  A stack of K points
then costs one call, so a point gets the same bits alone and in any stack.
Other models are called once per row.  Every registry map is stacked; each
is written over x[..., i], so it also takes a single (n,) point, and squares
with np.float_power, which rounds as the scalar x[i] ** 2 does (the array
x ** 2 and x * x do not, in the last bit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatch, NonFinite, OutOfRange, UnknownMap

Array = np.ndarray

# Central-difference step scale: cube root of machine epsilon.
_FD_SCALE = float(np.cbrt(np.finfo(float).eps))


@dataclass(frozen=True)
class MapModel:
    """A smooth map f: R^n -> R^m.

    eval_fn must be pure and deterministic.  jac_fn, when given, returns the
    m x n Jacobian; otherwise a central finite difference is used.  mu_bound,
    when given, is a certified lower bound for the invertibility indicator of
    the Jacobian over the closed ball of radius rho centered at base_point
    (the origin when base_point is None).  mu_bound is array-valued: given
    an array of radii it returns an array of their shape, the bound at each
    radius, and a bound that does not depend on rho may return one scalar,
    which is broadcast.  A certified profile calls it once on all its radii,
    with overflow warnings off, so a bound such as 1 / (1 + rho * rho) reads
    0 where rho * rho overflows; a bound that is not finite is an error
    there.

    stacked declares eval_fn and jac_fn shape-polymorphic: given a (..., n)
    array they return (..., m) and (..., m, n), each row computed from its
    own point alone.  Stacks then make one call, not one per row, and a
    single point is passed as a one-row stack.  A stacked function marks a
    point it cannot evaluate with a non-finite value in that row; should it
    raise NonFinite instead, the stack is evaluated again one row at a time,
    so only the rows that raise come out NaN.
    """

    name: str
    n: int
    m: int
    eval_fn: Callable[[Array], Array]
    jac_fn: Optional[Callable[[Array], Array]] = None
    mu_bound: Optional[Callable[[Array], Array]] = None
    base_point: Optional[Array] = None
    stacked: bool = False

    def __post_init__(self):
        if int(self.n) < 1 or int(self.m) < 1:
            raise DimensionMismatch(
                f"map {self.name!r}: dimensions must be positive, got n={self.n}, m={self.m}"
            )


@dataclass(frozen=True)
class AnalyticFacts:
    """Closed-form side information about a registry map, used as test oracles
    and to upgrade heuristic diagnostics to certified verdicts."""

    mu_exact: Optional[Callable[[Array], float]] = None
    mu_vanishing_witness: Optional[Callable[[int], Array]] = None
    witness_image_limit: Optional[Array] = None
    coercive: Optional[bool] = None
    integral_divergent: Optional[bool] = None
    integral_tail: Optional[str] = None
    star_interval: Optional[tuple] = None
    monodromy_shift: Optional[Array] = None


@dataclass(frozen=True)
class RegistryEntry:
    model: MapModel
    facts: Optional[AnalyticFacts] = None


def default_point(model: MapModel) -> Array:
    """The model's base point, or the origin when it has none."""
    if model.base_point is None:
        return np.zeros(model.n)
    return np.array(model.base_point, dtype=float)


def _vector(x, n: int, what: str, finite: bool = False) -> Array:
    """x as a float (n,) array, else DimensionMismatch; finite: OutOfRange on a non-finite entry."""
    arr = np.asarray(x, dtype=float)
    if arr.shape != (n,):
        raise DimensionMismatch(f"{what}: expected shape ({n},), got {arr.shape}")
    if finite and not np.isfinite(arr).all():
        raise OutOfRange(f"{what}: entries must be finite, got {arr!r}")
    return arr


def _stack_points(model: MapModel, X, what: str) -> Array:
    Xv = np.asarray(X, dtype=float)
    if Xv.ndim != 2 or Xv.shape[1] != model.n:
        raise DimensionMismatch(
            f"{what}({model.name}): expected shape (K, {model.n}), got {Xv.shape}"
        )
    return Xv


def _stack_rows(model: MapModel, fn: Callable[[Array], Array], Xv: Array, shape: tuple,
                what: str) -> Array:
    """fn at every row of Xv as one float array of shape (K, *shape): one call
    on the whole stack for a stacked model, else one per row.  A result of
    another shape raises DimensionMismatch.  Where fn raises NonFinite, the
    map's own signal of a point it cannot evaluate, the row is NaN (a stacked
    fn is then called again on each one-row stack)."""
    if model.stacked and len(Xv):
        try:
            stack = np.asarray(fn(Xv), dtype=float)
        except NonFinite:
            if len(Xv) == 1:
                return np.full((1, *shape), np.nan)
            return np.concatenate([_stack_rows(model, fn, x[None], shape, what) for x in Xv])
        if stack.shape != (len(Xv), *shape):
            raise DimensionMismatch(
                f"{what}({model.name}): map returned shape {stack.shape}, expected {(len(Xv), *shape)}"
            )
        return stack
    rows = []
    for x in Xv:
        try:
            rows.append(fn(x))
        except NonFinite:
            rows.append(np.full(shape, np.nan))
    try:
        stack = np.array(rows, dtype=float) if rows else np.empty((0, *shape))
        if stack.shape == (len(rows), *shape):
            return stack
    except ValueError:  # results of unequal shapes, or not numbers at all
        if all(np.shape(r) == shape for r in rows):
            raise
    got = next(np.shape(r) for r in rows if np.shape(r) != shape)
    raise DimensionMismatch(f"{what}({model.name}): map returned shape {got}, expected {shape}")


def evaluate_stack(model: MapModel, X) -> tuple:
    """Values of f at the K rows of X as one (K, m) stack, and a (K,) mask
    of the rows whose value is finite.

    The shape is checked once for the whole stack.  A non-finite row,
    including one where the map itself raises NonFinite, is flagged in the
    mask instead of raised, so callers drop that row and go on with the
    others; any other exception raised by the map propagates.
    """
    Y, finite = _evaluate_stack(model, _stack_points(model, X, "evaluate_stack"))
    return Y, np.ones(len(Y), dtype=bool) if finite is None else finite


def _finite_rows(Y: Array) -> Optional[Array]:
    """The mask of the rows of Y whose entries are all finite, None when every
    row is: one count, and the per-row reduce only when the count fails."""
    finite = np.isfinite(Y)
    return None if np.count_nonzero(finite) == finite.size else finite.reshape(len(Y), -1).all(axis=1)


def _evaluate_stack(model: MapModel, Xv: Array) -> tuple:
    """evaluate_stack at Xv, a float (K, n) array already checked: for a
    caller that stacks its own points.  The mask is None when every row is
    finite, so such a caller need not count it again."""
    Y = _stack_rows(model, model.eval_fn, Xv, (model.m,), "evaluate_stack")
    return Y, _finite_rows(Y)


def evaluate(model: MapModel, x) -> Array:
    """f(x): row 0 of evaluate_stack on the one-row stack of x.  A
    non-finite value, a point where the map raises NonFinite included,
    raises NonFinite naming x."""
    xv = _vector(x, model.n, f"evaluate({model.name})")
    Y, finite = _evaluate_stack(model, xv[None])
    if finite is not None:
        raise NonFinite(f"evaluate({model.name}): non-finite value at x={xv!r}")
    return Y[0]


@np.errstate(invalid="ignore")  # inf - inf where a value is not finite
def _fd_jacobian(model: MapModel, Xv: Array) -> Array:
    """Central finite differences at the K rows of Xv as a (K, m, n) stack,
    with per-coordinate step max(|x_i|, 1) * eps^(1/3), from one
    evaluate_stack of the 2nK points x + h_1 e_1, x - h_1 e_1, x + h_2 e_2,
    ...  Each row's arithmetic is that of a one-row call, so row k equals
    the finite difference at row k alone.  A non-finite value gives a
    non-finite column, which the caller checks."""
    K, n = Xv.shape
    i = np.arange(n)
    h = np.maximum(np.abs(Xv), 1.0) * _FD_SCALE
    X = np.repeat(Xv[:, None, :], 2 * n, axis=1)
    X[:, 2 * i, i] += h
    X[:, 2 * i + 1, i] -= h
    Y, _ = _evaluate_stack(model, X.reshape(2 * n * K, n))
    Y = Y.reshape(K, 2 * n, model.m)
    # the realized step absorbs rounding in x_i +/- h
    step = X[:, 2 * i, i] - X[:, 2 * i + 1, i]
    return (Y[:, 0::2] - Y[:, 1::2]).transpose(0, 2, 1) / step[:, None, :]


def jacobian_stack(model: MapModel, X) -> tuple:
    """Jacobians at the K rows of X as one (K, m, n) stack, and a (K,) mask
    of the rows whose Jacobian is finite.

    Each row is computed by jac_fn or by the central finite difference
    (_fd_jacobian), taken for the whole stack at once; the shape and the
    finiteness are checked once for the whole stack.  A non-finite row
    (including a finite difference that hits a non-finite value, and a row
    where the map raises NonFinite) is flagged in the mask instead of
    raised, so batched callers drop that row and go on with the others.
    """
    J, finite = _jacobian_stack(model, _stack_points(model, X, "jacobian_stack"))
    return J, np.ones(len(J), dtype=bool) if finite is None else finite


def _jacobian_stack(model: MapModel, Xv: Array) -> tuple:
    """jacobian_stack at Xv, a float (K, n) array already checked, with
    the mask of _evaluate_stack (None: every row finite)."""
    if model.jac_fn is None:  # in C order, as every stack of jac_fn rows is
        J = np.ascontiguousarray(_fd_jacobian(model, Xv))
    else:
        J = _stack_rows(model, model.jac_fn, Xv, (model.m, model.n), "jacobian_stack")
    return J, _finite_rows(J)


def jacobian(model: MapModel, x) -> Array:
    """The m x n Jacobian of f at x: row 0 of jacobian_stack on the
    one-row stack of x.  A non-finite derivative, a point where the map
    raises NonFinite included, raises NonFinite naming x."""
    xv = _vector(x, model.n, f"jacobian({model.name})")
    J, finite = _jacobian_stack(model, xv[None])
    if finite is not None:
        raise NonFinite(f"jacobian({model.name}): non-finite derivative at x={xv!r}")
    return J[0]


# For |a| in this window LAPACK's SVD of the 1x1 matrix [a] is (sign a, |a|,
# 1) bit for bit; it rescales only outside about [6.5e-139, 1.59e138].  Its
# singular value of a 2x1 or 1x2 matrix [a, b] with |a| and |b| each 0 or in
# the window is dlapy2(a, b) bit for bit.
_SVD_LO, _SVD_HI = 1e-100, 1e100
_GUFUNCS = hasattr(_umath_linalg, "svd_s")  # np.linalg.svd's gufunc names; other numpys keep np.linalg.svd


def _norms(D: Array):
    """The Euclidean norm of each vector along the last axis of the array D:
    a float for one vector, else an array of shape D.shape[:-1].  Each is
    rounded as np.linalg.norm of that vector alone: the square root of its
    BLAS dot, which D.dot(D) and a stack's 1 x n by n x 1 matmul both call
    (an axis norm, np.vecdot and einsum round some vectors apart).  A vector
    whose plain norm overflows though its largest |component| is finite is
    first divided by that component.  No np.errstate is set here: a caller
    that may overflow runs under np.errstate(over="ignore")."""
    if D.strides[-1] != D.itemsize:  # a strided dot rounds apart; np.linalg.norm copies
        D = np.ascontiguousarray(D)
    if D.ndim == 1:
        norm = math.sqrt(D.dot(D))
        if norm == math.inf:
            peak = float(np.max(np.abs(D)))
            if peak < math.inf:
                norm = peak * _norms(D / peak)
        return norm
    norms = np.sqrt(np.matmul(D[..., None, :], D[..., :, None])[..., 0, 0])
    if np.count_nonzero(norms == math.inf):
        flat, rows = norms.reshape(-1), D.reshape(-1, D.shape[-1])
        for k in np.flatnonzero(flat == math.inf).tolist():
            flat[k] = _norms(rows[k])
    return norms


def _svd(J: Array, compute_uv: bool = True):
    """np.linalg.svd(J, full_matrices=False) as (U, s, Vt), or s alone when
    compute_uv is False, bit for bit, for a 2-D matrix or a (K, m, n) stack.

    Two shapes take a closed form when every entry's magnitude lies in the
    window [_SVD_LO, _SVD_HI]:
    - a 1x1 stack: s = |a|, U = sign(a), Vt = 1;
    - s alone of a 2x1 or 1x2 stack, whose entries may also be 0: LAPACK's
      dlapy2, s = w sqrt(1 + (z/w)^2) with w and z the larger and the
      smaller of |a| and |b|.
    Every other stack goes to LAPACK: one entry outside the window (a
    subnormal, inf or NaN included, and 0 in a 1x1 stack) sends the whole
    stack.  Inside the window the closed forms and LAPACK agree bit for
    bit, so a row's result does not depend on the other rows.  A finite
    float stack skips np.linalg.svd's checks and casts, no-ops on it, for
    the gufunc it calls; any other calls np.linalg.svd (NaN raises
    LinAlgError).  Both are looked up at each call, so a profiler that
    rebinds them sees every LAPACK call."""
    rank_one = not compute_uv and J.shape[-2:] in ((2, 1), (1, 2))
    if rank_one or J.shape[-2:] == (1, 1):
        a = np.abs(J)
        if a.size <= 32:  # a Python test of a few floats beats the reduces
            inside = all(_SVD_LO <= v <= _SVD_HI or (rank_one and v == 0.0) for v in a.ravel().tolist())
        elif rank_one:
            inside = (np.maximum.reduce(a, axis=None) <= _SVD_HI
                      and not np.count_nonzero((a < _SVD_LO) & (a != 0.0)))
        else:
            inside = (np.minimum.reduce(a, axis=None) >= _SVD_LO
                      and np.maximum.reduce(a, axis=None) <= _SVD_HI)
        if inside and rank_one:
            a = a.reshape(*J.shape[:-2], 2)
            w, z = np.maximum(a[..., 0], a[..., 1]), np.minimum(a[..., 0], a[..., 1])
            q = z / np.maximum(w, _SVD_LO)  # 0 / _SVD_LO on a zero matrix
            return (w * np.sqrt(1.0 + q * q))[..., None]
        if inside:  # sign(a) is 1: no entry in the window is 0 or NaN
            return (np.sign(J), a[..., 0], np.sign(a)) if compute_uv else a[..., 0]
    if _GUFUNCS and J.dtype == np.float64 and _finite_rows(J) is None:
        return _umath_linalg.svd_s(J, signature="d->ddd") if compute_uv else _umath_linalg.svd(J, signature="d->d")
    if compute_uv:
        return np.linalg.svd(J, full_matrices=False)
    return np.linalg.svd(J, compute_uv=False)


# ---------------------------------------------------------------------------
# registry


def _constant(C: Array, x: Array) -> Array:
    """A fresh copy of the matrix C for each point of the stack x."""
    J = np.empty((*x.shape[:-1], *C.shape))
    J[...] = C
    return J


def _identity_entry(n: int) -> RegistryEntry:
    eye = np.eye(n)
    model = MapModel(
        name=f"identity_{n}",
        n=n,
        m=n,
        eval_fn=lambda x: x.copy(),
        jac_fn=lambda x: _constant(eye, x),
        mu_bound=lambda rho: 1.0,
        stacked=True,
    )
    facts = AnalyticFacts(
        mu_exact=lambda x: 1.0,
        coercive=True,
        integral_divergent=True,
        integral_tail="eta(rho) == 1 for all rho",
    )
    return RegistryEntry(model, facts)


def linear_map(matrix, name: str = "linear") -> MapModel:
    """Model for x -> A x with the constant indicator sigma_min(A)."""
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2:
        raise DimensionMismatch(f"linear_map: matrix must be 2-D, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise NonFinite("linear_map: matrix has non-finite entries")
    m, n = A.shape
    smin = float(_svd(A, compute_uv=False)[-1]) if min(m, n) else 0.0
    return MapModel(
        name=name,
        n=n,
        m=m,
        # one matrix-vector product per row, as A @ x rounds (X @ A.T does not)
        eval_fn=lambda x: np.matmul(A, x[..., None])[..., 0],
        jac_fn=lambda x: _constant(A, x),
        mu_bound=(lambda rho: smin),
        stacked=True,
    )


def linear_entry(matrix, name: str = "linear") -> RegistryEntry:
    model = linear_map(matrix, name=name)
    smin = model.mu_bound(0.0)
    square = model.n == model.m
    facts = AnalyticFacts(
        mu_exact=lambda x: smin,
        coercive=bool(square and smin > 0.0),
        integral_divergent=bool(smin > 0.0),
        integral_tail=f"eta(rho) == {smin} for all rho" if smin > 0.0 else None,
    )
    return RegistryEntry(model, facts)


def _arctan1d_entry() -> RegistryEntry:
    model = MapModel(
        name="arctan1d",
        n=1,
        m=1,
        eval_fn=lambda x: np.arctan(x),
        jac_fn=lambda x: (1.0 / (1.0 + np.float_power(x, 2)))[..., None],
        mu_bound=lambda rho: 1.0 / (1.0 + rho * rho),
        stacked=True,
    )
    facts = AnalyticFacts(
        mu_exact=lambda x: 1.0 / (1.0 + float(x[0]) ** 2),
        mu_vanishing_witness=lambda k: np.array([float(k)]),
        witness_image_limit=np.array([np.pi / 2]),
        coercive=False,
        integral_divergent=False,
        integral_tail="integral of 1/(1+rho^2) converges to pi/2",
        star_interval=(-np.pi / 2, np.pi / 2),
    )
    return RegistryEntry(model, facts)


def _monotone1d_entry() -> RegistryEntry:
    model = MapModel(
        name="monotone1d",
        n=1,
        m=1,
        eval_fn=lambda x: x + 0.5 * np.sin(x),
        jac_fn=lambda x: (1.0 + 0.5 * np.cos(x))[..., None],
        mu_bound=lambda rho: np.where(rho >= np.pi, 0.5, 1.0 + 0.5 * np.cos(rho)),
        stacked=True,
    )
    facts = AnalyticFacts(
        mu_exact=lambda x: 1.0 + 0.5 * float(np.cos(x[0])),
        coercive=True,
        integral_divergent=True,
        integral_tail="eta(rho) >= 1/2, so the integral grows at least like rho/2",
    )
    return RegistryEntry(model, facts)


def _exp1d_entry() -> RegistryEntry:
    model = MapModel(
        name="exp1d",
        n=1,
        m=1,
        eval_fn=lambda x: np.exp(x),
        jac_fn=lambda x: np.exp(x)[..., None],
        mu_bound=lambda rho: np.exp(-rho),
        stacked=True,
    )
    facts = AnalyticFacts(
        mu_exact=lambda x: float(np.exp(x[0])),
        mu_vanishing_witness=lambda k: np.array([-float(k)]),
        witness_image_limit=np.array([0.0]),
        coercive=False,
        integral_divergent=False,
        integral_tail="integral of exp(-rho) converges to 1",
        star_interval=(0.0, np.inf),
    )
    return RegistryEntry(model, facts)


def _complex_exp_entry() -> RegistryEntry:
    def _eval(x):
        ex, y = np.exp(x[..., 0]), x[..., 1]
        out = np.empty(x.shape)
        out[..., 0] = ex * np.cos(y)
        out[..., 1] = ex * np.sin(y)
        return out

    def _jac(x):
        ex, y = np.exp(x[..., 0]), x[..., 1]
        c, s = ex * np.cos(y), ex * np.sin(y)
        J = np.empty((*x.shape[:-1], 2, 2))
        J[..., 0, 0] = c
        J[..., 0, 1] = -s
        J[..., 1, 0] = s
        J[..., 1, 1] = c
        return J

    model = MapModel(
        name="complex_exp",
        n=2,
        m=2,
        eval_fn=_eval,
        jac_fn=_jac,
        mu_bound=lambda rho: np.exp(-rho),
        stacked=True,
    )
    facts = AnalyticFacts(
        mu_exact=lambda x: float(np.exp(x[0])),
        mu_vanishing_witness=lambda k: np.array([-float(k), 0.0]),
        witness_image_limit=np.array([0.0, 0.0]),
        coercive=False,
        integral_divergent=False,
        monodromy_shift=np.array([0.0, 2.0 * np.pi]),
    )
    return RegistryEntry(model, facts)


def _projection2to1_entry() -> RegistryEntry:
    model = MapModel(
        name="projection2to1",
        n=2,
        m=1,
        eval_fn=lambda x: x[..., :1].copy(),
        jac_fn=lambda x: _constant(np.array([[1.0, 0.0]]), x),
        mu_bound=lambda rho: 1.0,
        stacked=True,
    )
    facts = AnalyticFacts(
        mu_exact=lambda x: 1.0,
        coercive=False,
        integral_divergent=True,
        integral_tail="eta(rho) == 1 for all rho",
    )
    return RegistryEntry(model, facts)


def _parabola_sub_entry() -> RegistryEntry:
    def _jac(x):
        J = np.empty((*x.shape[:-1], 1, 2))
        J[..., 0, 0] = 1.0
        J[..., 0, 1] = -2.0 * x[..., 1]
        return J

    model = MapModel(
        name="parabola_sub",
        n=2,
        m=1,
        eval_fn=lambda x: x[..., :1] - np.float_power(x[..., 1:], 2),
        jac_fn=_jac,
        mu_bound=lambda rho: 1.0,
        stacked=True,
    )
    facts = AnalyticFacts(
        mu_exact=lambda x: float(np.sqrt(1.0 + 4.0 * x[1] ** 2)),
        coercive=False,
        integral_divergent=True,
        integral_tail="eta(rho) == 1 for all rho",
    )
    return RegistryEntry(model, facts)


def _asinh1d_entry() -> RegistryEntry:
    model = MapModel(
        name="asinh1d",
        n=1,
        m=1,
        eval_fn=lambda x: np.arcsinh(x),
        jac_fn=lambda x: (1.0 / np.sqrt(1.0 + np.float_power(x, 2)))[..., None],
        mu_bound=lambda rho: 1.0 / np.sqrt(1.0 + rho * rho),
        stacked=True,
    )
    facts = AnalyticFacts(
        mu_exact=lambda x: 1.0 / float(np.sqrt(1.0 + x[0] ** 2)),
        mu_vanishing_witness=lambda k: np.array([float(k)]),
        witness_image_limit=None,  # f along the witness runs to infinity
        coercive=True,
        integral_divergent=True,
        integral_tail="integral of 1/sqrt(1+rho^2) is arcsinh(r), unbounded",
    )
    return RegistryEntry(model, facts)


_BUILDERS: dict = {
    "arctan1d": _arctan1d_entry,
    "monotone1d": _monotone1d_entry,
    "exp1d": _exp1d_entry,
    "complex_exp": _complex_exp_entry,
    "projection2to1": _projection2to1_entry,
    "parabola_sub": _parabola_sub_entry,
    "asinh1d": _asinh1d_entry,
}

_MAX_IDENTITY_DIM = 512


def registry_entry(name: str) -> RegistryEntry:
    """Look up a registry entry (model plus analytic facts) by name.

    Names: identity_<n>, arctan1d, monotone1d, exp1d, complex_exp,
    projection2to1, parabola_sub, asinh1d.  Each call builds a fresh value.
    """
    if name in _BUILDERS:
        return _BUILDERS[name]()
    if name.startswith("identity_"):
        tail = name[len("identity_"):]
        if tail.isdigit() and 1 <= int(tail) <= _MAX_IDENTITY_DIM:
            return _identity_entry(int(tail))
        raise UnknownMap(f"bad identity dimension in {name!r}")
    if name == "linear":
        raise UnknownMap(
            "map 'linear' needs a matrix; use linear_map(A) in code or a "
            "'matrix' field in the CLI job parameters"
        )
    raise UnknownMap(f"unknown map {name!r}; see list_map_names()")


def registry_get(name: str) -> MapModel:
    """Look up a map model by registry name.  Fresh value on every call."""
    return registry_entry(name).model


def list_map_names() -> list:
    """Names accepted as a map selector.  identity_<n> works for any n up
    to 512; linear takes the matrix from the job parameters."""
    names = ["identity_1", "identity_2", "identity_3"] + sorted(_BUILDERS) + ["linear"]
    return names
