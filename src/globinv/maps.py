"""Smooth map models and the built-in benchmark registry.

A :class:`MapModel` wraps a pure vector function f: R^n -> R^m together with an
optional analytic Jacobian and an optional certified lower bound on the local
invertibility indicator over centered balls.  Everything downstream (profiles,
lifts, certificates, the CLI) consumes models through :func:`evaluate`,
:func:`jacobian` and, for batched lifts and samples, :func:`evaluate_stack`
and :func:`jacobian_stack` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, NonFinite, UnknownMap

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
    (the origin when base_point is None).
    """

    name: str
    n: int
    m: int
    eval_fn: Callable[[Array], Array]
    jac_fn: Optional[Callable[[Array], Array]] = None
    mu_bound: Optional[Callable[[float], float]] = None
    base_point: Optional[Array] = None

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


def _vector(x, n: int, what: str) -> Array:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (n,):
        raise DimensionMismatch(f"{what}: expected shape ({n},), got {arr.shape}")
    return arr


def evaluate(model: MapModel, x) -> Array:
    """Evaluate f(x), validating shapes and finiteness."""
    xv = _vector(x, model.n, f"evaluate({model.name})")
    y = np.asarray(model.eval_fn(xv), dtype=float)
    if y.shape != (model.m,):
        raise DimensionMismatch(
            f"evaluate({model.name}): map returned shape {y.shape}, expected ({model.m},)"
        )
    if not np.all(np.isfinite(y)):
        raise NonFinite(f"evaluate({model.name}): non-finite value at x={xv!r}")
    return y


def _stack_points(model: MapModel, X, what: str) -> Array:
    Xv = np.asarray(X, dtype=float)
    if Xv.ndim != 2 or Xv.shape[1] != model.n:
        raise DimensionMismatch(
            f"{what}({model.name}): expected shape (K, {model.n}), got {Xv.shape}"
        )
    return Xv


def _stack_rows(model: MapModel, rows: list, shape: tuple, what: str) -> Array:
    """The per-point results as one float array of shape (K, *shape); the
    first result of another shape raises DimensionMismatch."""
    try:
        stack = np.array(rows, dtype=float) if rows else np.empty((0, *shape))
        if stack.shape == (len(rows), *shape):
            return stack
    except ValueError:  # results of unequal shapes, or not numbers at all
        if all(np.shape(r) == shape for r in rows):
            raise
    got = next(np.shape(r) for r in rows if np.shape(r) != shape)
    raise DimensionMismatch(f"{what}({model.name}): returned shape {got}, expected {shape}")


def evaluate_stack(model: MapModel, X) -> tuple:
    """Values of f at the K rows of X as one (K, m) stack, and a (K,) mask
    of the rows whose value is finite.

    Each row is computed as evaluate() computes it; the shape is checked
    once for the whole stack.  A non-finite row is flagged in the mask
    instead of raised, so sampling callers drop that row and go on with the
    others; an exception raised by the map itself propagates.
    """
    Xv = _stack_points(model, X, "evaluate_stack")
    Y = _stack_rows(model, [model.eval_fn(x) for x in Xv], (model.m,), "evaluate_stack")
    return Y, np.isfinite(Y).all(axis=1)


@np.errstate(invalid="ignore")  # inf - inf where a value is not finite
def _fd_jacobian(model: MapModel, xv: Array) -> Array:
    """Central finite difference with per-coordinate step max(|x_i|, 1) * eps^(1/3),
    from one evaluate_stack of x + h_1 e_1, x - h_1 e_1, x + h_2 e_2, ...  A
    non-finite value gives a non-finite column, which the caller checks."""
    n = model.n
    i = np.arange(n)
    h = np.maximum(np.abs(xv), 1.0) * _FD_SCALE
    X = np.repeat(xv[None, :], 2 * n, axis=0)
    X[2 * i, i] += h
    X[2 * i + 1, i] -= h
    Y, _ = evaluate_stack(model, X)
    # the realized step absorbs rounding in x_i +/- h
    return (Y[0::2] - Y[1::2]).T / (X[2 * i, i] - X[2 * i + 1, i])


def jacobian(model: MapModel, x) -> Array:
    """The m x n Jacobian of f at x: analytic when available, otherwise a
    central finite difference with per-coordinate step max(|x_i|, 1) * eps^(1/3)."""
    xv = _vector(x, model.n, f"jacobian({model.name})")
    if model.jac_fn is not None:
        J = np.asarray(model.jac_fn(xv), dtype=float)
        if J.shape != (model.m, model.n):
            raise DimensionMismatch(
                f"jacobian({model.name}): returned shape {J.shape}, expected ({model.m}, {model.n})"
            )
    else:
        J = _fd_jacobian(model, xv)
    if not np.all(np.isfinite(J)):
        raise NonFinite(f"jacobian({model.name}): non-finite derivative at x={xv!r}")
    return J


def jacobian_stack(model: MapModel, X) -> tuple:
    """Jacobians at the K rows of X as one (K, m, n) stack, and a (K,) mask
    of the rows whose Jacobian is finite.

    Each row is computed as jacobian() computes it, by jac_fn or by the
    same finite difference; the shape and the finiteness are checked once
    for the whole stack.  A non-finite row (including a finite difference
    that hits a non-finite value) is flagged in the mask instead of raised,
    so batched callers drop that row and go on with the others.
    """
    Xv = _stack_points(model, X, "jacobian_stack")
    if model.jac_fn is not None:
        rows = [model.jac_fn(x) for x in Xv]
    else:
        rows = [_fd_jacobian(model, x) for x in Xv]
    J = _stack_rows(model, rows, (model.m, model.n), "jacobian_stack")
    return J, np.isfinite(J).all(axis=(1, 2))


# ---------------------------------------------------------------------------
# registry


def _identity_entry(n: int) -> RegistryEntry:
    model = MapModel(
        name=f"identity_{n}",
        n=n,
        m=n,
        eval_fn=lambda x: x.copy(),
        jac_fn=lambda x: np.eye(n),
        mu_bound=lambda rho: 1.0,
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
    smin = float(np.linalg.svd(A, compute_uv=False)[-1]) if min(m, n) else 0.0
    return MapModel(
        name=name,
        n=n,
        m=m,
        eval_fn=lambda x: A @ x,
        jac_fn=lambda x: A.copy(),
        mu_bound=(lambda rho: smin),
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
        jac_fn=lambda x: np.array([[1.0 / (1.0 + x[0] ** 2)]]),
        mu_bound=lambda rho: 1.0 / (1.0 + rho ** 2),
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
        jac_fn=lambda x: np.array([[1.0 + 0.5 * np.cos(x[0])]]),
        mu_bound=lambda rho: 0.5 if rho >= np.pi else 1.0 + 0.5 * np.cos(rho),
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
        jac_fn=lambda x: np.array([[np.exp(x[0])]]),
        mu_bound=lambda rho: float(np.exp(-rho)),
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
        ex = np.exp(x[0])
        return np.array([ex * np.cos(x[1]), ex * np.sin(x[1])])

    def _jac(x):
        ex = np.exp(x[0])
        c, s = np.cos(x[1]), np.sin(x[1])
        return np.array([[ex * c, -ex * s], [ex * s, ex * c]])

    model = MapModel(
        name="complex_exp",
        n=2,
        m=2,
        eval_fn=_eval,
        jac_fn=_jac,
        mu_bound=lambda rho: float(np.exp(-rho)),
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
        eval_fn=lambda x: np.array([x[0]]),
        jac_fn=lambda x: np.array([[1.0, 0.0]]),
        mu_bound=lambda rho: 1.0,
    )
    facts = AnalyticFacts(
        mu_exact=lambda x: 1.0,
        coercive=False,
        integral_divergent=True,
        integral_tail="eta(rho) == 1 for all rho",
    )
    return RegistryEntry(model, facts)


def _parabola_sub_entry() -> RegistryEntry:
    model = MapModel(
        name="parabola_sub",
        n=2,
        m=1,
        eval_fn=lambda x: np.array([x[0] - x[1] ** 2]),
        jac_fn=lambda x: np.array([[1.0, -2.0 * x[1]]]),
        mu_bound=lambda rho: 1.0,
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
        jac_fn=lambda x: np.array([[1.0 / np.sqrt(1.0 + x[0] ** 2)]]),
        mu_bound=lambda rho: 1.0 / float(np.sqrt(1.0 + rho ** 2)),
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
