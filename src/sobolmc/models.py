"""Test functions with known ANOVA decompositions.

Three families are provided:

* ``ProductModel`` -- f(x) = prod_j (mu_j + tau_j g_j(x_j)) with factor
  shapes g_j that integrate to 0 and have unit second moment on [0,1].
  Its ANOVA is available in closed form:

      sigma2_u   = prod_{j in u} tau_j^2 * prod_{j not in u} mu_j^2
      lower_u    = prod_{j in u} (mu_j^2 + tau_j^2) * prod_{j not in u} mu_j^2 - mu^2
      upper_u    = sigma2 - lower_{complement(u)}

* ``GFunction`` -- f(x) = prod_j (|4 x_j - 2| + 2 + 3 a_j) / (1 + a_j),
  the classic multiplicative benchmark with importance parameters a_j.
  It has the moment structure of a ProductModel with mu_j = 3 and
  tau_j = 1 / (sqrt(3) (1 + a_j)).

* ``DiscreteModel`` -- a table of values on a regular L^d grid of
  equal-weight cell midpoints.  Every expectation is a finite sum, so the
  full ANOVA can be computed exactly; these models are the brute-force
  oracle against which the sampling estimators are checked.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from numbers import Integral, Real
from typing import Iterable, Sequence

import numpy as np

from .core import MAX_DIM, DimensionError, EvalCounter, IndexSet

_SQRT12 = math.sqrt(12.0)
_SQRT3 = math.sqrt(3.0)

#: cap on discrete-grid cells (L^d), checked when a table is built
DEFAULT_MAX_CELLS = 10_000_000


class BudgetError(RuntimeError):
    """An exact enumeration would exceed the configured state budget."""


def _uniform_g(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # sqrt(12) (x - 0.5), one operation at a time
    out = np.subtract(x, 0.5, out=np.empty(np.shape(x)) if out is None else out)
    return np.multiply(_SQRT12, out, out=out)


def _tent_g(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # sqrt(3) (|4x-2| - 1); |4x-2| is uniform on [0,2] for x ~ U[0,1]: moments 2^k/(k+1)
    out = np.multiply(4.0, x, out=np.empty(np.shape(x)) if out is None else out)
    np.subtract(out, 2.0, out=out)
    np.abs(out, out=out)
    np.subtract(out, 1.0, out=out)
    return np.multiply(_SQRT3, out, out=out)


#: factor shape name -> (g, gamma, kappa): g(x, out=None) has integral 0 and
#: second moment 1 on [0, 1], gamma and kappa are its integrals of g^3 and g^4
SHAPES = {"uniform": (_uniform_g, 0.0, 9.0 / 5.0), "tent": (_tent_g, 0.0, 9.0 / 5.0)}


@dataclass
class AnovaReport:
    """Exact ANOVA summary: mean, total variance, per-set variances.

    ``sigma2_u`` maps each requested set to its effect variance,
    ``lower_u`` to the closed (lower) Sobol' index and ``upper_u`` to the
    total (upper) index; by default every subset of {1..d} is requested.
    """

    mu: float
    sigma2: float
    sigma2_u: dict[IndexSet, float]
    lower_u: dict[IndexSet, float]
    upper_u: dict[IndexSet, float]


class Model:
    """Base class: a deterministic function on [0,1)^d with eval counting."""

    dim: int
    #: the dtype of every feature row
    feature_dtype = np.dtype(np.float64)

    def __init__(self, dim: int) -> None:
        if not 1 <= dim <= MAX_DIM:
            raise DimensionError(f"dimension must be in 1..{MAX_DIM}, got {dim}")
        self.dim = dim
        self.counter = EvalCounter()

    def features(
        self, x: np.ndarray, out: np.ndarray | None = None, rows: Iterable[int] | None = None
    ) -> np.ndarray:
        """Features (d, ...) of points (..., d), row j from x_j alone, so a blend picks rows.

        Given ``out``, an array of the features' shape and ``feature_dtype``,
        the rows are written into it and it is returned; otherwise a new
        array is.  ``rows`` names the rows to write, 0-based (default all);
        the others are not written, so a new array leaves them unset.  The
        result never shares memory with x: the sampler refills its points
        while it still holds their features.
        """
        if out is None:
            out = np.empty((self.dim,) + x.shape[:-1], self.feature_dtype)
        for j in range(self.dim) if rows is None else rows:
            self._feature(j, x[..., j], out[j, ...])  # out[j, ...] is a view even for one point
        return out

    def _feature(self, j: int, xj: np.ndarray, out: np.ndarray) -> None:
        """Write feature row j of the points' coordinates x_j into out; by default x_j itself."""
        np.copyto(out, xj)

    def _values(self, rows: Sequence[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
        """f from the d feature rows of points; the rows broadcast together.

        Given ``out``, a float64 array of the points' shape, f is written
        there and it is returned; otherwise a new array is, or a row itself.
        """
        raise NotImplementedError

    def evaluate(self, x) -> float | np.ndarray:
        """Evaluate at one point (d,) or a batch (..., d).

        Increments the eval counter once per point evaluated.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise DimensionError(
                f"model of dimension {self.dim} got point of dimension {x.shape[-1]}"
            )
        self.counter.add(int(np.prod(x.shape[:-1], dtype=np.int64)) if x.ndim > 1 else 1)
        out = self._values(self.features(x))
        return float(out) if x.ndim == 1 else out

    def mean(self) -> float:
        raise NotImplementedError

    def clone(self) -> "Model":
        """Copy sharing the (immutable) parameters but with a fresh counter."""
        other = copy.copy(self)
        other.counter = EvalCounter()
        return other


class _FactorProduct(Model):
    """f(x) = prod_j h_j(x_j); a subclass writes the factor h_j with ``_feature(j, x_j, out)``."""

    def _values(self, h: Sequence[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
        # left to right, j = 1..d, as np.prod(axis=-1) multiplies, into out or
        # one fresh array: a row may be a view of cached features, so none is written
        if len(h) == 1:
            if out is None:
                return h[0]
            np.copyto(out, h[0])
            return out
        if out is None:
            out = np.empty(np.broadcast(*h).shape)  # np.broadcast_shapes costs ~7 us of Python
        np.multiply(h[0], h[1], out=out)
        for row in h[2:]:
            np.multiply(out, row, out=out)
        return out


class ProductModel(_FactorProduct):
    """f(x) = prod_j (mu_j + tau_j g_j(x_j)) with standardized shapes g_j.

    ``kinds`` names the shapes, one ``SHAPES`` key for every coordinate or
    one per coordinate; ``self.kinds`` keeps the tuple of names.
    """

    def __init__(self, mu: Sequence[float], tau: Sequence[float], kinds="uniform"):
        mu = np.asarray(mu, dtype=np.float64)
        tau = np.asarray(tau, dtype=np.float64)
        if mu.ndim != 1 or mu.shape != tau.shape:
            raise DimensionError("mu and tau must be 1-d arrays of equal length")
        for name, values in (("mu", mu), ("tau", tau)):
            if not np.all(np.isfinite(values)):  # NaN < 0 is false, so check this first
                raise ValueError(f"{name} must be finite, got {values.tolist()}")
        if np.any(tau < 0.0):
            raise ValueError("tau must be nonnegative")
        super().__init__(mu.shape[0])
        if isinstance(kinds, str) or not isinstance(kinds, Iterable):
            kinds = [kinds] * self.dim
        kinds = tuple(kinds)
        bad = [k for k in kinds if not isinstance(k, str) or k not in SHAPES]
        if bad:
            raise ValueError(f"unknown factor shape {bad[0]!r}, expected one of {sorted(SHAPES)}")
        if len(kinds) != self.dim:
            raise DimensionError("one factor shape per coordinate required")
        self.mu = mu
        self.tau = tau
        self.kinds = kinds

    def _feature(self, j: int, xj: np.ndarray, out: np.ndarray) -> None:
        # mu_j + tau_j g_j(x_j)
        SHAPES[self.kinds[j]][0](xj, out)
        np.multiply(self.tau[j], out, out=out)
        np.add(self.mu[j], out, out=out)

    def mean(self) -> float:
        return float(np.prod(self.mu))


class GFunction(_FactorProduct):
    """f(x) = prod_j (|4 x_j - 2| + 2 + 3 a_j) / (1 + a_j), a_j >= 0."""

    def __init__(self, a: Sequence[float]):
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 1:
            raise DimensionError("a must be a 1-d array")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"importance parameters a must be finite, got {a.tolist()}")
        if np.any(a < 0.0):
            raise ValueError("importance parameters a_j must be nonnegative")
        super().__init__(a.shape[0])
        self.a = a

    def _feature(self, j: int, xj: np.ndarray, out: np.ndarray) -> None:
        # ((|4 x_j - 2| + 2) + 3 a_j) / (1 + a_j), in this order: 2 + 3 a_j is not folded
        np.multiply(4.0, xj, out=out)
        np.subtract(out, 2.0, out=out)
        np.abs(out, out=out)
        np.add(out, 2.0, out=out)
        np.add(out, 3.0 * self.a[j], out=out)
        np.divide(out, 1.0 + self.a[j], out=out)

    def mean(self) -> float:
        # each factor has mean (1 + 2 + 3a)/(1+a) = 3
        return 3.0**self.dim


class DiscreteModel(Model):
    """Values tabulated on the L^d grid of equal-weight cell midpoints.

    As a function on [0,1)^d it is piecewise constant on the cells
    [k/L, (k+1)/L), so uniform sampling of the cube reproduces the
    equal-weight distribution over grid states exactly.
    """

    feature_dtype = np.dtype(np.int64)  # cell indices

    def __init__(self, table, levels: int | None = None):
        table = np.asarray(table, dtype=np.float64)
        if levels is not None and table.ndim == 1:
            d = round(math.log(table.size) / math.log(levels)) if table.size > 1 < levels else 1
            if levels**d != table.size:
                raise ValueError(
                    f"flat table of {table.size} values is not a {levels}^d hypercube"
                )
            table = table.reshape((levels,) * d)
        if table.ndim < 1 or len(set(table.shape)) != 1:
            raise DimensionError("table must be an L^d hypercube")
        if table.size > DEFAULT_MAX_CELLS:
            raise BudgetError(f"table of {table.size} cells exceeds cap {DEFAULT_MAX_CELLS}")
        if not np.all(np.isfinite(table)):
            raise ValueError("table entries must be finite")
        super().__init__(table.ndim)
        self.levels = table.shape[0]
        self.table = table

    def _feature(self, j: int, xj: np.ndarray, out: np.ndarray) -> None:
        """The cell indices floor(x_j L) of points in [0, 1), as int64."""
        # x_j L is floored in out's own memory and cast in place: numpy
        # assigns overlapping arrays as if they did not overlap, and casts a
        # 1-d row, as the sampler's are, element by element without a copy
        cells = out.view(np.float64)
        np.multiply(xj, self.levels, out=cells)
        np.floor(cells, out=cells)
        out[...] = cells
        if out.view(np.uint64).max() >= self.levels:  # a negative index reads as a huge one
            raise ValueError("a discrete model takes points in [0, 1)^d only")

    def _values(self, idx: Sequence[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
        # the C-order flat cell index by Horner's rule over the rows j = 1..d.
        # Given out, it is formed in out's memory: take reads each point's
        # index before it writes that point's value (a test pins this
        # overlap), and "clip" lets it write into out directly instead of a
        # copy; ``_feature`` has checked every index is in range.  Without
        # out, each step spans only the axes of the rows read so far, as the
        # oracle's grid rows broadcast.
        index = None if out is None else out.view(np.int64)
        flat = idx[0]
        for row in idx[1:]:
            flat = np.add(np.multiply(flat, self.levels, out=index), row, out=index)
        return np.take(self.table.reshape(-1), flat, out=out, mode="clip")

    def mean(self) -> float:
        return float(self.table.mean())


def factor_raw_moments(model: ProductModel, j: int) -> tuple[float, float, float, float]:
    """Raw moments (m1..m4) of factor h_j = mu_j + tau_j g_j, j in 1..d.

    Binomial expansion against the standardized shape moments
    (0, 1, gamma, kappa):

        m1 = mu
        m2 = mu^2 + tau^2
        m3 = mu^3 + 3 mu tau^2 + tau^3 gamma
        m4 = mu^4 + 6 mu^2 tau^2 + 4 mu tau^3 gamma + tau^4 kappa
    """
    if not 1 <= j <= model.dim:
        raise ValueError(f"coordinate {j} out of range for dimension {model.dim}")
    mu = float(model.mu[j - 1])
    tau = float(model.tau[j - 1])
    _, gamma, kappa = SHAPES[model.kinds[j - 1]]
    m1 = mu
    m2 = mu**2 + tau**2
    m3 = mu**3 + 3.0 * mu * tau**2 + tau**3 * gamma
    m4 = mu**4 + 6.0 * mu**2 * tau**2 + 4.0 * mu * tau**3 * gamma + tau**4 * kappa
    return m1, m2, m3, m4


def product_anova(model: ProductModel, us: Iterable[IndexSet] | None = None) -> AnovaReport:
    """Closed-form ANOVA, ``product_set_indices`` on each set of ``us`` (None: every subset)."""
    full = IndexSet.full(model.dim)
    table = {u: product_set_indices(model, u) for u in (full.subsets() if us is None else us)}
    return AnovaReport(
        model.mean(),
        product_set_indices(model, full)[1],  # the full set's lower index is the total variance
        {u: t[0] for u, t in table.items()},
        {u: t[1] for u, t in table.items()},
        {u: t[2] for u, t in table.items()},
    )


def product_set_indices(model: ProductModel, u: IndexSet) -> tuple[float, float, float]:
    """(sigma2_u, lower_u, upper_u) for one set, without the 2^d maps."""
    if u.dim != model.dim:
        raise DimensionError(f"set {u} has dimension {u.dim}, model has {model.dim}")
    mu2 = model.mu**2
    tau2 = model.tau**2
    mu_sq = float(np.prod(mu2))
    sigma2 = float(np.prod(mu2 + tau2)) - mu_sq
    m = u.mask()
    sigma2_u = float(np.prod(np.where(m, tau2, mu2))) if len(u) else 0.0
    lower = float(np.prod(np.where(m, mu2 + tau2, mu2))) - mu_sq
    lower_comp = float(np.prod(np.where(~m, mu2 + tau2, mu2))) - mu_sq
    return sigma2_u, lower, sigma2 - lower_comp


def g_as_product(g: GFunction) -> ProductModel:
    """Moment-matched product form of a g-function.

    Each factor (|4x-2| + 2 + 3a)/(1+a) equals 3 + g_tent(x)/(sqrt(3)(1+a))
    with the unit-variance tent shape, so mu_j = 3 and
    tau_j = 1/(sqrt(3)(1+a_j)).
    """
    mu = np.full(g.dim, 3.0)
    tau = 1.0 / (_SQRT3 * (1.0 + g.a))
    return ProductModel(mu, tau, "tent")


def discrete_anova(model: DiscreteModel, us: Iterable[IndexSet] | None = None) -> AnovaReport:
    """Exact ANOVA of a tabulated model by subset inclusion-exclusion.

    Conditional means over each coordinate subset are finite averages of
    the table; effects are obtained by the Moebius recursion
    f_u = M_u - sum_{v strictly inside u} f_v and their variances are grid
    averages of f_u^2.  The report keeps the sets ``us`` (None: every subset).
    """
    d = model.dim
    full = IndexSet.full(d)
    axes_all = tuple(range(d))

    effects: dict[IndexSet, np.ndarray] = {}
    sigma2_u: dict[IndexSet, float] = {}
    for u in sorted(full.subsets(), key=len):
        off_axes = tuple(ax for ax in axes_all if (ax + 1) not in u)
        m_u = model.table.mean(axis=off_axes, keepdims=True) if off_axes else model.table
        f_u = m_u.copy()
        for v in u.subsets():
            if v != u:
                f_u = f_u - effects[v]
        effects[u] = f_u
        sigma2_u[u] = 0.0 if len(u) == 0 else float((f_u**2).mean())

    mu = float(effects[IndexSet.empty(d)].reshape(()))
    sigma2 = float(((model.table - mu) ** 2).mean())

    sets = list(sigma2_u) if us is None else list(us)
    lower_u = {u: math.fsum(sigma2_u[v] for v in u.subsets()) for u in sigma2_u}
    upper_u = {u: sigma2 - lower_u[u.complement()] for u in sets}
    return AnovaReport(
        mu, sigma2, {u: sigma2_u[u] for u in sets}, {u: lower_u[u] for u in sets}, upper_u
    )


def analytic_anova(model: Model, us: Iterable[IndexSet] | None = None) -> AnovaReport:
    """Exact ANOVA of a builtin model family on the sets ``us`` (None: every subset).

    Product forms, the g-function through ``g_as_product``, compute each
    requested set alone and take ``mu`` from ``model.mean()``; a discrete
    table is decomposed whole.
    """
    if isinstance(model, ProductModel):
        return product_anova(model, us)
    if isinstance(model, GFunction):
        return replace(product_anova(g_as_product(model), us), mu=model.mean())
    if isinstance(model, DiscreteModel):
        return discrete_anova(model, us)
    raise TypeError(f"no exact ANOVA available for {type(model).__name__}")


_SCHEMA_KEYS = {
    "g-function": {"kind", "a"},
    "product": {"kind", "mu", "tau", "g"},
    "discrete": {"kind", "levels", "table"},
}


def _is_finite_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def _numbers(obj: dict, key: str):
    """obj[key], a (possibly nested) list of finite numbers; a ValueError names the key."""
    value = obj[key]
    flat = value
    while isinstance(flat, list) and flat and all(isinstance(v, list) for v in flat):
        flat = [v for row in flat for v in row]
    if not isinstance(flat, list):
        raise ValueError(f"{key!r} must be a list of finite numbers, got {value!r}")
    bad = [v for v in flat if not _is_finite_number(v)]
    if bad:
        raise ValueError(f"{key!r} must be a list of finite numbers, got the entry {bad[0]!r}")
    return value


def model_from_json(obj: dict) -> Model:
    """Build a model from its JSON configuration document.

    Schema: {"kind": "g-function"|"product"|"discrete", "a": [...],
    "mu": [...], "tau": [...], "g": "uniform"|"tent", "levels": L,
    "table": [...]}.  "g" is optional (default "uniform", or one name per
    coordinate); every other key of a kind is required.  A missing or
    unknown key, a list that is not of finite numbers, an unknown factor
    shape or a ``levels`` that is not an integer >= 1 raises a ValueError
    naming the key.
    """
    if not isinstance(obj, dict):
        raise ValueError("model configuration must be a JSON object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _SCHEMA_KEYS:  # a list or dict is unhashable
        raise ValueError(f"unknown model kind {kind!r}, expected one of {sorted(_SCHEMA_KEYS)}")
    extra = set(obj) - _SCHEMA_KEYS[kind]
    if extra:
        raise ValueError(f"unknown keys for {kind!r} model: {sorted(extra)}")
    missing = _SCHEMA_KEYS[kind] - set(obj) - {"g"}
    if missing:
        raise ValueError(f"{kind!r} model needs {sorted(missing)}")
    if kind == "g-function":
        return GFunction(_numbers(obj, "a"))
    if kind == "product":
        g = obj.get("g", "uniform")
        names = g if isinstance(g, list) else [g]
        if not all(isinstance(name, str) and name in SHAPES for name in names):
            raise ValueError(
                f"'g' must be one of {sorted(SHAPES)} or a list of them, got {g!r}"
            )
        return ProductModel(_numbers(obj, "mu"), _numbers(obj, "tau"), g)
    levels = obj["levels"]
    if isinstance(levels, bool) or not isinstance(levels, Integral) or levels < 1:
        raise ValueError(f"'levels' must be an integer >= 1, got {levels!r}")
    return DiscreteModel(_numbers(obj, "table"), levels=levels)


BUILTIN_MODELS = ("g", "product6")


def builtin_model(name: str) -> Model:
    """Named models used throughout the benchmark suite."""
    if name == "g":
        return GFunction([19.0, 9.0, 4.0])
    if name == "product6":
        return ProductModel(np.ones(6), [1.0, 1.0, 0.5, 0.5, 0.25, 0.25], "uniform")
    raise ValueError(f"unknown builtin model {name!r}, expected one of {BUILTIN_MODELS}")
