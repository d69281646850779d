"""Variance analysis of the generalized estimator, and the exact oracle.

For product-form integrands the generalized per-sample term is a product
of two centered factors

    D = f(x) - f(x_v # z_-v),      E = f(x_u # y_-u) - f(y_v' # w_-v'),

whose squares Q_v = D^2 and Q_uv' = E^2 expand into three-term products
of the per-coordinate factor values.  The estimator's sampling variance
satisfies n var = E(Q_v Q_uv') - lower_u^2, so the size of E(Q_v^2)
over choices of v is a tractable proxy objective for picking which
coordinates to hold fixed; it is minimized by v = complement(u).

Two closed forms of E(Q_v^2) = E(D^4) are provided: the exact binomial
expansion in the per-factor raw moments, and the simplified "proxy" form

    2 prod_j m4_j - 2 prod_{j in v} m4_j prod_{j not in v} m2_j^2

which agrees with the exact value exactly when m1_j m3_j = m2_j^2 for
every coordinate outside v (e.g. constant factors, or mu_j = tau_j
factors with symmetric shapes) and is a monotone surrogate otherwise.

``enumerate_expectations`` is the brute-force oracle: for tabulated models
it computes the exact mean of the sampler's own per-sample terms over all
joint grid states of the 2-4 input vectors.  It takes a plan, each target
set with its own kinds, and builds one grid for it: the cell midpoints of
every state go to one ``_BatchEvals``, one role per grid axis, which it
reads set by set like a sampling pass, so the feature blends, table
lookups and ``_term_factors`` it checks are the code that samples.  It
never builds the joint grid: each factor is summed over the axes only it
spans.  Within a set, a difference two kinds or (v, v') pairs share is
formed once by the grid, and a shared factor's partial sum is taken once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Mapping

import numpy as np

from .core import ROLES, DimensionError, IndexSet, pick_rows
from .estimators import KINDS, EstimatorKind, _BatchEvals, _resolve_center, _term_factors
from .models import BudgetError, DiscreteModel, Model, ProductModel, factor_raw_moments


@dataclass(frozen=True)
class QFactors:
    """Raw moments m1..m4 of every factor h_j of a product model."""

    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray
    m4: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.m4 < self.m2**2 - 1e-12):
            raise ValueError("infeasible factor moments: m4 < m2^2")

    @classmethod
    def from_model(cls, model: ProductModel) -> "QFactors":
        moments = np.array(
            [factor_raw_moments(model, j) for j in range(1, model.dim + 1)]
        )
        return cls(moments[:, 0], moments[:, 1], moments[:, 2], moments[:, 3])


def q_v(model: ProductModel, x, z, v: IndexSet):
    """Squared left factor Q_v = (f(x) - f(x_v # z_-v))^2, expanded.

    Evaluated as the three-term product of squared/cross factor values;
    identical to squaring the difference directly.
    """
    hx = model.features(np.asarray(x, dtype=np.float64))
    hz = model.features(np.asarray(z, dtype=np.float64))
    t1 = model._values(hx**2)
    t2 = model._values(pick_rows(hx**2, hz**2, v))
    t3 = model._values(pick_rows(hx**2, hx * hz, v))
    return t1 + t2 - 2.0 * t3


def q_uv(model: ProductModel, x, y, w, u: IndexSet, v2: IndexSet):
    """Squared right factor Q_uv' = (f(x_u # y_-u) - f(y_v' # w_-v'))^2.

    Requires v' disjoint from u; the cross term takes h(x)h(w) on u,
    h(y)^2 on v', and h(y)h(w) on the rest.
    """
    if not v2.isdisjoint(u):
        raise ValueError(f"v2={v2} must be disjoint from u={u}")
    hx = model.features(np.asarray(x, dtype=np.float64))
    hy = model.features(np.asarray(y, dtype=np.float64))
    hw = model.features(np.asarray(w, dtype=np.float64))
    a2 = model._values(pick_rows(hx**2, hy**2, u))
    b2 = model._values(pick_rows(hy**2, hw**2, v2))
    cross = model._values(pick_rows(hx * hw, pick_rows(hy**2, hy * hw, v2), u))
    return a2 + b2 - 2.0 * cross


def _moment_products(qf: QFactors, v: IndexSet) -> tuple[float, float, float]:
    in_v = v.mask()
    p_all_m4 = 1.0
    p_mixed_m2 = 1.0
    p_mixed_m13 = 1.0
    for j in range(v.dim):
        p_all_m4 *= qf.m4[j]
        p_mixed_m2 *= qf.m4[j] if in_v[j] else qf.m2[j] ** 2
        p_mixed_m13 *= qf.m4[j] if in_v[j] else qf.m1[j] * qf.m3[j]
    return p_all_m4, p_mixed_m2, p_mixed_m13


def diff_fourth_moment(model: ProductModel, v: IndexSet) -> float:
    """Exact E[(f(x) - f(x_v # z_-v))^4] from the factor raw moments.

    Binomial expansion of the fourth power:
    2 prod m4 + 6 prod_v m4 prod_-v m2^2 - 8 prod_v m4 prod_-v m1 m3.
    """
    t1, t2, t3 = _moment_products(QFactors.from_model(model), v)
    return 2.0 * t1 + 6.0 * t2 - 8.0 * t3


def diff_fourth_moment_proxy(model: ProductModel, v: IndexSet) -> float:
    """Simplified objective 2 prod m4 - 2 prod_v m4 prod_-v m2^2.

    Equals diff_fourth_moment exactly when m1_j m3_j = m2_j^2 for all
    j outside v; in general it is the tractable surrogate whose
    minimizer over v inside complement(u) is always the full complement.
    """
    t1, t2, _ = _moment_products(QFactors.from_model(model), v)
    return 2.0 * t1 - 2.0 * t2


_OBJECTIVES = {
    "proxy": diff_fourth_moment_proxy,
    "exact": diff_fourth_moment,
}


def argmin_v(model: ProductModel, u: IndexSet, objective: str = "proxy") -> IndexSet:
    """Exhaustive minimizer of the chosen objective over v in complement(u).

    Ties break toward the lexicographically smallest bitmask.  Under the
    proxy objective the minimizer always contains every coordinate of the
    complement whose factor has m4 > m2^2.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {sorted(_OBJECTIVES)}")
    comp = u.complement()
    if len(comp) > 20:
        raise ValueError(f"exhaustive search over 2^{len(comp)} subsets refused")
    fn = _OBJECTIVES[objective]
    best_v = None
    best_val = math.inf
    for v in comp.subsets():  # increasing bitmask order
        val = fn(model, v)
        if val < best_val:
            best_val = val
            best_v = v
    return best_v


# ---------------------------------------------------------------------------
# brute-force enumeration oracle


#: default cap on the joint grid states one enumeration may visit
MAX_STATES = 10_000_000


def _grid_mean(left: np.ndarray, right: np.ndarray, sums: dict) -> float:
    # mean of left * right over their broadcast grid without forming it: each
    # factor is summed over the axes only it spans, then the products of those
    # partial sums are added; an axis neither spans leaves the mean unchanged.
    # A cached (read-only) factor's sum is kept in ``sums`` with the factor, so
    # its id stays its own, and the set's other terms reuse it
    def own_sum(a, b):
        axes = tuple(k for k in range(a.ndim) if b.shape[k] == 1 < a.shape[k])
        if a.flags.writeable:
            return np.sum(a, axis=axes, keepdims=True)
        key = (id(a), axes)
        if key not in sums:
            sums[key] = (a, np.sum(a, axis=axes, keepdims=True))
        return sums[key][1]

    parts = own_sum(left, right) * own_sum(right, left)
    size = math.prod(map(max, left.shape, right.shape))  # the broadcast shape's size
    return math.fsum(parts.ravel().tolist()) / size


def enumerate_expectations(
    model: DiscreteModel,
    plan: Mapping[IndexSet, Collection[EstimatorKind]],
    budget: int = MAX_STATES,
) -> dict[EstimatorKind, dict[IndexSet, float]]:
    """Exact mean of each set's kinds' per-sample terms, over all grid states.

    ``plan`` maps each target set u to the kinds to enumerate for it.
    Averages a term over every joint state of the input vectors its kind
    consumes (m^2 .. m^4 states for m = levels^dim), which is the
    distribution induced by uniform sampling of the piecewise-constant
    model.  Oracle centers default to the exact table mean.  Returns
    ``{kind: {u: mean}}``.  Raises BudgetError when a kind needs more than
    ``budget`` states.
    """
    for u in plan:
        if u.dim != model.dim:
            raise DimensionError(f"set {u} has dimension {u.dim}, model has {model.dim}")
    m = model.levels**model.dim
    tags = dict.fromkeys(kind.tag for kinds in plan.values() for kind in kinds)
    for tag in tags:
        states = m ** len(KINDS[tag].roles)
        if states > budget:
            raise BudgetError(
                f"{tag} enumeration needs {states} joint states, budget is {budget}"
            )

    # role k reads the cell midpoints of all m states along its own axis k,
    # so its feature rows are (d, 1, .., m, .., 1) and every picked blend,
    # table lookup and term factor spans only the axes of the roles it reads
    roles = [r for r in ROLES if any(r in KINDS[tag].roles for tag in tags)]
    cells = np.stack(np.unravel_index(np.arange(m), model.table.shape), axis=-1)
    mids = (cells + 0.5) / model.levels
    ev = _BatchEvals(model, [
        (role, mids.reshape((1,) * k + (m,) + (1,) * (len(roles) - 1 - k) + (model.dim,)))
        for k, role in enumerate(roles)
    ])
    means: dict[EstimatorKind, dict[IndexSet, float]] = {}
    for u, kinds in plan.items():  # set by set: the grid holds one set's blends at a time
        sums: dict = {}
        for kind in kinds:
            factors = _term_factors(ev, kind, u, _resolve_center(model, kind))
            means.setdefault(kind, {})[u] = _grid_mean(*factors, sums)
        ev.release(kinds)
    return means


def enumerate_expectation(
    model: DiscreteModel,
    kind: EstimatorKind,
    u: IndexSet,
    budget: int = MAX_STATES,
) -> float:
    """``enumerate_expectations`` for one kind and one set u."""
    return enumerate_expectations(model, {u: [kind]}, budget)[kind][u]
