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
joint grid states of the 2-4 input vectors.  It records its plan, each
target set with its own kinds, through ``_term_factors`` into one
``_Program``, as a sampling pass records its kinds and sets, and replays
it once on one grid: the cell midpoints of every state, one role per grid
axis.  So the feature blends, table lookups and differences it checks are
the code that samples.  It never builds the joint grid: each term's mean
is taken from its two factors, each summed over the axes only it spans.
A difference that kinds or (v, v') pairs share is one slot, formed once,
and its partial sums are taken once, then dropped with it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Collection, Mapping

import numpy as np

from .core import ROLES, DimensionError, IndexSet, pick_rows
from .estimators import KINDS, EstimatorKind, _BatchEvals, _Program, _resolve_center, _term_factors
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


def _row_products(h: Mapping[str, np.ndarray], names) -> dict[str, np.ndarray]:
    """h(a) h(b), row by row, for each two-role name "ab"; h(a)**2 when a is b."""
    return {ab: h[ab[0]] ** 2 if ab[0] == ab[1] else h[ab[0]] * h[ab[1]] for ab in names}


def q_v(model: ProductModel, x, z, v: IndexSet):
    """Squared left factor Q_v = (f(x) - f(x_v # z_-v))^2, expanded.

    Evaluated as the three-term product of squared/cross factor values;
    identical to squaring the difference directly.
    """
    h = {role: model.features(np.asarray(p, dtype=np.float64)) for role, p in zip("xz", (x, z))}
    return _q_v_rows(model, _row_products(h, ("xx", "zz", "xz")), v)


def _q_v_rows(model: ProductModel, h2: Mapping[str, np.ndarray], v: IndexSet):
    """``q_v`` from the row products ``h2["xx"]``, ``h2["zz"]`` and ``h2["xz"]``."""
    t1 = model._values(h2["xx"])
    t2 = model._values(pick_rows(h2["xx"], h2["zz"], v))
    t3 = model._values(pick_rows(h2["xx"], h2["xz"], v))
    return t1 + t2 - 2.0 * t3


def q_uv(model: ProductModel, x, y, w, u: IndexSet, v2: IndexSet):
    """Squared right factor Q_uv' = (f(x_u # y_-u) - f(y_v' # w_-v'))^2.

    Requires v' disjoint from u; the cross term takes h(x)h(w) on u,
    h(y)^2 on v', and h(y)h(w) on the rest.
    """
    if not v2.isdisjoint(u):
        raise ValueError(f"v2={v2} must be disjoint from u={u}")
    h = {role: model.features(np.asarray(p, dtype=np.float64)) for role, p in zip("xyw", (x, y, w))}
    return _q_uv_rows(model, _row_products(h, ("xx", "yy", "ww", "xw", "yw")), u, v2)


def _q_uv_rows(model: ProductModel, h2: Mapping[str, np.ndarray], u: IndexSet, v2: IndexSet):
    """``q_uv`` from the row products ``h2["xx"]``, ``"yy"``, ``"ww"``, ``"xw"`` and ``"yw"``."""
    a2 = model._values(pick_rows(h2["xx"], h2["yy"], u))
    b2 = model._values(pick_rows(h2["yy"], h2["ww"], v2))
    cross = model._values(pick_rows(h2["xw"], pick_rows(h2["yy"], h2["yw"], v2), u))
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

    mean = functools.cache(model.mean)  # the default oracle center, taken once per call
    program = _Program(model.dim)
    slots = [  # set by set, so a factor ends with the last set that reads it
        (kind, u, program.mean(*_term_factors(program, kind, u, _resolve_center(kind, mean))))
        for u, kinds in plan.items() for kind in kinds
    ]
    # role k reads the cell midpoints of all m states along its own axis k: its
    # rows (d, 1, .., m, .., 1) are views of one featurized (d, m), and every
    # blend, table lookup and term factor spans only the axes of the roles it reads
    roles = [r for r in ROLES if any(r in KINDS[tag].roles for tag in tags)]
    cells = np.stack(np.unravel_index(np.arange(m), model.table.shape), axis=-1)
    h = model.features((cells + 0.5) / model.levels)
    grid = _BatchEvals(model, ())
    for k, role in enumerate(roles):
        grid.features[role] = h.reshape(model.dim, *(m if j == k else 1 for j in range(len(roles))))
    values = grid.run(program)
    means: dict[EstimatorKind, dict[IndexSet, float]] = {}
    for kind, u, slot in slots:
        means.setdefault(kind, {})[u] = values[slot]
    return means


def enumerate_expectation(
    model: DiscreteModel,
    kind: EstimatorKind,
    u: IndexSet,
    budget: int = MAX_STATES,
) -> float:
    """``enumerate_expectations`` for one kind and one set u."""
    return enumerate_expectations(model, {u: [kind]}, budget)[kind][u]
