"""Self-check suite: exact identities on randomly drawn models.

For random tabulated models every estimator expectation is a finite sum,
so the suite can check, with no sampling error, that

* the ANOVA report satisfies its ordering, complement, and effect-sum
  identities,
* every unbiased estimator's enumerated expectation equals the closed
  index (the total index for the squared-difference kind), for every
  target set and every admissible blending pair (v, v'),
* the original estimator's cross moment enumerates to mu^2 + lower_u,
* the expanded Q factors equal the squares of the generalized kind's own
  factors D and E.

Each trial makes one oracle call: every kind each set checks is recorded
through ``_term_factors`` into one ``_Program``, the sampler's own term
program, and replayed once on the cell midpoints (the same feature
blends, table lookups and differences), contracting each term's two
factors over all joint grid states without building the grid; kinds
share each difference and partial sum.  The Q identities replay D and E
of the generalized kind the same way on random points of a random
product model, and expand their squares from the same feature rows,
each square or cross product of rows formed once per trial.  So a wrong
term, blend or lookup shows up here.  Any violation fails the suite, and
a check's label is formed only when it fails.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from .core import ROLES, IndexSet
from .estimators import KINDS, EstimatorKind, _BatchEvals, _Program, _term_factors
from .models import BudgetError, DiscreteModel, ProductModel, discrete_anova
from .theory import MAX_STATES, _q_uv_rows, _q_v_rows, _row_products, enumerate_expectations

REL_TOL = 1e-10
Q_TOL = 1e-12


def _rel_err(got: float, want: float) -> float:
    scale = max(abs(want), 1e-30)
    return abs(got - want) / scale


class _Ledger:
    def __init__(self, log) -> None:
        self.log = log or (lambda _msg: None)
        self.checks = 0
        self.failures = 0

    def check(self, ok: bool, label: str | Callable[[], str]) -> None:
        """Count one check; a failed one logs its label, formed only then."""
        self.checks += 1
        if not ok:
            self.failures += 1
            self.log(f"[FAIL] {label() if callable(label) else label}")

    def close(self, label: str) -> None:
        status = "PASS" if self.failures == 0 else "FAIL"
        self.log(f"[{status}] {label}: {self.checks - self.failures}/{self.checks} checks")


def _check_anova_invariants(ledger: _Ledger, report, d: int, trial: int) -> None:
    empty = IndexSet.empty(d)
    full = IndexSet.full(d)
    ledger.check(report.sigma2_u[empty] == 0.0, lambda: f"trial {trial}: sigma2_empty = 0")
    ledger.check(report.lower_u[empty] == 0.0, lambda: f"trial {trial}: lower_empty = 0")
    total = math.fsum(report.sigma2_u[u] for u in full.subsets())
    ledger.check(
        _rel_err(total, report.sigma2) < REL_TOL,
        lambda: f"trial {trial}: effect variances sum to sigma2",
    )
    for u in full.subsets():
        lo, hi = report.lower_u[u], report.upper_u[u]
        ledger.check(
            -1e-12 <= lo <= hi + 1e-12 <= report.sigma2 + 1e-9,
            lambda: f"trial {trial}: 0 <= lower <= upper <= sigma2 at u={u}",
        )
        ledger.check(
            _rel_err(report.lower_u[u] + report.upper_u[u.complement()], report.sigma2) < REL_TOL,
            lambda: f"trial {trial}: complement identity at u={u}",
        )


def _label(kind: EstimatorKind) -> str:
    if kind.tag == "original":
        return "E[original cross moment]"
    if kind.tag == "generalized":
        return f"E[generalized v={kind.v} v2={kind.v2}]"
    return f"E[{kind.tag}]"


def _check_enumerations(
    ledger: _Ledger,
    model: DiscreteModel,
    report,
    budget: int,
    trial: int,
) -> None:
    mu = model.mean()
    plan = {}  # every nonempty set -> {kind: its expected mean}
    for u in list(IndexSet.full(model.dim).subsets())[1:]:
        lower = report.lower_u[u]
        plan[u] = {
            EstimatorKind("correlation1"): lower,
            EstimatorKind("correlation2"): lower,
            EstimatorKind("oracle1", center=mu): lower,
            EstimatorKind("oracle2", center=mu): lower,
            EstimatorKind("upper"): report.upper_u[u],
            EstimatorKind("original"): mu**2 + lower,
        }
        for v, v2 in itertools.product(u.complement().subsets(), repeat=2):
            plan[u][EstimatorKind("generalized", v=v, v2=v2)] = lower
    got = enumerate_expectations(model, plan, budget)
    for u, wants in plan.items():
        for kind, want in wants.items():
            ledger.check(
                _rel_err(got[kind][u], want) < REL_TOL,
                lambda: f"trial {trial}: {_label(kind)} at u={u}",
            )


def _check_q_identities(ledger: _Ledger, rng: np.random.Generator, trial: int) -> None:
    # D and E are the generalized kind's own factors, replayed from the
    # sampler's program; q_v and q_uv expand their squares apart, from the
    # same feature rows
    d = int(rng.integers(2, 5))
    model = ProductModel(
        rng.uniform(0.5, 1.5, d),
        rng.uniform(0.1, 1.0, d),
        [("uniform", "tent")[int(b)] for b in rng.integers(0, 2, d)],
    )
    x, y, z, w = (rng.random((100, d)) for _ in range(4))
    u = IndexSet.from_indices([1], d)
    program = _Program(d)
    gen = {v: EstimatorKind("generalized", v=v, v2=v) for v in u.complement().subsets()}
    factors = {  # D and E of each v, kept to be read after the replay
        v: [program.keep(s) for s in _term_factors(program, k, u, None)] for v, k in gen.items()
    }
    ev = _BatchEvals(model, zip(ROLES, (x, y, z, w)))
    values = ev.run(program)
    h2 = _row_products(ev.features, ("xx", "yy", "zz", "ww", "xz", "xw", "yw"))
    for v, (left, right) in factors.items():
        direct = values[left] ** 2
        expanded = _q_v_rows(model, h2, v)
        ledger.check(
            float(np.max(np.abs(expanded - direct))) < Q_TOL * max(1.0, float(np.max(direct))),
            lambda: f"trial {trial}: Q_v equals the squared difference, v={v}",
        )
        direct2 = values[right] ** 2
        expanded2 = _q_uv_rows(model, h2, u, v)
        ledger.check(
            float(np.max(np.abs(expanded2 - direct2))) < Q_TOL * max(1.0, float(np.max(direct2))),
            lambda: f"trial {trial}: Q_uv' equals the squared difference, v'={v}",
        )


def verify_suite(
    levels: int = 3,
    dims: int = 2,
    trials: int = 5,
    seed: int = 0,
    max_states: int = MAX_STATES,
    log=print,
) -> bool:
    """Run the exact-identity suite on random models; True iff all pass.

    Raises BudgetError up front when the requested grid would exceed the
    enumeration budget.
    """
    states = (levels**dims) ** max(len(info.roles) for info in KINDS.values())
    if states > max_states:
        raise BudgetError(
            f"L={levels}, d={dims} needs {states} joint states, budget is {max_states}"
        )
    ledger = _Ledger(log)
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))
        model = DiscreteModel(rng.random((levels,) * dims))
        report = discrete_anova(model)
        _check_anova_invariants(ledger, report, dims, trial)
        _check_enumerations(ledger, model, report, max_states, trial)
        _check_q_identities(ledger, rng, trial)
    ledger.close(f"verify L={levels} d={dims} trials={trials}")
    return ledger.failures == 0
