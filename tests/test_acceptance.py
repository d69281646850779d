"""End-to-end acceptance checks at full scale.

Each test asserts one pinned criterion; the conftest hook prints a
PASS/FAIL line per criterion after the run.  The statistical criteria use
fixed seeds, n = 10^6 samples and 10 replicates, matching the benchmark
protocol; tolerances are pinned here, not tuned at runtime.
"""

import math
import time

import numpy as np
import pytest

from sobolmc.core import BlockSampler, IndexSet, RngSpec, blend
from sobolmc.estimators import EstimatorKind, _batch_terms, _BatchEvals, accumulate_terms
from sobolmc.experiments import g_function_study, product6_study
from sobolmc.models import (
    DiscreteModel,
    GFunction,
    ProductModel,
    builtin_model,
    discrete_anova,
    g_as_product,
    product_anova,
)
from sobolmc.theory import (
    QFactors,
    argmin_v,
    diff_fourth_moment,
    diff_fourth_moment_proxy,
    enumerate_expectation,
    q_uv,
    q_v,
)


def u_of(ix, dim):
    return IndexSet.from_indices(ix, dim)


REL_TOL = 1e-10


@pytest.mark.acceptance("criterion 1: exact-identity suite on random models (< 60 s)")
def test_criterion_1_exact_identities():
    started = time.perf_counter()
    cases = [(3, 2, trial) for trial in range(20)] + [(3, 3, trial) for trial in range(5)]
    checked = 0
    for levels, dims, trial in cases:
        rng = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(dims, trial)))
        model = DiscreteModel(rng.random((levels,) * dims))
        rep = discrete_anova(model)
        mu = model.mean()
        for u in IndexSet.full(dims).subsets():
            if len(u) == 0:
                continue
            lower, upper = rep.lower_u[u], rep.upper_u[u]
            for kind, want in [
                (EstimatorKind("correlation1"), lower),
                (EstimatorKind("correlation2"), lower),
                (EstimatorKind("oracle1", center=mu), lower),
                (EstimatorKind("oracle2", center=mu), lower),
                (EstimatorKind("upper"), upper),
            ]:
                got = enumerate_expectation(model, kind, u)
                assert abs(got - want) <= REL_TOL * abs(want), (kind.tag, str(u), trial)
                checked += 1
            comp = u.complement()
            for v in comp.subsets():
                for v2 in comp.subsets():
                    got = enumerate_expectation(model, EstimatorKind("generalized", v=v, v2=v2), u)
                    assert abs(got - lower) <= REL_TOL * abs(lower), (str(v), str(v2), str(u))
                    checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 20 * (3 * 5 + 4 + 4 + 1) + 5 * (7 * 5 + 3 * 16 + 3 * 4 + 1)
    assert elapsed < 60.0, f"identity suite took {elapsed:.1f}s"


@pytest.mark.acceptance("criterion 2: g-function ground truth moments and relative indices")
def test_criterion_2_g_ground_truth():
    rep = product_anova(g_as_product(GFunction([19.0, 9.0, 4.0])))
    assert rep.mu == 27.0
    listed = {
        (1,): 0.0675,
        (2,): 0.27,
        (3,): 1.08,
        (1, 2): 0.000025,
        (1, 3): 0.0001,
        (2, 3): 0.0004,
    }
    for ix, want in listed.items():
        got = rep.sigma2_u[u_of(ix, 3)]
        assert abs(got - want) <= 5e-4 * abs(want), (ix, got)  # 3 significant figures
    # the triple interaction is listed approximately, to 2 significant figures
    triple = rep.sigma2_u[u_of((1, 2, 3), 3)]
    assert float(f"{triple:.1e}") == 3.7e-8
    table2_rel = {
        (1,): 0.048, (2,): 0.190, (3,): 0.762,
        (1, 2): 0.238, (1, 3): 0.809, (2, 3): 0.952,
    }
    for ix, want in table2_rel.items():
        assert round(rep.lower_u[u_of(ix, 3)] / rep.sigma2, 3) == want


@pytest.fixture(scope="module")
def table_g():
    return g_function_study(n=1_000_000, replicates=10, seed=2026)


@pytest.fixture(scope="module")
def table_p6():
    return product6_study(n=1_000_000, replicates=10, seed=2026)


def row_of(table, ix):
    """The row of ``table`` for the coordinates ``ix``."""
    (row,) = [r for r in table.rows if r.u.members() == tuple(ix)]
    return row


@pytest.mark.acceptance("criterion 3: g-function efficiency table at n=1e6, R=10")
def test_criterion_3_g_efficiencies(table_g):
    r1 = row_of(table_g, [1])
    assert r1.eff_corr2 > r1.eff_orcl1 > r1.eff_orcl2 > 1.0
    assert 2100 <= r1.eff_corr2 <= 8500
    r23 = row_of(table_g, [2, 3])
    assert r23.eff_orcl2 > r23.eff_orcl1
    assert r23.eff_orcl2 > r23.eff_corr2
    for row in table_g.rows:
        assert 350 <= row.eff_orcl1 <= 700, (str(row.u), row.eff_orcl1)


@pytest.mark.acceptance("criterion 4: product-model efficiency table at n=1e6, R=10")
def test_criterion_4_product6_efficiencies(table_p6):
    singles = [row_of(table_p6, [j]) for j in range(1, 7)]
    assert [round(r.rel_index, 3) for r in singles] == [
        0.165, 0.165, 0.041, 0.041, 0.010, 0.010,
    ]
    published = (0.74, 0.73, 1.69, 1.67, 5.45, 5.58)
    for row, want in zip(singles, published):
        assert abs(row.eff_corr2 - want) <= 0.25 * want, (str(row.u), row.eff_corr2)
    # strict trend: smaller relative index, larger correlation2 efficiency
    for a in singles:
        for b in singles:
            if a.rel_index > b.rel_index:
                assert a.eff_corr2 < b.eff_corr2, (str(a.u), str(b.u))
    # pair rows: variance-identity values with the discrepancy flag
    pair_rel = {(1, 2): 0.495, (3, 4): 0.093, (5, 6): 0.021}
    for ix, want in pair_rel.items():
        row = row_of(table_p6, ix)
        assert round(row.rel_index, 3) == want
        assert "disagrees" in row.note


@pytest.mark.acceptance("criterion 5: generalized-term variance matches the Q-product moment")
def test_criterion_5_variance_identity_consistency():
    model = builtin_model("product6")
    u = u_of([5], 6)
    v = u.complement()
    lower = product_anova(model).lower_u[u]

    # pipeline A: per-sample term variance from 10 x 1e5 = 1e6 samples
    gen = EstimatorKind("generalized")
    reps = []
    for rep in range(10):
        accs, _ = accumulate_terms(model.clone(), [gen], [u], 100_000, RngSpec(404, rep))
        reps.append(accs[gen][u].variance())
    var_a = float(np.mean(reps))
    se_a = float(np.std(reps, ddof=1)) / math.sqrt(len(reps))

    # pipeline B: independent streams, E(Q_v Q_uv') - lower^2 from 1e6 blocks
    sampler = BlockSampler(RngSpec(505), 6)
    x = sampler.draw_role("x", 1_000_000)
    y = sampler.draw_role("y", 1_000_000)
    z = sampler.draw_role("z", 1_000_000)
    w = sampler.draw_role("w", 1_000_000)
    qq = q_v(model, x, z, v) * q_uv(model, x, y, w, u, v)
    var_b = float(qq.mean()) - lower**2
    se_b = float(qq.std(ddof=1)) / math.sqrt(qq.size)

    assert abs(var_a - var_b) < 4.0 * math.hypot(se_a, se_b)


@pytest.mark.acceptance("criterion 6a: proxy objective minimized by the full complement")
def test_criterion_6_argmin_and_monotonicity():
    for model in (g_as_product(builtin_model("g")), builtin_model("product6")):
        full = IndexSet.full(model.dim)
        for u in full.subsets():
            assert argmin_v(model, u, "proxy") == u.complement()
        # nonincreasing along every chain: single-coordinate extensions suffice
        for v in full.subsets():
            base = diff_fourth_moment_proxy(model, v)
            for j in v.complement():
                bigger = IndexSet(v.bits | u_of([j], model.dim).bits, model.dim)
                assert diff_fourth_moment_proxy(model, bigger) <= base + 1e-12


@pytest.mark.acceptance("criterion 6b: closed forms agree exactly when m1*m3 = m2^2")
def test_criterion_6_equality_regime():
    # the agreement precondition is per-coordinate m1 m3 = m2^2: constant
    # factors and mu = tau symmetric factors satisfy it
    for model in (
        ProductModel([1.3, 0.4, 2.0], [0.0, 0.0, 0.0]),
        ProductModel([1.0, 0.5, 2.0], [1.0, 0.5, 2.0], "uniform"),
    ):
        qf = QFactors.from_model(model)
        assert np.allclose(qf.m1 * qf.m3, qf.m2**2, rtol=1e-12)
        for v in IndexSet.full(model.dim).subsets():
            exact = diff_fourth_moment(model, v)
            proxy = diff_fourth_moment_proxy(model, v)
            assert abs(exact - proxy) <= 1e-12 * max(1.0, abs(exact))


@pytest.mark.acceptance("criterion 6c: literal zero-mean equality claim (documented defect)")
@pytest.mark.xfail(
    strict=True,
    reason=(
        "zero-mean factors have m1 = m3 = 0, so m1*m3 = 0 != m2^2 and the "
        "two closed forms differ by 8 prod_v m4 prod_-v m2^2; the stated "
        "equality cannot hold for any nonconstant zero-mean model"
    ),
)
def test_criterion_6_zero_mean_equality_as_stated():
    model = ProductModel([0.0] * 4, [1.0] * 4, "uniform")
    for v in IndexSet.full(4).subsets():
        exact = diff_fourth_moment(model, v)
        proxy = diff_fourth_moment_proxy(model, v)
        assert abs(exact - proxy) <= 1e-12 * max(1.0, abs(exact))


@pytest.mark.acceptance("criterion 6d: measured fourth moment matches the exact closed form")
def test_criterion_6_monte_carlo_fourth_moment():
    model = builtin_model("product6")
    u = u_of([5], 6)
    v = u.complement()
    sampler = BlockSampler(RngSpec(606), 6)
    x = sampler.draw_role("x", 1_000_000)
    z = sampler.draw_role("z", 1_000_000)
    d4 = (model.evaluate(x) - model.evaluate(blend(x, z, v))) ** 4
    mean = float(d4.mean())
    se = float(d4.std(ddof=1)) / math.sqrt(d4.size)
    assert abs(mean - diff_fourth_moment(model, v)) < 4.0 * se


@pytest.mark.acceptance("criterion 7: per-sample zeros when the target coordinates are inert")
def test_criterion_7_per_sample_zero_property():
    # constant in the u coordinates: both centered kinds vanish identically
    model = ProductModel([1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 1.0, 0.0], "uniform")
    u = u_of([2, 4], 4)
    rng = np.random.default_rng(77)
    x, y, z = (rng.random((10_000, 4)) for _ in range(3))
    f = model.evaluate
    corr2 = (f(x) - f(blend(z, x, u))) * (f(blend(x, y, u)) - f(y))
    upper = 0.5 * (f(x) - f(blend(y, x, u))) ** 2
    assert np.all(corr2 == 0.0)
    assert np.all(upper == 0.0)
    # and the sampler's own terms are the same exact zeros
    ev = _BatchEvals(model, [("x", x), ("y", y), ("z", z)])
    assert np.array_equal(_batch_terms(ev, EstimatorKind("correlation2"), u, None), corr2)
    assert np.array_equal(_batch_terms(ev, EstimatorKind("upper"), u, None), upper)
