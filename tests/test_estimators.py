import hashlib
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolmc import estimators, experiments
from sobolmc.core import ROLES, BlockSampler, IndexSet, RngSpec, blend
from sobolmc.estimators import (
    DEFAULT_BATCH,
    KINDS,
    _DRAW_ROWS,
    Accumulator,
    EstimatorKind,
    _batches,
    _BatchEvals,
    _Program,
    _resolve_center,
    _term_factors,
    accumulate_terms,
    run_estimator,
    run_multi_u,
)
from sobolmc.experiments import (
    BUILTIN_STUDIES,
    COMPARED_KINDS,
    ExperimentConfig,
    csv_text,
    product6_study,
)
from sobolmc.models import (
    DiscreteModel,
    GFunction,
    Model,
    ProductModel,
    builtin_model,
    discrete_anova,
)
from sobolmc.theory import enumerate_expectation


def random_discrete(seed, levels=3, dims=2):
    rng = np.random.default_rng(seed)
    return DiscreteModel(rng.random((levels,) * dims))


def every_row(model) -> dict:
    """The row bitmasks of a pass that featurizes every row of every role."""
    return {role: 2**model.dim - 1 for role in ROLES}


def constant_model(dim, value=2.0):
    return DiscreteModel(np.full((2,) * dim, value))


def filled(values) -> Accumulator:
    """An accumulator holding values, added as one batch."""
    acc = Accumulator()
    acc.add_batch(values)
    return acc


class _Shifted(Model):
    """f - c wrapper used for the shift-equivariance checks."""

    def __init__(self, inner: Model, c: float):
        super().__init__(inner.dim)
        self.inner = inner
        self.c = c
        self.feature_dtype = inner.feature_dtype

    def _feature(self, j, xj, out):
        self.inner._feature(j, xj, out)

    def _values(self, features):
        return self.inner._values(features) - self.c

    def mean(self):
        return self.inner.mean() - self.c


def u_of(ix, dim):
    return IndexSet.from_indices(ix, dim)


def replay(ev, record) -> list:
    """The arrays of the slots ``record(program)`` returns, replayed on batch ev."""
    program = _Program(ev.model.dim)
    slots = [program.keep(slot) for slot in record(program)]
    values = ev.run(program)
    return [values[slot] for slot in slots]


def term_of(program, kind, u, center):
    """The slot of one kind's per-sample term for set u."""
    return program.multiply(*_term_factors(program, kind, u, center))


def batch_terms(ev, kind, u, center):
    """The sampler's per-sample terms of one kind on batch ev."""
    return replay(ev, lambda program: [term_of(program, kind, u, center)])[0]


def terms(model, kind, u, center=None, **arrays):
    """The sampler's per-sample terms of one kind over explicit input arrays."""
    return batch_terms(_BatchEvals(model, arrays.items()), kind, u, center)


class TestTermExamples:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.d = 3
        self.x, self.y, self.z, self.w = (rng.random((50, self.d)) for _ in range(4))

    def test_constant_function_gives_zero_terms(self):
        m = constant_model(self.d)
        u = u_of([1], self.d)
        xyz = dict(x=self.x, y=self.y, z=self.z)
        assert np.all(terms(m, EstimatorKind("correlation1"), u, **xyz) == 0.0)
        assert np.all(terms(m, EstimatorKind("correlation2"), u, **xyz) == 0.0)
        assert np.all(terms(m, EstimatorKind("oracle1"), u, 2.0, **xyz) == 0.0)
        assert np.all(terms(m, EstimatorKind("oracle2"), u, 2.0, **xyz) == 0.0)
        assert np.all(terms(m, EstimatorKind("upper"), u, **xyz) == 0.0)

    def test_terms_keep_the_bits_of_the_literal_expressions(self):
        # every kind's sampled term is its module-docstring expression,
        # operation for operation, so splitting it into factors moves no bit;
        # the kinds share one program, as in the shared pass, so a product
        # written into a shared value or factor would break the kinds read after it
        model = builtin_model("g")
        u, v, v2 = u_of([1], 3), u_of([2], 3), u_of([2, 3], 3)
        x, y, z, w = self.x, self.y, self.z, self.w
        f, c = model.evaluate, 26.5
        fx, fy, fu = f(x), f(y), f(blend(x, y, u))
        diff = fx - f(blend(y, x, u))
        literal = {
            EstimatorKind("original"): fx * fu,
            EstimatorKind("correlation1"): fx * (fu - fy),
            EstimatorKind("correlation2"): (fx - f(blend(z, x, u))) * (fu - fy),
            EstimatorKind("oracle1", center=c): (fx - c) * (fu - fy),
            EstimatorKind("oracle2", center=c): (fx - c) * (fu - c),
            EstimatorKind("generalized", v=v, v2=v2): (fx - f(blend(x, z, v)))
            * (fu - f(blend(y, w, v2))),
            EstimatorKind("upper"): 0.5 * diff * diff,
        }
        assert {kind.tag for kind in literal} == set(KINDS)
        ev = _BatchEvals(model, dict(x=x, y=y, z=z, w=w).items())
        got = replay(ev, lambda program: [term_of(program, kind, u, kind.center) for kind in literal])
        for (kind, want), term in zip(literal.items(), got):
            assert np.array_equal(term, want), kind.tag

    def test_correlation1_symbolic_linear_case(self):
        # f(x) = x_1 on d=2: the term is x_1 (x_1 - y_1)
        f = ProductModel([0.5, 1.0], [math.sqrt(1.0 / 12.0), 0.0], "uniform")
        x, y = self.x[:, :2], self.y[:, :2]
        got = terms(f, EstimatorKind("correlation1"), u_of([1], 2), x=x, y=y)
        assert np.allclose(got, x[:, 0] * (x[:, 0] - y[:, 0]), atol=1e-12)

    def test_u_independent_function_vanishes_per_sample(self):
        # no dependence on u coordinates: both centered factors are exact zeros
        f = ProductModel([1.0, 1.0, 1.0], [1.0, 1.0, 0.0], "uniform")
        u = u_of([3], 3)
        xyz = dict(x=self.x, y=self.y, z=self.z)
        assert np.all(terms(f, EstimatorKind("correlation2"), u, **xyz) == 0.0)
        assert np.all(terms(f, EstimatorKind("upper"), u, **xyz) == 0.0)

    def test_oracle2_at_zero_center_is_plain_cross_moment(self):
        m = random_discrete(1)
        u = u_of([1], 2)
        x, y = self.x[:, :2], self.y[:, :2]
        got = terms(m, EstimatorKind("oracle2", center=0.0), u, 0.0, x=x, y=y)
        want = m.evaluate(x) * m.evaluate(blend(x, y, u))
        assert np.array_equal(got, want)
        # and its enumerated mean is mu^2 + lower_u
        rep = discrete_anova(m)
        e = enumerate_expectation(m, EstimatorKind("oracle2", center=0.0), u)
        assert e == pytest.approx(rep.mu**2 + rep.lower_u[u], rel=1e-12)

    def test_generalized_collapses_to_correlation2(self):
        m = builtin_model("g")
        u = u_of([1], 3)
        comp = u.complement()
        # take the u part of w from y: then the right centering point is y itself
        w = blend(self.y, self.w, u)
        gen = EstimatorKind("generalized", v=comp, v2=comp)
        got = terms(m.clone(), gen, u, x=self.x, y=self.y, z=self.z, w=w)
        want = terms(m.clone(), EstimatorKind("correlation2"), u, x=self.x, y=self.y, z=self.z)
        assert np.array_equal(got, want)

    def test_generalized_with_empty_sets(self):
        m = builtin_model("g")
        u = u_of([2], 3)
        empty = IndexSet.empty(3)
        got = terms(
            m.clone(), EstimatorKind("generalized", v=empty, v2=empty), u,
            x=self.x, y=self.y, z=self.z, w=self.w,
        )
        mm = m.clone()
        want = (mm.evaluate(self.x) - mm.evaluate(self.z)) * (
            mm.evaluate(blend(self.x, self.y, u)) - mm.evaluate(self.w)
        )
        assert np.array_equal(got, want)

    def test_generalized_rejects_overlap(self):
        u = u_of([1], 3)
        with pytest.raises(ValueError, match="disjoint"):
            terms(
                builtin_model("g"), EstimatorKind("generalized", v=u, v2=u.complement()), u,
                x=self.x, y=self.y, z=self.z, w=self.w,
            )

    def test_upper_is_nonnegative(self):
        m = random_discrete(4, dims=3)
        assert np.all(terms(m, EstimatorKind("upper"), u_of([2], 3), x=self.x, y=self.y) >= 0.0)


class TestEnumeratedExpectations:
    """Exact unbiasedness on random tabulated models (the oracle route)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dims", [2, 3])
    def test_all_kinds_unbiased(self, seed, dims):
        model = random_discrete(seed, dims=dims)
        rep = discrete_anova(model)
        mu = model.mean()
        for u in IndexSet.full(dims).subsets():
            if len(u) == 0:
                continue
            for kind, want in [
                (EstimatorKind("correlation1"), rep.lower_u[u]),
                (EstimatorKind("correlation2"), rep.lower_u[u]),
                (EstimatorKind("oracle1", center=mu), rep.lower_u[u]),
                (EstimatorKind("oracle2", center=mu), rep.lower_u[u]),
                (EstimatorKind("upper"), rep.upper_u[u]),
                (EstimatorKind("generalized"), rep.lower_u[u]),
            ]:
                got = enumerate_expectation(model, kind, u)
                assert got == pytest.approx(want, rel=1e-10), (kind.tag, str(u))

    def test_original_cross_moment(self):
        model = random_discrete(5)
        rep = discrete_anova(model)
        u = u_of([2], 2)
        got = enumerate_expectation(model, EstimatorKind("original"), u)
        assert got == pytest.approx(rep.mu**2 + rep.lower_u[u], rel=1e-10)


class TestShiftEquivariance:
    def test_correlation2_and_generalized_term_by_term(self):
        m = builtin_model("g")
        shifted = _Shifted(builtin_model("g"), 26.0)
        rng = np.random.default_rng(8)
        x, y, z, w = (rng.random((200, 3)) for _ in range(4))
        u = u_of([1], 3)
        corr2 = EstimatorKind("correlation2")
        a = terms(m.clone(), corr2, u, x=x, y=y, z=z)
        b = terms(shifted, corr2, u, x=x, y=y, z=z)
        assert np.allclose(a, b, atol=1e-9)
        gen = EstimatorKind("generalized")
        a = terms(m.clone(), gen, u, x=x, y=y, z=z, w=w)
        b = terms(_Shifted(builtin_model("g"), 26.0), gen, u, x=x, y=y, z=z, w=w)
        assert np.allclose(a, b, atol=1e-9)

    def test_correlation1_in_expectation_only(self):
        model = random_discrete(6)
        shifted = DiscreteModel(model.table - 0.7)
        u = u_of([1], 2)
        e0 = enumerate_expectation(model, EstimatorKind("correlation1"), u)
        e1 = enumerate_expectation(shifted, EstimatorKind("correlation1"), u)
        assert e0 == pytest.approx(e1, rel=1e-10, abs=1e-14)
        # but not per-sample: the single-sample terms differ
        rng = np.random.default_rng(1)
        x, y = rng.random((10, 2)), rng.random((10, 2))
        t0 = terms(model, EstimatorKind("correlation1"), u, x=x, y=y)
        t1 = terms(shifted, EstimatorKind("correlation1"), u, x=x, y=y)
        assert not np.allclose(t0, t1)


class TestAccumulator:
    def test_matches_numpy(self):
        values = np.random.default_rng(0).normal(3.0, 2.0, 1000)
        acc = filled(values)
        assert acc.mean == pytest.approx(values.mean(), rel=1e-12)
        assert acc.variance() == pytest.approx(values.var(ddof=1), rel=1e-12)

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60),
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60),
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60),
    )
    @settings(max_examples=60)
    def test_merge_matches_concatenation(self, a, b, c):
        merged = filled(a)
        merged.merge(filled(b))
        merged.merge(filled(c))
        flat = filled(np.concatenate([a, b, c]))
        assert merged.n == flat.n
        assert merged.mean == pytest.approx(flat.mean, rel=1e-9, abs=1e-9)
        assert merged.m2 == pytest.approx(flat.m2, rel=1e-9, abs=1e-6)

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60),
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60),
    )
    @settings(max_examples=60)
    def test_merge_commutes(self, a, b):
        ab = filled(a)
        ab.merge(filled(b))
        ba = filled(b)
        ba.merge(filled(a))
        assert ab.mean == pytest.approx(ba.mean, rel=1e-9, abs=1e-9)
        assert ab.m2 == pytest.approx(ba.m2, rel=1e-9, abs=1e-6)

    @pytest.mark.parametrize("size", [1, 2, 1001, 32768])
    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-300])
    @pytest.mark.parametrize("shape", ["uniform", "normal", "mixed-sign"])
    def test_squared_deviations_match_numpy_bit_for_bit(self, size, scale, shape):
        gen = np.random.default_rng(size)
        values = {
            "uniform": gen.random(size),
            "normal": gen.normal(3.0, 2.0, size),
            "mixed-sign": gen.uniform(-1.0, 1.0, size) * 10.0 ** gen.integers(-3, 2, size),
        }[shape] * scale
        want = float(np.sum((values - float(values.mean())) ** 2))
        assert math.isfinite(want)
        assert np.float64(filled(values).m2).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 127, 128, 129, 1696, 7232, 8192, 32768])
    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    def test_a_batch_folds_the_bits_of_mean_and_sum(self, size, strided):
        # np.add.reduce and sum / k give the bits values.mean() and np.sum give
        gen = np.random.default_rng(size)
        flat = gen.normal(3.0, 2.0, 3 * size) * 10.0 ** gen.integers(-3, 3, 3 * size)
        values = flat[::3] if strided else flat[:size]
        mean = float(values.mean())
        dev = values - mean
        want = Accumulator()
        want._combine(size, mean, float(np.sum(dev * dev)))
        got = Accumulator()
        got._add(values, None)
        assert np.array([got.n, got.mean, got.m2]).tobytes() == np.array(
            [want.n, want.mean, want.m2]
        ).tobytes()

    def test_empty_merge(self):
        acc = filled([1.0, 2.0])
        acc.merge(Accumulator())
        assert acc.n == 2
        with pytest.raises(ValueError):
            filled([1.0]).variance()


class TestRunEstimator:
    @pytest.mark.parametrize(
        "kind",
        [
            EstimatorKind("original"),
            EstimatorKind("correlation1"),
            EstimatorKind("correlation2"),
            EstimatorKind("oracle1"),
            EstimatorKind("oracle2"),
            EstimatorKind("generalized"),
            EstimatorKind("upper"),
        ],
    )
    def test_cost_accounting(self, kind):
        # every singleton and pair of three model families costs n * cost exactly
        n = 40
        for model in (builtin_model("g"), builtin_model("product6"), random_discrete(4, 2, 3)):
            d = model.dim
            sets = [u_of([i], d) for i in range(1, d + 1)]
            sets += [u_of([i, j], d) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
            for u in sets:
                report = run_estimator(model, kind, u, n, RngSpec(0))
                assert report.evals == n * KINDS[kind.tag].cost, (type(model).__name__, u)

    def test_multi_u_shares_plain_evaluations(self):
        model = builtin_model("g")
        us = [u_of(ix, 3) for ix in ([1], [2], [3], [1, 2], [1, 3], [2, 3])]
        n = 500
        reports = run_multi_u(model, EstimatorKind("correlation1"), us, n, RngSpec(0))
        # 2 shared plain values + 6 distinct blends, under 6 * 3
        assert reports[0].evals == n * (2 + 6) < n * 6 * 3
        reports = run_multi_u(model.clone(), EstimatorKind("oracle2"), us, n, RngSpec(0))
        assert reports[0].evals == n * (1 + 6)
        reports = run_multi_u(model.clone(), EstimatorKind("correlation2"), us, n, RngSpec(0))
        assert reports[0].evals == n * (2 + 2 * 6)

    def test_multi_u_degenerate_matches_single(self):
        model = builtin_model("product6")
        u = u_of([5], 6)
        single = run_estimator(model.clone(), EstimatorKind("correlation2"), u, 4000, RngSpec(3))
        multi = run_multi_u(model.clone(), EstimatorKind("correlation2"), [u], 4000, RngSpec(3))
        assert multi[0] == single

    def test_constant_in_u_gives_exact_zero(self):
        f = ProductModel([1.0, 1.0, 1.0], [1.0, 1.0, 0.0], "uniform")
        report = run_estimator(f, EstimatorKind("correlation2"), u_of([3], 3), 2000, RngSpec(1))
        assert report.estimate == 0.0
        assert report.term_variance == 0.0

    def test_two_disjoint_u_both_zero_under_correlation2(self):
        f = ProductModel([1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 1.0], "uniform")
        reports = run_multi_u(
            f, EstimatorKind("correlation2"), [u_of([2], 4), u_of([3], 4)], 1000, RngSpec(0)
        )
        assert all(r.estimate == 0.0 for r in reports)

    def test_deterministic_given_seed(self):
        model = builtin_model("g")
        a = run_estimator(model.clone(), EstimatorKind("correlation2"), u_of([1], 3), 20_000, RngSpec(9))
        b = run_estimator(model.clone(), EstimatorKind("correlation2"), u_of([1], 3), 20_000, RngSpec(9))
        assert a == b
        c = run_estimator(model.clone(), EstimatorKind("correlation2"), u_of([1], 3), 20_000, RngSpec(9, replicate=1))
        assert c.estimate != a.estimate

    def test_matches_manual_terms(self):
        model = builtin_model("g")
        u = u_of([1], 3)
        n = 5000
        report = run_estimator(model.clone(), EstimatorKind("correlation2"), u, n, RngSpec(4))
        sampler = BlockSampler(RngSpec(4), 3)
        x = sampler.draw_role("x", n)
        y = sampler.draw_role("y", n)
        z = sampler.draw_role("z", n)
        f = model.clone()
        # the correlation2 term written out, independent of the sampler's code
        manual = (f.evaluate(x) - f.evaluate(blend(z, x, u))) * (
            f.evaluate(blend(x, y, u)) - f.evaluate(y)
        )
        acc = filled(manual)
        assert report.estimate == acc.mean
        assert report.term_variance == acc.variance()
        assert report.std_error == math.sqrt(acc.variance() / n)

    def test_oracle_center_defaults_to_model_mean(self):
        model = builtin_model("g")
        u = u_of([1], 3)
        by_default = run_estimator(model.clone(), EstimatorKind("oracle1"), u, 2000, RngSpec(2))
        pinned = run_estimator(model.clone(), EstimatorKind("oracle1", center=27.0), u, 2000, RngSpec(2))
        assert by_default.estimate == pinned.estimate
        imperfect = run_estimator(model.clone(), EstimatorKind("oracle1", center=26.8), u, 2000, RngSpec(2))
        assert imperfect.estimate != pinned.estimate

    def test_statistical_recovery_of_g_sigma1(self):
        # grand mean over replicates within 4 replicate standard errors of 0.0675
        model = builtin_model("g")
        u = u_of([1], 3)
        estimates = [
            run_estimator(model, EstimatorKind("correlation1"), u, 2**16, RngSpec(17, rep)).estimate
            for rep in range(30)
        ]
        grand = float(np.mean(estimates))
        se = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
        assert abs(grand - 0.0675) < 4 * se

    def test_statistical_recovery_of_product6_tau5(self):
        model = builtin_model("product6")
        u = u_of([5], 6)
        estimates = [
            run_estimator(model, EstimatorKind("oracle2", center=1.0), u, 2**16, RngSpec(23, rep)).estimate
            for rep in range(30)
        ]
        grand = float(np.mean(estimates))
        se = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
        assert abs(grand - 0.0625) < 4 * se

    def test_validation_errors(self):
        model = builtin_model("g")
        with pytest.raises(ValueError):
            run_estimator(model, EstimatorKind("correlation1"), u_of([1], 3), 0, RngSpec(0))
        with pytest.raises(ValueError):
            run_estimator(model, EstimatorKind("correlation1"), u_of([1], 2), 10, RngSpec(0))
        with pytest.raises(ValueError, match="disjoint"):
            run_estimator(
                model,
                EstimatorKind("generalized", v=u_of([1], 3)),
                u_of([1], 3),
                10,
                RngSpec(0),
            )
        # both runners share one streaming loop, which rejects an empty batch
        for kind in (EstimatorKind("correlation1"), EstimatorKind("original")):
            with pytest.raises(ValueError, match="batch_size"):
                run_estimator(model, kind, u_of([1], 3), 10, RngSpec(0), batch_size=-1)


class TestRepeatedSets:
    def test_every_runner_refuses_a_repeated_set(self):
        # one accumulator per set would take every batch twice
        model = builtin_model("g")
        u, w = u_of([1], 3), u_of([2], 3)
        with pytest.raises(ValueError, match=r"target set \{1\} is repeated"):
            accumulate_terms(model, [EstimatorKind("correlation1")], [u, w, u], 5, RngSpec(0))
        with pytest.raises(ValueError, match=r"target set \{1\} is repeated"):
            run_multi_u(model, EstimatorKind("original"), [u, u], 5, RngSpec(0))


class TestEstimatorKindValidation:
    def test_center_only_for_oracles(self):
        with pytest.raises(ValueError):
            EstimatorKind("correlation1", center=1.0)
        with pytest.raises(ValueError):
            EstimatorKind("oracle1", center=math.nan)

    def test_v_only_for_generalized(self):
        with pytest.raises(ValueError):
            EstimatorKind("upper", v=IndexSet.empty(2))
        with pytest.raises(ValueError):
            EstimatorKind("no-such-kind")

    @pytest.mark.parametrize("tag", sorted(KINDS))
    def test_each_kind_takes_only_its_parameters(self, tag):
        takes = {"oracle1": {"center"}, "oracle2": {"center"}, "generalized": {"v", "v2"}}
        for name, value in (("center", 1.0), ("v", IndexSet.empty(2)), ("v2", IndexSet.empty(2))):
            if name in takes.get(tag, ()):
                assert getattr(EstimatorKind(tag, **{name: value}), name) == value
            else:
                with pytest.raises(ValueError, match=f"{tag} takes no {name}$"):
                    EstimatorKind(tag, **{name: value})


class TestOriginal:
    def test_constant_function(self):
        m = constant_model(2, 3.0)
        rep = run_estimator(m, EstimatorKind("original"), u_of([1], 2), 100, RngSpec(0))
        assert rep.estimate == pytest.approx(0.0, abs=1e-12)
        assert rep.biased
        assert rep.term_variance is None and rep.std_error is None
        assert rep.evals == 200

    def test_recovers_uniform_variance(self):
        # f(x) = x_1 on d=1 with u = {1}: the blend equals x, so the
        # estimator is the plain variance estimate of U[0,1]; 4 SE of the
        # sample variance is 4*sqrt((mu4 - sigma^4)/n) ~ 3e-4 at n = 1e6
        f = ProductModel([0.5], [math.sqrt(1.0 / 12.0)], "uniform")
        rep = run_estimator(f, EstimatorKind("original"), u_of([1], 1), 1_000_000, RngSpec(12))
        assert abs(rep.estimate - 1.0 / 12.0) < 3e-4

    def test_needs_two_samples(self):
        m = constant_model(2)
        with pytest.raises(ValueError, match="n >= 2"):
            run_estimator(m, EstimatorKind("original"), u_of([1], 2), 1, RngSpec(0))

    def test_run_estimator_matches_direct_call(self):
        model = builtin_model("g")
        u = u_of([2], 3)
        n = 3000
        rep = run_estimator(model.clone(), EstimatorKind("original"), u, n, RngSpec(5))
        sampler = BlockSampler(RngSpec(5), 3)
        xs, ys = sampler.draw_role("x", n), sampler.draw_role("y", n)
        # the cross moment minus the pooled mean squared, written out
        f = model.clone()
        fx, fb = f.evaluate(xs), f.evaluate(blend(xs, ys, u))
        mu_hat = (float(fx.sum()) + float(fb.sum())) / (2.0 * n)
        want = float(np.mean(fx * fb)) - mu_hat**2
        assert rep.estimate == pytest.approx(want, rel=1e-12)
        assert rep.evals == 2 * n


@st.composite
def sampled_models(draw):
    """A random product (uniform or tent), g-function or discrete model, d = 1..4."""
    d = draw(st.integers(1, 4))
    family = draw(st.sampled_from(["product", "g", "discrete"]))
    if family == "product":
        mu = draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d))
        tau = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 1.5]), min_size=d, max_size=d))
        return ProductModel(mu, tau, draw(st.sampled_from(["uniform", "tent"])))
    if family == "g":
        return GFunction(draw(st.lists(st.floats(0.0, 20.0), min_size=d, max_size=d)))
    levels = draw(st.integers(2, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return DiscreteModel(np.random.default_rng(seed).normal(size=(levels,) * d))


class TestSharedPass:
    @pytest.mark.parametrize("name, per_sample", [("product6", 20), ("g", 14)])
    def test_study_kinds_cost_the_shared_design(self, name, per_sample):
        # f(x), f(y), f(x_u#y_-u) and f(z_u#x_-u) once each: 2 + 2 * |sets|;
        # original reads f(x) and f(x_u#y_-u) from the same values
        for tags in (COMPARED_KINDS, COMPARED_KINDS + ("original",)):
            model = builtin_model(name)
            us = [u_of(ix, model.dim) for ix in BUILTIN_STUDIES[name]]
            kinds = [EstimatorKind(tag) for tag in tags]
            n = 1000
            _, evals = accumulate_terms(model, kinds, us, n, RngSpec(5), batch_size=300)
            assert evals == per_sample * n == model.counter.count, tags

    #: blend signatures of each kind over d = 4 with u = {1} and its complement
    #: w = {2,3,4}: a plain role, or (left role, right role, set)
    COMPLEMENT_SIGNATURES = {
        "original": {"x", ("x", "y", "u"), ("x", "y", "w")},
        "correlation1": {"x", "y", ("x", "y", "u"), ("x", "y", "w")},
        "correlation2": {"x", "y", ("x", "y", "u"), ("z", "x", "u"), ("x", "y", "w"), ("z", "x", "w")},
        "oracle1": {"x", "y", ("x", "y", "u"), ("x", "y", "w")},
        "oracle2": {"x", ("x", "y", "u"), ("x", "y", "w")},
        # v = v2 = complement of the set: x_w#z_u and y_w#w_u for u, x_u#z_w and y_u#w_w for w
        "generalized": {
            "x", ("x", "y", "u"), ("x", "z", "w"), ("y", "w", "w"),
            ("x", "y", "w"), ("x", "z", "u"), ("y", "w", "u"),
        },
        "upper": {"x", ("y", "x", "u"), ("y", "x", "w")},
    }

    @pytest.mark.parametrize("order", ["u first", "complement first"])
    def test_a_set_and_its_complement_evaluate_each_signature_once(self, order):
        d, n = 4, 1000
        u, w = u_of([1], d), u_of([2, 3, 4], d)
        us = [u, w] if order == "u first" else [w, u]
        model = GFunction([0.0, 1.0, 4.0, 9.0])
        for tag, signatures in self.COMPLEMENT_SIGNATURES.items():
            _, evals = accumulate_terms(model.clone(), [EstimatorKind(tag)], us, n, RngSpec(2), 300)
            assert evals == n * len(signatures), tag
        every = [EstimatorKind(tag) for tag in KINDS]
        _, evals = accumulate_terms(model.clone(), every, us, n, RngSpec(2), 256)
        assert evals == n * len(set().union(*self.COMPLEMENT_SIGNATURES.values()))

    @pytest.mark.parametrize("sets", [[[1], [2]], [[2], [1]], [[1], [2], [1, 2]], [[1, 2], [1], [2]]])
    def test_explicit_blending_sets_are_shared_by_every_set(self, sets):
        # v = {3,4} and v2 = {3} miss every target set, so x_v#z_-v and
        # y_v2#w_-v2 are evaluated once per sample, not once per set, even
        # where v is the complement of a set already done
        d, n = 4, 1000
        us = [u_of(ix, d) for ix in sets]
        kind = EstimatorKind("generalized", v=u_of([3, 4], d), v2=u_of([3], d))
        _, evals = accumulate_terms(GFunction([0.0, 1.0, 4.0, 9.0]), [kind], us, n, RngSpec(2), 300)
        # f(x), f(x_{3,4}#z), f(y_3#w) and one f(x_u#y_-u) per set
        assert evals == n * (3 + len(us))

    @pytest.mark.parametrize("name", ["product6", "g"])
    def test_a_batch_holds_the_blends_of_one_set_at_a_time(self, name):
        # one full batch of the compared kinds over the study sets; the peak
        # is 3 roles' d feature rows plus f(x), f(y), one set's blends and
        # the term temporaries, not 2 blends for every set
        model = builtin_model(name)
        us = [u_of(ix, model.dim) for ix in BUILTIN_STUDIES[name]]
        kinds = [EstimatorKind(tag) for tag in COMPARED_KINDS]
        accumulate_terms(model, kinds, us, DEFAULT_BATCH, RngSpec(1))  # warm-up
        estimators._SPARE.clear()  # so the traced pass builds its own workspace
        tracemalloc.start()
        try:
            accumulate_terms(model, kinds, us, DEFAULT_BATCH, RngSpec(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = peak / (DEFAULT_BATCH * 8)
        assert rows < 3 * model.dim + 10, rows

    @pytest.mark.parametrize("tag", ["correlation2", "generalized"])
    def test_a_pass_holds_one_batch_at_a_time(self, tag):
        # three batches of one set: the roles' feature rows are refilled in
        # place and the last batch's values dropped before the next draw, so
        # the peak is one batch's d rows per role plus its values and term
        # temporaries, not the rows and values of two batches
        model = builtin_model("product6")
        kind = EstimatorKind(tag)
        u = u_of([1], model.dim)
        run_estimator(model, kind, u, 3 * DEFAULT_BATCH, RngSpec(1))  # warm-up
        estimators._SPARE.clear()  # so the traced pass builds its own workspace
        tracemalloc.start()
        try:
            run_estimator(model, kind, u, 3 * DEFAULT_BATCH, RngSpec(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = peak / (DEFAULT_BATCH * 8)
        assert rows <= len(KINDS[tag].roles) * model.dim + 10, rows

    @pytest.mark.parametrize(
        "batch_size, n",
        [  # two full batches and a short one, then single-batch passes
            pytest.param(1000, 2007, id="1000"),
            pytest.param(_DRAW_ROWS + 5, 2 * _DRAW_ROWS + 17, id=str(_DRAW_ROWS + 5)),
            pytest.param(DEFAULT_BATCH, 2 * DEFAULT_BATCH + 7, id=str(DEFAULT_BATCH)),
            pytest.param(1000, 1, id="1000-n1"),
            pytest.param(1000, 1000, id="1000-n1000"),
            pytest.param(DEFAULT_BATCH, _DRAW_ROWS + 1, id=f"{DEFAULT_BATCH}-n{_DRAW_ROWS + 1}"),
        ],
    )
    @pytest.mark.parametrize("family", ["uniform", "tent", "g", "discrete", "product6"])
    def test_refilled_batches_equal_fresh_ones(self, family, batch_size, n):
        # the pass fills one set of feature rows, drawing each role chunk by
        # chunk, first batch included; a fresh sampler and a fresh _BatchEvals
        # per batch must give the same rows and the same accumulators, single
        # and short last batches included
        model = {
            "uniform": ProductModel([1.5], [0.5], "uniform"),
            "tent": ProductModel([1.5], [0.5], "tent"),
            "g": GFunction([2.0]),
            "discrete": random_discrete(4, levels=5, dims=1),
            "product6": builtin_model("product6"),
        }[family]
        rng = RngSpec(8, 1)
        us = [IndexSet.empty(model.dim), IndexSet.full(model.dim)]
        fresh = BlockSampler(rng, model.dim)
        sizes = []
        for ev in _batches(model, ROLES, us, n, rng, batch_size, every_row(model)):
            b = ev.features["x"].shape[-1]
            want = _BatchEvals(model, [(role, fresh.draw_role(role, b)) for role in ROLES])
            for role in ROLES:
                got, ref = ev.features[role], want.features[role]
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), role
            sizes.append(b)
        assert sizes == [min(batch_size, n - done) for done in range(0, n, batch_size)]

        kinds = [EstimatorKind(tag) for tag in KINDS]
        accs, _ = accumulate_terms(model, kinds, us, n, rng, batch_size)
        want = {(kind, u): Accumulator() for kind in kinds for u in us}
        fx, fb = Accumulator(), {u: Accumulator() for u in us}
        fresh = BlockSampler(rng, model.dim)
        for b in sizes:
            ev = _BatchEvals(model, [(role, fresh.draw_role(role, b)) for role in ROLES])
            fx.add_batch(replay(ev, lambda program: [program.plain("x")])[0])
            for u in us:
                fb[u].add_batch(replay(ev, lambda program: [program.blended("x", "y", u)])[0])
                for kind in kinds:
                    want[kind, u].add_batch(batch_terms(ev, kind, u, _resolve_center(kind, model.mean)))
        for (kind, u), ref in want.items():
            got = accs[kind][u]
            # original keeps its cross term and the means of f(x) and f(x_u#y_-u)
            pairs = zip(got, (ref, fx, fb[u])) if kind.tag == "original" else [(got, ref)]
            for a, r in pairs:
                assert (a.n, a.mean, a.m2) == (r.n, r.mean, r.m2), (kind.tag, str(u))

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_shared_pass_equals_one_run_per_kind(self, data):
        model = data.draw(sampled_models())
        d = model.dim
        n = data.draw(st.integers(1, 17))
        non_divisor = n - 1 if n >= 3 else n + 1
        batch_size = data.draw(st.sampled_from([1, 5, n, non_divisor]))
        bits = data.draw(st.lists(st.integers(0, 2**d - 1), min_size=1, max_size=3))
        us = [IndexSet(b, d) for b in sorted({0, 2**d - 1, *bits})]  # empty and full too
        center = data.draw(st.one_of(st.none(), st.floats(-3.0, 3.0)))
        kinds = [
            EstimatorKind(tag, center if "center" in info.params else None)
            for tag, info in KINDS.items()
        ]
        rng = RngSpec(data.draw(st.integers(0, 2**16)), data.draw(st.integers(0, 3)))

        shared, _ = accumulate_terms(model.clone(), kinds, us, n, rng, batch_size)
        for kind in kinds:
            single, _ = accumulate_terms(model.clone(), [kind], us, n, rng, batch_size)
            for u in us:
                a, b = shared[kind][u], single[kind][u]
                # original keeps its cross term and the means of f(x) and f(x_u#y_-u)
                pairs = zip(a, b) if kind.tag == "original" else [(a, b)]
                for x, y in pairs:
                    assert (x.n, x.mean, x.m2) == (y.n, y.mean, y.m2), (kind.tag, u)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.data())
    def test_sampled_means_match_the_exact_oracle(self, data):
        # every kind's term mean from one shared pass lies within 5 SE of the
        # enumerated expectation; original's cross moment is mu^2 + lower_u
        d = data.draw(st.integers(1, 3))
        levels = data.draw(st.integers(2, 3))
        table = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=(levels,) * d)
        model = DiscreteModel(table)
        bits = data.draw(st.lists(st.integers(0, 2**d - 1), min_size=1, max_size=3, unique=True))
        us = [IndexSet(b, d) for b in bits]
        kinds = [EstimatorKind(tag) for tag in KINDS]
        n = 4000
        accs, _ = accumulate_terms(model, kinds, us, n, RngSpec(data.draw(st.integers(0, 2**16))))
        anova = discrete_anova(model)
        for kind in kinds:
            for u in us:
                if kind.tag == "original":
                    acc, exact = accs[kind][u].cross, anova.mu**2 + anova.lower_u[u]
                else:
                    acc, exact = accs[kind][u], enumerate_expectation(model, kind, u)
                se = math.sqrt(acc.variance() / n)
                assert abs(acc.mean - exact) <= 5 * se + 1e-9 * max(1.0, abs(exact)), (kind.tag, u)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(st.data())
    def test_study_runner_matches_the_exact_oracle(self, data):
        # the replicate runner on 1 and 2 workers: the same CSV bytes, and
        # every pooled term mean within 5 SE of the enumerated expectation
        d = data.draw(st.integers(1, 3))
        levels = data.draw(st.integers(2, 3))
        table = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=(levels,) * d)
        model = DiscreteModel(table)
        bits = data.draw(st.lists(st.integers(1, 2**d - 1), min_size=1, max_size=3, unique=True))
        us = tuple(IndexSet(b, d) for b in bits)
        n, replicates, seed = 3000, 3, data.draw(st.integers(0, 2**16))
        kinds = COMPARED_KINDS + ("original",)
        anova = discrete_anova(model)
        exact = {
            (tag, u): anova.mu**2 + anova.lower_u[u] if tag == "original"
            else enumerate_expectation(model, EstimatorKind(tag), u)
            for tag in kinds for u in us
        }
        real_pass = experiments._replicate_pass
        csvs = []
        for workers in (1, 2):
            per_rep = {}

            def spy(model, config, rep):
                per_rep[rep] = real_pass(model, config, rep)
                return per_rep[rep]

            config = ExperimentConfig(model, us, n, replicates, seed, kinds=kinds, workers=workers)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(experiments, "_replicate_pass", spy)
                csvs.append(csv_text(experiments.run_efficiency_experiment(config)))
            for (tag, u), want in exact.items():
                accs = [per_rep[rep][tag][u] for rep in range(replicates)]
                # original's per-replicate entry keeps its cross moment in .cross
                pooled = experiments._pool([a.cross if tag == "original" else a for a in accs])
                se = math.sqrt(pooled.variance() / pooled.n)
                assert abs(pooled.mean - want) <= 5 * se + 1e-9 * max(1.0, abs(want)), (workers, tag, u)
        assert csvs[0] == csvs[1]

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_batch_values_are_pointwise_evaluations(self, data):
        model = data.draw(sampled_models())
        d = model.dim
        size = data.draw(st.integers(1, 17))
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        points = {role: gen.random((size, d)) for role in ROLES}
        ev = _BatchEvals(model, points.items())
        reference = model.clone()
        requests = data.draw(
            st.lists(
                st.tuples(st.sampled_from(ROLES), st.sampled_from(ROLES), st.integers(0, 2**d - 1)),
                min_size=1,
                max_size=12,
            )
        )
        before = model.counter.count
        got = replay(ev, lambda program: [
            program.blended(a, b, IndexSet(bits, d)) for a, b, bits in requests
        ])
        seen = set()
        for (role_a, role_b, b), value in zip(requests, got):
            want = reference.evaluate(blend(points[role_a], points[role_b], IndexSet(b, d)))
            assert value.dtype == want.dtype and value.tobytes() == want.tobytes()
            # a full blend is the plain left point, an empty one the plain right point
            seen.add((role_a,) if b == 2**d - 1 else (role_b,) if b == 0 else (role_a, role_b, b))
        assert model.counter.count - before == size * len(seen)  # each signature evaluated once

    @pytest.mark.parametrize("d", range(1, 33))
    def test_row_products_match_numpy_prod(self, d):
        # independent of _values: numpy's product along the point axis, on
        # point-major copies in both memory orders, bit for bit
        gen = np.random.default_rng(d)
        rows = gen.uniform(-3.0, 3.0, size=(d, 257))
        for model in (ProductModel(np.ones(d), np.ones(d)), GFunction(np.zeros(d))):
            for want in (np.prod(rows.T, axis=-1), np.prod(np.ascontiguousarray(rows.T), axis=-1)):
                assert model._values(rows).tobytes() == want.tobytes()
                assert model._values(list(rows)).tobytes() == want.tobytes()
                out = np.full(257, np.nan)
                assert model._values(rows, out=out) is out and out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", range(1, 5))
    @pytest.mark.parametrize("levels", range(2, 5))
    def test_horner_index_matches_ravel_multi_index(self, d, levels):
        # a table holding its own flat index returns the Horner index itself;
        # the index is formed in out's memory and np.take reads it there while
        # it writes the values, so a numpy whose take stops reading index k
        # before writing value k fails here, at any width
        model = DiscreteModel(np.arange(levels**d, dtype=np.float64).reshape((levels,) * d))
        for width in (200, 3 * DEFAULT_BATCH + 7):
            idx = np.random.default_rng(10 * d + levels).integers(0, levels, size=(d, width))
            want = np.ravel_multi_index(tuple(idx), (levels,) * d)
            assert np.array_equal(model._values(idx), want)
            assert np.array_equal(model._values(list(idx)), want)
            out = np.full(width, np.nan)
            assert model._values(idx, out=out) is out and np.array_equal(out, want)
        # the oracle's rows each span one axis of a grid they broadcast to
        axes = [np.arange(levels).reshape((levels,) + (1,) * (d - 1 - j)) for j in range(d)]
        grid = np.arange(levels**d).reshape((levels,) * d)
        assert np.array_equal(model._values(axes), grid)

    @pytest.mark.parametrize("family", ["product", "g", "discrete"])
    def test_blends_never_write_to_feature_rows(self, family):
        # a blend's rows are views of each role's cached features
        d = 4
        model = {
            "product": ProductModel([1.0, 0.5, 2.0, 1.5], [1.0, 0.3, 0.7, 0.2], "tent"),
            "g": GFunction([0.0, 1.0, 4.0, 9.0]),
            "discrete": random_discrete(3, levels=3, dims=d),
        }[family]
        gen = np.random.default_rng(7)
        ev = _BatchEvals(model, [("x", gen.random((50, d))), ("y", gen.random((50, d)))])
        before = {role: f.copy() for role, f in ev.features.items()}
        replay(ev, lambda program: [
            program.blended(a, b, IndexSet(bits, d)) for bits in range(2**d) for a, b in ("xy", "yx")
        ])
        for role, f in ev.features.items():
            assert f.tobytes() == before[role].tobytes(), role


def _aligned(a: np.ndarray) -> bool:
    return a.ctypes.data % 64 == 0


def _every_term(model, kinds, us, ev) -> list:
    """Each kind's terms set by set, replayed on batch ev, folded and kept."""
    def record(program):
        slots = []
        for u in us:
            for kind in kinds:
                slots.append(term_of(program, kind, u, _resolve_center(kind, model.mean)))
                program.fold(slots[-1], Accumulator())
        return slots

    return replay(ev, record)


def _batch_digest(model, kinds, us, ev) -> str:
    """sha256 of a batch: every role's rows, then each kind's terms set by set."""
    h = hashlib.sha256()
    for role in sorted(ev.features):
        h.update(ev.features[role].tobytes())
    for term in _every_term(model, kinds, us, ev):
        h.update(term.tobytes())
    return h.hexdigest()


def _states(accs) -> list:
    """(n, mean, m2) of every accumulator, original's three included."""
    return [
        [(a.n, a.mean, a.m2) for a in (acc if kind.tag == "original" else [acc])]
        for kind, per_set in accs.items()
        for acc in per_set.values()
    ]


class TestWorkspace:
    """One reused, 64-byte-aligned workspace per concurrent sampling pass."""

    EVERY_KIND = [EstimatorKind(tag) for tag in KINDS]

    def test_a_warmed_study_allocates_almost_nothing(self):
        # the second study reuses the first one's workspace: no batch array
        # is allocated (a fresh pass peaks at about 25.6 batch rows)
        study = dict(n=40000, replicates=2, seed=3, workers=1)
        product6_study(**study)
        tracemalloc.start()
        try:
            product6_study(**study)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = peak / (DEFAULT_BATCH * 8)
        assert rows < 1, rows

    @pytest.mark.parametrize("family", ["product6", "g", "discrete", "one-dimensional"])
    @pytest.mark.parametrize("batch_size", [777, DEFAULT_BATCH])
    def test_every_row_value_and_temporary_is_aligned(self, family, batch_size):
        # rows are padded to a 64-byte stride, so a width like 777 keeps every row aligned
        model = {
            "product6": builtin_model("product6"),
            "g": builtin_model("g"),
            "discrete": random_discrete(6, levels=3, dims=3),
            "one-dimensional": ProductModel([1.5], [0.5], "tent"),
        }[family]
        d = model.dim
        us = [IndexSet(b, d) for b in sorted({0, 1, 2**d - 2, 2**d - 1})]
        estimators._SPARE.clear()
        for _ in range(2):  # a fresh workspace, then the same one reused
            for ev in _batches(model, ROLES, us, batch_size + 5, RngSpec(2), batch_size, every_row(model)):
                assert all(_aligned(row) for role in ROLES for row in ev.features[role])
                assert all(map(_aligned, _every_term(model, self.EVERY_KIND, us, ev)))
                # every value, factor and deviation the replay formed is one of these
                assert all(map(_aligned, [*ev._ws._lent.values(), *ev._ws._spare]))

    def test_interleaved_passes_equal_sequential_ones(self):
        # two generators on one thread each hold their own workspace
        specs = [
            (builtin_model("product6"), RngSpec(3), 1000),
            (builtin_model("g"), RngSpec(4), 700),
        ]
        sets = {m.dim: [IndexSet(1, m.dim), IndexSet(2**m.dim - 2, m.dim)] for m, _, _ in specs}

        def run(model, rng, batch_size):
            return _batches(model, ROLES, sets[model.dim], 2500, rng, batch_size, every_row(model))

        estimators._SPARE.clear()  # the first sequential pass builds a fresh workspace
        want = [
            [_batch_digest(m, self.EVERY_KIND, sets[m.dim], ev) for ev in run(m, rng, bs)]
            for m, rng, bs in specs
        ]
        got = [[], []]
        gens = [run(*spec) for spec in specs]
        workspaces = set()
        while True:
            evs = [next(gen, None) for gen in gens]  # both batches drawn before either is read
            if all(ev is None for ev in evs):
                break
            for k, ev in enumerate(evs):
                if ev is not None:
                    workspaces.add(id(ev._ws))
                    model = specs[k][0]
                    got[k].append(_batch_digest(model, self.EVERY_KIND, sets[model.dim], ev))
        assert got == want
        assert len(workspaces) == 2 and len(estimators._SPARE) == 2

    def test_a_pass_closed_after_one_batch_gives_its_workspace_back(self):
        model = builtin_model("product6")
        us = [IndexSet(1, 6), IndexSet(12, 6)]
        estimators._SPARE.clear()
        fresh, _ = accumulate_terms(model.clone(), self.EVERY_KIND, us, 5000, RngSpec(6), 1000)
        estimators._SPARE.clear()
        gen = _batches(model, ROLES, us, 5000, RngSpec(6), 1000, every_row(model))
        ev = next(gen)
        replay(ev, lambda program: [  # values and a difference still lent
            program.blended("x", "y", us[0]), program.subtract(program.plain("x"), 1.0)
        ])
        ws = ev._ws
        assert len(ws._lent) == 3
        gen.close()
        assert estimators._SPARE == [ws] and not ws._lent
        again, _ = accumulate_terms(model.clone(), self.EVERY_KIND, us, 5000, RngSpec(6), 1000)
        assert estimators._SPARE == [ws]  # taken by the next pass and given back
        assert _states(again) == _states(fresh)

    def test_a_two_worker_study_equals_one_worker(self):
        # each worker's pass holds its own workspace, and no more are kept
        study = dict(n=5000, replicates=3, seed=5)
        estimators._SPARE.clear()
        one = csv_text(product6_study(workers=1, **study))
        two = csv_text(product6_study(workers=2, **study))
        assert 1 <= len(estimators._SPARE) <= 2
        again = csv_text(product6_study(workers=2, **study))
        assert one == two == again
        assert 1 <= len(estimators._SPARE) <= 2

    def test_threads_racing_for_spares_never_share_one(self):
        # more threads than cores, switching often: a workspace two passes
        # held at once would mix their batches and change a result
        model, us = builtin_model("g"), [IndexSet(1, 3), IndexSet(6, 3)]
        kinds = [EstimatorKind(tag) for tag in COMPARED_KINDS]

        def states(seed):
            return _states(accumulate_terms(model.clone(), kinds, us, 300, RngSpec(seed), 64)[0])

        want = {seed: states(seed) for seed in range(4)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(states, [seed % 4 for seed in range(40)], timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == [want[seed % 4] for seed in range(40)]
        assert len(estimators._SPARE) <= 4 + 1  # one per thread, and the serial runs' one

    def test_a_pass_wider_than_the_default_batch_leaves_no_workspace(self):
        model, kind = builtin_model("g"), EstimatorKind("correlation2")
        u = IndexSet(1, model.dim)
        estimators._SPARE.clear()
        run_estimator(model, kind, u, 1000, RngSpec(1))
        (spare,) = estimators._SPARE
        wide = DEFAULT_BATCH + 5
        run_estimator(model, kind, u, wide, RngSpec(1), batch_size=wide)
        assert estimators._SPARE == [spare] and spare.width == 1000
        estimators._SPARE.clear()
        run_estimator(model, kind, u, wide, RngSpec(1), batch_size=wide)
        assert estimators._SPARE == []

    def test_a_many_set_pass_keeps_what_a_one_set_pass_keeps(self):
        # the generalized kind's blends over complement(u) go with set u, so
        # a pass over all 63 sets of product6 leaves a workspace no larger
        # than a one-set pass does, not two blends per set
        model, kind = builtin_model("product6"), EstimatorKind("generalized")
        every = [IndexSet(bits, model.dim) for bits in range(1, 2**model.dim)]
        kept = []
        for us in (every[:1], every):
            estimators._SPARE.clear()
            run_multi_u(model, kind, us, 2000, RngSpec(1), 1000)
            (ws,) = estimators._SPARE
            kept.append((len(ws._spare), sum(a.nbytes for a in ws._arrays.values())))
        assert kept[1] == kept[0] and kept[0][0] <= 8, kept

    def test_add_batch_never_writes_into_its_argument(self):
        values = np.linspace(-1.0, 3.0, 101)
        before = values.copy()
        Accumulator().add_batch(values)
        assert values.tobytes() == before.tobytes()
        values.flags.writeable = False
        acc = Accumulator()
        acc.add_batch(values)
        assert acc.n == 101


#: every model family a pass featurizes, by name
ROW_MODELS = {
    "product6": builtin_model("product6"),
    "g": builtin_model("g"),
    "discrete": random_discrete(9, levels=4, dims=3),
}


def _target_sets(d: int) -> dict:
    """u = empty, a singleton, a pair and the full set, each with an explicit v and v2 inside -u."""
    pair = 0b11 << (d - 2)
    return {
        "empty": (0, 0b1, (1 << d) - 2),
        "singleton": (0b10, 0b1, 0b100),
        "pair": (pair, 0b1, (1 << (d - 2)) - 1),
        "full": ((1 << d) - 1, 0, 0),
    }


def _full_featurized(model, kind, u, n, rng, batch_size) -> list:
    """The (n, mean, m2) a pass must give, from every row of fresh batches."""
    center = _resolve_center(kind, model.mean)
    acc, fx, fb = Accumulator(), Accumulator(), Accumulator()
    fresh = BlockSampler(rng, model.dim)
    for done in range(0, n, batch_size):
        b = min(batch_size, n - done)
        ev = _BatchEvals(model, [(role, fresh.draw_role(role, b)) for role in ROLES])
        term, fx_values, fb_values = replay(ev, lambda program: [
            term_of(program, kind, u, center), program.plain("x"), program.blended("x", "y", u)
        ])
        acc.add_batch(term)
        fx.add_batch(fx_values)
        fb.add_batch(fb_values)
    return [(a.n, a.mean, a.m2) for a in ([acc, fx, fb] if kind.tag == "original" else [acc])]


class TestRowReads:
    """A pass featurizes only the feature rows some value reads."""

    def test_each_kind_notes_the_rows_its_term_reads(self):
        # u = {1} on d = 3: bit j-1 of a mask is coordinate j
        u = IndexSet(0b001, 3)
        want = {
            "original": {"x": 0b111, "y": 0b110},
            "correlation1": {"x": 0b111, "y": 0b111},
            "correlation2": {"x": 0b111, "y": 0b111, "z": 0b001},
            "oracle1": {"x": 0b111, "y": 0b111},
            "oracle2": {"x": 0b111, "y": 0b110},
            "generalized": {"x": 0b111, "y": 0b110, "z": 0b001, "w": 0b001},
            "upper": {"x": 0b111, "y": 0b001},
        }
        assert set(want) == set(KINDS)
        for tag, rows in want.items():
            reads = _Program(3)
            _term_factors(reads, EstimatorKind(tag), u, 0.0)
            assert {role: bits for role, bits in reads.rows.items() if bits} == rows, tag

    @pytest.mark.parametrize("family", list(ROW_MODELS))
    def test_unread_rows_are_never_read(self, family):
        # every role row of the spare workspace is NaN (a huge index in an
        # int64 row) before each pass: a pass that read a row it did not
        # featurize would fold a NaN or a clipped lookup
        model = ROW_MODELS[family]
        d, rng, n, batch_size = model.dim, RngSpec(4, 2), 2 * _DRAW_ROWS + 9, _DRAW_ROWS + 7
        estimators._SPARE.clear()
        accumulate_terms(model, [EstimatorKind("generalized")], [IndexSet(1, d)], n, rng, batch_size)
        (ws,) = estimators._SPARE
        stride = -(-batch_size // 8) * 8  # rows are padded to 64 bytes
        skipped = 0
        for name, (bits, v, v2) in _target_sets(d).items():
            u = IndexSet(bits, d)
            kinds = [EstimatorKind(tag) for tag in KINDS]
            kinds.append(EstimatorKind("generalized", v=IndexSet(v, d), v2=IndexSet(v2, d)))
            for kind in kinds:
                for role in ROLES:
                    ws._arrays[role].view(np.float64)[:] = np.nan
                accs, _ = accumulate_terms(model, [kind], [u], n, rng, batch_size)
                assert estimators._SPARE == [ws]
                acc = accs[kind][u]
                got = [(a.n, a.mean, a.m2) for a in (acc if kind.tag == "original" else [acc])]
                want = _full_featurized(model, kind, u, n, rng, batch_size)
                assert np.array(got).tobytes() == np.array(want).tobytes(), (name, kind)
                rows = {r: ws._arrays[r].view(np.float64)[: d * stride] for r in KINDS[kind.tag].roles}
                skipped += any(np.isnan(a.reshape(d, stride)[:, :batch_size]).any() for a in rows.values())
        assert skipped >= 20, skipped  # 20 of the 32 passes skip a row; one that skips none tests nothing
