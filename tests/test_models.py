import json
import math

import numpy as np
import pytest

from sobolmc import models
from sobolmc.core import DimensionError, IndexSet
from sobolmc.models import (
    BudgetError,
    DiscreteModel,
    SHAPES,
    GFunction,
    ProductModel,
    analytic_anova,
    builtin_model,
    discrete_anova,
    factor_raw_moments,
    g_as_product,
    model_from_json,
    product_anova,
    product_set_indices,
)


def simpson(f, a, b, n=4096):
    """Composite Simpson oracle (independent of the module quadrature)."""
    xs = np.linspace(a, b, 2 * n + 1)
    w = np.ones(2 * n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((b - a) / (6 * n) * (w @ f(xs)))


class TestFactorKinds:
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_standardized(self, name):
        g = SHAPES[name][0]
        assert abs(simpson(g, 0, 1)) < 1e-12
        assert abs(simpson(lambda x: g(x) ** 2, 0, 1) - 1.0) < 1e-12

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_third_and_fourth_moments(self, name):
        # closed forms: both shapes are symmetric with E g^4 = 9/5
        # (tent: |4x-2| ~ U[0,2] so E|4x-2|^k = 2^k/(k+1))
        g, gamma, kappa = SHAPES[name]
        assert gamma == 0.0
        assert kappa == pytest.approx(9.0 / 5.0, rel=1e-15)
        assert simpson(lambda x: g(x) ** 3, 0, 1) == pytest.approx(0.0, abs=1e-12)
        assert simpson(lambda x: g(x) ** 4, 0, 1) == pytest.approx(1.8, rel=1e-12)

    @pytest.mark.parametrize(
        "kinds", ["bad", ["uniform", "bad"], ["uniform", None], [SHAPES["tent"][0]] * 2, object()]
    )
    def test_unknown_shape_refused_before_any_evaluation(self, kinds):
        with pytest.raises(ValueError, match=r"unknown factor shape .*\['tent', 'uniform'\]"):
            ProductModel([1.0, 1.0], [1.0, 1.0], kinds)

    @pytest.mark.parametrize("kinds", [["uniform"], ["tent"] * 3, []])
    def test_wrong_number_of_shapes_refused(self, kinds):
        with pytest.raises(DimensionError, match="one factor shape per coordinate"):
            ProductModel([1.0, 1.0], [1.0, 1.0], kinds)


class TestEvaluate:
    def test_g_function_at_center(self):
        g = GFunction([19.0, 9.0, 4.0])
        # (59/20) * (29/10) * (14/5) = 23.954
        assert g.evaluate([0.5, 0.5, 0.5]) == pytest.approx(23.954, rel=1e-12)

    def test_constant_product_model(self):
        m = ProductModel(np.ones(4), np.zeros(4))
        rng = np.random.default_rng(0)
        assert m.evaluate(rng.random(4)) == 1.0

    def test_product_model_vanishing_shapes_at_half(self):
        m = builtin_model("product6")
        assert m.evaluate([0.5] * 6) == pytest.approx(1.0, rel=1e-15)

    def test_counter_increments_per_point(self):
        g = builtin_model("g")
        g.evaluate([0.1, 0.2, 0.3])
        assert g.counter.count == 1
        g.evaluate(np.random.default_rng(0).random((17, 3)))
        assert g.counter.count == 18
        clone = g.clone()
        assert clone.counter.count == 0 and g.counter.count == 18

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            builtin_model("g").evaluate([0.1, 0.2])

    def test_mc_mean_matches_analytic(self):
        for name in ("g", "product6"):
            model = builtin_model(name)
            xs = np.random.default_rng(11).random((1_000_000, model.dim))
            vals = model.evaluate(xs)
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - model.mean()) < 4 * se


def literal_features(model, x):
    """Feature rows as one whole-array expression per coordinate, the reference
    the in-place rows must match bit for bit (2 + 3a is never folded)."""
    xs = np.moveaxis(x, -1, 0)
    if isinstance(model, GFunction):
        a = model.a
        rows = [(np.abs(4.0 * xs[j] - 2.0) + 2.0 + 3.0 * a[j]) / (1.0 + a[j]) for j in range(model.dim)]
    elif isinstance(model, ProductModel):
        shapes = {
            "uniform": lambda t: math.sqrt(12.0) * (t - 0.5),
            "tent": lambda t: math.sqrt(3.0) * (np.abs(4.0 * t - 2.0) - 1.0),
        }
        rows = [
            model.mu[j] + model.tau[j] * shapes[model.kinds[j]](xs[j]) for j in range(model.dim)
        ]
    elif isinstance(model, DiscreteModel):
        return np.floor(xs * model.levels).astype(np.int64)
    else:
        return xs.copy()
    return np.array(rows)


FEATURE_MODELS = {
    "uniform": ProductModel([1.0, 0.5, -2.0], [1.0, 0.3, 0.7], "uniform"),
    "tent": ProductModel([1.0, 0.5, -2.0], [1.0, 0.3, 0.7], "tent"),
    "g": GFunction([0.3, 1.7, 9.1]),
    "discrete": DiscreteModel(np.arange(27.0).reshape(3, 3, 3)),
    "base": models.Model(3),
}


def feature_inputs():
    """Points of every shape a model is featurized on, by name (d = 3)."""
    # not multiples of 2^-53 as sampled points are, on which |4x-2| + 2 is
    # exact: here a reordered sum rounds differently
    gen = np.random.default_rng(11)
    mids = (np.stack(np.unravel_index(np.arange(27), (3, 3, 3)), axis=-1) + 0.5) / 3
    return {
        "point": (gen.random(3) + 0.1) / 1.3,
        "batch": (gen.random((41, 3)) + 0.1) / 1.3,
        # the exact oracle's midpoints, all 27 states along one role axis
        **{f"grid-axis-{k}": mids.reshape((1,) * k + (27,) + (1,) * (2 - k) + (3,)) for k in range(3)},
    }


class TestFeatures:
    @pytest.mark.parametrize("shape", list(feature_inputs()))
    @pytest.mark.parametrize("family", list(FEATURE_MODELS))
    def test_out_rows_equal_fresh_rows(self, family, shape):
        model, x = FEATURE_MODELS[family], feature_inputs()[shape]
        want, ref = model.features(x), literal_features(model, x)
        assert want.dtype == ref.dtype and want.tobytes() == ref.tobytes()
        out = np.full(want.shape, 7, want.dtype)
        got = model.features(x, out=out)
        assert got is out and got.tobytes() == want.tobytes()
        assert not np.shares_memory(want, x) and not np.shares_memory(got, x)

    @pytest.mark.parametrize("family", list(FEATURE_MODELS))
    def test_chunks_fill_a_slice_of_longer_rows(self, family):
        # a short last batch refills rows[:, :b] of the rows a longer batch
        # allocated, chunk by chunk; the columns past b are left as they were
        model, x = FEATURE_MODELS[family], feature_inputs()["batch"]
        want = model.features(x)
        rows = np.full((3, 64), 7, want.dtype)
        model.features(x[:16], out=rows[:, :16])
        model.features(x[16:], out=rows[:, 16 : len(x)])
        assert rows[:, : len(x)].tobytes() == want.tobytes()
        assert np.all(rows[:, len(x) :] == 7)

    def test_discrete_rows_are_range_checked(self):
        out = np.empty(3, np.int64)
        with pytest.raises(ValueError, match=r"\[0, 1\)\^d"):
            FEATURE_MODELS["discrete"].features(np.array([0.5, 1.0, 0.2]), out=out)

    @pytest.mark.parametrize("family", list(FEATURE_MODELS))
    def test_named_rows_are_the_only_rows_written(self, family):
        model, x = FEATURE_MODELS[family], feature_inputs()["batch"]
        want = model.features(x)
        out = np.full(want.shape, 7, want.dtype)
        assert model.features(x, out=out, rows=[2, 0]) is out
        assert out[[0, 2]].tobytes() == want[[0, 2]].tobytes()
        assert np.all(out[1] == 7)
        model.features(x, out=out, rows=[])
        assert np.all(out[1] == 7)


class TestParametersMustBeFinite:
    # NaN < 0 is false, so a sign check alone lets NaN through
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "build, name",
        [
            pytest.param(lambda v: GFunction([1.0, v]), "a", id="a"),
            pytest.param(lambda v: ProductModel([1.0, v], [1.0, 1.0]), "mu", id="mu"),
            pytest.param(lambda v: ProductModel([1.0, 1.0], [1.0, v]), "tau", id="tau"),
        ],
    )
    def test_a_non_finite_parameter_is_refused_by_name(self, build, name, value):
        with pytest.raises(ValueError, match=rf"\b{name} must be finite"):
            build(value)


class TestProductAnova:
    def test_variance_of_product6(self):
        rep = product_anova(builtin_model("product6"))
        # prod(1 + tau_j^2) - 1, exact in binary arithmetic
        assert rep.sigma2 == pytest.approx(6.0556640625, rel=1e-15)
        assert rep.mu == 1.0

    def test_relative_singleton_indices(self):
        rep = product_anova(builtin_model("product6"))
        rels = [
            round(rep.lower_u[IndexSet.from_indices([j], 6)] / rep.sigma2, 3)
            for j in range(1, 7)
        ]
        assert rels == [0.165, 0.165, 0.041, 0.041, 0.010, 0.010]

    def test_pair_rows_follow_variance_identity(self):
        rep = product_anova(builtin_model("product6"))
        pairs = {(1, 2): 0.495, (3, 4): 0.093, (5, 6): 0.021}
        for ix, want in pairs.items():
            u = IndexSet.from_indices(ix, 6)
            assert round(rep.lower_u[u] / rep.sigma2, 3) == want

    def test_sigma2_against_effect_sum(self):
        # independent route: total variance as the sum of all effect variances
        model = ProductModel([1.0, 2.0, 0.5], [0.3, 0.7, 1.1], "tent")
        rep = product_anova(model)
        total = math.fsum(rep.sigma2_u[u] for u in IndexSet.full(3).subsets())
        assert rep.sigma2 == pytest.approx(total, rel=1e-12)

    def test_report_invariants_all_subsets(self):
        model = ProductModel(np.ones(6), [1, 1, 0.5, 0.5, 0.25, 0.25])
        rep = product_anova(model)
        full = IndexSet.full(6)
        assert rep.sigma2_u[IndexSet.empty(6)] == 0.0
        for u in full.subsets():
            assert -1e-12 <= rep.lower_u[u] <= rep.upper_u[u] + 1e-12
            assert rep.upper_u[u] <= rep.sigma2 + 1e-9
            assert rep.lower_u[u] == pytest.approx(
                rep.sigma2 - rep.upper_u[u.complement()], rel=1e-12, abs=1e-15
            )

    def test_monotone_in_u(self):
        rep = product_anova(builtin_model("product6"))
        for u in IndexSet.full(6).subsets():
            for j in u.complement():
                bigger = IndexSet(u.bits | IndexSet.from_indices([j], 6).bits, 6)
                assert rep.lower_u[u] <= rep.lower_u[bigger] + 1e-15
                assert rep.upper_u[u] <= rep.upper_u[bigger] + 1e-15

    def test_set_indices_shortcut_matches_maps(self):
        model = builtin_model("product6")
        rep = product_anova(model)
        for u in IndexSet.full(6).subsets():
            s2, lo, hi = product_set_indices(model, u)
            assert s2 == pytest.approx(rep.sigma2_u[u], rel=1e-14, abs=1e-300)
            assert lo == pytest.approx(rep.lower_u[u], rel=1e-14, abs=1e-15)
            assert hi == pytest.approx(rep.upper_u[u], rel=1e-14, abs=1e-15)


class TestGAsProduct:
    def test_factor_weights(self):
        prod = g_as_product(GFunction([19.0, 9.0, 4.0]))
        assert np.allclose(prod.mu, 3.0)
        assert prod.tau**2 == pytest.approx([1 / 1200, 1 / 300, 1 / 75], rel=1e-14)
        assert prod.kinds == ("tent",) * 3

    def test_seven_effect_variances(self):
        rep = product_anova(g_as_product(GFunction([19.0, 9.0, 4.0])))
        want = {
            (1,): 0.0675,
            (2,): 0.27,
            (3,): 1.08,
            (1, 2): 0.000025,
            (1, 3): 0.0001,
            (2, 3): 0.0004,
            (1, 2, 3): 3.7037037037037037e-08,
        }
        for ix, value in want.items():
            u = IndexSet.from_indices(ix, 3)
            assert rep.sigma2_u[u] == pytest.approx(value, rel=1e-12)

    def test_total_variance(self):
        rep = product_anova(g_as_product(GFunction([19.0, 9.0, 4.0])))
        # independent route: inclusion-exclusion sum  81*S1 + 9*S2 + S3
        t2 = [1 / 1200, 1 / 300, 1 / 75]
        s1 = sum(t2)
        s2 = t2[0] * t2[1] + t2[0] * t2[2] + t2[1] * t2[2]
        s3 = t2[0] * t2[1] * t2[2]
        assert rep.sigma2 == pytest.approx(81 * s1 + 9 * s2 + s3, rel=1e-12)
        assert rep.mu == 27.0

    def test_moment_match_against_g_samples(self):
        # the tent product form has the same distribution of f as the
        # g-function itself; compare means and second moments by shared MC
        g = GFunction([19.0, 9.0, 4.0])
        prod = g_as_product(g)
        xs = np.random.default_rng(5).random((200_000, 3))
        fg = g.evaluate(xs)
        fp = prod.evaluate(xs)
        assert np.allclose(fg, fp, rtol=1e-12)

    def test_table2_relative_indices(self):
        rep = product_anova(g_as_product(GFunction([19.0, 9.0, 4.0])))
        want = {
            (1,): 0.048, (2,): 0.190, (3,): 0.762,
            (1, 2): 0.238, (1, 3): 0.809, (2, 3): 0.952,
        }
        for ix, value in want.items():
            u = IndexSet.from_indices(ix, 3)
            assert round(rep.lower_u[u] / rep.sigma2, 3) == value


class TestDiscreteAnova:
    def test_constant_table(self):
        rep = discrete_anova(DiscreteModel(np.full((3, 3), 2.5)))
        assert rep.mu == 2.5
        assert all(v == 0.0 for v in rep.sigma2_u.values())

    def test_single_coordinate_dependence(self):
        table = np.tile(np.array([[1.0], [2.0], [4.0]]), (1, 3))  # depends on x1 only
        rep = discrete_anova(DiscreteModel(table))
        d2 = IndexSet.from_indices([2], 2)
        both = IndexSet.full(2)
        assert rep.sigma2_u[d2] == 0.0
        assert rep.sigma2_u[both] == 0.0
        assert rep.sigma2_u[IndexSet.from_indices([1], 2)] == pytest.approx(rep.sigma2)

    def test_matches_product_anova_on_product_table(self):
        rng = np.random.default_rng(3)
        c1, c2 = rng.random(3) + 0.5, rng.random(3) + 0.5
        table = np.outer(c1, c2)
        rep = discrete_anova(DiscreteModel(table))
        induced = ProductModel(
            [c1.mean(), c2.mean()], [c1.std(), c2.std()], "uniform"
        )
        want = product_anova(induced)
        for u in IndexSet.full(2).subsets():
            assert rep.sigma2_u[u] == pytest.approx(want.sigma2_u[u], rel=1e-12, abs=1e-14)
            assert rep.lower_u[u] == pytest.approx(want.lower_u[u], rel=1e-12, abs=1e-14)

    def test_effects_reconstruct_table(self):
        rng = np.random.default_rng(9)
        model = DiscreteModel(rng.random((3, 3, 3)))
        rep = discrete_anova(model)
        # rebuild f from mu + effects by re-running the recursion's pieces
        full = IndexSet.full(3)
        recon = np.zeros_like(model.table)
        for u in full.subsets():
            off = tuple(ax for ax in range(3) if (ax + 1) not in u)
            m_u = model.table.mean(axis=off, keepdims=True)
            # inclusion-exclusion of conditional means
            term = np.zeros_like(m_u)
            for v in u.subsets():
                off_v = tuple(ax for ax in range(3) if (ax + 1) not in v)
                sign = (-1) ** (len(u) - len(v))
                term = term + sign * model.table.mean(axis=off_v, keepdims=True)
            recon = recon + term
        assert np.allclose(recon, model.table, atol=1e-12)
        total = math.fsum(rep.sigma2_u[u] for u in full.subsets())
        assert total == pytest.approx(rep.sigma2, rel=1e-12)

    def test_midpoint_evaluation(self):
        table = np.arange(9.0).reshape(3, 3)
        model = DiscreteModel(table)
        # cell [1/3, 2/3) x [0, 1/3) holds table[1, 0]
        assert model.evaluate([0.4, 0.1]) == table[1, 0]
        assert model.evaluate([0.99, 0.99]) == table[2, 2]

    @pytest.mark.parametrize("point", [[0.4, 1.0], [1.0, 0.1], [-0.1, 0.1], [0.4, -1e-9]])
    def test_points_outside_the_cube_are_rejected(self, point):
        # the flat cell index of (1, 3) would be 6, a valid but wrong cell
        model = DiscreteModel(np.arange(9.0).reshape(3, 3))
        with pytest.raises(ValueError, match=r"\[0, 1\)\^d"):
            model.evaluate(point)
        with pytest.raises(ValueError, match=r"\[0, 1\)\^d"):
            model.evaluate([[0.4, 0.1], point])

    def test_budget_cap(self, monkeypatch):
        monkeypatch.setattr(models, "DEFAULT_MAX_CELLS", 8)
        with pytest.raises(BudgetError, match="cap 8"):
            DiscreteModel(np.zeros(16).reshape(4, 4))
        DiscreteModel(np.zeros(4).reshape(2, 2))


class TestAnalyticAnova:
    FAMILIES = {
        "product": ProductModel([1.0, 2.0, 0.5, 1.5], [0.5, 1.0, 0.25, 0.0], "tent"),
        "g": GFunction([0.0, 1.0, 4.5, 99.0]),
        "discrete": DiscreteModel(np.random.default_rng(4).random((3,) * 4)),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_requested_sets_match_the_full_report(self, family):
        model = self.FAMILIES[family]
        us = [IndexSet.from_indices(ix, 4) for ix in ([2], [1, 4], [1, 2, 3, 4])]
        full = analytic_anova(model)
        some = analytic_anova(model, us)
        assert (some.mu, some.sigma2) == (full.mu, full.sigma2)
        for part in ("sigma2_u", "lower_u", "upper_u"):
            assert list(getattr(some, part)) == us
            assert getattr(some, part) == {u: getattr(full, part)[u] for u in us}
        assert len(full.lower_u) == 2**4

    def test_g_mean_is_the_model_mean(self):
        # 3.0**34 and a left-to-right product of 34 threes differ by an ulp
        model = GFunction(np.zeros(34))
        assert analytic_anova(model, [IndexSet.from_indices([1], 34)]).mu == 3.0**34

    def test_unknown_family_has_no_exact_anova(self):
        with pytest.raises(TypeError):
            analytic_anova(models.Model(2))


class TestFactorRawMoments:
    def test_standardized_factor(self):
        m = ProductModel([0.0], [1.0], "uniform")
        assert factor_raw_moments(m, 1) == pytest.approx((0.0, 1.0, 0.0, 1.8))

    def test_constant_factor(self):
        m = ProductModel([1.0], [0.0])
        assert factor_raw_moments(m, 1) == (1.0, 1.0, 1.0, 1.0)

    def test_g_function_first_factor(self):
        m = g_as_product(GFunction([19.0, 9.0, 4.0]))
        m1, m2, m3, m4 = factor_raw_moments(m, 1)
        assert m2 == pytest.approx(9.0 + 1.0 / 1200.0, rel=1e-14)
        assert m4 >= m2**2

    def test_moments_match_quadrature(self):
        model = ProductModel([1.5, 0.7], [0.4, 1.2], ["uniform", "tent"])
        for j, name in ((1, "uniform"), (2, "tent")):
            mu, tau, g = model.mu[j - 1], model.tau[j - 1], SHAPES[name][0]
            h = lambda x: mu + tau * g(x)  # noqa: B023
            want = tuple(simpson(lambda x: h(x) ** p, 0, 1) for p in (1, 2, 3, 4))
            assert factor_raw_moments(model, j) == pytest.approx(want, rel=1e-12)

    def test_bad_coordinate(self):
        with pytest.raises(ValueError, match="coordinate 3"):
            factor_raw_moments(ProductModel([1.0], [1.0]), 3)


class TestModelJson:
    def test_g_function(self):
        m = model_from_json({"kind": "g-function", "a": [19, 9, 4]})
        assert isinstance(m, GFunction) and m.dim == 3

    def test_product(self):
        m = model_from_json(
            {"kind": "product", "mu": [1, 1], "tau": [0.5, 0.25], "g": "tent"}
        )
        assert isinstance(m, ProductModel)
        assert m.kinds == ("tent", "tent")

    def test_discrete(self):
        m = model_from_json({"kind": "discrete", "levels": 3, "table": list(range(9))})
        assert isinstance(m, DiscreteModel) and m.dim == 2

    def test_unknown_kind_and_keys(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            model_from_json({"kind": "mystery"})
        with pytest.raises(ValueError, match="unknown keys"):
            model_from_json({"kind": "g-function", "a": [1], "extra": 2})
        with pytest.raises(ValueError, match="hypercube"):
            model_from_json({"kind": "discrete", "levels": 3, "table": [1, 2, 3, 4]})

    def test_roundtrip_through_text(self):
        text = json.dumps({"kind": "product", "mu": [1, 1, 1], "tau": [1, 0.5, 0.25]})
        m = model_from_json(json.loads(text))
        assert m.dim == 3
