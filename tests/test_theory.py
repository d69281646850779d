import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobolmc.core import BlockSampler, DimensionError, IndexSet, RngSpec, blend, pick_rows
from sobolmc.estimators import KINDS, EstimatorKind, _BatchEvals, _Program, accumulate_terms
from sobolmc.models import (
    BudgetError,
    DiscreteModel,
    ProductModel,
    builtin_model,
    discrete_anova,
    product_anova,
)
from sobolmc.theory import (
    MAX_STATES,
    QFactors,
    _q_uv_rows,
    _q_v_rows,
    _row_products,
    argmin_v,
    diff_fourth_moment,
    diff_fourth_moment_proxy,
    enumerate_expectation,
    enumerate_expectations,
    q_uv,
    q_v,
)


def u_of(ix, dim):
    return IndexSet.from_indices(ix, dim)


def replayed_programs(monkeypatch) -> list:
    """Every ``_Program`` replayed from now on, in the order its first replay starts."""
    programs = []
    real_schedule = _Program.schedule

    def spy(self):
        if all(program is not self for program in programs):
            programs.append(self)
        return real_schedule(self)

    monkeypatch.setattr(_Program, "schedule", spy)
    return programs


class TestQFactorValues:
    def setup_method(self):
        rng = np.random.default_rng(2)
        self.model = builtin_model("product6")
        self.x, self.y, self.z, self.w = (rng.random((500, 6)) for _ in range(4))

    def test_constant_function_gives_zero(self):
        m = ProductModel([1.0, 2.0], [0.0, 0.0])
        v = u_of([1], 2)
        assert np.allclose(q_v(m, self.x[:, :2], self.z[:, :2], v), 0.0, atol=1e-12)

    def test_full_v_gives_zero(self):
        # v = {1..d} (the u = empty edge case) blends x with itself
        v = IndexSet.full(6)
        got = q_v(self.model, self.x, self.z, v)
        assert np.allclose(got, 0.0, atol=1e-10)

    def test_qv_equals_squared_difference(self):
        for v in u_of([1], 6).complement().subsets():
            direct = (
                self.model.evaluate(self.x) - self.model.evaluate(blend(self.x, self.z, v))
            ) ** 2
            got = q_v(self.model, self.x, self.z, v)
            assert np.allclose(got, direct, rtol=1e-12, atol=1e-12)

    def test_quv_equals_squared_difference(self):
        u = u_of([5], 6)
        for v2 in u.complement().subsets():
            direct = (
                self.model.evaluate(blend(self.x, self.y, u))
                - self.model.evaluate(blend(self.y, self.w, v2))
            ) ** 2
            got = q_uv(self.model, self.x, self.y, self.w, u, v2)
            assert np.allclose(got, direct, rtol=1e-12, atol=1e-12)

    def test_quv_rejects_overlap(self):
        u = u_of([5], 6)
        with pytest.raises(ValueError, match="disjoint"):
            q_uv(self.model, self.x, self.y, self.w, u, u)

    def test_row_cores_keep_the_bits_of_the_point_forms(self):
        # q_v and q_uv as they featurized each call's points, squares and
        # cross products of rows formed anew for each term; the row cores,
        # fed row products formed once as the Q check forms them, and the
        # point forms built on them give the same bits on 300 random models
        def old_q_v(model, x, z, v):
            hx, hz = model.features(x), model.features(z)
            t1 = model._values(hx**2)
            t2 = model._values(pick_rows(hx**2, hz**2, v))
            t3 = model._values(pick_rows(hx**2, hx * hz, v))
            return t1 + t2 - 2.0 * t3

        def old_q_uv(model, x, y, w, u, v2):
            hx, hy, hw = model.features(x), model.features(y), model.features(w)
            a2 = model._values(pick_rows(hx**2, hy**2, u))
            b2 = model._values(pick_rows(hy**2, hw**2, v2))
            cross = model._values(pick_rows(hx * hw, pick_rows(hy**2, hy * hw, v2), u))
            return a2 + b2 - 2.0 * cross

        gen = np.random.default_rng(24)
        for _ in range(300):
            d = int(gen.integers(1, 6))
            model = ProductModel(
                gen.uniform(-2.0, 2.0, d),
                gen.uniform(0.0, 3.0, d),
                [("uniform", "tent")[int(b)] for b in gen.integers(0, 2, d)],
            )
            size = int(gen.integers(1, 40))
            x, y, z, w = (gen.random((size, d)) for _ in range(4))
            u = IndexSet(int(gen.integers(0, 2**d)), d)
            v, v2 = (IndexSet(int(gen.integers(0, 2**d)) & ~u.bits, d) for _ in range(2))
            h = {role: model.features(p) for role, p in zip("xyzw", (x, y, z, w))}
            h2 = _row_products(h, ("xx", "yy", "zz", "ww", "xz", "xw", "yw"))
            want_v, want_uv = old_q_v(model, x, z, v), old_q_uv(model, x, y, w, u, v2)
            for got in (q_v(model, x, z, v), _q_v_rows(model, h2, v)):
                assert got.tobytes() == want_v.tobytes()
            for got in (q_uv(model, x, y, w, u, v2), _q_uv_rows(model, h2, u, v2)):
                assert got.tobytes() == want_uv.tobytes()


class TestFourthMoments:
    def test_full_v_gives_zero(self):
        model = builtin_model("product6")
        v = IndexSet.full(6)
        assert diff_fourth_moment_proxy(model, v) == pytest.approx(0.0, abs=1e-12)
        assert diff_fourth_moment(model, v) == pytest.approx(0.0, abs=1e-9)

    def test_constant_factors_agree_for_every_v(self):
        model = ProductModel([1.3, 0.4, 2.0], [0.0, 0.0, 0.0])
        for v in IndexSet.full(3).subsets():
            assert diff_fourth_moment(model, v) == pytest.approx(
                diff_fourth_moment_proxy(model, v), rel=1e-12, abs=1e-12
            )

    def test_mu_equals_tau_factors_agree(self):
        # symmetric shapes with mu_j = tau_j satisfy m1 m3 = m2^2 exactly
        model = ProductModel([1.0, 0.5, 2.0], [1.0, 0.5, 2.0], "uniform")
        qf = QFactors.from_model(model)
        assert np.allclose(qf.m1 * qf.m3, qf.m2**2, rtol=1e-12)
        for v in IndexSet.full(3).subsets():
            assert diff_fourth_moment(model, v) == pytest.approx(
                diff_fourth_moment_proxy(model, v), rel=1e-12
            )

    def test_zero_mean_factors_do_not_agree(self):
        # mu_j = 0 kills m1 and m3, so m1 m3 = 0 != m2^2 and the two
        # closed forms differ by exactly 8 prod_v m4 prod_-v m2^2
        model = ProductModel([0.0, 0.0], [1.0, 1.0], "uniform")
        qf = QFactors.from_model(model)
        assert np.all(qf.m1 * qf.m3 != qf.m2**2)
        v = u_of([1], 2)
        gap = 8.0 * qf.m4[0] * qf.m2[1] ** 2
        assert diff_fourth_moment(model, v) - diff_fourth_moment_proxy(model, v) == pytest.approx(
            gap, rel=1e-12
        )

    def test_product6_mixed_agreement(self):
        # tau = 1 coordinates satisfy the m1 m3 = m2^2 condition, the rest do not
        qf = QFactors.from_model(builtin_model("product6"))
        cross = qf.m1 * qf.m3
        sq = qf.m2**2
        assert np.allclose(cross[:2], sq[:2], rtol=1e-14)
        assert np.all(cross[2:] != sq[2:])
        assert cross[2] == pytest.approx(1 + 3 * 0.25)
        assert sq[2] == pytest.approx(1.25**2)

    def test_monte_carlo_matches_exact_form(self):
        # MC fourth moment of the left difference agrees with the exact
        # expansion; 4 SE discriminates it from the proxy form here
        model = builtin_model("product6")
        u = u_of([5], 6)
        v = u.complement()
        sampler = BlockSampler(RngSpec(31), 6)
        x = sampler.draw_role("x", 400_000)
        z = sampler.draw_role("z", 400_000)
        d4 = (model.evaluate(x) - model.evaluate(blend(x, z, v))) ** 4
        mean = float(d4.mean())
        se = float(d4.std(ddof=1)) / math.sqrt(d4.size)
        exact = diff_fourth_moment(model, v)
        proxy = diff_fourth_moment_proxy(model, v)
        assert abs(mean - exact) < 4 * se
        assert abs(exact - proxy) > 8 * se  # the forms are distinguishable here
        assert abs(mean - proxy) > 4 * se

    def test_infeasible_moments_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            QFactors(np.ones(1), np.full(1, 2.0), np.ones(1), np.ones(1))


class TestProxyMonotonicityAndArgmin:
    @pytest.mark.parametrize("name", ["g", "product6"])
    def test_proxy_nonincreasing_along_chains(self, name):
        model = builtin_model(name)
        if name == "g":
            from sobolmc.models import g_as_product

            model = g_as_product(model)
        full = IndexSet.full(model.dim)
        for v in full.subsets():
            base = diff_fourth_moment_proxy(model, v)
            for j in v.complement():
                bigger = IndexSet(v.bits | u_of([j], model.dim).bits, model.dim)
                assert diff_fourth_moment_proxy(model, bigger) <= base + 1e-12

    @pytest.mark.parametrize("name", ["g", "product6"])
    def test_argmin_proxy_is_full_complement(self, name):
        model = builtin_model(name)
        if name == "g":
            from sobolmc.models import g_as_product

            model = g_as_product(model)
        for u in IndexSet.full(model.dim).subsets():
            assert argmin_v(model, u, "proxy") == u.complement()

    def test_tie_break_smallest_mask_with_constant_factors(self):
        # coordinate 2 constant: any v containing {3} ties; smallest mask wins
        model = ProductModel([1.0, 2.0, 1.0], [0.5, 0.0, 0.5], "uniform")
        u = u_of([1], 3)
        got = argmin_v(model, u, "proxy")
        assert got == u_of([3], 3)
        # enumeration oracle: the tie really exists
        with_const = diff_fourth_moment_proxy(model, u_of([2, 3], 3))
        without = diff_fourth_moment_proxy(model, u_of([3], 3))
        assert with_const == without

    def test_exact_objective_outcome_is_recorded(self, capsys):
        # no closed-form reference value exists; record what the exact
        # objective selects on the product benchmark
        model = builtin_model("product6")
        u = u_of([5], 6)
        got = argmin_v(model, u, "exact")
        assert got.isdisjoint(u)  # v lies inside the complement of u
        print(f"exact-objective argmin for u={u}: v={got} (complement is {u.complement()})")

    def test_objective_and_size_validation(self):
        model = builtin_model("product6")
        with pytest.raises(ValueError, match="objective"):
            argmin_v(model, u_of([1], 6), "bogus")
        wide = ProductModel(np.ones(30), np.full(30, 0.5))
        with pytest.raises(ValueError, match="refused"):
            argmin_v(wide, IndexSet.empty(30), "proxy")


class TestVarianceIdentity:
    def test_generalized_variance_equals_q_product_moment(self):
        # two independent MC pipelines: n var(term) vs E(Q_v Q_uv') - lower^2
        model = builtin_model("product6")
        u = u_of([5], 6)
        v = u.complement()
        n = 300_000

        gen = EstimatorKind("generalized")
        accs, _ = accumulate_terms(model, [gen], [u], n, RngSpec(101))
        term_var = accs[gen][u].variance()
        # SE of a sample variance from replicate spread
        reps = []
        for rep in range(10):
            a, _ = accumulate_terms(model.clone(), [gen], [u], n // 10, RngSpec(77, rep))
            reps.append(a[gen][u].variance())
        se_var = float(np.std(reps, ddof=1)) / math.sqrt(len(reps))

        sampler = BlockSampler(RngSpec(202), 6)
        x = sampler.draw_role("x", n)
        y = sampler.draw_role("y", n)
        z = sampler.draw_role("z", n)
        w = sampler.draw_role("w", n)
        qq = q_v(model, x, z, v) * q_uv(model, x, y, w, u, v)
        lower = product_anova(model).lower_u[u]
        moment = float(qq.mean()) - lower**2
        se_moment = float(qq.std(ddof=1)) / math.sqrt(n)

        combined = math.hypot(se_var, se_moment)
        assert abs(term_var - moment) < 4 * combined


def literal_enumeration(model, kind, u, num=float):
    """Plain-Python joint-state sum; the independent check on the oracle.

    With ``num=Fraction`` every value and term is an exact rational.
    """
    levels, d = model.levels, model.dim
    grid = list(itertools.product(range(levels), repeat=d))
    f = {g: num(model.table[g]) for g in grid}

    def bl(a, b, s):
        return tuple(a[j] if (j + 1) in s else b[j] for j in range(d))

    c = num(kind.center if kind.center is not None else model.mean())
    terms = []
    if kind.tag in ("correlation1", "oracle1", "oracle2", "original"):
        for x, y in itertools.product(grid, repeat=2):
            fx, fu, fy = f[x], f[bl(x, y, u)], f[y]
            terms.append(
                {
                    "correlation1": fx * (fu - fy),
                    "oracle1": (fx - c) * (fu - fy),
                    "oracle2": (fx - c) * (fu - c),
                    "original": fx * fu,
                }[kind.tag]
            )
    elif kind.tag == "correlation2":
        for x, y, z in itertools.product(grid, repeat=3):
            terms.append((f[x] - f[bl(z, x, u)]) * (f[bl(x, y, u)] - f[y]))
    elif kind.tag == "upper":
        for x, y in itertools.product(grid, repeat=2):
            terms.append(num(0.5) * (f[x] - f[bl(y, x, u)]) ** 2)
    elif kind.tag == "generalized":
        v = kind.v if kind.v is not None else u.complement()
        v2 = kind.v2 if kind.v2 is not None else u.complement()
        for x, y, z, w in itertools.product(grid, repeat=4):
            terms.append((f[x] - f[bl(x, z, v)]) * (f[bl(x, y, u)] - f[bl(y, w, v2)]))
    else:
        raise NotImplementedError(kind.tag)
    return (math.fsum(terms) if num is float else sum(terms)) / len(terms)


#: (d, L) of the pinned oracle tables; table k's values and pinned center
#: are drawn from default_rng(k)
PINNED_TABLES = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (1, 4), (2, 4), (3, 2), (3, 3)]

#: sha256 of the float.hex() of every mean the oracle enumerates for each
#: pinned table's plan, one per line in plan order: captured from the
#: oracle's earlier cache-based implementation, so a replay that moves any
#: bit of any mean fails
PINNED_MEAN_DIGESTS = [
    "646e0f2fb532e7dabd3ecee3d17035f7854d05c40c1349e4081fee20207f9818",
    "095fe0a6e11b0514af3b27c3752c3284016ac04f25ac8c8f58dd50cca13e2da4",
    "cc1e6b3ca62dfe84fb4f03bae29016e2dbf858ae1f2870a62b2052ed8bf26c98",
    "1f42ebd26be157a067ea5328cf2063fb59ac2051733e6f5a9676fc24bae3d7b2",
    "5de50134ada223ec4ab0ae0685233be6696b62040c145f819c03c07c8cdffae5",
    "30cde9035c3ab37d50d00ce332beabd498143a3d3c4771d35ef26d513c005a10",
    "d8697b5060a67bcafad0e137c8f09cb67e45d14bd50c0e0542ae3b23af5a22d2",
    "5daa3f97b9c38493234c9555443a9d29c27fca4dc019bf84b4bdd2ab6719f233",
    "f0d6d0f86c4fa16e038fe596293a45ce6302b919f9b2d9fbb0a2481d61518652",
    "066cecb4724744c457a22d2db045894f4037d9746026a7c9b9de688e1837d2fb",
    "53053500427bd7c393a8333a9f9c8d6a58c71d06301ad447aea486856b6a4b48",
    "52c035856931207c5bd36739354587529f24d6ff73c7617cb57d79ab56ab331e",
]


def pinned_plan(k: int):
    """Pinned table k, with every kind on every set: default and pinned centers, every (v, v2)."""
    d, levels = PINNED_TABLES[k]
    gen = np.random.default_rng(k)
    model = DiscreteModel(gen.normal(size=(levels,) * d))
    center = float(gen.uniform(-3.0, 3.0))
    plain = [EstimatorKind(tag) for tag in KINDS] + [
        EstimatorKind("oracle1", center=center),
        EstimatorKind("oracle2", center=center),
    ]
    plan = {
        u: plain + [
            EstimatorKind("generalized", v=v, v2=v2)
            for v, v2 in itertools.product(u.complement().subsets(), repeat=2)
        ]
        for u in IndexSet.full(d).subsets()
    }
    return model, plan


class TestEnumerateExpectation:
    def test_against_literal_python_enumeration(self):
        model = DiscreteModel(np.random.default_rng(13).random((2, 2)))
        u = u_of([1], 2)
        for kind in (
            EstimatorKind("correlation1"),
            EstimatorKind("oracle1"),
            EstimatorKind("oracle2"),
            EstimatorKind("original"),
            EstimatorKind("correlation2"),
            EstimatorKind("upper"),
            EstimatorKind("generalized"),
            EstimatorKind("generalized", v=IndexSet.empty(2), v2=u.complement()),
        ):
            want = literal_enumeration(model, kind, u)
            got = enumerate_expectation(model, kind, u)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("levels", [2, 3])
    def test_matches_exact_rational_enumeration(self, levels):
        # the literal terms summed as Fractions are exact, so this bounds the
        # rounding of the oracle's own summation, kind by kind
        model = DiscreteModel(np.random.default_rng(17).random((levels, levels)))
        for u in list(IndexSet.full(2).subsets())[1:]:
            comp = u.complement()
            kinds = [EstimatorKind(tag) for tag in KINDS if tag != "generalized"] + [
                EstimatorKind("generalized", v=v, v2=v2)
                for v in comp.subsets()
                for v2 in comp.subsets()
            ]
            for kind in kinds:
                want = literal_enumeration(model, kind, u, num=Fraction)
                got = enumerate_expectation(model, kind, u)
                assert abs(Fraction(got) - want) <= 1e-13 * abs(want), (kind, u)

    def test_generalized_unbiased_for_all_pairs(self):
        model = DiscreteModel(np.random.default_rng(21).random((3, 3)))
        rep = discrete_anova(model)
        u = u_of([1], 2)
        for v in u.complement().subsets():
            for v2 in u.complement().subsets():
                got = enumerate_expectation(model, EstimatorKind("generalized", v=v, v2=v2), u)
                assert got == pytest.approx(rep.lower_u[u], rel=1e-10)

    def test_generalized_never_forms_the_m4_array(self):
        # each factor spans at most three of the four role axes, and the mean
        # is taken from their partial sums, so no m^4 temporary is ever built:
        # the peak stays within a few m^3 arrays (one m^4 array is 27 of them)
        model = DiscreteModel(np.random.default_rng(31).random((3, 3, 3)))
        kind, u = EstimatorKind("generalized"), u_of([1], 3)
        enumerate_expectation(model, kind, u)  # warm-up: caches and lazy imports
        tracemalloc.start()
        try:
            got = enumerate_expectation(model, kind, u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert type(got) is float
        assert peak < 4 * 27**3 * 8

    def test_upper_kind_matches_total_index(self):
        model = DiscreteModel(np.random.default_rng(22).random((3, 3)))
        rep = discrete_anova(model)
        u = u_of([1], 2)
        got = enumerate_expectation(model, EstimatorKind("upper"), u)
        assert got == pytest.approx(rep.upper_u[u], rel=1e-10)

    def test_counts_every_distinct_state_it_evaluates(self):
        # the oracle evaluates through the sampler's value source: f(x) and
        # f(y) on the m = 4 states each, the blend on all 16 joint states
        model = DiscreteModel(np.random.default_rng(5).random((2, 2)))
        enumerate_expectation(model, EstimatorKind("correlation1"), u_of([1], 2))
        assert model.counter.count == 4 + 4 + 16

    def test_one_call_evaluates_each_state_once_for_every_kind(self):
        # correlation1 and correlation2 share f(x), f(y) and f(x_u#y_-u); only
        # correlation2's f(z_u#x_-u) is new, on the 16 states of its own axes
        model = DiscreteModel(np.random.default_rng(5).random((2, 2)))
        kinds = [EstimatorKind("correlation1"), EstimatorKind("correlation2")]
        enumerate_expectations(model, {u_of([1], 2): kinds})
        assert model.counter.count == 4 + 4 + 16 + 16

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.data())
    def test_one_call_equals_one_call_per_kind_and_set(self, data):
        # one plan over every set, with every kind, pinned and default centers
        # and every (v, v2) of the set: a kind read from the shared grid, with
        # its differences and partial sums shared, gives the single call's
        # mean exactly
        d = data.draw(st.integers(1, 3))
        levels = data.draw(st.integers(2, 3))
        seed = data.draw(st.integers(0, 2**32 - 1))
        model = DiscreteModel(np.random.default_rng(seed).normal(size=(levels,) * d))
        center = data.draw(st.floats(-3.0, 3.0))
        plain = [EstimatorKind(tag) for tag in KINDS] + [
            EstimatorKind("oracle1", center=center),
            EstimatorKind("oracle2", center=center),
        ]
        plan = {
            u: plain + [
                EstimatorKind("generalized", v=v, v2=v2)
                for v, v2 in itertools.product(u.complement().subsets(), repeat=2)
            ]
            for u in IndexSet.full(d).subsets()
        }
        got = enumerate_expectations(model, plan)
        for u, kinds in plan.items():
            for kind in kinds:
                assert got[kind][u] == enumerate_expectation(model, kind, u), (kind, u)

    @pytest.mark.parametrize("k", range(len(PINNED_TABLES)))
    def test_means_keep_their_pinned_bits(self, k):
        model, plan = pinned_plan(k)
        got = enumerate_expectations(model, plan)
        text = "\n".join(got[kind][u].hex() for u, kinds in plan.items() for kind in kinds)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_MEAN_DIGESTS[k]

    def test_each_difference_is_formed_once_and_ends_with_its_set(self, monkeypatch):
        # the 16 (v, v2) pairs of a |u| = 1 set at d = 3 share 4 left factors
        # f(x) - f(x_v#z_-v) and 4 right ones f(x_u#y_-u) - f(y_v2#w_-v2); the
        # program forms each difference once, and each ends with its set but
        # f(x) - f(z), the v = {} left factor the next set reads too
        model = DiscreteModel(np.random.default_rng(9).random((2, 2, 2)))
        programs = replayed_programs(monkeypatch)
        u = u_of([1], 3)
        pairs = [
            EstimatorKind("generalized", v=v, v2=v2)
            for v, v2 in itertools.product(u.complement().subsets(), repeat=2)
        ]
        plan = {u: pairs, u_of([2, 3], 3): pairs[:1] + [EstimatorKind("oracle1")]}
        enumerate_expectations(model, plan)
        (program,) = programs
        slot = program._slots
        last = [k for k, op in enumerate(program._ops) if op[0] == "mean"][len(pairs) - 1]
        diffs = [op for op in program._ops[: last + 1] if op[0] is np.subtract]
        assert sum(op[2] == slot["x",] for op in diffs) == 4
        assert sum(op[2] == slot["x", "y", u.bits] for op in diffs) == 4
        assert len(diffs) == 8
        ends = {s: k for k, op in enumerate(program.schedule()) for s in op[6]}
        shared = slot[np.subtract, slot["x",], slot["z",]]
        assert all(ends[op[1]] <= last for op in diffs if op[1] != shared)
        assert ends[shared] > last

    def test_one_difference_serves_correlation1_correlation2_and_oracle1(self, monkeypatch):
        # each set records f(x_u#y_-u) - f(y) once and the three kinds' terms
        # all read it, in a sampling pass as on the grid
        model = DiscreteModel(np.random.default_rng(3).random((2, 2, 2)))
        kinds = [EstimatorKind(tag) for tag in ("correlation1", "correlation2", "oracle1")]
        us = [u_of([1], 3), u_of([2, 3], 3)]
        programs = replayed_programs(monkeypatch)
        accumulate_terms(model, kinds, us, 100, RngSpec(1))
        enumerate_expectations(model, dict.fromkeys(us, kinds))
        assert len(programs) == 2
        for program, term in zip(programs, (np.multiply, "mean")):
            slot = program._slots
            for u in us:
                operands = (slot["x", "y", u.bits], slot["y",])
                (diff,) = [op[1] for op in program._ops if op[0] is np.subtract and op[2:4] == operands]
                assert sum(op[0] is term and diff in op[2:4] for op in program._ops) == 3

    def test_signed_zero_centers_are_distinct_factors(self):
        # a center is keyed by its bits: f - 0.0 keeps a -0.0 value's sign, f - (-0.0) does not
        model = DiscreteModel(np.array([-0.0, 0.5]))
        program = _Program(1)
        fx = program.plain("x")
        pos, neg = program.keep(program.subtract(fx, 0.0)), program.keep(program.subtract(fx, -0.0))
        assert pos != neg
        assert program.subtract(fx, 0.0) == pos and program.subtract(fx, -0.0) == neg
        values = _BatchEvals(model, [("x", np.array([[0.25], [0.75]]))]).run(program)
        assert np.signbit(values[pos][0]) and not np.signbit(values[neg][0])

    def test_budget_refusal(self):
        model = DiscreteModel(np.random.default_rng(0).random((3, 3)))
        with pytest.raises(BudgetError, match="budget"):
            enumerate_expectation(model, EstimatorKind("generalized"), u_of([1], 2), budget=100)
        # default budget: fine for 3^2 grids, the generalized kind visits 9^4 states
        enumerate_expectation(model, EstimatorKind("generalized"), u_of([1], 2), MAX_STATES)

    def test_rejects_overlapping_v(self):
        model = DiscreteModel(np.random.default_rng(0).random((3, 3)))
        u = u_of([1], 2)
        with pytest.raises(ValueError, match="disjoint"):
            enumerate_expectation(model, EstimatorKind("generalized", v=u), u)

    def test_dimension_mismatch(self, monkeypatch):
        # refused as the sampler refuses it, before any grid is featurized
        model = DiscreteModel(np.random.default_rng(0).random((3, 3)))
        monkeypatch.setattr(model, "features", lambda *args, **kw: pytest.fail("grid built"))
        kind = EstimatorKind("correlation1")
        with pytest.raises(ValueError):
            enumerate_expectation(model, kind, u_of([1], 3))
        with pytest.raises(DimensionError, match="dimension 3, model has 2"):
            enumerate_expectation(model, kind, u_of([1], 3))
        with pytest.raises(DimensionError):
            enumerate_expectations(model, {u_of([1], 2): [kind], u_of([1], 3): [kind]})
