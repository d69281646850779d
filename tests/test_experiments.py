import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sobolmc import models
from sobolmc.cli import main
from sobolmc.core import IndexSet
from sobolmc.experiments import (
    COMPARED_KINDS,
    CSV_HEADER,
    EfficiencyTable,
    ExperimentConfig,
    builtin_config,
    builtin_note,
    config_from_json,
    csv_text,
    efficiency,
    g_function_study,
    product6_study,
    run_efficiency_experiment,
)
from sobolmc.models import analytic_anova, builtin_model


def u_of(ix, dim):
    return IndexSet.from_indices(ix, dim)


class TestEfficiency:
    def test_cost_factors(self):
        assert efficiency(1.0, 1.0, 3, 4) == 0.75
        assert efficiency(1.0, 1.0, 3, 2) == 1.5
        assert efficiency(1.0, 0.5, 3, 3) == 2.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            efficiency(0.0, 1.0, 3, 3)
        with pytest.raises(ValueError):
            efficiency(1.0, -1.0, 3, 3)
        with pytest.raises(ValueError):
            efficiency(1.0, 1.0, 0, 3)


class TestConfigValidation:
    def base(self, **kw):
        args = dict(
            model=builtin_model("g"),
            us=(u_of([1], 3),),
            n=100,
            replicates=2,
            seed=0,
        )
        args.update(kw)
        return ExperimentConfig(**args)

    def test_bounds(self):
        with pytest.raises(ValueError):
            self.base(n=1)
        with pytest.raises(ValueError):
            self.base(replicates=0)
        with pytest.raises(ValueError, match="batch_size"):
            self.base(batch_size=0)

    def test_kind_gating(self):
        self.base(kinds=COMPARED_KINDS + ("original",))
        self.base(kinds=("correlation1", "original"))
        with pytest.raises(ValueError, match="not allowed"):
            self.base(kinds=("correlation1", "upper"))
        with pytest.raises(ValueError, match="baseline"):
            self.base(kinds=("correlation2",))

    def test_center_needs_an_oracle_kind(self):
        self.base(kinds=("correlation1", "oracle2"), center=3.0)
        with pytest.raises(ValueError, match="'center'"):
            self.base(kinds=("correlation1", "correlation2", "original"), center=3.0)

    def test_repeated_sets(self):
        self.base(us=(u_of([1], 3), u_of([1, 2], 3)))
        with pytest.raises(ValueError, match=r"'us' repeats the target set \{1,2\}"):
            self.base(us=(u_of([1, 2], 3), u_of([3], 3), u_of([2, 1], 3)))


@pytest.fixture(scope="module")
def small_g():
    return g_function_study(n=20_000, replicates=3, seed=11)


class TestStudies:
    def test_row_layout(self, small_g):
        assert [str(r.u) for r in small_g.rows] == [
            "{1}", "{2}", "{3}", "{1,2}", "{1,3}", "{2,3}"
        ]
        for row in small_g.rows:
            assert row.eff_corr1 == 1.0
            assert row.eff_corr2 > 0 and row.eff_orcl1 > 0 and row.eff_orcl2 > 0
            assert row.se_eff_corr2 is not None and row.se_eff_corr2 >= 0

    def test_rel_index_is_analytic(self, small_g):
        rep = analytic_anova(builtin_model("g"))
        for row in small_g.rows:
            assert row.rel_index == pytest.approx(
                rep.lower_u[row.u] / rep.sigma2, rel=1e-12
            )

    def test_product6_notes_on_pair_rows(self):
        table = product6_study(n=5_000, replicates=2, seed=1)
        assert len(table.rows) == 9
        for row in table.rows:
            if len(row.u) == 2:
                assert "disagrees" in row.note
            else:
                assert row.note == ""
        assert builtin_note("product6", u_of([1, 2], 6)) != ""
        assert builtin_note("product6", u_of([1], 6)) == ""
        assert builtin_note("g", u_of([1, 2], 3)) == ""

    def test_thread_workers_change_nothing(self):
        serial = g_function_study(n=8_000, replicates=3, seed=2, workers=1)
        threaded = g_function_study(n=8_000, replicates=3, seed=2, workers=3)
        for ra, rb in zip(serial.rows, threaded.rows):
            assert ra.var_corr1 == rb.var_corr1
            assert ra.eff_corr2 == rb.eff_corr2
            assert ra.se_eff_orcl1 == rb.se_eff_orcl1

    def test_include_original(self):
        table = g_function_study(n=5_000, replicates=2, seed=3, include_original=True)
        for row in table.rows:
            assert row.original_estimate is not None

    def test_oracle_center_changes_oracle_columns_only(self):
        exact = g_function_study(n=8_000, replicates=2, seed=4)
        imperfect = g_function_study(n=8_000, replicates=2, seed=4, center=26.8)
        for ra, rb in zip(exact.rows, imperfect.rows):
            assert ra.var_corr1 == rb.var_corr1
            assert ra.var_corr2 == rb.var_corr2
            assert ra.var_orcl1 != rb.var_orcl1
            assert ra.var_orcl2 != rb.var_orcl2


class TestCsv:
    def test_header_and_rows(self):
        table = g_function_study(n=5_000, replicates=2, seed=1)
        text = csv_text(table)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 6
        assert rows[0]["u"] == "{1}"
        assert rows[3]["u"] == "{1,2}"
        assert rows[0]["eff_corr1"] == "1"
        # shortest round-trip decimals
        got = float(rows[0]["var_corr1"])
        assert got == table.rows[0].var_corr1

    def test_empty_table_is_header_only(self):
        table = EfficiencyTable(rows=[], model_name="none", n=0, replicates=0, seed=0)
        assert csv_text(table) == CSV_HEADER + "\n"

    def test_csv_text_matches_file(self, tmp_path, capsys):
        table = g_function_study(n=5_000, replicates=2, seed=1)
        path = tmp_path / "t.csv"
        argv = ["efficiency-table", "--benchmark", "g", "--n", "5000", "--replicates", "2"]
        assert main(argv + ["--seed", "1", "--out", str(path)]) == 0
        assert path.read_text() == csv_text(table)


class TestConfigJson:
    def test_only_requested_sets_are_computed(self, monkeypatch):
        calls = []
        original = models.product_set_indices

        def counted(model, u):
            calls.append(u)
            return original(model, u)

        monkeypatch.setattr(models, "product_set_indices", counted)
        doc = {
            "model": {"kind": "product", "mu": [1.0] * 12, "tau": [0.5] * 12},
            "us": [[1], [2, 12]], "n": 200, "replicates": 1, "seed": 3,
        }
        table = run_efficiency_experiment(config_from_json(doc))
        assert len(table.rows) == 2
        assert len(calls) == 3  # the two sets and the full set's total variance

    def test_builtin_alias_brings_its_notes(self):
        doc = {"model": "product6", "us": [[1], [5, 6]], "n": 100, "replicates": 1, "seed": 0}
        notes = config_from_json(doc).notes
        assert notes[u_of([1], 6)] == ""
        assert "disagrees" in notes[u_of([5, 6], 6)]
        doc["model"] = {"kind": "product", "mu": [1.0] * 6, "tau": [1, 1, 0.5, 0.5, 0.25, 0.25]}
        assert not any(config_from_json(doc).notes.values())

    def test_builtin_config_holds_the_study_defaults(self):
        cfg = builtin_config("g")
        assert (cfg.n, cfg.replicates, cfg.seed) == (1_000_000, 10, 0)
        assert (cfg.center, cfg.workers, cfg.kinds) == (None, None, COMPARED_KINDS)

    def test_roundtrip(self):
        doc = {
            "model": "product6",
            "us": [[1], [5, 6]],
            "n": 5000,
            "replicates": 2,
            "seed": 9,
            "center": "mean",
        }
        cfg = config_from_json(doc)
        assert cfg.center is None
        assert cfg.us == (u_of([1], 6), u_of([5, 6], 6))
        table = run_efficiency_experiment(cfg)
        assert len(table.rows) == 2

    def test_nested_model_document(self):
        cfg = config_from_json(
            {
                "model": {"kind": "g-function", "a": [19, 9, 4]},
                "us": [[1]],
                "n": 100,
                "replicates": 1,
                "seed": 0,
            }
        )
        assert cfg.model.dim == 3

    def test_kind_aliases(self):
        cfg = config_from_json(
            {
                "model": "g",
                "us": [[1]],
                "n": 100,
                "replicates": 1,
                "seed": 0,
                "kinds": ["corr1", "corr2"],
            }
        )
        assert cfg.kinds == ("correlation1", "correlation2")

    def test_unknown_and_missing_keys(self):
        with pytest.raises(ValueError, match="unknown experiment keys"):
            config_from_json({"model": "g", "us": [[1]], "n": 10, "replicates": 1, "seed": 0, "x": 1})
        with pytest.raises(ValueError, match="needs 'seed'"):
            config_from_json({"model": "g", "us": [[1]], "n": 10, "replicates": 1})

    def test_partial_kinds_leave_missing_columns_empty(self):
        cfg = config_from_json(
            {
                "model": "g",
                "us": [[1]],
                "n": 2000,
                "replicates": 2,
                "seed": 0,
                "kinds": ["corr1", "orcl2"],
            }
        )
        table = run_efficiency_experiment(cfg)
        row = table.rows[0]
        assert row.var_corr2 is None and row.eff_corr2 is None
        assert row.eff_orcl2 is not None
        text = csv_text(table)
        parsed = list(csv.DictReader(io.StringIO(text)))[0]
        assert parsed["var_corr2"] == ""

    def test_jackknife_se_needs_replicates(self):
        table = g_function_study(n=2_000, replicates=1, seed=1)
        assert table.rows[0].se_eff_corr2 is None


def _product_config(mu, tau, sets, n, replicates, batch_size, workers):
    return config_from_json(
        {
            "model": {"kind": "product", "mu": mu, "tau": tau},
            "us": sets,
            "n": n,
            "replicates": replicates,
            "seed": 0,
            "batch_size": batch_size,
            "workers": workers,
        }
    )


@st.composite
def product_experiments(draw):
    d = draw(st.integers(1, 4))
    mu = draw(st.lists(st.floats(0.5, 2.0), min_size=d, max_size=d))
    tau = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=d, max_size=d))
    extra = draw(st.lists(st.frozensets(st.integers(1, d), min_size=1), max_size=2))
    # distinct sets, the full set first: a repeated target set is refused
    sets = [sorted(s) for s in dict.fromkeys([frozenset(range(1, d + 1)), *extra])]
    n = draw(st.integers(2, 17))
    batch_size = draw(st.sampled_from([1, 5, n]))
    replicates = draw(st.integers(2, 3))
    return mu, tau, sets, n, replicates, batch_size


@settings(max_examples=20, deadline=None)
@given(product_experiments())
def test_product_tables_are_thread_independent_and_exact(case):
    mu, tau, sets, n, replicates, batch_size = case
    serial, threaded = (
        run_efficiency_experiment(_product_config(mu, tau, sets, n, replicates, batch_size, w))
        for w in (1, 2)
    )
    assert csv_text(serial) == csv_text(threaded)
    mu2 = [m * m for m in mu]
    sigma2 = math.prod(m + t * t for m, t in zip(mu2, tau)) - math.prod(mu2)
    for row, members in zip(serial.rows, sets):
        if all(t == 0.0 for t in tau):
            assert row.rel_index is None
            continue
        lower = math.prod(
            m + t * t if j + 1 in members else m for j, (m, t) in enumerate(zip(mu2, tau))
        ) - math.prod(mu2)
        assert row.rel_index == pytest.approx(lower / sigma2, rel=1e-9, abs=1e-12)
