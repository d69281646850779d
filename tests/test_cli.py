import csv
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sobolmc
from sobolmc import cli
from sobolmc.cli import main
from sobolmc.core import BlockSampler
from sobolmc.estimators import TAG_OF_ALIAS
from sobolmc.experiments import BUILTIN_STUDIES, builtin_config


#: a subcommand with its required flags, for the flag-bound checks
ESTIMATE_G = ["estimate", "--model", "g", "--u", "1"]
TABLE_G = ["efficiency-table", "--benchmark", "g"]


def no_draws(*args, **kwargs):
    """A stand-in for ``BlockSampler.draw_role``, the one way a run draws points."""
    raise AssertionError("drew samples before the usage checks")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _corrupt(monkeypatch, part: str, tag: str | None) -> None:
    """Break the oracle's code as one negative control; the exact suite must notice.

    ``term`` scales one factor of the sampler's ``tag`` term, ``blend`` swaps
    the operands of a feature blend, ``axes`` reads the coordinate-major index
    rows in reverse, and ``q`` scales the expanded Q_v.
    """
    from sobolmc import estimators, models, theory, verification

    if part == "term":
        real_factors = theory._term_factors

        def broken(ev, kind, u, center):
            # a scale, not a shift: both correlation2 factors have mean
            # zero, so a shifted factor would leave the mean unchanged
            left, right = real_factors(ev, kind, u, center)
            return (left * (1 + 1e-3), right) if kind.tag == tag else (left, right)

        monkeypatch.setattr(theory, "_term_factors", broken)
    elif part == "blend":
        real_blended = estimators._BatchEvals.blended
        monkeypatch.setattr(
            estimators._BatchEvals,
            "blended",
            lambda self, role_a, role_b, u: real_blended(self, role_b, role_a, u),
        )
    elif part == "axes":
        real_values = models.DiscreteModel._values
        monkeypatch.setattr(
            models.DiscreteModel, "_values", lambda self, idx: real_values(self, idx[::-1])
        )
    else:
        real_q_v = verification.q_v
        monkeypatch.setattr(verification, "q_v", lambda *args: real_q_v(*args) * (1 + 1e-6))


#: the full stdout of ``verify --levels 2 --dims 2 --trials 1`` under each
#: negative control of ``_corrupt``, by (part, tag)
FAILING_LEDGERS = {
    ("term", "correlation2"): """\
[FAIL] trial 0: E[correlation2] at u={1}
[FAIL] trial 0: E[correlation2] at u={2}
[FAIL] trial 0: E[correlation2] at u={1,2}
[FAIL] verify L=2 d=2 trials=1: 51/54 checks
""",
    ("term", "generalized"): """\
[FAIL] trial 0: E[generalized v={} v2={}] at u={1}
[FAIL] trial 0: E[generalized v={} v2={2}] at u={1}
[FAIL] trial 0: E[generalized v={2} v2={}] at u={1}
[FAIL] trial 0: E[generalized v={2} v2={2}] at u={1}
[FAIL] trial 0: E[generalized v={} v2={}] at u={2}
[FAIL] trial 0: E[generalized v={} v2={1}] at u={2}
[FAIL] trial 0: E[generalized v={1} v2={}] at u={2}
[FAIL] trial 0: E[generalized v={1} v2={1}] at u={2}
[FAIL] trial 0: E[generalized v={} v2={}] at u={1,2}
[FAIL] verify L=2 d=2 trials=1: 45/54 checks
""",
    # the first 27 lines are the enumeration failures; the Q identities fail
    # too, since they read the generalized factors from the swapped blends
    ("blend", "correlation2"): """\
[FAIL] trial 0: E[correlation1] at u={1}
[FAIL] trial 0: E[correlation2] at u={1}
[FAIL] trial 0: E[oracle1] at u={1}
[FAIL] trial 0: E[oracle2] at u={1}
[FAIL] trial 0: E[upper] at u={1}
[FAIL] trial 0: E[original cross moment] at u={1}
[FAIL] trial 0: E[generalized v={} v2={}] at u={1}
[FAIL] trial 0: E[generalized v={} v2={2}] at u={1}
[FAIL] trial 0: E[generalized v={2} v2={}] at u={1}
[FAIL] trial 0: E[generalized v={2} v2={2}] at u={1}
[FAIL] trial 0: E[correlation1] at u={2}
[FAIL] trial 0: E[correlation2] at u={2}
[FAIL] trial 0: E[oracle1] at u={2}
[FAIL] trial 0: E[oracle2] at u={2}
[FAIL] trial 0: E[upper] at u={2}
[FAIL] trial 0: E[original cross moment] at u={2}
[FAIL] trial 0: E[generalized v={} v2={}] at u={2}
[FAIL] trial 0: E[generalized v={} v2={1}] at u={2}
[FAIL] trial 0: E[generalized v={1} v2={}] at u={2}
[FAIL] trial 0: E[generalized v={1} v2={1}] at u={2}
[FAIL] trial 0: E[correlation1] at u={1,2}
[FAIL] trial 0: E[correlation2] at u={1,2}
[FAIL] trial 0: E[oracle1] at u={1,2}
[FAIL] trial 0: E[oracle2] at u={1,2}
[FAIL] trial 0: E[upper] at u={1,2}
[FAIL] trial 0: E[original cross moment] at u={1,2}
[FAIL] trial 0: E[generalized v={} v2={}] at u={1,2}
[FAIL] trial 0: Q_v equals the squared difference, v={}
[FAIL] trial 0: Q_uv' equals the squared difference, v'={}
[FAIL] trial 0: Q_v equals the squared difference, v={2}
[FAIL] trial 0: Q_uv' equals the squared difference, v'={2}
[FAIL] trial 0: Q_v equals the squared difference, v={3}
[FAIL] trial 0: Q_uv' equals the squared difference, v'={3}
[FAIL] trial 0: Q_v equals the squared difference, v={2,3}
[FAIL] trial 0: Q_uv' equals the squared difference, v'={2,3}
[FAIL] trial 0: Q_v equals the squared difference, v={4}
[FAIL] trial 0: Q_uv' equals the squared difference, v'={4}
[FAIL] trial 0: Q_v equals the squared difference, v={2,4}
[FAIL] trial 0: Q_uv' equals the squared difference, v'={2,4}
[FAIL] trial 0: Q_v equals the squared difference, v={3,4}
[FAIL] trial 0: Q_uv' equals the squared difference, v'={3,4}
[FAIL] trial 0: Q_v equals the squared difference, v={2,3,4}
[FAIL] trial 0: Q_uv' equals the squared difference, v'={2,3,4}
[FAIL] verify L=2 d=2 trials=1: 11/54 checks
""",
    ("axes", "correlation2"): """\
[FAIL] trial 0: E[correlation1] at u={1}
[FAIL] trial 0: E[correlation2] at u={1}
[FAIL] trial 0: E[oracle1] at u={1}
[FAIL] trial 0: E[oracle2] at u={1}
[FAIL] trial 0: E[upper] at u={1}
[FAIL] trial 0: E[original cross moment] at u={1}
[FAIL] trial 0: E[generalized v={} v2={}] at u={1}
[FAIL] trial 0: E[generalized v={} v2={2}] at u={1}
[FAIL] trial 0: E[generalized v={2} v2={}] at u={1}
[FAIL] trial 0: E[generalized v={2} v2={2}] at u={1}
[FAIL] trial 0: E[correlation1] at u={2}
[FAIL] trial 0: E[correlation2] at u={2}
[FAIL] trial 0: E[oracle1] at u={2}
[FAIL] trial 0: E[oracle2] at u={2}
[FAIL] trial 0: E[upper] at u={2}
[FAIL] trial 0: E[original cross moment] at u={2}
[FAIL] trial 0: E[generalized v={} v2={}] at u={2}
[FAIL] trial 0: E[generalized v={} v2={1}] at u={2}
[FAIL] trial 0: E[generalized v={1} v2={}] at u={2}
[FAIL] trial 0: E[generalized v={1} v2={1}] at u={2}
[FAIL] verify L=2 d=2 trials=1: 34/54 checks
""",
    ("q", None): """\
[FAIL] trial 0: Q_v equals the squared difference, v={}
[FAIL] trial 0: Q_v equals the squared difference, v={2}
[FAIL] trial 0: Q_v equals the squared difference, v={3}
[FAIL] trial 0: Q_v equals the squared difference, v={2,3}
[FAIL] trial 0: Q_v equals the squared difference, v={4}
[FAIL] trial 0: Q_v equals the squared difference, v={2,4}
[FAIL] trial 0: Q_v equals the squared difference, v={3,4}
[FAIL] trial 0: Q_v equals the squared difference, v={2,3,4}
[FAIL] verify L=2 d=2 trials=1: 46/54 checks
""",
}


class TestEstimate:
    def test_g_function_correlation2(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "estimate", "--model", "g", "--u", "1",
            "--estimator", "corr2", "--n", "1000000", "--seed", "7",
        )
        assert code == 0
        rec = json.loads(out)[0]
        assert abs(rec["estimate"] - 0.0675) < 4 * rec["std_error"]
        assert rec["evals"] == 4 * 1000000
        assert rec["biased"] is False

    def test_oracle2_with_pinned_center(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "estimate", "--model", "product6", "--u", "5",
            "--estimator", "orcl2", "--center", "1", "--n", "100000",
        )
        assert code == 0
        rec = json.loads(out)[0]
        assert abs(rec["estimate"] - 0.0625) < 4 * rec["std_error"]

    def test_bad_coordinate_names_it(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--model", "product6", "--u", "9", "--n", "100"
        )
        assert code == 2
        assert "coordinate 9" in err

    def test_unknown_model(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--model", "nope", "--u", "1")
        assert code == 2
        assert "nope" in err

    def test_unknown_flag_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--model", "g", "--u", "1", "--bogus"])
        assert exc.value.code == 2

    def test_generalized_with_explicit_sets(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "estimate", "--model", "g", "--u", "1", "--estimator", "gen",
            "--v", "2,3", "--v2", "2", "--n", "5000",
        )
        assert code == 0
        assert json.loads(out)[0]["evals"] == 4 * 5000

    def test_generalized_overlap_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "estimate", "--model", "g", "--u", "1", "--estimator", "gen",
            "--v", "1", "--n", "100",
        )
        assert code == 2
        assert "disjoint" in err

    def test_original_needs_two_samples(self, capsys):
        code, out, err = run_cli(capsys, *ESTIMATE_G, "--estimator", "original", "--n", "1")
        assert code == 2 and out == ""
        assert err == "error: --n must be at least 2 for --estimator original, got 1\n"

    def test_original_has_no_se(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "estimate", "--model", "g", "--u", "1", "--estimator", "original",
            "--n", "1000",
        )
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["biased"] is True
        assert rec["std_error"] is None

    def test_model_from_file(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"kind": "product", "mu": [1, 1], "tau": [1, 0.5]}))
        code, out, _ = run_cli(
            capsys, "estimate", "--model", str(path), "--u", "2", "--n", "1000"
        )
        assert code == 0
        assert json.loads(out)[0]["u"] == "{2}"

    def test_bad_model_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "product", "mu": [1], "tau": [1], "zz": 0}))
        code, _, err = run_cli(capsys, "estimate", "--model", str(path), "--u", "1")
        assert code == 2
        assert "unknown keys" in err

    def test_deterministic_output(self, capsys):
        args = ("estimate", "--model", "g", "--u", "1", "--n", "20000", "--seed", "3")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_csv_and_json_agree(self, capsys):
        args = ("estimate", "--model", "g", "--u", "1,3", "--n", "10000", "--seed", "2")
        _, out_json, _ = run_cli(capsys, *args, "--format", "json")
        _, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
        rec = json.loads(out_json)[0]
        row = list(csv.DictReader(io.StringIO(out_csv)))[0]
        for key in ("estimate", "std_error", "term_variance"):
            assert float(row[key]) == rec[key]
        assert int(row["evals"]) == rec["evals"]


class TestAnova:
    def test_g_model_values(self, capsys):
        code, out, _ = run_cli(capsys, "anova", "--model", "g")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 7  # nonempty subsets of {1,2,3}
        first = rows[0]
        assert first["mu"] == 27.0
        assert first["sigma2"] == pytest.approx(1.418025037, rel=1e-9)
        by_u = {r["u"]: r for r in rows}
        assert by_u["{1}"]["sigma2_u"] == pytest.approx(0.0675, rel=1e-12)
        assert by_u["{2,3}"]["lower_rel"] == pytest.approx(0.952, abs=5e-4)

    def test_single_set_with_note(self, capsys):
        code, out, _ = run_cli(
            capsys, "anova", "--model", "product6", "--u", "1,2"
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1
        assert rows[0]["lower"] == pytest.approx(3.0, rel=1e-12)
        assert rows[0]["lower_rel"] == pytest.approx(0.49540, abs=1e-4)
        assert "disagrees" in rows[0]["note"]

    def test_csv_and_json_numeric_equality(self, capsys):
        _, out_json, _ = run_cli(capsys, "anova", "--model", "product6", "--format", "json")
        _, out_csv, _ = run_cli(capsys, "anova", "--model", "product6", "--format", "csv")
        recs = json.loads(out_json)
        rows = list(csv.DictReader(io.StringIO(out_csv)))
        assert len(recs) == len(rows) == 63
        for rec, row in zip(recs, rows):
            assert rec["u"] == row["u"]
            for key in ("mu", "sigma2", "sigma2_u", "lower", "upper", "lower_rel"):
                assert float(row[key]) == rec[key]

    def test_discrete_model_file(self, tmp_path, capsys):
        path = tmp_path / "disc.json"
        path.write_text(json.dumps({"kind": "discrete", "levels": 3, "table": list(range(9))}))
        code, out, _ = run_cli(capsys, "anova", "--model", str(path))
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "anova.json"
        code, out, _ = run_cli(
            capsys, "anova", "--model", "g", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert len(json.loads(target.read_text())) == 7

    def test_takes_no_seed(self, capsys):
        # the ANOVA is exact, so a seed would be a flag with no effect
        with pytest.raises(SystemExit) as exc:
            main(["anova", "--model", "g", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_zero_total_variance_gives_undefined_lower_rel(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"kind": "product", "mu": [1, 1], "tau": [0, 0]}))
        code, out, _ = run_cli(capsys, "anova", "--model", str(path))
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3
        assert all(r["sigma2"] == 0.0 and r["lower_rel"] is None for r in rows)

    def test_full_listing_capped_at_dim_12(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps({"kind": "product", "mu": [1.0] * 13, "tau": [0.5] * 13})
        )
        code, _, err = run_cli(capsys, "anova", "--model", str(path))
        assert code == 2
        assert "d <= 12" in err
        # a single requested set is still fine at any dimension
        code, out, _ = run_cli(capsys, "anova", "--model", str(path), "--u", "1,13")
        assert code == 0
        assert json.loads(out)[0]["u"] == "{1,13}"


    def test_mean_of_a_large_g_function_is_exact(self, tmp_path, capsys):
        # 3.0**34 and a left-to-right product of 34 threes differ by an ulp
        path = tmp_path / "g34.json"
        path.write_text(json.dumps({"kind": "g-function", "a": [1.0] * 34}))
        code, out, _ = run_cli(capsys, "anova", "--model", str(path), "--u", "1")
        assert code == 0
        assert json.loads(out)[0]["mu"] == 3.0**34


class TestEfficiencyTable:
    def test_benchmark_csv(self, capsys):
        code, out, err = run_cli(
            capsys,
            "efficiency-table", "--benchmark", "g",
            "--n", "4000", "--replicates", "2", "--seed", "1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("u,rel_index,var_corr1")
        assert len(lines) == 7

    def test_benchmark_json_and_notes(self, capsys):
        code, out, err = run_cli(
            capsys,
            "efficiency-table", "--benchmark", "product6",
            "--n", "4000", "--replicates", "2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 9
        assert "note" in doc["rows"][6]
        assert "# note {1,2}" in err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "t.csv"
        code, _, _ = run_cli(
            capsys,
            "efficiency-table", "--benchmark", "g",
            "--n", "4000", "--replicates", "2", "--out", str(target),
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(target.read_text())))
        assert len(rows) == 6

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            json.dumps(
                {"model": "g", "us": [[1], [3]], "n": 3000, "replicates": 2, "seed": 4}
            )
        )
        code, out, _ = run_cli(capsys, "efficiency-table", "--config", str(cfg))
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    @pytest.mark.parametrize(
        "key, value",
        [
            ("center", "abc"), ("workers", "2"), ("workers", 0),
            ("n", 20.9), ("n", "abc"), ("replicates", True), ("seed", 1.0),
            ("batch_size", "7"), ("us", 5), ("us", [[1.0]]), ("kinds", "corr1"),
            ("seed", -1), ("us", []), ("us", [[1], [2], [1]]), ("us", [[1, 2], [2, 1]]),
        ],
    )
    def test_config_value_types_are_usage_errors(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "exp.json"
        doc = {"model": "g", "us": [[1]], "n": 100, "replicates": 1, "seed": 0, key: value}
        cfg.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "efficiency-table", "--config", str(cfg))
        assert code == 2
        assert err.startswith(f"error: bad experiment config {cfg}:")
        assert f"'{key}'" in err

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_config_center_must_be_finite(self, tmp_path, capsys, text):
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            '{"model": "g", "us": [[1]], "n": 100, "replicates": 1, "seed": 0, "center": %s}' % text
        )
        code, out, err = run_cli(capsys, "efficiency-table", "--config", str(cfg))
        assert code == 2 and out == ""
        value = float(text.replace("Infinity", "inf"))
        assert err == (
            f"error: bad experiment config {cfg}: "
            f"'center' must be a finite number or \"mean\", got {value!r}\n"
        )

    def test_help_shows_the_builtin_config_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["efficiency-table", "--help"])
        out = capsys.readouterr().out
        params = inspect.signature(builtin_config).parameters
        for key in ("n", "replicates", "seed"):
            assert f"(default {params[key].default})" in out

    def test_config_rejects_the_flags_it_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"model": "g", "us": [[1]], "n": 200, "replicates": 2, "seed": 0}))
        flags = ["--n", "5", "--replicates", "9", "--seed", "4", "--center", "3",
                 "--include-original"]
        code, out, err = run_cli(capsys, "efficiency-table", "--config", str(cfg), *flags)
        assert code == 2 and out == ""
        for flag in flags[::2]:
            assert flag in err
        code, _, err = run_cli(capsys, "efficiency-table", "--config", str(cfg), "--seed", "0")
        assert code == 2 and "--seed" in err
        # --threads only fills a worker count the config leaves unset
        code, _, _ = run_cli(capsys, "efficiency-table", "--config", str(cfg), "--threads", "2")
        assert code == 0
        # ... and is refused next to a config's own workers
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "workers": 1}))
        code, out, err = run_cli(capsys, "efficiency-table", "--config", str(cfg), "--threads", "2")
        assert code == 2 and out == ""
        assert err == "error: --config sets workers; drop --threads\n"

    @pytest.mark.parametrize(
        "key, value, kinds",
        [
            ("center", 3, ["corr1", "corr2", "original"]),
            ("include_original", True, ["corr1", "corr2"]),
            ("include_original", False, ["corr1", "original"]),
            ("center", "mean", ["corr1", "corr2"]),
            ("center", None, ["corr1", "original"]),
        ],
    )
    def test_config_refuses_keys_with_no_effect(self, tmp_path, capsys, key, value, kinds):
        cfg = tmp_path / "exp.json"
        doc = {"model": "g", "us": [[1]], "n": 100, "replicates": 2, "seed": 0, "kinds": kinds}
        cfg.write_text(json.dumps({**doc, key: value}))
        code, out, err = run_cli(capsys, "efficiency-table", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith(f"error: bad experiment config {cfg}:")
        assert f"'{key}'" in err
        # without the key the kinds run, and a center runs once an oracle kind reads it;
        # JSON output, because the CSV has no column for original
        runs = {**doc, "kinds": kinds + ["orcl1"], key: value} if key == "center" else doc
        cfg.write_text(json.dumps(runs))
        assert run_cli(capsys, "efficiency-table", "--config", str(cfg), "--format", "json")[0] == 0

    @pytest.mark.parametrize(
        "source, config",
        [
            pytest.param("--include-original", None, id="flag"),
            pytest.param("'kinds'", {"kinds": ["corr1", "original"]}, id="kinds"),
            pytest.param("'include_original'", {"include_original": True}, id="include_original"),
        ],
    )
    def test_original_needs_json_output(self, tmp_path, capsys, monkeypatch, source, config):
        # the CSV schema has no original_estimate column: asking for original
        # there would accumulate it and drop it unseen, so it exits 2 before sampling
        if config is None:
            argv = [*TABLE_G, "--n", "3000", "--replicates", "2", "--include-original"]
        else:
            cfg = tmp_path / "exp.json"
            doc = {"model": "g", "us": [[1]], "n": 3000, "replicates": 2, "seed": 0}
            cfg.write_text(json.dumps({**doc, **config}))
            argv = ["efficiency-table", "--config", str(cfg)]
        with monkeypatch.context() as patched:
            patched.setattr(BlockSampler, "draw_role", no_draws)
            for fmt in ([], ["--format", "csv"]):
                code, out, err = run_cli(capsys, *argv, *fmt)
                assert code == 2 and out == ""
                assert source in err and "--format json" in err, err
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert "original_estimate" in json.loads(out)["rows"][0]

    def test_inert_coordinate_gives_undefined_efficiencies(self, tmp_path, capsys):
        # tau_3 = 0: corr1, corr2 and orcl1 terms are exact zeros at u = {3}
        cfg = tmp_path / "exp.json"
        model = {"kind": "product", "mu": [1, 1, 1], "tau": [1, 0.5, 0]}
        doc = {"model": model, "us": [[1], [3]], "n": 2000, "replicates": 3, "seed": 0}
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "efficiency-table", "--config", str(cfg), "--format", "json"
        )
        assert code == 0
        healthy, inert = json.loads(out)["rows"]
        assert healthy["eff_corr2"] > 0 and healthy["se_eff_corr2"] > 0
        assert inert["var_corr1"] == inert["var_corr2"] == inert["var_orcl1"] == 0.0
        assert inert["var_orcl2"] > 0
        for col in ("eff_corr1", "eff_corr2", "eff_orcl1", "eff_orcl2",
                    "se_eff_corr2", "se_eff_orcl1", "se_eff_orcl2"):
            assert inert[col] is None, col
        assert "zero term variance for corr1, corr2, orcl1" in inert["note"]
        assert "# note {3}: zero term variance" in err
        code, out, _ = run_cli(capsys, "efficiency-table", "--config", str(cfg))
        assert code == 0
        row = list(csv.DictReader(io.StringIO(out)))[1]
        assert row["u"] == "{3}" and row["eff_corr2"] == "" and row["se_eff_orcl2"] == ""

    def test_zero_total_variance_gives_undefined_rel_index(self, tmp_path, capsys):
        cfg = tmp_path / "exp.json"
        model = {"kind": "product", "mu": [1, 1], "tau": [0, 0]}
        doc = {"model": model, "us": [[1], [1, 2]], "n": 100, "replicates": 2, "seed": 0}
        cfg.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "efficiency-table", "--config", str(cfg))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["rel_index"] for r in rows] == ["", ""]
        code, out, _ = run_cli(
            capsys, "efficiency-table", "--config", str(cfg), "--format", "json"
        )
        assert code == 0
        assert [r["rel_index"] for r in json.loads(out)["rows"]] == [None, None]

    @pytest.mark.parametrize("name, fmt", [("g", "csv"), ("g", "json"), ("product6", "json")])
    def test_benchmark_equals_its_config(self, tmp_path, capsys, name, fmt):
        # a builtin alias in a config brings the same rows, values and notes
        cfg = tmp_path / "exp.json"
        doc = {"model": name, "us": BUILTIN_STUDIES[name], "n": 3000, "replicates": 2, "seed": 4}
        cfg.write_text(json.dumps(doc))
        from_config = run_cli(capsys, "efficiency-table", "--config", str(cfg), "--format", fmt)
        from_benchmark = run_cli(
            capsys,
            "efficiency-table", "--benchmark", name, "--format", fmt,
            "--n", "3000", "--replicates", "2", "--seed", "4",
        )
        assert from_benchmark == from_config
        assert from_config[0] == 0
        assert ("# note {1,2}" in from_config[2]) == (name == "product6")

    def test_io_error_names_path(self, capsys):
        code, _, err = run_cli(
            capsys,
            "efficiency-table", "--benchmark", "g", "--n", "100", "--replicates", "1",
            "--out", "/no/such/dir/t.csv",
        )
        assert code == 1
        assert "/no/such/dir/t.csv" in err

    @pytest.mark.parametrize("value", ["-5", "0", "abc"])
    def test_bad_worker_count_names_its_source(self, monkeypatch, capsys, value):
        argv = ["efficiency-table", "--benchmark", "g", "--n", "100", "--replicates", "1"]

        def exit_code_and_err(*extra):
            try:
                code = main(argv + list(extra))
            except SystemExit as exc:  # argparse rejects non-integers itself
                code = exc.code
            return code, capsys.readouterr().err

        monkeypatch.delenv("SOBOL_THREADS", raising=False)
        code, err = exit_code_and_err("--threads", value)
        assert code == 2 and "--threads" in err
        monkeypatch.setenv("SOBOL_THREADS", value)
        code, err = exit_code_and_err()
        assert code == 2 and "SOBOL_THREADS" in err

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, "efficiency-table")
        assert code == 2
        assert "exactly one" in err
        code, _, err = run_cli(
            capsys, "efficiency-table", "--benchmark", "g", "--config", "x.json"
        )
        assert code == 2

    def test_include_original_adds_json_field(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "efficiency-table", "--benchmark", "g", "--n", "3000",
            "--replicates", "2", "--include-original", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert "original_estimate" in doc["rows"][0]

    def test_sobol_threads_env(self, monkeypatch, capsys):
        from sobolmc.experiments import resolve_workers

        monkeypatch.setenv("SOBOL_THREADS", "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(2) == 2
        monkeypatch.delenv("SOBOL_THREADS")
        assert resolve_workers(None) == 1
        monkeypatch.setenv("SOBOL_THREADS", "2")
        code, out, _ = run_cli(
            capsys,
            "efficiency-table", "--benchmark", "g", "--n", "3000", "--replicates", "2",
        )
        assert code == 0


class TestVerify:
    def test_passes_on_default_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--levels", "3", "--dims", "2", "--trials", "3", "--seed", "1"
        )
        assert code == 0
        assert "[PASS]" in out

    def test_one_grid_per_trial(self, monkeypatch):
        # one oracle call per trial, featurizing its grid once per role:
        # 4 calls on a 3-d trial, not one per set or per kind
        from sobolmc import models
        from sobolmc.verification import verify_suite

        calls = []
        real_features = models.DiscreteModel.features

        def spy(self, x, out=None):
            calls.append(x.shape)
            return real_features(self, x, out)

        monkeypatch.setattr(models.DiscreteModel, "features", spy)
        assert verify_suite(levels=3, dims=3, trials=1, log=None) is True
        assert len(calls) <= 4, len(calls)

    @pytest.mark.parametrize(
        "part, tag",
        [
            pytest.param("term", "correlation2", id="term"),
            pytest.param("term", "generalized", id="term-generalized"),
            pytest.param("blend", "correlation2", id="blend"),
            pytest.param("axes", "correlation2", id="axes"),
        ],
    )
    def test_corrupted_estimator_fails(self, capsys, monkeypatch, part, tag):
        from sobolmc.verification import verify_suite

        _corrupt(monkeypatch, part, tag)
        assert verify_suite(levels=3, dims=2, trials=1, log=None) is False
        code, out, _ = run_cli(capsys, "verify", "--trials", "1")
        assert code == 1
        assert "[FAIL]" in out and f"E[{tag}" in out

    @pytest.mark.parametrize("part, tag", list(FAILING_LEDGERS))
    def test_failing_ledgers_keep_their_bytes(self, capsys, monkeypatch, part, tag):
        _corrupt(monkeypatch, part, tag)
        code, out, _ = run_cli(capsys, "verify", "--levels", "2", "--dims", "2", "--trials", "1")
        assert code == 1
        assert out == FAILING_LEDGERS[part, tag]

    @pytest.mark.parametrize(
        "levels, dims, trials, close",
        [
            ("1", "3", "2", "[PASS] verify L=1 d=3 trials=2: 256/256 checks"),
            ("2", "1", "2", "[PASS] verify L=2 d=1 trials=2: 48/48 checks"),
            ("5", "1", "1", "[PASS] verify L=5 d=1 trials=1: 30/30 checks"),
            ("2", "4", "1", "[PASS] verify L=2 d=4 trials=1: 502/502 checks"),
        ],
    )
    def test_edge_grids_close_with_their_counts(self, capsys, levels, dims, trials, close):
        # one level (a constant table), one dimension, and four dimensions
        code, out, _ = run_cli(
            capsys, "verify", "--levels", levels, "--dims", dims, "--trials", trials
        )
        assert code == 0
        assert out == close + "\n"

    @pytest.mark.parametrize(
        "argv, flag, value, least",
        [
            pytest.param(["verify"], "--trials", "0", 1, id="--trials-0"),
            pytest.param(["verify"], "--trials", "-1", 1, id="--trials--1"),
            pytest.param(["verify"], "--levels", "0", 1, id="--levels-0"),
            pytest.param(["verify"], "--levels", "-2", 1, id="--levels--2"),
            pytest.param(["verify"], "--dims", "0", 1, id="--dims-0"),
            pytest.param(["verify"], "--seed", "-1", 0, id="verify--seed--1"),
            pytest.param(["verify"], "--max-states", "0", 1, id="--max-states-0"),
            pytest.param(["verify"], "--max-states", "-5", 1, id="--max-states--5"),
            pytest.param(ESTIMATE_G, "--seed", "-1", 0, id="estimate--seed--1"),
            pytest.param(ESTIMATE_G, "--n", "0", 1, id="estimate--n-0"),
            pytest.param(TABLE_G, "--seed", "-1", 0, id="efficiency-table--seed--1"),
            pytest.param(TABLE_G, "--n", "1", 2, id="efficiency-table--n-1"),
            pytest.param(TABLE_G, "--replicates", "0", 1, id="efficiency-table--replicates-0"),
            pytest.param(TABLE_G, "--threads", "0", 1, id="efficiency-table--threads-0"),
        ],
    )
    def test_sizes_below_one_are_usage_errors(self, capsys, argv, flag, value, least):
        # every bounded size and seed flag of every subcommand is named with its bound
        code, out, err = run_cli(capsys, *argv, flag, value)
        assert code == 2
        assert out == ""
        assert f"{flag} must be at least {least}, got {value}" in err

    def test_budget_overflow_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--levels", "100", "--dims", "4")
        assert code == 2
        assert "budget" in err


#: the estimate flags each kind takes, by --estimator alias
TAKES = {"--center": {"orcl1", "orcl2"}, "--v": {"gen"}, "--v2": {"gen"}}
ALIASES = ("original", "corr1", "corr2", "orcl1", "orcl2", "gen", "upper")


def test_flag_table_lists_every_estimator():
    assert sorted(ALIASES) == sorted(TAG_OF_ALIAS)


@pytest.mark.parametrize("flag", sorted(TAKES))
@pytest.mark.parametrize("alias", ALIASES)
def test_estimate_refuses_a_flag_its_kind_does_not_take(capsys, alias, flag):
    # on g with u = {1}, --v 2 and --v2 2 are admissible blending sets
    value = "1" if flag == "--center" else "2"
    code, out, err = run_cli(capsys, *ESTIMATE_G, "--estimator", alias, "--n", "100", flag, value)
    if alias in TAKES[flag]:
        assert code == 0 and err == ""
    else:
        assert code == 2 and out == ""
        assert err == f"error: --estimator {alias} takes no {flag}\n"


@pytest.mark.parametrize("flag, value", [("--v", "1"), ("--v2", "1,2")])
def test_blending_sets_must_miss_u(capsys, monkeypatch, flag, value):
    monkeypatch.setattr(BlockSampler, "draw_role", no_draws)
    code, out, err = run_cli(capsys, *ESTIMATE_G, "--estimator", "gen", flag, value)
    assert code == 2 and out == ""
    assert err == f"error: {flag} {{{value}}} must be disjoint from --u {{1}}\n"
    # the stand-in does see the draws of a run that passes the checks
    code, _, err = run_cli(capsys, *ESTIMATE_G, "--estimator", "gen", flag, "3", "--n", "10")
    assert code == 1 and "drew samples" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(ESTIMATE_G + ["--estimator", "orcl1"], id="estimate-orcl1"),
        pytest.param(ESTIMATE_G + ["--estimator", "orcl2"], id="estimate-orcl2"),
        pytest.param(TABLE_G, id="efficiency-table"),
    ],
)
def test_center_must_be_finite(capsys, argv, value):
    code, out, err = run_cli(capsys, *argv, f"--center={value}")
    assert code == 2 and out == ""
    assert err == f"error: --center must be finite, got {float(value)}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--model", "g", "--u", "1", "--n", "100"],
        ["anova", "--model", "product6"],
        ["efficiency-table", "--benchmark", "g", "--n", "100", "--replicates", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_lines_end_in_a_bare_newline(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert "\r" not in out
    assert len(out.splitlines()) > 1


def test_console_script_wiring():
    # the child imports the package under test, found however this process found it
    src = str(Path(sobolmc.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sobolmc.cli", "anova", "--model", "g", "--u", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)[0]["sigma2_u"] == pytest.approx(0.0675, rel=1e-12)


def test_package_runs_as_a_module():
    # python -m sobolmc is the CLI, as the console script is
    src = str(Path(sobolmc.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sobolmc", "verify", "--trials", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1].startswith("[PASS]")


def strict_json(text: str):
    """json.loads refusing the NaN and Infinity tokens, which JSON does not have."""

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "doc, key",
    [
        pytest.param({"kind": "g-function"}, "'a'", id="missing-a"),
        pytest.param({"kind": "product", "mu": [1.0]}, "'tau'", id="missing-tau"),
        pytest.param({"kind": "discrete", "table": [1.0, 2.0]}, "'levels'", id="missing-levels"),
        pytest.param({"kind": "discrete", "levels": True, "table": [1, 2]}, "'levels'", id="levels-true"),
        pytest.param({"kind": "discrete", "levels": 0, "table": []}, "'levels'", id="levels-0"),
        pytest.param({"kind": "discrete", "levels": 2.0, "table": [1, 2]}, "'levels'", id="levels-float"),
        pytest.param({"kind": "discrete", "levels": 2, "table": "ab"}, "'table'", id="table-str"),
        pytest.param({"kind": "discrete", "levels": 2, "table": [[1, 2], [3, None]]}, "'table'", id="table-null"),
        pytest.param({"kind": "g-function", "a": 3}, "'a'", id="a-number"),
        pytest.param({"kind": "g-function", "a": [1, "2"]}, "'a'", id="a-str-entry"),
        pytest.param({"kind": "g-function", "a": [False]}, "'a'", id="a-bool"),
        pytest.param({"kind": "product", "mu": [1.0], "tau": [1e400]}, "'tau'", id="tau-infinite"),
        pytest.param({"kind": "product", "mu": [1], "tau": [1], "g": "foo"}, "'g'", id="g-unknown"),
        pytest.param({"kind": "product", "mu": [1], "tau": [1], "g": 3}, "'g'", id="g-number"),
    ],
)
def test_bad_model_documents_are_usage_errors(tmp_path, capsys, doc, key):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "estimate", "--model", str(path), "--u", "1", "--n", "10")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: bad model file {path}:") and key in err


def test_a_flat_table_with_one_level_holds_one_cell(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "discrete", "levels": 1, "table": [1.0, 2.0]}))
    code, _, err = run_cli(capsys, "anova", "--model", str(path))
    assert code == 2 and "not a 1^d hypercube" in err
    path.write_text(json.dumps({"kind": "discrete", "levels": 1, "table": [2.5]}))
    code, out, _ = run_cli(capsys, "anova", "--model", str(path))
    assert code == 0 and strict_json(out)[0]["mu"] == 2.5


def test_overflowing_models_print_strict_json(tmp_path, capsys):
    # finite parameters whose products overflow: the non-finite cells are null
    model = {"kind": "product", "mu": [1e200, 1e200], "tau": [1.0, 1.0]}
    path, cfg = tmp_path / "model.json", tmp_path / "exp.json"
    path.write_text(json.dumps(model))
    cfg.write_text(json.dumps({"model": model, "us": [[1]], "n": 100, "replicates": 2, "seed": 0}))
    with pytest.warns(RuntimeWarning):
        code, out, _ = run_cli(capsys, "anova", "--model", str(path))
    assert code == 0 and strict_json(out)[0]["sigma2"] is None
    with pytest.warns(RuntimeWarning):
        code, out, _ = run_cli(capsys, "efficiency-table", "--config", str(cfg), "--format", "json")
    assert code == 0 and strict_json(out)["rows"][0]["var_corr1"] is None


#: the model and experiment documents whose outputs overflow, and the CSV
#: each command prints for them (None: the path, in the first column, varies)
OVERFLOWING = {
    "anova": """\
u,mu,sigma2,sigma2_u,lower,upper,lower_rel,note
{1},,,,,,,
{2},,,,,,,
"{1,2}",,,1.0,,,,
""",
    "estimate": None,
    "efficiency-table": """\
u,rel_index,var_corr1,var_corr2,var_orcl1,var_orcl2,eff_corr1,eff_corr2,eff_orcl1,eff_orcl2,se_eff_corr2,se_eff_orcl1,se_eff_orcl2
{1},0.5,,,,,,,,,,,
{2},5e-155,,,,,,,,,,,
""",
}


@pytest.mark.parametrize("command", list(OVERFLOWING))
def test_csv_writes_a_non_finite_number_as_an_empty_field(tmp_path, capsys, command):
    # the JSON null rule: an infinite or NaN cell is empty, a finite one keeps its text
    path, cfg = tmp_path / "model.json", tmp_path / "exp.json"
    path.write_text(json.dumps({"kind": "product", "mu": [1e200, 1e200], "tau": [1.0, 1.0]}))
    # tau 1e77 makes the term variances overflow to inf, not NaN
    model = {"kind": "product", "mu": [1.0, 1.0], "tau": [1e77, 1.0]}
    doc = {"model": model, "us": [[1], [2]], "n": 200, "replicates": 2, "seed": 1}
    cfg.write_text(json.dumps(doc))
    argv = {
        "anova": ["anova", "--model", str(path)],
        "estimate": ["estimate", "--model", str(path), "--u", "1", "--n", "100",
                     "--estimator", "corr1"],
        "efficiency-table": ["efficiency-table", "--config", str(cfg)],
    }[command]
    with np.errstate(all="ignore"):
        code, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        _, out_json, _ = run_cli(capsys, *argv, "--format", "json")
    records = strict_json(out_json)
    records = records["rows"] if command == "efficiency-table" else records
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    assert len(rows) == len(records)
    nulls = 0
    for row, rec in zip(rows, records):
        for key, text in row.items():
            if rec[key] is None:
                nulls += 1
                assert text == "", (key, text)
            elif isinstance(rec[key], float):
                assert float(text) == rec[key], (key, text)
    assert nulls > 0
    want = OVERFLOWING[command]
    if want is None:
        assert out_csv.splitlines()[1].endswith(",corr1,{1},100,0,,,,300,False")
    else:
        assert out_csv == want


#: ``estimate --n 5000`` JSON on g for two sets where y reads no coordinate
UNREAD_Y = {
    ("upper", ""): ("{}", 0.0, 0.0, 0.0),
    ("orcl2", "1,2,3"): ("{1,2,3}", 1.431743633758379, 0.022868497068190666, 2.6148407907892253),
}


@pytest.mark.parametrize("alias, u", list(UNREAD_Y))
def test_a_role_no_value_reads_is_never_drawn(capsys, monkeypatch, alias, u):
    # upper at u = {} and orcl2 at u = full read no coordinate of y: y's
    # stream is never opened, and x's numbers are those of a pass that drew y
    from sobolmc.core import RngSpec

    opened = []
    real_stream = RngSpec.stream

    def spy(self, role):
        opened.append(role)
        return real_stream(self, role)

    monkeypatch.setattr(RngSpec, "stream", spy)
    code, out, _ = run_cli(
        capsys, "estimate", "--model", "g", "--u", u, "--estimator", alias, "--n", "5000"
    )
    assert code == 0
    assert opened == ["x"]
    text_u, estimate, std_error, term_variance = UNREAD_Y[alias, u]
    assert strict_json(out) == [{
        "model": "g", "estimator": alias, "u": text_u, "n": 5000, "seed": 0,
        "estimate": estimate, "std_error": std_error, "term_variance": term_variance,
        "evals": 5000, "biased": False,
    }]


@pytest.mark.parametrize("flag", ["--u", "--v", "--v2"])
def test_a_repeated_coordinate_names_its_flag(capsys, monkeypatch, flag):
    monkeypatch.setattr(BlockSampler, "draw_role", no_draws)
    argv = ["estimate", "--model", "g", "--estimator", "gen", "--u", "1", flag, "2,3,2"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {flag}: coordinate 2 is repeated\n"


def test_a_repeated_coordinate_in_a_config_names_us(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(BlockSampler, "draw_role", no_draws)
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"model": "g", "us": [[1, 1]], "n": 100, "replicates": 2, "seed": 0}))
    code, out, err = run_cli(capsys, "efficiency-table", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: bad experiment config {cfg}: 'us': coordinate 1 is repeated\n"


def test_efficiency_table_help_says_what_se_eff_is(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["efficiency-table", "--help"])
    assert exit_.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "se_eff_* column is the delete-one jackknife standard error" in text
    assert "over the R replicates" in text and "t_{R-1}" in text


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one in-process call; a SystemExit is an exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exit_:
        code = exit_.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_reused_parser_leaks_no_state(tmp_path, capsys):
    # one parser serves every call of a process; each call must print what
    # the same argv prints through a freshly built parser
    calls = [
        ["estimate", "--model", "product6", "--u", "1", "--estimator", "orcl1", "--center", "1.5", "--n", "50"],
        ["estimate", "--model", "product6", "--u", "1", "--estimator", "gen", "--v", "2,3", "--n", "50"],
        ["estimate", "--model", "product6", "--u", "1", "--estimator", "orcl1", "--n", "50"],
        ["estimate", "--model", "product6", "--u", "1", "--estimator", "gen", "--n", "50"],
        ["estimate", "--model", "g", "--u", "1", "--n", "50", "--format", "csv"],
        ["estimate", "--model", "g", "--n", "50"],  # exit 2: --u is required
        ["estimate", "--model", "g", "--u", "1", "--estimator", "corr1", "--n", "50", "--seed", "3"],
        ["estimate", "--help"],
        ["anova", "--model", "g"],
        ["efficiency-table", "--benchmark", "g", "--n", "100", "--replicates", "2"],
        ["verify", "--trials", "1"],
    ]
    cli._parser.cache_clear()
    parser = cli._parser()
    reused = [_outcome(capsys, argv) for argv in calls]
    assert cli._parser() is parser
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
        assert cli._parser() is not parser
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0]
    assert reused == fresh
