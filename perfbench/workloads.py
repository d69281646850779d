"""The four benchmark workloads: inputs made from a seed, timed ops, gates.

``prepare`` is the set-up the benchmark times as ``setup_s``: it imports
sobolmc (through this module's imports), builds every model, computes the
exact ANOVA the gates compare against, and writes the model file the CLI
workload loads.  Each ``Op`` is one call into a workload's entry point and
returns ``(text, value)``: the bytes a user would see and the Python value
behind them.  Its ``check`` returns None or the reason the output is wrong.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from sobolmc import cli, experiments, verification
from sobolmc.core import IndexSet
from sobolmc.estimators import DEFAULT_BATCH
from sobolmc.models import analytic_anova, builtin_model, model_from_json

DEFAULT_SEED = 2026
WORKERS = {"study-product6": 1, "study-g-2w": 2, "estimate-cli": 1, "verify-grid": 1}

#: workload sizes; "tiny" is for the benchmark's own smoke test
SIZES = {
    "full": {
        "study-product6": {"n": 40_000, "replicates": 2},
        "study-g-2w": {"n": 40_000, "replicates": 8},
        "estimate-cli": {"n": None},  # None: the CLI default, 10^5
        "verify-grid": {"levels": 3, "dims": 3, "trials": 4},
    },
    "tiny": {
        "study-product6": {"n": 1_000, "replicates": 2},
        "study-g-2w": {"n": 1_000, "replicates": 2},
        "estimate-cli": {"n": 2_000},
        "verify-grid": {"levels": 2, "dims": 2, "trials": 2},
    },
}

#: function values per sample of each CLI estimator (the paper's costs)
CLI_COSTS = {"corr1": 3, "corr2": 4, "orcl1": 3, "orcl2": 2, "gen": 4, "upper": 2, "original": 2}
STUDY_COSTS = {"corr1": 3, "corr2": 4, "orcl1": 3, "orcl2": 2}
Z_LIMIT = 5.0
EFF_REL_TOL = 1e-12
_LEDGER_CLOSE = re.compile(r"^\[PASS\] verify .*: (\d+)/(\d+) checks$")


@dataclass
class Op:
    run: Callable[[], tuple[str, object]]
    check: Callable[[str, object], str | None]
    samples: int  # pick-freeze rows, or enumerated grid states on verify-grid


@dataclass
class Plan:
    ops: list[Op]
    workers: int
    sampling_rows: int  # pick-freeze rows per round (0 when the op does not sample)
    largest_array_bytes: int  # computed from array shapes, not measured
    largest_array: str
    extra_check: Callable[[str], str | None] | None = None  # given round 0's text


def prepare(workload: str, seed: int, workdir: Path, scale: str = "full") -> Plan:
    size = SIZES[scale][workload]
    if workload == "study-product6":
        return _study_plan("product6", experiments.product6_study, seed, size, WORKERS[workload])
    if workload == "study-g-2w":
        return _study_plan("g", experiments.g_function_study, seed, size, WORKERS[workload])
    if workload == "estimate-cli":
        return _estimate_plan(seed, size, workdir)
    if workload == "verify-grid":
        return _verify_plan(seed, size)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# efficiency studies


def _study_plan(model_name: str, study, seed: int, size: dict, workers: int) -> Plan:
    model = builtin_model(model_name)
    anova = analytic_anova(model)
    exact_rel = {str(u): anova.lower_u[u] / anova.sigma2 for u in anova.lower_u}
    n, reps = size["n"], size["replicates"]

    def run_with(w: int):
        table = study(n=n, replicates=reps, seed=seed, workers=w)
        return experiments.csv_text(table), table

    def extra_check(text: str) -> str | None:
        one_worker, _ = run_with(1)
        return None if one_worker == text else "CSV differs from the one-worker run"

    rows = n * reps
    role_array = min(n, DEFAULT_BATCH) * model.dim * 8
    return Plan(
        ops=[Op(lambda: run_with(workers), lambda text, _t: _check_study_csv(text, exact_rel), rows)],
        workers=workers,
        sampling_rows=rows,
        largest_array_bytes=role_array,
        largest_array=f"one role array, {min(n, DEFAULT_BATCH)} x {model.dim} float64",
        extra_check=extra_check if workers > 1 else None,
    )


def _check_study_csv(text: str, exact_rel: dict[str, float]) -> str | None:
    """Check the CSV as emitted: schema, exact rel_index, variances, efficiencies."""
    try:
        header, *rows = csv.reader(io.StringIO(text))
        if header != experiments.CSV_HEADER.split(","):
            return "CSV header differs from the schema"
        if not rows:
            return "CSV has no rows"
        for row in rows:
            if len(row) != len(header):
                return f"row {row[:1]} has {len(row)} fields"
            rec = dict(zip(header, row))
            u = rec["u"]
            if float(rec["rel_index"]) != exact_rel[u]:
                return f"{u}: rel_index {rec['rel_index']} is not the exact ANOVA value"
            var = {k: float(rec[f"var_{k}"]) for k in STUDY_COSTS}
            if not all(math.isfinite(v) and v > 0.0 for v in var.values()):
                return f"{u}: a term variance is not finite and positive"
            if float(rec["eff_corr1"]) != 1.0:
                return f"{u}: eff_corr1 is not 1"
            for k in ("corr2", "orcl1", "orcl2"):
                want = (STUDY_COSTS["corr1"] / STUDY_COSTS[k]) * (var["corr1"] / var[k])
                if not math.isclose(float(rec[f"eff_{k}"]), want, rel_tol=EFF_REL_TOL):
                    return f"{u}: eff_{k} does not match its variances"
                se = float(rec[f"se_eff_{k}"])
                if not (math.isfinite(se) and se >= 0.0):
                    return f"{u}: se_eff_{k} is not finite and nonnegative"
    except (ValueError, KeyError, csv.Error) as exc:
        return f"unparsable CSV: {exc!r}"
    return None


# ---------------------------------------------------------------------------
# sobolmc estimate, in process


def _estimate_plan(seed: int, size: dict, workdir: Path) -> Plan:
    rng = np.random.default_rng(seed)
    levels, dim = 4, 3
    table = rng.random(levels**dim).tolist()
    doc = {"kind": "discrete", "levels": levels, "table": table}
    workdir.mkdir(parents=True, exist_ok=True)
    discrete_path = workdir / f"discrete-{seed}.json"
    discrete_path.write_text(json.dumps(doc))

    models = {"g": builtin_model("g"), "product6": builtin_model("product6")}
    models[str(discrete_path)] = model_from_json(doc)
    labels = {str(discrete_path): "discrete.json"}
    n = size["n"]
    n_eff = n if n is not None else cli.build_parser().parse_args(
        ["estimate", "--model", "g", "--u", "1"]
    ).n

    ops = []
    for spec, model in models.items():
        anova = analytic_anova(model)
        pair = sorted(rng.choice(np.arange(1, model.dim + 1), 2, replace=False).tolist())
        sets = [IndexSet.from_indices([j], model.dim) for j in range(1, model.dim + 1)]
        sets.append(IndexSet.from_indices(pair, model.dim))
        for u in sets:
            for est in CLI_COSTS:
                argv = ["estimate", "--model", spec, "--u", ",".join(map(str, u.members())),
                        "--estimator", est, "--seed", str(seed + len(ops))]
                if n is not None:
                    argv += ["--n", str(n)]
                exact = anova.upper_u[u] if est == "upper" else anova.lower_u[u]
                ops.append(
                    Op(
                        _cli_call(argv, spec, labels.get(spec)),
                        _estimate_check(est, n_eff, exact),
                        n_eff,
                    )
                )
    batch = min(n_eff, DEFAULT_BATCH)
    widest = max(model.dim for model in models.values())
    return Plan(
        ops=ops,
        workers=WORKERS["estimate-cli"],
        sampling_rows=n_eff * len(ops),
        largest_array_bytes=batch * widest * 8,
        largest_array=f"one role array, {batch} x {widest} float64",
    )


def _cli_call(argv: list[str], spec: str, label: str | None):
    """One ``sobolmc estimate`` call with stdout captured.

    The model file's path is replaced by a fixed label so the output bytes
    do not depend on where the checkout lives.
    """

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        text = buf.getvalue()
        if label is not None:
            text = text.replace(json.dumps(spec), json.dumps(label))
        return text, code

    return run


def _estimate_check(est: str, n: int, exact: float):
    def check(text: str, code) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            (rec,) = json.loads(text)
        except ValueError as exc:
            return f"unparsable JSON: {exc}"
        if rec["n"] != n or rec["evals"] != n * CLI_COSTS[est]:
            return f"{est}: n={rec['n']} evals={rec['evals']}, want {n} and {n * CLI_COSTS[est]}"
        value, se = rec["estimate"], rec["std_error"]
        if not math.isfinite(value):
            return f"{est}: estimate is not finite"
        if est == "original":
            return None if rec["biased"] and se is None else "original must be flagged biased"
        if not (se is not None and math.isfinite(se) and se > 0.0):
            return f"{est}: standard error {se} is not finite and positive"
        z = (value - exact) / se
        return None if abs(z) <= Z_LIMIT else f"{est} u={rec['u']}: z = {z:.2f} against the exact index"

    return check


# ---------------------------------------------------------------------------
# the enumeration oracle


def _verify_plan(seed: int, size: dict) -> Plan:
    levels, dims, trials = size["levels"], size["dims"], size["trials"]
    states = enumerated_states(levels, dims)

    def trial(s: int):
        lines: list[str] = []
        ok = verification.verify_suite(levels=levels, dims=dims, trials=1, seed=s, log=lines.append)
        return "".join(line + "\n" for line in lines), ok

    def check(text: str, ok) -> str | None:
        if ok is not True:
            return "verify_suite returned False"
        return None if ledger_checks(text) is not None else "ledger has failures or no close line"

    m = levels**dims
    return Plan(
        ops=[Op(lambda s=seed + i: trial(s), check, states) for i in range(trials)],
        workers=WORKERS["verify-grid"],
        sampling_rows=0,
        largest_array_bytes=m**4 * 8,
        largest_array=f"one generalized term array, {m}^4 float64",
    )


def enumerated_states(levels: int, dims: int) -> int:
    """Joint grid states one verify_suite trial enumerates.

    Per nonempty set u: four two-vector kinds and the original cross moment
    (m^2 states each), correlation2 (m^3), and the generalized kind (m^4)
    for every pair (v, v') of subsets of the complement of u.
    """
    m = levels**dims
    full = IndexSet.full(dims)
    return sum(
        5 * m**2 + m**3 + 4 ** (dims - len(u)) * m**4 for u in full.subsets() if len(u)
    )


def ledger_checks(text: str) -> int | None:
    """The check count of a passing ledger, None when any check failed."""
    lines = text.splitlines()
    match = _LEDGER_CLOSE.match(lines[-1]) if lines else None
    if match is None or match.group(1) != match.group(2):
        return None
    return int(match.group(2))
