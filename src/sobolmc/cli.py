"""Command-line front end.

Subcommands: ``estimate`` (one estimator, one target set), ``anova``
(exact mean, variance, and per-set indices), ``efficiency-table`` (the
replicated benchmark studies, CSV or JSON), and ``verify`` (the exact
identity suite on random models).

Exit codes: 0 success, 1 numeric/runtime failure, 2 usage error
(including enumeration-budget overflows).  With a fixed ``--seed`` every
command's output is bit-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import io
import json
import math
import sys
from pathlib import Path

from .core import DimensionError, IndexSet, RngSpec
from .estimators import KINDS, TAG_OF_ALIAS, EstimatorKind, run_estimator
from .experiments import (
    BUILTIN_STUDIES,
    builtin_config,
    builtin_note,
    config_from_json,
    csv_text,
    run_efficiency_experiment,
)
from .models import (
    BUILTIN_MODELS,
    BudgetError,
    Model,
    analytic_anova,
    builtin_model,
    model_from_json,
)
from .theory import MAX_STATES
from .verification import verify_suite

MAX_ANOVA_LISTING_DIM = 12


class UsageError(Exception):
    """Bad arguments detected after parsing; exits with code 2."""


def _load_model(spec: str) -> Model:
    if spec in BUILTIN_MODELS:
        return builtin_model(spec)
    path = Path(spec)
    if not path.exists():
        raise UsageError(
            f"--model must be one of {BUILTIN_MODELS} or an existing JSON file, got {spec!r}"
        )
    try:
        return model_from_json(json.loads(path.read_text()))
    except (ValueError, DimensionError) as exc:
        raise UsageError(f"bad model file {spec}: {exc}") from exc


def _parse_set(text: str, dim: int, what: str = "--u") -> IndexSet:
    try:
        return IndexSet.parse(text, dim)
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}") from exc


def _check_flags(args, *finite: str, **bounds: int) -> None:
    """Reject a given flag that is not finite or below its bound, naming it; None is not given."""
    for flag in finite:
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            raise UsageError(f"--{flag} must be finite, got {value}")
    for flag, least in bounds.items():
        value = getattr(args, flag)
        if value is not None and value < least:
            raise UsageError(f"--{flag.replace('_', '-')} must be at least {least}, got {value}")


def _jsonable(value):
    """value with every non-finite float, however nested, as None: JSON has no NaN or Infinity."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write(text: str, out: str | None) -> None:
    """Write text and a newline to the path ``out``, or print it."""
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _emit(records: list[dict], fmt: str, out: str | None) -> None:
    """Write records as a JSON list or a CSV table with a header row.

    A non-finite number is written as JSON's null and as an empty CSV field.
    """
    records = _jsonable(records)
    if fmt == "json":
        text = json.dumps(records, indent=2, allow_nan=False)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, list(records[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)  # None is written as an empty field
        text = buf.getvalue().rstrip("\n")
    _write(text, out)


def _cmd_estimate(args) -> int:
    _check_flags(args, "center", seed=0, n=1)
    tag = TAG_OF_ALIAS[args.estimator]
    if tag == "original" and args.n < 2:
        raise UsageError(f"--n must be at least 2 for --estimator original, got {args.n}")
    model = _load_model(args.model)
    u = _parse_set(args.u, model.dim)
    v = _parse_set(args.v, model.dim, "--v") if args.v is not None else None
    v2 = _parse_set(args.v2, model.dim, "--v2") if args.v2 is not None else None
    for name, value in (("center", args.center), ("v", v), ("v2", v2)):
        if value is not None and name not in KINDS[tag].params:
            raise UsageError(f"--estimator {args.estimator} takes no --{name}")
    for flag, w in (("--v", v), ("--v2", v2)):
        if w is not None and not w.isdisjoint(u):
            raise UsageError(f"{flag} {w} must be disjoint from --u {u}")
    kind = EstimatorKind(tag, args.center, v, v2)
    report = run_estimator(model, kind, u, args.n, RngSpec(args.seed))
    _emit(
        [
            {
                "model": args.model,
                "estimator": args.estimator,
                "u": str(u),
                "n": report.n,
                "seed": args.seed,
                "estimate": report.estimate,
                "std_error": report.std_error,
                "term_variance": report.term_variance,
                "evals": report.evals,
                "biased": report.biased,
            }
        ],
        args.format,
        args.out,
    )
    return 0


def _cmd_anova(args) -> int:
    model = _load_model(args.model)
    if args.u is not None:
        sets = [_parse_set(args.u, model.dim)]
    elif model.dim > MAX_ANOVA_LISTING_DIM:
        raise UsageError(
            f"full listing limited to d <= {MAX_ANOVA_LISTING_DIM}; pass --u for one set"
        )
    else:
        sets = sorted(
            (u for u in IndexSet.full(model.dim).subsets() if len(u) > 0),
            key=lambda u: (len(u), u.bits),
        )
    report = analytic_anova(model, sets)
    sigma2 = report.sigma2
    records = [
        {
            "u": str(u),
            "mu": report.mu,
            "sigma2": sigma2,
            "sigma2_u": report.sigma2_u[u],
            "lower": report.lower_u[u],
            "upper": report.upper_u[u],
            "lower_rel": report.lower_u[u] / sigma2 if sigma2 != 0.0 else None,
            "note": builtin_note(args.model, u),
        }
        for u in sets
    ]
    _emit(records, args.format, args.out)
    return 0


def _cmd_efficiency_table(args) -> int:
    if (args.benchmark is None) == (args.config is None):
        raise UsageError("pass exactly one of --benchmark or --config")
    _check_flags(args, "center", threads=1, seed=0, n=2, replicates=1)
    # the study flags default to None, so a given one is seen; builtin_config has the defaults
    study = ("n", "replicates", "seed", "center", "include_original")
    given = {key: getattr(args, key) for key in study if getattr(args, key) is not None}
    # the CSV schema has no original_estimate column, so original would be dropped unseen
    no_csv = "has no effect: --format csv has no original_estimate column; use --format json"
    if args.benchmark is not None:
        if args.include_original and args.format == "csv":
            raise UsageError(f"--include-original {no_csv}")
        config = builtin_config(args.benchmark, workers=args.threads, **given)
    else:
        if given:
            flags = ", ".join("--" + key.replace("_", "-") for key in given)
            raise UsageError(f"--config sets the experiment; drop {flags}")
        try:
            doc = json.loads(Path(args.config).read_text())
            config = config_from_json(doc)
        except (OSError, ValueError, DimensionError) as exc:
            raise UsageError(f"bad experiment config {args.config}: {exc}") from exc
        if "original" in config.kinds and args.format == "csv":
            key = "kinds" if "kinds" in doc else "include_original"
            raise UsageError(f"config {args.config}: original from {key!r} {no_csv}")
        if config.workers is None:
            config.workers = args.threads
        elif args.threads is not None:
            raise UsageError("--config sets workers; drop --threads")
    table = run_efficiency_experiment(config)

    if args.format == "json":
        text = json.dumps(_jsonable(table.as_dict()), indent=2, allow_nan=False)
    else:
        text = csv_text(table).rstrip("\n")
    _write(text, args.out)
    for row in table.rows:
        if row.note:
            print(f"# note {row.u}: {row.note}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    _check_flags(args, levels=1, dims=1, trials=1, seed=0, max_states=1)
    ok = verify_suite(
        levels=args.levels,
        dims=args.dims,
        trials=args.trials,
        seed=args.seed,
        max_states=args.max_states,
        log=print,
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobolmc",
        description="Monte Carlo Sobol' index estimation, exact oracles, and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, fmt: str = "json") -> None:
        p.add_argument("--format", choices=("json", "csv"), default=fmt)
        p.add_argument("--out", default=None, help="write output to this path")

    p_est = sub.add_parser("estimate", help="run one estimator for one target set")
    add_common(p_est)
    p_est.add_argument("--seed", type=int, default=0, help="stream seed (default 0)")
    p_est.add_argument("--model", required=True, help="builtin alias (g, product6) or JSON file")
    p_est.add_argument("--u", required=True, help='target coordinates, e.g. "1,3"')
    p_est.add_argument(
        "--estimator", choices=sorted(TAG_OF_ALIAS), default="corr2"
    )
    p_est.add_argument("--n", type=int, default=100_000, help="samples (default 1e5)")
    p_est.add_argument("--center", type=float, default=None, help="oracle center (default: exact mean)")
    p_est.add_argument("--v", default=None, help="generalized: left blending set")
    p_est.add_argument("--v2", default=None, help="generalized: right blending set")
    p_est.set_defaults(func=_cmd_estimate)

    p_anova = sub.add_parser("anova", help="exact mean, variance, and Sobol' indices")
    add_common(p_anova)  # exact: no streams, so no --seed
    p_anova.add_argument("--model", required=True)
    p_anova.add_argument("--u", default=None, help="restrict to one set")
    p_anova.set_defaults(func=_cmd_anova)

    p_eff = sub.add_parser(
        "efficiency-table",
        help="replicated efficiency benchmark",
        description="Replicated efficiency benchmark.  Each se_eff_* column is the delete-one "
        "jackknife standard error of that efficiency over the R replicates; read it with "
        "a t distribution on R - 1 degrees of freedom (t_{R-1}), not a normal.",
    )
    add_common(p_eff, "csv")
    defaults = {k: p.default for k, p in inspect.signature(builtin_config).parameters.items()}
    p_eff.add_argument("--seed", type=int, default=None, help=f"stream seed (default {defaults['seed']})")
    p_eff.add_argument("--benchmark", choices=sorted(BUILTIN_STUDIES), default=None)
    p_eff.add_argument("--config", default=None, help="experiment config JSON file")
    p_eff.add_argument("--n", type=int, default=None, help=f"samples (default {defaults['n']})")
    p_eff.add_argument("--replicates", type=int, default=None, help=f"replicates (default {defaults['replicates']})")
    p_eff.add_argument("--center", type=float, default=None)
    p_eff.add_argument(
        "--include-original", action="store_true", default=None,
        help="also run the biased original kind (needs --format json)",
    )
    p_eff.add_argument("--threads", type=int, default=None, help="replicate workers (or SOBOL_THREADS)")
    p_eff.set_defaults(func=_cmd_efficiency_table)

    p_ver = sub.add_parser("verify", help="exact identity suite on random models")
    p_ver.add_argument("--levels", type=int, default=3)
    p_ver.add_argument("--dims", type=int, default=2)
    p_ver.add_argument("--trials", type=int, default=5)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--max-states", type=int, default=MAX_STATES)
    p_ver.set_defaults(func=_cmd_verify)
    return parser


#: the parser ``main`` builds once per process and reuses: building one
#: costs far more than parsing a command line with it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, BudgetError, ValueError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
