"""Replicated efficiency benchmarks and their CSV emission.

An efficiency experiment runs the four comparable estimators (the two
correlation-centered kinds and the two oracle-centered kinds) over a list
of target sets with shared sample vectors, pools the per-sample term
variances over independent replicates, and reports cost-adjusted
efficiencies against the correlation1 baseline:

    eff(kind) = (cost_corr1 / cost_kind) * var(corr1) / var(kind)

so eff_corr2 carries a factor 3/4 and eff_orcl2 a factor 3/2.  Standard
errors of the efficiencies come from a delete-one jackknife over the
replicates (the point estimates are ratios, so replicate averaging alone
would be biased).

Two canonical studies are provided: the d=3 g-function with importance
parameters (19, 9, 4), and the d=6 product model with factor weights
(1, 1, 1/2, 1/2, 1/4, 1/4).
"""

from __future__ import annotations

import csv
import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import IndexSet, RngSpec
from .estimators import (
    DEFAULT_BATCH,
    KINDS,
    TAG_OF_ALIAS,
    Accumulator,
    EstimatorKind,
    accumulate_terms,
    run_multi_u,
)
from .models import Model, analytic_anova, builtin_model, model_from_json

#: the estimators compared in efficiency tables, in column order
COMPARED_KINDS = ("correlation1", "correlation2", "oracle1", "oracle2")

CSV_HEADER = (
    "u,rel_index,var_corr1,var_corr2,var_orcl1,var_orcl2,"
    "eff_corr1,eff_corr2,eff_orcl1,eff_orcl2,"
    "se_eff_corr2,se_eff_orcl1,se_eff_orcl2"
)

#: pair rows of the product6 study whose widely circulated relative-index
#: values disagree with the product variance identity
#: sigma2_u = prod_{j in u} tau_j^2 * prod_{j not in u} mu_j^2
PRODUCT6_DISPUTED_RATIOS = {
    (1, 2): 0.826,
    (3, 4): 0.176,
    (5, 6): 0.042,
}


def product6_ratio_note(u: IndexSet) -> str:
    """Discrepancy flag for the disputed pair rows, empty otherwise."""
    cited = PRODUCT6_DISPUTED_RATIOS.get(u.members())
    if cited is None:
        return ""
    return (
        f"cited ratio {cited} disagrees with the product variance identity; "
        "the identity value is reported"
    )


def efficiency(var_base: float, var_other: float, cost_base: int, cost_other: int) -> float:
    """Cost-adjusted variance ratio (cost_base/cost_other)*(var_base/var_other)."""
    if var_base <= 0.0 or var_other <= 0.0:
        raise ValueError("efficiency needs strictly positive variances")
    if cost_base <= 0 or cost_other <= 0:
        raise ValueError("costs are positive evaluation counts")
    return (cost_base / cost_other) * (var_base / var_other)


@dataclass
class ExperimentConfig:
    """Everything one efficiency experiment depends on.

    ``center`` is the oracle centering policy: None uses the model's exact
    mean, a float pins an imperfect oracle.  ``replicate_ids`` names the
    independent replicate streams (default 0..replicates-1); permuting
    them only reassociates the pooled reductions.
    """

    model: Model
    us: tuple[IndexSet, ...]
    n: int
    replicates: int
    seed: int
    center: float | None = None
    kinds: tuple[str, ...] = COMPARED_KINDS
    include_original: bool = False
    batch_size: int = DEFAULT_BATCH
    workers: int | None = None
    replicate_ids: tuple[int, ...] | None = None
    notes: dict[IndexSet, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need n >= 2 samples per replicate")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        allowed = set(COMPARED_KINDS) | ({"original"} if self.include_original else set())
        bad = [k for k in self.kinds if k not in allowed]
        if bad:
            raise ValueError(
                f"kinds {bad} not allowed; pass include_original=True to add 'original'"
            )
        if "correlation1" not in self.kinds:
            raise ValueError("the correlation1 baseline is required")
        if self.replicate_ids is None:
            self.replicate_ids = tuple(range(self.replicates))
        elif len(self.replicate_ids) != self.replicates:
            raise ValueError("replicate_ids must name exactly `replicates` streams")


@dataclass
class EfficiencyRow:
    """One target set's variances and cost-adjusted efficiencies."""

    u: IndexSet
    rel_index: float
    var_corr1: float | None
    var_corr2: float | None
    var_orcl1: float | None
    var_orcl2: float | None
    eff_corr1: float | None
    eff_corr2: float | None
    eff_orcl1: float | None
    eff_orcl2: float | None
    se_eff_corr2: float | None
    se_eff_orcl1: float | None
    se_eff_orcl2: float | None
    note: str = ""
    original_estimate: float | None = None

    def as_dict(self) -> dict:
        out = {"u": str(self.u)}
        for name in (
            "rel_index",
            "var_corr1", "var_corr2", "var_orcl1", "var_orcl2",
            "eff_corr1", "eff_corr2", "eff_orcl1", "eff_orcl2",
            "se_eff_corr2", "se_eff_orcl1", "se_eff_orcl2",
        ):
            out[name] = getattr(self, name)
        if self.note:
            out["note"] = self.note
        if self.original_estimate is not None:
            out["original_estimate"] = self.original_estimate
        return out


@dataclass
class EfficiencyTable:
    """Rows plus the experiment identity that produced them."""

    rows: list[EfficiencyRow]
    model_name: str
    n: int
    replicates: int
    seed: int

    def row(self, u: IndexSet) -> EfficiencyRow:
        for r in self.rows:
            if r.u == u:
                return r
        raise KeyError(f"no row for {u}")

    def as_dict(self) -> dict:
        return {
            "model": self.model_name,
            "n": self.n,
            "replicates": self.replicates,
            "seed": self.seed,
            "rows": [r.as_dict() for r in self.rows],
        }


def _replicate_pass(model: Model, config: ExperimentConfig, rep: int):
    """One replicate: per-kind, per-set accumulators from shared vectors."""
    local = model.clone()
    rng = RngSpec(config.seed, rep)
    out: dict[str, dict[IndexSet, Accumulator | float]] = {}
    for tag in config.kinds:
        kind = EstimatorKind.of(tag, config.center)
        if tag == "original":
            reports = run_multi_u(local, kind, config.us, config.n, rng, config.batch_size)
            out[tag] = {r.u: r.estimate for r in reports}
        else:
            accs, _ = accumulate_terms(local, kind, config.us, config.n, rng, config.batch_size)
            out[tag] = accs
    return out, local.counter.count


def _defined_efficiency(var_base: float, var_other: float, tag: str) -> float | None:
    """``efficiency`` of tag against correlation1; None if either variance is 0."""
    if var_base == 0.0 or var_other == 0.0:
        return None
    return efficiency(var_base, var_other, KINDS["correlation1"].cost, KINDS[tag].cost)


def _pool(accs: list[Accumulator]) -> Accumulator:
    total = Accumulator()
    for acc in accs:
        total.merge(acc)
    return total


def _jackknife_se(values: list[float]) -> float | None:
    r = len(values)
    if r < 2:
        return None
    mean = sum(values) / r
    return math.sqrt((r - 1) / r * sum((v - mean) ** 2 for v in values))


def resolve_workers(requested: int | None) -> int:
    """Worker count: explicit argument, else SOBOL_THREADS, else 1."""
    if requested is not None:
        return max(1, requested)
    env = os.environ.get("SOBOL_THREADS", "")
    return max(1, int(env)) if env.strip() else 1


def run_efficiency_experiment(config: ExperimentConfig) -> EfficiencyTable:
    """Run all replicates and assemble the efficiency table.

    Replicates may run on a thread pool; each gets its own model clone and
    rng streams, and the pooled reduction is ordered by replicate id, so
    results are independent of scheduling.
    """
    model = config.model
    anova = analytic_anova(model)
    workers = resolve_workers(config.workers)

    if workers == 1:
        passes = [_replicate_pass(model, config, rep) for rep in config.replicate_ids]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_replicate_pass, model, config, rep)
                for rep in config.replicate_ids
            ]
            passes = [f.result() for f in futures]
    per_rep = [p[0] for p in passes]

    sampled_kinds = [t for t in config.kinds if t != "original"]
    rows = []
    for u in config.us:
        accs = {tag: [rep[tag][u] for rep in per_rep] for tag in sampled_kinds}
        var = {tag: _pool(accs[tag]).variance() for tag in sampled_kinds}

        # a zero term variance (inert target coordinates) leaves every
        # efficiency against it undefined, reported as None
        zero = [tag for tag in sampled_kinds if var[tag] == 0.0]
        eff: dict[str, float | None] = {"correlation1": None if "correlation1" in zero else 1.0}
        se: dict[str, float | None] = {}
        for tag in ("correlation2", "oracle1", "oracle2"):
            eff[tag] = se[tag] = None
            if tag not in var:
                continue
            eff[tag] = _defined_efficiency(var["correlation1"], var[tag], tag)
            if eff[tag] is None or config.replicates < 2:
                continue
            loo = []
            for k in range(config.replicates):
                v1 = _pool([a for i, a in enumerate(accs["correlation1"]) if i != k]).variance()
                vk = _pool([a for i, a in enumerate(accs[tag]) if i != k]).variance()
                loo.append(_defined_efficiency(v1, vk, tag))
            se[tag] = None if None in loo else _jackknife_se(loo)
        notes = [config.notes.get(u, "")]
        if zero:
            notes.append(
                "zero term variance for " + ", ".join(KINDS[t].alias for t in zero)
                + "; efficiencies against a zero variance are undefined"
            )

        originals = None
        if "original" in config.kinds:
            originals = float(np.mean([rep["original"][u] for rep in per_rep]))

        rows.append(
            EfficiencyRow(
                u=u,
                rel_index=anova.lower_u[u] / anova.sigma2,
                var_corr1=var.get("correlation1"),
                var_corr2=var.get("correlation2"),
                var_orcl1=var.get("oracle1"),
                var_orcl2=var.get("oracle2"),
                eff_corr1=eff["correlation1"],
                eff_corr2=eff["correlation2"],
                eff_orcl1=eff["oracle1"],
                eff_orcl2=eff["oracle2"],
                se_eff_corr2=se["correlation2"],
                se_eff_orcl1=se["oracle1"],
                se_eff_orcl2=se["oracle2"],
                note="; ".join(filter(None, notes)),
                original_estimate=originals,
            )
        )
    return EfficiencyTable(
        rows=rows,
        model_name=type(model).__name__,
        n=config.n,
        replicates=config.replicates,
        seed=config.seed,
    )


def g_function_study(
    n: int = 1_000_000,
    replicates: int = 10,
    seed: int = 1,
    center: float | None = None,
    workers: int | None = None,
    include_original: bool = False,
) -> EfficiencyTable:
    """Efficiency benchmark on the d=3 g-function, a = (19, 9, 4).

    Covers every nonempty set except the full one (whose closed index is
    the total variance, estimable directly).  Oracle center defaults to
    the exact mean 27; pass e.g. 26.8 to study an imperfect oracle.
    """
    model = builtin_model("g")
    us = tuple(
        IndexSet.from_indices(ix, 3) for ix in ([1], [2], [3], [1, 2], [1, 3], [2, 3])
    )
    kinds = COMPARED_KINDS + (("original",) if include_original else ())
    return run_efficiency_experiment(
        ExperimentConfig(
            model=model, us=us, n=n, replicates=replicates, seed=seed,
            center=center, kinds=kinds, include_original=include_original,
            workers=workers,
        )
    )


def product6_study(
    n: int = 1_000_000,
    replicates: int = 10,
    seed: int = 1,
    center: float | None = None,
    workers: int | None = None,
    include_original: bool = False,
) -> EfficiencyTable:
    """Efficiency benchmark on the d=6 product model.

    Six singleton rows plus the pair rows {1,2}, {3,4}, {5,6}; the pair
    rows carry the disputed-ratio note.  Oracle center defaults to the
    exact mean 1.
    """
    model = builtin_model("product6")
    us = tuple(
        IndexSet.from_indices(ix, 6)
        for ix in ([1], [2], [3], [4], [5], [6], [1, 2], [3, 4], [5, 6])
    )
    notes = {u: product6_ratio_note(u) for u in us if product6_ratio_note(u)}
    kinds = COMPARED_KINDS + (("original",) if include_original else ())
    return run_efficiency_experiment(
        ExperimentConfig(
            model=model, us=us, n=n, replicates=replicates, seed=seed,
            center=center, kinds=kinds, include_original=include_original,
            workers=workers, notes=notes,
        )
    )


BUILTIN_STUDIES = {"g": g_function_study, "product6": product6_study}


def _render(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if isinstance(value, float) and value == 1.0:
        return "1"
    return repr(value) if isinstance(value, float) else str(value)


def csv_text(table: EfficiencyTable) -> str:
    """Render the table in the fixed column schema (shortest float decimals)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for row in table.rows:
        writer.writerow(
            [
                str(row.u),
                _render(row.rel_index),
                _render(row.var_corr1),
                _render(row.var_corr2),
                _render(row.var_orcl1),
                _render(row.var_orcl2),
                _render(row.eff_corr1),
                _render(row.eff_corr2),
                _render(row.eff_orcl1),
                _render(row.eff_orcl2),
                _render(row.se_eff_corr2),
                _render(row.se_eff_orcl1),
                _render(row.se_eff_orcl2),
            ]
        )
    return buf.getvalue()


def write_csv(table: EfficiencyTable, path) -> None:
    """Write ``csv_text(table)`` to a file, surfacing failures with the path."""
    try:
        with open(path, "w", newline="") as handle:
            handle.write(csv_text(table))
    except OSError as exc:
        raise OSError(f"cannot write efficiency table to {path}: {exc}") from exc


_CONFIG_KEYS = {
    "model", "us", "n", "replicates", "seed", "center",
    "kinds", "include_original", "batch_size", "workers",
}

def config_from_json(obj: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from its JSON document.

    ``model`` is a builtin alias or a nested model document; ``us`` is a
    list of coordinate lists; ``center`` is a number or "mean";
    ``workers`` is an integer >= 1 or null.
    """
    if not isinstance(obj, dict):
        raise ValueError("experiment configuration must be a JSON object")
    extra = set(obj) - _CONFIG_KEYS
    if extra:
        raise ValueError(f"unknown experiment keys: {sorted(extra)}")
    for key in ("model", "us", "n", "replicates", "seed"):
        if key not in obj:
            raise ValueError(f"experiment configuration needs {key!r}")
    spec = obj["model"]
    model = builtin_model(spec) if isinstance(spec, str) else model_from_json(spec)
    us = tuple(IndexSet.from_indices(ix, model.dim) for ix in obj["us"])
    center = obj.get("center")
    if center == "mean":
        center = None
    elif center is not None and type(center) not in (int, float):  # bool is not a number here
        raise ValueError(f"'center' must be a number or \"mean\", got {center!r}")
    workers = obj.get("workers")
    if workers is not None and (type(workers) is not int or workers < 1):
        raise ValueError(f"'workers' must be an integer >= 1 or null, got {workers!r}")
    include_original = bool(obj.get("include_original", False))
    kinds = obj.get("kinds")
    if kinds is None:
        resolved = COMPARED_KINDS + (("original",) if include_original else ())
    else:
        resolved = tuple(TAG_OF_ALIAS.get(k, k) for k in kinds)
    return ExperimentConfig(
        model=model,
        us=us,
        n=int(obj["n"]),
        replicates=int(obj["replicates"]),
        seed=int(obj["seed"]),
        center=center,
        kinds=resolved,
        include_original=include_original,
        batch_size=int(obj.get("batch_size", DEFAULT_BATCH)),
        workers=workers,
    )
