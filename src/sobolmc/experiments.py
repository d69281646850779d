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
from dataclasses import dataclass, field, fields
from functools import partial
from numbers import Integral, Real

import numpy as np

from .core import IndexSet, RngSpec
from .estimators import (
    DEFAULT_BATCH,
    KINDS,
    TAG_OF_ALIAS,
    Accumulator,
    EstimatorKind,
    accumulate_terms,
)
from .models import Model, analytic_anova, builtin_model, model_from_json

#: the estimators compared in efficiency tables, in column order
COMPARED_KINDS = ("correlation1", "correlation2", "oracle1", "oracle2")

#: target sets of the builtin studies, by builtin model name (g omits the
#: full set: its closed index is the total variance, estimable directly)
BUILTIN_STUDIES = {
    "g": ([1], [2], [3], [1, 2], [1, 3], [2, 3]),
    "product6": ([1], [2], [3], [4], [5], [6], [1, 2], [3, 4], [5, 6]),
}

#: rows of the builtin models, by builtin name, whose widely circulated
#: relative-index values disagree with the product variance identity
#: sigma2_u = prod_{j in u} tau_j^2 * prod_{j not in u} mu_j^2
DISPUTED_RATIOS = {
    "product6": {(1, 2): 0.826, (3, 4): 0.176, (5, 6): 0.042},
}


def builtin_note(name: str, u: IndexSet) -> str:
    """The note on row u of builtin model ``name``: a disputed-ratio flag, or empty."""
    cited = DISPUTED_RATIOS.get(name, {}).get(u.members())
    if cited is None:
        return ""
    return (
        f"cited ratio {cited} disagrees with the product variance identity; "
        "the identity value is reported"
    )


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)  # bool is no count


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
    mean, a float (refused without an oracle kind) pins an imperfect one.
    ``kinds`` may add "original"; ``us`` may not repeat a set.  ``workers``
    None defers to ``resolve_workers``.
    """

    model: Model
    us: tuple[IndexSet, ...]
    n: int
    replicates: int
    seed: int
    center: float | None = None
    kinds: tuple[str, ...] = COMPARED_KINDS
    batch_size: int = DEFAULT_BATCH
    workers: int | None = None
    notes: dict[IndexSet, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need n >= 2 samples per replicate")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.seed < 0:
            raise ValueError(f"'seed' must be nonnegative, got {self.seed}")
        if not self.us:
            raise ValueError("'us' needs at least one target set")
        if len(set(self.us)) < len(self.us):
            repeated = next(u for k, u in enumerate(self.us) if u in self.us[:k])
            raise ValueError(f"'us' repeats the target set {repeated}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        w = self.workers
        if w is not None and (not _is_int(w) or w < 1):
            raise ValueError(f"'workers' must be an integer >= 1 or null, got {w!r}")
        allowed = COMPARED_KINDS + ("original",)
        bad = [k for k in self.kinds if k not in allowed]
        if bad:
            raise ValueError(f"kinds {bad} not allowed; choose from {list(allowed)}")
        if "correlation1" not in self.kinds:
            raise ValueError("the correlation1 baseline is required")
        if self.center is not None and not any("center" in KINDS[k].params for k in self.kinds):
            raise ValueError("'center' has no effect: no kind in 'kinds' takes a center")


@dataclass
class EfficiencyRow:
    """One target set's table row; the fields before ``note`` are the columns."""

    u: IndexSet
    rel_index: float | None
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
        out = {name: getattr(self, name) for name in COLUMNS}
        out["u"] = str(self.u)
        if self.note:
            out["note"] = self.note
        if self.original_estimate is not None:
            out["original_estimate"] = self.original_estimate
        return out


#: the efficiency table's column schema
COLUMNS = tuple(
    f.name for f in fields(EfficiencyRow) if f.name not in ("note", "original_estimate")
)
CSV_HEADER = ",".join(COLUMNS)


@dataclass
class EfficiencyTable:
    """Rows plus the experiment identity that produced them."""

    rows: list[EfficiencyRow]
    model_name: str
    n: int
    replicates: int
    seed: int

    def as_dict(self) -> dict:
        return {
            "model": self.model_name,
            "n": self.n,
            "replicates": self.replicates,
            "seed": self.seed,
            "rows": [r.as_dict() for r in self.rows],
        }


def _replicate_pass(model: Model, config: ExperimentConfig, rep: int):
    """One replicate: per-kind, per-set accumulators from one shared pass."""
    rng = RngSpec(config.seed, rep)
    c = config.center  # the study-wide center goes to the kinds that take one
    kinds = [EstimatorKind(t, c if "center" in KINDS[t].params else None) for t in config.kinds]
    accs, _ = accumulate_terms(model.clone(), kinds, config.us, config.n, rng, config.batch_size)
    return {kind.tag: accs[kind] for kind in kinds}


def _defined_efficiency(var_base: float, var_other: float | None, tag: str) -> float | None:
    """``efficiency`` of tag against correlation1; None if a variance is 0 or missing."""
    if not var_base or not var_other:
        return None
    return efficiency(var_base, var_other, KINDS["correlation1"].cost, KINDS[tag].cost)


def _pool(accs: list[Accumulator]) -> Accumulator:
    total = Accumulator()
    for acc in accs:
        total.merge(acc)
    return total


def _jackknife_se(base: list[Accumulator], other: list[Accumulator], tag: str) -> float | None:
    """Delete-one jackknife SE of tag's efficiency; None if any estimate is undefined."""
    r = len(base)
    if r < 2:
        return None
    loo = []
    for k in range(r):
        v1 = _pool(base[:k] + base[k + 1:]).variance()
        vk = _pool(other[:k] + other[k + 1:]).variance()
        loo.append(_defined_efficiency(v1, vk, tag))
    if None in loo:
        return None
    mean = sum(loo) / r
    return math.sqrt((r - 1) / r * sum((v - mean) ** 2 for v in loo))


def resolve_workers(requested: int | None) -> int:
    """Worker count: explicit argument, else SOBOL_THREADS, else 1."""
    if requested is not None:
        return requested
    env = os.environ.get("SOBOL_THREADS", "").strip()
    if not env:
        return 1
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"SOBOL_THREADS must be an integer >= 1, got {env!r}")
    return int(env)


def run_efficiency_experiment(config: ExperimentConfig) -> EfficiencyTable:
    """Run all replicates and assemble the efficiency table.

    Replicates may run on a thread pool; each gets its own model clone and
    rng streams, and the pooled reduction is ordered by replicate id, so
    results are independent of scheduling.
    """
    model = config.model
    anova = analytic_anova(model, config.us)
    workers = resolve_workers(config.workers)
    run_pass = partial(_replicate_pass, model, config)
    # one worker runs inline: a one-thread pool raises product6 peak RSS by ~12%
    if workers == 1:
        per_rep = [run_pass(rep) for rep in range(config.replicates)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(run_pass, range(config.replicates)))

    sampled_kinds = [t for t in config.kinds if t != "original"]
    rows = []
    for u in config.us:
        accs = {tag: [rep[tag][u] for rep in per_rep] for tag in sampled_kinds}
        var = {tag: _pool(accs[tag]).variance() for tag in sampled_kinds}

        # a zero term variance (inert target coordinates) leaves every
        # efficiency against it undefined, reported as None
        cells: dict[str, float | None] = {}
        for tag in COMPARED_KINDS:
            alias = KINDS[tag].alias
            eff = _defined_efficiency(var["correlation1"], var.get(tag), tag)
            cells[f"var_{alias}"] = var.get(tag)
            cells[f"eff_{alias}"] = eff
            if tag != "correlation1":
                se = None if eff is None else _jackknife_se(accs["correlation1"], accs[tag], tag)
                cells[f"se_eff_{alias}"] = se
        notes = [config.notes.get(u, "")]
        # terms that overflow leave the variance and the efficiencies against
        # it undefined too, as a zero variance does
        zero = [KINDS[tag].alias for tag in sampled_kinds if var[tag] == 0.0]
        nonfinite = [KINDS[tag].alias for tag in sampled_kinds if not math.isfinite(var[tag])]
        for what, aliases in (("zero", zero), ("non-finite", nonfinite)):
            if aliases:
                notes.append(f"{what} term variance for {', '.join(aliases)}; "
                             f"efficiencies against a {what} variance are undefined")

        originals = None
        if "original" in config.kinds:
            originals = float(np.mean([rep["original"][u].estimate() for rep in per_rep]))

        rows.append(
            EfficiencyRow(
                u=u,
                rel_index=anova.lower_u[u] / anova.sigma2 if anova.sigma2 != 0.0 else None,
                **cells,
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


def builtin_config(
    name: str,
    n: int = 1_000_000,
    replicates: int = 10,
    seed: int = 0,
    center: float | None = None,
    workers: int | None = None,
    include_original: bool = False,
) -> ExperimentConfig:
    """The builtin study on model ``name`` (a key of ``BUILTIN_STUDIES``).

    Its keyword defaults, seed 0 included, are the only study defaults.
    ``center`` None is the exact mean (pass e.g. 26.8 on g to study an
    imperfect oracle); ``workers`` None defers to ``resolve_workers``.
    """
    return config_from_json(
        {
            "model": name, "us": BUILTIN_STUDIES[name], "n": n, "replicates": replicates,
            "seed": seed, "center": center, "workers": workers,
            "include_original": include_original,
        }
    )


def g_function_study(**study) -> EfficiencyTable:
    """Efficiency study on the d=3 g-function, a = (19, 9, 4); keywords as ``builtin_config``."""
    return run_efficiency_experiment(builtin_config("g", **study))


def product6_study(**study) -> EfficiencyTable:
    """Efficiency study on the d=6 product model, mean 1; keywords as ``builtin_config``."""
    return run_efficiency_experiment(builtin_config("product6", **study))


def _render(value) -> str:
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return ""  # as cli._emit writes a non-finite number
    if isinstance(value, float) and value == 1.0:
        return "1"
    return repr(value) if isinstance(value, float) else str(value)


def csv_text(table: EfficiencyTable) -> str:
    """Render the table in the fixed column schema (shortest float decimals)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in table.rows:
        writer.writerow([_render(getattr(row, name)) for name in COLUMNS])
    return buf.getvalue()


_CONFIG_KEYS = {
    "model", "us", "n", "replicates", "seed", "center",
    "kinds", "include_original", "batch_size", "workers",
}

def config_from_json(obj: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from its JSON document.

    ``model`` is a builtin alias or a nested model document; ``us`` is a
    list of coordinate lists; ``center`` is a number or "mean";
    ``workers`` is an integer >= 1 or null.  ``include_original`` appends
    "original" to the compared kinds, and is refused with ``kinds``.  A
    builtin alias brings its rows' ``builtin_note`` notes.
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
    for key in ("n", "replicates", "seed", "batch_size"):
        if key in obj and not _is_int(obj[key]):
            raise ValueError(f"{key!r} must be an integer, got {obj[key]!r}")
    us = obj["us"]
    if not isinstance(us, (list, tuple)) or not all(
        isinstance(ix, (list, tuple)) and all(map(_is_int, ix)) for ix in us
    ):
        raise ValueError(f"'us' must be a list of integer lists, got {us!r}")
    center = obj.get("center")
    if center == "mean":
        center = None
    elif center is not None and (
        isinstance(center, bool) or not isinstance(center, Real) or not math.isfinite(center)
    ):
        raise ValueError(f"'center' must be a finite number or \"mean\", got {center!r}")
    kinds = obj.get("kinds")
    if kinds is None:
        kinds = COMPARED_KINDS + (("original",) if obj.get("include_original") else ())
    elif not isinstance(kinds, (list, tuple)) or not all(isinstance(k, str) for k in kinds):
        raise ValueError(f"'kinds' must be a list of strings, got {kinds!r}")
    elif "include_original" in obj:
        raise ValueError("'include_original' has no effect with 'kinds'; list \"original\" there")
    tags = tuple(TAG_OF_ALIAS.get(k, k) for k in kinds)
    # "mean" becomes None, which ExperimentConfig cannot tell from no key at all
    if "center" in obj and all(t in KINDS and "center" not in KINDS[t].params for t in tags):
        raise ValueError("'center' has no effect: no kind in 'kinds' takes a center")
    try:
        sets = tuple(IndexSet.from_indices(ix, model.dim) for ix in us)
    except ValueError as exc:
        raise ValueError(f"'us': {exc}") from exc
    return ExperimentConfig(
        model=model,
        us=sets,
        n=int(obj["n"]),
        replicates=int(obj["replicates"]),
        seed=int(obj["seed"]),
        center=center,
        kinds=tags,
        batch_size=int(obj.get("batch_size", DEFAULT_BATCH)),
        workers=obj.get("workers"),
        notes={u: builtin_note(spec, u) for u in sets} if isinstance(spec, str) else {},
    )
