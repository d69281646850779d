"""Span tracer and per-layer analysis for the benchmark's traced run.

Spans are recorded by rebinding sobolmc's public functions and methods
from inside the benchmark process; no library file changes.  A function
imported by value (``from .core import blend`` in ``estimators``) is
rebound in every sobolmc module that holds it, not only where it is
defined.  Spans stay in memory with their thread id and parent span and
are analysed after the run.

Layer times are wall-clock shares: at every instant, the innermost open
spans (spans with no open child, a worker thread's spans counting as
children of the main-thread span they ran inside) split that instant
equally.  On one thread that is the usual self time (span minus its
children); with two replicate workers each gets half of the time both
run.  The shares of all spans plus the op time no span covers
(``trace.unattributed_ms``) therefore add up to the traced op time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    sid: int
    name: str
    tid: int
    parent: int | None
    start: float
    end: float
    attrs: dict = field(default_factory=dict)


@functools.lru_cache(maxsize=None)
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _bound(fn, args, kwargs) -> dict:
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _targets():
    """(owner, attribute, span name, attrs hook) for every traced call."""
    from sobolmc import cli, core, estimators, experiments, models, theory, verification

    def draw(fn, a, kw):
        b = _bound(fn, a, kw)
        spec = b["self"].spec
        return {"bytes": b["n"] * b["self"].dim * 8, "rep": (spec.seed, spec.replicate)}

    def stream(fn, a, kw):
        return {"rep": (a[0].seed, a[0].replicate)}

    def term(fn, a, kw):
        rng = _bound(fn, a, kw)["rng"]
        return {"rep": (rng.seed, rng.replicate)}

    def enumerate_states(fn, a, kw):
        b = _bound(fn, a, kw)
        model = b["model"]
        vectors = {"correlation2": 3, "generalized": 4}.get(b["kind"].tag, 2)
        return {"states": (model.levels**model.dim) ** vectors}

    return [
        (core.BlockSampler, "draw_role", "core.draw", draw),
        (core.RngSpec, "stream", "core.stream_setup", stream),
        (core, "blend", "core.blend", None),
        (models.Model, "evaluate", "models.evaluate", "evals"),
        (models, "analytic_anova", "models.anova", None),
        (models, "product_anova", "models.anova", None),
        (models, "discrete_anova", "models.anova", None),
        (estimators, "accumulate_terms", "estimators.term", term),
        (estimators.Accumulator, "add_batch", "estimators.add_batch", None),
        (estimators, "run_estimator", "estimators.run", None),
        (estimators, "run_multi_u", "estimators.run", None),
        (experiments, "run_efficiency_experiment", "experiments.experiment", None),
        (theory, "enumerate_expectation", "theory.enumerate", enumerate_states),
        (verification, "verify_suite", "verification.suite", None),
        (cli, "main", "cli.main", None),
    ]


#: span name -> the per-layer ``*_ms`` metric its time is reported under
LAYER_OF_SPAN = {
    "core.draw": "core.draw_ms",
    "core.stream_setup": "core.stream_setup_ms",
    "core.blend": "core.blend_ms",
    "models.evaluate": "models.evaluate_ms",
    "models.anova": "models.anova_ms",
    "estimators.term": "estimators.term_self_ms",
    "estimators.add_batch": "estimators.add_batch_ms",
    "estimators.run": "estimators.run_self_ms",
    "experiments.experiment": "experiments.reduce_ms",
    "theory.enumerate": "theory.enumerate_ms",
    "verification.suite": "verification.self_ms",
    "cli.main": "cli.self_ms",
}
CALLS_OF_SPAN = {
    "core.draw": "core.draw_calls",
    "core.stream_setup": "core.stream_setup_calls",
    "core.blend": "core.blend_calls",
    "models.evaluate": "models.evaluate_calls",
    "estimators.add_batch": "estimators.add_batch_calls",
    "theory.enumerate": "theory.enumerate_calls",
}


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ops: list[tuple[float, float]] = []  # traced op intervals
        self.main_tid = threading.get_ident()
        self._tls = threading.local()
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object, object]] = []
        for owner, attr, name, hook in _targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, original, wrapper))
                continue
            for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "sobolmc"]:
                for key, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._tls, "stack", None)
            if stack is None:
                stack = tracer._tls.stack = []
            if hook == "evals":
                counter = args[0].counter
                before = counter.count
            attrs = hook(fn, args, kwargs) if callable(hook) else {}
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if hook == "evals":
                    attrs["evals"] = counter.count - before
                tracer.spans.append(
                    Span(sid, name, threading.get_ident(), parent, start, end, attrs)
                )

        return traced


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def analyse(tracer: Tracer, rounds: int, rows_per_round: int) -> tuple[dict, list[str]]:
    """Per-round layer metrics from the recorded spans, and sanity problems."""
    spans = {s.sid: s for s in tracer.spans}
    problems: list[str] = []

    # same-thread nesting: a child lies inside its parent, on its thread
    for s in spans.values():
        p = spans.get(s.parent) if s.parent is not None else None
        if s.parent is not None and (
            p is None or p.tid != s.tid or not p.start <= s.start <= s.end <= p.end
        ):
            problems.append(f"span {s.name} does not nest inside its parent")

    # a worker thread's root spans hang off the innermost main-thread span
    # that encloses them (the experiment that submitted the replicate)
    main = [s for s in spans.values() if s.tid == tracer.main_tid]
    up: dict[int, int | None] = {}
    for s in spans.values():
        if s.parent is not None or s.tid == tracer.main_tid:
            up[s.sid] = s.parent
            continue
        hosts = [m for m in main if m.start <= s.start and s.end <= m.end]
        up[s.sid] = max(hosts, key=lambda m: m.start).sid if hosts else None

    depth: dict[int, int] = {}

    def depth_of(sid: int) -> int:
        if sid not in depth:
            depth[sid] = 0 if up[sid] is None else depth_of(up[sid]) + 1
        return depth[sid]

    events = []
    for s in spans.values():
        d = depth_of(s.sid)
        events.append((s.start, 1, d, s.sid))
        events.append((s.end, 0, -d, s.sid))
    events.sort()
    share: dict[int, float] = defaultdict(float)
    open_children: dict[int, int] = defaultdict(int)
    is_open: set[int] = set()
    leaves: set[int] = set()
    prev = None
    for t, opening, _d, sid in events:
        if leaves:
            part = (t - prev) / len(leaves)
            for leaf in leaves:
                share[leaf] += part
        prev = t
        p = up[sid]
        if opening:
            is_open.add(sid)
            leaves.add(sid)
            if p is not None:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open.discard(sid)
            leaves.discard(sid)
            if p is not None:
                open_children[p] -= 1
                if open_children[p] == 0 and p in is_open:
                    leaves.add(p)

    op_time = sum(end - start for start, end in tracer.ops)
    covered = _union_length((s.start, s.end) for s in spans.values() if up[s.sid] is None)
    unattributed = op_time - covered

    per_round = 1000.0 / rounds  # seconds in total -> ms per round
    metrics: dict[str, float] = {name: 0.0 for name in LAYER_OF_SPAN.values()}
    metrics.update({name: 0.0 for name in CALLS_OF_SPAN.values()})
    busy: dict[str, float] = defaultdict(float)  # span durations, thread time
    total = defaultdict(float)
    for s in spans.values():
        metrics[LAYER_OF_SPAN[s.name]] += share[s.sid] * per_round
        if s.name in CALLS_OF_SPAN:
            metrics[CALLS_OF_SPAN[s.name]] += 1.0 / rounds
        busy[s.name] += s.end - s.start
        for key, value in s.attrs.items():
            if key != "rep":
                total[key] += value

    attributed = sum(metrics[name] for name in set(LAYER_OF_SPAN.values()))
    traced_op_ms = op_time * per_round
    if abs(attributed + unattributed * per_round - traced_op_ms) > 1e-6 * traced_op_ms + 1e-6:
        problems.append(
            f"layer times {attributed:.6f} ms + unattributed {unattributed * per_round:.6f} ms "
            f"!= traced op time {traced_op_ms:.6f} ms per round"
        )

    # replicates: spans carrying the same RngSpec (seed, replicate) inside one experiment
    def experiment_of(sid: int) -> int | None:
        while sid is not None and spans[sid].name != "experiments.experiment":
            sid = up[sid]
        return sid

    reps: dict[tuple, list[float]] = {}
    for s in spans.values():
        if "rep" in s.attrs:
            exp = experiment_of(s.sid)
            if exp is None:
                continue
            bounds = reps.setdefault((exp, s.attrs["rep"]), [s.start, s.end])
            bounds[0] = min(bounds[0], s.start)
            bounds[1] = max(bounds[1], s.end)
    rep_times = [end - start for start, end in reps.values()]
    exp_time = busy["experiments.experiment"]

    metrics.update(
        {
            "core.draw_mb": total["bytes"] / 1e6 / rounds,
            "models.evals_per_sample": (
                total["evals"] / (rows_per_round * rounds) if rows_per_round else 0.0
            ),
            "models.evals_per_ms": (
                total["evals"] / (busy["models.evaluate"] * 1000.0)
                if busy["models.evaluate"] else 0.0
            ),
            "theory.states": total["states"] / rounds,
            "theory.states_per_ms": (
                total["states"] / (busy["theory.enumerate"] * 1000.0)
                if busy["theory.enumerate"] else 0.0
            ),
            "experiments.replicate_ms_p50": (
                statistics.median(rep_times) * 1000.0 if rep_times else 0.0
            ),
            "experiments.concurrency": sum(rep_times) / exp_time if exp_time else 0.0,
            "trace.unattributed_ms": unattributed * per_round,
        }
    )
    return metrics, problems
