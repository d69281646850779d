"""The benchmark's traced run rebinds sobolmc names: each must still exist."""

import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from sobolmc import core, estimators, theory

    targets = spans._targets()
    for owner, attr, name, _hook in targets:
        assert callable(getattr(owner, attr, None)), (owner, attr, name)
    # the names a refactor could drop from under --trace 1
    traced = {(owner, attr) for owner, attr, *_ in targets}
    for owner, attr in [
        (core, "blend"),
        (theory, "enumerate_expectation"),
        (estimators, "run_multi_u"),
        (estimators.Accumulator, "add_batch"),
    ]:
        assert (owner, attr) in traced, attr
    # the parameters the span hooks bind by name
    for fn, params in [
        (estimators.accumulate_terms, {"rng"}),
        (theory.enumerate_expectation, {"model", "kind"}),
        (core.BlockSampler.draw_role, {"n"}),
    ]:
        assert params <= set(inspect.signature(fn).parameters), fn.__qualname__
