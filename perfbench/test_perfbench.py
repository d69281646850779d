"""The benchmark's own test: a tiny smoke of every workload, the output
pins, and negative controls that a broken output is counted as failed.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def tiny(workload: str, trace: bool, seed: int = 2026, mutate=None) -> dict:
    return run.run_benchmark(workload, seed, 0, trace, scale="tiny", setup_probes=0, mutate=mutate)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_reports_every_metric_with_its_unit(workload, trace):
    out = tiny(workload, trace)
    result = out["result"]
    assert result["correct"], out["record"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(got["unit"])
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])


def test_traced_studies_count_the_shared_design_evaluations():
    # 4 kinds x 9 sets share 52 evaluations per sample on product6 and
    # 4 kinds x 6 sets share 37 on g at this commit
    for workload, evals in (("study-product6", 52), ("study-g-2w", 37)):
        metrics = tiny(workload, True)["result"]["metrics"]
        assert metrics["models.evals_per_sample"]["value"] == evals


def test_default_seed_outputs_match_the_pins():
    for workload in WORKLOADS:
        out = run.run_benchmark(workload, 2026, 0, False, setup_probes=0)
        assert out["record"]["pinned"]
        assert out["result"]["correct"], out["record"]["failures"]


def test_one_flipped_csv_byte_fails():
    def flip(_i, text):
        pos = len(text) // 2
        return text[:pos] + chr(ord(text[pos]) ^ 1) + text[pos + 1:]

    out = run.run_benchmark("study-g-2w", 2026, 0, False, setup_probes=0, mutate=flip)
    assert out["record"]["fail_frac"] > 0 and not out["result"]["correct"]


def test_one_estimate_shifted_by_ten_standard_errors_fails():
    def shift(i, text):
        if i != 0:
            return text
        records = json.loads(text)
        records[0]["estimate"] += 10 * records[0]["std_error"]
        return json.dumps(records, indent=2) + "\n"

    out = tiny("estimate-cli", False, seed=11, mutate=shift)
    assert out["record"]["fail_frac"] > 0 and not out["result"]["correct"]


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
