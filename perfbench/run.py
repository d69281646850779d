"""sobolmc benchmark: one workload in a single-process closed loop.

    python3 perfbench/run.py --workload study-product6 --seed 2026 --seconds 28 --trace 0

One caller issues the next op only after the previous one returns; the
library itself runs at most ``nproc`` = 2 replicate threads.  Every op's
output is checked (see ``workloads.py``), and the last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer ones, from a run that alternates
untraced and traced rounds (see ``spans.py``).

Only stdlib modules are imported before the set-up clock starts, so
``setup_s`` includes importing sobolmc and numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60



def _benchmark_spec() -> dict:
    """Workload names and metric units, from the repository's BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_workloads():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import sobolmc

    if not Path(sobolmc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"sobolmc was found at {sobolmc.__file__}, outside this checkout")
    import workloads

    return workloads


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten samples beyond it."""
    n = len(latencies)
    pct = max(0.0, 100.0 * (1.0 - 10.0 / n))
    ordered = sorted(latencies)
    pos = pct / 100.0 * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return pct, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(plan, seconds: float, tracer=None, mutate=None) -> dict:
    """Run ops in a closed loop for ``seconds``; gate every output.

    Ops cycle through the plan; one cycle is a round, the workload's fixed
    work.  Every op must reproduce round 0's output byte for byte.  Without
    a tracer the loop may stop mid-round; with one it runs whole rounds,
    alternating untraced and traced, at least one of each.
    """
    ops = plan.ops
    k = len(ops)
    first: list[str] = []
    latencies: list[float] = []
    round_time = {False: [], True: []}
    failures: list[str] = []
    samples = 0
    kernel = [0, 0.0]  # minor page faults and kernel CPU seconds of traced rounds
    deadline = perf_counter() + seconds
    i = 0
    traced = False
    while True:
        slot = i % k
        if slot == 0:
            min_rounds = 2 if tracer is not None else 1
            if i >= k * min_rounds and perf_counter() >= deadline:
                break
            traced = tracer is not None and (i // k) % 2 == 1
            if traced:
                usage0 = resource.getrusage(resource.RUSAGE_SELF)
                tracer.install()
            in_round = 0.0
        elif tracer is None and i >= k and perf_counter() >= deadline:
            break
        op = ops[slot]
        t0 = perf_counter()
        try:
            text, value = op.run()
            err = None
        except Exception as exc:  # a raising op is a failed op; keep measuring
            text, value, err = None, None, f"raised {exc!r}"
        t1 = perf_counter()
        latencies.append(t1 - t0)
        in_round += t1 - t0
        samples += op.samples
        if traced:
            tracer.ops.append((t0, t1))
        if err is None and mutate is not None:
            text = mutate(i, text)
        if err is None:
            try:
                err = op.check(text, value)
            except Exception as exc:  # malformed output the parser did not anticipate
                err = f"check raised {exc!r}"
        if err is None and i >= k and text != first[slot]:
            err = "output differs from round 0"
        if i < k:
            first.append(text or "")
        if err is not None:
            failures.append(f"op {i}: {err}")
        if slot == k - 1:
            if traced:
                tracer.uninstall()
                usage1 = resource.getrusage(resource.RUSAGE_SELF)
                kernel[0] += usage1.ru_minflt - usage0.ru_minflt
                kernel[1] += usage1.ru_stime - usage0.ru_stime
            round_time[traced].append(in_round)
        i += 1
    return {
        "first": first,
        "latencies": latencies,
        "round_time": round_time,
        "failures": failures,
        "samples": samples,
        "attempted": i,
        "kernel": kernel,
    }


def setup_probe(workload: str, seed: int, scale: str) -> float:
    """Seconds from ``import sobolmc`` to the end of set-up, in this process."""
    t0 = perf_counter()
    workloads = _import_workloads()
    workloads.prepare(workload, seed, OUT / "work", scale)
    return perf_counter() - t0


def _probe_in_fresh_interpreters(workload: str, seed: int, count: int) -> list[float]:
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    match = re.search(r"^model name\s*:\s*(.+)$", text, re.M)
    return match.group(1) if match else None


def _cache_bytes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / name) for name in ("level", "type", "size"))
        if level and size and kind in ("Unified", "Data") and size[-1] in "KM":
            sizes[f"L{level}"] = int(size[:-1]) * (1024 if size[-1] == "K" else 1024**2)
    return sizes


def _git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def host_record(workloads, plan) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "default_batch": workloads.DEFAULT_BATCH,
        "workers": workloads.WORKERS,
        "git_commit": _git_commit(),
        "cache_bytes": _cache_bytes(),
        "largest_array": {
            "bytes": plan.largest_array_bytes,
            "what": plan.largest_array,
            "how": "computed from array shapes",
        },
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  scale: str = "full", setup_probes: int = SETUP_PROBES, mutate=None) -> dict:
    """Set up, measure and gate one workload; return the result and its record."""
    workloads = _import_workloads()
    probes = _probe_in_fresh_interpreters(workload, seed, setup_probes)
    t0 = perf_counter()
    plan = workloads.prepare(workload, seed, OUT / "work", scale)
    if not probes:
        probes = [perf_counter() - t0]

    tracer = None
    if trace:
        import spans as tracing

        tracer = tracing.Tracer()
    m = measure(plan, seconds, tracer, mutate)
    failures, attempted = m["failures"], m["attempted"]
    round0 = "".join(m["first"])
    digest = hashlib.sha256(round0.encode()).hexdigest()
    notes = {"output_sha256": digest}

    if plan.extra_check is not None:
        attempted += 1
        err = plan.extra_check(round0)
        if err is not None:
            failures.append(f"one-worker check: {err}")
    pins = json.loads((HERE / "pins.json").read_text())
    pin = pins["workloads"].get(workload) if seed == pins["seed"] and scale == "full" else None
    if pin is not None:
        notes["pinned"] = True
        if digest != pin["sha256"]:
            failures.append(f"round 0 output sha256 {digest} differs from the pin")
        checks = [workloads.ledger_checks(t) for t in m["first"]]
        if "checks" in pin and checks != pin["checks"]:
            failures.append(f"ledger check counts {checks} differ from the pin {pin['checks']}")

    lat = m["latencies"]
    untraced = m["round_time"][False]
    if trace:
        rounds = len(m["round_time"][True])
        metrics, problems = tracing.analyse(tracer, rounds, plan.sampling_rows)
        metrics["process.minor_faults"] = m["kernel"][0] / rounds
        metrics["process.sys_ms"] = m["kernel"][1] * 1000.0 / rounds
        checks = [workloads.ledger_checks(t) for t in m["first"]]
        metrics["verification.checks"] = float(sum(c for c in checks if c is not None))
        metrics["trace.overhead_frac"] = (
            statistics.median(m["round_time"][True]) / statistics.median(untraced) - 1.0
        )
        failures.extend(f"trace: {p}" for p in problems)
        units = {spec["name"]: spec["unit"] for spec in _benchmark_spec()["per_layer"]}
        _write_spans(tracer, workload, seed)
    else:
        pct, tail = tail_latency(lat)
        notes["op_ms_tail"] = {"percentile": round(pct, 3), "ops": len(lat)}
        metrics = {
            "setup_s": statistics.median(probes),
            "run_s": statistics.median(untraced) if untraced else sum(lat),
            "samples_per_s": m["samples"] / sum(lat),
            "op_ms_p50": statistics.median(lat) * 1000.0,
            "op_ms_tail": tail * 1000.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {spec["name"]: spec["unit"] for spec in _benchmark_spec()["end_to_end"]}
    failed = min(len(failures), attempted)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    record.update(host_record(workloads, plan))
    record.update(notes)
    record.update({
        "rounds": len(untraced) + len(m["round_time"][True]),
        "ops_per_round": len(plan.ops),
        "setup_probe_s": probes,
        "fail_frac": failed / attempted,
        "failures": failures[:20],
    })
    return {"result": result, "record": record}


def _write_spans(tracer, workload: str, seed: int) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"spans-{workload}-{seed}.jsonl", "w") as out:
        for s in tracer.spans:
            out.write(json.dumps({
                "id": s.sid, "name": s.name, "tid": s.tid, "parent": s.parent,
                "start": s.start, "end": s.end,
                "attrs": {k: list(v) if isinstance(v, tuple) else v for k, v in s.attrs.items()},
            }) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in _benchmark_spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed, "full"))
        return 0
    try:
        out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import sobolmc from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    result, record = out["result"], out["record"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"workers {record['workers'][args.workload]}  rounds {record['rounds']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<30} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        tail = record["op_ms_tail"]
        print(f"  op_ms_tail is p{tail['percentile']} of {tail['ops']} ops")
    print(f"  fail_frac {record['fail_frac']:.6g} ({result['failed']}/{result['attempted']})")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"record-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=2) + "\n"
    )
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
