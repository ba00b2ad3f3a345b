"""Repeat the benchmark over seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/prove.py [--runs 10] [--workload NAME ...] [--trace 0|1]
                               [--write perfbench/baseline.json]

Runs ``run.py`` once per seed (seeds 1..runs) for each workload, one run at a
time, with ``run_seconds`` from BENCHMARK.json. For every metric it prints
the median, the quartiles from ``statistics.quantiles(values, n=4)`` and
their distance as a share of the median, next to the metric's bound. With
``--write`` it stores those figures, the catalog digests and the
environment in the baseline file, under ``end_to_end`` or (``--trace 1``)
``per_layer``, keeping the other section.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def environment() -> dict:
    import yaml
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "pyyaml": yaml.__version__, "libyaml": bool(yaml.__with_libyaml__),
            "yaml_loader_used": "yaml.safe_load (pure-Python SafeLoader)"}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    digest = next((line.split()[1] for line in lines
                   if line.startswith("catalog_sha256 ")), "")
    return json.loads(lines[-1]), digest


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", metavar="PATH")
    args = parser.parse_args()

    section = "per_layer" if args.trace else "end_to_end"
    baseline: dict = {}
    if args.write and Path(args.write).exists():
        baseline = json.loads(Path(args.write).read_text(encoding="utf-8"))
    baseline["environment"] = environment()
    baseline["run_seconds"] = spec["run_seconds"]
    baseline.setdefault(section, {})["seeds"] = list(range(1, args.runs + 1))
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        digests = []
        for seed in range(1, args.runs + 1):
            result, digest = run_once(workload, seed, spec["run_seconds"], args.trace)
            digests.append(digest)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        rows = {}
        print(f"== {workload} ({args.runs} runs)")
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / abs(median) if median else 0.0
            bound = bounds.get(name) if not args.trace else None
            rows[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                          "spread": spread}
            flag = "" if bound is None else (
                f"bound {bound}" + ("  WIDE" if spread > bound / 3 else ""))
            print(f"  {name:45s} median {median:.6g} {units[name]:6s} "
                  f"spread {spread:.3f}  {flag}")
            print("      " + " ".join(f"{v:.4g}" for v in series))
        distinct = sorted(set(digests))
        print(f"  catalog digests: {len(distinct)} distinct")
        baseline[section][workload] = {"metrics": rows, "catalog_sha256": digests}
    if args.write:
        Path(args.write).write_text(json.dumps(baseline, indent=2) + "\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
