"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/collect.py --seeds 1-10 --traced-seed 1 --out bench/BENCH_baseline.json

Each run is its own ``bench/run.py`` process, one after another, on every
workload in ``BENCHMARK.json`` and for its ``run_seconds``. For every workload
and end-to-end metric this prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, next to the bound in ``BENCHMARK.json``. It does the same,
without a bound, for the figures a run prints as measured (``cycle_ms_p99``,
``measured_runs_per_s``, ``measured_cycle_ms_p50``, ``speed_factor_median``).
With ``--traced-seed`` it adds one traced run per workload. ``--out`` writes
all of it, each run's printed figures too, with the Python and numpy versions
and the CPU count, as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


# figures an untraced run prints as measured but leaves out of its JSON line
PRINTED = ("cycle_ms_p99", "measured_runs_per_s", "measured_cycle_ms_p50",
           "speed_factor_median")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run's JSON result, with its other printed figures under ``printed``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    result["printed"] = {}
    for line in lines:  # run.py's report lines: workload, name, value, unit
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload and parts[1] not in result["metrics"]:
            result["printed"][parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
    return result


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 3,5,8")
    ap.add_argument("--traced-seed", type=int, help="also make one traced run per workload")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)

    result = {
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "nproc": os.cpu_count(), "machine": platform.machine()},
        "seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for seed in seeds:
            out = run_once(workload, seed, seconds, 0)
            runs.append(out)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items())
            print(f"{workload} seed={seed} correct={out['correct']} "
                  f"failed={out['failed']}/{out['attempted']} {values}", flush=True)
        entry = {"runs": runs, "end_to_end": {}, "printed": {}}
        for section, key, names in (("end_to_end", "metrics", list(runs[0]["metrics"])),
                                    ("printed", "printed", PRINTED)):
            for name in names:
                stats = spread([r[key][name]["value"] for r in runs])
                stats["unit"] = runs[0][key][name]["unit"]
                stats["bound"] = bounds.get(name)
                entry[section][name] = stats
                print(f"  {workload:<17} {name:<21} median {stats['median']:<12.6g} "
                      f"spread {stats['spread']:.4f} bound {stats['bound']}", flush=True)
        if args.traced_seed is not None:
            entry["traced"] = run_once(workload, args.traced_seed, seconds, 1)
        result["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
