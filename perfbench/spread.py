"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload mc-expect --seeds 1-10 [--seconds 20]

Runs ``run.py`` once per seed, one run at a time, and prints per metric the
median and (Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``
gives them, next to the metric's bound from BENCHMARK.json.  The metrics
that ``run.py`` prints but leaves out of its result line (PRINTED_ONLY)
are included.  Raw results are
appended as JSON lines to ``--log`` when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Metrics that run.py prints above the result line but leaves out of it.
PRINTED_ONLY = (
    "norm_mc_samples_per_s", "norm_systems_per_s", "norm_time_to_1pct_s", "raw_wall_s", "raw_setup_s", "slowdown"
)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def relative_spread(values) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median) of ``values``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    values = {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}
    for line in lines:  # the workload-specific metrics printed above the result
        parts = line.split()
        if len(parts) == 3 and parts[0] in PRINTED_ONLY:
            values[parts[0]] = float(parts[1])
    values["correct"] = json.loads(lines[-1])["correct"]
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--log", default=None)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        values = run_once(args.workload, seed, seconds)
        runs.append(values)
        print(f"seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in values.items() if k != "correct")
              + ("" if values["correct"] else " INCORRECT"), flush=True)
        if args.log:
            with open(args.log, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed, **values}) + "\n")
    for name in runs[0]:
        if name == "correct":
            continue
        med, spread = relative_spread([r[name] for r in runs])
        bound = bounds.get(name)
        note = f"bound {bound}" if bound is not None else "not in BENCHMARK.json"
        print(f"{name:18s} median {med:.6g}  spread {spread:.4f}  ({note})")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
