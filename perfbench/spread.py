"""Run-to-run spread: run one workload on several seeds, report IQR/median.

    python3 perfbench/spread.py --workload explicit-flow --runs 10 --first-seed 1

Each run is a separate plain (``--trace 0``) ``run.py`` process with its
own seed.  For every end-to-end metric the script prints the median of the runs and the distance
between the first and third quartile as a share of that median (the
figure the bounds in ``BENCHMARK.json`` are judged against).  Runs
append their detail and result lines to ``--log`` when given.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from harness import median, spread

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--log", default=None)
    args = parser.parse_args()

    values = {}
    units = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True,
            text=True,
        )
        wall = time.perf_counter() - started
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: {wall:.1f} s wall, correct={result['correct']} failed={result['failed']}",
              flush=True)
        if args.log:
            with open(args.log, "a") as log:
                details = [line for line in lines[:-1] if line.startswith("# ")]
                entry = {"workload": args.workload, "seed": seed, "wall": wall}
                entry.update(details=details, result=result)
                log.write(json.dumps(entry) + "\n")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    for name, series in values.items():
        print(f"{name:32s} median {median(series):.6g} {units[name]:6s} spread {spread(series):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
