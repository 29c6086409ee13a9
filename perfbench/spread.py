"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread (Q3 - Q1, as a share of the median), next to
the bound BENCHMARK.json gives it.

    python3 perfbench/spread.py --workload mf-small --runs 10 [--first-seed 1]

Run from the repository root. Runs are sequential; each uses
BENCHMARK.json's run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())

    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {row}", flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)

    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{metric['name']:>14}: median {med:.6g} {metric['unit']}, "
              f"spread {spread:.3f}, bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
