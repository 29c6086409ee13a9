"""reflora benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the library is imported from `src/`. The
client is closed-loop and single-threaded: each round is one fresh worker
process (worker.py) that drives `reflora.cli.main` through the workload's
operations one at a time and checks each output, and the client waits for
it before starting the next. Rounds repeat until the next one would end
after `--seconds`, with at least three. Times are the sum over operations
of each operation's median across rounds.

`--trace 0` reports the end-to-end metrics, with tracing off. `--trace 1`
runs the same untraced rounds, then traced rounds with every layer wrapped
(see layers.py), and reports the per-layer metrics. Metric names and units
come from BENCHMARK.json. The last stdout line is the JSON result; details
and spans go to perfbench/out/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import selftest
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
MIN_ROUNDS = 3
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "REFLORA_THREADS")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def setup_times(src: Path, workload: workloads.Workload) -> list[float]:
    """Set-up time of SETUP_PROBES fresh processes, one after another."""
    kind, m, n, k, r, sigma_a, sigma_b = workload.instance
    cmd = [sys.executable, str(HERE / "probe_setup.py"), str(src), kind,
           str(m), str(n), str(k), str(r), repr(sigma_a), repr(sigma_b),
           str(workload.cli_seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def run_rounds(src: Path, workload: workloads.Workload, seed: int,
               trace: bool, seconds: float, min_rounds: int,
               stem: Path) -> list[dict]:
    """Worker rounds until the next one would end after `seconds`.

    A traced round writes its spans to <stem>-spans.csv; the last one stays.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(src), workload.name,
             str(seed), str(int(trace)), f"{stem}-spans.csv"],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"worker exited {done.returncode}:\n{done.stderr}")
        rounds.append(json.loads(done.stdout.splitlines()[-1]))
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed + elapsed / len(rounds) > seconds:
            return rounds


def op_median_sum(rounds: list[dict], field: str) -> float:
    """Sum over operations of each operation's median across rounds.

    A burst of outside load slows one operation of one round; the
    per-operation median drops it where a median of round totals might not.
    """
    return sum(statistics.median(rnd["ops"][i][field] for rnd in rounds)
               for i in range(len(rounds[0]["ops"])))


def step_metrics(untraced: list[dict]) -> dict[str, float]:
    """Per-member step times (from step_time_ns) and steps to tolerance."""
    import numpy as np
    samples: dict[str, list[int]] = {}
    steps_to_tol: dict[str, int] = {}
    for rnd in untraced:
        for op in rnd["ops"]:
            for key, values in op["step_ns"].items():
                samples.setdefault(key, []).extend(values)
            steps_to_tol.update(op["steps_to_tol"])
    m = {}
    for method, optimizer in layers.MEMBERS:
        key = f"{method}.{optimizer}"
        values = samples.get(key)
        for q in (50, 99):
            m[f"optim.{key}.step_us.p{q}"] = (
                float(np.percentile(values, q)) / 1e3 if values else 0.0)
        m[f"optim.steps_to_tol.{key}"] = steps_to_tol.get(key, 0)
    return m


def check_rounds(rounds: list[dict]) -> tuple[int, list[str]]:
    """Failed operations and their errors, comparing bodies across rounds."""
    first = rounds[0]["ops"]
    failed, errors = 0, []
    for r, rnd in enumerate(rounds):
        errors += [f"round {r}: not restored after tracing: {name}"
                   for name in rnd.get("unrestored", [])]
        for i, op in enumerate(rnd["ops"]):
            op_errors = list(op["errors"])
            if op["body"] != first[i]["body"]:
                op_errors.append("CSV body differs from round 0 with the same seed")
            if op_errors:
                failed += 1
                errors.append(f"round {r} op {i}: {'; '.join(op_errors)}")
    return failed, errors


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "reflora" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the repository root (needs src/reflora "
              "and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workload = workloads.build(args.workload, args.seed)
    setup = setup_times(src, workload)
    env = environment()
    print(json.dumps({"env": env}), flush=True)
    sys.path.insert(0, str(src))
    errors = [f"selftest: {e}" for e in selftest.run_all()]

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    untraced = run_rounds(src, workload, args.seed, False, args.seconds,
                          MIN_ROUNDS, stem)
    rounds = list(untraced)
    values: dict[str, float] = {
        "setup_s": statistics.median(setup),
        "wall_s": op_median_sum(untraced, "wall_s"),
        "cpu_s": op_median_sum(untraced, "cpu_s"),
        # the largest: under `compare` a round's peak depends on how the
        # pool threads' m x n arrays overlap, and the median flips between modes
        "peak_rss_mb": max(r["peak_rss_mb"] for r in untraced),
    }
    if args.trace:
        traced = run_rounds(src, workload, args.seed, True, args.seconds, 1, stem)
        rounds += traced
        for name in traced[0]["layers"]:
            values[name] = statistics.median(r["layers"][name] for r in traced)
        values.update(step_metrics(untraced))
        values["harness.csv_bytes"] = statistics.median(
            sum(op["csv_bytes"] for op in r["ops"]) for r in untraced)
        values["trace.overhead_ratio"] = (op_median_sum(traced, "wall_s")
                                          / values["wall_s"])

    attempted = sum(len(r["ops"]) for r in rounds)
    failed, op_errors = check_rounds(rounds)
    errors += op_errors
    values["success_ratio"] = (attempted - failed) / attempted
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    detail = {"workload": workload.name, "seed": args.seed,
              "cli_seed": workload.cli_seed, "env": env, "setup_s": setup,
              "rounds": [{"traced": "layers" in r,
                          "wall_s": [op["wall_s"] for op in r["ops"]],
                          "cpu_s": [op["cpu_s"] for op in r["ops"]],
                          "peak_rss_mb": r["peak_rss_mb"]} for r in rounds],
              "metrics": metrics, "errors": errors}
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    for line in errors:
        print(f"error: {line}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
