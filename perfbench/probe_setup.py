"""Time one set-up in a fresh process: import reflora, build the workload's
first problem instance and its initial factors. Prints the seconds taken.

    python3 perfbench/probe_setup.py <src dir> <kind> <m> <n> <k> <r> \
        <sigma_a> <sigma_b> <seed>

Imports nothing before the timer starts, numpy included.
"""

import sys
import time


def first_instance(kind: str, m: int, n: int, k: int, r: int,
                   sigma_a: float, sigma_b: float, seed: int):
    """The problem and initial factors a workload's first operation builds."""
    from reflora import problems
    if kind == "mf":
        problem, _ = problems.make_mf(m, n, r, seed)
    else:
        problem, _ = problems.make_linreg(m, n, k, seed)
    return problem, problems.init_factors(m, n, r, seed, sigma_a, sigma_b)


def main(argv: list[str]) -> int:
    src, kind = argv[0], argv[1]
    m, n, k, r = (int(v) for v in argv[2:6])
    sigma_a, sigma_b = float(argv[6]), float(argv[7])
    seed = int(argv[8])
    sys.path.insert(0, src)
    start = time.perf_counter()
    first_instance(kind, m, n, k, r, sigma_a, sigma_b, seed)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
