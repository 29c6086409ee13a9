"""Self-tests of the benchmark's own machinery.

- Self-time arithmetic on a synthetic span tree with spans from two pool
  threads under one `compare` span, whose children overlap in time.
- Wrapper hygiene: instrumenting and restoring reflora puts back every
  original object, and a CLI operation run afterwards executes the
  original function objects and none of the wrappers.

`run.py` runs both before it measures and counts a failure as an incorrect
run. Standalone, from the repository root:

    python3 perfbench/selftest.py
"""

import contextlib
import io
import sys
from pathlib import Path

import layers
from tracer import Span, covered, self_times, wrapper_codes


def check_self_time_arithmetic() -> list[str]:
    main_t, pool_a, pool_b = 1, 2, 3
    spans = [
        Span(0, -1, "harness.compare", main_t, 0, 100),
        Span(1, 0, "harness.run", pool_a, 5, 60),
        Span(2, 0, "harness.run", pool_b, 10, 90),
        Span(3, 1, "optim.reflora_step", pool_a, 20, 30),
        Span(4, 3, "refactor.optimal_s", pool_a, 22, 28),
        Span(5, 2, "optim.lora_gd_step", pool_b, 40, 45),
        Span(6, 2, "optim.lora_gd_step", pool_b, 50, 58),
    ]
    # compare: 100 - |[5, 90]| = 15; a sum of child durations would give -35
    expected = {0: 15, 1: 55 - 10, 2: 80 - 5 - 8, 3: 10 - 6, 4: 6, 5: 5, 6: 8}
    errors = []
    got = self_times(spans)
    if got != expected:
        errors.append(f"self times {got}, expected {expected}")
    if covered(0, 10, [(5, 20), (-5, 2)]) != 7:
        errors.append("covered() does not clip intervals to the parent span")
    return errors


def check_wrapper_hygiene() -> list[str]:
    from reflora import cli, optim

    errors = []
    before = layers.targets()
    tracer = layers.instrument()
    try:
        still = [attr for owner, attr, original in before
                 if vars(owner)[attr] is original]
        if still:
            errors.append(f"instrument() left unwrapped: {still[:5]}")
    finally:
        tracer.restore()
    left = layers.unrestored(before)
    if left:
        errors.append(f"not restored after tracing: {left[:5]}")

    executed = set()

    def profile(frame, event, arg):
        if event == "call":
            executed.add(frame.f_code)

    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(["mf", "--method", "reflora", "--m", "12",
                             "--n", "10", "--rank", "2", "--steps", "3"])
    finally:
        sys.setprofile(None)
    if code != 0:
        errors.append(f"untraced probe operation exited {code}")
    if executed & wrapper_codes():
        errors.append("an untraced operation ran a tracing wrapper")
    if optim.reflora_step.__code__ not in executed:
        errors.append("an untraced operation did not run optim.reflora_step")
    return errors


def run_all() -> list[str]:
    return check_self_time_arithmetic() + check_wrapper_hygiene()


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    failures = run_all()
    for line in failures:
        print(f"FAIL: {line}")
    print("selftest: ok" if not failures else f"selftest: {len(failures)} failed")
    sys.exit(1 if failures else 0)
