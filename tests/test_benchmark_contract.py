"""The library entry points the benchmark under perfbench/ calls.

perfbench/probe_setup.py times `problems.make_mf(m, n, r, seed)` /
`problems.make_linreg(m, n, k, seed)` plus
`problems.init_factors(m, n, r, seed, sigma_a, sigma_b)`, and
perfbench/worker.py measures `problem.loss_at_factors(f)` on the result and
drives `reflora.cli.main(argv)`, and perfbench/layers.py wraps
`LowRankFactors.is_full_rank` by name. A refactor that changes any of these
breaks the benchmark, so they are pinned here; `loss_at_factors` and
`is_full_rank` serve only the benchmark, so this file alone reads them.
perfbench/workloads.py checks each operation's output, including
convergence of the members it marks; the mf-large and mf-small gates are
pinned here too, so a change of the instance cannot break them unnoticed.
perfbench/selftest.py, run before every benchmark run, requires a
`reflora mf` run to execute `optim.reflora_step`.
"""

import ast
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from reflora import cli, optim, problems

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
BENCHMARK_ONLY = ("loss_at_factors", "is_full_rank")


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_probe_setup():
    return load_perfbench("probe_setup")


def test_positional_signatures():
    problem, inst = problems.make_mf(12, 10, 3, 5)
    assert isinstance(problem, problems.Problem)
    assert isinstance(inst, problems.MfInstance)
    problem, inst = problems.make_linreg(2, 2, 2, 5)
    assert isinstance(problem, problems.Problem)
    assert isinstance(inst, problems.LinRegInstance)
    f = problems.init_factors(12, 10, 3, 5, 1.0, 0.0)
    assert f.a.shape == (12, 3) and f.b.shape == (10, 3)


@pytest.mark.parametrize("instance", [
    ("mf", 12, 10, 0, 3, 1.0, 0.0),
    ("linreg", 2, 2, 2, 1, float(np.sqrt(10.0)), float(np.sqrt(0.1))),
])
def test_probe_setup_first_instance(instance):
    problem, f = load_probe_setup().first_instance(*instance, 11)
    loss = problem.loss_at_factors(f)
    assert isinstance(loss, float) and np.isfinite(loss) and loss > 0.0
    if instance[0] == "mf":
        # zero-init B: the loss is half the target's squared norm
        assert loss == pytest.approx(0.5 * np.sum(problem.inst.y ** 2), rel=1e-12)


def test_loss_at_factors_is_the_fused_loss():
    # the benchmark's loss is the loss the run loop reads, bit for bit
    for problem, _ in (problems.make_mf(14, 11, 3, 45),
                       problems.make_linreg(5, 6, 9, 45)):
        for sigma_b in (0.0, 1.0):
            f = problems.init_factors(problem.m, problem.n, 3, 45, 1.0, sigma_b)
            assert problem.loss_at_factors(f) == problem.value_and_grad(f)[0]


def benchmark_only_reads(path):
    return [f"{path.relative_to(ROOT)}:{node.lineno}: {node.attr}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in BENCHMARK_ONLY]


def test_only_the_benchmark_reads_its_names():
    # deleting the two names once the benchmark stops naming them must
    # touch no library module and no other test
    here = Path(__file__).resolve()
    reads = [read for tree in ("src", "tests")
             for path in sorted((ROOT / tree).rglob("*.py")) if path != here
             for read in benchmark_only_reads(path)]
    assert reads == []
    assert benchmark_only_reads(here)


def test_cli_main_returns_exit_code_and_writes_stdout():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["compare", "--methods", "lora,reflora", "--etas",
                         "0.002", "--m", "12", "--n", "10", "--rank", "2",
                         "--sigma-b", "0", "--log-every", "1", "--steps",
                         "4", "--seed", "3"])
    assert code == 0
    body = [l for l in out.getvalue().splitlines() if not l.startswith("#")]
    assert "lora-eta0.002.loss" in body[0].split(",")
    assert len(body) == 6


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mf_large_reflora_converges(seed):
    # the mf-large correctness gate: reflora/GD at 1024^2, eta 0.002, must
    # reach TOL x its initial loss within the run (59-65 steps of 90 over
    # 150 seeds of the instances make_mf builds), and every output check
    # must pass
    workloads = load_perfbench("workloads")
    (op,) = workloads.build("mf-large", seed).ops
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(op.argv))
    outcome = workloads.check(op, code, out.getvalue())
    assert outcome.errors == []
    assert outcome.steps_to_tol["reflora.gd"] <= workloads.MF_LARGE_STEPS


@pytest.mark.parametrize("seed", [1, 2])
def test_mf_small_converging_members_converge(seed):
    # the mf-small correctness gate: every member the workload marks as
    # converging must reach TOL x its initial loss within the run, and every
    # output check must pass; the unmarked members are not run here
    workloads = load_perfbench("workloads")
    ops = [op for op in workloads.build("mf-small", seed).ops
           if op.members[0].converges]
    assert ops
    for op in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(op.argv))
        outcome = workloads.check(op, code, out.getvalue())
        assert outcome.errors == []
        key = op.members[0].key
        assert outcome.steps_to_tol[key] <= workloads.MF_SMALL_STEPS


@pytest.mark.parametrize("method", list(optim.METHODS))
def test_mf_run_executes_the_stepper(method):
    # perfbench/selftest.py fails unless a `reflora mf` run executes
    # optim.reflora_step; every method steps through it
    executed = set()

    def profile(frame, event, arg):
        if event == "call":
            executed.add(frame.f_code)

    out = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["mf", "--method", method, "--m", "12", "--n",
                             "10", "--rank", "2", "--steps", "3"])
    finally:
        sys.setprofile(None)
    assert code == 0
    assert optim.reflora_step.__code__ in executed


def test_perfbench_selftest_passes(monkeypatch):
    # perfbench/selftest.py runs before every benchmark run and wraps
    # reflora functions by name (perfbench/layers.py), so deleting or
    # renaming one of them fails every run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    assert load_perfbench("selftest").run_all() == []
