import dataclasses
import io

import numpy as np
import pytest

from reflora import harness, optim, problems, refactor
from reflora.harness import BoundScanSpec, RunSpec
from reflora.refactor import LowRankFactors, RefactorMode

from test_problems import mf_instance


def mf_spec(**kw):
    base = dict(problem="mf", m=24, n=20, r=3, seed=0, eta=0.01,
                method="reflora", iterations=150, log_every=1)
    base.update(kw)
    return RunSpec(**base)


class TestRun:
    def test_zero_gradient_trace_is_flat(self):
        # A0 = 0 and B0 = 0: both factor gradients vanish, nothing moves
        res = harness.run(mf_spec(method="lora", sigma_a=0.0, iterations=20))
        losses = {rec.loss for rec in res.records}
        assert len(losses) == 1
        assert all(rec.grad_norm_a == 0 and rec.grad_norm_b == 0
                   for rec in res.records)
        assert not res.diverged

    def test_zero_target_flat_at_zero(self):
        problem = problems.MatrixFactorizationProblem(
            mf_instance(np.zeros((6, 5))))
        f = problems.init_factors(6, 5, 2, seed=1, sigma_a=0.0)
        cfg = optim.StepConfig(eta=0.1, method="lora")
        for _ in range(5):
            f, _ = optim.reflora_step(f, problem.value_and_grad(f)[1], cfg)
            assert problem.loss_at_factors(f) == 0.0

    def test_reflora_loss_decreases_after_warmup(self):
        res = harness.run(mf_spec())
        losses = [rec.loss for rec in res.records if rec.step >= 1]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(losses, losses[1:]))
        assert not res.diverged

    def test_lora_diverges_at_high_rate(self):
        res = harness.run(RunSpec(problem="mf", m=128, n=100, r=8, seed=0,
                                  eta=0.03, method="lora", iterations=40))
        assert res.diverged
        assert res.diverged_step is not None
        assert len(res.records) == 41  # keeps logging past divergence

    def test_overflowing_step_is_divergence(self):
        # L = 1e-200 makes the small-eta branch's s overflow at the first
        # refactored step, before the loss has passed the divergence latch
        mode = RefactorMode(kind="theorem-exact", lipschitz=1e-200)
        res = harness.run(mf_spec(m=8, n=6, r=2, refactor_mode=mode,
                                  iterations=5))
        assert res.diverged and res.diverged_step == 2
        assert len(res.records) == 6
        assert not np.isfinite(res.records[-1].loss)

    @pytest.mark.parametrize("method", optim.METHODS)
    def test_balance_gap_is_raw_gram_gap(self, method):
        # every method reports its raw pair's gap; the balanced pair's Gram
        # equality is an identity, checked by the props instead
        res = harness.run(mf_spec(method=method, iterations=10))
        a, b = res.final_factors.a, res.final_factors.b
        ga, gb = a.T @ a, b.T @ b
        expected = np.linalg.norm(ga - gb) / np.linalg.norm(ga)
        assert res.records[-1].balance_gap == pytest.approx(expected,
                                                            rel=1e-12)

    def test_determinism(self):
        a = harness.run(mf_spec(iterations=40))
        b = harness.run(mf_spec(iterations=40))
        for ra, rb in zip(a.records, b.records):
            assert ra.step == rb.step
            assert ra.loss == rb.loss
            assert ra.norm_a == rb.norm_a
            assert ra.grad_norm_b == rb.grad_norm_b
            assert ra.balance_gap == rb.balance_gap

    def test_log_every_and_final_row(self):
        res = harness.run(mf_spec(iterations=50, log_every=7))
        steps = [rec.step for rec in res.records]
        assert steps == [0, 7, 14, 21, 28, 35, 42, 49, 50]
        assert all(x < y for x, y in zip(steps, steps[1:]))

    def test_adam_run(self):
        res = harness.run(mf_spec(method="reflora", optimizer="adam",
                                  eta=0.05, iterations=100))
        assert res.final_loss < res.initial_loss
        assert not res.diverged

    def test_reflora_s_run(self):
        res = harness.run(mf_spec(method="reflora-s", iterations=200))
        assert res.final_loss < 1e-6 * res.initial_loss

    def test_linreg_run(self):
        res = harness.run(RunSpec(problem="linreg", m=2, n=2, k=2, r=1,
                                  seed=0, eta=0.05, method="reflora",
                                  sigma_a=np.sqrt(10.0), sigma_b=np.sqrt(0.1),
                                  iterations=100))
        assert res.final_loss < res.initial_loss

    def test_trace_csv_format(self, tmp_path):
        res = harness.run(mf_spec(iterations=5))
        buf = io.StringIO()
        harness.write_csv(buf, harness.TRACE_COLUMNS,
                          harness.cells(res.records, harness.TRACE_COLUMNS),
                          header_lines=["hello"])
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# hello"
        assert lines[1] == ("step,loss,norm_a,norm_b,grad_norm_a,grad_norm_b,"
                            "balance_gap,step_time_ns")
        assert lines[1] == ",".join(
            f.name for f in dataclasses.fields(harness.TraceRecord))
        first = lines[2].split(",")
        assert first[0] == "0"
        # 17-significant-digit decimals round-trip exactly
        assert float(first[1]) == res.records[0].loss

    def test_adapter_scale(self):
        # alpha = r is the factor-1 default; other values change the run
        base = dict(problem="mf", m=16, n=12, r=3, seed=1, method="reflora",
                    iterations=25, log_every=1)
        plain = harness.run(RunSpec(**base, eta=0.01))
        unit = harness.run(RunSpec(**base, eta=0.01, alpha=3.0))
        assert all(a.loss == b.loss for a, b in zip(plain.records, unit.records))
        scaled = harness.run(RunSpec(**base, eta=0.0005, alpha=24.0))
        assert scaled.records[5].loss != plain.records[5].loss
        assert scaled.final_loss < scaled.initial_loss


class TestLoraAdam:
    def test_adam_from_step_zero_without_rank_guard(self):
        g = np.random.Generator(np.random.Philox(44))
        problem, _ = problems.make_mf(12, 10, 3, seed=4)
        f = problems.init_factors(12, 10, 3, seed=4)  # B = 0
        cfg = optim.StepConfig(eta=0.01, method="lora", optimizer=optim.ADAM)
        state = optim.OptimizerState.zeros(12, 10, 3)
        gp = problem.value_and_grad(f)[1]
        f, state = optim.reflora_step(f, gp, cfg, state, 0)
        assert state.step == 1
        col = g.standard_normal((10, 1))
        f = LowRankFactors(g.standard_normal((12, 3)),
                           np.hstack([col, col, col]))
        gp = problem.value_and_grad(f)[1]
        f, state = optim.reflora_step(f, gp, cfg, state, 5)
        assert state.step == 2

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_long_run_stays_finite(self, seed):
        res = harness.run(RunSpec(problem="mf", m=128, n=100, r=8, seed=seed,
                                  eta=0.01, method="lora", optimizer="adam",
                                  sigma_b=0.0, iterations=750, log_every=50))
        assert not res.diverged
        assert all(np.isfinite(rec.loss) for rec in res.records)


class TestCompare:
    def test_single_spec_matches_run(self):
        spec = mf_spec(iterations=30)
        table = harness.compare([spec])
        res = harness.run(spec)
        assert table.columns[0] == "step"
        assert len(table.rows) == len(res.records)
        loss_col = table.columns.index("reflora-eta0.01.loss")
        for row, rec in zip(table.rows, res.records):
            assert row[0] == rec.step
            assert row[loss_col] == rec.loss

    def test_three_methods_aligned(self):
        specs = [mf_spec(method=m, iterations=30)
                 for m in ("lora", "reflora", "scaledgd")]
        table = harness.compare(specs)
        assert "lora-eta0.01.loss" in table.columns
        assert "reflora-eta0.01.loss" in table.columns
        assert "scaledgd-eta0.01.loss" in table.columns
        assert len(table.rows) == 31

    def test_duplicate_specs_identical_columns(self):
        spec = mf_spec(iterations=25)
        table = harness.compare([spec, spec])
        k = len(table.columns) // 2  # step + 2 * 7 fields
        for row in table.rows:
            assert row[1] == row[1 + 7]  # loss columns agree

    def test_mismatched_seeds_rejected(self):
        with pytest.raises(ValueError):
            harness.compare([mf_spec(seed=0), mf_spec(seed=1)])

    @pytest.mark.parametrize("other", [{"iterations": 20}, {"log_every": 3}])
    def test_mismatched_steps_rejected(self, other):
        with pytest.raises(ValueError, match="iterations and log_every"):
            harness.compare([mf_spec(iterations=10),
                             mf_spec(**{"iterations": 10, **other})])

    def test_rerun_identical(self):
        specs = [mf_spec(method=m, iterations=20)
                 for m in ("lora", "reflora")]
        first = harness.compare(specs)
        second = harness.compare(specs)
        # step times differ between executions; the data columns must not
        skip = {i for i, c in enumerate(first.columns)
                if c.endswith("step_time_ns")}
        for row_1, row_2 in zip(first.rows, second.rows):
            for i, (a, b) in enumerate(zip(row_1, row_2)):
                if i not in skip:
                    assert a == b

    def test_instance_built_once(self, monkeypatch):
        calls = []
        make_mf = problems.make_mf

        def counting(*args, **kwargs):
            calls.append(args)
            return make_mf(*args, **kwargs)

        monkeypatch.setattr(problems, "make_mf", counting)
        specs = [mf_spec(method=m, iterations=10)
                 for m in optim.METHODS]
        table = harness.compare(specs)
        assert len(calls) == 1
        assert len(table.rows) == 11


class DenseWork(AssertionError):
    pass


def _forbidden(*args, **kwargs):
    raise DenseWork("formed an m x n array")


# every method/optimizer pair the CLI accepts
CLI_PAIRS = ([(m, optim.GD) for m in optim.METHODS]
             + [(m, opt) for opt in (optim.ADAM, optim.ADAMW)
                for m in (optim.METHOD_LORA, optim.METHOD_REFLORA,
                          optim.METHOD_REFLORA_S)])


class TestNoDenseWork:
    """The run loop and compare, instance build included, never form W,
    A @ B.T, the dense gradient or the dense MF target."""

    SPECS = {
        "mf": dict(problem="mf", m=24, n=20, r=3, eta=0.01),
        "linreg": dict(problem="linreg", m=6, n=5, k=7, r=2, eta=0.005,
                       sigma_b=0.3),
    }

    @pytest.fixture(autouse=True)
    def forbid_dense(self, monkeypatch):
        monkeypatch.setattr(problems.Problem, "full_weight", _forbidden)
        monkeypatch.setattr(refactor.LowRankFactors, "product", _forbidden)
        for cls in (problems.MatrixFactorizationProblem,
                    problems.LinearRegressionProblem):
            monkeypatch.setattr(cls, "loss", _forbidden)
            monkeypatch.setattr(cls, "grad", _forbidden)
        monkeypatch.setattr(problems.MfInstance, "y", property(_forbidden))

    def test_guard_bites(self):
        problem, inst = problems.make_mf(6, 5, 2, seed=0)
        f = problems.init_factors(6, 5, 2, seed=0)
        for read in (lambda: problem.loss(f.a @ f.b.T), f.product,
                     lambda: inst.y):
            with pytest.raises(DenseWork):
                read()

    @pytest.mark.parametrize("kind", ["mf", "linreg"])
    @pytest.mark.parametrize("method,optimizer", CLI_PAIRS)
    def test_run(self, kind, method, optimizer):
        res = harness.run(RunSpec(**self.SPECS[kind], seed=2, method=method,
                                  optimizer=optimizer, iterations=30))
        assert len(res.records) == 31

    def test_one_fused_call_per_step(self, monkeypatch):
        calls = []
        fused = problems.MatrixFactorizationProblem.value_and_grad

        def counting(self, f, scale=1.0):
            calls.append(scale)
            return fused(self, f, scale)

        monkeypatch.setattr(problems.MatrixFactorizationProblem,
                            "value_and_grad", counting)
        harness.run(RunSpec(**self.SPECS["mf"], seed=2, iterations=30))
        assert len(calls) == 31  # the initial point, then one per step

    @pytest.mark.parametrize("kind", ["mf", "linreg"])
    def test_compare(self, kind):
        specs = [RunSpec(**self.SPECS[kind], seed=2, method=m, iterations=10)
                 for m in optim.METHODS]
        assert len(harness.compare(specs).rows) == 11


class TestBoundScan:
    def test_grid_excludes_zero(self):
        spec = BoundScanSpec(points=101)
        grid = harness.eta_grid(spec)
        assert 0.0 not in grid
        assert len(grid) == 100

    def test_rows_cover_both_modes(self):
        spec = BoundScanSpec(points=21, seed=0)
        rows = harness.bound_scan(spec)
        assert len(rows) == 40
        assert {r.mode for r in rows} == {"identity", "theorem-exact"}

    def test_jump_discontinuity_near_zero(self):
        rows = harness.bound_scan(BoundScanSpec(points=201, seed=0))
        texact = sorted((r for r in rows if r.mode == "theorem-exact"),
                        key=lambda r: r.eta)
        below = max((r for r in texact if r.eta < 0), key=lambda r: r.eta)
        above = min((r for r in texact if r.eta > 0), key=lambda r: r.eta)
        assert abs(below.upper_bound - above.upper_bound) > 1e-3

    def test_identity_near_zero_matches_current_loss(self):
        spec = BoundScanSpec(points=201, seed=0, eta_min=-0.01, eta_max=0.01)
        rows = harness.bound_scan(spec)
        problem, _ = problems.make_linreg(2, 2, 2, seed=0)
        f = problems.init_factors(2, 2, 1, seed=0, sigma_a=np.sqrt(10.0),
                                  sigma_b=np.sqrt(0.1))
        loss_now = problem.loss_at_factors(f)
        ident = sorted((r for r in rows if r.mode == "identity"),
                       key=lambda r: abs(r.eta))[0]
        assert abs(ident.eta) == pytest.approx(1e-4)
        assert ident.true_loss == pytest.approx(loss_now, rel=2e-2)

    def test_bound_plus_remainder_dominates(self):
        rows = harness.bound_scan(BoundScanSpec(points=101, seed=3))
        for r in rows:
            certified = r.upper_bound + r.remainder
            assert certified >= r.true_loss - 1e-9 * max(1.0, abs(certified))

    def test_theorem_exact_min_not_worse(self):
        rows = harness.bound_scan(BoundScanSpec(points=201, seed=0))
        min_i = min(r.true_loss for r in rows if r.mode == "identity")
        min_t = min(r.true_loss for r in rows if r.mode == "theorem-exact")
        assert min_t <= min_i

    def test_csv_header(self):
        rows = harness.bound_scan(BoundScanSpec(points=11, seed=0))
        columns = ("eta", "mode", "true_loss", "upper_bound")
        buf = io.StringIO()
        harness.write_csv(buf, columns, harness.cells(rows, columns))
        assert buf.getvalue().splitlines()[0] == "eta,mode,true_loss,upper_bound"


class TestOverheadProbe:
    def test_structure_and_ratios(self):
        rows = harness.overhead_probe([64], [2], repeats=10, seed=1)
        assert len(rows) == 4
        by_method = {r.method: r for r in rows}
        assert by_method["lora"].ratio_vs_lora == 1.0
        assert all(r.median_step_ns > 0 for r in rows)
        assert by_method["reflora"].refactor_phase_ns > 0

    def test_repeats_floor(self):
        with pytest.raises(ValueError):
            harness.overhead_probe([16], [2], repeats=5)


class TestKernelRuns:
    """The refactor kernel runs once per step, and once per bound scan."""

    @pytest.fixture
    def runs(self, monkeypatch):
        runs = []
        kernel = refactor.balance
        monkeypatch.setattr(refactor, "balance",
                            lambda f: runs.append(f) or kernel(f))
        return runs

    @pytest.mark.parametrize("optimizer,log_every",
                             [(optim.GD, 1), (optim.ADAM, 1), (optim.GD, 7)])
    def test_reflora_one_run_per_iterate(self, runs, optimizer, log_every):
        # each step runs the kernel once; the trace snapshot never does
        harness.run(mf_spec(iterations=40, optimizer=optimizer,
                            log_every=log_every))
        assert len(runs) == 40

    @pytest.mark.parametrize("sigma_b", [0.0, 0.3])
    def test_scaledgd_warmup_check_shares_the_step_run(self, runs, sigma_b):
        # with B = 0 the t = 0 check fails and a GD step follows; otherwise
        # ScaledGD steps at t = 0 on the check's run
        harness.run(mf_spec(method="scaledgd", iterations=40, sigma_b=sigma_b))
        assert len(runs) == 40

    @pytest.mark.parametrize("points", [11, 201])
    def test_bound_scan_one_run(self, runs, points):
        harness.bound_scan(BoundScanSpec(points=points, seed=0))
        assert len(runs) == 1

    def test_overhead_probe_times_uncached_calls(self, runs):
        # the reflora and ScaledGD steppers and their refactor phases each
        # time `repeats` calls, every one a kernel run
        repeats = 10
        harness.overhead_probe([16], [2], repeats=repeats, seed=1)
        assert len(runs) >= 4 * repeats
