import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from reflora import harness, optim, problems, refactor
from reflora.errors import RankDeficient
from reflora.harness import BoundScanSpec, RunSpec
from reflora.refactor import LowRankFactors, RefactorMode

from test_problems import mf_instance


def mf_spec(**kw):
    base = dict(problem="mf", m=24, n=20, r=3, seed=0, eta=0.01,
                method="reflora", iterations=150, log_every=1)
    base.update(kw)
    return RunSpec(**base)


def reference_cell(value) -> str:
    """The row-wise writer's rule, decided per cell: the reference."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return f"{float(value):.17g}"


def reference_csv(columns, rows) -> str:
    """The column row and one line per row, by the per-cell rule."""
    lines = [",".join(columns)] + [",".join(map(reference_cell, row))
                                   for row in rows]
    return "".join(line + "\n" for line in lines)


def alloc_peak(fn) -> int:
    """Peak traced allocation, in bytes, while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
            assert problem.value_and_grad(f)[0] == 0.0

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
                          harness.columns_of(res.records,
                                             harness.TRACE_COLUMNS),
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

    def test_writer_matches_the_per_cell_rule(self):
        nan, pair = float("nan"), 2.5  # `pair` fills two consecutive cells
        floats = [0.0, -0.0, nan, float("inf"), float("-inf"), 5e-324,
                  1.7976931348623157e308, 0.1, np.float64(1 / 3), pair, pair,
                  -0.0]
        ints = [0, -1, np.int64(-7), np.int64(2 ** 63 - 1), True, False,
                2 ** 62, -2 ** 62, 10 ** 17, np.int64(0), 3, 4]
        strs = ["identity", "theorem-exact", "", "x y", "nan", "1e5",
                "-0", "a", "b", "c", "d", "e"]
        columns = {"x": float, "i": int, "s": str}
        buf = io.StringIO()
        harness.write_csv(buf, columns, [floats, ints, strs], ["hello"])
        assert buf.getvalue() == "# hello\n" + reference_csv(
            columns, zip(floats, ints, strs))

    def test_writer_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            harness.write_csv(io.StringIO(), {"a": int, "b": int},
                              [[1, 2], [3]])

    @pytest.mark.parametrize("data", [[[1, 2]], [[1, 2], [3, 4], [5, 6]]])
    def test_writer_rejects_a_column_count_unlike_the_names(self, data):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="data columns for 2 names"):
            harness.write_csv(buf, {"a": int, "b": int}, data, ["hello"])
        assert buf.getvalue() == ""

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


class TestRunSpec:
    """A run spec is a StepConfig plus the instance, init and loop fields."""

    @pytest.mark.parametrize("step", [
        {"eta": 0.0}, {"method": "bogus"}, {"optimizer": "rmsprop"},
        {"weight_decay": 0.5},  # under the default gd
        {"warmup_steps": -1}, {"method": "scaledgd", "optimizer": "adam"},
    ])
    def test_step_fields_checked_on_build(self, step):
        with pytest.raises(ValueError):
            RunSpec(**{"problem": "mf", "m": 8, "n": 6, "r": 2, "seed": 0,
                       "eta": 0.01, **step})

    @pytest.mark.parametrize("fields,message", [
        pytest.param({"problem": "bogus"}, "unknown problem 'bogus'",
                     id="problem"),
        pytest.param({"iterations": 0}, "iterations and log_every must be >= 1",
                     id="iterations"),
        pytest.param({"log_every": 0}, "iterations and log_every must be >= 1",
                     id="log_every"),
        pytest.param({"problem": "linreg", "k": 0}, "linreg needs k >= 1",
                     id="linreg-k"),
    ])
    def test_run_fields_checked_on_build(self, fields, message):
        with pytest.raises(ValueError, match=message):
            RunSpec(**{"problem": "mf", "m": 8, "n": 6, "r": 2, "seed": 0,
                       "eta": 0.01, **fields})

    def test_is_a_step_config(self):
        assert issubclass(RunSpec, optim.StepConfig)
        step_fields = {f.name for f in dataclasses.fields(optim.StepConfig)}
        assert not step_fields & set(RunSpec.__annotations__)
        spec = RunSpec(problem="mf", m=8, n=6, r=2, seed=0, eta=0.01)
        assert spec.method == optim.StepConfig(eta=0.01).method == "reflora"

    @pytest.mark.parametrize("optimizer", [optim.GD, optim.ADAMW])
    def test_run_steps_with_the_spec(self, monkeypatch, optimizer):
        seen = []
        step = optim.reflora_step

        def recording(f, gp, cfg, *args):
            seen.append(cfg)
            return step(f, gp, cfg, *args)

        monkeypatch.setattr(optim, "reflora_step", recording)
        spec = mf_spec(optimizer=optimizer, iterations=5)
        harness.run(spec)
        assert len(seen) == 5 and all(cfg is spec for cfg in seen)


class TestStepErrors:
    """A step error before divergence is re-raised; after it the run goes on
    with raw GD arithmetic and never calls the stepper again."""

    SPEC = dict(problem="mf", m=20, n=16, r=3, seed=1, eta=0.5,
                method="reflora", iterations=20)

    def test_error_after_divergence_falls_back_to_raw_gd(self, monkeypatch):
        # the loss goes 75.3 -> 2641 -> 1.8e9 and the divergence latch trips
        # at step 2; the stepper then raises RankDeficient at t = 5
        calls, raised = [], []
        step = optim.reflora_step

        def recording(f, gp, cfg, state, t):
            calls.append(t)
            try:
                return step(f, gp, cfg, state, t)
            except RankDeficient:
                raised.append(t)
                raise

        monkeypatch.setattr(optim, "reflora_step", recording)
        res = harness.run(RunSpec(**self.SPEC))
        assert res.diverged and res.diverged_step == 2
        assert len(res.records) == 21
        assert calls == [0, 1, 2, 3, 4, 5] and raised == [5]

    def test_value_error_after_divergence_propagates(self, monkeypatch):
        # on the run path the stepper cannot raise ValueError, so one that
        # reaches the handler is a programming error, not a step failure
        step = optim.reflora_step

        def broken(f, gp, cfg, state, t):
            if t == 5:
                raise ValueError("broken stepper")
            return step(f, gp, cfg, state, t)

        monkeypatch.setattr(optim, "reflora_step", broken)
        with pytest.raises(ValueError, match="broken stepper"):
            harness.run(RunSpec(**self.SPEC))

    def test_error_before_divergence_is_raised(self):
        spec = RunSpec(**self.SPEC, warmup_steps=0, sigma_b=0.0)
        with pytest.raises(RankDeficient,
                           match=r"\(iteration 0, past warmup\)$"):
            harness.run(spec)


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
        assert list(table.columns)[0] == "step"
        assert len(table.data[0]) == len(res.records)
        loss_col = list(table.columns).index("reflora-eta0.01.loss")
        for step, loss, rec in zip(table.data[0], table.data[loss_col],
                                   res.records):
            assert step == rec.step
            assert loss == rec.loss

    def test_three_methods_aligned(self):
        specs = [mf_spec(method=m, iterations=30)
                 for m in ("lora", "reflora", "scaledgd")]
        table = harness.compare(specs)
        assert "lora-eta0.01.loss" in table.columns
        assert "reflora-eta0.01.loss" in table.columns
        assert "scaledgd-eta0.01.loss" in table.columns
        assert len(table.data) == len(table.columns) == 1 + 3 * 7
        assert all(len(column) == 31 for column in table.data)
        assert table.data[0] == list(range(31))

    def test_duplicate_specs_identical_columns(self):
        spec = mf_spec(iterations=25)
        table = harness.compare([spec, spec])
        assert table.data[1] == table.data[1 + 7]  # loss columns agree

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="compare needs at least one spec"):
            harness.compare([])

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
        for i, (col_1, col_2) in enumerate(zip(first.data, second.data)):
            if i not in skip:
                assert col_1 == col_2

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
        assert len(table.data[0]) == 11


class DenseWork(AssertionError):
    pass


def _forbidden(*args, **kwargs):
    raise DenseWork("formed an m x n array")


# every method/optimizer pair StepConfig accepts
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
        assert len(harness.compare(specs).data[0]) == 11


class TestPeakMemory:
    """The cost claim: a run or compare, instance build included, allocates
    O((m + n) r), never an m x n array (at 20000^2 that is 3.2 GB).

    At 20000^2, r = k = 4, the peak in units of (m + n) r 8 bytes is about
    4.5-6 under GD, 9.5-13 under Adam and AdamW (their moment pairs) and 9
    for a 4-member compare. Bound scan is dense at 2 x 2 by design.
    """

    MULTIPLE = 16
    RANK = 4

    def spec(self, kind, d, **kw):
        linreg = {"k": self.RANK} if kind == "linreg" else {}
        return RunSpec(problem=kind, m=d, n=d, r=self.RANK, seed=0, eta=1e-3,
                       iterations=3, sigma_b=0.3, **linreg, **kw)

    def ratio(self, fn, d) -> float:
        return alloc_peak(fn) / ((d + d) * self.RANK * 8)

    @pytest.mark.parametrize("kind", ["mf", "linreg"])
    @pytest.mark.parametrize("method,optimizer", CLI_PAIRS)
    def test_run(self, kind, method, optimizer):
        spec = self.spec(kind, 20000, method=method, optimizer=optimizer)
        assert self.ratio(lambda: harness.run(spec), 20000) <= self.MULTIPLE

    @pytest.mark.parametrize("kind", ["mf", "linreg"])
    def test_compare(self, kind):
        specs = [self.spec(kind, 20000, method=m) for m in optim.METHODS]
        assert self.ratio(lambda: harness.compare(specs),
                          20000) <= self.MULTIPLE

    @pytest.mark.parametrize("dense", [False, True])
    def test_bound_bites(self, monkeypatch, dense):
        # at 2000^2 one m x n array is 32 MB, 250 (m + n) r 8 bytes
        if dense:
            step, steps = optim.reflora_step, []

            def densifying(f, *args):
                if not steps:
                    f.product()
                steps.append(None)
                return step(f, *args)

            monkeypatch.setattr(optim, "reflora_step", densifying)
        spec = self.spec("mf", 2000)
        assert (self.ratio(lambda: harness.run(spec), 2000)
                > self.MULTIPLE) == dense


class TestBoundScan:
    @pytest.mark.parametrize("fields,message", [
        pytest.param({"points": 1}, "points must be >= 2", id="points"),
        pytest.param({"eta_min": 0.5, "eta_max": 0.5},
                     "eta_min must be below eta_max", id="eta-range"),
    ])
    def test_spec_checked_on_build(self, fields, message):
        with pytest.raises(ValueError, match=message):
            BoundScanSpec(**fields)

    def test_grid_excludes_zero(self):
        spec = BoundScanSpec(points=101)
        grid = harness.eta_grid(spec)
        assert 0.0 not in grid
        assert len(grid) == 100

    def test_rows_cover_both_modes(self):
        spec = BoundScanSpec(points=21, seed=0)
        scan = harness.bound_scan(spec)
        assert len(scan.eta) == 40
        assert set(scan.mode) == {"identity", "theorem-exact"}
        # per eta, identity then theorem-exact: every column has two
        # entries per grid eta
        grid = harness.eta_grid(spec).tolist()
        assert list(harness.BOUND_SCAN_COLUMNS) == [
            f.name for f in dataclasses.fields(harness.BoundScan)]
        for column in harness.BOUND_SCAN_COLUMNS:
            assert len(getattr(scan, column)) == 2 * len(grid)
        assert scan.mode == ["identity", "theorem-exact"] * len(grid)
        assert scan.eta[0::2] == scan.eta[1::2] == grid

    def test_jump_discontinuity_near_zero(self):
        scan = harness.bound_scan(BoundScanSpec(points=201, seed=0))
        texact = sorted((eta, bound) for eta, mode, bound in zip(
            scan.eta, scan.mode, scan.upper_bound) if mode == "theorem-exact")
        below = max(r for r in texact if r[0] < 0)
        above = min(r for r in texact if r[0] > 0)
        assert abs(below[1] - above[1]) > 1e-3

    def test_identity_near_zero_matches_current_loss(self):
        spec = BoundScanSpec(points=201, seed=0, eta_min=-0.01, eta_max=0.01)
        scan = harness.bound_scan(spec)
        problem, _ = problems.make_linreg(2, 2, 2, seed=0)
        f = problems.init_factors(2, 2, 1, seed=0, sigma_a=np.sqrt(10.0),
                                  sigma_b=np.sqrt(0.1))
        loss_now = problem.value_and_grad(f)[0]
        eta, true_loss = min(
            ((eta, loss) for eta, mode, loss in zip(
                scan.eta, scan.mode, scan.true_loss) if mode == "identity"),
            key=lambda r: abs(r[0]))
        assert abs(eta) == pytest.approx(1e-4)
        assert true_loss == pytest.approx(loss_now, rel=2e-2)

    def test_bound_plus_remainder_dominates(self):
        scan = harness.bound_scan(BoundScanSpec(points=101, seed=3))
        for true_loss, bound, remainder in zip(
                scan.true_loss, scan.upper_bound, scan.remainder):
            certified = bound + remainder
            assert certified >= true_loss - 1e-9 * max(1.0, abs(certified))

    def test_theorem_exact_min_not_worse(self):
        scan = harness.bound_scan(BoundScanSpec(points=201, seed=0))
        rows = list(zip(scan.mode, scan.true_loss))
        min_i = min(loss for mode, loss in rows if mode == "identity")
        min_t = min(loss for mode, loss in rows if mode == "theorem-exact")
        assert min_t <= min_i

    def test_csv_header(self):
        scan = harness.bound_scan(BoundScanSpec(points=11, seed=0))
        columns = {c: harness.BOUND_SCAN_COLUMNS[c]
                   for c in ("eta", "mode", "true_loss", "upper_bound")}
        buf = io.StringIO()
        harness.write_csv(buf, columns, [getattr(scan, c) for c in columns])
        assert buf.getvalue().splitlines()[0] == "eta,mode,true_loss,upper_bound"


def reference_scan(spec):
    """The bound scan row by row: `optimal_s`, a direct preconditioned step,
    the dense `problem.loss` and `upper_bound_eval` at each (eta, mode)."""
    problem, _ = problems.make_linreg(spec.m, spec.n, spec.k, spec.seed)
    f = problems.init_factors(spec.m, spec.n, spec.r, spec.seed,
                              spec.sigma_a, spec.sigma_b)
    lip = problem.lipschitz
    w0 = f.product()
    g = problem.grad(w0)
    g_spec = float(np.linalg.svd(g, compute_uv=False)[0])
    r_term = g @ f.b @ (f.a.T @ g)
    kernel = refactor.balance(f)
    mode = RefactorMode(refactor.THEOREM_EXACT, lip, spec.root)
    rows = []
    for eta in harness.eta_grid(spec).tolist():
        const = (problem.loss(w0) + eta ** 2 * np.sum(g * r_term)
                 + 0.5 * lip * eta ** 4 * np.sum(r_term * r_term)
                 - np.sum(g * g) / lip
                 + (spec.m + spec.n - 1) * g_spec ** 2 / (2.0 * lip))
        for name in ("identity", "theorem-exact"):
            if name == "identity":
                s = s_inv = np.eye(spec.r)
            else:
                res = refactor.optimal_s(kernel, eta, mode)
                s, s_inv = res.p_b, res.p_a
            a_new = f.a - eta * (g @ f.b) @ s_inv
            b_new = f.b - eta * (g.T @ f.a) @ s
            m_term = f.a @ s @ (f.a.T @ g) + g @ f.b @ s_inv @ f.b.T
            rows.append((eta, name, problem.loss(a_new @ b_new.T),
                         refactor.upper_bound_eval(f, s, eta, lip, g_spec,
                                                   float(const)),
                         -lip * eta ** 3 * float(np.sum(m_term * r_term))))
    return rows, 1.0 / (kernel.c_tilde * lip)


class TestBoundScanClosedForm:
    """The scan's array arithmetic against the per-point dense reference."""

    @pytest.mark.parametrize("root", refactor.ROOTS)
    @pytest.mark.parametrize("seed", range(6))
    def test_rows_match_the_per_point_reference(self, seed, root):
        spec = BoundScanSpec(seed=seed, root=root)
        _, threshold = reference_scan(spec)
        # the default grid, and one straddling the small-eta threshold
        # 1 / (c_tilde L) from below zero
        for grid in (spec, dataclasses.replace(
                spec, eta_min=-0.5 * threshold, eta_max=2.0 * threshold,
                points=61)):
            ref, _ = reference_scan(grid)
            scan = harness.bound_scan(grid)
            assert any(0.0 < r[0] < threshold for r in ref)
            assert any(r[0] > threshold for r in ref)
            assert any(r[0] < 0.0 for r in ref)
            assert [(f"{eta:.17g}", mode)
                    for eta, mode in zip(scan.eta, scan.mode)] == \
                [(f"{eta:.17g}", mode) for eta, mode, *_ in ref]
            for col, name in enumerate(("true_loss", "upper_bound",
                                        "remainder"), start=2):
                want = np.array([r[col] for r in ref])
                got = np.array(getattr(scan, name))
                tol = np.maximum(1e-12 * np.abs(want),
                                 1e-14 * np.max(np.abs(want)))
                assert np.all(np.abs(got - want) <= tol), name

    def test_decompositions_do_not_grow_with_the_grid(self, monkeypatch):
        counts = {}
        for name in ("cholesky", "inv", "svd", "eigh"):
            def counted(*args, _fn=getattr(np.linalg, name), _name=name,
                        **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        per_points = []
        for points in (11, 2001):
            counts.clear()
            harness.bound_scan(BoundScanSpec(points=points, seed=0))
            per_points.append(dict(counts))
        assert per_points[0]["cholesky"] >= 1
        assert per_points[0] == per_points[1]

    @pytest.mark.parametrize("points", [51, 201])
    def test_peak_allocation_at_512(self, points):
        # the stacked loss goes in blocks of ~2^18 residual entries, one eta
        # per block at m = k = 512; the per-row scan peaked at 18.1 MB here
        spec = BoundScanSpec(m=512, n=512, k=512, r=4, points=points)
        tracemalloc.start()
        try:
            harness.bound_scan(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 27 * 2 ** 20

    def test_deficient_pair_raises(self):
        with pytest.raises(RankDeficient):
            harness.bound_scan(BoundScanSpec(points=11, sigma_b=0.0))


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
    """The kernel's R-factor stage runs once per reflora or ScaledGD step,
    never per trace snapshot, and once per bound scan; only reflora runs
    its balancing stage, `refactor.balance`."""

    @staticmethod
    def counted(monkeypatch, name):
        runs = []
        stage = getattr(refactor, name)
        monkeypatch.setattr(refactor, name,
                            lambda f: runs.append(f) or stage(f))
        return runs

    @pytest.fixture
    def runs(self, monkeypatch):
        return self.counted(monkeypatch, "_r_factors")

    @pytest.fixture
    def balancing(self, monkeypatch):
        return self.counted(monkeypatch, "balance")

    @pytest.mark.parametrize("optimizer,log_every",
                             [(optim.GD, 1), (optim.ADAM, 1), (optim.GD, 7)])
    def test_reflora_one_run_per_iterate(self, runs, balancing, optimizer,
                                         log_every):
        # each step runs the kernel once; the trace snapshot never does
        harness.run(mf_spec(iterations=40, optimizer=optimizer,
                            log_every=log_every))
        assert len(runs) == len(balancing) == 40

    @pytest.mark.parametrize("sigma_b", [0.0, 0.3])
    def test_scaledgd_warmup_check_shares_the_step_run(self, runs, balancing,
                                                       sigma_b):
        # with B = 0 the t = 0 check fails and a GD step follows; otherwise
        # ScaledGD steps at t = 0 on the check's run. No step balances
        harness.run(mf_spec(method="scaledgd", iterations=40, sigma_b=sigma_b))
        assert len(runs) == 40
        assert balancing == []

    @pytest.mark.parametrize("method", ["lora", "reflora-s"])
    def test_snapshots_run_no_stage(self, runs, balancing, method):
        harness.run(mf_spec(method=method, iterations=40, log_every=1))
        assert runs == [] and balancing == []

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

    def test_snapshot_decomposes_nothing(self, monkeypatch):
        # a lora run on a built problem: its steps, losses and snapshots
        # make no svd, cholesky or inv call
        spec = mf_spec(method="lora", iterations=5)
        problem = harness.build_problem(spec.instance)
        calls = []
        for name in ("svd", "cholesky", "inv", "eigh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name,
                lambda *a, _name=name, _real=real, **k:
                    calls.append(_name) or _real(*a, **k))
        harness.run(spec, problem)
        assert calls == []


class TestSnapshotNorm:
    """The snapshot's norm helper is np.linalg.norm bit for bit."""

    def test_layouts_and_scales(self):
        g = np.random.default_rng(46)
        base = g.standard_normal((37, 9))
        cases = [base, np.asfortranarray(base), base.T, base[::2, 1:],
                 np.zeros((5, 3)), np.zeros(0), -0.0 * base]
        ro = base.view()
        ro.flags.writeable = False
        cases.append(ro)
        cases += [c * s for c in (base, np.asfortranarray(base), base.T)
                  for s in (1e150, 1e-150, 1e155, 1e-160)]
        for x in cases:
            # at 1e155 the squared norm overflows to inf in both
            with np.errstate(over="ignore"):
                got, want = harness._norm(x), np.linalg.norm(x)
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes(), x.shape
