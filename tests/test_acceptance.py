"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run with -s to stream them) and
asserts every stated tolerance. Sample sets are drawn from fixed Philox
streams; the convergence fixture (seed 0, 1500 iterations) was calibrated
once with a pilot run and frozen.
"""

import time

import numpy as np
import pytest

from reflora import harness, linalg, optim, problems, refactor
from reflora.harness import BoundScanSpec, RunSpec
from reflora.optim import GradientPair, OptimizerState, StepConfig
from reflora.refactor import LowRankFactors, RefactorMode, THEOREM_EXACT

from conftest import g_oracle, gen


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {status} - {desc}{tail}")
    assert ok, f"criterion {num}: {desc}{tail}"


@pytest.fixture(scope="module")
def sample_set():
    """1000 random full-rank pairs (m, n <= 64, r <= 16) and their balanced
    refactoring matrices; shared by criteria 1-3."""
    g = gen(1001)
    pairs = []
    for _ in range(1000):
        r = int(g.integers(1, 17))
        m = int(g.integers(r, 65))
        n = int(g.integers(r, 65))
        f = LowRankFactors(g.standard_normal((m, r)), g.standard_normal((n, r)))
        pairs.append((f, refactor.balance(f).s))
    return pairs


def test_criterion_01_balanced_refactor_identity(sample_set):
    t0 = time.time()
    worst = 0.0
    for f, s in sample_set:
        a_t = f.a @ linalg.spd_sqrt(s)
        b_t = f.b @ linalg.spd_inv_sqrt(s)
        ga = a_t.T @ a_t
        worst = max(worst, np.linalg.norm(ga - b_t.T @ b_t)
                    / np.linalg.norm(ga))
    elapsed = time.time() - t0
    report(1, "balanced refactoring equalizes the Gram matrices",
           worst <= 1e-8 and elapsed < 5.0,
           f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_closed_form_equivalence(sample_set):
    worst = 0.0
    for f, s in sample_set:
        ga = f.a.T @ f.a
        alt = np.linalg.solve(ga, linalg.nonsym_psd_sqrt(ga, f.b.T @ f.b))
        worst = max(worst, np.linalg.norm(s - alt) / np.linalg.norm(s))
    report(2, "both closed forms of the balanced matrix agree",
           worst <= 1e-9, f"worst {worst:.2e}")


def test_criterion_03_stationarity_and_minimality(sample_set):
    g = gen(1003)
    worst_stat = worst_g = 0.0
    violations = 0
    for f, s in sample_set:
        ga = f.a.T @ f.a
        gb = f.b.T @ f.b
        worst_stat = max(worst_stat, np.linalg.norm(s @ ga @ s - gb)
                         / np.linalg.norm(gb))
        target = 2.0 * linalg.nuclear_norm(f.a @ f.b.T)
        g_star = refactor.g_objective(f, s)
        worst_g = max(worst_g, abs(g_star - target) / target)
        w_min = np.linalg.eigvalsh(s)[0]
        for _ in range(100):
            e = g.standard_normal(s.shape)
            e = 0.5 * (e + e.T)
            bump = g.uniform(0.05, 0.5) * w_min / np.linalg.norm(e)
            s_pert = s + bump * e
            g_pert = float(np.sum(ga * s_pert)
                           + np.sum(gb * np.linalg.inv(s_pert)))
            if g_pert <= g_star:
                violations += 1
    report(3, "stationarity, bound-floor identity, and strict minimality",
           worst_stat <= 1e-8 and worst_g <= 1e-8 and violations == 0,
           f"stationarity {worst_stat:.2e}, floor {worst_g:.2e}, "
           f"{violations} perturbation violations")


def test_criterion_04_small_eta_branch():
    g = gen(1004)
    lip = 1.5
    worst = worst_boundary = 0.0
    for _ in range(200):
        r = int(g.integers(1, 9))
        f = LowRankFactors(g.standard_normal((int(g.integers(r, 33)), r)),
                           g.standard_normal((int(g.integers(r, 33)), r)))
        ct = refactor.balance(f).c_tilde
        eta = float(g.uniform(0.001, 0.999)) / (ct * lip)
        target = 1.0 / (lip * eta)
        for root in ("plus", "minus"):
            res = refactor.optimal_s(refactor.balance(f),
                                     eta, RefactorMode(THEOREM_EXACT, lip, root))
            worst = max(worst, abs(g_oracle(f, res.p_b) - target) / target)
        eta_c = 1.0 / (ct * lip)
        res_b = refactor.optimal_s(refactor.balance(f),
                                   eta_c, RefactorMode(THEOREM_EXACT, lip))
        s_tilde = refactor.balance(f).s
        worst_boundary = max(worst_boundary,
                             np.linalg.norm(res_b.p_b - s_tilde)
                             / np.linalg.norm(s_tilde))
        ok_branch = res_b.branch == refactor.BRANCH_BALANCED
        assert ok_branch
    report(4, "small-eta scaling hits the bound target; boundary is balanced",
           worst <= 1e-8 and worst_boundary <= 1e-10,
           f"worst target miss {worst:.2e}, boundary {worst_boundary:.2e}")


def test_criterion_05_scalar_branches():
    g = gen(1005)
    lip = 2.0
    worst_h = 0.0
    worst_ratio = 0.0
    for _ in range(500):
        r = int(g.integers(1, 9))
        f = LowRankFactors(g.standard_normal((int(g.integers(r, 25)), r)),
                           g.standard_normal((int(g.integers(r, 25)), r)))
        a2 = float(np.sum(f.a ** 2))
        b2 = float(np.sum(f.b ** 2))
        eta_c = 1.0 / (2.0 * np.sqrt(a2 * b2) * lip)
        eta = float(g.uniform(0.001, 0.999)) * eta_c
        for root in ("plus", "minus"):
            mode = RefactorMode(THEOREM_EXACT, lip, root)
            s = refactor.optimal_scalar(f, eta, mode).s
            worst_h = max(worst_h, (a2 * s + b2 / s - 1.0 / (lip * eta)) ** 2)
        s_bal = refactor.optimal_scalar(f, 2.0 * eta_c, RefactorMode())
        ratio = np.sqrt(b2) / np.sqrt(a2)
        worst_ratio = max(worst_ratio, abs(s_bal.s - ratio) / ratio)
    report(5, "scalar optimum: zero residual small-eta, norm ratio large-eta",
           worst_h <= 1e-14 and worst_ratio <= 1e-14,
           f"worst h {worst_h:.2e}, worst ratio err {worst_ratio:.2e}")


def test_criterion_06_consistent_updates_under_reparametrization():
    g = gen(1006)
    cfg = StepConfig(eta=0.01, method="reflora")
    worst = 0.0
    for _ in range(200):
        r = int(g.integers(1, 9))
        m = int(g.integers(r + 2, 33))
        n = int(g.integers(r + 2, 33))
        f = LowRankFactors(g.standard_normal((m, r)), g.standard_normal((n, r)))
        grad = g.standard_normal((m, n))
        cond = 10.0 ** g.uniform(0, 4)
        u, _ = np.linalg.qr(g.standard_normal((r, r)))
        v, _ = np.linalg.qr(g.standard_normal((r, r)))
        if r > 1:
            sig = np.exp(np.linspace(np.log(np.sqrt(cond)),
                                     -np.log(np.sqrt(cond)), r))
        else:
            sig = np.array([1.0])
        p = u @ np.diag(sig) @ v.T
        f_alt = LowRankFactors(f.a @ p, f.b @ np.linalg.inv(p).T)
        dw = optim.delta_w(f, optim.reflora_step(
            f, GradientPair(grad @ f.b, grad.T @ f.a), cfg)[0])
        dw_alt = optim.delta_w(f_alt, optim.reflora_step(
            f_alt, GradientPair(grad @ f_alt.b, grad.T @ f_alt.a), cfg)[0])
        worst = max(worst, np.linalg.norm(dw - dw_alt) / np.linalg.norm(dw))
    report(6, "weight update is invariant to the factorization chosen",
           worst <= 1e-7, f"worst {worst:.2e}, cond(P) up to 1e4")


def test_criterion_07_orthogonal_invariance_of_plain_gd():
    g = gen(1007)
    cfg = StepConfig(eta=0.05, method="lora")
    worst = 0.0
    for _ in range(500):
        r = int(g.integers(1, 9))
        m = int(g.integers(r, 33))
        n = int(g.integers(r, 33))
        f = LowRankFactors(g.standard_normal((m, r)), g.standard_normal((n, r)))
        grad = g.standard_normal((m, n))
        q, rr = np.linalg.qr(g.standard_normal((r, r)))
        q = q * np.sign(np.diag(rr))
        f_rot = LowRankFactors(f.a @ q, f.b @ q)
        dw = optim.delta_w(f, optim.reflora_step(
            f, GradientPair(grad @ f.b, grad.T @ f.a), cfg)[0])
        dw_rot = optim.delta_w(f_rot, optim.reflora_step(
            f_rot, GradientPair(grad @ f_rot.b, grad.T @ f_rot.a), cfg)[0])
        worst = max(worst, np.linalg.norm(dw - dw_rot) / np.linalg.norm(dw))
    report(7, "plain GD update invariant under orthogonal refactoring",
           worst <= 1e-9, f"worst {worst:.2e}")


def test_criterion_08_dual_path_equivalences():
    g = gen(1008)
    worst_full = 0.0
    cfg = StepConfig(eta=0.02, method="reflora")
    for _ in range(200):
        r = int(g.integers(1, 9))
        m = int(g.integers(r + 1, 33))
        n = int(g.integers(r + 1, 33))
        f = LowRankFactors(g.standard_normal((m, r)), g.standard_normal((n, r)))
        grad = g.standard_normal((m, n))
        gp = GradientPair(grad @ f.b, grad.T @ f.a)
        got, _ = optim.reflora_step(f, gp, cfg)
        s = refactor.balance(f).s
        p = linalg.spd_sqrt(s)
        p_inv = linalg.spd_inv_sqrt(s)
        a_t, b_t = f.a @ p, f.b @ p_inv
        a_t2 = a_t - cfg.eta * grad @ b_t
        b_t2 = b_t - cfg.eta * grad.T @ a_t
        worst_full = max(
            worst_full,
            np.linalg.norm(got.a - a_t2 @ p_inv) / np.linalg.norm(got.a),
            np.linalg.norm(got.b - b_t2 @ p.T) / np.linalg.norm(got.b))

    worst_adam = 0.0
    cfg_s = StepConfig(eta=0.01, method="reflora-s", optimizer="adam")
    for _ in range(200):
        r = int(g.integers(1, 6))
        m = int(g.integers(r, 25))
        n = int(g.integers(r, 25))
        f = LowRankFactors(g.standard_normal((m, r)), g.standard_normal((n, r)))
        grad = g.standard_normal((m, n))
        gp = GradientPair(grad @ f.b, grad.T @ f.a)
        state = OptimizerState(m_a=g.standard_normal((m, r)),
                               v_a=g.random((m, r)),
                               m_b=g.standard_normal((n, r)),
                               v_b=g.random((n, r)), step=4)
        got, _ = optim.reflora_step(f, gp, cfg_s, state)
        s = refactor.optimal_scalar(f, cfg_s.eta, RefactorMode()).s
        rs = np.sqrt(s)
        want_a, _, _ = optim.adam_update(rs * f.a, gp.g_a / rs,
                                         state.m_a / rs, state.v_a / s, 5,
                                         cfg_s.eta)
        want_b, _, _ = optim.adam_update(f.b / rs, rs * gp.g_b,
                                         state.m_b * rs, state.v_b * s, 5,
                                         cfg_s.eta)
        worst_adam = max(
            worst_adam,
            np.linalg.norm(got.a - want_a) / np.linalg.norm(want_a),
            np.linalg.norm(got.b - want_b) / np.linalg.norm(want_b))
    report(8, "preconditioned and refactor-step-back paths coincide",
           worst_full <= 1e-10 and worst_adam <= 1e-10,
           f"full {worst_full:.2e}, scalar-adam {worst_adam:.2e}")


def test_criterion_09_update_is_horizontal():
    g = gen(1009)
    worst = 0.0
    for _ in range(200):
        r = int(g.integers(1, 9))
        m = int(g.integers(r + 1, 33))
        n = int(g.integers(r + 1, 33))
        f = LowRankFactors(g.standard_normal((m, r)), g.standard_normal((n, r)))
        grad = g.standard_normal((m, n))
        s = refactor.balance(f).s
        update = (-0.01 * grad @ f.b @ np.linalg.inv(s),
                  -0.01 * grad.T @ f.a @ s)
        worst = max(worst, optim.horizontal_check(f, update))
    report(9, "refactored update orthogonal to all vertical directions",
           worst <= 1e-8, f"worst {worst:.2e}")


def test_criterion_10_first_order_sandwich():
    g = gen(1010)
    eta = 1e-3
    worst_upper = worst_lower = 0.0
    for _ in range(500):
        r = int(g.integers(1, 7))
        m = int(g.integers(r, 25))
        n = int(g.integers(r, 25))
        f = LowRankFactors(g.standard_normal((m, r)), g.standard_normal((n, r)))
        grad = g.standard_normal((m, n))
        spec2 = linalg.spectral_norm(grad) ** 2
        for s in (np.eye(r), refactor.balance(f).s):
            s_half = linalg.spd_sqrt(s)
            s_inv_half = linalg.spd_inv_sqrt(s)
            first_order = -eta * (np.sum((grad @ f.b @ s_inv_half) ** 2)
                                  + np.sum((grad.T @ f.a @ s_half) ** 2))
            lower = -eta * spec2 * refactor.g_objective(f, s)
            worst_upper = max(worst_upper, first_order)
            worst_lower = max(worst_lower, lower - first_order)
    report(10, "first-order loss change sandwiched between its bounds",
           worst_upper <= 1e-12 and worst_lower <= 1e-12,
           f"upper slack {worst_upper:.2e}, lower slack {worst_lower:.2e}")


def test_criterion_11_bound_scan_reproduction():
    t0 = time.time()
    spec = BoundScanSpec(m=2, n=2, k=2, r=1, seed=0, eta_min=-0.5,
                         eta_max=0.5, points=201)
    scan = harness.bound_scan(spec)
    assert len(scan.eta) == 400  # 200 nonzero grid etas x 2 modes

    # independent remainder evaluation from the problem data
    problem, _ = problems.make_linreg(2, 2, 2, seed=0)
    f = problems.init_factors(2, 2, 1, seed=0, sigma_a=np.sqrt(10.0),
                              sigma_b=np.sqrt(0.1))
    lip = problem.lipschitz
    grad = problem.grad(f.product())
    r_term = grad @ f.b @ (f.a.T @ grad)
    violations = 0
    worst_gap = -np.inf
    for eta, mode, true_loss, upper_bound, row_remainder in zip(
            scan.eta, scan.mode, scan.true_loss, scan.upper_bound,
            scan.remainder, strict=True):
        if mode == "identity":
            s = np.eye(1)
        else:
            s = refactor.optimal_s(
                refactor.balance(f), eta, RefactorMode(THEOREM_EXACT, lip)).p_b
        m_term = f.a @ s @ (f.a.T @ grad) + grad @ f.b @ np.linalg.inv(s) @ f.b.T
        remainder = -lip * eta ** 3 * float(np.sum(m_term * r_term))
        assert remainder == pytest.approx(row_remainder, rel=1e-9, abs=1e-12)
        certified = upper_bound + remainder
        gap = true_loss - certified
        worst_gap = max(worst_gap, gap)
        if gap > 1e-9 * max(1.0, abs(certified)):
            violations += 1
    rows = list(zip(scan.mode, scan.true_loss))
    min_identity = min(loss for mode, loss in rows if mode == "identity")
    min_texact = min(loss for mode, loss in rows if mode == "theorem-exact")
    elapsed = time.time() - t0
    report(11, "bound dominates the exact loss; optimal mode reaches lower",
           violations == 0 and min_texact <= min_identity and elapsed < 10.0,
           f"worst loss-bound gap {worst_gap:.2e}, min {min_texact:.4f} vs "
           f"{min_identity:.4f}, {elapsed:.1f}s")


def test_criterion_12_convergence_comparison():
    # fixture calibrated once: seed 0, 1500 iterations (at 2000 both plain
    # GD and the refactored run reach the float floor and the pointwise
    # ordering drowns in roundoff noise)
    t0 = time.time()
    iters = 1500

    def spec(method, eta):
        return RunSpec(problem="mf", m=128, n=100, r=8, seed=0, eta=eta,
                       method=method, iterations=iters, log_every=1)

    lora_high = harness.run(spec("lora", 0.03))
    reflora_high = harness.run(spec("reflora", 0.03))
    lora_low = harness.run(spec("lora", 0.01))
    reflora_low = harness.run(spec("reflora", 0.01))
    scaledgd_low = harness.run(spec("scaledgd", 0.01))

    high_ok = (lora_high.diverged
               and reflora_high.final_loss
               <= 1e-10 * reflora_high.initial_loss)
    pointwise_ok = all(
        rf.loss <= lo.loss
        for rf, lo in zip(reflora_low.records, lora_low.records)
        if rf.step > 10)
    final_ok = reflora_low.final_loss <= scaledgd_low.final_loss
    elapsed = time.time() - t0
    report(12, "refactored run converges where plain GD diverges or lags",
           high_ok and pointwise_ok and final_ok and elapsed < 60.0,
           f"lora diverged at {lora_high.diverged_step}, "
           f"final ratio {reflora_high.final_loss / reflora_high.initial_loss:.1e}, "
           f"{elapsed:.1f}s")


def test_criterion_13_gradient_correctness():
    g = gen(1013)
    h = 1e-6
    worst = 0.0
    for (problem, _), r in ((problems.make_mf(16, 12, 3, seed=43), 3),
                            (problems.make_linreg(5, 4, 7, seed=43), 2)):
        for _ in range(50):
            f = LowRankFactors(g.standard_normal((problem.m, r)),
                               g.standard_normal((problem.n, r)))
            gp = problem.value_and_grad(f)[1]
            # one random entry probe in each factor
            i, j = int(g.integers(problem.m)), int(g.integers(r))
            up, down = f.a.copy(), f.a.copy()
            up[i, j] += h
            down[i, j] -= h
            fd = (problem.value_and_grad(LowRankFactors(up, f.b))[0]
                  - problem.value_and_grad(LowRankFactors(down, f.b))[0]) / (2 * h)
            worst = max(worst, abs(gp.g_a[i, j] - fd) / max(1.0, abs(fd)))
            i, j = int(g.integers(problem.n)), int(g.integers(r))
            up, down = f.b.copy(), f.b.copy()
            up[i, j] += h
            down[i, j] -= h
            fd = (problem.value_and_grad(LowRankFactors(f.a, up))[0]
                  - problem.value_and_grad(LowRankFactors(f.a, down))[0]) / (2 * h)
            worst = max(worst, abs(gp.g_b[i, j] - fd) / max(1.0, abs(fd)))
    report(13, "factor gradients match central finite differences",
           worst <= 1e-5, f"worst {worst:.2e}")


def test_criterion_14_overhead_smoke():
    t0 = time.time()
    rows = harness.overhead_probe([2048], [8, 32], repeats=15, seed=0)
    by = {(r.r, r.method): r for r in rows}
    order_ok = all(by[(r, "reflora-s")].median_step_ns
                   <= by[(r, "reflora")].median_step_ns for r in (8, 32))
    full_growth = (by[(32, "reflora")].refactor_phase_ns
                   / by[(8, "reflora")].refactor_phase_ns)
    scalar_growth = (by[(32, "reflora-s")].refactor_phase_ns
                     / by[(8, "reflora-s")].refactor_phase_ns)
    r_ratio = 32 / 8
    elapsed = time.time() - t0
    report(14, "per-step overhead ordering and rank growth as expected",
           order_ok and full_growth >= 2.0 and scalar_growth <= 6.0 * r_ratio
           and elapsed < 120.0,
           f"full phase x{full_growth:.1f}, scalar phase x{scalar_growth:.1f}, "
           f"{elapsed:.1f}s")
