import dataclasses
import warnings

import numpy as np
import pytest

from reflora import linalg, optim, props, refactor, rng
from reflora.errors import (IllConditioned, InvalidEta, RankDeficient,
                            ZeroFactor)
from reflora.optim import GradientPair, StepConfig
from reflora.refactor import LowRankFactors

from conftest import gen, random_orthogonal, rel_err

# Frozen oracle: the stationarity equation S (A^T A) S = B^T B was solved
# in a separate scripting session by eigendecomposing
# (A^T A)^{1/2} B^T B (A^T A)^{1/2} with a Schur-based square root and
# back-substituting.

GEO_A = np.array(
    [[-0.7515655465895388, 0.8553678569552229],
     [0.41485848661538494, -0.5380294292208245],
     [-0.3359619070097133, 0.9136526273029888],
     [-0.2807732538058441, -0.5570561271637801]])
GEO_B = np.array(
    [[-0.4700318842420266, -1.6723184947016325],
     [0.9346043618433958, -0.1861968696483505],
     [-0.26112758793430985, -1.6874600683160412]])
GEO_EXPECTED = np.array(
    [[1.5801846972622222, 0.8688442519068259],
     [0.8688442519068259, 1.9775343063610924]])


def random_factors(g, m, n, r):
    return LowRankFactors(g.standard_normal((m, r)), g.standard_normal((n, r)))


def g_oracle(f, s):
    # direct evaluation of ||A S^{1/2}||_F^2 + ||B S^{-1/2}||_F^2 through
    # an explicit eigendecomposition, independent of the trace-based path
    w, v = np.linalg.eigh(0.5 * (s + s.T))
    s_half = (v * np.sqrt(w)) @ v.T
    s_inv_half = (v / np.sqrt(w)) @ v.T
    return float(np.sum((f.a @ s_half) ** 2) + np.sum((f.b @ s_inv_half) ** 2))


class TestGeometricMean:
    def test_balanced_input_is_fixed_point(self, rng):
        q1 = random_orthogonal(rng, 5)[:, :3]
        q2 = random_orthogonal(rng, 6)[:, :3]
        f = LowRankFactors(q1, q2)  # both Grams are I
        assert rel_err(refactor.geometric_mean_s(f), np.eye(3)) < 1e-12

    def test_rank_one_ratio(self):
        a = np.zeros((4, 1)); a[0, 0] = 2.0
        b = np.zeros((3, 1)); b[1, 0] = 6.0
        s = refactor.geometric_mean_s(LowRankFactors(a, b))
        assert s[0, 0] == pytest.approx(3.0, rel=1e-14)

    def test_oracle_seeds_5_6(self):
        f = LowRankFactors(GEO_A, GEO_B)
        assert rel_err(refactor.geometric_mean_s(f), GEO_EXPECTED) < 1e-12

    def test_stationarity(self):
        g = gen(200)
        for _ in range(100):
            f = random_factors(g, 8, 7, 3)
            s = refactor.geometric_mean_s(f)
            gb = f.b.T @ f.b
            assert rel_err(s @ (f.a.T @ f.a) @ s, gb) <= 1e-8

    def test_gram_product_form(self):
        # matches (A^T A)^{-1} (A^T A B^T B)^{1/2}
        g = gen(201)
        for _ in range(100):
            f = random_factors(g, 9, 6, 3)
            s = refactor.geometric_mean_s(f)
            ga = f.a.T @ f.a
            alt = np.linalg.solve(ga, linalg.nonsym_psd_sqrt(ga, f.b.T @ f.b))
            assert rel_err(s, alt) <= 1e-9

    def test_balance(self):
        g = gen(202)
        for _ in range(100):
            f = random_factors(g, 10, 8, 4)
            s = refactor.geometric_mean_s(f)
            a_t = f.a @ linalg.spd_sqrt(s)
            b_t = f.b @ linalg.spd_inv_sqrt(s)
            ga = a_t.T @ a_t
            assert np.linalg.norm(ga - b_t.T @ b_t) <= 1e-8 * np.linalg.norm(ga)

    def test_congruence_invariance(self):
        g = gen(203)
        for _ in range(50):
            f = random_factors(g, 8, 9, 3)
            p = g.standard_normal((3, 3)) + np.eye(3)
            s = refactor.geometric_mean_s(f)
            s_p = refactor.geometric_mean_s(
                LowRankFactors(f.a @ p, f.b @ np.linalg.inv(p).T))
            p_inv = np.linalg.inv(p)
            assert rel_err(s_p, p_inv @ s @ p_inv.T) <= 1e-8

    def test_rank_deficient_rejected(self):
        a = np.ones((4, 2))  # identical columns
        b = np.arange(6.0).reshape(3, 2)
        with pytest.raises(RankDeficient):
            refactor.geometric_mean_s(LowRankFactors(a, b))


class TestOptimalS:
    def test_balanced_always_ignores_eta(self, rng):
        f = random_factors(rng, 6, 5, 2)
        res = refactor.optimal_s(f, 1e-9, refactor.balanced_mode())
        assert res.branch == refactor.BRANCH_BALANCED
        assert rel_err(res.s_matrix, refactor.geometric_mean_s(f)) == 0.0
        assert res.g_value == pytest.approx(res.c_tilde, rel=1e-8)

    def test_boundary_returns_balanced(self, rng):
        f = random_factors(rng, 6, 5, 2)
        lip = 1.0
        eta_c = 1.0 / (refactor.c_tilde(f) * lip)
        res = refactor.optimal_s(f, eta_c, refactor.theorem_exact_mode(lip))
        assert res.branch == refactor.BRANCH_BALANCED
        assert rel_err(res.s_matrix, refactor.geometric_mean_s(f)) < 1e-10

    def test_forced_scaling_rank_one(self):
        # unit vectors, a = b: threshold constant 2; L = 1, eta = 1/4
        a = np.zeros((3, 1)); a[0, 0] = 1.0
        f = LowRankFactors(a, a.copy())
        plus = refactor.optimal_s(f, 0.25, refactor.theorem_exact_mode(1.0, "plus"))
        minus = refactor.optimal_s(f, 0.25, refactor.theorem_exact_mode(1.0, "minus"))
        assert plus.s_matrix[0, 0] == pytest.approx(2.0 + np.sqrt(3.0), rel=1e-12)
        assert minus.s_matrix[0, 0] == pytest.approx(2.0 - np.sqrt(3.0), rel=1e-12)
        assert plus.branch == refactor.BRANCH_SMALL_ETA_PLUS
        assert minus.branch == refactor.BRANCH_SMALL_ETA_MINUS

    def test_small_eta_hits_target_seed9(self):
        g = gen(9)
        f = random_factors(g, 7, 5, 3)
        lip = 2.0
        eta = 0.01 / (refactor.c_tilde(f) * lip)
        for root in ("plus", "minus"):
            res = refactor.optimal_s(f, eta, refactor.theorem_exact_mode(lip, root))
            target = 1.0 / (lip * eta)
            assert abs(g_oracle(f, res.s_matrix) - target) <= 1e-8 * target
            assert res.g_value == pytest.approx(target, rel=1e-12)

    def test_negative_eta_is_balanced(self, rng):
        f = random_factors(rng, 5, 4, 2)
        res = refactor.optimal_s(f, -0.3, refactor.theorem_exact_mode(1.0))
        assert res.branch == refactor.BRANCH_BALANCED

    def test_eta_zero_rejected(self, rng):
        f = random_factors(rng, 5, 4, 2)
        with pytest.raises(InvalidEta):
            refactor.optimal_s(f, 0.0, refactor.theorem_exact_mode(1.0))

    def test_identity_mode(self, rng):
        f = random_factors(rng, 5, 4, 2)
        res = refactor.optimal_s(f, 0.1, refactor.identity_mode())
        assert res.branch == refactor.BRANCH_IDENTITY
        assert rel_err(res.s_matrix, np.eye(2)) == 0.0
        expected = float(np.sum(f.a ** 2) + np.sum(f.b ** 2))
        assert res.g_value == pytest.approx(expected, rel=1e-12)


class TestOptimalScalar:
    def test_norm_ratio_large_eta(self):
        a = np.zeros((3, 1)); a[0, 0] = 2.0
        b = np.zeros((4, 1)); b[2, 0] = 1.0
        f = LowRankFactors(a, b)
        res = refactor.optimal_scalar(f, 10.0, refactor.balanced_mode())
        assert res.s_scalar == pytest.approx(0.5, rel=1e-15)
        assert res.branch == refactor.BRANCH_BALANCED

    def test_forced_small_eta(self):
        # unit norms and 1/(L eta) = 4 force s = 2 +/- sqrt(3)
        a = np.zeros((2, 1)); a[0, 0] = 1.0
        b = np.zeros((2, 1)); b[1, 0] = 1.0
        f = LowRankFactors(a, b)
        mode_p = refactor.theorem_exact_mode(1.0, "plus")
        mode_m = refactor.theorem_exact_mode(1.0, "minus")
        assert refactor.optimal_scalar(f, 0.25, mode_p).s_scalar == \
            pytest.approx(2.0 + np.sqrt(3.0), rel=1e-12)
        assert refactor.optimal_scalar(f, 0.25, mode_m).s_scalar == \
            pytest.approx(2.0 - np.sqrt(3.0), rel=1e-12)

    def test_small_eta_residual_seed13(self):
        g = gen(13)
        f = random_factors(g, 6, 5, 2)
        a2 = float(np.sum(f.a ** 2))
        b2 = float(np.sum(f.b ** 2))
        lip = 1.0
        eta = 0.05 / (2.0 * np.sqrt(a2 * b2) * lip)
        for root in ("plus", "minus"):
            mode = refactor.theorem_exact_mode(lip, root)
            s = refactor.optimal_scalar(f, eta, mode).s_scalar
            h = (a2 * s + b2 / s - 1.0 / (lip * eta)) ** 2
            assert h <= 1e-16

    def test_zero_factor_rejected(self):
        f = LowRankFactors(np.ones((3, 1)), np.zeros((3, 1)))
        with pytest.raises(ZeroFactor):
            refactor.optimal_scalar(f, 0.1, refactor.balanced_mode())

    def test_critical_point(self, rng):
        for _ in range(50):
            f = random_factors(rng, 7, 6, 3)
            s = refactor.optimal_scalar(f, 1.0, refactor.balanced_mode()).s_scalar
            a2 = float(np.sum(f.a ** 2))
            b2 = float(np.sum(f.b ** 2))
            assert a2 * s * s == pytest.approx(b2, rel=1e-12)

    def test_matches_matrix_minimizer_at_rank_one_seed17(self):
        # at r = 1, S = s I spans every S, so both minimizers solve the same
        # problem; eta stays off the threshold, where the two c_tilde may
        # differ by an ulp and pick different branches
        g = gen(17)
        modes = [refactor.balanced_mode()] + [
            refactor.theorem_exact_mode(lip, root)
            for lip in (0.5, 3.0) for root in ("plus", "minus")]
        for _ in range(100):
            m, n = (int(d) for d in g.integers(1, 9, size=2))
            f = LowRankFactors(10.0 ** g.uniform(-3, 3) * g.standard_normal((m, 1)),
                               10.0 ** g.uniform(-3, 3) * g.standard_normal((n, 1)))
            for mode in modes:
                lip = mode.lipschitz or 1.0
                eta_c = 1.0 / (refactor.c_tilde(f) * lip)
                for eta in (0.001 * eta_c, 0.3 * eta_c, 0.99 * eta_c,
                            2.0 * eta_c, -0.5 * eta_c):
                    mat = refactor.optimal_s(f, eta, mode)
                    sca = refactor.optimal_scalar(f, eta, mode)
                    assert sca.branch == mat.branch
                    assert rel_err(sca.s_scalar, mat.s_matrix[0, 0]) <= 1e-13
                    assert rel_err(sca.c_tilde, mat.c_tilde) <= 1e-13
                    assert rel_err(sca.g_value, mat.g_value) <= 1e-13


class TestRefactorMode:
    def test_exactly_the_cli_kinds(self):
        assert refactor.MODES == ("balanced", "theorem-exact", "identity")
        for kind in refactor.MODES:
            assert refactor.RefactorMode(kind, lipschitz=1.0).kind == kind
        for kind in ("scalar", "scalar-theorem-exact", "bogus"):
            with pytest.raises(ValueError, match="unknown refactor mode"):
                refactor.RefactorMode(kind, lipschitz=1.0)


class TestPublicApi:
    def test_every_export_resolves(self):
        import reflora
        missing = [name for name in reflora.__all__
                   if not hasattr(reflora, name)]
        assert missing == []


class TestGObjective:
    def test_identity_value(self, rng):
        f = random_factors(rng, 6, 4, 2)
        expected = float(np.sum(f.a ** 2) + np.sum(f.b ** 2))
        assert refactor.g_objective(f, np.eye(2)) == pytest.approx(expected)

    def test_minimum_is_twice_nuclear_norm(self):
        g = gen(204)
        for _ in range(100):
            f = random_factors(g, 8, 7, 3)
            s = refactor.geometric_mean_s(f)
            target = 2.0 * linalg.nuclear_norm(f.a @ f.b.T)
            assert abs(refactor.g_objective(f, s) - target) <= 1e-8 * target

    def test_other_spd_is_larger_seed17(self):
        g = gen(17)
        f = random_factors(g, 8, 7, 3)
        s = refactor.geometric_mean_s(f)
        floor = 2.0 * linalg.nuclear_norm(f.a @ f.b.T)
        for _ in range(100):
            c = g.standard_normal((3, 3))
            s_other = c @ c.T + 0.1 * np.eye(3)
            if rel_err(s_other, s) < 1e-6:
                continue
            assert refactor.g_objective(f, s_other) > floor

    def test_dimension_mismatch(self, rng):
        f = random_factors(rng, 6, 4, 2)
        with pytest.raises(ValueError):
            refactor.g_objective(f, np.eye(3))


class TestUpperBoundEval:
    def test_eta_zero_returns_const(self, rng):
        f = random_factors(rng, 5, 4, 2)
        got = refactor.upper_bound_eval(f, np.eye(2), 0.0, 1.0, 3.0,
                                        const_terms=1.25)
        assert got == 1.25

    def test_zero_of_squared_term(self, rng):
        f = random_factors(rng, 5, 4, 2)
        lip, eta = 2.0, 0.01
        # scale the balanced matrix so g(S) equals exactly 1/(L eta)
        res = refactor.optimal_s(f, eta, refactor.theorem_exact_mode(lip))
        got = refactor.upper_bound_eval(f, res.s_matrix, eta, lip, 5.0,
                                        const_terms=4.5)
        assert got == pytest.approx(4.5, abs=1e-10)

    def test_quadratic_in_grad_norm(self, rng):
        f = random_factors(rng, 5, 4, 2)
        s = refactor.geometric_mean_s(f)
        b1 = refactor.upper_bound_eval(f, s, 0.1, 1.0, 1.0, 0.0)
        b2 = refactor.upper_bound_eval(f, s, 0.1, 1.0, 2.0, 0.0)
        assert b2 == pytest.approx(4.0 * b1, rel=1e-12)


class TestProductNuclearNorm:
    def test_paths_agree(self):
        # the kernel's R-factor value against an SVD of the dense product
        g = gen(205)
        for _ in range(50):
            f = random_factors(g, 12, 9, 4)
            dense = 2.0 * linalg.nuclear_norm(f.product())
            assert refactor.c_tilde(f) == pytest.approx(dense, rel=1e-10)


def near_singular_factors(rho, seed=0):
    """A = Q diag(1, .5, .3, rho) V^T with orthonormal Q, V; random B."""
    g = gen(300 + seed)
    q = np.linalg.qr(g.standard_normal((20, 4)))[0]
    v = random_orthogonal(g, 4)
    a = q @ np.diag([1.0, 0.5, 0.3, rho]) @ v.T
    return LowRankFactors(a, g.standard_normal((15, 4)))


def stationarity(f, s):
    # S (A^T A) S - B^T B with A S formed first: a rounded A^T A alone
    # carries an error eps ||A||^2 that S (.) S would amplify by ||S||^2
    gb = refactor.gram(f.b)
    return rel_err(refactor.gram(f.a @ s), gb)


class TestKernelContract:
    @pytest.mark.parametrize("rho", [1e-6, 1e-7, 1e-9, 1e-11])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rank_verdict_matches_every_consumer(self, rho, seed):
        f = near_singular_factors(rho, seed)
        gp = GradientPair(np.ones_like(f.a), np.ones_like(f.b))
        cfg = StepConfig(eta=0.01, method=optim.METHOD_REFLORA, warmup_steps=0)
        scaledgd = dataclasses.replace(cfg, method=optim.METHOD_SCALEDGD)
        consumers = [
            lambda: refactor.geometric_mean_s(f),
            lambda: refactor.optimal_s(f, 0.01, refactor.balanced_mode()).s_matrix,
            lambda: refactor.optimal_s(
                f, 1e-6, refactor.theorem_exact_mode(1.0)).s_matrix,
            lambda: optim.reflora_step(f, gp, cfg, t=5),
            lambda: optim.reflora_step(f, gp, scaledgd, t=5),
            lambda: optim.horizontal_check(f, (gp.g_a, gp.g_b)),
        ]
        full_rank = f.is_full_rank()
        for consumer in consumers:
            if full_rank:
                consumer()
            else:
                with pytest.raises(RankDeficient):
                    consumer()
        if full_rank:
            assert stationarity(f, refactor.geometric_mean_s(f)) <= 1e-8
        assert full_rank == (rho >= 1e-7)

    @pytest.mark.parametrize("c", [1e100, 1e-100])
    def test_scale_covariance(self, c):
        g = gen(206)
        f = random_factors(g, 9, 7, 3)
        scaled = LowRankFactors(c * f.a, c * f.b)
        k, k_c = refactor.balance(f), refactor.balance(scaled)
        assert k_c.full_rank
        assert rel_err(k_c.s, k.s) <= 1e-12
        assert rel_err(k_c.s_inv, k.s_inv) <= 1e-12
        assert k_c.c_tilde == pytest.approx(c * c * k.c_tilde, rel=1e-12)

    @pytest.mark.parametrize("c", [1e150, 1e-150, 1e160, 1e-160])
    def test_extreme_scale_range(self, c):
        # (cA, B/c) has S = S_0 / c^2: normal at 1e+-150, out of range at
        # 1e+-160, where every entry point raises IllConditioned up front
        g = gen(208)
        f0 = random_factors(g, 9, 7, 3)
        f = LowRankFactors(c * f0.a, f0.b / c)
        gp = GradientPair(g.standard_normal((9, 3)) / c,
                          g.standard_normal((7, 3)) * c)
        cfg = StepConfig(eta=0.01, method=optim.METHOD_REFLORA, warmup_steps=0)
        scaledgd = dataclasses.replace(cfg, method=optim.METHOD_SCALEDGD)
        entry_points = [
            lambda: refactor.balance(f),
            lambda: optim.reflora_step(f, gp, cfg, t=5),
            lambda: optim.reflora_step(f, gp, scaledgd, t=5),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if abs(np.log10(c)) < 155:
                k = refactor.balance(f)
                assert rel_err(k.s * (c * c), refactor.balance(f0).s) <= 1e-12
                for entry in entry_points:
                    entry()
            else:
                for entry in entry_points:
                    with pytest.raises(IllConditioned):
                        entry()

    def test_c_tilde_past_float_range(self):
        # (cA, cB) keeps S but scales c_tilde by c^2: at c = 1e160 it is
        # inf, returned without an overflow warning; theorem-exact mode
        # then sees 1 / (c_tilde L) = 0 and takes the balanced branch
        g = gen(210)
        f0 = random_factors(g, 9, 7, 3)
        c = 1e160
        f = LowRankFactors(c * f0.a, c * f0.b)
        gp = GradientPair(g.standard_normal((9, 3)) * c,
                          g.standard_normal((7, 3)) * c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = refactor.balance(f)
            assert k.full_rank and k.c_tilde == np.inf
            assert rel_err(k.s, refactor.balance(f0).s) <= 1e-12
            assert refactor.c_tilde(f) == np.inf
            res = refactor.optimal_s(f, 0.01, refactor.balanced_mode())
            assert res.c_tilde == np.inf
            res = refactor.optimal_s(f, 1e-6, refactor.theorem_exact_mode(1.0))
            assert res.branch == refactor.BRANCH_BALANCED
            for mode in (refactor.balanced_mode(),
                         refactor.theorem_exact_mode(1.0)):
                cfg = StepConfig(eta=1e-6, method=optim.METHOD_REFLORA,
                                 refactor_mode=mode, warmup_steps=0)
                out, _ = optim.reflora_step(f, gp, cfg, t=5)
                assert np.all(np.isfinite(out.a)) and np.all(np.isfinite(out.b))

    @pytest.mark.parametrize("x,y,expected", [
        (2.0 ** 600, 2.0 ** 423, np.inf),                   # 2^1024 overflows
        (2.0 ** 600, 1.5 * 2.0 ** 422, 1.5 * 2.0 ** 1023),  # top binade
        (2.0 ** -600, 2.0 ** -470, 2.0 ** -1069)])          # subnormal
    def test_c_tilde_range_boundary(self, x, y, expected):
        # c_tilde = 2 |x y| for a 1 x 1 pair; each value is a power of two
        # times 1 or 1.5, so the kernel's result is exact
        f = LowRankFactors(np.array([[x]]), np.array([[y]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert refactor.balance(f).c_tilde == expected

    @pytest.mark.parametrize("ca,cb", [(1e-160, 1e-160), (1e-160, 1.0),
                                       (1.0, 1e-160)])
    def test_inverse_grams_out_of_range(self, ca, cb):
        # S is in range but (A^T A)^{-1} or (B^T B)^{-1} is not: the kernel
        # leaves that inverse None, ScaledGD raises IllConditioned up front
        # and the refactored step, which does not use it, still works
        g = gen(209)
        f0 = random_factors(g, 9, 7, 3)
        f = LowRankFactors(ca * f0.a, cb * f0.b)
        # chain-rule scales: g_a = G B, g_b = G^T A
        gp = GradientPair(g.standard_normal((9, 3)) * cb,
                          g.standard_normal((7, 3)) * ca)
        cfg = StepConfig(eta=0.01, method=optim.METHOD_REFLORA, warmup_steps=0)
        scaledgd = dataclasses.replace(cfg, method=optim.METHOD_SCALEDGD)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = refactor.balance(f)
            assert k.full_rank
            assert (k.ga_inv is None) == (ca < 1e-155)
            assert (k.gb_inv is None) == (cb < 1e-155)
            assert rel_err(k.s * (ca / cb), refactor.balance(f0).s) <= 1e-12
            with pytest.raises(IllConditioned):
                optim.reflora_step(f, gp, scaledgd, t=5)
            out, _ = optim.reflora_step(f, gp, cfg, t=5)
            assert np.all(np.isfinite(out.a)) and np.all(np.isfinite(out.b))

    def test_inverses_and_root(self):
        g = gen(207)
        for _ in range(20):
            f = random_factors(g, 10, 8, 3)
            k = refactor.balance(f)
            assert rel_err(k.s @ k.s_inv, np.eye(3)) <= 1e-12
            assert rel_err(k.ga_inv @ refactor.gram(f.a), np.eye(3)) <= 1e-12
            assert rel_err(k.gb_inv @ refactor.gram(f.b), np.eye(3)) <= 1e-12

    def test_zero_and_non_finite_factors(self):
        a = np.arange(6.0).reshape(3, 2) + np.eye(3, 2)
        k = refactor.balance(LowRankFactors(a, np.zeros((4, 2))))
        assert not k.full_rank and k.c_tilde == 0.0 and k.s is None
        k = refactor.balance(LowRankFactors.unchecked(a, np.full((4, 2), np.nan)))
        assert not k.full_rank and np.isnan(k.c_tilde)

    def test_props_congruence_invariance_seeds(self):
        for seed in range(24):
            res = props.check_congruence_invariance(
                rng.stream(seed, rng.STREAM_PROPS), 200)
            assert res.passed, (seed, res.residual)


class TestLowRankFactors:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LowRankFactors(np.ones((3, 2)), np.ones((3, 3)))
        with pytest.raises(ValueError):
            LowRankFactors(np.ones((2, 3)), np.ones((4, 3)))
        with pytest.raises(ValueError, match="rank must be at least 1"):
            LowRankFactors(np.ones((3, 0)), np.ones((2, 0)))

    def test_finite_validation(self):
        with pytest.raises(ValueError):
            LowRankFactors(np.array([[np.inf], [1.0]]), np.ones((2, 1)))

    def test_factors_are_read_only(self, rng):
        a, b = rng.standard_normal((6, 2)), rng.standard_normal((5, 2))
        for f in (LowRankFactors(a, b), LowRankFactors.unchecked(a, b)):
            with pytest.raises(ValueError):
                f.a[0, 0] = 1.0
            with pytest.raises(ValueError):
                f.b[0, 0] = 1.0
            assert np.shares_memory(f.a, a)  # a view, not a copy
        a[0, 0] = 1.0  # the caller's arrays stay writable
        b[0, 0] = 1.0

    def test_balance_cached_per_pair(self, rng, monkeypatch):
        runs = []
        kernel = refactor._balance
        monkeypatch.setattr(refactor, "_balance",
                            lambda f: runs.append(f) or kernel(f))
        f = random_factors(rng, 6, 5, 2)
        k = refactor.balance(f)
        assert refactor.balance(f) is k
        assert f.is_full_rank() and refactor.geometric_mean_s(f) is k.s
        assert refactor.c_tilde(f) == k.c_tilde
        assert len(runs) == 1
        with pytest.raises(ValueError):
            k.s[0, 0] = 1.0
        cache = {x.name: x for x in dataclasses.fields(f)}["_cached_balance"]
        assert not (cache.init or cache.repr or cache.compare)
        a = f.a.copy()
        a[0, 0] += 1.0
        g = LowRankFactors(a, f.b)
        k2 = refactor.balance(g)
        assert k2 is not k and len(runs) == 2
        assert not np.array_equal(k2.s, k.s)
        assert np.array_equal(k2.s, kernel(LowRankFactors(a, f.b)).s)

    def test_ill_conditioned_not_cached(self, monkeypatch):
        runs = []
        kernel = refactor._balance
        monkeypatch.setattr(refactor, "_balance",
                            lambda f: runs.append(f) or kernel(f))
        f0 = random_factors(gen(208), 9, 7, 3)
        f = LowRankFactors(1e160 * f0.a, f0.b / 1e160)
        for _ in range(2):
            with pytest.raises(IllConditioned):
                refactor.balance(f)
        assert len(runs) == 2

    def test_fault_injection_after_caching(self, rng):
        f = random_factors(rng, 6, 5, 2)
        k = refactor.balance(f)
        with props.inject_refactor_fault():
            assert np.array_equal(refactor.geometric_mean_s(f), k.s_inv)
            assert np.array_equal(refactor.balance(f).s, k.s_inv)
        assert refactor.balance(f) is k
        assert refactor.geometric_mean_s(f) is k.s

    def test_full_rank_flag(self, rng):
        f = random_factors(rng, 6, 5, 2)
        assert f.is_full_rank()
        tiny = LowRankFactors(np.hstack([f.a[:, :1], f.a[:, :1] * 1e-14]), f.b)
        assert not tiny.is_full_rank()
