import dataclasses
import warnings

import numpy as np
import pytest

from reflora import linalg, optim, props, refactor, rng
from reflora.errors import IllConditioned, RankDeficient
from reflora.optim import GradientPair, StepConfig
from reflora.refactor import LowRankFactors, RefactorMode, THEOREM_EXACT

from conftest import g_oracle, gen, random_factors, random_orthogonal, rel_err

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


class TestGeometricMean:
    def test_balanced_input_is_fixed_point(self, rng):
        q1 = random_orthogonal(rng, 5)[:, :3]
        q2 = random_orthogonal(rng, 6)[:, :3]
        f = LowRankFactors(q1, q2)  # both Grams are I
        assert rel_err(refactor.balance(f).s, np.eye(3)) < 1e-12

    def test_rank_one_ratio(self):
        a = np.zeros((4, 1)); a[0, 0] = 2.0
        b = np.zeros((3, 1)); b[1, 0] = 6.0
        s = refactor.balance(LowRankFactors(a, b)).s
        assert s[0, 0] == pytest.approx(3.0, rel=1e-14)

    def test_oracle_seeds_5_6(self):
        f = LowRankFactors(GEO_A, GEO_B)
        assert rel_err(refactor.balance(f).s, GEO_EXPECTED) < 1e-12

    def test_stationarity(self):
        g = gen(200)
        for _ in range(100):
            f = random_factors(g, 8, 7, 3)
            s = refactor.balance(f).s
            gb = f.b.T @ f.b
            assert rel_err(s @ (f.a.T @ f.a) @ s, gb) <= 1e-8

    def test_gram_product_form(self):
        # matches (A^T A)^{-1} (A^T A B^T B)^{1/2}
        g = gen(201)
        for _ in range(100):
            f = random_factors(g, 9, 6, 3)
            s = refactor.balance(f).s
            ga = f.a.T @ f.a
            alt = np.linalg.solve(ga, linalg.nonsym_psd_sqrt(ga, f.b.T @ f.b))
            assert rel_err(s, alt) <= 1e-9

    def test_balance(self):
        g = gen(202)
        for _ in range(100):
            f = random_factors(g, 10, 8, 4)
            s = refactor.balance(f).s
            a_t = f.a @ linalg.spd_sqrt(s)
            b_t = f.b @ linalg.spd_inv_sqrt(s)
            ga = a_t.T @ a_t
            assert np.linalg.norm(ga - b_t.T @ b_t) <= 1e-8 * np.linalg.norm(ga)

    def test_congruence_invariance(self):
        g = gen(203)
        for _ in range(50):
            f = random_factors(g, 8, 9, 3)
            p = g.standard_normal((3, 3)) + np.eye(3)
            s = refactor.balance(f).s
            s_p = refactor.balance(
                LowRankFactors(f.a @ p, f.b @ np.linalg.inv(p).T)).s
            p_inv = np.linalg.inv(p)
            assert rel_err(s_p, p_inv @ s @ p_inv.T) <= 1e-8

    def test_rank_deficient_rejected(self):
        a = np.ones((4, 2))  # identical columns
        b = np.arange(6.0).reshape(3, 2)
        with pytest.raises(RankDeficient):
            refactor.balance(LowRankFactors(a, b))


class TestOptimalS:
    def test_balanced_always_ignores_eta(self, rng):
        f = random_factors(rng, 6, 5, 2)
        res = refactor.optimal_s(refactor.balance(f), 1e-9, RefactorMode())
        assert res.branch == refactor.BRANCH_BALANCED
        assert rel_err(res.p_b, refactor.balance(f).s) == 0.0
        assert refactor.g_objective(f, res.p_b) == pytest.approx(res.c_tilde,
                                                                 rel=1e-8)

    def test_boundary_returns_balanced(self, rng):
        f = random_factors(rng, 6, 5, 2)
        lip = 1.0
        eta_c = 1.0 / (refactor.balance(f).c_tilde * lip)
        res = refactor.optimal_s(refactor.balance(f),
                                 eta_c, RefactorMode(THEOREM_EXACT, lip))
        assert res.branch == refactor.BRANCH_BALANCED
        assert rel_err(res.p_b, refactor.balance(f).s) < 1e-10

    def test_forced_scaling_rank_one(self):
        # unit vectors, a = b: threshold constant 2; L = 1, eta = 1/4
        a = np.zeros((3, 1)); a[0, 0] = 1.0
        f = LowRankFactors(a, a.copy())
        plus = refactor.optimal_s(refactor.balance(f),
                                  0.25, RefactorMode(THEOREM_EXACT, 1.0, "plus"))
        minus = refactor.optimal_s(refactor.balance(f),
                                   0.25, RefactorMode(THEOREM_EXACT, 1.0, "minus"))
        assert plus.p_b[0, 0] == pytest.approx(2.0 + np.sqrt(3.0), rel=1e-12)
        assert minus.p_b[0, 0] == pytest.approx(2.0 - np.sqrt(3.0), rel=1e-12)
        assert plus.branch == refactor.BRANCH_SMALL_ETA_PLUS
        assert minus.branch == refactor.BRANCH_SMALL_ETA_MINUS

    def test_small_eta_hits_target_seed9(self):
        g = gen(9)
        f = random_factors(g, 7, 5, 3)
        lip = 2.0
        eta = 0.01 / (refactor.balance(f).c_tilde * lip)
        for root in ("plus", "minus"):
            res = refactor.optimal_s(refactor.balance(f),
                                     eta, RefactorMode(THEOREM_EXACT, lip, root))
            target = 1.0 / (lip * eta)
            assert abs(g_oracle(f, res.p_b) - target) <= 1e-8 * target

    def test_negative_eta_is_balanced(self, rng):
        f = random_factors(rng, 5, 4, 2)
        res = refactor.optimal_s(refactor.balance(f),
                                 -0.3, RefactorMode(THEOREM_EXACT, 1.0))
        assert res.branch == refactor.BRANCH_BALANCED

    def test_eta_zero_rejected(self, rng):
        f = random_factors(rng, 5, 4, 2)
        with pytest.raises(ValueError, match="eta = 0 is a jump discontinuity"):
            refactor.optimal_s(refactor.balance(f),
                               0.0, RefactorMode(THEOREM_EXACT, 1.0))

    def test_rank_deficient_kernel_result_rejected(self):
        # a deficient pair has no kernel result for optimal_s to take
        f = LowRankFactors(np.ones((4, 2)), np.arange(6.0).reshape(3, 2))
        with pytest.raises(RankDeficient):
            refactor._r_factors(f)
        with pytest.raises(RankDeficient):
            refactor.optimal_s(refactor.balance(f), 0.01, RefactorMode())


class TestOptimalScalar:
    def test_norm_ratio_large_eta(self):
        a = np.zeros((3, 1)); a[0, 0] = 2.0
        b = np.zeros((4, 1)); b[2, 0] = 1.0
        f = LowRankFactors(a, b)
        res = refactor.optimal_scalar(f, 10.0, RefactorMode())
        assert res.s == pytest.approx(0.5, rel=1e-15)
        assert res.branch == refactor.BRANCH_BALANCED

    def test_forced_small_eta(self):
        # unit norms and 1/(L eta) = 4 force s = 2 +/- sqrt(3)
        a = np.zeros((2, 1)); a[0, 0] = 1.0
        b = np.zeros((2, 1)); b[1, 0] = 1.0
        f = LowRankFactors(a, b)
        mode_p = RefactorMode(THEOREM_EXACT, 1.0, "plus")
        mode_m = RefactorMode(THEOREM_EXACT, 1.0, "minus")
        assert refactor.optimal_scalar(f, 0.25, mode_p).s == \
            pytest.approx(2.0 + np.sqrt(3.0), rel=1e-12)
        assert refactor.optimal_scalar(f, 0.25, mode_m).s == \
            pytest.approx(2.0 - np.sqrt(3.0), rel=1e-12)

    def test_small_eta_residual_seed13(self):
        g = gen(13)
        f = random_factors(g, 6, 5, 2)
        a2 = float(np.sum(f.a ** 2))
        b2 = float(np.sum(f.b ** 2))
        lip = 1.0
        eta = 0.05 / (2.0 * np.sqrt(a2 * b2) * lip)
        for root in ("plus", "minus"):
            mode = RefactorMode(THEOREM_EXACT, lip, root)
            s = refactor.optimal_scalar(f, eta, mode).s
            h = (a2 * s + b2 / s - 1.0 / (lip * eta)) ** 2
            assert h <= 1e-16

    def test_zero_factor_rejected(self):
        f = LowRankFactors(np.ones((3, 1)), np.zeros((3, 1)))
        with pytest.raises(RankDeficient,
                           match="both factors must have positive Frobenius norm"):
            refactor.optimal_scalar(f, 0.1, RefactorMode())

    def test_critical_point(self, rng):
        for _ in range(50):
            f = random_factors(rng, 7, 6, 3)
            s = refactor.optimal_scalar(f, 1.0, RefactorMode()).s
            a2 = float(np.sum(f.a ** 2))
            b2 = float(np.sum(f.b ** 2))
            assert a2 * s * s == pytest.approx(b2, rel=1e-12)

    def test_matches_matrix_minimizer_at_rank_one_seed17(self):
        # at r = 1, S = s I spans every S, so both minimizers solve the same
        # problem; eta stays off the threshold, where the two c_tilde may
        # differ by an ulp and pick different branches
        g = gen(17)
        modes = [RefactorMode()] + [
            RefactorMode(THEOREM_EXACT, lip, root)
            for lip in (0.5, 3.0) for root in ("plus", "minus")]
        for _ in range(100):
            m, n = (int(d) for d in g.integers(1, 9, size=2))
            f = LowRankFactors(10.0 ** g.uniform(-3, 3) * g.standard_normal((m, 1)),
                               10.0 ** g.uniform(-3, 3) * g.standard_normal((n, 1)))
            for mode in modes:
                lip = mode.lipschitz or 1.0
                eta_c = 1.0 / (refactor.balance(f).c_tilde * lip)
                for eta in (0.001 * eta_c, 0.3 * eta_c, 0.99 * eta_c,
                            2.0 * eta_c, -0.5 * eta_c):
                    mat = refactor.optimal_s(refactor.balance(f), eta, mode)
                    sca = refactor.optimal_scalar(f, eta, mode)
                    assert sca.branch == mat.branch
                    assert rel_err(sca.s, mat.p_b[0, 0]) <= 1e-13
                    assert rel_err(sca.c_tilde, mat.c_tilde) <= 1e-13
                    assert rel_err(refactor.g_objective(f, sca.s * np.eye(1)),
                                   refactor.g_objective(f, mat.p_b)) <= 1e-13


class TestRefactorMode:
    def test_exactly_the_cli_kinds(self):
        assert refactor.MODES == ("balanced", "theorem-exact")
        for kind in refactor.MODES:
            assert refactor.RefactorMode(kind, lipschitz=1.0).kind == kind
        for kind in ("scalar", "scalar-theorem-exact", "bogus"):
            with pytest.raises(ValueError, match="unknown refactor mode"):
                refactor.RefactorMode(kind, lipschitz=1.0)

    def test_bad_root_rejected(self):
        with pytest.raises(ValueError, match="root choice must be 'plus' or "
                           "'minus', got 'sideways'"):
            refactor.RefactorMode(root="sideways")

    @pytest.mark.parametrize("lipschitz", [None, 0.0, np.inf])
    def test_theorem_exact_needs_lipschitz(self, lipschitz):
        with pytest.raises(ValueError, match="finite positive lipschitz"):
            refactor.RefactorMode(THEOREM_EXACT, lipschitz=lipschitz)


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
            s = refactor.balance(f).s
            target = 2.0 * linalg.nuclear_norm(f.a @ f.b.T)
            assert abs(refactor.g_objective(f, s) - target) <= 1e-8 * target

    def test_other_spd_is_larger_seed17(self):
        g = gen(17)
        f = random_factors(g, 8, 7, 3)
        s = refactor.balance(f).s
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

    @pytest.mark.parametrize("s,message", [
        pytest.param([[1.0, 0.5], [0.0, 1.0]], "S is not symmetric",
                     id="asymmetric"),
        pytest.param([[1.0, 0.0], [0.0, -1.0]], "S is not positive definite",
                     id="indefinite"),
    ])
    def test_non_spd_rejected(self, rng, s, message):
        f = random_factors(rng, 6, 4, 2)
        with pytest.raises(ValueError, match=message):
            refactor.g_objective(f, np.array(s))


class TestUpperBoundEval:
    @pytest.mark.parametrize("lipschitz", [0.0, -1.0])
    def test_nonpositive_lipschitz_rejected(self, rng, lipschitz):
        f = random_factors(rng, 5, 4, 2)
        with pytest.raises(ValueError, match="lipschitz must be positive"):
            refactor.upper_bound_eval(f, np.eye(2), 0.1, lipschitz, 1.0, 0.0)

    def test_eta_zero_returns_const(self, rng):
        f = random_factors(rng, 5, 4, 2)
        got = refactor.upper_bound_eval(f, np.eye(2), 0.0, 1.0, 3.0,
                                        const_terms=1.25)
        assert got == 1.25

    def test_zero_of_squared_term(self, rng):
        f = random_factors(rng, 5, 4, 2)
        lip, eta = 2.0, 0.01
        # scale the balanced matrix so g(S) equals exactly 1/(L eta)
        res = refactor.optimal_s(refactor.balance(f),
                                 eta, RefactorMode(THEOREM_EXACT, lip))
        got = refactor.upper_bound_eval(f, res.p_b, eta, lip, 5.0,
                                        const_terms=4.5)
        assert got == pytest.approx(4.5, abs=1e-10)

    def test_quadratic_in_grad_norm(self, rng):
        f = random_factors(rng, 5, 4, 2)
        s = refactor.balance(f).s
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
            assert refactor.balance(f).c_tilde == pytest.approx(dense, rel=1e-10)


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
        # the R-factor stage's verdict first, then every consumer of it
        consumers = [
            lambda: refactor._r_factors(f),
            lambda: refactor.balance(f).s,
            lambda: refactor.optimal_s(refactor.balance(f),
                                       0.01, RefactorMode()).p_b,
            lambda: refactor.optimal_s(
                refactor.balance(f), 1e-6, RefactorMode(THEOREM_EXACT, 1.0)).p_b,
            lambda: optim.reflora_step(f, gp, cfg, t=5),
            lambda: optim.reflora_step(f, gp, scaledgd, t=5),
            lambda: optim.horizontal_check(f, (gp.g_a, gp.g_b)),
        ]
        full_rank = rho >= 1e-7
        for consumer in consumers:
            if full_rank:
                consumer()
            else:
                with pytest.raises(RankDeficient):
                    consumer()
        if full_rank:
            assert stationarity(f, refactor.balance(f).s) <= 1e-8

    @pytest.mark.parametrize("c", [1e100, 1e-100])
    def test_scale_covariance(self, c):
        g = gen(206)
        f = random_factors(g, 9, 7, 3)
        scaled = LowRankFactors(c * f.a, c * f.b)
        k, k_c = refactor.balance(f), refactor.balance(scaled)
        refactor._r_factors(scaled)
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
            refactor._r_factors(f)
            assert k.c_tilde == np.inf
            assert rel_err(k.s, refactor.balance(f0).s) <= 1e-12
            assert refactor.balance(f).c_tilde == np.inf
            res = refactor.optimal_s(refactor.balance(f), 0.01, RefactorMode())
            assert res.c_tilde == np.inf
            res = refactor.optimal_s(refactor.balance(f),
                                     1e-6, RefactorMode(THEOREM_EXACT, 1.0))
            assert res.branch == refactor.BRANCH_BALANCED
            for mode in (RefactorMode(),
                         RefactorMode(THEOREM_EXACT, 1.0)):
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
        # S is in range but (A^T A)^{-1} or (B^T B)^{-1} is not: ScaledGD
        # raises IllConditioned up front, and the refactored step, which
        # does not use them, still works
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
            refactor._r_factors(f)
            assert rel_err(k.s * (ca / cb), refactor.balance(f0).s) <= 1e-12
            with pytest.raises(IllConditioned):
                optim.reflora_step(f, gp, scaledgd, t=5)
            out, _ = optim.reflora_step(f, gp, cfg, t=5)
            assert np.all(np.isfinite(out.a)) and np.all(np.isfinite(out.b))

    def test_scaledgd_range_contract(self):
        # (2^k A, 2^-k B) scales (A^T A)^{-1} by 2^-2k, (B^T B)^{-1} by 2^2k
        # and S by 2^-2k, all exactly while they stay normal. ScaledGD reads
        # only the inverse Grams, so it raises IllConditioned exactly when
        # one of them leaves the normal range, whatever S does. With
        # orthonormal A and kappa(B) = 256, S leaves it first at one end
        g = gen(211)
        b = (np.linalg.qr(g.standard_normal((7, 3)))[0]
             @ np.diag([16.0, 1.0, 1.0 / 16.0]) @ random_orthogonal(g, 3).T)
        f0 = LowRankFactors(np.linalg.qr(g.standard_normal((9, 3)))[0], b)
        cfg = StepConfig(eta=0.01, method=optim.METHOD_SCALEDGD)
        p0 = optim.METHODS[optim.METHOD_SCALEDGD](f0, cfg)
        k0 = refactor.balance(f0)

        def normal(x, e):
            return -1021 <= np.frexp(x.diagonal().max())[1] + e <= 1024

        s_only = grams_only = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in [*range(-525, -495), *range(495, 526)]:
                f = LowRankFactors(np.ldexp(f0.a, k), np.ldexp(f0.b, -k))
                refactor._r_factors(f)
                grams_ok = normal(p0.p_b, -2 * k) and normal(p0.p_a, 2 * k)
                s_ok = normal(k0.s, -2 * k) and normal(k0.s_inv, 2 * k)
                if grams_ok:
                    p = optim.METHODS[optim.METHOD_SCALEDGD](f, cfg)
                    assert np.array_equal(p.p_a, np.ldexp(p0.p_a, 2 * k))
                    assert np.array_equal(p.p_b, np.ldexp(p0.p_b, -2 * k))
                else:
                    with pytest.raises(IllConditioned):
                        optim.METHODS[optim.METHOD_SCALEDGD](f, cfg)
                if s_ok:
                    assert np.array_equal(refactor.balance(f).s,
                                          np.ldexp(k0.s, -2 * k))
                else:
                    with pytest.raises(IllConditioned):
                        refactor.balance(f)
                s_only += grams_ok and not s_ok
                grams_only += s_ok and not grams_ok
        # the grid crosses both ends of the range, and on it ScaledGD steps
        # where S has left the range and raises where S has not
        assert s_only > 0 and grams_only > 0

    def test_inverses_and_root(self):
        g = gen(207)
        cfg = StepConfig(eta=0.01, method=optim.METHOD_SCALEDGD)
        for _ in range(20):
            f = random_factors(g, 10, 8, 3)
            k = refactor.balance(f)
            p = optim.METHODS[optim.METHOD_SCALEDGD](f, cfg)
            assert rel_err(k.s @ k.s_inv, np.eye(3)) <= 1e-12
            assert rel_err(p.p_b @ refactor.gram(f.a), np.eye(3)) <= 1e-12
            assert rel_err(p.p_a @ refactor.gram(f.b), np.eye(3)) <= 1e-12

    @pytest.mark.parametrize("r", [1, 2, 5, 8, 13])
    def test_stacked_rank_norms_match_linalg_norm(self, r):
        # the rank test's one stacked reduction over (R, R^-1) is
        # np.linalg.norm(axis=(1, 2)) bit for bit, so the verdict holds
        g = gen(212 + r)
        for scale in (1.0, 1e-150, 1e150):
            f = random_factors(g, 3 * r, 2 * r + 1, r)
            f = LowRankFactors(scale * f.a, f.b / scale)
            _, rf, rf_inv = refactor._r_factors(f)
            rr = np.concatenate((rf, rf_inv))
            got = np.sqrt(np.add.reduce(rr * rr, axis=(1, 2)))
            want = np.concatenate((np.linalg.norm(rf, axis=(1, 2)),
                                   np.linalg.norm(rf_inv, axis=(1, 2))))
            assert got.tobytes() == want.tobytes()

    def test_deficient_pair_raises_before_any_decomposition(self, monkeypatch):
        # the zero-B pair is every default mf run's warmup pair: its Gram
        # fails Cholesky, and the verdict needs no eigh or SVD
        calls = []
        for name in ("eigh", "svd"):
            real = getattr(np.linalg, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        a = np.arange(6.0).reshape(3, 2) + np.eye(3, 2)
        for f in (LowRankFactors(a, np.zeros((4, 2))),
                  LowRankFactors.unchecked(a, np.full((4, 2), np.nan))):
            with pytest.raises(RankDeficient):
                refactor.balance(f)
        assert calls == []

    def test_props_congruence_invariance_seeds(self):
        row = next(inv for inv in props.INVARIANTS
                   if inv.name == "refactor.congruence_invariance")
        for seed in range(24):
            res = props.evaluate(row, rng.stream(seed, rng.STREAM_PROPS), 200)
            assert res.passed, (seed, res.residual)


class TestLowRankFactors:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LowRankFactors(np.ones((3, 2)), np.ones((3, 3)))
        with pytest.raises(ValueError):
            LowRankFactors(np.ones((2, 3)), np.ones((4, 3)))
        with pytest.raises(ValueError, match="rank must be at least 1"):
            LowRankFactors(np.ones((3, 0)), np.ones((2, 0)))
        with pytest.raises(ValueError, match="factors must be two-dimensional"):
            LowRankFactors(np.ones(3), np.ones(2))

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

    def test_fields_are_the_factors(self):
        assert [x.name for x in dataclasses.fields(LowRankFactors)] == ["a", "b"]

    def test_full_rank_flag(self, rng):
        f = random_factors(rng, 6, 5, 2)
        refactor._r_factors(f)
        tiny = LowRankFactors(np.hstack([f.a[:, :1], f.a[:, :1] * 1e-14]), f.b)
        with pytest.raises(RankDeficient):
            refactor._r_factors(tiny)

    def test_full_rank_verdict_where_s_leaves_the_range(self, rng, monkeypatch):
        # S of (1e160 A, 1e-160 B) leaves the float range, but the verdict
        # is the R-factor stage's: full rank, with no SVD
        f0 = random_factors(rng, 9, 7, 3)
        f = LowRankFactors(1e160 * f0.a, 1e-160 * f0.b)
        with pytest.raises(IllConditioned):
            refactor.balance(f)

        def no_svd(*args, **kwargs):
            raise AssertionError("the rank verdict ran an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            refactor._r_factors(f)
