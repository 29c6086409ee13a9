import numpy as np
import pytest

from reflora import linalg, optim, refactor
from reflora.errors import RankDeficient, ZeroFactor
from reflora.optim import GradientPair, OptimizerState, StepConfig
from reflora.refactor import LowRankFactors, RefactorMode

from conftest import gen, random_orthogonal, rel_err

# Frozen one-step oracles, computed in a separate scripting session with
# explicit triple-loop matrix products (and a closed-form 2x2 inverse for
# the Gram preconditioning).

GD_A = np.array(
    [[0.4884121733983143, 0.19209969974749747],
     [0.04941827339465403, -1.565494460041246]])
GD_B = np.array(
    [[0.36002434411993867, 2.2322315930675414],
     [1.2296228026870466, 0.07904158931805748]])
GD_GRAD = np.array(
    [[1.9157159142008413, -0.40979878090884736],
     [-1.4067464129674383, -1.503030022974005]])
GD_A_EXPECTED = np.array(
    [[0.47912185139774355, -0.02009682225638995],
     [0.16714942059684157, -1.4025451766277972]])
GD_B_EXPECTED = np.array(
    [[0.3167173443981588, 2.103718484662396],
     [1.2433441957788152, -0.03467155825554209]])

SGD_A = np.array(
    [[-1.674017387898121, -0.4497983833672783],
     [-0.3276865655298952, 0.8165128324939853],
     [0.6986998812895665, 1.4895054304462942]])
SGD_B = np.array(
    [[-0.4385899924824475, -0.6401856394018169],
     [0.9391055714937767, 1.3690762606751192],
     [-0.8409596419847365, 0.23440532507318035]])
SGD_GRAD = np.array(
    [[-1.2929785772248006, 0.3210582362064397, 0.6919650460436446],
     [-0.5192147572804434, 1.2906690716019125, -0.31273454536999595],
     [-1.0079802511996012, 1.0270105392621809, -0.11980464634335328]])
SGD_A_EXPECTED = np.array(
    [[-1.6178703374264725, -0.5437792040607223],
     [-0.38041775110669573, 0.7607648226427471],
     [0.6657487877232098, 1.422299572965909]])
SGD_B_EXPECTED = np.array(
    [[-0.5253857865424334, -0.5537644976523753],
     [0.9938961741538006, 1.262996847532618],
     [-0.8117818808431354, 0.24411360050368874]])

ADAM_PARAM0 = 0.849166185730026
ADAM_GRADS = [-0.7282204351999269, -2.6477179227207372, -0.9358484123463086]
ADAM_TRACE_EXPECTED = [0.9491661843568154, 1.0386790917129516, 1.124787016909483]


def pair_from_dense(f, grad):
    return GradientPair(grad @ f.b, grad.T @ f.a)


def random_factors(g, m, n, r):
    return LowRankFactors(g.standard_normal((m, r)), g.standard_normal((n, r)))


def gd_step(f, gp, eta, method=optim.METHOD_LORA):
    """The pair after one GD step of `method`."""
    return optim.reflora_step(f, gp, StepConfig(eta=eta, method=method))[0]


class TestLoraGdStep:
    def test_zero_b_freezes_a(self, rng):
        f = LowRankFactors(rng.standard_normal((4, 2)), np.zeros((3, 2)))
        grad = rng.standard_normal((4, 3))
        f_new = gd_step(f, pair_from_dense(f, grad), 0.1)
        assert np.array_equal(f_new.a, f.a)
        assert np.linalg.norm(f_new.b) > 0

    def test_zero_gradient(self, rng):
        f = random_factors(rng, 4, 3, 2)
        f_new = gd_step(f, pair_from_dense(f, np.zeros((4, 3))), 0.1)
        assert np.array_equal(f_new.a, f.a)
        assert np.array_equal(f_new.b, f.b)

    def test_oracle_seed21(self):
        f = LowRankFactors(GD_A, GD_B)
        f_new = gd_step(f, pair_from_dense(f, GD_GRAD), 0.05)
        assert rel_err(f_new.a, GD_A_EXPECTED) < 1e-14
        assert rel_err(f_new.b, GD_B_EXPECTED) < 1e-14


class TestDeltaW:
    def test_no_change(self, rng):
        f = random_factors(rng, 4, 3, 2)
        assert np.array_equal(optim.delta_w(f, f), np.zeros((4, 3)))

    def test_expansion_identity(self, rng):
        f = random_factors(rng, 5, 4, 1)
        grad = rng.standard_normal((5, 4))
        gp = pair_from_dense(f, grad)
        eta = 0.02
        f_new = gd_step(f, gp, eta)
        da, db = -eta * gp.g_a, -eta * gp.g_b
        expect = f.a @ db.T + da @ f.b.T + da @ db.T
        assert rel_err(optim.delta_w(f, f_new), expect) < 1e-12


class TestRefloraStep:
    def test_balanced_input_matches_plain_gd(self, rng):
        q1 = random_orthogonal(rng, 6)[:, :2]
        q2 = random_orthogonal(rng, 5)[:, :2]
        f = LowRankFactors(q1, q2)
        grad = rng.standard_normal((6, 5))
        gp = pair_from_dense(f, grad)
        cfg = StepConfig(eta=0.05, method=optim.METHOD_REFLORA)
        got, _ = optim.reflora_step(f, gp, cfg)
        want = gd_step(f, gp, 0.05)
        assert rel_err(got.a, want.a) < 1e-12
        assert rel_err(got.b, want.b) < 1e-12

    def test_dual_path_seed23(self):
        # preconditioned step == refactor, GD step, refactor back
        g = gen(23)
        for _ in range(20):
            f = random_factors(g, 7, 6, 3)
            grad = g.standard_normal((7, 6))
            gp = pair_from_dense(f, grad)
            eta = 0.03
            cfg = StepConfig(eta=eta, method=optim.METHOD_REFLORA)
            got, _ = optim.reflora_step(f, gp, cfg)

            s = refactor.geometric_mean_s(f)
            p = linalg.spd_sqrt(s)
            p_inv = linalg.spd_inv_sqrt(s)
            a_t, b_t = f.a @ p, f.b @ p_inv
            a_t2 = a_t - eta * grad @ b_t
            b_t2 = b_t - eta * grad.T @ a_t
            want_a, want_b = a_t2 @ p_inv, b_t2 @ p.T
            assert rel_err(got.a, want_a) <= 1e-10
            assert rel_err(got.b, want_b) <= 1e-10

    def test_consistent_weight_update_seed29(self):
        # equivalent factorizations produce the same weight change
        g = gen(29)
        for _ in range(20):
            f = random_factors(g, 6, 5, 2)
            grad = g.standard_normal((6, 5))
            p = g.standard_normal((2, 2)) + 2 * np.eye(2)
            f_alt = LowRankFactors(f.a @ p, f.b @ np.linalg.inv(p).T)
            cfg = StepConfig(eta=0.02, method=optim.METHOD_REFLORA)
            dw = optim.delta_w(f, optim.reflora_step(
                f, pair_from_dense(f, grad), cfg)[0])
            dw_alt = optim.delta_w(f_alt, optim.reflora_step(
                f_alt, pair_from_dense(f_alt, grad), cfg)[0])
            assert rel_err(dw_alt, dw) <= 1e-8

    @pytest.mark.parametrize("method,error", [
        pytest.param(optim.METHOD_REFLORA, RankDeficient, id="reflora"),
        pytest.param(optim.METHOD_SCALEDGD, RankDeficient, id="scaledgd"),
        pytest.param(optim.METHOD_REFLORA_S, ZeroFactor, id="reflora-s"),
    ])
    def test_warmup_fallback_then_error(self, rng, method, error):
        f = LowRankFactors(rng.standard_normal((5, 2)), np.zeros((4, 2)))
        grad = rng.standard_normal((5, 4))
        gp = pair_from_dense(f, grad)
        for optimizer in (optim.GD, optim.ADAM):
            cfg = StepConfig(eta=0.1, method=method, optimizer=optimizer,
                             warmup_steps=1)
            state = OptimizerState.zeros(5, 4, 2)
            f_new, new_state = optim.reflora_step(f, gp, cfg, state, t=0)
            # plain GD with B = 0, and the optimizer state untouched
            assert np.array_equal(f_new.a, f.a)
            assert np.array_equal(f_new.b, f.b - 0.1 * gp.g_b)
            assert new_state is state
            with pytest.raises(error):
                optim.reflora_step(f, gp, cfg, state, t=1)

    def test_adam_path_preconditions_gradients(self, rng):
        f = random_factors(rng, 6, 5, 2)
        grad = rng.standard_normal((6, 5))
        gp = pair_from_dense(f, grad)
        cfg = StepConfig(eta=0.01, method=optim.METHOD_REFLORA,
                         optimizer=optim.ADAM)
        state = OptimizerState.zeros(6, 5, 2)
        got, new_state = optim.reflora_step(f, gp, cfg, state)
        s = refactor.geometric_mean_s(f)
        g_a = gp.g_a @ np.linalg.inv(s)
        g_b = gp.g_b @ s
        want_a, _, _ = optim.adam_update(f.a, g_a, state.m_a, state.v_a, 1,
                                         0.01, 0.9, 0.999, 1e-8)
        want_b, _, _ = optim.adam_update(f.b, g_b, state.m_b, state.v_b, 1,
                                         0.01, 0.9, 0.999, 1e-8)
        assert rel_err(got.a, want_a) < 1e-10
        assert rel_err(got.b, want_b) < 1e-10
        assert new_state.step == 1


class TestRefloraSStep:
    def test_equal_norms_reduce_to_gd(self, rng):
        a = rng.standard_normal((5, 2))
        b = rng.standard_normal((4, 2))
        b *= np.linalg.norm(a) / np.linalg.norm(b)
        f = LowRankFactors(a, b)
        grad = rng.standard_normal((5, 4))
        gp = pair_from_dense(f, grad)
        cfg = StepConfig(eta=0.05, method=optim.METHOD_REFLORA_S)
        got, _ = optim.reflora_step(f, gp, cfg)
        want = gd_step(f, gp, 0.05)
        assert rel_err(got.a, want.a) < 1e-12
        assert rel_err(got.b, want.b) < 1e-12

    def test_rescale_balances_norms(self, rng):
        a = rng.standard_normal((5, 2))
        b = rng.standard_normal((4, 2))
        a *= 2.0 / np.linalg.norm(a)
        b *= 1.0 / np.linalg.norm(b)
        f = LowRankFactors(a, b)
        s = refactor.optimal_scalar(f, 1.0, RefactorMode()).s_scalar
        assert s == pytest.approx(0.5, rel=1e-12)
        a_t = np.sqrt(s) * a
        b_t = b / np.sqrt(s)
        assert np.linalg.norm(a_t) == pytest.approx(np.linalg.norm(b_t), rel=1e-12)

    def test_adam_moment_scaling_equals_explicit_rescale_seed31(self):
        g = gen(31)
        for _ in range(20):
            f = random_factors(g, 6, 5, 2)
            grad = g.standard_normal((6, 5))
            gp = pair_from_dense(f, grad)
            state = OptimizerState(
                m_a=g.standard_normal((6, 2)), v_a=g.random((6, 2)),
                m_b=g.standard_normal((5, 2)), v_b=g.random((5, 2)), step=3)
            cfg = StepConfig(eta=0.01, method=optim.METHOD_REFLORA_S,
                             optimizer=optim.ADAM)
            got, got_state = optim.reflora_step(f, gp, cfg, state)

            # reference: explicitly rescale factors, gradients, and moments,
            # then run the plain adaptive rule
            s = refactor.optimal_scalar(f, 0.01, RefactorMode()).s_scalar
            rs = np.sqrt(s)
            want_a, m_a, v_a = optim.adam_update(
                rs * f.a, (grad @ f.b) / rs, state.m_a / rs, state.v_a / s,
                4, 0.01, 0.9, 0.999, 1e-8)
            want_b, m_b, v_b = optim.adam_update(
                f.b / rs, rs * (grad.T @ f.a), state.m_b * rs, state.v_b * s,
                4, 0.01, 0.9, 0.999, 1e-8)
            assert rel_err(got.a, want_a) <= 1e-10
            assert rel_err(got.b, want_b) <= 1e-10
            assert rel_err(got_state.m_a, m_a) <= 1e-10
            assert rel_err(got_state.v_b, v_b) <= 1e-10

    def test_zero_factor_past_warmup(self, rng):
        f = LowRankFactors(rng.standard_normal((4, 1)), np.zeros((3, 1)))
        gp = pair_from_dense(f, rng.standard_normal((4, 3)))
        cfg = StepConfig(eta=0.1, method=optim.METHOD_REFLORA_S, warmup_steps=0)
        with pytest.raises(ZeroFactor):
            optim.reflora_step(f, gp, cfg, t=5)


class TestScaledGdStep:
    def test_orthonormal_factors_reduce_to_gd(self, rng):
        f = LowRankFactors(random_orthogonal(rng, 5)[:, :2],
                           random_orthogonal(rng, 4)[:, :2])
        grad = rng.standard_normal((5, 4))
        gp = pair_from_dense(f, grad)
        got = gd_step(f, gp, 0.1, optim.METHOD_SCALEDGD)
        want = gd_step(f, gp, 0.1)
        assert rel_err(got.a, want.a) < 1e-12
        assert rel_err(got.b, want.b) < 1e-12

    def test_zero_gradient(self, rng):
        f = random_factors(rng, 4, 3, 2)
        got = gd_step(f, pair_from_dense(f, np.zeros((4, 3))), 0.1,
                      optim.METHOD_SCALEDGD)
        assert rel_err(got.a, f.a) == 0.0

    def test_oracle_seed37(self):
        f = LowRankFactors(SGD_A, SGD_B)
        got = gd_step(f, pair_from_dense(f, SGD_GRAD), 0.1,
                      optim.METHOD_SCALEDGD)
        assert rel_err(got.a, SGD_A_EXPECTED) < 1e-13
        assert rel_err(got.b, SGD_B_EXPECTED) < 1e-13

    def test_rank_deficient_rejected(self, rng):
        f = LowRankFactors(rng.standard_normal((4, 2)), np.zeros((3, 2)))
        cfg = StepConfig(eta=0.1, method=optim.METHOD_SCALEDGD, warmup_steps=0)
        with pytest.raises(RankDeficient):
            optim.reflora_step(f, pair_from_dense(f, np.ones((4, 3))), cfg, t=5)


class TestAdamUpdate:
    def test_sign_sgd_limit(self, rng):
        param = rng.standard_normal((3, 2))
        grad = rng.standard_normal((3, 2))
        new, _, _ = optim.adam_update(param, grad, np.zeros_like(param),
                                      np.zeros_like(param), 1, 0.1, 0.0, 0.0,
                                      1e-8)
        want = param - 0.1 * grad / (np.abs(grad) + 1e-8)
        assert rel_err(new, want) < 1e-12

    def test_zero_grad_zero_moments(self, rng):
        param = rng.standard_normal((3, 2))
        zero = np.zeros_like(param)
        new, m, v = optim.adam_update(param, zero, zero, zero, 1, 0.1, 0.9,
                                      0.999, 1e-8)
        assert np.array_equal(new, param)
        assert np.array_equal(m, zero)
        assert np.array_equal(v, zero)

    def test_scalar_trace_oracle_seed41(self):
        param = np.array([[ADAM_PARAM0]])
        m = np.zeros((1, 1))
        v = np.zeros((1, 1))
        for step, (grad, want) in enumerate(zip(ADAM_GRADS,
                                                ADAM_TRACE_EXPECTED), 1):
            param, m, v = optim.adam_update(param, np.array([[grad]]), m, v,
                                            step, 0.1, 0.9, 0.999, 1e-8)
            assert param[0, 0] == pytest.approx(want, rel=1e-15)

    def test_decoupled_weight_decay(self, rng):
        param = rng.standard_normal((2, 2))
        grad = rng.standard_normal((2, 2))
        zero = np.zeros_like(param)
        plain, _, _ = optim.adam_update(param, grad, zero, zero, 1, 0.1, 0.9,
                                        0.999, 1e-8)
        decayed, _, _ = optim.adam_update(param, grad, zero, zero, 1, 0.1, 0.9,
                                          0.999, 1e-8, weight_decay=0.01,
                                          decoupled=True)
        # shrink first, then the same adaptive delta
        assert rel_err(decayed, plain - 0.1 * 0.01 * param) < 1e-12


class TestHorizontalCheck:
    def test_reflora_direction_is_horizontal(self, rng):
        for _ in range(20):
            f = random_factors(rng, 7, 6, 3)
            grad = rng.standard_normal((7, 6))
            s = refactor.geometric_mean_s(f)
            update = (-0.01 * grad @ f.b @ np.linalg.inv(s),
                      -0.01 * grad.T @ f.a @ s)
            assert optim.horizontal_check(f, update) <= 1e-8

    def test_vertical_direction_scores_its_norm(self, rng):
        f = random_factors(rng, 6, 5, 2)
        x = rng.standard_normal((2, 2))
        update = (f.a @ x, -f.b @ x.T)
        s = refactor.geometric_mean_s(f)
        g_norm = np.sqrt(np.sum((update[0] @ s) * update[0])
                         + np.sum((update[1] @ np.linalg.inv(s)) * update[1]))
        got = optim.horizontal_check(f, update)
        assert got > 0
        assert got <= g_norm + 1e-9

    def test_zero_update(self, rng):
        f = random_factors(rng, 5, 4, 2)
        assert optim.horizontal_check(f, (np.zeros((5, 2)),
                                          np.zeros((4, 2)))) == 0.0


class TestTheorem2Sandwich:
    def test_first_order_term_bracketed(self, rng):
        eta = 1e-3
        for _ in range(100):
            f = random_factors(rng, 8, 6, 3)
            grad = rng.standard_normal((8, 6))
            spec2 = linalg.spectral_norm(grad) ** 2
            for s in (np.eye(3), refactor.geometric_mean_s(f)):
                sh = linalg.spd_sqrt(s)
                sih = linalg.spd_inv_sqrt(s)
                first_order = -eta * (np.sum((grad @ f.b @ sih) ** 2)
                                      + np.sum((grad.T @ f.a @ sh) ** 2))
                assert first_order <= 1e-12
                assert first_order >= -eta * spec2 * refactor.g_objective(f, s) - 1e-12

    def test_first_order_equals_step_inner_product(self, rng):
        # <grad_A, dA> + <grad_B, dB> on the refactored pair
        eta = 1e-3
        f = random_factors(rng, 6, 5, 2)
        grad = rng.standard_normal((6, 5))
        s = refactor.geometric_mean_s(f)
        p = linalg.spd_sqrt(s)
        a_t, b_t = f.a @ p, f.b @ linalg.spd_inv_sqrt(s)
        ga_t, gb_t = grad @ b_t, grad.T @ a_t
        inner = -eta * (np.sum(ga_t * ga_t) + np.sum(gb_t * gb_t))
        sih = linalg.spd_inv_sqrt(s)
        direct = -eta * (np.sum((grad @ f.b @ sih) ** 2)
                         + np.sum((grad.T @ f.a @ p) ** 2))
        assert inner == pytest.approx(direct, rel=1e-10)


class TestBalancePropagation:
    def test_refactored_pair_stays_balanced(self):
        from reflora import problems
        problem, _ = problems.make_mf(16, 12, 3, seed=77)
        f = problems.init_factors(16, 12, 3, seed=77)
        cfg = StepConfig(eta=0.01, method=optim.METHOD_REFLORA)
        state = None
        for t in range(30):
            gp = problem.value_and_grad(f)[1]
            f, state = optim.reflora_step(f, gp, cfg, state, t=t)
            if t >= 1:
                s = refactor.geometric_mean_s(f)
                a_t = f.a @ linalg.spd_sqrt(s)
                b_t = f.b @ linalg.spd_inv_sqrt(s)
                ga = a_t.T @ a_t
                gap = np.linalg.norm(ga - b_t.T @ b_t) / np.linalg.norm(ga)
                assert gap <= 1e-7


class TestOrthogonalInvariance:
    def test_lora_gd_delta_w(self, rng):
        for _ in range(50):
            f = random_factors(rng, 7, 5, 3)
            grad = rng.standard_normal((7, 5))
            q = random_orthogonal(rng, 3)
            f_rot = LowRankFactors(f.a @ q, f.b @ q)
            dw = optim.delta_w(f, gd_step(
                f, pair_from_dense(f, grad), 0.05))
            dw_rot = optim.delta_w(f_rot, gd_step(
                f_rot, pair_from_dense(f_rot, grad), 0.05))
            assert rel_err(dw_rot, dw) <= 1e-9


class TestEq4Decomposition:
    def test_refactored_delta_w_splits(self, rng):
        eta = 0.02
        cfg = StepConfig(eta=eta, method=optim.METHOD_REFLORA)
        for _ in range(50):
            f = random_factors(rng, 6, 5, 2)
            grad = rng.standard_normal((6, 5))
            gp = pair_from_dense(f, grad)
            s = refactor.geometric_mean_s(f)
            f_new, _ = optim.reflora_step(f, gp, cfg)
            da, db = -eta * gp.g_a, -eta * gp.g_b
            expect = f.a @ s @ db.T + da @ np.linalg.inv(s) @ f.b.T + da @ db.T
            assert rel_err(optim.delta_w(f, f_new), expect) <= 1e-9


class TestLapackCalls:
    def test_balanced_step_decomposes_only_r_by_r(self, monkeypatch):
        # one balanced GD step at 128 x 100, r = 8: every decomposition sees
        # an r x r input (or a stack of them), with at most one SVD/eigh
        calls = []
        for name in ("svd", "eigh", "eigvalsh", "cholesky", "qr"):
            real = getattr(np.linalg, name)

            def counted(x, *args, _name=name, _real=real, **kwargs):
                calls.append((_name, np.shape(x)))
                return _real(x, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        g = gen(43)
        f = random_factors(g, 128, 100, 8)
        gp = pair_from_dense(f, g.standard_normal((128, 100)))
        optim.reflora_step(f, gp, StepConfig(eta=0.01, method=optim.METHOD_REFLORA))
        assert calls
        assert all(shape[-2:] == (8, 8) for _, shape in calls), calls
        assert sum(name in ("svd", "eigh") for name, _ in calls) <= 1


class TestStepConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepConfig(eta=-0.1)
        with pytest.raises(ValueError):
            StepConfig(eta=0.1, method="sgd")
        with pytest.raises(ValueError):
            StepConfig(eta=0.1, optimizer="rmsprop")

    def test_state_nonnegative_second_moments(self, rng):
        f = random_factors(rng, 4, 3, 2)
        gp = pair_from_dense(f, rng.standard_normal((4, 3)))
        cfg = StepConfig(eta=0.01, method=optim.METHOD_REFLORA,
                         optimizer=optim.ADAM)
        state = OptimizerState.zeros(4, 3, 2)
        for t in range(5):
            f, state = optim.reflora_step(f, gp, cfg, state, t=t)
        assert np.all(state.v_a >= 0)
        assert np.all(state.v_b >= 0)
        assert state.step == 5
