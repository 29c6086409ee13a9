import dataclasses
import decimal
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from reflora import problems
from reflora.rng import STREAM_INSTANCE, stream as rng_stream
from reflora.refactor import LowRankFactors

from conftest import gen, rel_err


def fd_grad_pair(problem, f, h=1e-6):
    """Central finite differences of the factor loss, entry by entry."""
    def loss_of(a, b):
        return problem.loss_at_factors(LowRankFactors(a, b))

    g_a = np.zeros_like(f.a)
    for i in range(f.a.shape[0]):
        for j in range(f.a.shape[1]):
            up, down = f.a.copy(), f.a.copy()
            up[i, j] += h
            down[i, j] -= h
            g_a[i, j] = (loss_of(up, f.b) - loss_of(down, f.b)) / (2 * h)
    g_b = np.zeros_like(f.b)
    for i in range(f.b.shape[0]):
        for j in range(f.b.shape[1]):
            up, down = f.b.copy(), f.b.copy()
            up[i, j] += h
            down[i, j] -= h
            g_b[i, j] = (loss_of(f.a, up) - loss_of(f.a, down)) / (2 * h)
    return g_a, g_b


def mf_instance(y):
    """The MF instance of a dense target, factored by one thin SVD."""
    u, sigma, vt = np.linalg.svd(y, full_matrices=False)
    return problems.MfInstance(u, sigma, vt.T)


def draw_bidiagonal(stream, p, q):
    """The chi draws of the bidiagonal model, as `make_mf` takes them."""
    d = np.sqrt(stream.chisquare(np.arange(p, p - q, -1, dtype=float)))
    e = np.sqrt(stream.chisquare(np.arange(q - 1, 0, -1, dtype=float)))
    return d, e


# relative error bound per sigma against `bidiagonal_sigma_ref`, about 2x
# the worst over 2885 instances (3 x 3 to 1024 x 1024, r = 3 to r = q = 40):
# 1.84e-15, at 128 x 100 with r = 8
SIGMA_REL_TOL = 4e-15


def bidiagonal_sigma_ref(d, e, r):
    """The top r singular values of the upper bidiagonal B with diagonal d
    and superdiagonal e, descending, as Decimals.

    Sturm bisection in 60-digit arithmetic on the tridiagonal T = B^T B,
    formed from the float entries, until each eigenvalue of T is bracketed
    to 1e-20 relative. The negative pivots of the LDL^T recurrence of
    T - x I count the eigenvalues below x (Sylvester's law of inertia).
    """
    q = len(d)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d2 = [Decimal(float(x)) ** 2 for x in d]
        e2 = [Decimal(float(x)) ** 2 for x in e]
        diag = [d2[0]] + [d2[i] + e2[i - 1] for i in range(1, q)]
        off2 = [d2[i] * e2[i] for i in range(q - 1)]
        tiny = Decimal("1e-200")

        def below(x):
            pivot = diag[0] - x
            count = int(pivot < 0)
            for a, b2 in zip(diag[1:], off2):
                pivot = a - x - b2 / (pivot or tiny)
                count += pivot < 0
            return count

        # Gershgorin: every eigenvalue of T is below `top`
        top = max(diag) + 2 * max(off2, default=Decimal(0)).sqrt()
        sigma = []
        for j in range(q - 1, q - 1 - r, -1):
            lo, hi = Decimal(0), top
            while hi - lo > Decimal("1e-20") * hi:
                mid = (lo + hi) / 2
                if below(mid) <= j:
                    lo = mid
                else:
                    hi = mid
            sigma.append(((lo + hi) / 2).sqrt())
    return sigma


def spy_linalg(monkeypatch):
    """Record every np.linalg svd, eigh and eigvalsh call as (name, order,
    compute_uv); compute_uv is None for the eigensolvers."""
    calls = []
    for name in ("svd", "eigh", "eigvalsh"):
        def spy(a, *args, _name=name, _real=getattr(np.linalg, name),
                **kwargs):
            uv = kwargs.get("compute_uv", True) if _name == "svd" else None
            calls.append((_name, a.shape[-1], uv))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def sigma_rel_err(sigma, m, n, seed):
    """Largest relative error of the sigma `make_mf(m, n, len(sigma), seed)`
    returned, against the reference."""
    d, e = draw_bidiagonal(rng_stream(seed, STREAM_INSTANCE),
                           max(m, n), min(m, n))
    ref = bidiagonal_sigma_ref(d, e, len(sigma))
    return max(float(abs(Decimal(float(s)) - t) / t)
               for s, t in zip(sigma, ref))


class TestMakeMf:
    def test_exact_fit_has_zero_loss(self):
        problem, inst = problems.make_mf(10, 8, 3, seed=5)
        u, s, vt = np.linalg.svd(inst.y, full_matrices=False)
        f = LowRankFactors(u[:, :3] * s[:3], vt[:3].T)
        assert problem.loss_at_factors(f) <= 1e-20 * np.sum(inst.y ** 2)
        w = problem.full_weight(f)
        assert np.linalg.norm(problem.grad(w)) <= 1e-10

    def test_zero_factor_loss(self):
        problem, inst = problems.make_mf(10, 8, 3, seed=5)
        f = LowRankFactors(np.zeros((10, 3)), np.zeros((8, 3)))
        assert problem.loss_at_factors(f) == pytest.approx(
            0.5 * np.sum(inst.y ** 2))

    def test_default_instance(self):
        problem, inst = problems.make_mf(128, 100, 8, seed=0)
        assert np.linalg.matrix_rank(inst.y) == 8
        f = problems.init_factors(128, 100, 8, seed=0)
        assert np.linalg.norm(f.b) == 0.0
        assert problem.loss_at_factors(f) == pytest.approx(
            0.5 * np.sum(inst.y ** 2))
        assert problem.lipschitz == 1.0

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            problems.make_mf(4, 3, 5, seed=0)


class TestMakeLinreg:
    def test_normal_equations_zero_gradient(self):
        problem, inst = problems.make_linreg(3, 4, 6, seed=2)
        w_star = inst.y @ np.linalg.pinv(inst.x)
        assert np.linalg.norm(problem.grad(w_star)) <= 1e-9

    def test_identity_design_reduces_to_mf(self, rng):
        problem = problems.LinearRegressionProblem(
            problems.LinRegInstance(np.eye(3), np.zeros((4, 3))))
        f = LowRankFactors(rng.standard_normal((4, 2)),
                           rng.standard_normal((3, 2)))
        assert problem.loss_at_factors(f) == pytest.approx(
            0.5 * np.sum(f.product() ** 2))

    def test_lipschitz_is_top_eigenvalue(self):
        # power-iteration oracle on X X^T, for n = k and for n > k (where
        # the constant comes from the smaller X^T X)
        for n, k in ((2, 2), (9, 3)):
            problem, inst = problems.make_linreg(2, n, k, seed=3)
            xxt = inst.x @ inst.x.T
            v = np.ones(n)
            for _ in range(500):
                v = xxt @ v
                v /= np.linalg.norm(v)
            lam = float(v @ xxt @ v)
            assert problem.lipschitz == pytest.approx(lam, rel=1e-10)

    def test_lipschitz_bound_on_gradient_differences(self, rng):
        problem, _ = problems.make_linreg(4, 5, 7, seed=4)
        for _ in range(50):
            w1 = rng.standard_normal((4, 5))
            w2 = rng.standard_normal((4, 5))
            lhs = np.linalg.norm(problem.grad(w1) - problem.grad(w2))
            rhs = problem.lipschitz * np.linalg.norm(w1 - w2)
            assert lhs <= rhs * (1 + 1e-12)


class TestGradPair:
    def test_zero_b_structured(self, rng):
        problem, inst = problems.make_mf(9, 7, 2, seed=6)
        f = LowRankFactors(rng.standard_normal((9, 2)), np.zeros((7, 2)))
        gp = problem.value_and_grad(f)[1]
        assert np.linalg.norm(gp.g_a) == 0.0
        assert rel_err(gp.g_b, -inst.y.T @ f.a) < 1e-14

    def test_zero_gradient(self):
        problem, inst = problems.make_mf(8, 6, 2, seed=7)
        u, s, vt = np.linalg.svd(inst.y, full_matrices=False)
        f = LowRankFactors(u[:, :2] * s[:2], vt[:2].T)
        gp = problem.value_and_grad(f)[1]
        assert np.linalg.norm(gp.g_a) <= 1e-10
        assert np.linalg.norm(gp.g_b) <= 1e-10

    def test_matches_dense_path(self, rng):
        problem, _ = problems.make_mf(12, 9, 3, seed=8)
        f = LowRankFactors(rng.standard_normal((12, 3)),
                           rng.standard_normal((9, 3)))
        gp = problem.value_and_grad(f)[1]
        g = problem.grad(problem.full_weight(f))
        assert rel_err(gp.g_a, g @ f.b) < 1e-12
        assert rel_err(gp.g_b, g.T @ f.a) < 1e-12

    def test_finite_differences_seed43(self):
        g = gen(43)
        problem, _ = problems.make_mf(6, 5, 2, seed=43)
        f = LowRankFactors(g.standard_normal((6, 2)),
                           g.standard_normal((5, 2)))
        gp = problem.value_and_grad(f)[1]
        fd_a, fd_b = fd_grad_pair(problem, f)
        assert np.max(np.abs(gp.g_a - fd_a) / np.maximum(1.0, np.abs(fd_a))) <= 1e-5
        assert np.max(np.abs(gp.g_b - fd_b) / np.maximum(1.0, np.abs(fd_b))) <= 1e-5

    def test_adapter_scale_chain_rule(self):
        g = gen(44)
        problem, _ = problems.make_mf(5, 4, 2, seed=44)
        f = LowRankFactors(g.standard_normal((5, 2)),
                           g.standard_normal((4, 2)))
        scale = 0.25
        gp = problem.value_and_grad(f, scale)[1]
        h = 1e-6
        up, down = f.a.copy(), f.a.copy()
        up[0, 0] += h
        down[0, 0] -= h
        fd = (problem.loss_at_factors(LowRankFactors(up, f.b), scale)
              - problem.loss_at_factors(LowRankFactors(down, f.b), scale)) / (2 * h)
        assert gp.g_a[0, 0] == pytest.approx(fd, rel=1e-5)


class TestQuadraticBound:
    def test_bound_holds_for_random_probes(self, rng):
        for maker in (lambda: problems.make_mf(8, 6, 2, seed=9),
                      lambda: problems.make_linreg(5, 4, 6, seed=9)):
            problem, _ = maker()
            for _ in range(30):
                w = rng.standard_normal((problem.m, problem.n))
                dw = rng.standard_normal((problem.m, problem.n))
                lhs = problem.loss(w + dw)
                rhs = (problem.loss(w) + np.sum(problem.grad(w) * dw)
                       + 0.5 * problem.lipschitz * np.sum(dw * dw))
                assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))

    def test_equality_in_top_direction(self, rng):
        problem, inst = problems.make_linreg(4, 3, 5, seed=10)
        w = rng.standard_normal((4, 3))
        lam, vecs = np.linalg.eigh(inst.x @ inst.x.T)
        dw = np.outer(rng.standard_normal(4), vecs[:, -1])
        lhs = problem.loss(w + dw)
        rhs = (problem.loss(w) + np.sum(problem.grad(w) * dw)
               + 0.5 * problem.lipschitz * np.sum(dw * dw))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestDeterminism:
    def test_same_seed_same_instance(self):
        _, a = problems.make_mf(16, 12, 4, seed=11)
        _, b = problems.make_mf(16, 12, 4, seed=11)
        assert np.array_equal(a.y, b.y)
        _, c = problems.make_linreg(3, 4, 5, seed=11)
        _, d = problems.make_linreg(3, 4, 5, seed=11)
        assert np.array_equal(c.x, d.x)
        assert np.array_equal(c.y, d.y)

    def test_instance_and_init_streams_differ(self):
        _, inst = problems.make_mf(6, 6, 2, seed=12)
        f = problems.init_factors(6, 6, 2, seed=12, sigma_a=1.0, sigma_b=1.0)
        assert not np.allclose(inst.y[:, :2], f.a)


def dense_value_and_grad(problem, f, scale):
    """Oracle: the dense loss and gradient at the full weight."""
    w = problem.full_weight(f, scale)
    g = problem.grad(w)
    return problem.loss(w), scale * (g @ f.b), scale * (g.T @ f.a)


def exact_fit(inst, r):
    u, s, vt = np.linalg.svd(inst.y, full_matrices=False)
    return LowRankFactors(u[:, :r] * s[:r], vt[:r].T)


class TestValueAndGrad:
    @staticmethod
    def cases():
        g = gen(45)
        mf, _ = problems.make_mf(14, 11, 3, seed=45)
        wide = problems.MatrixFactorizationProblem(
            mf_instance(g.standard_normal((7, 12))))
        tall = problems.MatrixFactorizationProblem(
            mf_instance(g.standard_normal((12, 7))))
        x, y = g.standard_normal((6, 9)), g.standard_normal((5, 9))
        linreg = problems.LinearRegressionProblem(problems.LinRegInstance(x, y))
        for problem, r in ((mf, 3), (wide, 2), (tall, 4), (linreg, 2)):
            for scale in (1.0, 0.3):
                f = LowRankFactors(g.standard_normal((problem.m, r)),
                                   g.standard_normal((problem.n, r)))
                yield problem, f, scale
                yield problem, LowRankFactors(f.a, np.zeros_like(f.b)), scale

    def test_matches_dense_oracle(self):
        for problem, f, scale in self.cases():
            loss, gp = problem.value_and_grad(f, scale)
            loss_ref, g_a, g_b = dense_value_and_grad(problem, f, scale)
            # relative to the oracle, so a zero oracle gradient (B = 0 gives
            # g_a = 0) must come out exactly zero
            assert abs(loss - loss_ref) <= 1e-12 * loss_ref
            assert np.linalg.norm(gp.g_a - g_a) <= 1e-12 * np.linalg.norm(g_a)
            assert np.linalg.norm(gp.g_b - g_b) <= 1e-12 * np.linalg.norm(g_b)

    def test_views_are_the_fused_call(self):
        for problem, f, scale in self.cases():
            loss, gp = problem.value_and_grad(f, scale)
            assert problem.loss_at_factors(f, scale) == loss

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_exact_fit(self, scale):
        problem, inst = problems.make_mf(10, 8, 3, seed=5)
        f = exact_fit(inst, 3)
        f = LowRankFactors(f.a, f.b / scale)
        loss, gp = problem.value_and_grad(f, scale)
        _, g_a, g_b = dense_value_and_grad(problem, f, scale)
        y2 = float(np.sum(inst.y ** 2))
        assert 0.0 <= loss <= 1e-20 * y2
        tol = 1e-12 * np.sqrt(y2)
        assert np.linalg.norm(gp.g_a - g_a) <= tol * np.linalg.norm(f.b)
        assert np.linalg.norm(gp.g_b - g_b) <= tol * np.linalg.norm(f.a)

    def test_loss_never_negative(self):
        # exact and near-exact fits under random changes of basis, where
        # every term of the projection form is at roundoff level
        g = gen(46)
        for seed in range(200):
            problem, inst = problems.make_mf(10, 8, 3, seed=seed)
            f = exact_fit(inst, 3)
            p = g.standard_normal((3, 3))
            for eps in (0.0, 1e-14, 1e-9):
                a = f.a @ p + eps * g.standard_normal(f.a.shape)
                b = f.b @ np.linalg.inv(p).T
                assert problem.loss_at_factors(LowRankFactors(a, b)) >= 0.0

    def test_make_mf_factored_construction(self):
        # Y = U_r diag(sigma) V_r^T: sigma from the bidiagonal model drawn
        # from the instance stream (at min(m, n) = 9 the first block is at
        # least q/2, so sigma is the SVD of all of B), then U_r and V_r as
        # sign-fixed QR frames of the next draws from the same stream
        for m, n in ((13, 9), (9, 13)):
            _, inst = problems.make_mf(m, n, 4, seed=47)
            stream = rng_stream(47, STREAM_INSTANCE)
            d, e = draw_bidiagonal(stream, max(m, n), min(m, n))
            sigma = np.linalg.svd(np.diag(d) + np.diag(e, 1),
                                  compute_uv=False)[:4]
            frames = []
            for dim in (m, n):
                q, r = np.linalg.qr(stream.standard_normal((dim, 4)))
                frames.append(q * np.sign(np.diag(r)))
            u, v = frames
            assert np.array_equal(inst.sigma, sigma)
            assert np.array_equal(inst.u, u)
            assert np.array_equal(inst.v, v)
            assert np.array_equal(inst.y, (u * sigma) @ v.T)
            eye = np.eye(4)
            assert np.max(np.abs(inst.u.T @ inst.u - eye)) <= 1e-14
            assert np.max(np.abs(inst.v.T @ inst.v - eye)) <= 1e-14

    def test_make_mf_computes_no_singular_vectors(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("make_mf called np.linalg.svd")

        monkeypatch.setattr(np.linalg, "svd", forbidden)
        # no m x n array: at 2048^2 one would be 32 MiB
        tracemalloc.start()
        try:
            problem, inst = problems.make_mf(2048, 2048, 8, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20
        _, inst = problems.make_mf(1024, 1024, 8, seed=3)
        assert inst.y.shape == (1024, 1024)
        assert inst.u.shape == (1024, 8) and inst.v.shape == (1024, 8)
        assert np.all(np.diff(inst.sigma) <= 0.0)

    def test_module_alias_removed(self):
        assert not hasattr(problems, "grad_pair")
        assert not hasattr(problems.Problem, "grad_pair")

    def test_instances_are_just_the_data(self):
        fields = [f.name for f in dataclasses.fields(problems.MfInstance)]
        assert fields == ["u", "sigma", "v"]
        fields = [f.name for f in dataclasses.fields(problems.LinRegInstance)]
        assert fields == ["x", "y"]

    def test_problem_holds_its_instance(self):
        for problem, inst in (problems.make_mf(9, 7, 2, seed=48),
                              problems.make_linreg(4, 3, 5, seed=48)):
            assert problem.inst is inst


def random_tridiagonal(g, k):
    """Diagonal and nonzero off-diagonal of a random symmetric tridiagonal
    of order k, with entries from 1e-3 to 1e3 in scale."""
    a = g.standard_normal(k) * 10.0 ** g.uniform(-3, 3)
    b = g.standard_normal(k - 1) * 10.0 ** g.uniform(-3, 3)
    return a, np.where(b == 0.0, 1.0, b)


def gershgorin(a, b):
    radius = np.zeros(len(a))
    radius[:-1] += np.abs(b)
    radius[1:] += np.abs(b)
    return np.min(a - radius), np.max(a + radius)


@pytest.mark.filterwarnings("error")  # no RuntimeWarning from +-inf pivots
class TestSturmCount:
    """`problems._count_below`: the eigenvalue count behind the bisection."""

    def test_matches_eigvalsh(self):
        g = gen(7)
        exercised = 0
        for _ in range(200):
            k = int(g.integers(1, 41))
            a, b = random_tridiagonal(g, k)
            lam = np.linalg.eigvalsh(np.diag(a) + np.diag(b, 1)
                                     + np.diag(b, -1))
            low, high = gershgorin(a, b)
            shifts = np.concatenate([
                g.uniform(low, high, 20),
                a,  # a[0] makes the first pivot exactly zero
                [0.0, low, high],
                lam, np.nextafter(lam, -np.inf), np.nextafter(lam, np.inf)])
            count = problems._count_below(a, b * b, shifts)
            # the count is exact for a matrix within a few ulps of T, and
            # eigvalsh's values are as close, so only a shift within delta
            # of an eigenvalue may read either side of it
            delta = 8 * k * np.finfo(float).eps * max(-low, high)
            below = np.count_nonzero(lam < shifts[:, None] - delta, axis=1)
            upto = np.count_nonzero(lam < shifts[:, None] + delta, axis=1)
            assert np.all((below <= count) & (count <= upto))
            exercised += np.count_nonzero(below == upto)
            order = np.argsort(shifts, kind="stable")
            assert np.all(np.diff(count[order]) >= 0)  # monotone in s
        assert exercised >= 200 * 20  # most shifts are checked exactly

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 11, 17])
    def test_zero_pivots_at_exact_eigenvalues(self, k):
        # T = tridiag(1, 2, 1) has eigenvalues 2 - 2 cos(j pi / (k + 1)),
        # j = 1..k, so the integer shifts 1, 2, 3 hit some exactly (k = 5:
        # all three), and the pivots there are exactly +0 and then -inf;
        # lam_j < s exactly when cos(j pi / (k + 1)) > 1 - s / 2
        j = np.arange(1, k + 1)
        expected = [0, np.count_nonzero(3 * j < k + 1),
                    np.count_nonzero(2 * j < k + 1),
                    np.count_nonzero(3 * j < 2 * (k + 1)), k]
        count = problems._count_below(np.full(k, 2.0), np.ones(k - 1),
                                      np.arange(5.0))
        assert count.tolist() == expected

    def test_top_eigenvalues_match_eigvalsh(self):
        g = gen(8)
        for _ in range(100):
            k = int(g.integers(1, 41))
            r = int(g.integers(1, k + 1))
            a, b = random_tridiagonal(g, k)
            lam = np.linalg.eigvalsh(np.diag(a) + np.diag(b, 1)
                                     + np.diag(b, -1))[::-1][:r]
            low, high = gershgorin(a, b)
            top = problems._tridiagonal_top(a, b, r)
            assert np.all(np.diff(top) <= 0.0)
            assert np.max(np.abs(top - lam)) <= (
                8 * k * np.finfo(float).eps * max(-low, high))


class TestTopSingularValues:
    """`make_mf`'s sigma: the law of a Gaussian matrix's top singular
    values, from a truncated bidiagonal model."""

    @pytest.mark.parametrize("m,n", [(60, 40), (40, 60)])
    def test_law_matches_dense_gaussian(self, m, n):
        # mean and standard deviation of the top 3 over 400 draws each;
        # the largest |z| on these seeds is 2.31 (the sd of the second value)
        draws = 400
        ours = np.array([problems.make_mf(m, n, 3, seed)[1].sigma
                         for seed in range(draws)])
        g = gen(48)
        dense = np.array([np.linalg.svd(g.standard_normal((m, n)),
                                        compute_uv=False)[:3]
                          for _ in range(draws)])
        sd_a, sd_b = ours.std(0, ddof=1), dense.std(0, ddof=1)
        z_mean = (ours.mean(0) - dense.mean(0)) / np.sqrt(
            (sd_a ** 2 + sd_b ** 2) / draws)
        z_sd = (sd_a - sd_b) / np.sqrt((sd_a ** 2 + sd_b ** 2)
                                       / (2 * (draws - 1)))
        assert np.all(np.abs(z_mean) <= 4.0)
        assert np.all(np.abs(z_sd) <= 4.0)

    @pytest.mark.parametrize("p,q", [(1024, 1024), (2048, 512)])
    def test_truncation_matches_full_bidiagonal(self, monkeypatch, p, q):
        # the reference is the same bisection on all of T = B^T B (k = q)
        blocks = []
        top = problems._tridiagonal_top

        def spy(a, b, r):
            blocks.append(len(a))
            return top(a, b, r)

        monkeypatch.setattr(problems, "_tridiagonal_top", spy)
        for seed in range(3):
            sigma = problems._top_singular_values(
                rng_stream(seed, STREAM_INSTANCE), p, q, 8)
            d, e = draw_bidiagonal(rng_stream(seed, STREAM_INSTANCE), p, q)
            a = d * d
            a[1:] += e * e
            s = np.sqrt(top(a, d[:-1] * e, 8))
            assert np.max(np.abs(sigma - s) / s) <= 1e-13
        # the leading block sufficed: T itself was never solved
        assert blocks and max(blocks) < q

    def test_tail_bound_covers_the_last_component(self):
        # blocks whose top eigenvectors still reach the last row, so that
        # eigh's last components (1e-12 to 5e-2) are far above its error;
        # the coupling entry is set so the certificate's verdict turns on
        # bound >= |x_{k-1}| (sound) and bound <= 20 |x_{k-1}| (useful)
        eps = np.finfo(float).eps
        for seed in range(3):
            d, e = draw_bidiagonal(rng_stream(seed, STREAM_INSTANCE),
                                   1024, 1024)
            a = d * d
            a[1:] += e * e
            b = d[:-1] * e
            for k in (64, 96, 128):
                lam, x = np.linalg.eigh(np.diag(a[:k]) + np.diag(b[:k - 1], 1)
                                        + np.diag(b[:k - 1], -1))
                lam, last = lam[:-9:-1], np.max(np.abs(x[-1, :-9:-1]))
                for factor, verdict in ((1.01, False), (0.05, True)):
                    coupled = b.copy()
                    coupled[k - 1] = factor * eps * lam[0] / last
                    assert problems._tail_certified(
                        a, coupled, k, lam) is verdict

    @pytest.mark.parametrize("m,n", [(1, 1), (5, 1), (1, 5)])
    def test_one_singular_value(self, m, n):
        for seed in range(5):
            _, inst = problems.make_mf(m, n, 1, seed)
            d, _ = draw_bidiagonal(rng_stream(seed, STREAM_INSTANCE),
                                   max(m, n), 1)
            assert inst.sigma.shape == (1,)
            assert inst.sigma[0] == pytest.approx(d[0], rel=1e-15)

    @pytest.mark.parametrize("m,n", [(7, 5), (5, 7), (3, 3), (40, 40)])
    def test_all_singular_values(self, m, n):
        # r = q: sigma is the SVD of B, so even the smallest value has
        # full relative accuracy (Demmel & Kahan 1990); square roots of the
        # eigenvalues of B^T B miss this bound by up to 6 orders here
        q = min(m, n)
        for seed in range(20 if q < 40 else 3):
            _, inst = problems.make_mf(m, n, q, seed)
            assert inst.sigma.shape == (q,)
            assert np.all(np.diff(inst.sigma) <= 0.0)
            assert sigma_rel_err(inst.sigma, m, n, seed) <= SIGMA_REL_TOL

    def test_top_singular_values_of_a_desk_instance(self):
        # the benchmark's and the CLI's default shape, r << q
        for seed in range(3):
            _, inst = problems.make_mf(128, 100, 8, seed)
            assert sigma_rel_err(inst.sigma, 128, 100, seed) <= SIGMA_REL_TOL

    @pytest.mark.parametrize("r", [8, 32])
    def test_top_singular_values_of_a_truncated_instance(self, monkeypatch,
                                                         r):
        # q = 200 > max(128, 4r): sigma comes from a bisected leading block
        calls = spy_linalg(monkeypatch)
        for seed in range(3):
            _, inst = problems.make_mf(300, 200, r, seed)
            assert sigma_rel_err(inst.sigma, 300, 200, seed) <= SIGMA_REL_TOL
        assert calls == []

    @pytest.mark.parametrize("m,n,r", [(128, 100, 8), (40, 40, 40), (5, 1, 1)])
    def test_desk_scale_build_is_one_bidiagonal_svd(self, monkeypatch,
                                                     m, n, r):
        # with OpenBLAS 0.3.31 on two cores an svd without vectors stayed on
        # the calling thread up to order 192 to 255 in different runs (it
        # depends on the input and the build; only q <= 128 is relied on),
        # while eigh wakes the worker threads from order 26
        calls = spy_linalg(monkeypatch)
        problems.make_mf(m, n, r, seed=5)
        assert calls == [("svd", min(m, n), False)]

    @pytest.mark.parametrize("m,n,r", [(1024, 1024, 8), (2048, 512, 8),
                                       (300, 200, 8)])
    def test_large_build_makes_no_linalg_call(self, monkeypatch, m, n, r):
        # sigma by bisection: no LAPACK call, so no BLAS worker thread wakes
        calls = spy_linalg(monkeypatch)
        problems.make_mf(m, n, r, seed=5)
        assert calls == []
