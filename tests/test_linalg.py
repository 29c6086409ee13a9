import numpy as np
import pytest

from reflora import linalg
from reflora.errors import IllConditioned

from conftest import gen, random_spd, rel_err

# Frozen oracle values. The inputs are drawn from the documented Philox
# test streams; the expected roots were computed with an independent
# Schur-based matrix square root in a separate scripting session.

SQRT_INPUT = np.array(
    [[5.185532496383218, 4.488998795852927],
     [4.488998795852927, 5.814467503616781]])
SQRT_EXPECTED = np.array(
    [[2.005587045870914, 1.0784957569772824],
     [1.0784957569772824, 2.156690614297466]])

INV_SQRT_INPUT = np.array(
    [[7.616239958564809, -0.19640109558261423, -0.3027993396238505],
     [-0.19640109558261423, 5.359024494410388, 2.168029457378643],
     [-0.3027993396238505, 2.168029457378643, 5.202728026530421]])
INV_SQRT_EXPECTED = np.array(
    [[0.36267862247901955, 0.0035524466709264, 0.00858270591040022],
     [0.0035524466709264, 0.4630761821911417, -0.10008975724813933],
     [0.00858270591040022, -0.10008975724813933, 0.4705731512989138]])


class TestSpdSqrt:
    def test_identity(self):
        assert rel_err(linalg.spd_sqrt(np.eye(2)), np.eye(2)) == 0.0

    def test_diagonal(self):
        got = linalg.spd_sqrt(np.diag([4.0, 9.0]))
        assert rel_err(got, np.diag([2.0, 3.0])) < 1e-15

    def test_oracle_seed7(self):
        got = linalg.spd_sqrt(SQRT_INPUT)
        assert rel_err(got, SQRT_EXPECTED) < 1e-12
        assert rel_err(got @ got, SQRT_INPUT) <= 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="spd_sqrt input is not symmetric"):
            linalg.spd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError,
                           match=r"spd_sqrt input is not square: shape \(2, 3\)"):
            linalg.spd_sqrt(np.ones((2, 3)))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError,
                           match="spd_sqrt input is not positive definite"):
            linalg.spd_sqrt(np.diag([1.0, -1.0]))

    def test_composition_many_dims(self):
        # 1000 random SPD matrices, dims 1..16
        g = gen(100)
        for _ in range(1000):
            m = random_spd(g, int(g.integers(1, 17)))
            root = linalg.spd_sqrt(m)
            assert rel_err(root @ root, m) <= 1e-10


class TestSpdInvSqrt:
    def test_diagonal(self):
        got = linalg.spd_inv_sqrt(np.diag([4.0, 9.0]))
        assert rel_err(got, np.diag([0.5, 1.0 / 3.0])) < 1e-15

    def test_identity(self):
        assert rel_err(linalg.spd_inv_sqrt(np.eye(3)), np.eye(3)) == 0.0

    def test_oracle_seed11(self):
        got = linalg.spd_inv_sqrt(INV_SQRT_INPUT)
        assert rel_err(got, INV_SQRT_EXPECTED) < 1e-12
        assert np.linalg.norm(got @ INV_SQRT_INPUT @ got - np.eye(3)) <= 1e-10

    def test_matches_inverse_of_sqrt(self):
        g = gen(101)
        for _ in range(200):
            m = random_spd(g, int(g.integers(1, 17)))
            lhs = linalg.spd_inv_sqrt(m)
            rhs = np.linalg.inv(linalg.spd_sqrt(m))
            assert rel_err(lhs, rhs) <= 1e-9

    def test_ill_conditioned_raises(self):
        with pytest.raises(IllConditioned):
            linalg.spd_inv_sqrt(np.diag([1.0, 1e-16]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError,
                           match="spd_inv_sqrt input is not positive definite"):
            linalg.spd_inv_sqrt(np.diag([1.0, 0.0]))


class TestNonsymPsdSqrt:
    def test_identity_pair(self):
        got = linalg.nonsym_psd_sqrt(np.eye(2), np.eye(2))
        assert rel_err(got, np.eye(2)) < 1e-15

    def test_commuting_diagonal(self):
        got = linalg.nonsym_psd_sqrt(np.diag([4.0, 1.0]), np.diag([1.0, 4.0]))
        assert rel_err(got, np.diag([2.0, 2.0])) < 1e-14

    def test_residual_seed3(self):
        g = gen(3)
        x = random_spd(g, 4)
        y = random_spd(g, 4)
        root = linalg.nonsym_psd_sqrt(x, y)
        assert rel_err(root @ root, x @ y) <= 1e-9

    def test_product_identity(self):
        # X^{-1/2}(X^{1/2} Y X^{1/2})^{1/2} X^{-1/2} == X^{-1}(XY)^{1/2}
        g = gen(102)
        for _ in range(100):
            dim = int(g.integers(1, 9))
            x = random_spd(g, dim)
            y = random_spd(g, dim)
            xh = linalg.spd_sqrt(x)
            xih = linalg.spd_inv_sqrt(x)
            lhs = xih @ linalg.spd_sqrt(linalg.sym(xh @ y @ xh)) @ xih
            rhs = np.linalg.solve(x, linalg.nonsym_psd_sqrt(x, y))
            assert rel_err(rhs, lhs) <= 1e-9

    def test_rejects_non_spd_factor(self):
        with pytest.raises(ValueError, match="nonsym_psd_sqrt first factor "
                           "is not positive definite"):
            linalg.nonsym_psd_sqrt(np.diag([1.0, -2.0]), np.eye(2))


class TestNuclearNorm:
    def test_zero(self):
        assert linalg.nuclear_norm(np.zeros((3, 2))) == 0.0

    def test_diagonal_abs(self):
        assert linalg.nuclear_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0)

    def test_rank_one(self):
        a = np.array([0.0, 2.0, 0.0])
        b = np.array([3.0, 0.0, 4.0, 0.0])
        m = np.outer(a, b)  # singular value 2 * 5
        assert linalg.nuclear_norm(m) == pytest.approx(10.0)

    def test_norm_ordering(self):
        g = gen(103)
        for _ in range(200):
            m = g.standard_normal((int(g.integers(1, 10)),
                                   int(g.integers(1, 10))))
            nuc = linalg.nuclear_norm(m)
            fro = np.linalg.norm(m)
            spec = linalg.spectral_norm(m)
            assert nuc >= fro - 1e-12
            assert fro >= spec - 1e-12

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            linalg.nuclear_norm(np.array([[np.nan, 0.0]]))
