import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoalg import numkernel
from evoalg.numkernel import (
    DEFAULT_TOL,
    DimensionMismatch,
    Singular,
    ToleranceContext,
    commutator_norm,
    complete_to_basis,
    eigen_structure,
    inverse,
    kernel_basis,
    rank,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])
MENDEL_N = np.array([[1.0, 2.0], [-2.0, -3.0]])  # defective, unique eigenvalue -1
TETRA_N = np.array([[4.0, 3.0, 0.0], [-9.0, -5.0, 3.0], [3.0, 0.0, -5.0]])  # defective at -2


class TestToleranceContext:
    def test_defaults(self):
        t = ToleranceContext()
        assert (t.rank_rtol, t.eig_cluster_atol, t.commute_rtol, t.verify_rtol) == (1e-10, 1e-8, 1e-8, 1e-8)

    @pytest.mark.parametrize("field", ["rank_rtol", "eig_cluster_atol", "commute_rtol", "verify_rtol"])
    @pytest.mark.parametrize("bad", [0.0, -1e-3, 1.0, 2.0])
    def test_rejects_out_of_range(self, field, bad):
        with pytest.raises(ValueError):
            ToleranceContext(**{field: bad})


class TestRank:
    def test_identity(self):
        assert rank(np.eye(2)) == 2

    def test_mendel_m2(self):
        # det = -1/4, so full rank
        assert rank(np.array([[0.0, 0.5], [0.5, 1.0]])) == 2

    def test_zero(self):
        assert rank(np.zeros((3, 3))) == 0

    def test_rank_plus_nullity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            r = int(rng.integers(0, n + 1))
            m = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
            assert rank(m) + kernel_basis(m).shape[1] == n


class TestInverse:
    def test_mendel_m1(self):
        m1 = np.array([[1.0, 0.5], [0.5, 0.0]])
        np.testing.assert_allclose(inverse(m1), [[0.0, 2.0], [2.0, -4.0]], atol=1e-12)

    def test_identity(self):
        np.testing.assert_allclose(inverse(np.eye(3)), np.eye(3))

    def test_tetraploid_m1(self, tetraploid0_mats):
        want = np.array([[0.0, 0.0, 6.0], [0.0, 6.0, -18.0], [6.0, -18.0, 18.0]])
        np.testing.assert_allclose(inverse(tetraploid0_mats[0]), want, atol=1e-10)

    def test_singular_raises(self):
        with pytest.raises(Singular):
            inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_residual_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            inv = inverse(m)
            res = np.linalg.norm(m @ inv - np.eye(n))
            assert res <= DEFAULT_TOL.verify_rtol * np.linalg.norm(m) * np.linalg.norm(inv)


class TestKernel:
    def test_identity_empty(self):
        assert kernel_basis(np.eye(2)).shape == (2, 0)

    def test_block_with_zero(self):
        m = np.diag([1.0, 1.0, 0.0])
        k = kernel_basis(m)
        assert k.shape == (3, 1)
        np.testing.assert_allclose(k[:, 0], [0.0, 0.0, 1.0], atol=1e-14)

    def test_symmetric_rank_one(self):
        k = kernel_basis(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert k.shape == (2, 1)
        np.testing.assert_allclose(k[:, 0], [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-14)

    def test_orthonormal(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((3, 5))
        k = kernel_basis(m)
        assert k.shape == (5, 2)
        np.testing.assert_allclose(k.conj().T @ k, np.eye(2), atol=1e-12)
        assert np.linalg.norm(m @ k) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_tall_matrix_matches_full_svd_bit_for_bit(self, dtype):
        # a tall matrix takes the thin SVD; its V^H must be the full one's
        def full_svd_kernel(a):
            _, s, vh = np.linalg.svd(a, full_matrices=True)
            r = int(np.count_nonzero(s > DEFAULT_TOL.rank_rtol * s[0] * max(a.shape)))
            return numkernel._phase_canonical(np.ascontiguousarray(vh[r:].conj().T))

        rng = np.random.default_rng(11)
        for rows, cols, r in [(4, 3, 3), (9, 3, 2), (16, 4, 4), (36, 6, 3), (49, 7, 1), (64, 8, 0)]:
            left = rng.standard_normal((rows, r)) + (1j * rng.standard_normal((rows, r)) if dtype is np.complex128 else 0)
            a = (left @ rng.standard_normal((r, cols))).astype(dtype)
            got = kernel_basis(a)
            assert got.dtype == dtype and got.shape == (cols, cols - r)
            np.testing.assert_array_equal(got, full_svd_kernel(a))


class TestEigenStructure:
    def test_mendel_defective(self):
        es = eigen_structure(MENDEL_N)
        assert len(es.clusters) == 1
        c = es.clusters[0]
        assert abs(c.eigenvalue - (-1.0)) < 1e-8
        assert c.multiplicity == 2
        assert c.eigenspace_dim == 1

    def test_eigenspaces_in_the_arithmetic_of_the_matrix(self):
        # a rotation block (eigenvalues +-i) next to a double real eigenvalue
        m = np.zeros((4, 4))
        m[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
        m[2:, 2:] = 2.0 * np.eye(2)
        minus_i, plus_i, two = eigen_structure(m).clusters
        assert abs(minus_i.eigenvalue + 1j) < 1e-12 and abs(plus_i.eigenvalue - 1j) < 1e-12
        assert np.iscomplexobj(minus_i.basis) and np.iscomplexobj(plus_i.basis)
        assert abs(two.eigenvalue - 2.0) < 1e-12 and two.eigenspace_dim == 2
        assert two.basis.dtype == np.float64
        assert all(c.basis.dtype == np.float64 for c in eigen_structure(TETRA_N).clusters)
        assert all(np.iscomplexobj(c.basis) for c in eigen_structure(TETRA_N.astype(complex)).clusters)

    def test_diagonal_clusters(self):
        es = eigen_structure(np.diag([3.0, 3.0, 5.0]))
        got = [(c.eigenvalue, c.multiplicity, c.eigenspace_dim) for c in es.clusters]
        assert got == [(3.0 + 0j, 2, 2), (5.0 + 0j, 1, 1)]

    def test_tetraploid_defective_triple(self):
        es = eigen_structure(TETRA_N)
        assert len(es.clusters) == 1
        c = es.clusters[0]
        assert abs(c.eigenvalue - (-2.0)) < 1e-8
        assert c.multiplicity == 3
        assert c.eigenspace_dim == 1
        from conftest import assert_parallel

        assert_parallel(c.basis[:, 0], [1.0, -2.0, 1.0], tol=1e-6)

    def test_multiplicities_sum_to_n(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            m = rng.standard_normal((n, n))
            es = eigen_structure(m)
            assert sum(c.multiplicity for c in es.clusters) == n

    def test_eigenspace_residual(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for c in eigen_structure(m).clusters:
                res = np.linalg.norm(m @ c.basis - c.eigenvalue * c.basis)
                assert res <= 10 * numkernel.scale(m) * DEFAULT_TOL.eig_cluster_atol + 1e-10


class TestDiagonalisable:
    def test_mendel_defective(self):
        defect = eigen_structure(MENDEL_N).defective_cluster()
        assert defect is not None
        assert abs(defect.eigenvalue - (-1.0)) < 1e-8

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_any_diagonal_is_diagonalisable(self, values):
        assert eigen_structure(np.diag(values)).defective_cluster() is None

    @pytest.mark.parametrize("size", [2, 3, 4])
    @pytest.mark.parametrize("lam", [0.0, 1.0, -3.5])
    def test_jordan_blocks_are_not(self, size, lam):
        j = lam * np.eye(size) + np.diag(np.ones(size - 1), 1)
        defect = eigen_structure(j).defective_cluster()
        assert defect is not None
        assert abs(defect.eigenvalue - lam) < 1e-4

    def test_distinct_eigenvalues(self):
        # triangular with eigenvalues -1 and 1
        assert eigen_structure(np.array([[1.0, 2.0], [0.0, -1.0]])).defective_cluster() is None


class TestCommutator:
    def test_identity_commutes(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 4))
        assert commutator_norm(np.eye(4), m) == 0.0

    def test_tetraploid_products_commute(self, tetraploid0_mats):
        m1, m2, m3 = tetraploid0_mats
        inv1 = inverse(m1)
        a, b = inv1 @ m2, inv1 @ m3
        product = np.array([[-5.0, -12.0, -21.0], [15.0, 31.0, 51.0], [-12.0, -21.0, -32.0]])
        np.testing.assert_allclose(a @ b, product, atol=1e-9)
        np.testing.assert_allclose(b @ a, product, atol=1e-9)
        assert commutator_norm(a, b) <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(b)

    def test_xz(self):
        assert abs(commutator_norm(X, Z) - 2 * np.sqrt(2)) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            commutator_norm(np.eye(2), np.eye(3))

    @given(st.integers(0, 10))
    @settings(max_examples=20, deadline=None)
    def test_symmetry_and_self(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        assert commutator_norm(a, b) == pytest.approx(commutator_norm(b, a))
        assert commutator_norm(a, a) == 0.0


class TestCompleteToBasis:
    def test_from_last_coordinate(self):
        cols = np.array([[0.0], [0.0], [1.0]])
        assert complete_to_basis(cols) == [0, 1]

    def test_from_empty(self):
        cols = np.zeros((3, 0))
        assert complete_to_basis(cols) == [0, 1, 2]

    def test_result_is_a_basis(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n))
            q = np.linalg.qr(rng.standard_normal((n, k)))[0]
            idx = complete_to_basis(q)
            t = np.column_stack([np.eye(n)[:, idx], q])
            assert rank(t) == n
