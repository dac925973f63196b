import numpy as np
import pytest

from evoalg import are_sds, common_eigenbasis, example_algebra, m_structure_matrices
from evoalg.corpus import well_conditioned_matrix
from evoalg.numkernel import DimensionMismatch, eigen_structure, inverse
from evoalg.sds import NonCommuting, NonDiagonalisable, NonRealSpectrum

MENDEL_N = np.array([[1.0, 2.0], [-2.0, -3.0]])
X = np.array([[0.0, 1.0], [1.0, 0.0]])


def planted_commuting_stack(n, m, seed):
    rng = np.random.default_rng([seed, 17])
    q = well_conditioned_matrix(n, rng)
    qinv = np.linalg.inv(q)
    mats = [q @ np.diag(rng.uniform(-2, 2, n)) @ qinv for _ in range(m)]
    return mats


class TestAreSds:
    def test_single_defective(self):
        res = are_sds([MENDEL_N])
        assert not res.ok
        assert isinstance(res.refutation, NonDiagonalisable)
        assert res.refutation.index == 1
        assert abs(res.refutation.eigenvalue - (-1.0)) < 1e-8

    def test_commuting_but_defective(self, tetraploid0_mats):
        m1, m2, m3 = tetraploid0_mats
        inv1 = inverse(m1)
        res = are_sds([inv1 @ m2, inv1 @ m3])
        assert not res.ok
        assert isinstance(res.refutation, NonDiagonalisable)
        assert res.refutation.index == 1
        assert abs(res.refutation.eigenvalue - (-2.0)) < 1e-8

    def test_identity_and_x(self):
        res = are_sds([np.eye(2), X])
        assert res.ok
        tuples = sorted(tuple(np.round(np.real(ev), 9) for ev in s.eigenvalues) for s in res.eigenspaces)
        assert tuples == [(1.0, -1.0), (1.0, 1.0)]

    def test_noncommuting_pair(self):
        z = np.diag([1.0, -1.0])
        res = are_sds([np.eye(2), X, z])
        assert not res.ok
        assert isinstance(res.refutation, NonCommuting)
        assert res.refutation.pair == (2, 3)
        assert res.refutation.commutator_norm == pytest.approx(2 * np.sqrt(2))

    def test_planted_commuting_diagonalisable(self):
        for seed in range(18):
            n = 2 + seed % 5
            m = 1 + seed % 6
            res = are_sds(planted_commuting_stack(n, m, seed))
            assert res.ok
            for mat in planted_commuting_stack(n, m, seed):
                d = np.linalg.solve(res.q, mat @ res.q)
                off = d - np.diag(np.diag(d))
                assert np.linalg.norm(off) <= 1e-7 * max(1.0, np.linalg.norm(mat))

    def test_verdict_invariant_under_permutation(self):
        stacks = [
            [np.eye(2), X],
            [np.eye(2), X, np.diag([1.0, -1.0])],
            planted_commuting_stack(4, 3, 5),
        ]
        for mats in stacks:
            base = are_sds(mats).ok
            assert are_sds(mats[::-1]).ok == base

    def test_array_stack(self):
        stack = planted_commuting_stack(4, 3, 5)
        listed, stacked = are_sds(stack), are_sds(np.array(stack))
        assert listed.ok and stacked.ok
        np.testing.assert_array_equal(listed.q, stacked.q)
        assert not are_sds(np.array([np.eye(2), X, np.diag([1.0, -1.0])])).ok

    @pytest.mark.parametrize("empty", [[], np.zeros((0, 2, 2))])
    def test_empty_stack(self, empty):
        with pytest.raises(DimensionMismatch):
            are_sds(empty)

    def test_single_matrix_reduces_to_diagonalisability(self):
        for m in [MENDEL_N, np.diag([1.0, 2.0]), np.array([[1.0, 2.0], [0.0, -1.0]])]:
            assert are_sds([m]).ok == (eigen_structure(m).defective_cluster() is None)


class TestCommonEigenbasis:
    def test_single_diagonal(self):
        q, spaces = common_eigenbasis([np.diag([1.0, 2.0, 2.0])])
        dims = sorted(s.basis.shape[1] for s in spaces)
        assert dims == [1, 2]

    def test_mendel_half(self):
        eps = 0.5
        mats = m_structure_matrices(example_algebra("mendel", eps))
        n = inverse(mats[0]) @ mats[1]
        q, spaces = common_eigenbasis([n])
        values = sorted(s.eigenvalues[0].real for s in spaces)
        assert values == pytest.approx([-1.0, 4 * eps - 1.0])
        from conftest import columns_match_up_to_scale

        columns_match_up_to_scale(q, [[1.0, -1.0], [1.0, 2 * eps - 1.0]])

    def test_tetraploid_deformed(self):
        eps = 0.1
        s_eps = np.sqrt(3 * eps * (3 * eps + 4))
        mats = m_structure_matrices(example_algebra("tetraploid", eps))
        inv1 = inverse(mats[0])
        q, spaces = common_eigenbasis([inv1 @ mats[1], inv1 @ mats[2]])
        assert len(spaces) == 3 and all(s.basis.shape[1] == 1 for s in spaces)
        got = sorted(s.eigenvalues[0].real for s in spaces)
        want = sorted([-2.0, -2 - 9 * eps - 3 * s_eps, -2 - 9 * eps + 3 * s_eps])
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_eigenvalue_tuples_reproduce_spectra(self):
        mats = planted_commuting_stack(5, 3, 11)
        _, spaces = common_eigenbasis(mats)
        for k, mat in enumerate(mats):
            got = sorted(
                np.concatenate([[s.eigenvalues[k].real] * s.basis.shape[1] for s in spaces])
            )
            want = sorted(np.linalg.eigvals(mat).real)
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_real_mode_real_output(self):
        mats = planted_commuting_stack(4, 2, 3)
        q, _ = common_eigenbasis(mats, field="real")
        assert q.dtype == np.float64

    def test_real_mode_rejects_rotation(self):
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(NonRealSpectrum):
            common_eigenbasis([rot], field="real")
