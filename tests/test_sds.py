import numpy as np
import pytest

from evoalg import (
    adversarial_instance,
    complexify,
    example_algebra,
    is_evolution_algebra,
    m_structure_matrices,
    numkernel,
    planted_evolution_algebra,
)
from evoalg.corpus import well_conditioned_matrix
from evoalg.numkernel import DEFAULT_TOL, DimensionMismatch, eigen_structure
from evoalg.sds import NonCommuting, NonDiagonalisable, _common_eigenbasis, _witness
from conftest import similarity_family
from probe import scrambled_planted

MENDEL_N = np.array([[1.0, 2.0], [-2.0, -3.0]])
X = np.array([[0.0, 1.0], [1.0, 0.0]])


def planted_commuting_stack(n, m, seed):
    rng = np.random.default_rng([seed, 17])
    q = well_conditioned_matrix(n, rng)
    qinv = np.linalg.inv(q)
    mats = [q @ np.diag(rng.uniform(-2, 2, n)) @ qinv for _ in range(m)]
    return mats


def witness(mats):
    return _witness(mats, DEFAULT_TOL)


def common_bases(mats):
    return _common_eigenbasis(mats, DEFAULT_TOL)


def eigenvalue_tuples(bases, mats, atol=1e-8):
    """One eigenvalue per matrix for each basis ``V``, after checking that ``V`` is invariant.

    ``N V = V R`` with ``R = V^H N V`` for every ``N``, and ``R`` is a multiple
    of the identity: its Rayleigh quotients are one eigenvalue.
    """
    tuples = []
    for v in bases:
        values = []
        for mat in mats:
            r = v.conj().T @ mat @ v
            scale = max(1.0, np.linalg.norm(mat))
            np.testing.assert_allclose(mat @ v, v @ r, atol=atol * scale)
            lam = np.trace(r) / v.shape[1]
            np.testing.assert_allclose(r, lam * np.eye(v.shape[1]), atol=atol * scale)
            values.append(complex(lam))
        tuples.append(tuple(values))
    return tuples


def sds_ok(mats):
    """True when the scan finds no pair and the construction returns checked bases, False on a witness of either."""
    if witness(mats) is not None:
        return False
    bases = common_bases(mats)
    if isinstance(bases, NonDiagonalisable):
        return False
    assert isinstance(bases, list)
    eigenvalue_tuples(bases, mats, atol=1e-7)
    return True


class TestAreSds:
    def test_single_defective(self):
        res = common_bases([MENDEL_N])
        assert isinstance(res, NonDiagonalisable)
        assert res.index == 1
        assert abs(res.eigenvalue - (-1.0)) < 1e-8
        assert witness([MENDEL_N]) is None  # the scan has no pair; the defect is the construction's

    def test_commuting_but_defective(self, tetraploid0_mats):
        m1, m2, m3 = tetraploid0_mats
        inv1 = np.linalg.inv(m1)
        res = common_bases([inv1 @ m2, inv1 @ m3])
        assert isinstance(res, NonDiagonalisable)
        assert res.index == 1
        assert abs(res.eigenvalue - (-2.0)) < 1e-8
        assert witness([inv1 @ m2, inv1 @ m3]) is None

    def test_identity_and_x(self):
        assert witness([np.eye(2), X]) is None
        bases = common_bases([np.eye(2), X])
        tuples = sorted(tuple(np.round(np.real(ev), 9) for ev in evs) for evs in eigenvalue_tuples(bases, [np.eye(2), X]))
        assert tuples == [(1.0, -1.0), (1.0, 1.0)]

    def test_commutators_come_before_defects(self):
        # MENDEL_N is defective and does not commute with X: the pair is the witness
        res = witness([MENDEL_N, X])
        assert res == NonCommuting((1, 2), 8.0)

    def test_noncommuting_pair(self):
        z = np.diag([1.0, -1.0])
        res = witness([np.eye(2), X, z])
        assert isinstance(res, NonCommuting)
        assert res.pair == (2, 3)
        assert res.commutator_norm == pytest.approx(2 * np.sqrt(2))

    def test_planted_commuting_diagonalisable(self):
        for seed in range(18):
            n = 2 + seed % 5
            m = 1 + seed % 6
            mats = planted_commuting_stack(n, m, seed)
            assert witness(mats) is None
            q = np.hstack(common_bases(mats))
            for mat in mats:
                d = np.linalg.solve(q, mat @ q)
                off = d - np.diag(np.diag(d))
                assert np.linalg.norm(off) <= 1e-7 * max(1.0, np.linalg.norm(mat))

    def test_verdict_invariant_under_permutation(self):
        stacks = [
            [np.eye(2), X],
            [np.eye(2), X, np.diag([1.0, -1.0])],
            planted_commuting_stack(4, 3, 5),
        ]
        for mats in stacks:
            assert sds_ok(mats[::-1]) == sds_ok(mats)

    def test_array_stack(self):
        stack = planted_commuting_stack(4, 3, 5)
        assert witness(stack) is None and witness(np.array(stack)) is None
        np.testing.assert_array_equal(np.hstack(common_bases(stack)), np.hstack(common_bases(np.array(stack))))
        assert witness(np.array([np.eye(2), X, np.diag([1.0, -1.0])])) is not None

    @pytest.mark.parametrize("empty", [[], np.zeros((0, 2, 2))])
    def test_empty_stack(self, empty):
        with pytest.raises(DimensionMismatch):
            common_bases(empty)

    def test_single_matrix_reduces_to_diagonalisability(self):
        for m in [MENDEL_N, np.diag([1.0, 2.0]), np.array([[1.0, 2.0], [0.0, -1.0]])]:
            assert sds_ok([m]) == (eigen_structure(m).defective_cluster() is None)


def reference_pair_scan(mats, tol=DEFAULT_TOL):
    """The pair scan one commutator at a time, as it was before the rows were batched."""
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            norm = float(np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i]))
            bound = tol.commute_rtol * float(np.linalg.norm(mats[i])) * float(np.linalg.norm(mats[j]))
            if norm > bound:
                return NonCommuting((i + 1, j + 1), norm)
    return None


class TestPairScan:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_batched_rows_equal_the_pair_loop(self, monkeypatch, field):
        # the adversarial and kappa-scrambled families at n = 3..24: the same pair and the same norm, bit for bit;
        # the scan is the commutators alone, so a family whose pairs commute gives None and no eigen-analysis runs
        def tripwire(m, tol):
            raise AssertionError("the pair scan ran an eigen-analysis")

        monkeypatch.setattr(numkernel, "eigen_structure", tripwire)
        specs = [adversarial_instance(kind, n, seed) for kind in ("defective", "noncommuting") for n in range(3, 25) for seed in (0, 1)]
        specs += [scrambled_planted(n, kappa, 0)[0] for n in range(3, 25) for kappa in (1e3, 1e5)]
        outcomes = {"pair": 0, "none": 0}
        for spec in specs:
            solved = similarity_family(complexify(spec) if field == "complex" else spec)
            if solved is None:
                continue  # the pencil tops out below full rank: no family
            want = reference_pair_scan(solved[1])
            assert witness(solved[1]) == want, spec.dim
            outcomes["none" if want is None else "pair"] += 1
        assert min(outcomes.values()) >= 20, outcomes


class TestCommonEigenbasis:
    def test_single_diagonal(self):
        mat = np.diag([1.0, 2.0, 2.0])
        bases = common_bases([mat])
        assert sorted(v.shape[1] for v in bases) == [1, 2]
        assert sorted(evs[0].real for evs in eigenvalue_tuples(bases, [mat])) == pytest.approx([1.0, 2.0])

    def test_mendel_half(self):
        eps = 0.5
        mats = m_structure_matrices(example_algebra("mendel", eps))
        n = np.linalg.inv(mats[0]) @ mats[1]
        bases = common_bases([n])
        q = np.hstack(bases)
        values = sorted(evs[0].real for evs in eigenvalue_tuples(bases, [n]))
        assert values == pytest.approx([-1.0, 4 * eps - 1.0])
        from conftest import columns_match_up_to_scale

        columns_match_up_to_scale(q, [[1.0, -1.0], [1.0, 2 * eps - 1.0]])

    def test_tetraploid_deformed(self):
        eps = 0.1
        s_eps = np.sqrt(3 * eps * (3 * eps + 4))
        mats = m_structure_matrices(example_algebra("tetraploid", eps))
        inv1 = np.linalg.inv(mats[0])
        family = [inv1 @ mats[1], inv1 @ mats[2]]
        bases = common_bases(family)
        assert len(bases) == 3 and all(v.shape[1] == 1 for v in bases)
        got = sorted(evs[0].real for evs in eigenvalue_tuples(bases, family))
        want = sorted([-2.0, -2 - 9 * eps - 3 * s_eps, -2 - 9 * eps + 3 * s_eps])
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_eigenvalue_tuples_reproduce_spectra(self):
        mats = planted_commuting_stack(5, 3, 11)
        bases = common_bases(mats)
        tuples = eigenvalue_tuples(bases, mats, atol=1e-7)
        for k, mat in enumerate(mats):
            got = sorted(np.concatenate([[evs[k].real] * v.shape[1] for v, evs in zip(bases, tuples)]))
            want = sorted(np.linalg.eigvals(mat).real)
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_real_mode_real_output(self):
        mats = planted_commuting_stack(4, 2, 3)
        assert np.hstack(common_bases(mats)).dtype == np.float64

    def test_real_rotation_has_complex_bases(self):
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        bases = common_bases([rot])
        assert all(np.iscomplexobj(v) for v in bases)
        values = sorted((evs[0] for evs in eigenvalue_tuples(bases, [rot])), key=lambda z: z.imag)
        np.testing.assert_allclose(values, [-1j, 1j], atol=1e-12)


class TestIdentityMember:
    @pytest.mark.parametrize(
        "spec",
        [planted_evolution_algebra(6, seed=0)[0], adversarial_instance("defective", 24, seed=0)],
        ids=["planted-n6", "defective-n24"],
    )
    def test_the_exact_identity_is_not_eigen_analysed(self, monkeypatch, spec):
        # at a canonical pencil point e_k the member W^{-1} M_k is the exact identity:
        # it splits no subspace and is never defective
        identities = []
        eigen_structure = numkernel.eigen_structure

        def recording(m, tol):
            identities.append(np.array_equal(m, np.eye(m.shape[0])))
            return eigen_structure(m, tol)

        monkeypatch.setattr(numkernel, "eigen_structure", recording)
        v = is_evolution_algebra(spec)
        assert np.count_nonzero(v.diagnostics.lambda0) == 1  # a canonical point
        assert identities and not any(identities), identities
