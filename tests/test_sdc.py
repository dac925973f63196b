import numpy as np
import pytest

from evoalg import (
    AlgebraSpec,
    check_certificate,
    example_algebra,
    m_structure_matrices,
    max_pencil_rank,
    multiply,
    planted_evolution_algebra,
    sdc_full_rank,
    sdc_reduced,
    validate,
)
from evoalg.corpus import well_conditioned_matrix
from evoalg.numkernel import DEFAULT_TOL
from evoalg.sdc import KernelDimensionMismatch, gram_factor
from evoalg.sds import NonCommuting, NonDiagonalisable

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.diag([1.0, -1.0])
# the 3-dimensional algebra whose structure matrices are pad(I), pad(X) and 0
PADDED = validate(AlgebraSpec(3, "real", {(1, 1, 1): 1.0, (2, 2, 1): 1.0, (1, 2, 2): 1.0}))


def pad(m, extra=1):
    n = m.shape[0]
    out = np.zeros((n + extra, n + extra))
    out[:n, :n] = m
    return out


def raw_pipeline(mats, tol=DEFAULT_TOL, trials=16, seed=0):
    """Decide SDC for a bare stack: pencil search, then the matching solver."""
    witness = max_pencil_rank(mats, tol, trials, seed)
    if witness.r0 == mats[0].shape[0]:
        return sdc_full_rank(mats, witness, tol, seed)
    return sdc_reduced(mats, witness, tol, seed)


class TestGramFactor:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_random_complex_symmetric(self, seed, d):
        rng = np.random.default_rng([seed, d])
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        g = g + g.T
        c, signs = gram_factor(g, np.random.default_rng(0))
        np.testing.assert_allclose(c @ np.diag(signs) @ c.T, g, atol=1e-10 * max(1, np.linalg.norm(g)))
        assert np.all(signs == 1.0)

    def test_isotropic_block(self):
        g = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        c, signs = gram_factor(g, np.random.default_rng(1))
        np.testing.assert_allclose(c @ np.diag(signs) @ c.T, g, atol=1e-12)

    def test_real_indefinite(self):
        rng = np.random.default_rng(7)
        q = well_conditioned_matrix(4, rng)
        g = q @ np.diag([2.0, -1.0, 0.5, -3.0]) @ q.T
        c, signs = gram_factor(g, np.random.default_rng(2), real=True)
        assert c.dtype == np.float64
        assert sorted(signs) == [-1.0, -1.0, 1.0, 1.0]
        np.testing.assert_allclose(c @ np.diag(signs) @ c.T, g, atol=1e-10 * np.linalg.norm(g))

    def test_real_isotropic(self):
        g = np.array([[0.0, 1.0], [1.0, 0.0]])
        c, signs = gram_factor(g, np.random.default_rng(3), real=True)
        assert c.dtype == np.float64
        np.testing.assert_allclose(c @ np.diag(signs) @ c.T, g, atol=1e-12)


class TestFullRank:
    def test_simple2d(self):
        spec = example_algebra("simple2d")
        mats = m_structure_matrices(spec)
        res = sdc_full_rank(mats, max_pencil_rank(mats))
        assert res.ok
        assert check_certificate(spec, res.p).ok
        d1, d2 = res.diagonals
        ratios = sorted(np.real(d2 / d1))
        assert ratios == pytest.approx([-1.0, 1.0])

    @pytest.mark.parametrize("eps", [0.1, 0.5])
    def test_mendel_deformed(self, eps):
        mats = m_structure_matrices(example_algebra("mendel", eps))
        res = sdc_full_rank(mats, max_pencil_rank(mats))
        assert res.ok
        d1, d2 = res.diagonals
        ratios = sorted(np.real(d2 / d1))
        assert ratios == pytest.approx(sorted([-1.0, 4 * eps - 1.0]), abs=1e-8)

    def test_mendel_classical_refuted(self, mendel0_mats):
        res = sdc_full_rank(mendel0_mats, max_pencil_rank(mendel0_mats))
        assert not res.ok
        assert isinstance(res.refutation, NonDiagonalisable)
        assert res.refutation.index == 2
        assert abs(res.refutation.eigenvalue - (-1.0)) < 1e-8

    def test_requires_full_rank_witness(self):
        mats = [pad(np.eye(2)), pad(X)]
        with pytest.raises(ValueError):
            sdc_full_rank(mats, max_pencil_rank(mats))


class TestReduced:
    def test_noncommuting_padded_blocks(self):
        mats = [pad(np.eye(2)), pad(X), pad(Z)]
        res = sdc_reduced(mats, max_pencil_rank(mats))
        assert not res.ok
        assert isinstance(res.refutation, NonCommuting)
        assert res.refutation.pair == (2, 3)

    def test_two_padded_blocks_diagonalise(self):
        mats = [pad(np.eye(2)), pad(X)]
        np.testing.assert_array_equal(m_structure_matrices(PADDED)[:2], mats)
        res = sdc_reduced(mats, max_pencil_rank(mats))
        assert res.ok
        assert check_certificate(PADDED, res.p).ok
        # the kernel direction stays a natural direction with zero square
        assert all(abs(d[2]) < 1e-12 for d in res.diagonals)

    def test_all_zero_stack(self):
        mats = [np.zeros((3, 3)) for _ in range(3)]
        res = sdc_reduced(mats, max_pencil_rank(mats))
        assert res.ok
        np.testing.assert_array_equal(res.p, np.eye(3))
        assert all(not np.any(d) for d in res.diagonals)

    def test_kernel_dimension_mismatch(self):
        # arrowhead family: rank never exceeds 2, common kernel is zero
        arrow = [np.zeros((3, 3)) for _ in range(3)]
        arrow[0][0, 0] = 1.0
        arrow[1][0, 1] = arrow[1][1, 0] = 1.0
        arrow[2][0, 2] = arrow[2][2, 0] = 1.0
        res = sdc_reduced(arrow, max_pencil_rank(arrow))
        assert not res.ok
        assert res.refutation == KernelDimensionMismatch(kernel_dim=0, expected=1)

    def test_agrees_with_full_rank_when_witness_is_full(self):
        spec = example_algebra("simple2d")
        mats = m_structure_matrices(spec)
        witness = max_pencil_rank(mats)
        full = sdc_full_rank(mats, witness)
        red = sdc_reduced(mats, witness)
        assert full.ok and red.ok
        assert check_certificate(spec, red.p).ok
        for a, b in zip(full.diagonals, red.diagonals):
            np.testing.assert_allclose(a, b, atol=1e-10)


class TestVerifyCongruence:
    """Congruence certificates, rechecked by the library's certificate checker."""

    def test_known_transform(self):
        p = np.array([[1.0, 1.0], [1.0, -1.0]])
        assert check_certificate(example_algebra("simple2d"), p).ok

    def test_identity_fails_on_off_diagonal(self):
        check = check_certificate(example_algebra("simple2d"), np.eye(2))
        assert not check.ok
        assert check.offending_pair == (1, 2)

    def test_singular_transform(self):
        check = check_certificate(example_algebra("simple2d"), np.ones((2, 2)))
        assert not check.ok and check.reason is not None

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_closed_form_transform_for_deformed_tetraploid(self, eps):
        s = np.sqrt(3 * eps * (3 * eps + 4))
        p = np.array(
            [
                [1.0, 1.0, 1.0],
                [-2.0, -2 - 3 * eps - s, -2 - 3 * eps + s],
                [1 - 12 * eps, 1 + 3 * eps + s, 1 + 3 * eps - s],
            ]
        )
        assert check_certificate(example_algebra("tetraploid", eps), p).ok

    def test_batched_residual_matches_pairwise_products(self):
        spec, _ = planted_evolution_algebra(5, seed=3)
        p = well_conditioned_matrix(5, np.random.default_rng(8))  # not a natural basis
        norms = {
            (i + 1, j + 1): np.linalg.norm(multiply(spec, p[:, i], p[:, j]))
            for i in range(5)
            for j in range(i + 1, 5)
        }
        worst = max(norms, key=norms.get)
        check = check_certificate(spec, p)
        assert not check.ok
        assert check.offending_pair == worst
        assert check.residual == pytest.approx(norms[worst], rel=1e-12)


class TestStackInvariants:
    def test_soundness_on_planted(self):
        for seed in range(25):
            spec, _ = planted_evolution_algebra(2 + seed % 5, seed=seed)
            res = raw_pipeline(m_structure_matrices(spec), seed=seed)
            assert res.ok
            assert check_certificate(spec, res.p).ok

    def test_verdict_invariant_under_congruence(self):
        rng = np.random.default_rng(31)
        stacks = [
            (True, m_structure_matrices(example_algebra("simple2d"))),
            (False, [pad(np.eye(2)), pad(X), pad(Z)]),
            (False, m_structure_matrices(example_algebra("tetraploid", 0.0))),
            (True, m_structure_matrices(planted_evolution_algebra(5, seed=41)[0])),
            (True, m_structure_matrices(planted_evolution_algebra(4, seed=42)[0])),
        ]
        for want, mats in stacks:
            n = mats[0].shape[0]
            for _ in range(10):
                r = well_conditioned_matrix(n, rng)
                moved = [r.T @ m @ r for m in mats]
                assert raw_pipeline(moved).ok == want

    def test_scaling_invariance(self):
        mats = m_structure_matrices(example_algebra("simple2d"))
        res = raw_pipeline(mats)
        scaled = [3.7 * m for m in mats]
        res_scaled = raw_pipeline(scaled)
        assert res.ok and res_scaled.ok
        # with the original transform held fixed, the diagonal forms scale linearly
        for m, d in zip(scaled, res.diagonals):
            np.testing.assert_allclose(np.diag(res.p.T @ m @ res.p), 3.7 * d, atol=1e-10)
