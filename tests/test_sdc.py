import numpy as np
import pytest

from evoalg import (
    EVOLUTION,
    NOT_EVOLUTION,
    AlgebraSpec,
    check_certificate,
    complexify,
    example_algebra,
    is_evolution_algebra,
    m_structure_matrices,
    multiply,
    planted_evolution_algebra,
    validate,
)
from evoalg import sdc
from evoalg.corpus import well_conditioned_matrix
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


def spec_of(mats):
    """The real algebra whose structure matrices are the symmetric stack ``mats``."""
    n = len(mats)
    constants = {(i + 1, j + 1, k + 1): m[i, j] for k, m in enumerate(mats) for i in range(n) for j in range(i, n)}
    return validate(AlgebraSpec(n, "real", constants))


def scaled(spec, factor):
    return validate(AlgebraSpec(spec.dim, spec.field, {key: factor * v for key, v in spec.constants.items()}))


def assert_unitary_congruence(g, x):
    """``X^T G X`` is diagonal to 1e-12 of ``||G||``, ``X^H X = I``, and ``X`` is real exactly when ``G`` is."""
    assert np.iscomplexobj(x) == np.iscomplexobj(g)
    d = g.shape[0]
    off = (x.T @ g @ x)[~np.eye(d, dtype=bool)]
    assert np.all(np.abs(off) <= 1e-12 * np.linalg.norm(g))
    np.testing.assert_allclose(x.conj().T @ x, np.eye(d), atol=1e-12)


class TestGramFactor:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_random_complex_symmetric(self, seed, d):
        rng = np.random.default_rng([seed, d])
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        g = g + g.T
        assert_unitary_congruence(g, gram_factor(g))

    def test_isotropic_block(self):
        g = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        assert_unitary_congruence(g, gram_factor(g))

    def test_real_indefinite(self):
        rng = np.random.default_rng(7)
        q = well_conditioned_matrix(4, rng)
        g = q @ np.diag([2.0, -1.0, 0.5, -3.0]) @ q.T
        x = gram_factor(g)
        assert_unitary_congruence(g, x)
        assert sorted(np.sign(np.diag(x.T @ g @ x))) == [-1.0, -1.0, 1.0, 1.0]

    def test_real_isotropic(self):
        g = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert_unitary_congruence(g, gram_factor(g))


class TestAssemble:
    """The transform has the bytes of one ``V @ gram_factor(V^T W V)`` per eigenspace basis."""

    @staticmethod
    def reference(w, bases):
        return np.hstack([v @ gram_factor(v.T @ w @ v) for v in bases])

    def test_real_one_dimensional_bases_skip_the_gram_factor(self, monkeypatch):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((4, 4))
        w = w + w.T
        bases = [np.array([[0.5], [-0.0], [0.0], [-1.5]]), rng.standard_normal((4, 1))]
        want = self.reference(w, bases)
        assert np.signbit(bases[0][1, 0]) and not np.signbit(want[1, 0])  # V @ [[1.0]] turns -0 into +0
        monkeypatch.setattr(sdc, "gram_factor", lambda g: pytest.fail("a real 1-D basis reached gram_factor"))
        got = sdc._assemble(w, bases)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("complex_w, complex_v, d", [(False, False, 2), (True, False, 1), (True, True, 1), (True, True, 3)])
    def test_other_bases_are_unchanged(self, complex_w, complex_v, d):
        rng = np.random.default_rng([d, complex_w, complex_v])

        def draw(shape, complex_):
            return rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_ else 0)

        w = draw((5, 5), complex_w)
        w = w + w.T
        bases = [draw((5, d), complex_v), rng.standard_normal((5, 1))]
        want = self.reference(w, bases)
        got = sdc._assemble(w, bases)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestSimilarityFamily:
    """The family is one ``(m, r, r)`` array with the bytes of one product ``W^{-1} @ M_k`` per matrix."""

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_batched_product_equals_the_per_matrix_products(self, complex_mode):
        rng = np.random.default_rng(int(complex_mode))
        stacks = [m_structure_matrices(planted_evolution_algebra(n, seed=n)[0]) for n in (2, 5, 9)]
        for n in (2, 3, 8, 13, 24):
            for m in (1, 4, n):
                mats = rng.standard_normal((m, n, n))
                stacks.append(mats + mats.transpose(0, 2, 1))
        for stack in stacks:
            if complex_mode:
                stack = stack * (1.0 + 0.5j) + 1j * stack[::-1]
            m = len(stack)
            w, family = sdc._similarity_family(stack, rng.standard_normal(m) + 1j * rng.standard_normal(m))
            w_inv = np.linalg.inv(w)
            want = np.array([w_inv @ mat for mat in stack])
            assert isinstance(family, np.ndarray) and np.iscomplexobj(family) == complex_mode
            assert family.shape == stack.shape and family.tobytes() == want.tobytes()

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_canonical_point_makes_its_member_the_exact_identity(self, complex_mode):
        # at lam = e_k, W is M_k bit for bit: W^{-1} M_k is I, not the rounded product
        rng = np.random.default_rng(3)
        mats = rng.standard_normal((4, 6, 6))
        stack = mats + mats.transpose(0, 2, 1)
        if complex_mode:
            stack = stack + 1j * stack[::-1]
        for k in range(4):
            lam = np.zeros(4, dtype=np.complex128)
            lam[k] = 1.0
            w, family = sdc._similarity_family(stack, lam)
            assert np.array_equal(w, stack[k])
            assert np.array_equal(family[k], np.eye(6)) and family.dtype == stack.dtype
            others = [j for j in range(4) if j != k]
            assert family[others].tobytes() == (np.linalg.inv(w) @ stack[others]).tobytes()


class TestFullRank:
    """Stacks with an invertible structure matrix, decided through ``is_evolution_algebra``."""

    def test_simple2d(self):
        spec = example_algebra("simple2d")
        v = is_evolution_algebra(spec)
        assert v.outcome == EVOLUTION and v.diagnostics.branch == "a"
        assert check_certificate(spec, v.certificate.p).ok
        d1, d2 = v.certificate.diagonals
        ratios = sorted(np.real(d2 / d1))
        assert ratios == pytest.approx([-1.0, 1.0])

    @pytest.mark.parametrize("eps", [0.1, 0.5])
    def test_mendel_deformed(self, eps):
        v = is_evolution_algebra(example_algebra("mendel", eps))
        assert v.outcome == EVOLUTION
        d1, d2 = v.certificate.diagonals
        ratios = sorted(np.real(d2 / d1))
        assert ratios == pytest.approx(sorted([-1.0, 4 * eps - 1.0]), abs=1e-8)

    def test_mendel_classical_refuted(self, mendel0_mats):
        spec = example_algebra("mendel", 0.0)
        np.testing.assert_array_equal(m_structure_matrices(spec), mendel0_mats)
        v = is_evolution_algebra(spec)
        assert v.outcome == NOT_EVOLUTION
        assert isinstance(v.refutation, NonDiagonalisable)
        assert v.refutation.index == 2
        assert abs(v.refutation.eigenvalue - (-1.0)) < 1e-8

    def test_requires_full_rank_witness(self):
        # no point of the padded pencil is invertible, so the kernel is split
        # off first and the full-rank solve runs on the leading blocks only
        v = is_evolution_algebra(PADDED)
        d = v.diagnostics
        assert (d.branch, d.r0, d.ann_dim) == ("b.2", 2, 1)
        assert d.lambda0.shape == (3,)


class TestReduced:
    """Stacks with a common kernel, decided through ``is_evolution_algebra``."""

    def test_noncommuting_padded_blocks(self):
        spec = spec_of([pad(np.eye(2)), pad(X), pad(Z)])
        assert spec.constants == example_algebra("nota2").constants
        v = is_evolution_algebra(spec)
        assert v.outcome == NOT_EVOLUTION
        assert isinstance(v.refutation, NonCommuting)
        assert v.refutation.pair == (2, 3)

    def test_two_padded_blocks_diagonalise(self):
        np.testing.assert_array_equal(m_structure_matrices(PADDED)[:2], [pad(np.eye(2)), pad(X)])
        v = is_evolution_algebra(PADDED)
        assert v.outcome == EVOLUTION
        assert check_certificate(PADDED, v.certificate.p).ok
        # the kernel direction stays a natural direction with zero square
        assert all(abs(d[2]) < 1e-12 for d in v.certificate.diagonals)

    def test_all_zero_stack(self):
        v = is_evolution_algebra(validate(AlgebraSpec(3, "real", {})))
        assert v.outcome == EVOLUTION
        np.testing.assert_array_equal(v.certificate.p, np.eye(3))
        assert all(not np.any(d) for d in v.certificate.diagonals)

    def test_kernel_dimension_mismatch(self):
        # arrowhead family: rank never exceeds 2, common kernel is zero
        arrow = [np.zeros((3, 3)) for _ in range(3)]
        arrow[0][0, 0] = 1.0
        arrow[1][0, 1] = arrow[1][1, 0] = 1.0
        arrow[2][0, 2] = arrow[2][2, 0] = 1.0
        v = is_evolution_algebra(spec_of(arrow))
        assert v.outcome == NOT_EVOLUTION
        assert v.refutation == KernelDimensionMismatch(kernel_dim=0, expected=1)

    def test_agrees_with_full_rank_when_witness_is_full(self):
        # simple2d padded with an annihilator direction: the leading blocks are
        # simple2d's own matrices, so the kernel split changes nothing there
        spec = example_algebra("simple2d")
        padded = validate(AlgebraSpec(3, "real", dict(spec.constants)))
        full = is_evolution_algebra(spec)
        red = is_evolution_algebra(padded)
        assert (full.diagnostics.branch, red.diagnostics.branch) == ("a", "b.2")
        assert full.outcome == red.outcome == EVOLUTION
        assert check_certificate(padded, red.certificate.p).ok
        for a, b in zip(full.certificate.diagonals, red.certificate.diagonals):
            np.testing.assert_allclose(a, b[:2], atol=1e-10)


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

    @pytest.mark.parametrize("factor", [1e200, 1e300, 1e308])
    def test_identity_fails_at_extreme_scale(self, factor):
        # ||t||_F overflows unless the test is scaled: a bound of inf would accept anything
        check = check_certificate(scaled(example_algebra("simple2d"), factor), np.eye(2))
        assert not check.ok and check.offending_pair == (1, 2)
        assert check.residual == pytest.approx(factor)

    @pytest.mark.parametrize("column", [1e160, 1e300])
    def test_large_identity_fails(self, column):
        # the products and column norms of p overflow unless p is scaled too
        check = check_certificate(example_algebra("simple2d"), column * np.eye(2))
        assert not check.ok and check.offending_pair == (1, 2)

    @pytest.mark.parametrize("factor", [1e-300, 1.0, 1e300])
    @pytest.mark.parametrize("column", [1e-150, 1e5, 1e150])
    def test_natural_basis_passes_at_any_column_scale(self, factor, column):
        spec = scaled(example_algebra("simple2d"), factor)
        assert check_certificate(spec, column * np.array([[1.0, -1.0], [1.0, 1.0]])).ok

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
            v = is_evolution_algebra(spec, seed=seed)
            assert v.outcome == EVOLUTION
            assert check_certificate(spec, v.certificate.p).ok

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
                assert (is_evolution_algebra(spec_of(moved)).outcome == EVOLUTION) == want

    def test_scaling_invariance(self):
        spec = example_algebra("simple2d")
        v = is_evolution_algebra(spec)
        v_scaled = is_evolution_algebra(scaled(spec, 3.7))
        assert v.outcome == v_scaled.outcome == EVOLUTION
        # with the original transform held fixed, the diagonal forms scale linearly
        p = v.certificate.p
        for m, d in zip(m_structure_matrices(scaled(spec, 3.7)), v.certificate.diagonals):
            np.testing.assert_allclose(np.diag(p.T @ m @ p), 3.7 * d, atol=1e-10)

    @pytest.mark.parametrize("factor", [1e-300, 1e-200, 1e-50, 1e-20, 1e20, 1e50, 1e200, 1e300])
    def test_rescaled_annihilator_algebras_are_certified(self, factor):
        # the constructed and the annihilator columns all have unit norm, so a
        # rescaled branch-b.2 algebra is not undetermined
        for spec in (example_algebra("mendel3d_ann", 0.2), planted_evolution_algebra(6, seed=3)[0]):
            assert_certified_at_unit_norm(scaled(spec, factor), "b.2")

    @pytest.mark.parametrize("factor", [1e-300, 1e-200, 1e-50, 1e-20, 1e20, 1e50, 1e200, 1e300])
    def test_rescaled_invertible_algebras_are_certified(self, factor):
        for spec in (example_algebra("simple2d"), example_algebra("tetraploid", 0.1)):
            assert_certified_at_unit_norm(scaled(spec, factor), "a")

    def test_certificate_columns_have_unit_norm(self):
        real = planted_evolution_algebra(5, seed=1)[0]
        branch_b2 = planted_evolution_algebra(6, seed=3)[0]
        for spec in (real, complexify(real), branch_b2, complexify(branch_b2)):
            p = is_evolution_algebra(spec).certificate.p
            np.testing.assert_allclose(np.linalg.norm(p, axis=0), 1.0, rtol=1e-12)
        assert is_evolution_algebra(branch_b2).diagnostics.branch == "b.2"


def assert_certified_at_unit_norm(spec, branch):
    v = is_evolution_algebra(spec)
    assert v.outcome == EVOLUTION and v.diagnostics.branch == branch
    assert check_certificate(spec, v.certificate.p).ok
    np.testing.assert_allclose(np.linalg.norm(v.certificate.p, axis=0), 1.0, rtol=1e-12)
