import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoalg import (
    AlgebraSpec,
    AlreadyComplex,
    EmptyAnnihilator,
    EmptyQuotient,
    MalformedSpec,
    adapt_basis_to_annihilator,
    annihilator_basis,
    change_basis,
    complexify,
    example_algebra,
    m_structure_matrices,
    multiply,
    planted_evolution_algebra,
    quotient_by_annihilator,
    validate,
)
from evoalg.numkernel import DimensionMismatch, Singular

SIMPLE2D = {(1, 1, 1): 1.0, (1, 2, 2): 1.0, (2, 2, 1): 1.0}


class TestValidate:
    def test_accepts_simple2d(self):
        spec = validate(AlgebraSpec(2, "real", SIMPLE2D))
        assert spec.dim == 2 and len(spec.constants) == 3

    def test_rejects_out_of_range_k(self):
        with pytest.raises(MalformedSpec):
            validate(AlgebraSpec(2, "real", {(1, 1, 3): 1.0}))

    def test_rejects_nan(self):
        with pytest.raises(MalformedSpec):
            validate(AlgebraSpec(2, "real", {(1, 1, 1): float("nan")}))

    def test_rejects_disordered_indices(self):
        with pytest.raises(MalformedSpec):
            validate(AlgebraSpec(2, "real", {(2, 1, 1): 1.0}))

    def test_rejects_dim_zero(self):
        with pytest.raises(MalformedSpec):
            validate(AlgebraSpec(0, "real", {}))

    def test_rejects_complex_under_real(self):
        with pytest.raises(MalformedSpec):
            validate(AlgebraSpec(2, "real", {(1, 1, 1): 1 + 1j}))

    def test_drops_exact_zeros(self):
        spec = validate(AlgebraSpec(2, "real", {(1, 1, 1): 0.0, (1, 2, 2): 1.0}))
        assert (1, 1, 1) not in spec.constants

    def test_label_count(self):
        with pytest.raises(MalformedSpec):
            validate(AlgebraSpec(2, "real", {}, labels=("x",)))


class TestStructureMatrices:
    def test_simple2d(self):
        mats = m_structure_matrices(validate(AlgebraSpec(2, "real", SIMPLE2D)))
        assert mats.shape == (2, 2, 2) and mats.dtype == np.float64
        np.testing.assert_array_equal(mats[0], np.eye(2))
        np.testing.assert_array_equal(mats[1], [[0.0, 1.0], [1.0, 0.0]])

    def test_mendel(self):
        mats = m_structure_matrices(example_algebra("mendel", 0.0))
        np.testing.assert_array_equal(mats[0], [[1.0, 0.5], [0.5, 0.0]])
        np.testing.assert_array_equal(mats[1], [[0.0, 0.5], [0.5, 1.0]])

    def test_zero_algebra(self):
        mats = m_structure_matrices(validate(AlgebraSpec(3, "real", {})))
        for m in mats:
            assert not np.any(m)

    def test_symmetric_exactly(self):
        spec, _ = planted_evolution_algebra(5, seed=2)
        for m in m_structure_matrices(spec):
            np.testing.assert_array_equal(m, m.T)


class TestMultiply:
    def test_simple2d_formula(self):
        spec = example_algebra("simple2d")
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b, c, d = rng.standard_normal(4)
            got = multiply(spec, [a, b], [c, d])
            np.testing.assert_allclose(got, [a * c + b * d, a * d + b * c], atol=1e-14)

    def test_zero_left_factor(self):
        spec = example_algebra("tetraploid", 0.1)
        np.testing.assert_array_equal(multiply(spec, np.zeros(3), np.ones(3)), np.zeros(3))

    def test_e2_squared(self):
        spec = example_algebra("simple2d")
        np.testing.assert_allclose(multiply(spec, [0, 1], [0, 1]), [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            multiply(example_algebra("simple2d"), [1.0], [1.0, 2.0])

    @given(st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_commutativity(self, seed):
        spec, _ = planted_evolution_algebra(4, seed=seed)
        rng = np.random.default_rng(seed + 1)
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        np.testing.assert_allclose(multiply(spec, a, b), multiply(spec, b, a), atol=1e-12)


class TestChangeBasis:
    def test_identity(self):
        spec = example_algebra("mendel", 0.25)
        assert change_basis(spec, np.eye(2)) == spec

    def test_simple2d_natural(self):
        spec = example_algebra("simple2d")
        p = np.array([[1.0, 1.0], [1.0, -1.0]])
        natural = change_basis(spec, p)
        # all distinct-index products vanish in the new coordinates
        for (i, j, _k), v in natural.constants.items():
            if i != j:
                assert abs(v) < 1e-12

    def test_round_trip(self):
        spec = example_algebra("tetraploid", 0.1)
        rng = np.random.default_rng(4)
        p = rng.uniform(-1, 1, (3, 3))
        back = change_basis(change_basis(spec, p), np.linalg.inv(p))
        for got, want in zip(m_structure_matrices(back), m_structure_matrices(spec)):
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_singular_raises(self):
        with pytest.raises(Singular):
            change_basis(example_algebra("simple2d"), np.ones((2, 2)))

    def test_multiply_commutes_with_coordinate_change(self):
        # independent consistency oracle for the transformed constants
        rng = np.random.default_rng(8)
        for seed in range(5):
            spec, _ = planted_evolution_algebra(4, seed=seed)
            p = rng.uniform(-1, 1, (4, 4))
            while np.linalg.cond(p) > 1e4:
                p = rng.uniform(-1, 1, (4, 4))
            moved = change_basis(spec, p)
            a = rng.standard_normal(4)
            b = rng.standard_normal(4)
            got = multiply(moved, a, b)
            want = np.linalg.solve(p, multiply(spec, p @ a, p @ b))
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_complex_transform_promotes_field(self):
        spec = example_algebra("simple2d")
        p = np.array([[1.0, 1j], [1.0, -1j]])
        assert change_basis(spec, p).field == "complex"

    def test_matches_per_matrix_loop_exactly(self):
        # reference: one matrix at a time, summing over k in index order
        def loop_change_basis(spec, p):
            n = spec.dim
            pinv = np.linalg.inv(p)
            congruent = [p.T @ m @ p for m in m_structure_matrices(spec)]
            constants = {}
            for l in range(n):
                new_m = sum(pinv[l, k] * congruent[k] for k in range(n))
                new_m = (new_m + new_m.T) / 2.0
                for i in range(n):
                    for j in range(i, n):
                        if new_m[i, j] != 0:
                            constants[(i + 1, j + 1, l + 1)] = complex(new_m[i, j])
            return constants

        rng = np.random.default_rng(12)
        for seed in range(6):
            spec, _ = planted_evolution_algebra(3 + seed, seed=seed)
            for p in (rng.uniform(-1, 1, (spec.dim, spec.dim)), rng.standard_normal((spec.dim, spec.dim)) * (1 + 1j)):
                assert change_basis(spec, p).constants == loop_change_basis(spec, p)


class TestAnnihilator:
    def test_nota2(self):
        basis = annihilator_basis(example_algebra("nota2"))
        assert basis.shape == (3, 1)
        np.testing.assert_allclose(basis[:, 0], [0.0, 0.0, 1.0], atol=1e-10)

    def test_simple2d_empty(self):
        assert annihilator_basis(example_algebra("simple2d")).shape == (2, 0)

    def test_zero_algebra_full(self):
        basis = annihilator_basis(validate(AlgebraSpec(2, "real", {})))
        assert basis.shape == (2, 2)

    def test_annihilator_annihilates(self):
        for name, eps in [("nota2", None), ("mendel3d_ann", 0.3)]:
            spec = example_algebra(name, eps)
            basis = annihilator_basis(spec)
            for col in basis.T:
                for i in range(spec.dim):
                    e = np.zeros(spec.dim)
                    e[i] = 1.0
                    assert np.linalg.norm(multiply(spec, col, e)) < 1e-10


class TestAdaptedBasis:
    def test_nota2_blocks(self):
        adapted = adapt_basis_to_annihilator(example_algebra("nota2"))
        assert adapted.ann_dim == 1
        np.testing.assert_allclose(adapted.blocks[0], np.eye(2), atol=1e-12)
        np.testing.assert_allclose(adapted.blocks[1], [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(adapted.blocks[2], [[1.0, 0.0], [0.0, -1.0]], atol=1e-12)

    def test_mendel3d_blocks(self):
        eps = 0.3
        adapted = adapt_basis_to_annihilator(example_algebra("mendel3d_ann", eps))
        assert adapted.ann_dim == 1
        m1, m2 = m_structure_matrices(example_algebra("mendel", eps))
        np.testing.assert_allclose(adapted.blocks[0], m1, atol=1e-12)
        np.testing.assert_allclose(adapted.blocks[1], m2, atol=1e-12)
        np.testing.assert_allclose(adapted.blocks[2], -m2, atol=1e-12)

    def test_zero_algebra(self):
        adapted = adapt_basis_to_annihilator(validate(AlgebraSpec(2, "real", {})))
        assert adapted.ann_dim == 2
        assert all(b.shape == (0, 0) for b in adapted.blocks)

    def test_empty_annihilator_raises(self):
        with pytest.raises(EmptyAnnihilator):
            adapt_basis_to_annihilator(example_algebra("simple2d"))

    def test_block_zero_structure(self):
        # in the adapted basis every structure matrix is block + zero, exactly as assembled
        for seed in range(8):
            spec, _ = planted_evolution_algebra(4, seed=seed)
            basis = annihilator_basis(spec)
            if basis.shape[1] == 0:
                continue
            adapted = adapt_basis_to_annihilator(spec)
            r = spec.dim - adapted.ann_dim
            moved = change_basis(spec, adapted.transform)
            for m in m_structure_matrices(moved):
                np.testing.assert_allclose(m[r:, :], 0, atol=1e-9)
                np.testing.assert_allclose(m[:, r:], 0, atol=1e-9)


class TestComplexify:
    def test_matrices_unchanged(self):
        spec = example_algebra("mendel", 0.2)
        lifted = complexify(spec)
        assert lifted.field == "complex"
        for got, want in zip(m_structure_matrices(lifted), m_structure_matrices(spec)):
            np.testing.assert_allclose(got, want)

    def test_zero_algebra(self):
        assert complexify(validate(AlgebraSpec(2, "real", {}))).field == "complex"

    def test_tetraploid_constants_identical(self):
        spec = example_algebra("tetraploid", 0.1)
        assert complexify(spec).constants == spec.constants

    def test_already_complex(self):
        with pytest.raises(AlreadyComplex):
            complexify(complexify(example_algebra("simple2d")))


class TestQuotient:
    def test_nota2_quotient_is_simple2d(self):
        q = quotient_by_annihilator(example_algebra("nota2"))
        assert q == example_algebra("simple2d")

    def test_mendel3d_quotient_at_zero(self):
        q = quotient_by_annihilator(example_algebra("mendel3d_ann", 0.0))
        assert q == example_algebra("mendel", 0.0)

    def test_zero_algebra_raises(self):
        with pytest.raises(EmptyQuotient):
            quotient_by_annihilator(validate(AlgebraSpec(2, "real", {})))

    def test_dimension_bookkeeping(self):
        for seed in range(12):
            spec, _ = planted_evolution_algebra(5, seed=seed)
            a = annihilator_basis(spec).shape[1]
            if 0 < a < spec.dim:
                q = quotient_by_annihilator(spec)
                assert q.dim + a == spec.dim
