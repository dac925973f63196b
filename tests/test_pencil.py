import numpy as np
import pytest

from evoalg import AlgebraSpec, change_basis, example_algebra, m_structure_matrices, max_pencil_rank, validate
from evoalg.corpus import well_conditioned_matrix
from evoalg.numkernel import DimensionMismatch
from evoalg.pencil import evaluate
from evoalg import numkernel


class TestEvaluate:
    def test_canonical_direction(self, mendel0_mats):
        np.testing.assert_array_equal(evaluate(mendel0_mats, [1.0, 0.0]), mendel0_mats[0])

    def test_zero_coefficients(self, mendel0_mats):
        assert not np.any(evaluate(mendel0_mats, [0.0, 0.0]))

    def test_symmetric(self, tetraploid0_mats):
        rng = np.random.default_rng(0)
        lam = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        m = evaluate(tetraploid0_mats, lam)
        np.testing.assert_allclose(m, m.T)

    def test_dimension_mismatch(self, mendel0_mats):
        with pytest.raises(DimensionMismatch):
            evaluate(mendel0_mats, [1.0, 0.0, 0.0])


class TestMaxPencilRank:
    def test_mendel_invertible_first(self, mendel0_mats):
        w = max_pencil_rank(mendel0_mats)
        assert w.r0 == 2
        assert w.canonical_index == 1
        np.testing.assert_array_equal(w.lambda0, [1.0, 0.0])

    def test_padded_blocks_top_out(self):
        mats = m_structure_matrices(example_algebra("nota2"))
        w = max_pencil_rank(mats)
        assert w.r0 == 2
        # equal-rank canonical direction is preferred over random candidates
        assert w.canonical_index == 1

    def test_all_zero(self):
        mats = [np.zeros((2, 2)) for _ in range(2)]
        assert max_pencil_rank(mats).r0 == 0

    def test_scale_invariance_of_rank(self, tetraploid0_mats):
        rng = np.random.default_rng(2)
        for _ in range(10):
            lam = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            r1 = numkernel.rank(evaluate(tetraploid0_mats, lam))
            r2 = numkernel.rank(evaluate(tetraploid0_mats, lam / np.linalg.norm(lam)))
            assert r1 == r2

    def test_at_least_each_canonical_rank(self):
        for name, eps in [("nota2", None), ("tetraploid", 0.05), ("mendel3d_ann", 0.2)]:
            mats = m_structure_matrices(example_algebra(name, eps))
            w = max_pencil_rank(mats)
            assert all(w.r0 >= numkernel.rank(m) for m in mats)

    def test_full_support_planted_reaches_full_rank(self):
        # natural squares with full support in every coordinate, then scrambled
        hits = 0
        for seed in range(50):
            rng = np.random.default_rng([seed, 99])
            n = 2 + seed % 4
            tuples = rng.uniform(0.5, 2.0, (n, n)) * rng.choice([-1.0, 1.0], (n, n))
            constants = {(i + 1, i + 1, k + 1): tuples[i, k] for i in range(n) for k in range(n)}
            spec = change_basis(validate(AlgebraSpec(n, "real", constants)), well_conditioned_matrix(n, rng))
            if max_pencil_rank(m_structure_matrices(spec), seed=seed).r0 == n:
                hits += 1
        assert hits == 50

    def test_reproducible_bit_for_bit(self):
        mats = m_structure_matrices(example_algebra("nota2"))
        a = max_pencil_rank(mats, trials=8, seed=123)
        b = max_pencil_rank(mats, trials=8, seed=123)
        assert a.r0 == b.r0 and a.trials_used == b.trials_used
        assert a.lambda0.tobytes() == b.lambda0.tobytes()

    def test_array_stack(self):
        mats = m_structure_matrices(example_algebra("nota2"))
        a = max_pencil_rank(list(mats), trials=8, seed=5)
        b = max_pencil_rank(np.array(list(mats)), trials=8, seed=5)
        assert (a.r0, a.trials_used, a.canonical_index) == (b.r0, b.trials_used, b.canonical_index)
        assert a.lambda0.tobytes() == b.lambda0.tobytes()

    @pytest.mark.parametrize("empty", [[], np.zeros((0, 2, 2))])
    def test_empty_stack(self, empty):
        with pytest.raises(DimensionMismatch):
            max_pencil_rank(empty)

    def test_trials_must_be_positive(self, mendel0_mats):
        with pytest.raises(ValueError):
            max_pencil_rank(mendel0_mats, trials=0)
