import numpy as np
import pytest

from evoalg import (
    EVOLUTION,
    NOT_EVOLUTION,
    adversarial_instance,
    check_certificate,
    example_algebra,
    is_evolution_algebra,
    planted_evolution_algebra,
    quotient_by_annihilator,
)
from evoalg.corpus import ADVERSARIAL_KINDS, EXAMPLE_NAMES, OutOfRangeEpsilon
from evoalg.sdc import KernelDimensionMismatch
from evoalg.sds import NonCommuting, NonDiagonalisable

EXPECTED_REFUTATION = {
    "defective": NonDiagonalisable,
    "noncommuting": NonCommuting,
    "ann_mismatch": KernelDimensionMismatch,
}


class TestExampleTables:
    def test_simple2d_table(self):
        spec = example_algebra("simple2d")
        assert spec.constants == {(1, 1, 1): 1.0, (1, 2, 2): 1.0, (2, 2, 1): 1.0}

    def test_mendel_classical_table(self):
        spec = example_algebra("mendel", 0.0)
        assert spec.constants == {(1, 1, 1): 1.0, (1, 2, 1): 0.5, (1, 2, 2): 0.5, (2, 2, 2): 1.0}

    def test_mendel_deformed_entries(self):
        spec = example_algebra("mendel", 0.25)
        assert spec.constants[(1, 1, 1)] == 0.75
        assert spec.constants[(1, 1, 2)] == 0.25

    def test_tetraploid_deformed_entries(self):
        eps = 0.1
        spec = example_algebra("tetraploid", eps)
        assert spec.constants[(1, 1, 2)] == pytest.approx(8 * eps)
        assert spec.constants[(2, 2, 3)] == pytest.approx(1 / 6 + 13 * eps)
        assert spec.constants[(1, 2, 3)] == pytest.approx(10 * eps)
        assert spec.constants[(3, 3, 3)] == pytest.approx(1 + 10 * eps)

    def test_epsilon_defaults_to_zero(self):
        assert example_algebra("mendel") == example_algebra("mendel", 0.0)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            example_algebra("sporadic")

    @pytest.mark.parametrize("name,eps", [("mendel", 1.5), ("mendel", -0.1), ("tetraploid", 0.3)])
    def test_out_of_range_epsilon(self, name, eps):
        with pytest.raises(OutOfRangeEpsilon):
            example_algebra(name, eps)

    def test_epsilon_rejected_for_fixed_examples(self):
        with pytest.raises(OutOfRangeEpsilon):
            example_algebra("simple2d", 0.5)


VERDICT_TABLE = [
    ("simple2d", None, EVOLUTION),
    ("mendel", 0.0, NOT_EVOLUTION),
    ("mendel", 0.5, EVOLUTION),
    ("tetraploid", 0.0, NOT_EVOLUTION),
    ("tetraploid", 0.1, EVOLUTION),
    ("tetraploid", 2.0 / 9.0, EVOLUTION),
    ("nota2", None, NOT_EVOLUTION),
    ("mendel3d_ann", 0.0, NOT_EVOLUTION),
    ("mendel3d_ann", 0.5, EVOLUTION),
]


class TestFixtureVerdictTable:
    @pytest.mark.parametrize("name,eps,want", VERDICT_TABLE)
    def test_verdict(self, name, eps, want):
        assert is_evolution_algebra(example_algebra(name, eps)).outcome == want

    def test_quotient_of_padded_mendel_is_classical_mendel(self):
        assert quotient_by_annihilator(example_algebra("mendel3d_ann", 0.0)) == example_algebra("mendel", 0.0)


class TestPlanted:
    def test_small_sweep(self):
        for seed in range(25):
            n = 1 + seed % 6
            spec, planted = planted_evolution_algebra(n, seed=seed)
            assert spec.dim == n
            assert np.linalg.matrix_rank(planted) == n
            v = is_evolution_algebra(spec)
            assert v.outcome == EVOLUTION
            assert check_certificate(spec, v.certificate.p).ok

    def test_zero_density_gives_zero_algebra(self):
        spec, _ = planted_evolution_algebra(3, density=0.0, seed=1)
        assert spec.constants == {}
        v = is_evolution_algebra(spec)
        assert v.outcome == EVOLUTION
        np.testing.assert_array_equal(v.certificate.p, np.eye(3))

    @pytest.mark.parametrize("density", [float("nan"), -1.0, -1e-9, 1.0 + 1e-9, 2.0, float("inf")])
    def test_density_outside_the_unit_interval_is_rejected(self, density):
        with pytest.raises(ValueError, match="density"):
            planted_evolution_algebra(3, density=density, seed=1)

    def test_density_one_fills_every_kept_square(self):
        spec, _ = planted_evolution_algebra(3, density=1.0, seed=1)
        assert is_evolution_algebra(spec).outcome == EVOLUTION

    def test_one_dimensional_always_evolution(self):
        for seed in range(5):
            spec, _ = planted_evolution_algebra(1, seed=seed)
            assert is_evolution_algebra(spec).outcome == EVOLUTION

    def test_reproducible(self):
        a, _ = planted_evolution_algebra(4, seed=9)
        b, _ = planted_evolution_algebra(4, seed=9)
        assert a == b


class TestAdversarial:
    def test_canonical_embeddings(self):
        assert adversarial_instance("defective", 2) == example_algebra("mendel", 0.0)
        assert adversarial_instance("noncommuting", 3) == example_algebra("nota2")

    @pytest.mark.parametrize("kind", ADVERSARIAL_KINDS)
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_refutation_kind_matches_label(self, kind, n, seed):
        spec = adversarial_instance(kind, n, seed)
        v = is_evolution_algebra(spec)
        assert v.outcome == NOT_EVOLUTION
        assert isinstance(v.refutation, EXPECTED_REFUTATION[kind])

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            adversarial_instance("typo", 3)

    def test_small_dimensions_rejected(self):
        with pytest.raises(ValueError):
            adversarial_instance("ann_mismatch", 2)
        with pytest.raises(ValueError):
            adversarial_instance("noncommuting", 2)
        with pytest.raises(ValueError):
            adversarial_instance("defective", 1)

    def test_names_are_stable(self):
        assert EXAMPLE_NAMES == ("simple2d", "nota2", "mendel", "mendel3d_ann", "tetraploid")
        assert ADVERSARIAL_KINDS == ("defective", "noncommuting", "ann_mismatch")
