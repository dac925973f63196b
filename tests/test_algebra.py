import cmath
import copy
import pickle

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
    check_certificate,
    complexify,
    example_algebra,
    is_evolution_algebra,
    m_structure_matrices,
    multiply,
    planted_evolution_algebra,
    quotient_by_annihilator,
    validate,
)
from evoalg import algebra, numkernel
from evoalg.corpus import ADVERSARIAL_KINDS, EXAMPLE_NAMES, adversarial_instance
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

    def test_rejects_bool_dim(self):
        spec = AlgebraSpec(True, "real", {(1, 1, 1): 1.0})
        for f in (validate, m_structure_matrices, is_evolution_algebra):
            with pytest.raises(MalformedSpec, match="dimension must be a positive integer"):
                f(spec)

    @pytest.mark.parametrize("value", [None, "x", 10**400])
    def test_rejects_value_that_is_not_a_number(self, value):
        with pytest.raises(MalformedSpec, match=r"constant at \(1, 2, 2\) does not convert to a complex number"):
            validate(AlgebraSpec(2, "real", {(1, 1, 1): 1.0, (1, 2, 2): value}))

    def test_rejects_infinite_index(self):
        with pytest.raises(MalformedSpec, match=r"constant key \(inf, 2, 2\) is not an \(i, j, k\) index triple"):
            validate(AlgebraSpec(2, "real", {(1, 1, 1): 1.0, (float("inf"), 2, 2): 2.0}))


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


def loop_validate(spec):
    """Reference: the per-entry loop that ``validate`` replaced, with the same fixes since.

    A ``bool`` dimension, an index ``int()`` overflows on and a value
    ``complex()`` cannot read or overflows on are rejected with a
    ``MalformedSpec``.
    """
    if not isinstance(spec.dim, int) or isinstance(spec.dim, bool) or spec.dim < 1:
        raise MalformedSpec(f"dimension must be a positive integer, got {spec.dim!r}")
    if spec.field not in ("real", "complex"):
        raise MalformedSpec(f"field must be 'real' or 'complex', got {spec.field!r}")
    n = spec.dim
    real = spec.field == "real"
    canonical = {}
    for key, value in spec.constants.items():
        try:
            i, j, k = map(int, key)
        except (TypeError, ValueError, OverflowError):
            raise MalformedSpec(f"constant key {key!r} is not an (i, j, k) index triple") from None
        if not (1 <= i <= j <= n and 1 <= k <= n):
            raise MalformedSpec(f"index triple {key!r} out of range for dimension {n} (need 1 <= i <= j <= n, 1 <= k <= n)")
        try:
            v = complex(value)
        except (TypeError, ValueError, OverflowError):
            raise MalformedSpec(f"constant at {key!r} does not convert to a complex number: {value!r}") from None
        if not cmath.isfinite(v):
            raise MalformedSpec(f"constant at {key!r} is not finite: {value!r}")
        if real and v.imag:
            raise MalformedSpec(f"constant at {key!r} has non-zero imaginary part under field: real")
        if v:
            # a real algebra's constants are read back from its float64 tensor
            canonical[(i, j, k)] = complex(v.real) if real else v
    labels = spec.labels
    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise MalformedSpec(f"{len(labels)} labels for dimension {n}")
    return AlgebraSpec(n, spec.field, canonical, labels)


def loop_tensor(spec):
    """Reference: the structure tensor of ``loop_validate(spec)``, one entry at a time."""
    spec = loop_validate(spec)
    n = spec.dim
    t = np.zeros((n, n, n), dtype=np.float64 if spec.field == "real" else np.complex128)
    for (i, j, k), v in spec.constants.items():
        t[k - 1, i - 1, j - 1] = t[k - 1, j - 1, i - 1] = v.real if spec.field == "real" else v
    return t


def _outcome(f, spec):
    """What ``f(spec)`` did: the exact spec or tensor it returned, or the error it raised."""
    try:
        out = f(spec)
    except Exception as exc:  # a failure of the pass must show up as a difference, whatever its type
        return "raised", type(exc), str(exc)
    if isinstance(out, np.ndarray):
        return "returned", out.dtype, out.shape, out.tobytes()
    # repr keeps the types of keys and values; a checked spec lists its triples
    # in sorted (i, j, k) order, whatever the order they were given in
    return "returned", out.dim, out.field, repr(sorted(out.constants.items())), out.labels


def assert_same_as_loop(spec):
    validated = _outcome(validate, spec)
    assert validated == _outcome(loop_validate, spec)
    assert validated[0] == "returned" or validated[1] is MalformedSpec, validated
    if validated[0] == "returned":
        keys = list(validate(spec).constants)
        assert keys == sorted(keys)
    assert _outcome(m_structure_matrices, spec) == _outcome(loop_tensor, spec)


class TestArrayPassMatchesLoop:
    """``validate`` and ``m_structure_matrices`` agree with the per-entry loop, error for error."""

    def test_corpus_and_fixtures(self):
        specs = [example_algebra(name) for name in EXAMPLE_NAMES]
        specs += [example_algebra("mendel", 0.25), example_algebra("tetraploid", 0.1), example_algebra("mendel3d_ann", 0.2)]
        specs += [planted_evolution_algebra(n, seed=s)[0] for n in (1, 2, 5, 8) for s in (0, 1)]
        specs += [adversarial_instance(kind, 4, seed) for kind in ADVERSARIAL_KINDS for seed in (None, 3)]
        specs += [change_basis(example_algebra("simple2d"), np.array([[1.0, 1j], [1.0, -1j]]))]
        specs += [AlgebraSpec(3, "real", {}), AlgebraSpec(2, "real", SIMPLE2D, labels=("u", 7))]
        for spec in specs:
            assert_same_as_loop(spec)
            # the same constants as a user would write them: float values for a real algebra
            floats = {key: v.real if spec.field == "real" else v for key, v in spec.constants.items()}
            assert_same_as_loop(AlgebraSpec(spec.dim, spec.field, floats, spec.labels))

    @pytest.mark.parametrize(
        "key",
        [(1, 1), (1, 1, 1, 1), None, 5, "11", (1.0, 2, 2), (1.7, 2.2, "2"), (np.int64(1), np.int32(2), np.int8(2)),
         (2**70, 2, 2), (1, 2**70, 1), (-(2**70), 1, 1), (np.uint64(2**63 + 5), 1, 1), (float("nan"), 2, 2),
         (float("inf"), 2, 2), ("1", "x", "2"), (2, 1, 1), (1, 1, 0), (1, 1, 3), (0, 1, 1), (1, 3, 1), "122"],
    )
    def test_keys(self, key):
        assert_same_as_loop(AlgebraSpec(2, "real", {(1, 1, 1): 1.0, key: 2.0}))

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), -float("inf"), complex(1, float("nan")), 1 + 1j, 1 - 0j, complex(0, -0.0), 0, 0.0,
         -0.0, 0j, 3, 2**60 + 1, 10**400, np.float32(0.1), np.int64(-4), True, "1+2j", "2", "x", b"1", None, [1.0],
         complex(1, -0.0)],
    )
    def test_values(self, field, value):
        assert_same_as_loop(AlgebraSpec(2, field, {(1, 1, 1): 1.0, (1, 2, 2): value}))

    def test_exact_zeros_are_dropped(self):
        spec = AlgebraSpec(2, "real", {(1, 1, 1): 0.0, (1, 2, 2): 1.0, (2, 2, 1): -0.0, (2, 2, 2): 0j})
        assert validate(spec).constants == {(1, 2, 2): 1.0}
        assert_same_as_loop(spec)

    def test_duplicates_after_conversion(self):
        # equal keys collapse in the dict itself, and a triple given twice keeps
        # its last non-zero value; the checked spec lists it in sorted order
        for constants in (
            {(1, 2, 2): 5.0, (1.0, 2, 2): 3.0, (1, 1, 1): 1.0},
            {(1, 2, 2): 5.0, (1.0, 2, 2): 0.0},
            {(1, 2, 2): 0.0, (1.0, 2, 2): 3.0, (1, 1, 1): 1.0},
        ):
            assert_same_as_loop(AlgebraSpec(2, "real", constants))

    @pytest.mark.parametrize(
        "constants",
        [
            {(1, 1, 3): 1.0, (1, 1, 1): float("nan")},
            {(1, 1, 1): float("nan"), (1, 1, 3): 1.0},
            {(1, 1, 1): 1j, (2, 1, 1): 1.0},
            {(1, 1, 1): float("nan"), None: 1.0},
            {None: 1.0, (1, 1, 1): float("nan")},
            {(1, 1, 1): None, (2**70, 1, 1): 1.0},
            {(2**70, 1, 1): 1.0, (1, 1, 1): None},
            {(1, 1, 1): 1.0, (1, 2, 2): "x", (1, 1): 1.0},
        ],
    )
    def test_first_bad_entry_is_reported(self, constants):
        assert_same_as_loop(AlgebraSpec(2, "real", constants))

    @pytest.mark.parametrize(
        "dim, field, labels",
        [(0, "real", None), (-1, "real", None), (2.0, "real", None), ("2", "real", None), (True, "real", None),
         (2, "quaternion", None), (2, "real", ("x",)), (2, "real", ("x", "y", "z")), (2, "complex", ("x", 2))],
    )
    def test_header(self, dim, field, labels):
        assert_same_as_loop(AlgebraSpec(dim, field, {(1, 1, 1): 1.0}, labels))

    def test_checked_constants_reused_under_another_header(self):
        # a checked spec's constants under another field, dim or labels go through the dict pass
        real = example_algebra("tetraploid", 0.1)
        rotated = change_basis(example_algebra("simple2d"), np.array([[1.0, 1j], [1.0, -1j]]))
        assert any(v.imag for v in rotated.constants.values())
        for constants in (real.constants, complexify(real).constants, rotated.constants):
            for dim, field, labels in [(d, f, None) for d in (1, 2, 3, 4, True) for f in ("real", "complex")] + [
                (3, "real", ("x",)), (3, "complex", ("x", 2, None)), (3, "quaternion", None)
            ]:
                assert_same_as_loop(AlgebraSpec(dim, field, constants, labels))

    @given(
        st.integers(1, 4),
        st.sampled_from(["real", "complex"]),
        st.dictionaries(
            st.one_of(
                st.tuples(st.integers(-1, 5), st.integers(-1, 5), st.integers(-1, 5)),
                st.tuples(st.floats(0, 5, allow_nan=False), st.integers(1, 4), st.integers(1, 4)),
                st.tuples(st.integers(1, 4), st.integers(1, 4)),
            ),
            st.one_of(
                st.sampled_from([0.0, -0.0, 0j, 1.0, -2.5, 1j, float("nan"), float("inf")]),
                st.floats(-1e300, 1e300, allow_nan=False),
                st.complex_numbers(max_magnitude=1e10, allow_nan=False),
            ),
            max_size=12,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_specs(self, dim, field, constants):
        assert_same_as_loop(AlgebraSpec(dim, field, constants))
        # and the accepted part of it, so that most runs also compare a returned spec and tensor
        valid = {k: v for k, v in constants.items() if _outcome(loop_validate, AlgebraSpec(dim, field, {k: v}))[0] == "returned"}
        assert_same_as_loop(AlgebraSpec(dim, field, valid))


def _fingerprint(verdict):
    c = verdict.certificate
    return verdict.outcome, c.p.tobytes(), c.natural_basis_products.tobytes()


class TestCheckedSpec:
    """A checked spec holds its structure tensor; its constants are a read-only view of it."""

    def test_later_change_to_the_given_dict_does_not_reach_the_spec(self):
        d = dict(planted_evolution_algebra(6, seed=3)[0].constants)
        spec = validate(AlgebraSpec(6, "real", d))
        before = dict(spec.constants), m_structure_matrices(spec).tobytes(), _fingerprint(is_evolution_algebra(spec))
        first = next(iter(d))
        d[first] = 7.0
        d[(1, 1, 1)] = -3.0
        d.pop(next(k for k in d if k != first and k != (1, 1, 1)))
        assert dict(spec.constants) == before[0]
        assert m_structure_matrices(spec).tobytes() == before[1]
        assert _fingerprint(is_evolution_algebra(spec)) == before[2]

    def test_constants_and_tensor_are_read_only(self):
        spec = example_algebra("tetraploid", 0.1)
        checked_specs = [spec, change_basis(spec, np.eye(3)), complexify(spec), validate(AlgebraSpec(2, "real", SIMPLE2D))]
        for checked in checked_specs + [pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)]:
            with pytest.raises(TypeError):
                checked.constants[(1, 1, 1)] = 2.0
            with pytest.raises(ValueError):
                m_structure_matrices(checked)[0, 0, 0] = 2.0

    def test_decision_and_check_read_the_dict_once_per_call(self, monkeypatch):
        # the dict pass runs only on a spec whose constants are not a checked view
        passes = []
        scatter = algebra._scatter
        monkeypatch.setattr(algebra, "_scatter", lambda *args: passes.append(args) or scatter(*args))
        spec, _ = planted_evolution_algebra(8, seed=1)
        for given, per_call in ((spec, 0), (AlgebraSpec(8, "real", dict(spec.constants)), 1)):
            passes.clear()
            verdict = is_evolution_algebra(given)
            assert verdict.outcome == "evolution" and len(passes) == per_call
            assert check_certificate(given, verdict.certificate.p).ok
            assert len(passes) == 2 * per_call


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
        # n = 3...8, then 1x1 matrices and the sizes of the benchmark's instances
        for n, seed in [*((3 + seed, seed) for seed in range(6)), (1, 0), (16, 0), (24, 0), (32, 0)]:
            spec, _ = planted_evolution_algebra(n, seed=seed)
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


def reference_adapt(t, ann):
    # the adapted basis as it was built before the exact gather: the full congruence
    # P^T M_k P, re-coordinatised through every entry of P^{-1}, then sliced
    n, a = t.shape[0], ann.shape[1]
    indices = numkernel.complete_to_basis(ann)
    r = n - a
    eye = np.eye(n, dtype=ann.dtype)
    transform = np.column_stack([eye[:, indices], ann]) if r else ann
    pinv = np.linalg.inv(transform)
    congruent = transform.T @ t @ transform
    new = np.stack([np.add.reduce(row[:, None, None] * congruent, axis=0) for row in pinv])
    return transform, ((new + new.transpose(0, 2, 1)) / 2.0)[:, :r, :r]


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_adapt_matches_reference(t, ann):
    adapted = algebra._adapt(t, ann)
    transform, blocks = reference_adapt(t, ann)
    assert_same_bytes(adapted.transform, transform)
    assert_same_bytes(adapted.blocks, blocks)
    return blocks


def sparse_annihilated(field, first, second):
    """A 3-dimensional algebra whose annihilator is ``(0, 0.6, -0.8)``, with ``ann`` given exactly.

    Column 3 of every ``M_k`` is 0.75 times column 2, and the adapted basis is ``e_1, e_2, ann``,
    so ``P^{-1}`` has the exact rows ``(1, 0, 0)``, ``(0, 1, 0.75)`` and ``(0, 0, -1.25)``.
    ``first`` and ``second`` are the ``(1, 1)`` entries of ``M_2`` and ``M_3``.
    """
    tensor = np.zeros((3, 3, 3), dtype=complex if field == "complex" else float)
    for k, (a, b, c) in enumerate([(1.0, 0.5, 2.0), (first, 0.0, 4.0), (second, 0.0, 0.0)]):
        tensor[k] = [[a, b, 0.75 * b], [b, c, 0.75 * c], [0.75 * b, 0.75 * c, 0.5625 * c]]
    spec = validate(AlgebraSpec(3, field, {
        (i + 1, j + 1, k + 1): tensor[k, i, j] for k in range(3) for i in range(3) for j in range(i, 3)
    }))
    return m_structure_matrices(spec), np.array([[0.0], [0.6], [-0.8]], dtype=tensor.dtype)


class TestAdaptMatchesReference:
    """The gathered, zero-skipping adapted basis has the bytes of the full congruence it replaces."""

    @pytest.mark.parametrize("n", range(2, 33))
    def test_planted(self, n):
        for seed in range(4 if n <= 16 else 2):
            spec, _ = planted_evolution_algebra(n, seed=seed)
            for s in (spec, complexify(spec)):
                t = m_structure_matrices(s)
                ann = algebra._annihilator(t, algebra.DEFAULT_TOL)
                if ann.shape[1]:
                    assert_adapt_matches_reference(t, ann)

    @pytest.mark.parametrize("name, eps", [("nota2", None), ("mendel3d_ann", 0.0), ("mendel3d_ann", 0.2)])
    def test_named_examples(self, name, eps):
        for s in (example_algebra(name, eps), complexify(example_algebra(name, eps))):
            t = m_structure_matrices(s)
            assert_adapt_matches_reference(t, algebra._annihilator(t, algebra.DEFAULT_TOL))

    def test_sums_that_cancel_or_hold_only_negative_zeros(self):
        # row 2, entry (1, 1): 1.5 + 0.75 * (-2.0) cancels to +0; row 3, entries (1, 2) and (2, 2):
        # the one term with a non-zero coefficient is -1.25 * 0 = -0, the skipped ones are +-0
        t, ann = sparse_annihilated("real", 1.5, -2.0)
        blocks = assert_adapt_matches_reference(t, ann)
        assert blocks[1, 0, 0] == 0 and blocks[2, 0, 1] == 0 and blocks[2, 1, 1] == 0
        assert not np.signbit(blocks[blocks == 0]).any()

    def test_complex_sum_with_one_zero_part(self):
        # row 2, entry (1, 1): (1.5 + 3j) + 0.75 * (-2 + 1j) = 0 + 3.75j
        t, ann = sparse_annihilated("complex", 1.5 + 3j, -2.0 + 1j)
        blocks = assert_adapt_matches_reference(t, ann)
        assert blocks[1, 0, 0] == 3.75j and not np.signbit(blocks[1, 0, 0].real)

    def test_zero_algebra(self):
        t = m_structure_matrices(validate(AlgebraSpec(3, "real", {})))
        blocks = assert_adapt_matches_reference(t, algebra._annihilator(t, algebra.DEFAULT_TOL))
        assert blocks.shape == (3, 0, 0)

    def test_decision_does_not_recoordinatise(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the decision re-coordinatised the whole tensor")

        specs = [example_algebra("nota2"), planted_evolution_algebra(12, seed=1)[0]]  # the corpus changes basis
        monkeypatch.setattr(algebra, "_recoordinatise", refuse)
        for spec in (*specs, complexify(specs[1])):
            verdict = is_evolution_algebra(spec)
            assert verdict.diagnostics.branch == "b.2" and verdict.outcome in ("evolution", "not_evolution")


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
