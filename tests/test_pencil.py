from dataclasses import replace

import numpy as np
import pytest

from evoalg import (
    AlgebraSpec,
    adapt_basis_to_annihilator,
    adversarial_instance,
    annihilator_basis,
    change_basis,
    complexify,
    example_algebra,
    m_structure_matrices,
    max_pencil_rank,
    planted_evolution_algebra,
    validate,
)
from evoalg.corpus import well_conditioned_matrix
from evoalg.numkernel import DEFAULT_TOL, DimensionMismatch
from evoalg.pencil import DEFAULT_TRIALS, PencilRankWitness, evaluate
from evoalg import numkernel, pencil


def reference_evaluate(mats, lam):
    """One pencil ``sum_j lam_j M_j``, accumulated in index order."""
    out = np.zeros(mats[0].shape, dtype=np.result_type(lam.dtype, *(m.dtype for m in mats)))
    for c, m in zip(lam, mats):
        out += c * m
    return out


def reference_directions(m, seed, trials, real):
    """The documented draw: the rows of one ``default_rng(seed)`` draw, normalised, as complex128."""
    rng = np.random.default_rng(seed)
    if real:
        z = rng.standard_normal((trials, m))
    else:
        parts = rng.standard_normal((trials, 2, m))
        z = parts[:, 0] + 1j * parts[:, 1]
    return (z / np.linalg.norm(z, axis=-1, keepdims=True)).astype(np.complex128)


def reference_max_pencil_rank(mats, tol=DEFAULT_TOL, trials=DEFAULT_TRIALS, seed=0):
    """The pencil search as one loop: one SVD ``_split`` per direction, one pencil evaluation per trial."""
    n, m = mats[0].shape[0], len(mats)
    best = None
    for k in range(m):
        r, s, _ = numkernel._split(np.asarray(mats[k]), tol)
        if best is None or r > best.r0:
            lam = np.zeros(m, dtype=np.complex128)
            lam[k] = 1.0
            best = PencilRankWitness(lam, r, k + 1, canonical_index=k + 1,
                                     smallest_kept_sv=float(s[r - 1]) if r else 0.0)
            if r == n:
                return best
    real = not np.iscomplexobj(mats[0])
    for t, lam in enumerate(reference_directions(m, seed, trials, real)):
        r, s, _ = numkernel._split(reference_evaluate(mats, lam.real if real else lam), tol)
        smin = float(s[r - 1]) if r else 0.0
        if r > best.r0 or (r == best.r0 and best.canonical_index is None and smin > best.smallest_kept_sv):
            best = PencilRankWitness(lam, r, m + t + 1, smallest_kept_sv=smin)
    return replace(best, trials_used=m + trials)


def witness_bytes(w):
    return w.lambda0.tobytes(), w.r0, w.trials_used, w.canonical_index, float(w.smallest_kept_sv).hex()


def real_symmetric(stack):
    stack = np.asarray(stack)
    return not np.iscomplexobj(stack) and np.array_equal(stack, stack.swapaxes(-1, -2))


def leading_blocks(spec):
    return adapt_basis_to_annihilator(spec).blocks


def reference_stacks():
    """``(name, stack, trials, seed)`` covering every way the search can end."""
    for n in range(3, 13):
        for seed in range(12):
            t = m_structure_matrices(adversarial_instance("ann_mismatch", n, seed))
            yield f"ann_mismatch n={n} seed={seed}", t, DEFAULT_TRIALS, seed
    for n in range(3, 13):
        for seed in range(4):
            spec, _ = planted_evolution_algebra(n, seed=seed)
            if annihilator_basis(spec).shape[1]:
                yield f"planted blocks n={n} seed={seed}", leading_blocks(spec), DEFAULT_TRIALS, seed
    for n in (3, 5, 8):
        for seed in (0, 1):
            complex_t = m_structure_matrices(complexify(adversarial_instance("ann_mismatch", n, seed)))
            yield f"complex ann_mismatch n={n} seed={seed}", complex_t, DEFAULT_TRIALS, seed
    for kind, n in (("noncommuting", 4), ("noncommuting", 6)):
        spec = complexify(adversarial_instance(kind, n, 0))
        yield f"complex {kind} blocks n={n}", leading_blocks(spec), DEFAULT_TRIALS, 3
    t = m_structure_matrices(adversarial_instance("ann_mismatch", 6, 2)).copy()
    t[3] = 0.0
    yield "zero M_4", t, DEFAULT_TRIALS, 2
    yield "zero M_1", np.concatenate([np.zeros_like(t[:1]), t[1:]]), DEFAULT_TRIALS, 2
    rng = np.random.default_rng(7)
    full = [well_conditioned_matrix(5, rng) for _ in range(2)]
    singular = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 5))
    yield "first full rank at M_3", np.array([singular, np.zeros((5, 5)), full[0] + full[0].T, full[1]]), 4, 0
    p = well_conditioned_matrix(6, rng)
    units = np.array([p.T @ np.diag(np.eye(6)[k]) @ p for k in range(6)])  # rank 1 each, rank 6 together
    yield "full rank at a random trial", units, DEFAULT_TRIALS, 1
    yield "rank 3 at a random trial", units[:3], DEFAULT_TRIALS, 1
    yield "complex, full rank at a random trial", units * (1.0 + 0.5j), DEFAULT_TRIALS, 1
    yield "complex, rank 3 at a random trial", units[:3] * (1.0 + 0.5j), DEFAULT_TRIALS, 1
    yield "m = 1, full rank", t[:1], 1, 0
    yield "m = 1, singular", t[1:2], 1, 5
    yield "trials = 1", t, 1, 9
    yield "float32", t.astype(np.float32), DEFAULT_TRIALS, 4


REFERENCE_STACKS = list(reference_stacks())


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
        with pytest.raises(DimensionMismatch):
            evaluate(mendel0_mats, np.ones((4, 3)))
        with pytest.raises(DimensionMismatch):
            evaluate(mendel0_mats, 1.0)

    @pytest.mark.parametrize("stack_field, row_field, n, m, shape, as_list", [
        pytest.param("real", "real", 7, 7, (2, 5), False, id="real"),
        pytest.param("complex", "complex", 7, 7, (2, 5), False, id="complex"),
        pytest.param("real", "complex", 7, 7, (2, 5), False, id="real-stack-complex-rows"),
        pytest.param("complex", "real", 7, 7, (2, 5), False, id="complex-stack-real-rows"),
        pytest.param("real", "real", 7, 7, (2, 5), True, id="real-list"),
        pytest.param("complex", "complex", 7, 7, (2, 5), True, id="complex-list"),
        # one stack of the default 16 random trials on an n = 24 refutation
        pytest.param("real", "real", 24, 24, (1, DEFAULT_TRIALS), False, id="refute-n24-trials"),
        # 1x1 matrices, where einsum would reduce over the matrices in another order
        *(pytest.param(stack_field, row_field, 1, m, shape, False, id=f"1x1-{stack_field}-{row_field}-m{m}-{len(shape)}d")
          for stack_field, row_field in (("real", "real"), ("complex", "complex"), ("real", "complex"), ("complex", "real"))
          for m in (3, 17, 33) for shape in ((), (2, 5))),
    ])
    def test_rows_give_the_bytes_of_one_call_per_row(self, stack_field, row_field, n, m, shape, as_list):
        mats = np.ascontiguousarray(m_structure_matrices(adversarial_instance("ann_mismatch", m, 3))[:, :n, :n])
        rng = np.random.default_rng(11)
        dense = rng.standard_normal(shape + (m,))
        if row_field == "complex":
            dense = dense + 1j * rng.standard_normal(shape + (m,))
        sparse = dense.copy()
        sparse[..., 1], sparse[..., 2] = 0.0, -0.0  # products that are zeros of either sign
        if stack_field == "complex":
            mats = mats * (1.0 + 0.5j)
        if as_list:
            mats = list(mats)
        for rows in (dense, sparse):
            out = evaluate(mats, rows)
            assert out.shape == shape + (n, n)
            assert out.dtype == np.result_type(rows, *mats)
            for index in np.ndindex(shape):
                one = evaluate(mats, rows[index]).tobytes()
                assert out[index].tobytes() == one == reference_evaluate(mats, rows[index]).tobytes(), index


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


class TestBatchedSearch:
    @pytest.mark.parametrize("name, stack, trials, seed", REFERENCE_STACKS, ids=[c[0] for c in REFERENCE_STACKS])
    def test_equals_the_one_direction_at_a_time_loop(self, monkeypatch, name, stack, trials, seed):
        symmetric_inputs = []
        eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(a, *args, **kwargs):
            symmetric_inputs.append(real_symmetric(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        got = max_pencil_rank(stack, trials=trials, seed=seed)
        want = reference_max_pencil_rank(stack, trials=trials, seed=seed)
        assert all(symmetric_inputs)  # eigvalsh ranks real symmetric stacks only
        if not real_symmetric(stack):
            # complex and non-symmetric stacks keep the SVD: the bytes of the loop
            assert not symmetric_inputs
            assert witness_bytes(got) == witness_bytes(want)
            return
        # eigvalsh moduli are the singular values to rounding: the same witness, its smallest value to 8 n eps sigma_max
        assert witness_bytes(got)[:4] == witness_bytes(want)[:4]
        sigma_max = float(np.linalg.norm(evaluate(stack, got.lambda0.real), 2))
        bound = 8 * len(stack[0]) * np.finfo(np.asarray(stack).dtype).eps * sigma_max
        assert abs(got.smallest_kept_sv - want.smallest_kept_sv) <= bound

    def test_the_corpus_reaches_every_ending(self):
        ends = set()
        for _, stack, trials, seed in REFERENCE_STACKS:
            w = max_pencil_rank(stack, trials=trials, seed=seed)
            ends.add((w.canonical_index, w.r0 == stack[0].shape[0]))
        assert (1, True) in ends  # at M_1
        assert any(k and k > 1 and full for k, full in ends)  # at a later structure matrix
        assert (None, True) in ends  # at a random trial
        assert (None, False) in ends  # topped out at a random trial
        assert any(k and not full for k, full in ends)  # topped out at a structure matrix


def recorded_calls(monkeypatch, module, name):
    """The arguments of every later call of ``module.name``, in order."""
    calls = []
    function = getattr(module, name)

    def recording(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


def searches_to_the_end(case):
    _, stack, trials, seed = case
    return max_pencil_rank(stack, trials=trials, seed=seed).trials_used == len(stack) + trials


class TestDirections:
    @pytest.mark.parametrize("name", ["rank 3 at a random trial", "complex, rank 3 at a random trial"])
    def test_more_trials_only_add_directions(self, monkeypatch, name):
        _, mats, _, seed = next(c for c in REFERENCE_STACKS if c[0] == name)  # topped out: every trial is ranked
        evaluated = recorded_calls(monkeypatch, pencil, "evaluate")
        few = max_pencil_rank(mats, trials=5, seed=seed)
        more = max_pencil_rank(mats, trials=13, seed=seed)
        drawn = [lam for _, lam in evaluated]
        assert [rows.shape[0] for rows in drawn] == [5, 13]
        assert drawn[0].tobytes() == drawn[1][:5].tobytes()
        assert few.canonical_index is None and few.r0 == more.r0 == 3
        assert np.iscomplexobj(mats) == np.iscomplexobj(drawn[1])

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_trials_are_ranked_in_bounded_stacks(self, monkeypatch, field):
        cases = [c for c in REFERENCE_STACKS if np.iscomplexobj(c[1]) == (field == "complex") and c[2] > 1]
        cases = [c for c in cases if searches_to_the_end(c)]
        assert len(cases) >= 4
        for name, stack, trials, seed in cases:
            evaluated = recorded_calls(monkeypatch, pencil, "evaluate")
            whole = max_pencil_rank(stack, trials=trials, seed=seed)
            n = stack[0].shape[0]
            # three complex pencils, or the canonical scan if that is larger
            bound = max(3 * 16 * n * n, np.asarray(stack[1:]).nbytes)
            monkeypatch.setattr(pencil, "_STACK_BYTES", bound)
            split = recorded_calls(monkeypatch, numkernel, "_split")
            blocked = max_pencil_rank(stack, trials=trials, seed=seed)
            monkeypatch.undo()
            stacks = [s for s, _ in split]
            canonical = 1 + (len(stack) > 1)
            assert len(stacks) > canonical + 1, name  # the trials took more than one stack
            assert sum(len(s) for s in stacks[canonical:]) == trials, name
            assert all(s.nbytes <= bound for s in stacks), name
            # consecutive draws from one generator: the directions of one stack
            rows = [lam for _, lam in evaluated]
            assert np.concatenate(rows[1:]).tobytes() == rows[0].tobytes(), name
            assert witness_bytes(blocked) == witness_bytes(whole), name

    def test_the_default_trials_are_one_stack(self, monkeypatch):
        _, mats, trials, seed = next(c for c in REFERENCE_STACKS if c[0] == "rank 3 at a random trial")
        stacks = recorded_calls(monkeypatch, numkernel, "_split")
        max_pencil_rank(mats, trials=trials, seed=seed)
        assert [len(stack) for stack, _ in stacks] == [1, 2, DEFAULT_TRIALS]

    def test_a_witness_owns_its_direction(self):
        _, units, trials, seed = next(c for c in REFERENCE_STACKS if c[0] == "full rank at a random trial")
        first = max_pencil_rank(units, trials=trials, seed=seed)
        assert first.canonical_index is None
        drawn = first.lambda0.copy()
        first.lambda0[:] = 0.0
        assert max_pencil_rank(units, trials=trials, seed=seed).lambda0.tobytes() == drawn.tobytes()
