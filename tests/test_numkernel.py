import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoalg import (
    adversarial_instance,
    algebra,
    annihilator_basis,
    complexify,
    decision,
    example_algebra,
    is_evolution_algebra,
    numkernel,
    planted_evolution_algebra,
)
from evoalg.corpus import ADVERSARIAL_KINDS
from evoalg.numkernel import (
    DEFAULT_TOL,
    ToleranceContext,
    complete_to_basis,
    eigen_structure,
    kernel_basis,
    rank,
)
from conftest import similarity_family
from probe import EXAMPLES, scrambled_planted

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


def low_rank_stack(field: str, n: int = 6, seed: int = 0) -> np.ndarray:
    """A ``(n + 1, n, n)`` stack whose matrix ``r`` has rank ``r``: complex, real non-symmetric or real symmetric."""
    rng = np.random.default_rng(seed)
    mats = []
    for r in range(n + 1):
        left = rng.standard_normal((n, r))
        if field == "symmetric":
            m = left @ np.diag(rng.choice([-1.0, 1.0], r)) @ left.T
            mats.append((m + m.T) / 2)  # exactly symmetric: each pair of entries is one rounded sum
            continue
        if field == "complex":
            left = left + 1j * rng.standard_normal((n, r))
        mats.append(left @ rng.standard_normal((r, n)))
    return np.asarray(mats)


class TestSplit:
    @pytest.mark.parametrize("field", ["complex", "nonsymmetric"])
    @pytest.mark.parametrize("atol", [0.0, 1e-3])
    def test_each_row_of_a_stack_is_its_matrix_split_alone(self, field, atol):
        stack = low_rank_stack(field)
        ranks, values, vh = numkernel._split(stack, DEFAULT_TOL, atol)
        assert vh is None and values.shape == stack.shape[:2]
        for m, r, s in zip(stack, ranks.tolist(), values):
            alone, want, _ = numkernel._split(m, DEFAULT_TOL, atol)
            assert r == alone
            assert s.tobytes() == want.tobytes()
        assert ranks.tolist() == list(range(len(stack)))

    def test_a_real_symmetric_stack_ranks_as_the_svd(self, monkeypatch):
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(a, *args, **kwargs):
            solved.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        for seed in range(5):
            stack = low_rank_stack("symmetric", seed=seed)
            ranks, values, _ = numkernel._split(stack, DEFAULT_TOL)
            assert solved.pop() == stack.shape  # the eigvalsh path, not the SVD
            n = stack.shape[1]
            for m, r, s in zip(stack, ranks.tolist(), values):
                alone, want, _ = numkernel._split(m, DEFAULT_TOL)
                assert r == alone and type(alone) is int
                # the moduli of the eigenvalues are the singular values to rounding
                assert np.max(np.abs(s - want)) <= 8 * n * np.finfo(float).eps * want[0]
            assert not solved  # one matrix takes the SVD, so the reference is independent of eigvalsh
            assert ranks.tolist() == list(range(len(stack)))

    @pytest.mark.parametrize("field", ["complex", "nonsymmetric", "symmetric"])
    def test_a_zero_matrix_in_a_stack_has_rank_zero(self, field):
        stack = low_rank_stack(field)
        stack[[0, 3]] = 0.0
        ranks, values, _ = numkernel._split(stack, DEFAULT_TOL)
        assert ranks[0] == ranks[3] == 0 and not np.any(values[[0, 3]])
        assert ranks.tolist()[4:] == list(range(4, len(stack)))


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
                assert res <= 10 * max(1.0, float(np.linalg.norm(m))) * DEFAULT_TOL.eig_cluster_atol + 1e-10


def reference_single_linkage(values, radius):
    """Union-find over every pair of eigenvalues: ``(centroid, multiplicity)`` sorted by centroid."""
    parent = list(range(values.size))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(values.size):
        for j in range(i + 1, values.size):
            if abs(values[i] - values[j]) <= radius:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(values.size):
        groups.setdefault(find(i), []).append(i)
    clusters = [(complex(np.mean(values[members])), len(members)) for members in groups.values()]
    return sorted(clusters, key=lambda c: (c[0].real, c[0].imag))


def reference_eigen_structure(m, tol=DEFAULT_TOL):
    """The clustering of ``eigen_structure`` with a kernel SVD of ``M - cI`` for every cluster."""
    n = m.shape[0]
    values = np.linalg.eigvals(m)
    real = not np.iscomplexobj(m)
    rho = tol.eig_cluster_atol
    while rho <= 1e-2:
        radius = rho * max(1.0, float(np.linalg.norm(m)))
        clusters = []
        consistent = True
        for centroid, mult in reference_single_linkage(values, radius):
            shift = centroid.real if real and abs(centroid.imag) <= radius / 2 else centroid
            basis = kernel_basis(m - shift * np.eye(n), tol, atol=radius)
            if basis.shape[1] > mult:
                consistent = False
                break
            clusters.append(numkernel.EigenCluster(centroid, mult, basis))
        if consistent and len(clusters) > 1:
            union = np.hstack([c.basis for c in clusters if c.basis.size])
            if union.shape[1] > 1 and np.linalg.svd(union, compute_uv=False)[-1] <= 100.0 * rho * np.sqrt(n):
                consistent = False
        if consistent:
            return numkernel.EigenStructure(tuple(clusters), radius)
        rho *= 10.0
    raise numkernel.NonConvergence("eigenvalue clustering did not stabilise at any resolution")


def assert_matches_reference(m, tol=DEFAULT_TOL):
    """Same eigenvalues, multiplicities, eigenspace dimensions and radius as the reference, and bases
    of the same dtype spanning the same subspaces; or both raise ``NonConvergence``."""
    try:
        want = reference_eigen_structure(m, tol)
    except numkernel.NonConvergence:
        with pytest.raises(numkernel.NonConvergence):
            eigen_structure(m, tol)
        return
    got = eigen_structure(m, tol)
    assert got.cluster_radius == want.cluster_radius
    assert [(c.eigenvalue, c.multiplicity, c.eigenspace_dim) for c in got.clusters] == [
        (c.eigenvalue, c.multiplicity, c.eigenspace_dim) for c in want.clusters
    ]
    for g, w in zip(got.clusters, want.clusters):
        assert g.basis.dtype == w.basis.dtype
        np.testing.assert_allclose(g.basis.conj().T @ g.basis, np.eye(g.eigenspace_dim), atol=1e-12)
        # the orthogonal projectors onto the two spans agree
        assert np.linalg.norm(g.basis @ g.basis.conj().T - w.basis @ w.basis.conj().T) <= 1e-9


def adversarial_eigen_inputs(tol):
    """The similarity families of the adversarial corpus at n = 3..12, at the point the decision solves them.

    Every matrix of every family, not only those the decision visits.  A
    verdict reports that point unless the decision ends in a numerical
    failure.  ``ann_mismatch`` is refuted before the similarity stage and has
    no family.
    """
    inputs = []
    for kind in ("defective", "noncommuting"):
        for n in range(3, 13):
            for seed in (None, *range(10)):
                spec = adversarial_instance(kind, n, seed=seed)
                solved = similarity_family(spec, tol)
                if solved is None:
                    continue
                lam0, family = solved
                reported = is_evolution_algebra(spec, tol).diagnostics.lambda0
                assert reported is None or np.array_equal(reported, lam0), (kind, n, seed)
                inputs += family
    return inputs


class TestOneEig:
    """``eigen_structure`` against the kernel-per-cluster algorithm it replaces."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_random_matrices(self, field):
        rng = np.random.default_rng(17)
        for n in range(2, 13):
            for _ in range(5):
                m = rng.standard_normal((n, n))
                assert_matches_reference(m + 1j * rng.standard_normal((n, n)) if field == "complex" else m)

    @pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_perturbed_jordan_blocks(self, eps):
        rng = np.random.default_rng(int(-np.log10(eps)))
        for size in (2, 3, 4):
            for lam in (0.0, 1.0, -3.5):
                j = lam * np.eye(size) + np.diag(np.ones(size - 1), 1)
                j[-1, 0] = eps
                assert_matches_reference(j)
                # next to two simple eigenvalues, in an orthogonally scrambled basis
                padded = np.diag([0.0] * size + [5.0, -2.0])
                padded[:size, :size] = j
                q = np.linalg.qr(rng.standard_normal((size + 2, size + 2)))[0]
                assert_matches_reference(q @ padded @ q.T)

    @pytest.mark.parametrize("m", [MENDEL_N, TETRA_N], ids=["mendel", "tetraploid"])
    def test_named_defective(self, m):
        assert_matches_reference(m)
        assert_matches_reference(m.astype(complex))

    @pytest.mark.parametrize("tol", [ToleranceContext(), ToleranceContext(eig_cluster_atol=1e-5)], ids=["default", "atol1e-5"])
    def test_adversarial_similarity_families(self, tol):
        inputs = adversarial_eigen_inputs(tol)
        assert len(inputs) > 1000
        for m in inputs:
            assert_matches_reference(m, tol)

    def test_separated_spectrum_makes_at_most_two_svds(self, monkeypatch):
        # one SVD for kappa(V) and one for the union test; a kernel per cluster would make 25
        q = np.linalg.qr(np.random.default_rng(5).standard_normal((24, 24)))[0]
        m = q @ np.diag(np.arange(1.0, 25.0)) @ q.T
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        es = eigen_structure(m)
        assert len(calls) <= 2
        assert len(es.clusters) == 24 and all(c.basis.dtype == np.float64 for c in es.clusters)
        monkeypatch.undo()
        assert_matches_reference(m)

    def test_simple_eigenvalues_the_bound_misses_are_measured_in_one_svd(self, monkeypatch):
        # a Jordan pair perturbed by 1e-14 makes kappa(V) about 8.5e6, so gap / kappa(V) misses the
        # floor for each of the ten simple eigenvalues 4..13; one stacked values-only SVD of M - lI
        # finds each kernel a line with a margin, and only the pair's cluster takes a kernel SVD
        b = np.diag([2.0, 2.0] + [float(v) for v in range(4, 14)])
        b[0, 1], b[1, 0] = 1.0, 1e-14
        q = np.linalg.qr(np.random.default_rng(7).standard_normal((12, 12)))[0]
        m = q @ b @ q.T
        values, vectors = np.linalg.eig(m)
        gaps = np.sort(np.abs(values[:, None] - values[None, :]), axis=1)[:, 1]
        # below 2 * radius, so below the floor of every eigenvalue
        assert gaps.max() / np.linalg.cond(vectors) < 2.0 * DEFAULT_TOL.eig_cluster_atol * np.linalg.norm(m)
        svds, kernels = [], []
        svd, kernel = np.linalg.svd, numkernel.kernel_basis

        def recording_svd(a, *args, **kwargs):
            svds.append((np.shape(a), kwargs.get("compute_uv", True)))
            return svd(a, *args, **kwargs)

        def recording_kernel(a, *args, **kwargs):
            kernels.append(a)
            return kernel(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(numkernel, "kernel_basis", recording_kernel)
        es = eigen_structure(m)
        assert [(c.multiplicity, c.eigenspace_dim) for c in es.clusters] == [(2, 1)] + [(1, 1)] * 10
        assert [shape for shape, _ in svds if len(shape) == 3] == [(10, 12, 12)]
        assert all(not uv for shape, uv in svds if len(shape) == 3)
        assert len(kernels) == 1  # the pair
        monkeypatch.undo()
        assert_matches_reference(m)

    def test_close_simple_eigenvalues_take_the_kernel(self, monkeypatch):
        # eigenvalues 1 and 1 + 1e-4 are simple at radius 1e-5, but kappa(V) = 2e3 leaves
        # their separation bound 5e-8, below the floor of 2e-5: both take a kernel SVD
        b = np.diag([1.0, 1.0 + 1e-4, 2.0, 3.0])
        b[2, 3] = 1e3
        q = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))[0]
        m = q @ b @ q.T
        shifts = []
        kernel = numkernel.kernel_basis

        def recording_kernel(a, *args, **kwargs):
            shifts.append(a)
            return kernel(a, *args, **kwargs)

        monkeypatch.setattr(numkernel, "kernel_basis", recording_kernel)
        es = eigen_structure(m)
        assert len(shifts) == 2
        assert [c.multiplicity for c in es.clusters] == [1, 1, 1, 1]
        monkeypatch.undo()
        assert_matches_reference(m)


def reference_phase_canonical(columns):
    """``_phase_canonical`` one column at a time."""
    out = columns.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        mags = np.abs(col)
        top = float(np.max(mags)) if mags.size else 0.0
        if top == 0.0:
            continue
        i = int(np.argmax(mags >= top * (1.0 - 1e-9)))
        pivot = col[i]
        if np.iscomplexobj(out):
            out[:, j] = col * (np.conj(pivot) / mags[i])
        elif pivot < 0:
            out[:, j] = -col
    return out


class TestPhaseCanonical:
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bytes_equal_the_per_column_loop(self, field, order):
        rng = np.random.default_rng(23)
        for rows, cols in [(0, 3), (3, 0), (1, 1), (5, 1), (4, 4), (7, 3), (24, 24)]:
            for exponent in (-300, 0, 300):
                a = rng.standard_normal((rows, cols)) * 10.0**exponent
                if field == "complex":
                    a = a + 1j * rng.standard_normal((rows, cols)) * 10.0**exponent
                if cols > 1:
                    a[:, 0] = 0.0  # a zero column is left as it is
                a = np.asarray(a, order=order)
                got, want = numkernel._phase_canonical(a), reference_phase_canonical(a)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_last_bit_ties_take_the_first_entry(self, field):
        one_ulp_less = np.nextafter(1.0, 0.0)
        a = np.array([[one_ulp_less, -1.0, -(1.0 - 1e-7), 0.5], [-1.0, one_ulp_less, -1.0, -1.0], [0.25, 0.0, 0.0, 0.0]])
        if field == "complex":
            a = a * np.exp(1j * np.array([0.3, -1.2, 2.0, 3.0]))
        got, want = numkernel._phase_canonical(a), reference_phase_canonical(a)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # a first entry one ulp below the largest modulus is the pivot; one 1e-7 below is not
        pivots = got[[0, 0, 1, 1], [0, 1, 2, 3]]
        assert np.all(pivots.real > 0) and np.all(np.abs(pivots.imag) <= 1e-15)
        assert got[1, 0].real < 0


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
    def test_tetraploid_products_commute(self, tetraploid0_mats):
        m1, m2, m3 = tetraploid0_mats
        inv1 = np.linalg.inv(m1)
        a, b = inv1 @ m2, inv1 @ m3
        product = np.array([[-5.0, -12.0, -21.0], [15.0, 31.0, 51.0], [-12.0, -21.0, -32.0]])
        np.testing.assert_allclose(a @ b, product, atol=1e-9)
        np.testing.assert_allclose(b @ a, product, atol=1e-9)
        assert np.linalg.norm(a @ b - b @ a) <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(b)


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

    def test_matches_the_column_stack_loop(self):
        # reference: the loop as it was, growing q by one column_stack per step
        def reference(columns):
            n, k = columns.shape
            q = columns.astype(columns.dtype, copy=True)
            chosen = []
            for _ in range(n - k):
                row_norms = np.sum(np.abs(q) ** 2, axis=1) if q.size else np.zeros(n)
                residuals = 1.0 - row_norms
                residuals[chosen] = -np.inf
                i = int(np.argmax(residuals))
                if residuals[i] <= 1e-12:
                    raise np.linalg.LinAlgError("cannot complete to a basis; span already full")
                chosen.append(i)
                e = np.zeros(n, dtype=q.dtype)
                e[i] = 1.0
                v = e - q @ (q.conj().T @ e) if q.size else e
                v = v / np.linalg.norm(v)
                q = np.column_stack([q, v]) if q.size else v.reshape(n, 1)
            return chosen

        rng = np.random.default_rng(29)
        cases = []
        for n in range(1, 13):
            cases.append(np.zeros((n, 0)))
            cases.append(np.zeros((n, 0), dtype=complex))
            for k in range(1, n):
                for _ in range(3):
                    cases.append(np.linalg.qr(rng.standard_normal((n, k)))[0])
                    cases.append(np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0])
                cases.append(np.eye(n)[:, rng.permutation(n)[:k]])  # standard vectors
                tied = np.zeros((n, k))
                for j in range(k):  # columns (e_a + e_b) / sqrt(2): rows tie in pairs
                    tied[[j, (j + k) % n], j] = 1 / np.sqrt(2)
                if np.linalg.matrix_rank(tied) == k:
                    cases.append(np.linalg.qr(tied)[0] if k > 1 else tied)
        for n in (16, 24, 32):  # decisions reach n = 64; a few larger spans, real and complex
            for k in (1, n // 4, n // 2, n - 1):
                cases.append(np.linalg.qr(rng.standard_normal((n, k)))[0])
                cases.append(np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0])
        # the annihilators the decision completes: planted n = 2..48 as decided and in complex arithmetic,
        # kappa-scrambled, adversarial (seeded and not) and the named examples
        specs = []
        for n in range(2, 49):
            for seed in range(4 if n <= 12 else 1):
                spec = planted_evolution_algebra(n, seed=seed)[0]
                specs += [spec, complexify(spec)]
        specs += [scrambled_planted(n, kappa, seed)[0] for n in (4, 6, 8) for kappa in 10.0 ** np.arange(2, 9)
                  for seed in range(20)]
        specs += [adversarial_instance(kind, n, seed) for kind in ADVERSARIAL_KINDS for n in range(3, 13)
                  for seed in (None, *range(10))]
        specs += [example_algebra(name, eps) for name, eps in EXAMPLES]
        annihilators = [algebra._annihilator(decision._tensor(spec), DEFAULT_TOL) for spec in specs]
        annihilators += [annihilator_basis(spec) for spec in specs if spec.field == "complex"]
        cases += [ann for ann in annihilators if ann.shape[1]]
        for columns in cases:
            assert complete_to_basis(columns) == reference(columns)
        assert len(cases) > 900
