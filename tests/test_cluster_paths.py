"""The clustering of the decision against the per-cluster code it replaced.

``eigen_structure`` takes the eigenvectors of its single eigenvalues from one
gather and, on a real spectrum of single eigenvalues, reuses the smallest
singular value of ``V`` for the union test; ``_common_eigenbasis`` and
``_assemble`` handle a whole space of real lines at once.  The functions
below are those of the per-cluster code, kept verbatim as references (only
their names carry a ``reference_`` prefix): on the similarity families the
decision builds, both give the same clusters, to the byte, and the same
transform, or raise the same exception.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np
import pytest

from evoalg import adversarial_instance, algebra, complexify, decision, numkernel, pencil, planted_evolution_algebra, sdc, sds
from evoalg.numkernel import (
    DEFAULT_TOL,
    DimensionMismatch,
    EigenCluster,
    EigenStructure,
    NonConvergence,
    ToleranceContext,
    _as_matrix,
    _phase_canonical,
    _rank_cutoff,
    kernel_basis,
)
from evoalg.pencil import DEFAULT_TRIALS
from evoalg.sdc import gram_factor
from evoalg.sds import NonDiagonalisable
from probe import complex_basis, one_direction, proportional_squares, scrambled_planted


def reference_single_linkage(values: np.ndarray, dist: np.ndarray, radius: float) -> list[tuple[complex, np.ndarray]]:
    """``(centroid, ascending member indices)`` of the components of ``dist <= radius``, by centroid."""
    linked = dist <= radius
    labels = np.arange(values.size)
    while True:  # every index takes the smallest label among its neighbours until none changes
        spread = np.min(np.where(linked, labels, values.size), axis=1, initial=values.size)
        if np.array_equal(spread, labels):
            break
        labels = spread
    roots = np.flatnonzero(labels == np.arange(values.size))  # the smallest index of each component
    single = (np.bincount(labels, minlength=values.size)[roots] == 1).tolist()
    clusters = [(complex(values[r]), roots[k:k + 1]) if single[k] else
                (complex(np.mean(values[labels == r])), np.flatnonzero(labels == r)) for k, r in enumerate(roots)]
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    return clusters


def reference_eigenvector_rcond(values: np.ndarray, vectors: np.ndarray, real: bool) -> float:
    """A lower bound on ``1 / kappa(V)`` for the eigenvectors ``V`` of ``np.linalg.eig``.

    A real matrix with conjugate pairs measures the real form ``R = [Re v, Im v]`` in a
    real SVD: ``V = R D`` with ``D`` block diagonal of condition at most ``sqrt(2)``.
    """
    pairs = real and np.iscomplexobj(vectors)
    if pairs:
        vectors = np.hstack([vectors[:, values.imag >= 0].real, vectors[:, values.imag > 0].imag])
    s = np.linalg.svd(vectors, compute_uv=False)
    return float(s[-1] / s[0] / (np.sqrt(2.0) if pairs else 1.0))


def reference_eigen_structure(m, tol: ToleranceContext = DEFAULT_TOL) -> EigenStructure:
    """Clustered eigenvalues plus an orthonormal basis of each eigenspace.

    Eigenvalues and unit eigenvectors come from one ``np.linalg.eig``, and
    single linkage merges the eigenvalues from the radius
    ``eig_cluster_atol * max(1, ||M||_F)`` on.  The eigenspace of a cluster
    is the numerical kernel of ``M - cI`` at its centroid ``c``, the cutoff
    widened to the merge radius so every member contributes.  A single eigenvalue
    ``l`` takes its eigenvector instead when ``gap / kappa(V)`` exceeds
    ``2 * max(radius, rank_rtol * ||M||_F * n) + n * eps * ||M||_F``: with
    ``M = V diag(l_j) V^-1`` and ``gap`` the distance to the nearest other
    eigenvalue, that bounds the second smallest singular value of ``M - lI``
    (Bauer-Fike), so the kernel is at most 1-dimensional.  One near-defective
    pair can make ``kappa(V)`` so large that the bound misses every single
    eigenvalue, so those it misses are measured: the singular values of
    every ``M - lI`` come from one stacked values-only SVD per arithmetic
    and are kept across the rungs below, since a single eigenvalue's shift
    does not depend on the radius.  Such an ``l`` takes its eigenvector too
    when ``sigma_{n-1}(M - lI)`` exceeds ten times that bound and
    ``sigma_n(M - lI)`` is at most the kernel cutoff: the kernel is then
    exactly 1-dimensional, with a margin.  Each eigenspace is
    computed once, in the arithmetic of ``M``: for a real ``M`` a cluster
    with ``|Im c| <= radius/2`` is closed under conjugation (the spectrum
    is, and single linkage keeps conjugate members together), so it is one
    real eigenvalue or is shifted by ``Re c`` in real arithmetic, and gets a
    real basis; every other cluster gets a complex basis.

    A defective cluster scatters its computed eigenvalues as far as
    ``eps**(1/multiplicity)``, well beyond any fixed radius, so a clustering
    is accepted only when it is self-consistent: no eigenspace exceeds its
    algebraic multiplicity and the eigenspaces are jointly independent at the
    current resolution.  Otherwise the radius escalates by decades; clean
    spectra are never coarsened because they are consistent at the first
    rung.  Raises :class:`NonConvergence` if no resolution stabilises.
    """
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"eigen-structure needs a square matrix, got {a.shape}")
    n = a.shape[0]
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigenvalue computation failed: {exc}") from exc
    norm = float(np.linalg.norm(a))
    eye = np.eye(n)
    real = not np.iscomplexobj(a)
    dist = np.abs(values[:, None] - values[None, :])
    gaps = np.min(np.where(eye > 0, np.inf, dist), axis=1, initial=np.inf)
    rcond = units = None
    measured = {}  # (member, real arithmetic) -> singular values of M - lI; a single eigenvalue's shift is fixed
    rho = tol.eig_cluster_atol
    while rho <= 1e-2:
        radius = rho * max(1.0, norm)
        floor = 2.0 * max(radius, tol.rank_rtol * norm * n) + n * np.finfo(float).eps * norm
        if rcond is None and np.any(gaps > radius):  # some cluster is a single eigenvalue
            rcond, units = reference_eigenvector_rcond(values, vectors, real), _phase_canonical(vectors)
        certified = (gaps * rcond > floor).tolist() if rcond is not None else ()
        linkage = [(c, members, real and abs(c.imag) <= radius / 2)
                   for c, members in reference_single_linkage(values, dist, radius)]
        # the single eigenvalues the bound misses: their singular values, one values-only SVD per arithmetic
        misses = [(int(members[0]), real_cluster) for _, members, real_cluster in linkage
                  if members.size == 1 and not certified[members[0]]]
        for arithmetic in (True, False):
            batch = [j for j, real_cluster in misses if real_cluster == arithmetic and (j, arithmetic) not in measured]
            if batch:
                shifts = values[batch].real if arithmetic else values[batch]
                sigmas = np.linalg.svd(a - shifts[:, None, None] * eye, compute_uv=False)
                measured.update(((j, arithmetic), row) for j, row in zip(batch, sigmas))
        clusters = []
        consistent = True
        for centroid, members, real_cluster in linkage:
            s = measured.get((int(members[0]), real_cluster))
            if members.size == 1 and (certified[members[0]] or (
                    s[-2] > 10.0 * floor and s[-1] <= _rank_cutoff(float(s[0]), n, tol, radius))):
                basis = np.ascontiguousarray(units[:, members].real) if real_cluster else units[:, members]
            else:
                basis = kernel_basis(a - (centroid.real if real_cluster else centroid) * eye, tol, atol=radius)
            if basis.shape[1] > members.size:
                consistent = False
                break
            clusters.append(EigenCluster(centroid, members.size, basis))
        if consistent and len(clusters) > 1:
            union = np.hstack([c.basis for c in clusters if c.basis.size])
            if union.shape[1] > 1:
                smin = float(np.linalg.svd(union, compute_uv=False)[-1])
                if smin <= 100.0 * rho * np.sqrt(n):
                    consistent = False
        if consistent:
            return EigenStructure(tuple(clusters), radius)
        rho *= 10.0
    raise NonConvergence("eigenvalue clustering did not stabilise at any resolution")


def reference_common_eigenbasis(
    mats: Sequence[np.ndarray], tol: ToleranceContext
) -> Union[list[np.ndarray], NonDiagonalisable, None]:
    """Orthonormal bases of the common eigenspaces of a diagonalisable commuting family.

    Refines subspaces matrix by matrix, in index order, until every subspace
    is 1-dimensional or the matrices run out; the concatenated bases form an
    invertible Q with every ``Q^{-1} N_k Q`` diagonal.  While the whole space
    is still unsplit, the refinement works on ``N_k`` itself, and a cluster
    that fills its subspace keeps the subspace's basis.

    Each subspace is split by the eigenspaces ``eigen_structure`` returns,
    used as they are: a real cluster of a real matrix has a real basis, and
    a subspace inside a non-real eigenspace is restricted over C.  A member
    whose analysis has a defective cluster, on the whole space or on a
    subspace, is returned as the :class:`NonDiagonalisable` witness of its
    defect on the whole matrix (the analysis already made for the whole
    space, one more for a subspace), and as ``None`` when the whole matrix
    is not defective: there is then no basis and no witness.  A member that
    is exactly the identity splits nothing and is skipped.
    """
    n = numkernel._check_stack(mats)
    whole = np.eye(n, dtype=mats[0].dtype)
    bases = [whole]
    for idx, mat in enumerate(mats):
        if len(bases) == n:
            break  # every subspace is 1-dimensional: nothing splits any more
        if np.array_equal(mat, whole):
            continue  # the exact identity splits no subspace
        refined: list[np.ndarray] = []
        for basis in bases:
            d = basis.shape[1]
            if d == 1:
                refined.append(basis)
                continue
            structure = reference_eigen_structure(mat if basis is whole else basis.conj().T @ mat @ basis, tol)
            if structure.defective_cluster() is not None:
                defect = (structure if basis is whole else reference_eigen_structure(mat, tol)).defective_cluster()
                return None if defect is None else NonDiagonalisable(idx + 1, defect.eigenvalue)
            refined.extend(basis if c.multiplicity == d else basis @ c.basis for c in structure.clusters)
        bases = refined
    return bases


def reference_assemble(w: np.ndarray, bases: Sequence[np.ndarray]) -> np.ndarray:
    """The congruence transform: one block ``V X`` per common eigenspace basis ``V`` of the family at ``W``.

    A real one-dimensional ``V`` at a real ``W`` is its own block: ``eigh``
    of a real ``1 x 1`` matrix gives ``X = [[1.0]]``, and ``V + 0.0`` has the
    bytes of ``V @ X``, which turns -0 into +0.
    """
    real = not np.iscomplexobj(w)
    return np.hstack([
        v + 0.0 if real and v.shape[1] == 1 and not np.iscomplexobj(v) else v @ gram_factor(v.T @ w @ v)
        for v in bases
    ])


TOLERANCES = [ToleranceContext(), ToleranceContext(eig_cluster_atol=1e-5)]


def decided_family(spec, tol):
    """``(W, family)`` of the similarity stage the decision reaches on ``spec``, or ``None`` where it has none."""
    t = decision._tensor(spec)
    if not t.any():
        return None
    try:
        ann = algebra._annihilator(t, tol)
        stack = algebra._adapt(t, ann).blocks if ann.shape[1] else t
        witness = pencil.max_pencil_rank(stack, tol, DEFAULT_TRIALS, 0)
        if witness.r0 < stack.shape[1]:
            return None
        return sdc._similarity_family(stack, witness.lambda0)
    except np.linalg.LinAlgError:
        return None


def instances():
    """The specs whose families are compared: planted (real, complexified, in a complex basis),
    kappa-scrambled, one-direction, proportional-squares and the adversarial defective and noncommuting kinds."""
    for n in (*range(2, 13), 16, 24, 32):
        for seed in range(4 if n <= 12 else 1):
            spec, _ = planted_evolution_algebra(n, seed=seed)
            yield spec
            if n <= 8 and seed < 2:
                yield complexify(spec)
            yield complex_basis(n, seed)[0]
    for n in (4, 6, 8):
        for kappa in (1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8):
            for seed in range(3):
                yield scrambled_planted(n, kappa, seed)[0]
    for n in range(2, 9):
        for seed in range(5):
            yield one_direction(n, seed)[0]
            if n >= 3:
                yield proportional_squares(n, seed)[0]
    for kind in ("defective", "noncommuting"):
        for n in range(3, 13):
            for seed in (None, *range(5)):
                yield adversarial_instance(kind, n, seed)


def families(tol):
    """``(W, family)`` for every instance that reaches the similarity stage, then one-member families at ``W = I``
    of integer triangular matrices with distinct diagonals, whose canonical eigenvectors hold exact zeros, some
    of them ``-0``, which the transform turns to ``+0``."""
    for spec in instances():
        solved = decided_family(spec, tol)
        if solved is not None:
            yield solved
    rng = np.random.default_rng(0)
    for n in range(2, 6):
        for _ in range(50):
            m = np.triu(rng.integers(-3, 4, (n, n))).astype(float)
            m[np.diag_indices(n)] = rng.permutation(np.arange(-2.0, n - 2.0))
            yield np.eye(n), m[None]


def outcome(f, *args):
    """``f(*args)``, or the type and message of the numerical failure it raises."""
    try:
        return f(*args)
    except (NonConvergence, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


def structure_bytes(result):
    """The radius and, per cluster, the centroid's bits, multiplicity and the basis's dtype, shape and bytes."""
    if not isinstance(result, EigenStructure):
        return result
    clusters = [(c.eigenvalue.real.hex(), c.eigenvalue.imag.hex(), c.multiplicity, c.basis.dtype, c.basis.shape,
                 c.basis.tobytes()) for c in result.clusters]
    return result.cluster_radius, clusters


def transform_bytes(w, bases, assemble):
    """The transform ``assemble`` builds from a list of bases, as dtype, shape and bytes; any other result as it is."""
    if not isinstance(bases, list):
        return bases
    p = outcome(assemble, w, bases)
    return (p.dtype, p.shape, p.tobytes()) if isinstance(p, np.ndarray) else p


@pytest.mark.parametrize("tol", TOLERANCES, ids=["default", "atol1e-5"])
def test_clusters_and_transforms_equal_the_per_cluster_code(tol):
    singles = general = count = 0
    for w, family in families(tol):
        count += 1
        for m in family:
            want = outcome(reference_eigen_structure, m, tol)
            assert structure_bytes(outcome(numkernel.eigen_structure, m, tol)) == structure_bytes(want)
            if isinstance(want, EigenStructure) and len(want.clusters) == m.shape[0]:
                singles += 1  # every eigenvalue its own cluster
            else:
                general += 1
        got = transform_bytes(w, outcome(sds._common_eigenbasis, family, tol), sdc._assemble)
        assert got == transform_bytes(w, outcome(reference_common_eigenbasis, family, tol), reference_assemble)
    assert count > 500 and singles > 1000 and general > 500  # both paths of the clustering are reached
