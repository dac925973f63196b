"""Tolerance-aware dense linear algebra over the real and complex fields.

Everything downstream (structure matrices, pencils, congruence solvers)
reduces to a handful of primitives defined here: numerical rank, kernels
and eigen-structure with explicit eigenvalue clustering.

Every rank decision is one singular-value split (``_split``), of one
matrix or of each matrix of a stack: the rank counts the singular values
above ``max(rank_rtol * sigma_max * max(shape), atol)``, a cutoff that
``_rank_cutoff`` alone computes.  :func:`rank` and :func:`kernel_basis`
split one matrix; the pencil search splits stacks.  A real, exactly
symmetric stack, which every pencil of real structure matrices is, takes
the singular values of ``eigvalsh`` (the moduli of the eigenvalues); one
matrix, and any other stack, takes the SVD.  Eigenspaces come from one
``np.linalg.eig`` per matrix, with a numerical kernel of ``M - cI`` only
where neither a separation bound nor the singular values of ``M - lI``,
measured for every single eigenvalue the bound misses in one stacked SVD,
show a 1-dimensional kernel; each is computed in the arithmetic of ``M``
(see :func:`eigen_structure`).

The tunable thresholds live in one :class:`ToleranceContext`.  A few fixed
constants do not: :func:`eigen_structure` escalates its clustering radius
no further than ``1e-2 * max(1, ||M||_F)``, rejects a clustering whose
eigenspaces have a joint smallest singular value of at most
``100 * rho * sqrt(n)``, widens its separation bound by the factors
``2`` and ``sqrt(2)`` and the term ``n * eps * ||M||_F``, and asks a
measured second smallest singular value to clear that bound tenfold;
:func:`complete_to_basis` stops at a residual of ``1e-12``;
``_phase_canonical`` treats moduli within a relative ``1e-9`` of the
largest as ties.

Real matrices are accepted everywhere and keep their dtype, but nothing
here assumes realness; callers that need a real result pass real data in.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np


class NonConvergence(Exception):
    """The iterative eigensolver failed; the caller must not guess a verdict."""


class Singular(np.linalg.LinAlgError):
    """A matrix required to be invertible is rank-deficient under the tolerance."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


@dataclass(frozen=True)
class ToleranceContext:
    """All numeric thresholds used by the package, in one auditable place.

    rank_rtol
        Relative singular-value threshold: the numerical rank of ``M`` is the
        number of singular values above ``rank_rtol * sigma_max * max(shape)``.
    eig_cluster_atol
        Absolute eigenvalue clustering radius after normalising by
        ``max(1, ||M||_F)``.
    commute_rtol
        Relative commutator-norm threshold: ``A`` and ``B`` commute when
        ``||AB - BA||_F <= commute_rtol * ||A||_F * ||B||_F``.
    verify_rtol
        Relative off-diagonal threshold used by certificate checks.

    Every field must lie strictly between 0 and 1.
    """

    rank_rtol: float = 1e-10
    eig_cluster_atol: float = 1e-8
    commute_rtol: float = 1e-8
    verify_rtol: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{f.name} must lie strictly in (0, 1), got {value!r}")


DEFAULT_TOL = ToleranceContext()


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of shape {a.shape}")
    return a


def _check_stack(mats) -> int:
    """Size of a non-empty stack of equal square matrices (a list or an ``(m, n, n)`` array)."""
    if len(mats) == 0:
        raise DimensionMismatch("need at least one matrix")
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise DimensionMismatch(f"matrices must all be {n}x{n}, got {m.shape}")
    return n


def _split(a: np.ndarray, tol: ToleranceContext, atol: float = 0.0, vectors: bool = False):
    """The one rank decision, of a matrix or of each matrix of a ``(k, n, n)`` stack: ``(rank, singular values, V^H or None)``.

    Each rank counts the singular values above the cutoff of
    :func:`_rank_cutoff` with ``size = max(shape)``; a stack gives an array
    of ranks and a row of singular values per matrix.  A real, exactly
    symmetric stack takes one ``np.linalg.eigvalsh``: a real symmetric ``M =
    Q diag(l) Q^T`` has the SVD ``Q diag(|l|) (Q diag(sign l))^T``, so the
    moduli of its eigenvalues, sorted descending, are its singular values,
    found by a cheaper solver and equal to the SVD's to rounding, not bit
    for bit.  One matrix, and any other stack, takes the values-only SVD,
    which LAPACK runs matrix by matrix, so a row of such a stack has the
    bytes of its matrix split alone.  ``vectors``, for one matrix only,
    returns ``V^H`` in full: its trailing rows span the numerical kernel.
    A tall matrix (such as the ``(n^2, n)`` annihilator stack) is first
    reduced to its square R factor by one ``qr(mode="r")``, which keeps the
    singular values and ``V^H`` and builds no left factor; a square or wide
    matrix takes the full SVD, since a wide matrix's thin ``V^H`` lacks its
    kernel rows.  An all-zero matrix has rank 0, and alone needs no SVD.
    """
    size = max(a.shape[-2:])
    if a.ndim == 3:
        if not np.iscomplexobj(a) and np.array_equal(a, a.swapaxes(1, 2)):
            s = np.sort(np.abs(np.linalg.eigvalsh(a)), axis=1)[:, ::-1]
        else:
            s = np.linalg.svd(a, compute_uv=False)
        # each cutoff compared in the dtype of s, as one matrix's is compared as a Python float
        cutoff = np.array([_rank_cutoff(top, size, tol, atol) for top in s[:, 0].tolist()], dtype=s.dtype)
        return np.count_nonzero(s > cutoff[:, None], axis=1), s, None
    if not np.any(a):
        return 0, np.zeros(min(a.shape)), (np.eye(a.shape[1], dtype=a.dtype) if vectors else None)
    if a.shape[0] > a.shape[1]:
        a = np.linalg.qr(a, mode="r")
    if vectors:
        _, s, vh = np.linalg.svd(a)
    else:
        s, vh = np.linalg.svd(a, compute_uv=False), None
    return int(np.count_nonzero(s > _rank_cutoff(float(s[0]), size, tol, atol))), s, vh


def _rank_cutoff(sigma_max: float, size: int, tol: ToleranceContext, atol: float = 0.0) -> float:
    """The one rank cutoff: a singular value counts when above ``max(rank_rtol * sigma_max * size, atol)``."""
    return max(tol.rank_rtol * sigma_max * size, atol)


def rank(m, tol: ToleranceContext = DEFAULT_TOL) -> int:
    """Numerical rank via singular values.

    The zero matrix has rank 0; the function is total.
    """
    return _split(_as_matrix(m), tol)[0]


def _phase_canonical(columns: np.ndarray) -> np.ndarray:
    """Fix the free phase/sign of each column deterministically.

    The entry of largest modulus (lowest index on ties) is made real and
    positive.  Keeps reports and serialized certificates stable.
    """
    out = columns.copy()
    if not out.size:
        return out
    mags = np.abs(columns)
    top = mags.max(axis=0)
    # first entry within a whisker of the maximum, so last-bit ties do not flip the choice
    rows = np.argmax(mags >= top * (1.0 - 1e-9), axis=0)
    pivots = columns[rows, np.arange(columns.shape[1])]
    if not np.iscomplexobj(out):
        return np.negative(out, out=out, where=pivots < 0)
    cols = np.flatnonzero(top != 0.0)  # a zero column is left as it is
    # transposed: each column is one run times a fixed factor, the bytes of a per-column multiply
    out[:, cols] = (columns[:, cols].T * (np.conj(pivots[cols]) / mags[rows[cols], cols])[:, None]).T
    return out


def kernel_basis(m, tol: ToleranceContext = DEFAULT_TOL, atol: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the numerical null space, as matrix columns.

    ``atol`` optionally widens the cutoff (an absolute singular-value floor);
    eigenspace computations use it to stay consistent with the eigenvalue
    clustering radius.  Returns an ``(n_cols, k)`` array, ``k`` possibly 0.
    """
    a = _as_matrix(m)
    if a.shape[1] == 0:
        return np.zeros((0, 0), dtype=a.dtype)
    r, _, vh = _split(a, tol, atol, vectors=True)
    return _phase_canonical(np.ascontiguousarray(vh[r:].conj().T))


def complete_to_basis(columns: np.ndarray) -> list[int]:
    """Greedily extend orthonormal ``columns`` to a basis with standard vectors.

    Returns the indices of the chosen standard basis vectors, in selection
    order: at each step the vector with the largest residual after projection
    onto the current span is taken, lowest index on ties.  Deterministic and
    well-conditioned.  The span grows in one preallocated ``(n, n)`` array,
    and the squared moduli of its entries in another, filled one column per
    step, so no step recomputes them for the columns already chosen.
    """
    n, k = columns.shape
    q = np.zeros((n, n), dtype=columns.dtype)
    q[:, :k] = columns
    sq = np.zeros((n, n))
    sq[:, :k] = np.abs(columns) ** 2
    taken = np.zeros(n, dtype=bool)
    chosen: list[int] = []
    for m in range(k, n):
        # residual of e_i: 1 - ||row i of q||^2
        residuals = 1.0 - np.sum(sq[:, :m], axis=1)
        residuals[taken] = -np.inf
        i = int(np.argmax(residuals))
        if residuals[i] <= 1e-12:
            raise np.linalg.LinAlgError("cannot complete to a basis; span already full")
        taken[i] = True
        chosen.append(i)
        e = np.zeros(n, dtype=q.dtype)
        e[i] = 1.0
        v = e - q[:, :m] @ q[i, :m].conj()  # q^H e_i is the conjugate of row i
        v /= np.linalg.norm(v)
        q[:, m] = v
        sq[:, m] = np.abs(v) ** 2
    return chosen


@dataclass(frozen=True)
class EigenCluster:
    """One clustered eigenvalue with its multiplicity and eigenspace basis."""

    eigenvalue: complex
    multiplicity: int
    basis: np.ndarray  # (n, dim) orthonormal columns

    @property
    def eigenspace_dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class EigenStructure:
    clusters: tuple[EigenCluster, ...]
    cluster_radius: float = 0.0  # absolute merge radius the clustering stabilised at

    def defective_cluster(self) -> Optional[EigenCluster]:
        for c in self.clusters:
            if c.eigenspace_dim < c.multiplicity:
                return c
        return None


def _single_linkage(values: np.ndarray, dist: np.ndarray, radius: float) -> list[tuple[complex, np.ndarray]]:
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


def _eigenvector_rcond(values: np.ndarray, vectors: np.ndarray, real: bool) -> float:
    """A lower bound on ``1 / kappa(V)`` for the eigenvectors ``V`` of ``np.linalg.eig``.

    A real matrix with conjugate pairs measures the real form ``R = [Re v, Im v]`` in a
    real SVD: ``V = R D`` with ``D`` block diagonal of condition at most ``sqrt(2)``.
    """
    pairs = real and np.iscomplexobj(vectors)
    if pairs:
        vectors = np.hstack([vectors[:, values.imag >= 0].real, vectors[:, values.imag > 0].imag])
    s = np.linalg.svd(vectors, compute_uv=False)
    return float(s[-1] / s[0] / (np.sqrt(2.0) if pairs else 1.0))


def eigen_structure(m, tol: ToleranceContext = DEFAULT_TOL) -> EigenStructure:
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
            rcond, units = _eigenvector_rcond(values, vectors, real), _phase_canonical(vectors)
        certified = (gaps * rcond > floor).tolist() if rcond is not None else ()
        linkage = [(c, members, real and abs(c.imag) <= radius / 2)
                   for c, members in _single_linkage(values, dist, radius)]
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
