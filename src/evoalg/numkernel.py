"""Tolerance-aware dense linear algebra over the real and complex fields.

Everything downstream (structure matrices, pencils, congruence solvers)
reduces to a handful of primitives defined here: numerical rank, kernels,
inverses, eigen-structure with explicit eigenvalue clustering, and
commutator norms.

Every rank decision is one singular-value split (``_split``): the rank
counts the singular values above ``max(rank_rtol * sigma_max * max(shape),
atol)``.  :func:`rank`, the guard of :func:`inverse`, :func:`kernel_basis`
and both scans of the pencil search call it.  Eigenspaces are numerical
kernels of ``M - cI``, each computed once, in the arithmetic of ``M`` (see
:func:`eigen_structure`).

The tunable thresholds live in one :class:`ToleranceContext`.  A few fixed
constants do not: :func:`eigen_structure` escalates its clustering radius
no further than ``1e-2 * scale(M)`` and rejects a clustering whose
eigenspaces have a joint smallest singular value of at most
``100 * rho * sqrt(n)``; :func:`complete_to_basis` stops at a residual of
``1e-12``; ``_phase_canonical`` treats moduli within a relative ``1e-9`` of
the largest as ties.

Real matrices are accepted everywhere and keep their dtype, but nothing
here assumes realness; callers that need a real result pass real data in.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        ``scale(M) = max(1, ||M||_F)``.
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
        for name in ("rank_rtol", "eig_cluster_atol", "commute_rtol", "verify_rtol"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must lie strictly in (0, 1), got {value!r}")


DEFAULT_TOL = ToleranceContext()


def scale(m: np.ndarray) -> float:
    """Scale used to normalise absolute thresholds: ``max(1, ||M||_F)``."""
    return max(1.0, float(np.linalg.norm(m)))


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
    """The one rank decision: ``(rank, singular values, full right factor or None)``.

    The rank counts the singular values above
    ``max(rank_rtol * sigma_max * max(shape), atol)``.  With ``vectors`` the
    right factor ``V^H`` is returned in full, so its trailing rows span the
    numerical kernel.  A tall matrix (more rows than columns, such as the
    ``(n^2, n)`` annihilator stack) takes the thin SVD: its ``V^H`` is already
    square, and the unused ``rows x rows`` left factor is never built.
    Square and wide matrices take the full SVD: a wide matrix's thin ``V^H``
    would lack the rows that span its kernel.
    An all-zero matrix has rank 0 and needs no SVD.
    """
    if not np.any(a):
        return 0, np.zeros(min(a.shape)), (np.eye(a.shape[1], dtype=a.dtype) if vectors else None)
    if vectors:
        _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] <= a.shape[1])
    else:
        s, vh = np.linalg.svd(a, compute_uv=False), None
    cutoff = max(tol.rank_rtol * float(s[0]) * max(a.shape), atol)
    return int(np.count_nonzero(s > cutoff)), s, vh


def rank(m, tol: ToleranceContext = DEFAULT_TOL) -> int:
    """Numerical rank via singular values.

    The zero matrix has rank 0; the function is total.
    """
    return _split(_as_matrix(m), tol)[0]


def inverse(m, tol: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """Inverse of a square matrix, guarded by the rank tolerance.

    Raises :class:`Singular` when the numerical rank falls short of the size,
    which signals callers that the invertible-matrix shortcut does not apply.
    """
    a = _as_matrix(m)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"inverse needs a square matrix, got {a.shape}")
    if rank(a, tol) < n:
        raise Singular(f"matrix of size {n} has numerical rank below {n}")
    return np.linalg.inv(a)


def _phase_canonical(columns: np.ndarray) -> np.ndarray:
    """Fix the free phase/sign of each column deterministically.

    The entry of largest modulus (lowest index on ties) is made real and
    positive.  Keeps reports and serialized certificates stable.
    """
    out = columns.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        mags = np.abs(col)
        top = float(np.max(mags)) if mags.size else 0.0
        if top == 0.0:
            continue
        # first entry within a whisker of the maximum, so last-bit ties
        # do not flip the choice
        i = int(np.argmax(mags >= top * (1.0 - 1e-9)))
        pivot = col[i]
        if np.iscomplexobj(out):
            out[:, j] = col * (np.conj(pivot) / mags[i])
        elif pivot < 0:
            out[:, j] = -col
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
    well-conditioned.
    """
    n, k = columns.shape
    q = columns.astype(columns.dtype, copy=True)
    chosen: list[int] = []
    for _ in range(n - k):
        # residual of e_i: 1 - ||row i of q||^2
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


def _single_linkage(values: np.ndarray, radius: float) -> list[tuple[complex, int]]:
    n = values.size
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = [(complex(np.mean(values[members])), len(members)) for members in groups.values()]
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    return clusters


def eigen_structure(m, tol: ToleranceContext = DEFAULT_TOL) -> EigenStructure:
    """Clustered eigenvalues plus an orthonormal basis of each eigenspace.

    Eigenvalues are merged by single linkage starting at the radius
    ``eig_cluster_atol * scale(M)``; the eigenspace of a cluster is the
    numerical kernel of ``M - cI`` at the centroid ``c``, with the kernel
    cutoff widened to the merge radius so every member contributes.  Each
    eigenspace is computed once, in the arithmetic of ``M``: for a real
    ``M`` a cluster with ``|Im c| <= radius/2`` is closed under conjugation
    (the spectrum is, and single linkage keeps conjugate members together),
    so it is shifted by ``Re c`` in real arithmetic and gets a real basis;
    every other cluster keeps its complex shift and a complex basis.

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
        values = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigenvalue computation failed: {exc}") from exc
    sc = scale(a)
    eye = np.eye(n)
    real = not np.iscomplexobj(a)
    rho = tol.eig_cluster_atol
    while rho <= 1e-2:
        radius = rho * sc
        clusters = []
        consistent = True
        for centroid, mult in _single_linkage(values, radius):
            shift = centroid.real if real and abs(centroid.imag) <= radius / 2 else centroid
            basis = kernel_basis(a - shift * eye, tol, atol=radius)
            if basis.shape[1] > mult:
                consistent = False
                break
            clusters.append(EigenCluster(centroid, mult, basis))
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


def commutator_norm(a, b) -> float:
    """Frobenius norm of ``AB - BA``.

    Callers compare the result against ``commute_rtol * ||A||_F * ||B||_F``.
    """
    x = _as_matrix(a)
    y = _as_matrix(b)
    if x.shape != y.shape or x.shape[0] != x.shape[1]:
        raise DimensionMismatch(f"commutator needs equal square matrices, got {x.shape} and {y.shape}")
    return float(np.linalg.norm(x @ y - y @ x))
