"""Tolerance-aware dense linear algebra over the real and complex fields.

Everything downstream (structure matrices, pencils, congruence solvers)
reduces to a handful of primitives defined here: numerical rank, kernels,
inverses, eigen-structure with explicit eigenvalue clustering, and
commutator norms.  All thresholds are collected in a single
:class:`ToleranceContext` so that a run is auditable: no function in this
package compares a float against an ad-hoc constant.

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


def _svd_cutoff(s: np.ndarray, shape: tuple[int, int], tol: ToleranceContext) -> float:
    if s.size == 0:
        return 0.0
    return tol.rank_rtol * float(s[0]) * max(shape)


def rank(m, tol: ToleranceContext = DEFAULT_TOL) -> int:
    """Numerical rank via singular values.

    The zero matrix has rank 0; the function is total.
    """
    a = _as_matrix(m)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > _svd_cutoff(s, a.shape, tol)))


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
    if a.size == 0 or not np.any(a):
        return _phase_canonical(np.eye(a.shape[1], dtype=a.dtype))
    _, s, vh = np.linalg.svd(a)
    cutoff = max(_svd_cutoff(s, a.shape, tol), atol)
    r = int(np.count_nonzero(s > cutoff))
    basis = vh[r:].conj().T
    return _phase_canonical(np.ascontiguousarray(basis))


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
    cutoff widened to the merge radius so every member contributes.

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
    rho = tol.eig_cluster_atol
    while rho <= 1e-2:
        radius = rho * sc
        clusters = []
        consistent = True
        for centroid, mult in _single_linkage(values, radius):
            basis = kernel_basis(a - centroid * eye, tol, atol=radius)
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


def defective_eigenvalue(m, tol: ToleranceContext = DEFAULT_TOL) -> Optional[complex]:
    """First eigenvalue (in cluster order) whose eigenspace is too small.

    Returns ``None`` when the matrix is diagonalisable by similarity.
    """
    cluster = eigen_structure(m, tol).defective_cluster()
    return None if cluster is None else cluster.eigenvalue


def is_diagonalisable(m, tol: ToleranceContext = DEFAULT_TOL) -> bool:
    """Whether every eigenvalue cluster has a full-dimensional eigenspace."""
    return defective_eigenvalue(m, tol) is None


def commutator_norm(a, b) -> float:
    """Frobenius norm of ``AB - BA``.

    Callers compare the result against ``commute_rtol * ||A||_F * ||B||_F``.
    """
    x = _as_matrix(a)
    y = _as_matrix(b)
    if x.shape != y.shape or x.shape[0] != x.shape[1]:
        raise DimensionMismatch(f"commutator needs equal square matrices, got {x.shape} and {y.shape}")
    return float(np.linalg.norm(x @ y - y @ x))
