"""Simultaneous diagonalisation by similarity (SDS).

A family of square matrices is SDS exactly when each member is
diagonalisable and all pairs commute.  The constructive part computes a
common eigenvector matrix by eigenspace refinement: start from the
eigenspaces of the first matrix and, inside each subspace, split further by
the eigenvalues of the restriction of the next matrix, and so on.  Because
the subspaces are invariant for the commuting family, the compression
``B* N B`` with an orthonormal subspace basis ``B`` represents the
restriction exactly up to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import numkernel
from .numkernel import DEFAULT_TOL, DimensionMismatch, ToleranceContext


class RefinementInconsistency(Exception):
    """A restriction failed diagonalisability inside a subspace (tolerance boundary)."""


class NonRealSpectrum(Exception):
    """Real-arithmetic refinement hit a non-real eigenvalue cluster."""


@dataclass(frozen=True)
class NonDiagonalisable:
    """Refutation witness: matrix ``index`` (1-based) has a defective eigenvalue."""

    index: int
    eigenvalue: complex


@dataclass(frozen=True)
class NonCommuting:
    """Refutation witness: the pair of matrices (1-based) fails to commute."""

    pair: tuple[int, int]
    commutator_norm: float


@dataclass(frozen=True)
class CommonEigenspace:
    basis: np.ndarray  # (n, d) orthonormal columns
    eigenvalues: tuple[complex, ...]  # one entry per input matrix


@dataclass(frozen=True)
class SdsResult:
    ok: bool
    q: Optional[np.ndarray] = None
    eigenspaces: Optional[tuple[CommonEigenspace, ...]] = None
    refutation: Optional[Union[NonDiagonalisable, NonCommuting]] = None


def _check_square_stack(mats: Sequence[np.ndarray]) -> int:
    if len(mats) == 0:
        raise DimensionMismatch("need at least one matrix")
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise DimensionMismatch(f"matrices must all be {n}x{n}, got {m.shape}")
    return n


def common_eigenbasis(
    mats: Sequence[np.ndarray],
    tol: ToleranceContext = DEFAULT_TOL,
    field: str = "complex",
) -> tuple[np.ndarray, tuple[CommonEigenspace, ...]]:
    """Common eigenvector matrix of a diagonalisable commuting family.

    Refines subspaces matrix by matrix; each final subspace carries one
    eigenvalue per matrix and the concatenated bases form an invertible Q
    with every ``Q^{-1} N_k Q`` diagonal.

    With ``field="real"`` the refinement runs in real arithmetic and raises
    :class:`NonRealSpectrum` as soon as a non-real eigenvalue cluster shows
    up.  Raises :class:`RefinementInconsistency` when a restriction turns out
    defective inside a subspace.
    """
    n = _check_square_stack(mats)
    real_mode = field == "real"
    dtype = np.float64 if real_mode else np.complex128
    work = [np.asarray(m).real.astype(dtype) if real_mode else np.asarray(m).astype(dtype) for m in mats]
    subspaces: list[tuple[np.ndarray, tuple[complex, ...]]] = [(np.eye(n, dtype=dtype), ())]
    for idx, mat in enumerate(work):
        refined: list[tuple[np.ndarray, tuple[complex, ...]]] = []
        for basis, evs in subspaces:
            r = basis.conj().T @ mat @ basis
            if basis.shape[1] == 1:
                lam = complex(r[0, 0])
                if real_mode and abs(lam.imag) > tol.eig_cluster_atol * numkernel.scale(r):
                    raise NonRealSpectrum(f"matrix {idx + 1} has non-real eigenvalue {lam}")
                refined.append((basis, evs + (lam,)))
                continue
            structure = numkernel.eigen_structure(r, tol)
            for cluster in structure.clusters:
                centroid = cluster.eigenvalue
                if real_mode:
                    if abs(centroid.imag) > structure.cluster_radius:
                        raise NonRealSpectrum(f"matrix {idx + 1} has non-real eigenvalue {centroid}")
                    # re-derive the eigenspace in real arithmetic at the same cutoff
                    vc = numkernel.kernel_basis(
                        r - centroid.real * np.eye(r.shape[0], dtype=dtype),
                        tol,
                        atol=structure.cluster_radius,
                    )
                else:
                    vc = cluster.basis
                if vc.shape[1] != cluster.multiplicity:
                    raise RefinementInconsistency(
                        f"matrix {idx + 1}: eigenvalue {centroid} has eigenspace dimension "
                        f"{vc.shape[1]} inside a subspace of multiplicity {cluster.multiplicity}"
                    )
                refined.append((basis @ vc, evs + (complex(centroid),)))
        subspaces = refined
    q = np.hstack([basis for basis, _ in subspaces])
    spaces = tuple(CommonEigenspace(basis, evs) for basis, evs in subspaces)
    return q, spaces


def are_sds(
    mats: Sequence[np.ndarray],
    tol: ToleranceContext = DEFAULT_TOL,
    field: str = "complex",
) -> SdsResult:
    """Decide SDS and build a common eigenvector matrix on success.

    Diagonalisability is checked matrix by matrix in ascending index before
    any commutator, and commutation alone never yields a positive answer.
    """
    _check_square_stack(mats)
    for idx, m in enumerate(mats):
        lam = numkernel.defective_eigenvalue(m, tol)
        if lam is not None:
            return SdsResult(ok=False, refutation=NonDiagonalisable(idx + 1, lam))
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            norm = numkernel.commutator_norm(mats[i], mats[j])
            bound = tol.commute_rtol * float(np.linalg.norm(mats[i])) * float(np.linalg.norm(mats[j]))
            if norm > bound:
                return SdsResult(ok=False, refutation=NonCommuting((i + 1, j + 1), norm))
    q, spaces = common_eigenbasis(mats, tol, field)
    return SdsResult(ok=True, q=q, eigenspaces=spaces)
