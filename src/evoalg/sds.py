"""Simultaneous diagonalisation by similarity (SDS).

A family of square matrices is SDS exactly when each member is
diagonalisable and all pairs commute.  The constructive part computes a
common eigenvector matrix by eigenspace refinement: start from the
eigenspaces of the first matrix and, inside each subspace, split further by
the eigenvalues of the restriction of the next matrix, and so on.  Because
the subspaces are invariant for the commuting family, the compression
``B* N B`` with an orthonormal subspace basis ``B`` represents the
restriction exactly up to round-off.

The scans of :func:`are_sds` (a defect check per matrix, then a commutator
per pair) are what names a witness when the family is not SDS.  A caller
that checks the constructed basis independently, as the decision does,
builds first and runs the scans only when that fails; the two share the
eigen-structures of whole matrices through a memo that lives for one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import numkernel
from .numkernel import DEFAULT_TOL, ToleranceContext


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


def _structure(m: np.ndarray, tol: ToleranceContext, structures: dict) -> numkernel.EigenStructure:
    """``eigen_structure`` of a whole matrix, memoised in ``structures`` by dtype, shape and bytes."""
    key = (m.dtype.str, m.shape, m.tobytes())
    structure = structures.get(key)
    if structure is None:
        structure = structures[key] = numkernel.eigen_structure(m, tol)
    return structure


def _defective_eigenvalue(m: np.ndarray, tol: ToleranceContext, structures: dict) -> Optional[complex]:
    """The per-matrix defect check of the scan: the first defective cluster's eigenvalue, or ``None``."""
    cluster = _structure(m, tol, structures).defective_cluster()
    return None if cluster is None else cluster.eigenvalue


def _commute_with_sum(mats: Sequence[np.ndarray], tol: ToleranceContext) -> bool:
    """Whether every ``N_k`` commutes with ``S = sum_k N_k``, in one batched commutator.

    ``||N_k S - S N_k||_F <= commute_rtol * ||N_k||_F * ||S||_F`` for every k.
    An SDS family passes; a family that fails cannot be SDS.
    """
    stack = np.asarray(mats)
    s = stack.sum(axis=0)
    commutators = np.linalg.norm(stack @ s - s @ stack, axis=(1, 2))
    bound = tol.commute_rtol * np.linalg.norm(stack, axis=(1, 2)) * float(np.linalg.norm(s))
    return bool(np.all(commutators <= bound))


def common_eigenbasis(
    mats: Sequence[np.ndarray],
    tol: ToleranceContext = DEFAULT_TOL,
    field: str = "complex",
) -> tuple[np.ndarray, tuple[CommonEigenspace, ...]]:
    """Common eigenvector matrix of a diagonalisable commuting family.

    Refines subspaces matrix by matrix; each final subspace carries one
    eigenvalue per matrix and the concatenated bases form an invertible Q
    with every ``Q^{-1} N_k Q`` diagonal.  While the whole space is still
    unsplit, the refinement works on ``N_k`` itself, and a cluster that fills
    its subspace with a full eigenspace keeps the subspace's basis.

    Each subspace is split by the eigenspaces ``eigen_structure`` returns,
    used as they are.  With ``field="real"`` the refinement runs in real
    arithmetic and raises :class:`NonRealSpectrum` as soon as one of those
    eigenspaces is complex, which for a real matrix happens exactly at a
    cluster that is not closed under conjugation.  Raises
    :class:`RefinementInconsistency` when a matrix of the whole space has a
    defective eigenvalue, or a restriction turns out defective inside a
    subspace.
    """
    return _common_eigenbasis(mats, tol, field, {})


def _common_eigenbasis(
    mats: Sequence[np.ndarray], tol: ToleranceContext, field: str, structures: dict
) -> tuple[np.ndarray, tuple[CommonEigenspace, ...]]:
    n = numkernel._check_stack(mats)
    real_mode = field == "real"
    dtype = np.float64 if real_mode else np.complex128
    work = [np.asarray(m).real.astype(dtype) if real_mode else np.asarray(m).astype(dtype) for m in mats]
    whole = np.eye(n, dtype=dtype)
    subspaces: list[tuple[np.ndarray, tuple[complex, ...]]] = [(whole, ())]
    for idx, mat in enumerate(work):
        refined: list[tuple[np.ndarray, tuple[complex, ...]]] = []
        for basis, evs in subspaces:
            d = basis.shape[1]
            if d == 1:
                refined.append((basis, evs + (complex((basis.conj().T @ mat @ basis)[0, 0]),)))
                continue
            if basis is whole:
                structure = _structure(mat, tol, structures)
                defect = structure.defective_cluster()
                if defect is not None:
                    raise RefinementInconsistency(f"matrix {idx + 1}: eigenvalue {defect.eigenvalue} is defective")
            else:
                structure = numkernel.eigen_structure(basis.conj().T @ mat @ basis, tol)
            for cluster in structure.clusters:
                centroid = cluster.eigenvalue
                if real_mode and np.iscomplexobj(cluster.basis):
                    raise NonRealSpectrum(f"matrix {idx + 1} has non-real eigenvalue {centroid}")
                if cluster.multiplicity == d and cluster.eigenspace_dim == d:
                    refined.append((basis, evs + (centroid,)))  # the cluster fills the subspace
                    continue
                if cluster.eigenspace_dim != cluster.multiplicity:
                    raise RefinementInconsistency(
                        f"matrix {idx + 1}: eigenvalue {centroid} has eigenspace dimension "
                        f"{cluster.eigenspace_dim} inside a subspace of multiplicity {cluster.multiplicity}"
                    )
                refined.append((basis @ cluster.basis, evs + (centroid,)))
        subspaces = refined
    q = np.hstack([basis for basis, _ in subspaces])
    spaces = tuple(CommonEigenspace(basis, evs) for basis, evs in subspaces)
    return q, spaces


def _witness(
    mats: Sequence[np.ndarray], tol: ToleranceContext, structures: dict
) -> Optional[Union[NonDiagonalisable, NonCommuting]]:
    """The scans: a defect check per matrix in ascending index, then a commutator per pair in index order.

    Returns the first failure as the refutation witness, else ``None``.
    """
    for idx, m in enumerate(mats):
        lam = _defective_eigenvalue(np.asarray(m), tol, structures)
        if lam is not None:
            return NonDiagonalisable(idx + 1, lam)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            norm = numkernel.commutator_norm(mats[i], mats[j])
            bound = tol.commute_rtol * float(np.linalg.norm(mats[i])) * float(np.linalg.norm(mats[j]))
            if norm > bound:
                return NonCommuting((i + 1, j + 1), norm)
    return None


def are_sds(
    mats: Sequence[np.ndarray],
    tol: ToleranceContext = DEFAULT_TOL,
    field: str = "complex",
) -> SdsResult:
    """Decide SDS by the scans and build a common eigenvector matrix on success.

    Diagonalisability is checked matrix by matrix in ascending index before
    any commutator, then every pair is checked for commutation in index
    order; the first failure is the witness.  Commutation alone never yields
    a positive answer.  The decision certifies positive answers by
    construction and the certificate check, and runs these scans only to
    produce the witness of a refutation.
    """
    numkernel._check_stack(mats)
    structures: dict = {}
    refutation = _witness(mats, tol, structures)
    if refutation is not None:
        return SdsResult(ok=False, refutation=refutation)
    q, spaces = _common_eigenbasis(mats, tol, field, structures)
    return SdsResult(ok=True, q=q, eigenspaces=spaces)
