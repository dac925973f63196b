"""Simultaneous diagonalisation by similarity (SDS).

A family of square matrices is SDS exactly when each member is
diagonalisable and all pairs commute.  The construction computes the common
eigenspaces by refinement: start from the eigenspaces of the first matrix
and, inside each subspace, split further by the eigenvalues of the
restriction of the next matrix, and so on.  Because the subspaces are
invariant for the commuting family, the compression ``B* N B`` with an
orthonormal subspace basis ``B`` represents the restriction exactly up to
round-off.

The refinement is one pass in the arithmetic of the family: a real family
goes on over C only inside the eigenspaces of non-real eigenvalues, so its
bases are real exactly when its spectrum is.

The scan of :func:`_witness`, a commutator per pair, cheap and checked with
a margin, names a non-commuting pair.  The decision hands the family in as
one ``(m, r, r)`` array and runs the scan before the construction only for a
family that fails the routing test (:func:`_commute_with_sum`), and after it
only when a routed family gets no basis or a rejected transform.  A defect
is named by the construction alone: a member whose analysis, on the whole
space or in a subspace, has a defective cluster is returned with its defect
on the whole matrix, and ``None`` when the whole matrix is not defective.
The construction does not eigen-analyse an exact identity, such as
``W^{-1} M_k`` at a canonical pencil point ``e_k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence, Union

import numpy as np

from . import numkernel
from .numkernel import ToleranceContext


class Refutation:
    """A refutation witness: a dataclass with its JSON ``kind``, the ``text`` of its report line,
    formatted with its fields, and ``json_names``, the JSON names of the fields the report renames."""

    kind: ClassVar[str]
    text: ClassVar[str]
    json_names: ClassVar[dict[str, str]] = {}


@dataclass(frozen=True)
class NonDiagonalisable(Refutation):
    """Refutation witness: matrix ``index`` (1-based) has a defective eigenvalue."""

    kind = "non_diagonalisable"
    text = "matrix {index} of the similarity family is not diagonalisable; defective eigenvalue {eigenvalue}"
    json_names = {"index": "matrix_index"}

    index: int
    eigenvalue: complex


@dataclass(frozen=True)
class NonCommuting(Refutation):
    """Refutation witness: the pair of matrices (1-based) fails to commute."""

    kind = "non_commuting"
    text = ("matrices {pair[0]} and {pair[1]} of the similarity family do not commute "
            "(commutator norm {commutator_norm:.6g})")

    pair: tuple[int, int]
    commutator_norm: float


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


def _common_eigenbasis(
    mats: Sequence[np.ndarray], tol: ToleranceContext
) -> Union[list[np.ndarray], NonDiagonalisable, None]:
    """Orthonormal bases of the common eigenspaces of a diagonalisable commuting family.

    Refines subspaces matrix by matrix, in index order, until every subspace
    is 1-dimensional or the matrices run out; the concatenated bases form an
    invertible Q with every ``Q^{-1} N_k Q`` diagonal.  While the whole space
    is still unsplit, the refinement works on ``N_k`` itself, and a cluster
    that fills its subspace keeps the subspace's basis.  A real line of the
    whole space keeps its own basis: ``I v`` differs from ``v`` only in the
    sign of a zero, which :func:`sdc._assemble` makes ``+0`` in any case.

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
            structure = numkernel.eigen_structure(mat if basis is whole else basis.conj().T @ mat @ basis, tol)
            if structure.defective_cluster() is not None:
                defect = (structure if basis is whole else numkernel.eigen_structure(mat, tol)).defective_cluster()
                return None if defect is None else NonDiagonalisable(idx + 1, defect.eigenvalue)
            refined.extend(basis if c.multiplicity == d
                           else c.basis if basis is whole and c.multiplicity == 1 and not np.iscomplexobj(c.basis)
                           else basis @ c.basis for c in structure.clusters)
        bases = refined
    return bases


def _witness(mats: Sequence[np.ndarray], tol: ToleranceContext) -> Optional[NonCommuting]:
    """The scan: a commutator per pair in index order; the first pair that fails to commute, else ``None``.

    A commutator is cheap and is compared with its bound with a margin.
    Each row of commutators ``N_i N_j - N_j N_i``, ``j > i``, is one product.
    """
    stack = np.asarray(mats)
    norms = [float(np.linalg.norm(m)) for m in stack]
    for i in range(len(stack) - 1):
        rest = stack[i + 1 :]
        for j, commutator in enumerate(stack[i] @ rest - rest @ stack[i], start=i + 1):
            norm = float(np.linalg.norm(commutator))
            if norm > tol.commute_rtol * norms[i] * norms[j]:
                return NonCommuting((i + 1, j + 1), norm)
    return None
