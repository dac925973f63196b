"""Simultaneous diagonalisation via congruence (SDC).

For symmetric matrices ``M_1 .. M_m`` with a full-rank pencil point
``W = M(lam0)``, SDC holds exactly when the ``W^{-1} M_k`` are SDS.  The
transform is assembled per common eigenspace: with an orthonormal basis
``V`` of the subspace, the bilinear Gram matrix ``G = V^T W V`` is symmetric
and nonsingular there, and one unitary ``X`` with ``X^T G X`` diagonal (an
orthogonal eigenbasis over R, a Takagi basis over C) turns ``V`` into
``V X``.  That makes ``P^T W P`` diagonal, hence every ``P^T M_k P``
diagonal, and keeps every column of ``P`` at unit norm.  Distinct common
eigenspaces are automatically ``W``-orthogonal.

When the pencil rank tops out at ``r < n``, SDC forces the common kernel to
have dimension exactly ``n - r``; the decision splits it off as the
annihilator and solves the ``r``-dimensional leading blocks, and
``algebra``, which owns the adapted basis, embeds their transform back.
This module holds the pieces the decision assembles: the similarity family
(one ``(m, r, r)`` array), the Gram basis, the transform and the refutation
witnesses of congruence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import pencil
from .sds import Refutation


@dataclass(frozen=True)
class KernelDimensionMismatch(Refutation):
    """Refutation witness: dim of the common kernel differs from n - r0."""

    kind = "kernel_dimension_mismatch"
    text = "common kernel has dimension {kernel_dim}, but the pencil rank defect requires {expected}"

    kernel_dim: int
    expected: int


@dataclass(frozen=True)
class NoFullRankPencil(Refutation):
    """Refutation witness: no invertible pencil point found for the reduced blocks."""

    kind = "no_full_rank_pencil"
    text = "no invertible pencil point for the reduced blocks after {trials} trials (seed {seed})"

    trials: int
    seed: int


def gram_factor(g: np.ndarray) -> np.ndarray:
    """A unitary ``X`` with ``X^T G X`` diagonal, for a nonsingular symmetric ``G``.

    A real ``G`` takes its orthogonal eigenbasis, so ``X`` is real.  A complex
    ``G = A + iB`` takes a Takagi basis: the eigenvectors ``[x; y]`` of the
    real symmetric ``[[A, B], [B, -A]]`` for its ``d`` largest eigenvalues,
    which are the singular values of ``G``, give ``X = x - iy`` with
    ``G X = conj(X) diag(sigma)``, hence ``X^T G X = diag(sigma)``.
    """
    if not np.iscomplexobj(g):
        return np.linalg.eigh(g)[1]
    d = g.shape[0]
    a, b = g.real, g.imag
    vecs = np.linalg.eigh(np.block([[a, b], [b, -a]]))[1][:, d:]
    return vecs[:d] - 1j * vecs[d:]


def _assemble(w: np.ndarray, bases: Sequence[np.ndarray]) -> np.ndarray:
    """The congruence transform: one block ``V X`` per common eigenspace basis ``V`` of the family at ``W``.

    A real one-dimensional ``V`` at a real ``W`` is its own block: ``eigh``
    of a real ``1 x 1`` matrix gives ``X = [[1.0]]``, and ``V + 0.0`` has the
    bytes of ``V @ X``, which turns -0 into +0.  When every ``V`` is such a
    line, the transform is ``hstack(bases) + 0.0`` at once.
    """
    real = not np.iscomplexobj(w)
    lines = [real and v.shape[1] == 1 and not np.iscomplexobj(v) for v in bases]
    if all(lines):
        return np.hstack(bases) + 0.0
    return np.hstack([v + 0.0 if line else v @ gram_factor(v.T @ w @ v) for v, line in zip(bases, lines)])


def _similarity_family(mats: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``W = M(lam)`` and the family ``W^{-1} M_k`` as one ``(m, r, r)`` array, in the arithmetic of the stack.

    The family is one batched product ``W^{-1} @ mats``, with the bytes of
    one product per matrix.  A real stack is evaluated at ``Re lam``, so its
    family is real; a complex stack is evaluated at ``lam``.  ``lam`` is the
    point the pencil search has found to be of full rank, so ``W`` is
    inverted without a second rank test; LAPACK's
    :class:`numpy.linalg.LinAlgError` still signals a ``W`` that is exactly
    singular in floating point, and the same error is raised for an inverse
    that overflows (a subnormal ``W``), before any product spreads its
    infinities.  At a canonical point ``lam = e_k``, ``W``
    is ``M_k`` bit for bit, so ``W^{-1} M_k`` is the exact identity, not
    the rounded product.
    """
    lam = np.asarray(lam)
    w = pencil.evaluate(mats, lam if np.iscomplexobj(mats) else lam.real)
    inverse = np.linalg.inv(w)
    if not np.all(np.isfinite(inverse)):
        raise np.linalg.LinAlgError("the inverse of the pencil point overflows")
    family = inverse @ mats
    (support,) = np.nonzero(lam)
    if support.size == 1 and lam[support[0]] == 1:
        family[support[0]] = np.eye(w.shape[0])
    return w, family
