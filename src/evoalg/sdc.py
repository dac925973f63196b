"""Simultaneous diagonalisation via congruence (SDC).

For symmetric matrices ``M_1 .. M_m`` with a full-rank pencil point
``W = M(lam0)``, SDC holds exactly when the ``W^{-1} M_k`` are SDS.  The
transform is assembled per common eigenspace: with an orthonormal basis
``V`` of the subspace, the bilinear Gram matrix ``G = V^T W V`` is symmetric
and nonsingular there; factoring ``G = C J C^T`` (``J`` diagonal with unit
entries) and replacing ``V`` by ``V C^{-T}`` makes ``P^T W P`` diagonal,
hence every ``P^T M_k P`` diagonal.  Distinct common eigenspaces are
automatically ``W``-orthogonal.

When the pencil rank tops out at ``r < n``, SDC forces the common kernel to
have dimension exactly ``n - r``; the decision splits it off as the
annihilator (``algebra``) and solves the ``r``-dimensional leading blocks.
This module holds the pieces it assembles: the similarity family, the Gram
factorisation, the transform and the refutation witnesses of congruence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import numkernel, pencil
from .numkernel import ToleranceContext
from .sds import CommonEigenspace, NonCommuting, NonDiagonalisable


class GramFactorisationError(Exception):
    """Symmetric elimination failed on a Gram block after bounded retries."""


@dataclass(frozen=True)
class KernelDimensionMismatch:
    """Refutation witness: dim of the common kernel differs from n - r0."""

    kernel_dim: int
    expected: int


@dataclass(frozen=True)
class NoFullRankPencil:
    """Refutation witness: no invertible pencil point found for the reduced blocks."""

    trials: int
    seed: int


Refutation = Union[NonDiagonalisable, NonCommuting, KernelDimensionMismatch, NoFullRankPencil]


def _random_orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((k, k))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def gram_factor(
    g: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    real: bool = False,
    _depth: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Factor a nonsingular symmetric matrix as ``G = C diag(signs) C^T``.

    Symmetric elimination with diagonal pivoting.  In complex mode the pivot
    square root absorbs the sign, so ``signs`` is all ones; in real mode the
    factor stays real and ``signs`` carries the inertia.  If every remaining
    diagonal entry vanishes (an isotropic block), the block is mixed by a
    seeded random orthogonal congruence and elimination is retried, a bounded
    number of times.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    d = g.shape[0]
    dtype = np.float64 if real else np.complex128
    s = np.asarray(g).astype(dtype, copy=True)
    if d == 0:
        return np.zeros((0, 0), dtype=dtype), np.zeros(0)
    gscale = max(float(np.max(np.abs(s))), np.finfo(float).tiny)
    cols: list[np.ndarray] = []
    signs: list[float] = []
    remaining = list(range(d))
    while remaining:
        diag_abs = [abs(s[i, i]) for i in remaining]
        pick = int(np.argmax(diag_abs))
        p = remaining[pick]
        block_scale = float(np.max(np.abs(s[np.ix_(remaining, remaining)])))
        if block_scale <= 1e-13 * gscale * d:
            raise GramFactorisationError("remaining Gram block is numerically zero; input was singular")
        if diag_abs[pick] <= 1e-8 * block_scale:
            if _depth >= 8:
                raise GramFactorisationError("isotropic Gram block persisted after bounded mixing retries")
            idx = remaining
            sub = s[np.ix_(idx, idx)]
            q = _random_orthogonal(len(idx), rng).astype(dtype)
            c_sub, sg_sub = gram_factor(q.T @ sub @ q, rng, real, _depth + 1)
            c_sub = q @ c_sub
            for t in range(c_sub.shape[1]):
                col = np.zeros(d, dtype=dtype)
                col[idx] = c_sub[:, t]
                cols.append(col)
            signs.extend(sg_sub.tolist())
            break
        piv = s[p, p]
        if real:
            sign = 1.0 if piv.real > 0 else -1.0
            root = np.sqrt(abs(piv))
            col = (s[:, p] / root).astype(dtype)
            s = s - sign * np.outer(col, col)
        else:
            sign = 1.0
            root = np.sqrt(np.complex128(piv))
            col = s[:, p] / root
            s = s - np.outer(col, col)
        s[p, :] = 0.0
        s[:, p] = 0.0
        cols.append(col)
        signs.append(sign)
        remaining.remove(p)
    return np.column_stack(cols), np.array(signs)


def _assemble(
    w: np.ndarray,
    spaces: Sequence[CommonEigenspace],
    seed: int,
    real: bool,
) -> np.ndarray:
    """The congruence transform: one block ``V C^{-T}`` per common eigenspace of the family at ``W``."""
    rng = np.random.default_rng([seed, 0x9D])
    blocks = []
    for space in spaces:
        v = space.basis
        g = v.T @ w @ v
        c, _signs = gram_factor(g, rng, real=real)
        blocks.append(v @ np.linalg.inv(c).T)
    return np.hstack(blocks)


def _similarity_family(
    mats: Sequence[np.ndarray], lam: np.ndarray, tol: ToleranceContext, field: str
) -> tuple[np.ndarray, list[np.ndarray]]:
    """``W = M(lam)`` and the family ``W^{-1} M_k``, in the arithmetic of ``field``.

    Raises :class:`numkernel.Singular` when ``W`` is rank-deficient.
    """
    if field == "real":
        lam = np.asarray(lam).real
        work = [np.asarray(m).real.astype(np.float64) for m in mats]
    else:
        lam = np.asarray(lam).astype(np.complex128)
        work = [np.asarray(m).astype(np.complex128) for m in mats]
    w = pencil.evaluate(work, lam)
    winv = numkernel.inverse(w, tol)
    return w, [winv @ m for m in work]
