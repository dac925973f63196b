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
have dimension exactly ``n - r``; splitting it off reduces the problem to an
``r``-dimensional full-rank instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import numkernel, pencil, sds
from .numkernel import DEFAULT_TOL, ToleranceContext
from .pencil import PencilRankWitness
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


@dataclass(frozen=True)
class SdcResult:
    ok: bool
    p: Optional[np.ndarray] = None
    diagonals: Optional[tuple[np.ndarray, ...]] = None  # diag of P^T M_k P, one per matrix
    eigenspaces: Optional[tuple[CommonEigenspace, ...]] = None
    refutation: Optional[Refutation] = None


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
    rng = np.random.default_rng([seed, 0x9D])
    blocks = []
    for space in spaces:
        v = space.basis
        g = v.T @ w @ v
        c, _signs = gram_factor(g, rng, real=real)
        blocks.append(v @ np.linalg.inv(c).T)
    return np.hstack(blocks)


def _similarity_family(
    mats: Sequence[np.ndarray], witness: PencilRankWitness, tol: ToleranceContext, field: str
) -> tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]:
    """The stack in the arithmetic of ``field``, ``W = M(lambda0)`` and the family ``W^{-1} M_k``."""
    n = mats[0].shape[0]
    if witness.r0 != n:
        raise ValueError(f"full-rank solver needs r0 == {n}, got {witness.r0}")
    if field == "real":
        lam = np.asarray(witness.lambda0).real
        work = [np.asarray(m).real.astype(np.float64) for m in mats]
    else:
        lam = np.asarray(witness.lambda0).astype(np.complex128)
        work = [np.asarray(m).astype(np.complex128) for m in mats]
    w = pencil.evaluate(work, lam)
    winv = numkernel.inverse(w, tol)
    return work, w, [winv @ m for m in work]


def _construct(
    mats: Sequence[np.ndarray],
    witness: PencilRankWitness,
    tol: ToleranceContext,
    seed: int,
    field: str,
    structures: dict,
) -> Optional[np.ndarray]:
    """The congruence transform built without the similarity scans.

    Returns ``None`` when the family ``W^{-1} M_k`` fails the routing test
    (some member does not commute with the family's sum), else the
    transform of :func:`sdc_full_rank` for an SDS family, unchecked.  Raises
    whatever the refinement and the Gram factorisation raise, a whole-space
    defect included.  ``structures`` is the eigen-structure memo shared with
    the scans.
    """
    work, w, similar = _similarity_family(mats, witness, tol, field)
    if not sds._commute_with_sum(similar, tol):
        return None
    _, spaces = sds._common_eigenbasis(similar, tol, field, structures)
    return _assemble(w, spaces, seed, field == "real")


def sdc_full_rank(
    mats: Sequence[np.ndarray],
    witness: PencilRankWitness,
    tol: ToleranceContext = DEFAULT_TOL,
    seed: int = 0,
    field: str = "complex",
) -> SdcResult:
    """SDC for a stack whose pencil witness has full rank, decided by the scans.

    Runs the similarity scans of :func:`sds.are_sds` on ``W^{-1} M_k`` and,
    when they pass, builds the congruence transform per common eigenspace;
    otherwise the scans' witness is returned as the refutation.  The
    decision certifies a positive answer by building this transform first
    and checking it, and calls the scans only when that fails.  With
    ``field="real"`` the whole construction stays in real arithmetic
    (requires real inputs and a real pencil point) and raises
    :class:`sds.NonRealSpectrum` when the common spectrum is not real.
    """
    return _sdc_full_rank(mats, witness, tol, seed, field, {})


def _sdc_full_rank(
    mats: Sequence[np.ndarray],
    witness: PencilRankWitness,
    tol: ToleranceContext,
    seed: int,
    field: str,
    structures: dict,
) -> SdcResult:
    work, w, similar = _similarity_family(mats, witness, tol, field)
    res = sds._are_sds(similar, tol, field, structures)
    if not res.ok:
        return SdcResult(ok=False, refutation=res.refutation)
    p = _assemble(w, res.eigenspaces, seed, field == "real")
    diagonals = tuple(np.diag(p.T @ m @ p).copy() for m in work)
    return SdcResult(ok=True, p=p, diagonals=diagonals, eigenspaces=res.eigenspaces)


def sdc_reduced(
    mats: Sequence[np.ndarray],
    witness: PencilRankWitness,
    tol: ToleranceContext = DEFAULT_TOL,
    seed: int = 0,
    field: str = "complex",
) -> SdcResult:
    """SDC for a stack whose maximum pencil rank falls short of the size.

    Checks the common-kernel dimension against ``n - r0``, splits the kernel
    off, compresses to the leading blocks and recurses into the full-rank
    solver at the same pencil point, then embeds the transform back.
    """
    n = mats[0].shape[0]
    r0 = witness.r0
    real_mode = field == "real"
    work = [np.asarray(m).real.astype(np.float64) if real_mode else np.asarray(m).astype(np.complex128) for m in mats]
    kernel = numkernel.kernel_basis(np.vstack(work), tol)
    k_dim = kernel.shape[1]
    if k_dim != n - r0:
        return SdcResult(ok=False, refutation=KernelDimensionMismatch(k_dim, n - r0))
    if r0 == 0:
        p = kernel  # spans everything; for an all-zero stack this is the identity
        diagonals = tuple(np.zeros(n, dtype=work[0].dtype) for _ in work)
        return SdcResult(ok=True, p=p, diagonals=diagonals)
    indices = numkernel.complete_to_basis(kernel)
    eye = np.eye(n, dtype=kernel.dtype)
    t = np.column_stack([eye[:, indices], kernel]) if k_dim else eye[:, indices]
    compressed = [(t.T @ m @ t)[:r0, :r0] for m in work]
    sub = sdc_full_rank(compressed, witness, tol, seed, field)
    if not sub.ok:
        return SdcResult(ok=False, refutation=sub.refutation)
    p_full = np.zeros((n, n), dtype=sub.p.dtype)
    p_full[:r0, :r0] = sub.p
    p_full[r0:, r0:] = np.eye(n - r0)
    p = t @ p_full
    diagonals = tuple(np.diag(p.T @ m @ p).copy() for m in work)
    return SdcResult(ok=True, p=p, diagonals=diagonals, eigenspaces=sub.eigenspaces)

