"""Linear pencils of symmetric matrices and the search for a full-rank point.

Given matrices ``M_1 .. M_m``, the pencil is ``M(lam) = sum_j lam_j M_j``.
The rank of ``M(lam)`` is maximised outside a proper algebraic subvariety, so
a random unit vector attains the maximum with probability one; the canonical
directions are tried first so that an invertible ``M_k`` is found
deterministically whenever one exists.  For real matrices the rank defect is
a real polynomial condition, so a real random vector does as well.

The search is one canonical scan followed by the random trials, each stack
ranked by the package's one rank decision, ``numkernel._split``: ``M_1``
alone, since that is where nearly every search stops; the rest of the scan in
one stack; and the trials in one more, or in consecutive blocks where one
stack would exceed ``_STACK_BYTES`` (the default 16 trials are one stack up
to n = 362).  A block of trials is evaluated by :func:`evaluate`, the
package's one contraction ``sum_j c_j M_j`` (a change of basis in ``algebra``
is one too): for real matrices of size ``n >= 2`` (whose directions are real)
in one ``np.einsum`` contraction of the directions with the stack, which adds
the products ``lam_j M_j`` in index order and so gives the bytes of a loop
over the matrices; for complex matrices, and for 1x1 ones, by that loop
itself, since numpy's SIMD complex ``multiply`` and einsum's textbook complex
product round some products differently, and einsum sums a 1x1 stack in
another order.  Structure matrices and their real pencils are symmetric, so
``_split`` ranks a real stack by its ``eigvalsh`` moduli.  The random
directions are drawn row by row from one generator seeded by ``seed``, so the
first ``t`` of them do not depend on ``trials``.

The decision runs the search once, after splitting off the annihilator: on
the full tensor when the annihilator is zero (an invertible ``M_k`` is
branch "a"), and on the leading blocks otherwise, since a non-zero
annihilator leaves every ``M_k`` singular.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import numkernel
from .numkernel import DEFAULT_TOL, DimensionMismatch, ToleranceContext

DEFAULT_TRIALS = 16
# the bytes of one stack of random-trial pencils, so that memory does not grow with ``trials``
_STACK_BYTES = 1 << 25


@dataclass(frozen=True)
class PencilRankWitness:
    """A unit direction together with the rank it achieves.

    ``canonical_index`` is the 1-based index of the structure matrix when the
    witness is a canonical direction, else ``None``.  ``smallest_kept_sv`` is
    the smallest retained singular value at the witness, recorded for
    conditioning diagnostics and tie-breaking.  The seed of the random
    directions is the caller's and is not recorded.
    """

    lambda0: np.ndarray
    r0: int
    trials_used: int
    canonical_index: Optional[int] = None
    smallest_kept_sv: float = 0.0


def evaluate(mats: Sequence[np.ndarray], lam) -> np.ndarray:
    """Evaluate ``sum_j lam_j M_j`` for each row of coefficients.

    ``lam`` has shape ``(..., m)`` for ``m`` matrices of size ``n``, and the
    result has shape ``(..., n, n)``.  This is the package's one such
    contraction: the pencils, and a change of basis (rows of ``P^{-1}``).
    Each entry is accumulated in index order from +0, one separately
    rounded product ``lam_j * M_j`` at a time, so a stack of rows gives the
    bytes of one call per row.  For ``n >= 2`` with a real stack or real
    coefficients that is one unoptimised ``np.einsum``; otherwise it is a
    loop of ``out += c * M_j``: numpy's SIMD complex ``multiply`` rounds
    some products otherwise than einsum's textbook complex product, and
    einsum sums a 1x1 stack in an unrolled SIMD loop.  The loop skips zero
    coefficients, whose signed-zero products change no sum that starts
    from +0.  Step ``s`` gathers the s-th non-zero term of every row (a
    shorter row is padded with zero coefficients), or broadcasts ``M_s``
    when no coefficient is zero and ``n >= 2``: numpy's complex
    ``multiply`` rounds one row times a broadcast 1x1 matrix otherwise than
    ``c * M_s``.  Symmetric whenever the inputs are.
    """
    n = numkernel._check_stack(mats)
    coeffs = np.asarray(lam)
    if coeffs.shape[-1:] != (len(mats),):
        raise DimensionMismatch(f"pencil over {len(mats)} matrices needs {len(mats)} coefficients, got {coeffs.shape}")
    stack = np.asarray(mats)
    if n > 1 and not (np.iscomplexobj(coeffs) and np.iscomplexobj(stack)):
        return np.einsum("...k,kij->...ij", coeffs, stack)
    rows = coeffs.reshape(-1, len(mats))
    nonzero = rows != 0
    broadcast = n > 1 and nonzero.all()
    # per row, the j of its non-zero coefficients in ascending order, then those of its zeros
    order = np.argsort(~nonzero, axis=1, kind="stable")[:, : nonzero.sum(axis=1).max(initial=0)]
    out = np.zeros((len(rows), n, n), dtype=np.result_type(coeffs.dtype, stack.dtype))
    for js, c in zip(order.T, np.take_along_axis(rows, order, axis=1).T):
        out += c[:, None, None] * (stack[js[0]] if broadcast else stack[js])
    return out.reshape(coeffs.shape[:-1] + (n, n))


def max_pencil_rank(
    mats: Sequence[np.ndarray],
    tol: ToleranceContext = DEFAULT_TOL,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> PencilRankWitness:
    """Best-rank pencil point found among canonical directions and random trials.

    Canonical directions are scanned first in ascending index: the first of
    full rank is returned, with ``trials_used`` counting the directions up
    to it.  ``M_1`` is ranked alone, since most searches stop there; the
    rest of the scan is ranked as one stack.  Random candidates have
    standard Gaussian coordinates drawn from ``np.random.default_rng(seed)``,
    so the result is reproducible bit for bit: a real row of
    ``standard_normal((trials, m))`` when the matrices are real (any real
    dtype), else a row of ``standard_normal((trials, 2, m))`` read as real
    and imaginary parts, each normalised and stored as complex128.  Row
    ``t`` is drawn before row ``t + 1``, so raising ``trials`` only adds
    directions.  The trials are evaluated and ranked in consecutive stacks
    of at most ``_STACK_BYTES`` each, drawn in turn (one stack of the
    default 16 up to n = 362), and compared in trial order.  Among random
    candidates of equal rank the one with the largest smallest retained
    singular value wins.  A random candidate never displaces an equal-rank
    canonical one.  Every stack is ranked by ``numkernel._split``: a real
    symmetric one by its ``eigvalsh`` moduli, any other by its SVD.  The
    moduli agree with the SVD's singular values only to about ``n * eps *
    sigma_max``, so two random candidates whose smallest retained values are
    that close, or a singular value that close to the cutoff, may be
    resolved otherwise than an SVD would: another ``lambda0``, or another
    rank.  Raises :class:`ValueError` when ``trials < 1``.
    """
    n = numkernel._check_stack(mats)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    m = len(mats)
    ranks, first, _ = numkernel._split(np.asarray(mats[:1]), tol)
    k, r, s = 0, int(ranks[0]), first[0]
    if r < n and m > 1:
        ranks, rest, _ = numkernel._split(np.asarray(mats[1:]), tol)
        j = int(np.argmax(ranks))  # the first direction of maximal rank, so the first of full rank if any
        if ranks[j] > r:
            k, r, s = j + 1, int(ranks[j]), rest[j]
    lam = np.zeros(m, dtype=np.complex128)
    lam[k] = 1.0
    best = PencilRankWitness(lam, r, k + 1, canonical_index=k + 1,
                             smallest_kept_sv=float(s[r - 1]) if r else 0.0)
    if r == n:
        return best
    real = not np.iscomplexobj(mats[0])
    rng = np.random.default_rng(seed)
    block = max(1, _STACK_BYTES // ((8 if real else 16) * n * n))  # pencils per stack
    for start in range(0, trials, block):
        # the next rows of standard_normal((trials, m)), or of (trials, 2, m) read as real and imaginary parts
        z = rng.standard_normal((min(block, trials - start), 1 if real else 2, m))
        z = z[:, 0] if real else z[:, 0] + 1j * z[:, 1]
        lams = (z / np.linalg.norm(z, axis=-1, keepdims=True)).astype(np.complex128)
        ranks, s, _ = numkernel._split(evaluate(mats, lams.real if real else lams), tol)
        for t, r in enumerate(ranks.tolist()):
            smin = float(s[t, r - 1]) if r else 0.0
            if r > best.r0 or (r == best.r0 and best.canonical_index is None and smin > best.smallest_kept_sv):
                best = PencilRankWitness(lams[t], r, m + start + t + 1, smallest_kept_sv=smin)
    return replace(best, trials_used=m + trials)
