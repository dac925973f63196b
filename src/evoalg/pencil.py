"""Linear pencils of symmetric matrices and the search for a full-rank point.

Given matrices ``M_1 .. M_m``, the pencil is ``M(lam) = sum_j lam_j M_j``.
The rank of ``M(lam)`` is maximised outside a proper algebraic subvariety, so
a random unit vector attains the maximum with probability one; the canonical
directions are tried first so that an invertible ``M_k`` is found
deterministically whenever one exists.  For real matrices the rank defect is
a real polynomial condition, so a real random vector does as well.

The search is one canonical scan followed by the random trials.  The
decision runs it once, after splitting off the annihilator: on the full
tensor when the annihilator is zero (an invertible ``M_k`` is branch "a"),
and on the leading blocks otherwise, since a non-zero annihilator leaves
every ``M_k`` singular.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import numkernel
from .numkernel import DEFAULT_TOL, DimensionMismatch, ToleranceContext

DEFAULT_TRIALS = 16


@dataclass(frozen=True)
class PencilRankWitness:
    """A unit direction together with the rank it achieves.

    ``canonical_index`` is the 1-based index of the structure matrix when the
    witness is a canonical direction, else ``None``.  ``smallest_kept_sv`` is
    the smallest retained singular value at the witness, recorded for
    conditioning diagnostics and tie-breaking.
    """

    lambda0: np.ndarray
    r0: int
    trials_used: int
    seed: int
    canonical_index: Optional[int] = None
    smallest_kept_sv: float = 0.0


def evaluate(mats: Sequence[np.ndarray], lam) -> np.ndarray:
    """Evaluate ``sum_j lam_j M_j``; symmetric whenever the inputs are."""
    n = numkernel._check_stack(mats)
    coeffs = np.asarray(lam)
    if coeffs.shape != (len(mats),):
        raise DimensionMismatch(f"pencil over {len(mats)} matrices needs {len(mats)} coefficients, got {coeffs.shape}")
    out = np.zeros((n, n), dtype=np.result_type(coeffs.dtype, *(m.dtype for m in mats)))
    for c, m in zip(coeffs, mats):
        out += c * m
    return out


def _unit_gaussian(m: int, seed: int, trial: int, real: bool) -> np.ndarray:
    """Unit direction with standard Gaussian coordinates on the stream ``[seed, trial]``."""
    rng = np.random.default_rng([seed, trial])
    z = rng.standard_normal(m) if real else rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return (z / np.linalg.norm(z)).astype(np.complex128)


def max_pencil_rank(
    mats: Sequence[np.ndarray],
    tol: ToleranceContext = DEFAULT_TOL,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> PencilRankWitness:
    """Best-rank pencil point found among canonical directions and random trials.

    Canonical directions are scanned first in ascending index and returned
    immediately when one reaches full rank, with ``trials_used`` counting the
    directions scanned.  Random candidates have standard Gaussian coordinates
    on per-trial streams derived from the seed, so the result is reproducible
    bit for bit.  They are real when the matrices are real (any real dtype)
    and complex otherwise; ``lambda0`` is complex128 either way.  Among random
    candidates of equal rank the one with the largest smallest retained
    singular value wins.  A random candidate never displaces an equal-rank
    canonical one.  Raises :class:`ValueError` when ``trials < 1``.
    """
    n = numkernel._check_stack(mats)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    m = len(mats)
    best: Optional[PencilRankWitness] = None
    for k in range(m):
        r, s, _ = numkernel._split(np.asarray(mats[k]), tol)
        if best is None or r > best.r0:
            lam = np.zeros(m, dtype=np.complex128)
            lam[k] = 1.0
            best = PencilRankWitness(lam, r, k + 1, seed, canonical_index=k + 1,
                                     smallest_kept_sv=float(s[r - 1]) if r else 0.0)
            if r == n:
                return best
    real = not np.iscomplexobj(mats[0])
    for t in range(trials):
        lam = _unit_gaussian(m, seed, t, real)
        r, s, _ = numkernel._split(evaluate(mats, lam.real if real else lam), tol)
        smin = float(s[r - 1]) if r else 0.0
        if r > best.r0 or (r == best.r0 and best.canonical_index is None and smin > best.smallest_kept_sv):
            best = PencilRankWitness(lam, r, m + t + 1, seed, smallest_kept_sv=smin)
    return replace(best, trials_used=m + trials)
