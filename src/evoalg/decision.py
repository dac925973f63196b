"""End-to-end decision: is a given commutative algebra an evolution algebra?

The procedure follows the reduction of the underlying theory: split off the
annihilator, run the one pencil search on what remains, and solve at the
point it returns.

* branch "a": the annihilator is zero and the search's canonical scan (the
  structure matrices in index order) finds an invertible one; it is the
  pencil point, and the problem reduces to a similarity problem
  (invertible-matrix shortcut).
* branch "b.1": the annihilator is zero and no structure matrix is
  invertible; the search goes on with its random trials.  If it tops out
  below full rank, the kernel dimension (zero) contradicts the rank defect
  and the algebra is not an evolution algebra.
* branch "b.2": the annihilator is non-zero, so no structure matrix is
  invertible; re-express the algebra with the annihilator last, search a
  pencil point of the leading blocks, decide them, and embed the transform
  back through the adapted basis (``algebra._embed``).  Leading blocks that
  top out below full rank are the refutation.

Every algebra is decided in one pass (``_solve``), in the arithmetic of its
structure tensor, on a similarity family built once as one array.  The pass
goes in a fixed order: the routing test (every member commutes with the sum
of the family); for a family that fails it, the scan of the commutators;
then the construction of a common eigenbasis and a congruence transform,
and the certificate check on it; and, for a routed family whose transform
was rejected or that has no common eigenbasis, the scan.  A transform that
passes the check is the positive verdict.  A non-commuting pair, cheap and
checked with a margin, is named by the scan; a defect, ill-posed under
perturbation, only by the construction, which confirms a defect met on the
whole space or in a subspace on the whole matrix.  Without a witness, the
verdict is undetermined.  A numerical failure anywhere is final: the
verdict is undetermined, with the failure in its notes.

A real algebra has a real similarity family, and its transform is complex
only in the eigenspaces of non-real eigenvalues.  A positive verdict needs a
real change of basis; a complex one that passes the check gives "complex
only, undetermined over R", with the complex certificate attached.

A natural basis of a real algebra is one of its complexification too, so a
complex algebra whose constants are all real is decided, and checked, on its
real tensor (``_tensor``): it gets the real algebra's pencil point, witness
and certificate.  Only the outcome reads the field: over C a complex
certificate is a natural basis, and the verdict is "evolution".
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import algebra, numkernel, pencil, sdc, sds
from .algebra import REAL, AdaptedBasis, AlgebraSpec
from .numkernel import DEFAULT_TOL, NonConvergence, ToleranceContext
from .pencil import DEFAULT_TRIALS
from .sds import Refutation

EVOLUTION = "evolution"
NOT_EVOLUTION = "not_evolution"
COMPLEX_ONLY_UNDETERMINED = "complex_only_undetermined"
UNDETERMINED = "undetermined"

# the failures that give an undetermined verdict
_NUMERICAL_FAILURES = (NonConvergence, np.linalg.LinAlgError)

_RULES = {
    "a": "invertible structure matrix shortcut",
    "b.1": "full-rank pencil search with zero annihilator",
    "b.2": "annihilator reduction to the leading blocks",
}


@dataclass(frozen=True)
class Certificate:
    """A verifiable natural-basis witness.

    Column ``i`` of ``p`` holds the coordinates of the i-th natural basis
    vector in the input basis; ``diagonals[k]`` is the diagonal of
    ``P^T M_k P``; row ``i`` of ``natural_basis_products`` collects the
    coordinates of the square of the i-th natural basis vector in the input
    basis, i.e. entry ``(i, k)`` equals ``diagonals[k][i]``.
    """

    p: np.ndarray
    diagonals: tuple[np.ndarray, ...]
    natural_basis_products: np.ndarray


@dataclass(frozen=True)
class Diagnostics:
    branch: Optional[str]
    r0: Optional[int]
    lambda0: Optional[np.ndarray]
    ann_dim: Optional[int]
    trials: int
    trials_used: Optional[int]
    seed: int
    tolerances: ToleranceContext
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class Verdict:
    outcome: str
    certificate: Optional[Certificate] = None
    refutation: Optional[Refutation] = None
    diagnostics: Optional[Diagnostics] = None


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    offending_pair: Optional[tuple[int, int]] = None
    residual: float = 0.0
    reason: Optional[str] = None


def _certificate(p: np.ndarray, diagonals: np.ndarray) -> Certificate:  # row k of diagonals: the diagonal of P^T M_k P
    return Certificate(p, tuple(diagonals), diagonals.T.copy())  # row i = coordinates of the square of e*_i


def _tensor(spec: AlgebraSpec) -> np.ndarray:
    """The structure tensor that decides ``spec``: its own, or the C-ordered real copy its constants keep
    when it is complex and every imaginary part is zero, so that the arithmetic follows the values."""
    return algebra.validate(spec).constants.narrowest


def _check(t: np.ndarray, p, tol: ToleranceContext) -> tuple[CertificateCheck, Optional[np.ndarray]]:
    """The certificate test on the structure tensor ``t``.

    Returns the check and, once ``p`` is a nonsingular square matrix, the
    diagonals of the products ``A = P^T M P`` in the candidate basis, as rows:
    ``A[k, i, j]`` is the k-th input coordinate of ``b_i b_j``, and row ``k``
    holds ``A[k, i, i]``.  Each pair ``i < j`` passes when
    ``||b_i b_j|| <= verify_rtol * ||t||_F * ||p_i|| * ||p_j||``.
    """
    n = t.shape[0]
    pm = np.asarray(p)
    if pm.shape != (n, n):
        return CertificateCheck(ok=False, reason=f"transform must be {n}x{n}, got {pm.shape}"), None
    if not np.all(np.isfinite(pm)):
        return CertificateCheck(ok=False, reason="transform has non-finite entries"), None
    if numkernel.rank(pm, tol) < n:
        return CertificateCheck(ok=False, reason="transform is singular under the rank tolerance"), None
    # divide t and each column of p by 2^e, e the exponent of its largest entry: no entry exceeds 2, nothing overflows
    t_exp, col_exp = np.frexp(np.abs(t).max(initial=0.0))[1] - 1, np.frexp(np.abs(pm).max(axis=0))[1] - 1
    tn, q = t / np.ldexp(1.0, t_exp), pm / np.ldexp(1.0, col_exp)
    scaled = q.T @ tn @ q
    rows, cols = np.nonzero(np.arange(n)[:, None] < np.arange(n))  # the pairs i < j, row by row
    residual = np.linalg.norm(scaled[:, rows, cols], axis=0)
    column_norms = np.linalg.norm(q, axis=0)
    ok = np.all(residual <= tol.verify_rtol * float(np.linalg.norm(tn)) * column_norms[rows] * column_norms[cols])
    with np.errstate(over="ignore", invalid="ignore"):  # back at the scale of t and p; inf is beyond the range
        diagonals = np.diagonal(scaled, axis1=1, axis2=2) * np.ldexp(1.0, t_exp + 2 * col_exp)
        residual = np.ldexp(residual, t_exp + col_exp[rows] + col_exp[cols])
    if ok:
        return CertificateCheck(ok=True, residual=float(residual.max(initial=0.0))), diagonals
    worst = int(np.argmax(residual))
    pair = (int(rows[worst]) + 1, int(cols[worst]) + 1)
    return CertificateCheck(ok=False, offending_pair=pair, residual=float(residual[worst])), diagonals


def _solve(
    t: np.ndarray,
    stack: np.ndarray,
    lam: np.ndarray,
    adapted: Optional[AdaptedBasis],
    tol: ToleranceContext,
) -> tuple[Optional[Certificate], Optional[Refutation], Optional[str]]:
    """Decide the stack at the pencil point ``lam`` in one pass, in the arithmetic of the stack.

    Builds the family ``N_k = W^{-1} M_k`` once, as one array, then goes
    through it in a fixed order.  First the routing test: whether every
    ``N_k`` commutes with their sum.  A family that fails it runs the scan
    of the commutators first, and a non-commuting pair is the refutation.
    Then the construction: the common eigenbasis, the transform (embedded
    through the adapted basis of branch b.2), and the checker on it.  A
    transform the checker accepts is the certificate, and a member whose
    analysis, on the whole space or in a subspace, is defective is the
    refutation when the whole matrix is defective too.  A routed family
    whose transform is rejected, or that has no common eigenbasis, runs the
    scan after it.  Returns the certificate, the refutation and, where no
    transform passed, a note that says why.  A numerical failure of the
    construction is final and propagates.
    """
    w, family = sdc._similarity_family(stack, lam)
    routed = sds._commute_with_sum(family, tol)
    if not routed:
        refutation = sds._witness(family, tol)
        if refutation is not None:
            return None, refutation, None
    bases = sds._common_eigenbasis(family, tol)
    if isinstance(bases, list):
        p = sdc._assemble(w, bases)
        if adapted is not None:
            p = algebra._embed(adapted, p)
        check, diagonals = _check(t, p, tol)
        if check.ok:
            return _certificate(p, diagonals), None, None
        note = "constructed transform failed independent congruence verification"
    elif bases is not None:
        return None, bases, None  # a defective matrix of the whole space
    else:
        note = "no common eigenbasis was constructed: a restriction to a common eigenspace is defective"
    return None, sds._witness(family, tol) if routed else None, note


def is_evolution_algebra(
    spec: AlgebraSpec,
    tol: ToleranceContext = DEFAULT_TOL,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> Verdict:
    """Decide whether the algebra admits a natural basis.

    Every positive verdict carries a certificate that passes
    :func:`check_certificate`; every negative verdict carries an
    independently recheckable refutation witness.  Numerical failures give
    an undetermined outcome, never a silently wrong verdict.  The arithmetic
    follows the values: a complex algebra whose constants are all real is
    decided as the real algebra, with the same pencil point, witness and
    certificate, and a complex certificate then means ``evolution``.  Raises
    :class:`ValueError` when ``trials < 1`` or ``seed < 0``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    t = _tensor(spec)
    n = spec.dim
    notes: list[str] = []

    def diag(branch, r0, lambda0, ann_dim, trials_used):
        return Diagnostics(branch, r0, lambda0, ann_dim, trials, trials_used, seed, tol, tuple(notes))

    try:
        if not t.any():
            # zero algebra: the given basis is already natural
            p = np.eye(n)
            return Verdict(EVOLUTION, _certificate(p, _check(t, p, tol)[1]), None, diag("b.2", 0, None, n, None))

        ann = algebra._annihilator(t, tol)
        ann_dim = ann.shape[1]
        adapted = algebra._adapt(t, ann) if ann_dim else None
        stack, branch = (t, "b.1") if adapted is None else (adapted.blocks, "b.2")
        witness = pencil.max_pencil_rank(stack, tol, trials, seed)
        if branch == "b.1" and witness.r0 == n and witness.canonical_index is not None:
            branch = "a"  # an invertible structure matrix is the witness
        if witness.r0 == n - ann_dim:
            certificate, refutation, note = _solve(t, stack, witness.lambda0, adapted, tol)
        elif ann_dim:
            notes.append("randomized search found no invertible pencil point for the reduced blocks")
            certificate, refutation, note = None, sdc.NoFullRankPencil(witness.trials_used, seed), None
        else:
            notes.append(
                "no full-rank pencil point found by randomized search; "
                "the rank defect contradicts the zero common kernel"
            )
            certificate, refutation, note = None, sdc.KernelDimensionMismatch(0, n - witness.r0), None
        if refutation is not None:
            outcome = NOT_EVOLUTION
        elif certificate is None:
            notes.append(note)
            outcome = UNDETERMINED
        elif spec.field == REAL and np.iscomplexobj(certificate.p):
            notes.append("similarity spectrum is not real; no real natural basis was certified")
            outcome = COMPLEX_ONLY_UNDETERMINED
        else:
            outcome = EVOLUTION
        diagnostics = diag(branch, witness.r0, witness.lambda0, ann_dim, witness.trials_used)
        return Verdict(outcome, certificate, refutation, diagnostics)
    except _NUMERICAL_FAILURES as exc:
        notes.append(f"numerical failure: {exc}")
        return Verdict(UNDETERMINED, None, None, diag(None, None, None, None, None))


def check_certificate(spec: AlgebraSpec, p, tol: ToleranceContext = DEFAULT_TOL) -> CertificateCheck:
    """Independent oracle for a natural-basis candidate.

    Computes every product ``b_i b_j`` of the candidate basis (the columns of
    ``p``) in one batched congruence ``P^T M P`` and accepts when each
    off-diagonal one satisfies
    ``||b_i b_j|| <= verify_rtol * ||t||_F * ||p_i|| * ||p_j||``, with ``t``
    the structure tensor, taken real when every constant is, as the decision
    takes it.  ``residual`` is the largest ``||b_i b_j||`` and
    ``offending_pair`` its 1-based pair.  Knows nothing about how ``p`` was
    produced; :func:`is_evolution_algebra` gates its certificates on the same
    test.
    """
    return _check(_tensor(spec), p, tol)[0]


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:.12g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.12g}{sign}{abs(z.imag):.12g}i"


def _fmt_vector(v: np.ndarray) -> str:
    return "[" + ", ".join(_fmt_complex(x) for x in np.asarray(v)) + "]"


def explain(verdict: Verdict) -> str:
    """Human-readable report: branch taken, rule applied, witness data,
    and the parameters needed to reproduce the run."""
    lines = [f"verdict: {verdict.outcome}"]
    d = verdict.diagnostics
    if d is not None:
        if d.branch is not None:
            lines.append(f"branch: {d.branch} ({_RULES[d.branch]})")
        if d.ann_dim is not None:
            lines.append(f"annihilator dimension: {d.ann_dim}")
        if d.lambda0 is not None:
            lines.append(f"pencil point: lambda0 = {_fmt_vector(d.lambda0)} (rank {d.r0})")
    r = verdict.refutation
    if r is not None:
        values = {name: _fmt_complex(v) if isinstance(v, complex) else v for name, v in vars(r).items()}
        lines.append("refutation: " + r.text.format(**values))
    c = verdict.certificate
    if c is not None:
        lines.append("natural basis (coordinates in the input basis):")
        for i in range(c.p.shape[1]):
            lines.append(f"  b{i + 1} = {_fmt_vector(c.p[:, i])}")
        lines.append("squares of the natural basis (input-basis coordinates):")
        for i in range(c.natural_basis_products.shape[0]):
            lines.append(f"  b{i + 1}^2 = {_fmt_vector(c.natural_basis_products[i])}")
    if d is not None:
        t = d.tolerances
        lines.append("tolerances: " + ", ".join(f"{f.name}={getattr(t, f.name):g}" for f in fields(t)))
        lines.append(f"reproduce with: seed={d.seed}, trials={d.trials}" +
                     (f", trials_used={d.trials_used}" if d.trials_used is not None else ""))
        for note in d.notes:
            lines.append(f"note: {note}")
    return "\n".join(lines)
