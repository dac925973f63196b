"""Print one line per decision over a fixed corpus, for comparing two versions of evoalg.

    PYTHONPATH=src python tools/probe.py          (or: make probe)

Each line names the instance and the tolerance set, then the verdict, the
refutation, branch, r0, ann_dim, trials_used, notes, the SHA-1 of the
bytes of ``lambda0`` and of the certificate (``p`` then the squares of the
natural basis), and whether ``check_certificate`` accepts that certificate
at the line's tolerances, so that a changed certificate hash can be told
harmless from the diff alone.  Lines are sorted and contain no timing, so
the output of two checkouts compares with a plain diff: run this script
with ``PYTHONPATH`` pointing at each ``src``.

The corpus is decided at the default tolerances and at
``eig_cluster_atol=1e-5``:

* planted instances, n = 2…12, seeds 0–11, and n ∈ {16, 24, 32}, seeds 0–3,
  real, complexified (decided on their real tensor, so each line equals its
  real twin after the label) and re-expressed in a complex basis
  (``complex_basis``, decided in complex arithmetic);
* the three adversarial kinds, n = 3…12, seeds None and 0–9, and
  n ∈ {16, 24}, seeds 0–3;
* planted n ∈ {4, 6, 8} re-expressed in a basis of condition number
  κ ∈ {1e3, 1e4, 1e5, 1e6}, seeds 0–19;
* evolution algebras whose squares all lie along one basis vector,
  re-expressed by ``corpus.well_conditioned_matrix``, n = 2…8, seeds 0–19
  (``one_direction``);
* evolution algebras whose natural basis vectors share ``n // 2`` square
  directions, so that common eigenspaces of dimension > 1 reach the Gram
  factor, re-expressed likewise, n = 3…8, seeds 0–19
  (``proportional_squares``);
* the named examples at the ε of the README and the acceptance tests, real
  and complexified;
* a real algebra that is an evolution algebra only over C (the complex
  numbers as a real algebra, padded with idempotents to n = 2…8), as given
  and re-expressed by ``corpus.well_conditioned_matrix`` at seeds 0–4;
* the real direct sums of C with ``mendel(0)``, ``nota2``,
  ``tetraploid(0)`` and ``mendel(0.25)``, in both orders, as given and
  re-expressed at seeds 0–3.

The last two groups have a similarity spectrum that is not real, so the
decision's one pass goes over C inside the eigenspaces of non-real
eigenvalues: the complex-only instances and the sums with ``mendel(0.25)``
end ``complex_only_undetermined``, and the other sums are refuted.
"""

from __future__ import annotations

import hashlib

import numpy as np

from evoalg import (
    AlgebraSpec,
    ToleranceContext,
    adversarial_instance,
    change_basis,
    check_certificate,
    complexify,
    example_algebra,
    is_evolution_algebra,
    planted_evolution_algebra,
)
from evoalg.corpus import well_conditioned_matrix

TOLERANCES = {"default": ToleranceContext(), "eig_cluster_atol=1e-5": ToleranceContext(eig_cluster_atol=1e-5)}

EXAMPLES = [
    ("simple2d", None),
    ("nota2", None),
    *(("mendel", eps) for eps in (0.0, 0.1, 0.25, 0.5, 1.0)),
    *(("tetraploid", eps) for eps in (0.0, 0.05, 0.1, 0.2)),
    *(("mendel3d_ann", eps) for eps in (0.0, 0.1, 0.2, 0.5)),
]


def scrambled_planted(n, kappa, seed):
    """A planted instance re-expressed in a basis of condition number ``kappa``, and its natural basis.

    This is the κ-scrambled corpus, which the tests import from here.  The planted spec of
    ``planted_evolution_algebra`` has the natural basis ``p^-1``, for its transform ``p``, and
    ``change_basis`` by ``s = u diag(1 .. 1/kappa) v^T`` (``u``, ``v`` orthogonal, drawn from
    ``default_rng([seed, n, log10(kappa)])``) makes it ``s^-1 p^-1``.  Returns the spec and that
    basis as the columns of a matrix.
    """
    spec, p = planted_evolution_algebra(n, seed=seed)
    rng = np.random.default_rng([seed, n, int(np.log10(kappa))])
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = u @ np.diag(np.logspace(0, -np.log10(kappa), n)) @ v.T
    return change_basis(spec, s), np.linalg.inv(s) @ np.linalg.inv(p)


def in_complex_basis(spec, seed):
    """``spec`` re-expressed in a complex basis, and that basis as the columns of a matrix.

    ``change_basis`` by ``s = A + iB``, with ``A`` and ``B`` from ``corpus.well_conditioned_matrix`` on
    ``default_rng([seed, n, 13])``, gives the algebra complex constants, so that it is decided in
    complex arithmetic; a basis ``q`` of the old coordinates is ``s^-1 q`` in the new ones.
    """
    n = spec.dim
    rng = np.random.default_rng([seed, n, 13])
    s = well_conditioned_matrix(n, rng) + 1j * well_conditioned_matrix(n, rng)
    return change_basis(spec, s), s


def complex_basis(n, seed):
    """A planted instance re-expressed in a complex basis (``in_complex_basis``), and its natural basis.

    Its natural basis ``p^-1`` becomes ``s^-1 p^-1``.  Returns the spec and that basis as the
    columns of a matrix, which ``check_certificate`` accepts.
    """
    spec, p = planted_evolution_algebra(n, seed=seed)
    spec, s = in_complex_basis(spec, seed)
    return spec, np.linalg.inv(s) @ np.linalg.inv(p)


def one_direction(n, seed):
    """An evolution algebra whose squares all lie along one basis vector, scrambled, and its natural basis.

    In the natural basis ``e_i^2 = c_i e_k0`` for ``i != k0`` and ``e_k0^2 = 0``: every structure
    matrix is a multiple of one matrix, and ``e_k0`` spans the annihilator.  ``k0``, the ``c_i``
    (``+-[0.5, 2)``) and then the change of basis ``corpus.well_conditioned_matrix`` are drawn from
    ``default_rng([seed, n, 99])``.  Returns the spec and its natural basis as the columns of a
    matrix, which ``check_certificate`` accepts.
    """
    rng = np.random.default_rng([seed, n, 99])
    k0 = int(rng.integers(n))
    c = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    constants = {(i + 1, i + 1, k0 + 1): float(c[i]) for i in range(n) if i != k0}
    p = well_conditioned_matrix(n, rng)
    return change_basis(AlgebraSpec(n, "real", constants), p), np.linalg.inv(p)


def proportional_squares(n, seed):
    """An evolution algebra whose natural basis vectors share ``n // 2`` square directions, scrambled, and its natural basis.

    In the natural basis ``e_i^2 = c_i v_g(i)``: the vectors with one ``g(i)`` have proportional
    squares, so common eigenspaces of dimension > 1 remain for the Gram factor.  ``g`` (in
    ``0 .. n // 2 - 1``), the directions ``v`` (entries ``U(-1, 1)``), the ``c_i`` (``+-[0.5, 2)``)
    and then the change of basis ``corpus.well_conditioned_matrix`` are drawn from
    ``default_rng([seed, n, 7])``.  Returns the spec and its natural basis as the columns of a
    matrix, which ``check_certificate`` accepts.
    """
    rng = np.random.default_rng([seed, n, 7])
    g = rng.integers(0, n // 2, n)
    directions = rng.uniform(-1.0, 1.0, (n // 2, n))
    c = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    constants = {(i + 1, i + 1, k + 1): float(c[i] * directions[g[i], k]) for i in range(n) for k in range(n)}
    p = well_conditioned_matrix(n, rng)
    return change_basis(AlgebraSpec(n, "real", constants), p), np.linalg.inv(p)


# C as a real algebra: e1 the unit, e2^2 = -e1
COMPLEX_NUMBERS = {(1, 1, 1): 1.0, (2, 2, 1): -1.0, (1, 2, 2): 1.0}

SUMMANDS = [("mendel", 0.0), ("nota2", None), ("tetraploid", 0.0), ("mendel", 0.25)]


def scrambled(spec, seed):
    """``spec`` re-expressed by ``corpus.well_conditioned_matrix`` on the stream ``seed``, as given when seed is None."""
    return spec if seed is None else change_basis(spec, well_conditioned_matrix(spec.dim, np.random.default_rng(seed)))


def complex_only(n, seed):
    """``C`` as a real algebra plus idempotents up to n, scrambled unless seed is None."""
    constants = {**COMPLEX_NUMBERS, **{(i, i, i): 1.0 for i in range(3, n + 1)}}
    return scrambled(AlgebraSpec(n, "real", constants), seed)


def direct_sum(first: AlgebraSpec, second: AlgebraSpec) -> AlgebraSpec:
    """The real direct sum: ``second``'s basis follows ``first``'s, and products across the two vanish."""
    shift = first.dim
    constants = {**first.constants, **{(i + shift, j + shift, k + shift): c for (i, j, k), c in second.constants.items()}}
    return AlgebraSpec(first.dim + second.dim, "real", constants)


def corpus():
    """``(label, spec)`` for every instance, real and complexified where listed."""
    for n in (*range(2, 13), 16, 24, 32):
        for seed in range(12 if n <= 12 else 4):
            spec, _ = planted_evolution_algebra(n, seed=seed)
            yield f"planted n={n} seed={seed} real", spec
            yield f"planted n={n} seed={seed} complex", complexify(spec)
            yield f"complex-basis n={n} seed={seed}", complex_basis(n, seed)[0]
    for kind in ("defective", "noncommuting", "ann_mismatch"):
        for n in (*range(3, 13), 16, 24):
            for seed in (None, *range(10)) if n <= 12 else range(4):
                yield f"adversarial {kind} n={n} seed={seed}", adversarial_instance(kind, n, seed)
    for n in (4, 6, 8):
        for kappa in (1e3, 1e4, 1e5, 1e6):
            for seed in range(20):
                yield f"scrambled n={n} kappa={kappa:g} seed={seed}", scrambled_planted(n, kappa, seed)[0]
    for n in range(2, 9):
        for seed in range(20):
            yield f"one-direction n={n} seed={seed}", one_direction(n, seed)[0]
    for n in range(3, 9):
        for seed in range(20):
            yield f"proportional-squares n={n} seed={seed}", proportional_squares(n, seed)[0]
    for name, eps in EXAMPLES:
        spec = example_algebra(name, eps)
        yield f"example {name} eps={eps} real", spec
        yield f"example {name} eps={eps} complex", complexify(spec)
    for n in range(2, 9):
        for seed in (None, *range(5)):
            yield f"complex-only n={n} seed={seed}", complex_only(n, seed)
    c = AlgebraSpec(2, "real", COMPLEX_NUMBERS)
    for name, eps in SUMMANDS:
        other = example_algebra(name, eps)
        for label, spec in ((f"C+{name}({eps})", direct_sum(c, other)), (f"{name}({eps})+C", direct_sum(other, c))):
            for seed in (None, *range(4)):
                yield f"complex-sum {label} seed={seed}", scrambled(spec, seed)


def sha1(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def line(label: str, tol_name: str, spec) -> str:
    v = is_evolution_algebra(spec, TOLERANCES[tol_name])
    d = v.diagnostics
    lam = "-" if d.lambda0 is None else sha1(d.lambda0)
    if v.certificate is None:
        cert = "- cert_ok=-"
    else:
        ok = check_certificate(spec, v.certificate.p, TOLERANCES[tol_name]).ok
        cert = f"{sha1(v.certificate.p, v.certificate.natural_basis_products)} cert_ok={ok}"
    return (
        f"{label} | tol {tol_name} | {v.outcome} | {v.refutation!r} | branch={d.branch} r0={d.r0} "
        f"ann_dim={d.ann_dim} trials_used={d.trials_used} | notes={list(d.notes)} | lambda0={lam} cert={cert}"
    )


def main() -> None:
    instances = list(corpus())
    for out in sorted(line(label, tol_name, spec) for tol_name in TOLERANCES for label, spec in instances):
        print(out)


if __name__ == "__main__":
    main()
