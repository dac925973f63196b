"""Print how the decisions, the certificate check and parsing scale with n.

Run ``make scale``, which is

    MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=268435456 PYTHONPATH=src python tools/scale.py

For ``planted_evolution_algebra(n, seed=1)`` at n = 16, 32, 48 and 64 it
prints the best of three wall times of ``is_evolution_algebra`` and of
``check_certificate`` on the returned certificate, unscaled, in
milliseconds.  It then prints, at n = 32 and 64, the best of three wall
times of ``is_evolution_algebra`` on the complexification of the same
instance, which has real constants and is decided on its real tensor, and
on ``complex_basis(n, 1)`` from ``tools/probe.py`` (the planted instance of
seed 1 re-expressed in a complex basis, so that it has complex constants
and is decided in complex arithmetic), each with the decision's branch:
branch "b.2", whose re-coordinatisation of the leading blocks through
``P^{-1}`` skips the zero coefficients (``pencil.evaluate`` over a complex
stack for the complex basis), a path that no benchmark workload reaches.
Next the best of three wall times of
``is_evolution_algebra`` on ``complex_only(n, 0)`` from ``tools/probe.py``
(C as a real algebra plus idempotents, scrambled) at n = 16 and 32, a
decision that ends complex only and that no benchmark workload reaches.
Then it prints the best of three wall times of ``is_evolution_algebra`` on
``adversarial_instance(kind, n, seed=1)`` for the kinds ``noncommuting``,
``defective`` and ``ann_mismatch`` at n = 24 and 48: refutations whose
similarity stage names a pair from the commutators alone, or computes the
eigen-structure of a defective matrix, or whose pencil search runs to its
end (branch "b.1": every canonical direction, then every random trial).
Beside each refutation time it prints the ``np.linalg.svd``,
``np.linalg.eigvalsh`` and ``np.linalg.eig`` calls of one more decision of
the same instance, made untimed with the three functions wrapped by a
counter of this script (the pencil search ranks real symmetric stacks by
``eigvalsh``).
Last it prints the best of three wall times of ``parse`` on the text of
``serialise(planted_evolution_algebra(n, seed=1)[0])`` at n = 8, 16 and 32,
with the line count of each file; the benchmark's files stop at n = 8.
BLAS runs with one thread when the variables below are not already set, as
in the benchmark.  Outside the benchmark: the figures depend on the machine
and its load, so compare two checkouts by running both on one machine,
alternately.  glibc moves its mmap threshold after large blocks are freed,
and returns freed memory at the top of the heap to the system, so the time
of ``check_certificate``, taken after the decisions, depends on what they
allocated and counts the page faults of growing the heap again;
``MALLOC_MMAP_THRESHOLD_`` fixes the one threshold and
``MALLOC_TRIM_THRESHOLD_`` keeps the heap from being trimmed, which makes
that column comparable across checkouts.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

# numpy reads the thread settings when it is first imported
import numpy as np  # noqa: E402

from evoalg import (  # noqa: E402
    COMPLEX_ONLY_UNDETERMINED,
    EVOLUTION,
    NOT_EVOLUTION,
    adversarial_instance,
    check_certificate,
    complexify,
    is_evolution_algebra,
    parse,
    planted_evolution_algebra,
    serialise,
)
from probe import complex_basis, complex_only  # noqa: E402  (tools/ is on the path of a script run from it)

SIZES = (16, 32, 48, 64)
COMPLEX_SIZES = (32, 64)
COMPLEX_ONLY_SIZES = (16, 32)
REFUTATION_KINDS = ("noncommuting", "defective", "ann_mismatch")
REFUTATION_SIZES = (24, 48)
PARSE_SIZES = (8, 16, 32)
REPEATS = 3


def best_ms(call) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3, result


@contextmanager
def counted(*names):
    """Count the calls of the named ``np.linalg`` functions made inside the block."""
    counts = dict.fromkeys(names, 0)
    originals = {name: getattr(np.linalg, name) for name in names}

    def counting(name):
        def call(*args, **kwargs):
            counts[name] += 1
            return originals[name](*args, **kwargs)
        return call

    for name in names:
        setattr(np.linalg, name, counting(name))
    try:
        yield counts
    finally:
        for name, function in originals.items():
            setattr(np.linalg, name, function)


def main() -> None:
    print(f"{'n':>3}  {'is_evolution_algebra ms':>24}  {'check_certificate ms':>21}")
    for n in SIZES:
        spec, _ = planted_evolution_algebra(n, seed=1)
        decide_ms, verdict = best_ms(lambda: is_evolution_algebra(spec))
        if verdict.outcome != EVOLUTION:
            raise SystemExit(f"n={n}: expected an evolution verdict, got {verdict.outcome}")
        check_ms, check = best_ms(lambda: check_certificate(spec, verdict.certificate.p))
        if not check.ok:
            raise SystemExit(f"n={n}: the certificate was rejected")
        print(f"{n:>3}  {decide_ms:>24.1f}  {check_ms:>21.1f}")
    print(f"\n{'n':>3}  {'complexified decision ms':>24}  {'branch':>6}  {'complex-basis decision ms':>25}  {'branch':>6}")
    for n in COMPLEX_SIZES:
        columns = []
        specs = {"complexified": complexify(planted_evolution_algebra(n, seed=1)[0]), "complex-basis": complex_basis(n, 1)[0]}
        for name, spec in specs.items():
            decide_ms, verdict = best_ms(lambda: is_evolution_algebra(spec))
            if verdict.outcome != EVOLUTION:
                raise SystemExit(f"{name} n={n}: expected an evolution verdict, got {verdict.outcome}")
            columns.append(f"{decide_ms:>{len(name) + 12}.1f}  {verdict.diagnostics.branch:>6}")
        print(f"{n:>3}  " + "  ".join(columns))
    print(f"\n{'n':>3}  {'complex-only decision ms':>24}")
    for n in COMPLEX_ONLY_SIZES:
        spec = complex_only(n, 0)
        decide_ms, verdict = best_ms(lambda: is_evolution_algebra(spec))
        if verdict.outcome != COMPLEX_ONLY_UNDETERMINED:
            raise SystemExit(f"complex-only n={n}: expected {COMPLEX_ONLY_UNDETERMINED}, got {verdict.outcome}")
        print(f"{n:>3}  {decide_ms:>24.1f}")
    print(f"\n{'n':>3}  " + "  ".join(f"{kind + ' refutation ms':>27}  {'svd':>4}  {'eigvalsh':>8}  {'eig':>3}" for kind in REFUTATION_KINDS))
    for n in REFUTATION_SIZES:
        columns = []
        for kind in REFUTATION_KINDS:
            spec = adversarial_instance(kind, n, seed=1)
            decide_ms, verdict = best_ms(lambda: is_evolution_algebra(spec))
            if verdict.outcome != NOT_EVOLUTION:
                raise SystemExit(f"{kind} n={n}: expected {NOT_EVOLUTION}, got {verdict.outcome}")
            with counted("svd", "eigvalsh", "eig") as calls:
                is_evolution_algebra(spec)
            columns.append(f"{decide_ms:>27.1f}  {calls['svd']:>4}  {calls['eigvalsh']:>8}  {calls['eig']:>3}")
        print(f"{n:>3}  " + "  ".join(columns))
    print(f"\n{'n':>3}  {'lines':>6}  {'parse ms':>9}")
    for n in PARSE_SIZES:
        text = serialise(planted_evolution_algebra(n, seed=1)[0])
        parse_ms, _ = best_ms(lambda: parse(text))
        print(f"{n:>3}  {len(text.splitlines()):>6}  {parse_ms:>9.2f}")


if __name__ == "__main__":
    main()
