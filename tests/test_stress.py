"""The stress ratchet: the wrong verdicts on the stress corpora are counted, and the counts can only go down.

Every instance below is decided at both tolerance sets of ``tools/probe.py``.
Per (tolerance set, row), where a row is a corpus and its parameter, four
counts are kept: wrong refutations (``not_evolution`` on an evolution
algebra by construction), outcomes that are neither ``evolution`` nor
``not_evolution``, certificates on adversarial instances, and certificates
that ``check_certificate`` rejects at the same tolerances.  The table must
equal ``tests/data/stress_ceilings.json``: a count above its ceiling is a
new wrong verdict, and a count below it is a mended one, whose ceiling is
then lowered in the same change so that the file always states the truth.
The ceilings record known defects, not acceptable levels.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from evoalg import (
    AlgebraSpec,
    adversarial_instance,
    check_certificate,
    complexify,
    example_algebra,
    is_evolution_algebra,
    planted_evolution_algebra,
)
from evoalg.corpus import ADVERSARIAL_KINDS
from evoalg.decision import EVOLUTION, NOT_EVOLUTION
from probe import TOLERANCES, one_direction, scrambled_planted

CEILINGS = Path(__file__).parent / "data" / "stress_ceilings.json"
COLUMNS = ["wrong_refutations", "undetermined", "adversarial_certificates", "rejected_certificates"]


def rescaled(spec, factor):
    """``spec`` with every constant times ``factor``; ``x -> x / factor`` maps it onto ``spec``, so the verdict is the same."""
    return AlgebraSpec(spec.dim, spec.field, {key: c * factor for key, c in spec.constants.items()})


def scrambled():
    """Planted algebras seen through a basis of condition number kappa."""
    for kappa in (1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8):
        for n in (4, 6, 8):
            for seed in range(20):
                yield f"scrambled kappa={kappa:.0e}", scrambled_planted(n, kappa, seed), True


def one_direction_squares():
    """Algebras whose squares all lie along one basis vector, n = 2...8, in a well-conditioned basis."""
    for n in range(2, 9):
        for seed in range(20):
            yield "one-direction", one_direction(n, seed)[0], True


def deformed_examples():
    """``mendel`` and ``tetraploid`` at eps = 10^-k, k = 1...16: the defect at eps = 0 draws nearer as k grows."""
    for name in ("mendel", "tetraploid"):
        for k in range(1, 17):
            yield f"{name} eps=1e-{k:02d}", example_algebra(name, float(f"1e-{k}")), True


def planted():
    """Planted evolution algebras, n = 2...12, over the reals and over the complex numbers."""
    for n in range(2, 13):
        for seed in range(12):
            spec, _ = planted_evolution_algebra(n, seed=seed)
            yield "planted real", spec, True
            yield "planted complex", complexify(spec), True


def adversarial():
    """Every adversarial kind, n = 3...12: none of them is an evolution algebra."""
    for kind in ADVERSARIAL_KINDS:
        for n in range(3, 13):
            for seed in (None, *range(10)):
                yield f"adversarial {kind}", adversarial_instance(kind, n, seed), False


def rescaled_examples():
    """Planted and example algebras with every constant times 1e300, 1e-300 and the subnormal 1e-310."""
    unscaled = [planted_evolution_algebra(n, seed=0)[0] for n in range(2, 9)]
    unscaled += [example_algebra("mendel", 0.25), example_algebra("tetraploid", 0.1), example_algebra("simple2d")]
    for factor in (1e300, 1e-300, 1e-310):
        for spec in unscaled:
            yield f"rescaled x{factor:.0e}", rescaled(spec, factor), True


# each corpus yields ``(row, spec, whether spec is an evolution algebra by construction)``
CORPORA = {
    "scrambled": scrambled,
    "one-direction": one_direction_squares,
    "deformed": deformed_examples,
    "planted": planted,
    "adversarial": adversarial,
    "rescaled": rescaled_examples,
}


def count(corpus, tol_name: str) -> dict:
    """``{"<tol_name> | <row>": [the four counts of COLUMNS]}`` over the instances of ``corpus``."""
    tol = TOLERANCES[tol_name]
    table = {}
    with np.errstate(all="ignore"):  # the rescaled constants overflow and underflow on purpose
        for row, spec, evolution in corpus():
            counts = table.setdefault(f"{tol_name} | {row}", [0, 0, 0, 0])
            v = is_evolution_algebra(spec, tol)
            counts[0] += evolution and v.outcome == NOT_EVOLUTION
            counts[1] += v.outcome not in (EVOLUTION, NOT_EVOLUTION)
            if v.certificate is not None:
                counts[2] += not evolution
                counts[3] += not check_certificate(spec, v.certificate.p, tol).ok
    return table


def read_ceilings() -> dict:
    """The rows of the ceiling file, after checking its column names."""
    ceilings = json.loads(CEILINGS.read_text())
    assert ceilings.pop("columns") == COLUMNS
    return ceilings


def render(table: dict) -> str:
    """The lines of the ceiling file that hold ``table``, one row per line."""
    return ",\n".join(f"  {json.dumps(key)}: {json.dumps(counts)}" for key, counts in table.items())


@pytest.mark.parametrize("tol_name", TOLERANCES)
@pytest.mark.parametrize("corpus", CORPORA)
def test_the_counts_equal_their_ceilings(corpus, tol_name):
    table = count(CORPORA[corpus], tol_name)
    ceilings = read_ceilings()
    changed = {key: (ceilings.get(key), counts) for key, counts in table.items() if ceilings.get(key) != counts}
    assert not changed, (
        f"(ceiling, count) per changed row, counts as {COLUMNS}: {dict(sorted(changed.items()))}\n"
        "a count above its ceiling is a new wrong verdict; a count below it is a mended one: "
        f"write the rows below to {CEILINGS.name} and log the lowered ceilings\n{render(table)}"
    )


def test_the_ceiling_file_holds_exactly_the_stress_rows():
    rows = {f"{tol_name} | {row}" for tol_name in TOLERANCES for corpus in CORPORA.values() for row, _, _ in corpus()}
    assert set(read_ceilings()) == rows


@pytest.mark.parametrize("tol_name", TOLERANCES)
def test_the_one_direction_squares_have_their_natural_basis(tol_name):
    # each is an evolution algebra by the library's own checker, so a refutation of it is wrong
    for n in range(2, 9):
        for seed in range(20):
            spec, p = one_direction(n, seed)
            assert check_certificate(spec, p, TOLERANCES[tol_name]).ok, (n, seed)


@pytest.mark.parametrize("tol_name", TOLERANCES)
def test_power_of_two_scaling_keeps_the_outcome_and_refutation_class(tol_name):
    # a factor 2^k changes no significand, and every tolerance is relative, so the decision must not move
    tol = TOLERANCES[tol_name]
    moved = []
    for index, (row, spec, _) in enumerate(scrambled()):
        given = is_evolution_algebra(spec, tol)
        for factor in (2.0**30, 2.0**-30):
            v = is_evolution_algebra(rescaled(spec, factor), tol)
            if (v.outcome, type(v.refutation)) != (given.outcome, type(given.refutation)):
                moved.append((row, index, factor, given.outcome, v.outcome, given.refutation, v.refutation))
    assert not moved
