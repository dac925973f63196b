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

A permutation of the basis relabels the constants exactly, so it cannot
change what the algebra is.  Every instance is decided again with its basis
reversed, and each κ-scrambled instance with one fixed permutation; per
(tolerance set, row, order) the ``basis_order`` section of the file counts
the outcomes that differ from the instance as given and, apart, the swaps
between ``evolution`` and ``not_evolution``.

κ_P is the 2-norm condition number of an instance's planted natural basis
in its own coordinates, with unit columns: the larger it is, the closer an
algebra that is not an evolution algebra can lie.  Per (tolerance set,
κ-scrambled row) the ``kappa_p_bands`` section of the file splits the wrong
refutations by κ_P: at most 1e4, at most 1e6, and above.

δ(P) is the relative backward error of a certificate P with a free
diagonal: the relative Frobenius distance from the structure tensor to the
nearest one of which P is a natural basis.  Per (tolerance set, row) the
``delta_p_bands`` section of the file splits the issued certificates by
δ(P): at most ``verify_rtol`` (1e-8), at most 1e-6, and above.
"""

import functools
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
    m_structure_matrices,
    planted_evolution_algebra,
)
from evoalg.corpus import ADVERSARIAL_KINDS
from evoalg.decision import EVOLUTION, NOT_EVOLUTION
from probe import TOLERANCES, complex_basis, in_complex_basis, one_direction, proportional_squares, scrambled_planted

CEILINGS = Path(__file__).parent / "data" / "stress_ceilings.json"
COLUMNS = ["wrong_refutations", "undetermined", "adversarial_certificates", "rejected_certificates"]
ORDER_COLUMNS = ["changed_outcomes", "evolution_swaps"]
BAND_COLUMNS = ["wrong_refutations_kappa_p_le_1e4", "wrong_refutations_kappa_p_le_1e6", "wrong_refutations_kappa_p_above"]
KAPPA_P_BANDS = (1e4, 1e6)  # the upper ends of the first two bands
DELTA_COLUMNS = ["certificates_delta_p_le_1e-8", "certificates_delta_p_le_1e-6", "certificates_delta_p_above"]
DELTA_P_BANDS = (1e-8, 1e-6)  # the upper ends of the first two bands; the first is verify_rtol
# the sections of the ceiling file besides the rows of COLUMNS, and their columns
SECTIONS = {"basis_order": ORDER_COLUMNS, "kappa_p_bands": BAND_COLUMNS, "delta_p_bands": DELTA_COLUMNS}
# the kappa-scrambled corpora: their row prefix, sizes and number of seeds
SCRAMBLED = {"scrambled": ("scrambled", (4, 6, 8), 20), "scrambled-n16": ("scrambled n=16", (16,), 10)}


def rescaled(spec, factor):
    """``spec`` with every constant times ``factor``; ``x -> x / factor`` maps it onto ``spec``, so the verdict is the same."""
    return AlgebraSpec(spec.dim, spec.field, {key: c * factor for key, c in spec.constants.items()})


@functools.cache
def scrambled_instances(corpus: str) -> tuple:
    """``(row, spec, natural basis)``: the planted algebras of a kappa-scrambled corpus seen through a basis of
    condition number kappa; built once, since every table of the corpus reads them."""
    prefix, sizes, seeds = SCRAMBLED[corpus]
    return tuple((f"{prefix} kappa={kappa:.0e}", *scrambled_planted(n, kappa, seed))
                 for kappa in (1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8) for n in sizes for seed in range(seeds))


def scrambled():
    """Planted algebras, n = 4, 6, 8, seeds 0...19, seen through a basis of condition number kappa."""
    for row, spec, _ in scrambled_instances("scrambled"):
        yield row, spec, True


def scrambled_n16():
    """The same at n = 16, seeds 0...9, in rows of their own."""
    for row, spec, _ in scrambled_instances("scrambled-n16"):
        yield row, spec, True


def one_direction_squares():
    """Algebras whose squares all lie along one basis vector, n = 2...8, in a well-conditioned basis."""
    for n in range(2, 9):
        for seed in range(20):
            yield "one-direction", one_direction(n, seed)[0], True


def proportional():
    """Algebras whose natural basis vectors share n // 2 square directions, n = 3...8, in a well-conditioned basis."""
    for n in range(3, 9):
        for seed in range(20):
            yield "proportional-squares", proportional_squares(n, seed)[0], True


def deformed_examples():
    """``mendel`` and ``tetraploid`` at eps = 10^-k, k = 1...16: the defect at eps = 0 draws nearer as k grows."""
    for name in ("mendel", "tetraploid"):
        for k in range(1, 17):
            yield f"{name} eps=1e-{k:02d}", example_algebra(name, float(f"1e-{k}")), True


def planted():
    """Planted evolution algebras, n = 2...12, over the reals, over the complex numbers, and in a complex basis."""
    for n in range(2, 13):
        for seed in range(12):
            spec, _ = planted_evolution_algebra(n, seed=seed)
            yield "planted real", spec, True
            yield "planted complex", complexify(spec), True
            yield "planted complex-basis", complex_basis(n, seed)[0], True


def adversarial():
    """Every adversarial kind, n = 3...12: none of them is an evolution algebra."""
    for kind in ADVERSARIAL_KINDS:
        for n in range(3, 13):
            for seed in (None, *range(10)):
                yield f"adversarial {kind}", adversarial_instance(kind, n, seed), False


def adversarial_large():
    """Every adversarial kind at n = 16 and 24, seeds 0...3 as in ``tools/probe.py``, in rows of their own."""
    for kind in ADVERSARIAL_KINDS:
        for n in (16, 24):
            for seed in range(4):
                yield f"adversarial {kind} n={n}", adversarial_instance(kind, n, seed), False


def adversarial_complex_basis():
    """Every adversarial kind, n = 3...12, seeds 0...9, re-expressed in a complex basis: decided in complex arithmetic."""
    for kind in ADVERSARIAL_KINDS:
        for n in range(3, 13):
            for seed in range(10):
                yield f"adversarial {kind} complex-basis", in_complex_basis(adversarial_instance(kind, n, seed), seed)[0], False


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
    "scrambled-n16": scrambled_n16,
    "one-direction": one_direction_squares,
    "proportional-squares": proportional,
    "deformed": deformed_examples,
    "planted": planted,
    "adversarial": adversarial,
    "adversarial-large": adversarial_large,
    "adversarial-complex-basis": adversarial_complex_basis,
    "rescaled": rescaled_examples,
}


@functools.cache
def decided(corpus, tol_name: str) -> list:
    """``(row, spec, evolution, verdict)`` for every instance of ``corpus``, decided once for both tables."""
    with np.errstate(all="ignore"):  # the rescaled constants overflow and underflow on purpose
        return [(row, spec, evolution, is_evolution_algebra(spec, TOLERANCES[tol_name])) for row, spec, evolution in corpus()]


def count(corpus, tol_name: str) -> dict:
    """``{"<tol_name> | <row>": [the four counts of COLUMNS]}`` over the instances of ``corpus``."""
    tol = TOLERANCES[tol_name]
    table = {}
    with np.errstate(all="ignore"):  # the rescaled constants overflow and underflow on purpose
        for row, spec, evolution, v in decided(corpus, tol_name):
            counts = table.setdefault(f"{tol_name} | {row}", [0, 0, 0, 0])
            counts[0] += evolution and v.outcome == NOT_EVOLUTION
            counts[1] += v.outcome not in (EVOLUTION, NOT_EVOLUTION)
            if v.certificate is not None:
                counts[2] += not evolution
                counts[3] += not check_certificate(spec, v.certificate.p, tol).ok
    return table


def relabelled(spec: AlgebraSpec, perm: np.ndarray) -> AlgebraSpec:
    """``spec`` in the basis ``e'_a = e_perm[a]``: the constant ``(i, j, k)`` moves to ``(perm^-1(i), perm^-1(j), perm^-1(k))``,
    with the first two sorted, and keeps its value exactly."""
    inverse = np.argsort(perm) + 1
    constants = {}
    for (i, j, k), c in spec.constants.items():
        a, b = sorted((int(inverse[i - 1]), int(inverse[j - 1])))
        constants[(a, b, int(inverse[k - 1]))] = c
    return AlgebraSpec(spec.dim, spec.field, constants)


def orders(corpus, row: str, n: int):
    """``(name, perm)`` of the basis orders an instance is decided in besides its own."""
    yield "reversed", np.arange(n)[::-1]
    if corpus in (scrambled, scrambled_n16):
        yield "permuted", np.random.default_rng([n, len(row)]).permutation(n)


def order_count(corpus, tol_name: str) -> dict:
    """``{"<tol_name> | <row> | <order>": [the two counts of ORDER_COLUMNS]}`` over the instances of ``corpus``."""
    tol = TOLERANCES[tol_name]
    table = {}
    with np.errstate(all="ignore"):
        for row, spec, _, given in decided(corpus, tol_name):
            for order, perm in orders(corpus, row, spec.dim):
                outcome = is_evolution_algebra(relabelled(spec, perm), tol).outcome
                counts = table.setdefault(f"{tol_name} | {row} | {order}", [0, 0])
                counts[0] += outcome != given.outcome
                counts[1] += {outcome, given.outcome} == {EVOLUTION, NOT_EVOLUTION}
    return table


def kappa_p(basis: np.ndarray) -> float:
    """The 2-norm condition number of ``basis`` with its columns scaled to unit norm."""
    return float(np.linalg.cond(basis / np.linalg.norm(basis, axis=0)))


def band_count(corpus: str, tol_name: str) -> dict:
    """``{"<tol_name> | <row>": [the wrong refutations per band of BAND_COLUMNS]}`` over a kappa-scrambled corpus."""
    table = {}
    for (row, _, _, v), (_, _, basis) in zip(decided(CORPORA[corpus], tol_name), scrambled_instances(corpus)):
        counts = table.setdefault(f"{tol_name} | {row}", [0, 0, 0])
        if v.outcome == NOT_EVOLUTION:
            counts[int(np.searchsorted(KAPPA_P_BANDS, kappa_p(basis)))] += 1  # the first band whose upper end holds it
    return table


def delta_p(spec: AlgebraSpec, p: np.ndarray) -> float:
    """δ(P) = ||T - T_P||_F / ||T||_F, with T the structure tensor divided by its largest |entry| and T_P the
    least-squares fit of each ``M_k`` by ``sum_i d_ki q_i q_i^T``, ``q_i`` the rows of ``P^-1`` (scaled to unit
    norm, which the free ``d_ki`` absorb): one ``lstsq`` of the ``(n^2, n)`` matrix of the ``vec(q_i q_i^T)``."""
    t = m_structure_matrices(spec)
    if not t.any():
        return 0.0  # every basis of the zero algebra is natural
    n = spec.dim
    rhs = (t / np.abs(t).max()).reshape(n, n * n).T
    q = np.linalg.inv(p)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    design = (q[:, :, None] * q[:, None, :]).reshape(n, n * n).T
    fit = design @ np.linalg.lstsq(design, rhs, rcond=None)[0]
    return float(np.linalg.norm(rhs - fit) / np.linalg.norm(rhs))


def delta_count(corpus, tol_name: str) -> dict:
    """``{"<tol_name> | <row>": [the certificates per band of DELTA_COLUMNS]}`` over the instances of ``corpus``."""
    table = {}
    with np.errstate(all="ignore"):
        for row, spec, _, v in decided(corpus, tol_name):
            counts = table.setdefault(f"{tol_name} | {row}", [0, 0, 0])
            if v.certificate is not None:
                counts[int(np.searchsorted(DELTA_P_BANDS, delta_p(spec, v.certificate.p)))] += 1
    return table


def read_ceilings(section: str = "") -> dict:
    """The rows of the ceiling file, or of one of its SECTIONS, after checking their column names."""
    ceilings = json.loads(CEILINGS.read_text())
    sections = {name: ceilings.pop(name) for name in SECTIONS}
    rows, columns = (sections[section], SECTIONS[section]) if section else (ceilings, COLUMNS)
    assert rows.pop("columns") == columns
    return rows


def render(table: dict, indent: str = "  ") -> str:
    """The lines of the ceiling file that hold ``table``, one row per line."""
    return ",\n".join(f"{indent}{json.dumps(key)}: {json.dumps(counts)}" for key, counts in table.items())


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


@functools.cache
def stress_rows() -> frozenset:
    """``"<tol_name> | <row>"`` for every row of every corpus, built once for the main table and the delta_p_bands section."""
    return frozenset(f"{tol_name} | {row}" for tol_name in TOLERANCES for corpus in CORPORA.values() for row, _, _ in corpus())


def test_the_ceiling_file_holds_exactly_the_stress_rows():
    assert set(read_ceilings()) == stress_rows()


@pytest.mark.parametrize("tol_name", TOLERANCES)
@pytest.mark.parametrize("corpus", CORPORA)
def test_the_basis_order_changes_equal_their_ceilings(corpus, tol_name):
    table = order_count(CORPORA[corpus], tol_name)
    ceilings = read_ceilings("basis_order")
    changed = {key: (ceilings.get(key), counts) for key, counts in table.items() if ceilings.get(key) != counts}
    assert not changed, (
        f"(ceiling, count) per changed row, counts as {ORDER_COLUMNS}: {dict(sorted(changed.items()))}\n"
        "an outcome that moves with the order of the basis is a defect: a count above its ceiling is a new one, "
        f"a count below it a mended one: write the rows below to the basis_order section of {CEILINGS.name}\n"
        f"{render(table, indent='    ')}"
    )


def test_the_basis_order_section_holds_exactly_the_order_rows():
    rows = {f"{tol_name} | {row} | {order}" for tol_name in TOLERANCES for corpus in CORPORA.values()
            for row, spec, _ in corpus() for order, _ in orders(corpus, row, spec.dim)}
    assert set(read_ceilings("basis_order")) == rows


@pytest.mark.parametrize("tol_name", TOLERANCES)
@pytest.mark.parametrize("corpus", SCRAMBLED)
def test_the_kappa_p_bands_equal_their_ceilings(corpus, tol_name):
    table = band_count(corpus, tol_name)
    ceilings = read_ceilings("kappa_p_bands")
    changed = {key: (ceilings.get(key), counts) for key, counts in table.items() if ceilings.get(key) != counts}
    assert not changed, (
        f"(ceiling, count) per changed row, counts as {BAND_COLUMNS}: {dict(sorted(changed.items()))}\n"
        "a count above its ceiling is a new wrong refutation in that band of kappa_P, a count below it a mended one: "
        f"write the rows below to the kappa_p_bands section of {CEILINGS.name}\n{render(table, indent='    ')}"
    )


def test_the_kappa_p_bands_section_holds_exactly_the_kappa_scrambled_rows():
    rows = {f"{tol_name} | {row}" for tol_name in TOLERANCES for corpus in SCRAMBLED for row, _, _ in scrambled_instances(corpus)}
    assert set(read_ceilings("kappa_p_bands")) == rows


@pytest.mark.parametrize("tol_name", TOLERANCES)
@pytest.mark.parametrize("corpus", CORPORA)
def test_the_delta_p_bands_equal_their_ceilings(corpus, tol_name):
    table = delta_count(CORPORA[corpus], tol_name)
    ceilings = read_ceilings("delta_p_bands")
    changed = {key: (ceilings.get(key), counts) for key, counts in table.items() if ceilings.get(key) != counts}
    assert not changed, (
        f"(ceiling, count) per changed row, counts as {DELTA_COLUMNS}: {dict(sorted(changed.items()))}\n"
        "a certificate that moves between bands of delta(P) moves nearer to or farther from an algebra it is "
        f"not a natural basis of: write the rows below to the delta_p_bands section of {CEILINGS.name}\n"
        f"{render(table, indent='    ')}"
    )


def test_the_delta_p_bands_section_holds_exactly_the_stress_rows():
    assert set(read_ceilings("delta_p_bands")) == stress_rows()


def test_the_kappa_scrambled_instances_have_their_natural_basis():
    # kappa_P measures the instance's own natural basis, which the checker accepts throughout the first two bands
    for corpus in SCRAMBLED:
        for row, spec, basis in scrambled_instances(corpus):
            if kappa_p(basis) <= KAPPA_P_BANDS[-1]:
                assert check_certificate(spec, basis).ok, row


@pytest.mark.parametrize("tol_name", TOLERANCES)
def test_the_one_direction_squares_have_their_natural_basis(tol_name):
    # each is an evolution algebra by the library's own checker, so a refutation of it is wrong
    for n in range(2, 9):
        for seed in range(20):
            spec, p = one_direction(n, seed)
            assert check_certificate(spec, p, TOLERANCES[tol_name]).ok, (n, seed)


@pytest.mark.parametrize("tol_name", TOLERANCES)
def test_the_proportional_squares_have_their_natural_basis(tol_name):
    # each is an evolution algebra by the library's own checker, so a refutation of it is wrong
    for n in range(3, 9):
        for seed in range(20):
            spec, p = proportional_squares(n, seed)
            assert check_certificate(spec, p, TOLERANCES[tol_name]).ok, (n, seed)


@pytest.mark.parametrize("tol_name", TOLERANCES)
def test_the_complex_basis_instances_have_their_natural_basis(tol_name):
    # each is an evolution algebra by the library's own checker, decided in complex arithmetic
    for n in range(2, 13):
        for seed in range(12):
            spec, p = complex_basis(n, seed)
            assert spec.field == "complex" and check_certificate(spec, p, TOLERANCES[tol_name]).ok, (n, seed)


@pytest.mark.parametrize("tol_name", TOLERANCES)
def test_power_of_two_scaling_keeps_the_outcome_and_refutation_class(tol_name):
    # a factor 2^k changes no significand, and every tolerance is relative, so the decision must not move
    tol = TOLERANCES[tol_name]
    moved = []
    for index, (row, spec, _, given) in enumerate(decided(scrambled, tol_name)):
        for factor in (2.0**30, 2.0**-30):
            v = is_evolution_algebra(rescaled(spec, factor), tol)
            if (v.outcome, type(v.refutation)) != (given.outcome, type(given.refutation)):
                moved.append((row, index, factor, given.outcome, v.outcome, given.refutation, v.refutation))
    assert not moved
