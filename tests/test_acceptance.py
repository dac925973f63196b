"""Acceptance suite: one test per acceptance criterion, plus the data-driven
verdict table.  Run with ``pytest -s tests/test_acceptance.py`` to see one
PASS line with residuals per criterion."""

import json
import pathlib
import time

import numpy as np
import pytest

from evoalg import (
    AlgebraSpec,
    EVOLUTION,
    NOT_EVOLUTION,
    annihilator_basis,
    change_basis,
    check_certificate,
    cli,
    example_algebra,
    is_evolution_algebra,
    m_structure_matrices,
    planted_evolution_algebra,
    quotient_by_annihilator,
    validate,
)
from evoalg.corpus import well_conditioned_matrix
from evoalg.numkernel import eigen_structure
from evoalg.sds import NonDiagonalisable
from conftest import assert_parallel

DATA = pathlib.Path(__file__).parent / "data" / "acceptance_cases.json"


def _report(cid: str, message: str):
    print(f"ACCEPTANCE {cid}: PASS ({message})")


def _load_cases():
    return json.loads(DATA.read_text())["cases"]


def _build(fixture):
    if fixture["name"] is None:
        return validate(AlgebraSpec(fixture["dim"], "real", {}))
    return example_algebra(fixture["name"], fixture.get("epsilon"))


@pytest.mark.parametrize("case", _load_cases(), ids=lambda c: c["id"])
def test_case_table(case):
    spec = _build(case["fixture"])
    verdict = is_evolution_algebra(spec)
    assert verdict.outcome == case["expected_verdict"]
    if verdict.outcome == EVOLUTION:
        check = check_certificate(spec, verdict.certificate.p)
        assert check.ok
        _report(case["id"], f"evolution, certificate residual {check.residual:.2e}")
    else:
        expected = case.get("expected_refutation")
        if expected:
            kind = {"non_diagonalisable": NonDiagonalisable}.get(expected["kind"])
            if kind is not None:
                assert isinstance(verdict.refutation, kind)
            if "eigenvalue" in expected:
                want = complex(*expected["eigenvalue"])
                assert abs(verdict.refutation.eigenvalue - want) <= case["tolerance"]
        _report(case["id"], f"refuted by {type(verdict.refutation).__name__}")


def test_c01_simple2d_certificate_and_runtime():
    spec = example_algebra("simple2d")
    is_evolution_algebra(spec)  # warm
    t0 = time.perf_counter()
    verdict = is_evolution_algebra(spec)
    elapsed = time.perf_counter() - t0
    assert verdict.outcome == EVOLUTION
    assert verdict.diagnostics.branch == "a"
    assert verdict.diagnostics.lambda0 is not None
    np.testing.assert_allclose(verdict.diagnostics.lambda0, [1.0, 0.0])
    d1, d2 = verdict.certificate.diagonals
    # the published transform gives diag(2,2) and diag(2,-2); column rescaling
    # preserves the per-column ratios, so the ratio multiset must be {1, -1}
    ratios = sorted(np.real(d2 / d1))
    np.testing.assert_allclose(ratios, [-1.0, 1.0], atol=1e-8)
    mats = m_structure_matrices(spec)
    p = verdict.certificate.p
    for k, m in enumerate(mats):
        form = p.T @ m @ p
        off = np.linalg.norm(form - np.diag(np.diag(form)))
        assert off <= 1e-8
    assert elapsed < 0.1
    _report("C1", f"branch a, ratio multiset {{-1, 1}}, runtime {elapsed * 1e3:.2f} ms")


def test_c02_mendel_classical_defect():
    verdict = is_evolution_algebra(example_algebra("mendel", 0.0))
    assert verdict.outcome == NOT_EVOLUTION
    r = verdict.refutation
    assert isinstance(r, NonDiagonalisable)
    assert abs(r.eigenvalue - (-1.0)) <= 1e-8
    # recheck the eigenspace dimension independently from the witness data
    mats = m_structure_matrices(example_algebra("mendel", 0.0))
    lam0 = verdict.diagnostics.lambda0.real
    w = sum(c * m for c, m in zip(lam0, mats))
    n_defective = np.linalg.inv(w) @ mats[r.index - 1]
    cluster = eigen_structure(n_defective).clusters[0]
    assert cluster.multiplicity == 2 and cluster.eigenspace_dim == 1
    _report("C2", f"defective eigenvalue {r.eigenvalue.real:+.10f}, eigenspace dim 1")


@pytest.mark.parametrize("eps", [0.1, 0.25, 0.5, 1.0])
def test_c03_mendel_deformed_diagonal_ratios(eps):
    spec = example_algebra("mendel", eps)
    verdict = is_evolution_algebra(spec)
    assert verdict.outcome == EVOLUTION
    assert check_certificate(spec, verdict.certificate.p).ok
    d1, d2 = verdict.certificate.diagonals
    got = sorted(np.real(d2 / d1))
    want = sorted([-1.0, 4 * eps - 1.0])
    np.testing.assert_allclose(got, want, atol=1e-8)
    _report("C3", f"eps={eps}: diagonal ratio multiset matches {{-1, {4 * eps - 1:g}}}")


def test_c04_tetraploid_classical_defect_and_commutation():
    spec = example_algebra("tetraploid", 0.0)
    verdict = is_evolution_algebra(spec)
    assert verdict.outcome == NOT_EVOLUTION
    r = verdict.refutation
    assert isinstance(r, NonDiagonalisable)
    assert abs(r.eigenvalue - (-2.0)) <= 1e-8
    m1, m2, m3 = m_structure_matrices(spec)
    inv1 = np.linalg.inv(m1)
    cluster = eigen_structure(inv1 @ m2).clusters[0]
    assert cluster.multiplicity == 3 and cluster.eigenspace_dim == 1
    assert_parallel(cluster.basis[:, 0], [1.0, -2.0, 1.0], tol=1e-6)
    a, b = inv1 @ m2, inv1 @ m3
    comm = float(np.linalg.norm(a @ b - b @ a))
    assert comm <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(b)
    _report("C4", f"defect at -2 with 1-dim eigenspace along (1,-2,1); commutator norm {comm:.2e}")


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_c05_tetraploid_deformed_spectrum(eps):
    spec = example_algebra("tetraploid", eps)
    verdict = is_evolution_algebra(spec)
    assert verdict.outcome == EVOLUTION
    m1, m2, _ = m_structure_matrices(spec)
    s_eps = np.sqrt(3 * eps * (3 * eps + 4))
    # closed form confirmed by the numerical oracle below; the sign of the
    # radical in the third value follows the oracle (all three values must
    # coalesce at -2 as eps -> 0)
    want = np.sort(np.array([-2.0, -2 - 9 * eps - 3 * s_eps, -2 - 9 * eps + 3 * s_eps]))
    got = np.sort(np.linalg.eigvals(np.linalg.inv(m1) @ m2).real)
    np.testing.assert_allclose(got, want, atol=1e-8)
    _report("C5", f"eps={eps}: spectrum matches -2, -2-9e-3S, -2-9e+3S within 1e-8")


def test_c06_annihilator_example():
    spec = example_algebra("nota2")
    verdict = is_evolution_algebra(spec)
    assert verdict.outcome == NOT_EVOLUTION
    assert verdict.diagnostics.ann_dim == 1
    basis = annihilator_basis(spec)
    assert basis.shape == (3, 1)
    assert_parallel(basis[:, 0], [0.0, 0.0, 1.0], tol=1e-10)
    quotient = quotient_by_annihilator(spec)
    assert is_evolution_algebra(quotient).outcome == EVOLUTION
    _report("C6", "refuted with ann_dim 1 along e3; quotient is an evolution algebra")


def test_c07_padded_mendel_family():
    for eps in (0.1, 0.5):
        assert is_evolution_algebra(example_algebra("mendel3d_ann", eps)).outcome == EVOLUTION
    assert is_evolution_algebra(example_algebra("mendel3d_ann", 0.0)).outcome == NOT_EVOLUTION
    quotient = quotient_by_annihilator(example_algebra("mendel3d_ann", 0.0))
    assert quotient == example_algebra("mendel", 0.0)  # entry-wise exact
    _report("C7", "deformed padded family decided; quotient at 0 equals the classical table exactly")


def test_c08_planted_round_trip():
    t0 = time.perf_counter()
    count = 0
    ann_dims = set()
    for seed in range(200):
        n = 2 + seed % 5
        spec, _ = planted_evolution_algebra(n, seed=seed)
        verdict = is_evolution_algebra(spec)
        assert verdict.outcome == EVOLUTION, f"seed {seed}: {verdict.outcome}"
        assert check_certificate(spec, verdict.certificate.p).ok, f"seed {seed}: certificate rejected"
        ann_dims.add(verdict.diagnostics.ann_dim)
        count += 1
    elapsed = time.perf_counter() - t0
    assert count == 200
    assert len(ann_dims) > 1  # both the plain and the annihilator branches were exercised
    assert elapsed < 60.0
    _report("C8", f"200/200 planted instances certified in {elapsed:.1f} s; ann_dims seen {sorted(ann_dims)}")


def test_c09_basis_independence():
    rng = np.random.default_rng(2024)
    fixtures = [
        (example_algebra("simple2d"), EVOLUTION),
        (example_algebra("mendel", 0.0), NOT_EVOLUTION),
        (example_algebra("nota2"), NOT_EVOLUTION),
    ]
    trials = 0
    for spec, want in fixtures:
        for _ in range(50):
            p = well_conditioned_matrix(spec.dim, rng)
            verdict = is_evolution_algebra(change_basis(spec, p))
            assert verdict.outcome == want
            trials += 1
    _report("C9", f"{trials} congruence scrambles, verdict invariant in every trial")


def test_c10_deterministic_reports(capsys):
    fixtures = [
        ("example://simple2d", []),
        ("example://mendel", ["--epsilon", "0"]),
        ("example://mendel", ["--epsilon", "0.25"]),
        ("example://tetraploid", ["--epsilon", "0.1"]),
        ("example://nota2", []),
        ("example://mendel3d_ann", ["--epsilon", "0.2"]),
    ]
    for source, extra in fixtures:
        seen = set()
        for _ in range(10):
            cli.run(["check", source, *extra, "--json", "--seed", "42"])
            blob = json.loads(capsys.readouterr().out)
            blob["diagnostics"].pop("runtime_ms")
            seen.add(json.dumps(blob, sort_keys=True))
        assert len(seen) == 1, f"non-deterministic report for {source} {extra}"
    with capsys.disabled():
        _report("C10", "10 repetitions per fixture, reports byte-identical after dropping runtime_ms")


OPERATIONS = [
    ("evoalg.numkernel", "rank"),
    ("evoalg.numkernel", "kernel_basis"),
    ("evoalg.numkernel", "eigen_structure"),
    ("evoalg.algebra", "validate"),
    ("evoalg.algebra", "m_structure_matrices"),
    ("evoalg.algebra", "multiply"),
    ("evoalg.algebra", "change_basis"),
    ("evoalg.algebra", "annihilator_basis"),
    ("evoalg.algebra", "adapt_basis_to_annihilator"),
    ("evoalg.algebra", "complexify"),
    ("evoalg.algebra", "quotient_by_annihilator"),
    ("evoalg.pencil", "evaluate"),
    ("evoalg.pencil", "max_pencil_rank"),
    ("evoalg.decision", "is_evolution_algebra"),
    ("evoalg.decision", "check_certificate"),
    ("evoalg.decision", "explain"),
    ("evoalg.corpus", "example_algebra"),
    ("evoalg.corpus", "planted_evolution_algebra"),
    ("evoalg.corpus", "adversarial_instance"),
    ("evoalg.fileformat", "parse"),
    ("evoalg.cli", "run"),
]


def test_operation_coverage_registry():
    """Every public operation exists and is exercised somewhere in the suite."""
    import importlib

    sources = "\n".join(p.read_text() for p in pathlib.Path(__file__).parent.glob("test_*.py"))
    missing = []
    for module_name, op in OPERATIONS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, op)), f"{module_name}.{op} not found"
        if op not in sources:
            missing.append(f"{module_name}.{op}")
    assert not missing, f"operations never exercised: {missing}"
    _report("coverage", f"{len(OPERATIONS)} operations present and exercised")


def test_adversarial_refutation_kinds_at_scale():
    from evoalg import adversarial_instance
    from evoalg.sdc import KernelDimensionMismatch
    from evoalg.sds import NonCommuting

    expected = {
        "defective": NonDiagonalisable,
        "noncommuting": NonCommuting,
        "ann_mismatch": KernelDimensionMismatch,
    }
    draws = 0
    for kind, want in expected.items():
        for seed in range(12):
            for n in (3, 4, 5):
                spec = adversarial_instance(kind, n, seed)
                verdict = is_evolution_algebra(spec)
                assert verdict.outcome == NOT_EVOLUTION, f"{kind} n={n} seed={seed}"
                assert isinstance(verdict.refutation, want), f"{kind} n={n} seed={seed}: {verdict.refutation}"
                draws += 1
    assert draws >= 100
    _report("adversarial", f"{draws} adversarial draws, refutation kind always matches the label")
