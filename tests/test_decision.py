import warnings

import numpy as np
import pytest

from evoalg import (
    AlgebraSpec,
    COMPLEX_ONLY_UNDETERMINED,
    EVOLUTION,
    NOT_EVOLUTION,
    UNDETERMINED,
    ToleranceContext,
    adapt_basis_to_annihilator,
    adversarial_instance,
    annihilator_basis,
    change_basis,
    check_certificate,
    complexify,
    decision,
    example_algebra,
    explain,
    is_evolution_algebra,
    m_structure_matrices,
    numkernel,
    pencil,
    planted_evolution_algebra,
    quotient_by_annihilator,
    sdc,
    sds,
    validate,
)
from evoalg.corpus import well_conditioned_matrix
from evoalg.decision import Diagnostics, Verdict
from evoalg.numkernel import DEFAULT_TOL
from evoalg.pencil import evaluate
from evoalg.sds import NonCommuting, NonDiagonalisable
from conftest import columns_match_up_to_scale, reference_defect_scan, subnormal_tetraploid
from probe import (
    COMPLEX_NUMBERS,
    EXAMPLES,
    TOLERANCES,
    complex_basis,
    complex_only,
    direct_sum,
    in_complex_basis,
    proportional_squares,
    scrambled_planted,
)


def record_factored(monkeypatch):
    """Every matrix handed to ``np.linalg.svd`` or ``np.linalg.eigvalsh``, each matrix of a stack apart.

    The pencil search ranks a real symmetric stack by ``eigvalsh`` and any other by ``svd``.
    """
    seen = []

    def recording(factor):
        def record(a, *args, **kwargs):
            a = np.asarray(a)
            seen.extend(np.array(m, copy=True) for m in a.reshape((-1,) + a.shape[-2:]))
            return factor(a, *args, **kwargs)
        return record

    for name in ("svd", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    return seen


class TestFixtureVerdicts:
    def test_simple2d_natural_basis(self):
        v = is_evolution_algebra(example_algebra("simple2d"))
        assert v.outcome == EVOLUTION
        assert v.diagnostics.branch == "a"
        columns_match_up_to_scale(v.certificate.p, [[1.0, -1.0], [1.0, 1.0]])

    def test_mendel_classical(self):
        v = is_evolution_algebra(example_algebra("mendel", 0.0))
        assert v.outcome == NOT_EVOLUTION
        assert isinstance(v.refutation, NonDiagonalisable)
        assert abs(v.refutation.eigenvalue - (-1.0)) < 1e-8

    def test_tetraploid_classical(self):
        v = is_evolution_algebra(example_algebra("tetraploid", 0.0))
        assert v.outcome == NOT_EVOLUTION
        assert isinstance(v.refutation, NonDiagonalisable)
        assert abs(v.refutation.eigenvalue - (-2.0)) < 1e-8

    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.5, 1.0])
    def test_mendel_deformed_natural_basis(self, eps):
        v = is_evolution_algebra(example_algebra("mendel", eps))
        assert v.outcome == EVOLUTION
        columns_match_up_to_scale(v.certificate.p, [[1.0, -1.0], [1.0, 2 * eps - 1.0]])

    def test_annihilator_example_and_quotient(self):
        spec = example_algebra("nota2")
        v = is_evolution_algebra(spec)
        assert v.outcome == NOT_EVOLUTION
        assert is_evolution_algebra(quotient_by_annihilator(spec)).outcome == EVOLUTION


class TestRealField:
    def test_real_fixture_gets_real_certificate(self):
        for name, eps in [("simple2d", None), ("mendel", 0.5), ("tetraploid", 0.1), ("mendel3d_ann", 0.2)]:
            v = is_evolution_algebra(example_algebra(name, eps))
            assert v.outcome == EVOLUTION
            assert not np.iscomplexobj(v.certificate.p) or np.all(v.certificate.p.imag == 0)

    def test_complex_only_downgrade(self):
        # squares diag(1,-1) pattern: diagonalisable over C with spectrum +-i only
        spec = validate(AlgebraSpec(2, "real", {(1, 1, 1): 1.0, (2, 2, 1): -1.0, (1, 2, 2): 1.0}))
        v = is_evolution_algebra(spec)
        assert v.outcome == COMPLEX_ONLY_UNDETERMINED
        assert v.certificate is not None
        assert check_certificate(complexify(spec), v.certificate.p).ok

    def test_complexified_version_is_evolution(self):
        spec = validate(AlgebraSpec(2, "complex", {(1, 1, 1): 1.0, (2, 2, 1): -1.0, (1, 2, 2): 1.0}))
        assert is_evolution_algebra(spec).outcome == EVOLUTION


def real_and_complexified_corpus():
    """``(label, spec)``: planted, adversarial, the probe's named examples and two more, complex-only and kappa-scrambled instances."""
    for n, seed in (*((n, seed) for n in range(2, 13) for seed in range(4)), (4, 4), (5, 5)):
        yield ("planted", n, seed), planted_evolution_algebra(n, seed=seed)[0]
    for kind in ("defective", "noncommuting", "ann_mismatch"):
        for n in range(3, 9):
            for seed in (None, *range(3)):
                yield (kind, n, seed), adversarial_instance(kind, n, seed)
    for name, eps in (*EXAMPLES, ("mendel", 0.3), ("mendel3d_ann", 0.4)):
        yield (name, eps), example_algebra(name, eps)
    for n in range(2, 7):
        for seed in (None, *range(5)):
            yield ("complex-only", n, seed), complex_only(n, seed)
    for n in (4, 6, 8):
        for kappa in (1e3, 1e5, 1e7):
            for seed in range(5):
                yield ("scrambled", n, kappa, seed), scrambled_planted(n, kappa, seed)[0]


class TestCheckCertificate:
    def test_accepts_known_transform(self):
        assert check_certificate(example_algebra("simple2d"), [[1.0, 1.0], [1.0, -1.0]]).ok

    def test_rejects_identity(self):
        check = check_certificate(example_algebra("simple2d"), np.eye(2))
        assert not check.ok
        assert check.offending_pair == (1, 2)

    def test_rejects_singular(self):
        check = check_certificate(example_algebra("simple2d"), np.ones((2, 2)))
        assert not check.ok and check.reason is not None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_transform(self, bad):
        check = check_certificate(example_algebra("simple2d"), [[bad, 1.0], [1.0, -1.0]])
        assert not check.ok and check.reason == "transform has non-finite entries"

    def test_independent_of_solver(self):
        for seed in range(10):
            spec, planted = planted_evolution_algebra(4, seed=seed)
            # the planted transform maps natural coordinates to the observed ones,
            # so its inverse columns form a natural basis of the observed algebra
            assert check_certificate(spec, np.linalg.inv(planted)).ok


class TestCertificateDiagonals:
    def test_match_per_matrix_diagonals(self):
        # reference: one np.diag copy per structure matrix, then column_stack
        rng = np.random.default_rng(4)
        for products in (rng.standard_normal((3, 3, 3)), rng.standard_normal((5, 5, 5)) * (1 - 2j)):
            p = np.eye(len(products))
            got = decision._certificate(p, products)
            want = tuple(np.diag(a).copy() for a in products)
            assert type(got.diagonals) is tuple and len(got.diagonals) == len(want)
            for g, w in zip(got.diagonals, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            stacked = np.column_stack(want)
            assert got.natural_basis_products.tobytes() == stacked.tobytes()
            assert got.natural_basis_products.flags.c_contiguous


class TestExplain:
    def test_mentions_branch_and_defect(self):
        text = explain(is_evolution_algebra(example_algebra("mendel", 0.0)))
        assert "branch: a" in text
        assert "invertible structure matrix" in text
        assert "-1" in text and "not diagonalisable" in text

    def test_prints_natural_basis(self):
        text = explain(is_evolution_algebra(example_algebra("simple2d")))
        assert "natural basis" in text
        assert "b1 =" in text and "b2 =" in text

    def test_reports_numerical_failure_note(self):
        verdict = Verdict(
            UNDETERMINED,
            None,
            None,
            Diagnostics(None, None, None, None, 16, None, 0, DEFAULT_TOL, ("numerical failure: eig stalled",)),
        )
        text = explain(verdict)
        assert "undetermined" in text and "eig stalled" in text


class TestDecisionInvariants:
    def test_complexification_agrees_with_real_decision(self):
        # a natural basis of a real algebra is one of its complexification: both are decided and checked on one tensor
        evolution = {  # whether both decisions certify
            ("simple2d", None): True,
            ("mendel", 0.0): False,
            ("mendel", 0.3): True,
            ("nota2", None): False,
            ("tetraploid", 0.0): False,
            ("tetraploid", 0.1): True,
            ("mendel3d_ann", 0.0): False,
            ("mendel3d_ann", 0.4): True,
            **{("planted", 3 + s % 3, s): True for s in range(6)},
        }
        seen, complex_only_outcomes = set(), 0
        for label, spec in real_and_complexified_corpus():
            real, lifted = is_evolution_algebra(spec), is_evolution_algebra(complexify(spec))
            if label in evolution:
                seen.add(label)
                assert (real.outcome == EVOLUTION) == evolution[label], label
            want, notes = real.outcome, real.diagnostics.notes
            if want == COMPLEX_ONLY_UNDETERMINED:
                # over C a complex natural basis is a natural basis: the outcome is evolution, without the note
                complex_only_outcomes += 1
                want, notes = EVOLUTION, notes[:-1]
            assert (lifted.outcome, lifted.refutation, lifted.diagnostics.notes) == (want, real.refutation, notes), label
            d, e = real.diagnostics, lifted.diagnostics
            assert (e.branch, e.r0, e.ann_dim, e.trials_used) == (d.branch, d.r0, d.ann_dim, d.trials_used), label
            assert (e.lambda0 is None) == (d.lambda0 is None), label
            if d.lambda0 is not None:
                assert e.lambda0.tobytes() == d.lambda0.tobytes(), label
            assert (lifted.certificate is None) == (real.certificate is None), label
            if real.certificate is not None:
                c, k = real.certificate, lifted.certificate
                assert k.p.tobytes() == c.p.tobytes(), label
                assert k.natural_basis_products.tobytes() == c.natural_basis_products.tobytes(), label
                check = check_certificate(complexify(spec), c.p)
                assert check.ok and check == check_certificate(spec, c.p), label
        assert seen == set(evolution) and complex_only_outcomes >= 30, (evolution.keys() - seen, complex_only_outcomes)

    def test_quotient_necessity(self):
        hit = 0
        for seed in range(30):
            spec, _ = planted_evolution_algebra(4, seed=seed)
            a = annihilator_basis(spec).shape[1]
            if 0 < a < spec.dim and is_evolution_algebra(spec).outcome == EVOLUTION:
                hit += 1
                assert is_evolution_algebra(quotient_by_annihilator(spec)).outcome == EVOLUTION
        assert hit >= 3
        # the converse fails: the quotient can be an evolution algebra while the
        # algebra itself is not
        spec = example_algebra("nota2")
        assert is_evolution_algebra(spec).outcome == NOT_EVOLUTION
        assert is_evolution_algebra(quotient_by_annihilator(spec)).outcome == EVOLUTION

    def test_verdict_stable_across_seeds(self):
        for name, eps in [("simple2d", None), ("nota2", None), ("tetraploid", 0.1)]:
            outcomes = {is_evolution_algebra(example_algebra(name, eps), seed=s).outcome for s in range(4)}
            assert len(outcomes) == 1

    def test_basis_independence_small(self):
        rng = np.random.default_rng(23)
        base = example_algebra("mendel3d_ann", 0.25)
        want = is_evolution_algebra(base).outcome
        for _ in range(10):
            p = well_conditioned_matrix(3, rng)
            assert is_evolution_algebra(change_basis(base, p)).outcome == want


class TestRefutationEdges:
    def test_reduced_blocks_without_full_rank_point(self):
        # arrowhead family padded with an annihilator direction: the reduced
        # blocks keep pencil rank 2 on a 3-dimensional quotient
        from evoalg.sdc import NoFullRankPencil

        spec = validate(AlgebraSpec(4, "real", {(1, 1, 1): 1.0, (1, 2, 2): 1.0, (1, 3, 3): 1.0}))
        v = is_evolution_algebra(spec)
        assert v.outcome == NOT_EVOLUTION
        assert v.diagnostics.branch == "b.2"
        assert v.diagnostics.ann_dim == 1
        assert isinstance(v.refutation, NoFullRankPencil)
        assert v.refutation.seed == 0 and v.refutation.trials > 0

    def test_zero_annihilator_rank_defect(self):
        from evoalg.sdc import KernelDimensionMismatch

        spec = validate(AlgebraSpec(3, "real", {(1, 1, 1): 1.0, (1, 2, 2): 1.0, (1, 3, 3): 1.0}))
        v = is_evolution_algebra(spec)
        assert v.outcome == NOT_EVOLUTION
        assert v.diagnostics.branch == "b.1"
        assert v.refutation == KernelDimensionMismatch(kernel_dim=0, expected=1)

    def test_eigensolver_failure_is_undetermined(self, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eig", boom)
        monkeypatch.setattr(np.linalg, "eigvals", boom)
        v = is_evolution_algebra(example_algebra("simple2d"))
        assert v.outcome == UNDETERMINED
        assert any("numerical failure" in note for note in v.diagnostics.notes)

    def test_lapack_failure_is_undetermined(self):
        # finite constants near the subnormal range: the rank test passes and
        # LAPACK's own inverse then finds the pencil point singular
        v = is_evolution_algebra(subnormal_tetraploid())
        assert v.outcome == UNDETERMINED
        assert any("numerical failure" in note for note in v.diagnostics.notes)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_overflowing_inverse_is_undetermined_without_warnings(self, n):
        # every constant times 1e-310: the pencil point is subnormal and its inverse overflows,
        # which is named before any product spreads infinities into NaNs
        spec, _ = planted_evolution_algebra(n, seed=0)
        tiny = AlgebraSpec(n, spec.field, {key: c * 1e-310 for key, c in spec.constants.items()})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v = is_evolution_algebra(tiny)
        assert v.outcome == UNDETERMINED
        assert v.diagnostics.notes == ("numerical failure: the inverse of the pencil point overflows",)


class TestArguments:
    # checked on entry, so the error does not depend on how far the decision gets
    @pytest.mark.parametrize("spec", [example_algebra("simple2d"), validate(AlgebraSpec(2, "real", {}))])
    def test_trials_below_one_raise(self, spec):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            is_evolution_algebra(spec, trials=0)

    @pytest.mark.parametrize("spec", [example_algebra("simple2d"), example_algebra("mendel", 0.0)])
    def test_negative_seed_raises(self, spec):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            is_evolution_algebra(spec, seed=-1)


class TestToleranceBoundaries:
    def test_extreme_verification_tolerance_does_not_crash(self):
        tol = ToleranceContext(verify_rtol=1e-16)
        v = is_evolution_algebra(example_algebra("simple2d"), tol)
        assert v.outcome in (EVOLUTION, NOT_EVOLUTION, UNDETERMINED)

    def test_loose_tolerances_do_not_crash(self):
        tol = ToleranceContext(rank_rtol=1e-3, eig_cluster_atol=1e-3, commute_rtol=1e-3, verify_rtol=1e-3)
        v = is_evolution_algebra(example_algebra("tetraploid", 0.1), tol)
        assert v.outcome in (EVOLUTION, NOT_EVOLUTION, UNDETERMINED, COMPLEX_ONLY_UNDETERMINED)

    @pytest.mark.parametrize("verify_rtol", [1e-8, 1e-12, 1e-13])
    def test_evolution_certificates_pass_the_checker_at_the_same_tolerance(self, verify_rtol):
        # the gate inside the decision and check_certificate are one test, so no
        # tolerance lets the decision hand out a certificate the checker rejects
        tol = ToleranceContext(verify_rtol=verify_rtol)
        cases = [(8, 41), (3, 50)] + [(2 + s % 7, s) for s in range(30)]
        for n, seed in cases:
            spec, _ = planted_evolution_algebra(n, seed=seed)
            v = is_evolution_algebra(spec, tol)
            assert v.outcome in (EVOLUTION, UNDETERMINED), f"n={n} seed={seed}"
            if v.outcome == EVOLUTION:
                assert check_certificate(spec, v.certificate.p, tol).ok, f"n={n} seed={seed}"


def cyclic_algebra(n, unit=1.0):
    """e_i^2 = (1 + i) unit e_{i+1} (indices mod n): natural, zero annihilator, every M_k singular; complex for a complex unit."""
    field = "complex" if isinstance(unit, complex) else "real"
    return validate(AlgebraSpec(n, field, {(i, i, i % n + 1): (1.0 + i) * unit for i in range(1, n + 1)}))


class TestConstructionFirst:
    """Positive verdicts come from construction plus the checker; the scans only name witnesses."""

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_positive_path_skips_the_scans(self, monkeypatch, complex_mode):
        # complex_mode takes complex constants, which are decided in complex arithmetic: the planted
        # algebras in a complex basis, and the cyclic ones with imaginary constants
        planted = complex_basis if complex_mode else lambda n, seed: planted_evolution_algebra(n, seed=seed)
        unit = 1j if complex_mode else 1.0
        positives = [
            ("a", planted(4, 2)[0]),
            ("a", planted(5, 1)[0]),
            ("b.1", cyclic_algebra(3, unit)),
            ("b.1", cyclic_algebra(5, unit)),
            ("b.2", planted(4, 0)[0]),
            ("b.2", planted(6, 4)[0]),
        ]

        def scan(*args, **kwargs):
            raise AssertionError("a similarity scan ran on the positive path")

        monkeypatch.setattr(sds, "_witness", scan)
        for branch, spec in positives:
            assert (spec.field == "complex" and m_structure_matrices(spec).imag.any()) == complex_mode
            v = is_evolution_algebra(spec)
            assert v.outcome == EVOLUTION and v.diagnostics.branch == branch, (branch, spec.dim)
            assert check_certificate(spec, v.certificate.p).ok

    def test_refutations_equal_the_scan_witness(self):
        # the unscrambled instances (seed None) have no invertible structure
        # matrix, so most witnesses there come from the random trials: the
        # reported lambda0 must be the point the family was solved at; the
        # complexified instances have real constants, so they are decided on
        # the real tensor and must give the real spec's witness, and the
        # instances in a complex basis are decided in complex arithmetic
        checked = {"real": 0, "complex": 0, "complex-basis": 0}
        for kind in ("defective", "noncommuting"):
            for n in range(3, 13):
                for seed in [None, *range(5)]:
                    real_spec = adversarial_instance(kind, n, seed)
                    complex_spec = in_complex_basis(real_spec, 0 if seed is None else seed)[0]
                    fields = (
                        ("real", real_spec, real_spec),
                        ("complex", complexify(real_spec), real_spec),
                        ("complex-basis", complex_spec, complex_spec),
                    )
                    for field, spec, solved in fields:  # solved: the spec whose tensor the family is built from
                        v = is_evolution_algebra(spec)
                        if v.outcome != NOT_EVOLUTION or not isinstance(v.refutation, (NonDiagonalisable, NonCommuting)):
                            continue
                        d = v.diagnostics
                        assert not d.notes, (kind, n, seed, field)
                        lam = d.lambda0
                        if solved is real_spec:
                            assert np.all(lam.imag == 0), (kind, n, seed, field)
                            lam = lam.real
                        stack = adapt_basis_to_annihilator(solved).blocks if d.branch == "b.2" else m_structure_matrices(solved)
                        stack = list(stack)
                        w_inv = np.linalg.inv(evaluate(stack, lam))
                        family = [w_inv @ m for m in stack]
                        # the commutator scan, then the reference defect scan: the witness of the scans as they were
                        scans = sds._witness(family, DEFAULT_TOL) or reference_defect_scan(family)
                        assert scans == v.refutation, (kind, n, seed, field)
                        checked[field] += 1
        assert min(checked.values()) >= 110, checked

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_noncommuting_families_skip_the_eigen_analysis(self, monkeypatch, complex_mode):
        # the pair scan comes before the defect scan, so no matrix of the family is eigen-analysed
        calls = []
        eigen_structure = numkernel.eigen_structure

        def counting(m, tol):
            calls.append(m.shape)
            return eigen_structure(m, tol)

        monkeypatch.setattr(numkernel, "eigen_structure", counting)
        for n in range(3, 25):
            for seed in (None, 0, 1):
                spec = adversarial_instance("noncommuting", n, seed)
                if complex_mode:  # complex constants, decided in complex arithmetic
                    spec = in_complex_basis(spec, 0 if seed is None else seed)[0]
                v = is_evolution_algebra(spec)
                assert isinstance(v.refutation, NonCommuting) and not calls, (n, seed, v.outcome, len(calls))

    @pytest.mark.parametrize(
        "n, seed, atol",
        [
            # refute-n24 instances that the defect scan refuted as NonDiagonalisable or
            # left undetermined (NonConvergence) before it reached the pairs
            *((24, seed, DEFAULT_TOL.eig_cluster_atol) for seed in (1937230881, 346748391, 529571772, 1090065605)),
            # undetermined (NonConvergence) in the defect scan at the wider cluster radius
            *((n, seed, 1e-5) for n, seed in ((8, 4), (10, 8), (11, 2), (12, 2), (16, 0), (24, 0), (24, 1), (24, 2), (24, 3))),
        ],
    )
    def test_noncommuting_instances_are_named_by_their_pair(self, n, seed, atol):
        v = is_evolution_algebra(adversarial_instance("noncommuting", n, seed), ToleranceContext(eig_cluster_atol=atol))
        assert v.outcome == NOT_EVOLUTION and isinstance(v.refutation, NonCommuting)

    def test_a_commuting_family_keeps_its_construction_defect(self):
        # this family commutes to about 1e-10 relative, inside commute_rtol: it passes the
        # routing test, and the construction meets a defective matrix of the whole space
        v = is_evolution_algebra(adversarial_instance("noncommuting", 24, seed=1075121533))
        assert v.outcome == NOT_EVOLUTION and isinstance(v.refutation, NonDiagonalisable)

    @pytest.mark.parametrize("tol_name", TOLERANCES)
    @pytest.mark.parametrize("name, eigenvalue", [("mendel", -0.890410628249924), ("tetraploid", 0.726192636245195)])
    def test_a_defect_met_in_a_subspace_is_named_on_the_whole_matrix(self, monkeypatch, tol_name, name, eigenvalue):
        # C plus the example: the family passes the routing test, and its third member, restricted
        # to a subspace, is defective; the construction names that member's defect on the whole matrix
        tol = TOLERANCES[tol_name]
        constructions = []
        common_eigenbasis = sds._common_eigenbasis

        def recording(family, tol):
            bases = common_eigenbasis(family, tol)
            constructions.append((family, bases))
            return bases

        monkeypatch.setattr(sds, "_common_eigenbasis", recording)
        v = is_evolution_algebra(direct_sum(AlgebraSpec(2, "real", COMPLEX_NUMBERS), example_algebra(name, 0.0)), tol)
        [(family, bases)] = constructions
        assert isinstance(bases, NonDiagonalisable) and bases == v.refutation
        assert v.outcome == NOT_EVOLUTION and not v.diagnostics.notes
        assert sds._witness(family, tol) is None and reference_defect_scan(family, tol) == v.refutation
        assert v.refutation.index == 3 and v.refutation.eigenvalue == pytest.approx(eigenvalue, abs=1e-12)

    def test_a_restriction_defective_where_its_matrix_is_not_has_no_witness(self, monkeypatch):
        # proportional squares n=8 seed=19 at the default tolerances: a restriction to a common
        # eigenspace is defective and its member, on the whole space, is not; no basis and no witness
        constructions = []
        common_eigenbasis = sds._common_eigenbasis

        def recording(family, tol):
            bases = common_eigenbasis(family, tol)
            constructions.append((family, bases))
            return bases

        monkeypatch.setattr(sds, "_common_eigenbasis", recording)
        v = is_evolution_algebra(proportional_squares(8, 19)[0])
        [(family, bases)] = constructions
        assert bases is None and reference_defect_scan(family) is None
        assert v.outcome == UNDETERMINED and v.refutation is None
        assert v.diagnostics.notes == ("no common eigenbasis was constructed: a restriction to a common eigenspace is defective",)

    @pytest.mark.parametrize("seed", [822908896, 1713748021, 664749585, 1476712180])
    def test_a_failed_eigen_analysis_is_final(self, monkeypatch, seed):
        # the construction's eigen-analysis fails to converge; the scans would repeat it on the same matrix
        failures = []
        eigen_structure = numkernel.eigen_structure

        def counting(m, tol):
            try:
                return eigen_structure(m, tol)
            except numkernel.NonConvergence:
                failures.append(m.shape)
                raise

        monkeypatch.setattr(numkernel, "eigen_structure", counting)
        v = is_evolution_algebra(adversarial_instance("defective", 24, seed=seed))
        assert v.outcome == UNDETERMINED
        assert v.diagnostics.notes == ("numerical failure: eigenvalue clustering did not stabilise at any resolution",)
        assert len(failures) == 1

    @pytest.mark.parametrize(
        "n, kappa, seed",
        [
            (6, 1e4, 11), (8, 1e4, 5), (8, 1e4, 6), (8, 1e4, 14), (8, 1e5, 1), (8, 1e5, 3),
            # refuted by a witness that named the member W^{-1} M_k of a canonical point e_k,
            # computed as a rounded identity
            (4, 1e4, 6), (4, 1e4, 19), (4, 1e5, 17), (4, 1e6, 1), (4, 1e6, 6), (4, 1e6, 12), (6, 1e4, 18),
            (6, 1e5, 8), (6, 1e5, 19), (6, 1e6, 5), (8, 1e3, 12), (8, 1e4, 16), (8, 1e5, 14), (8, 1e6, 2),
            (8, 1e6, 7),
        ],
    )
    def test_badly_conditioned_planted_instances_are_certified(self, n, kappa, seed):
        # the scans refuted these with a NonDiagonalisable witness; the
        # constructed basis passes the checker
        spec, _ = scrambled_planted(n, kappa, seed)
        v = is_evolution_algebra(spec)
        assert v.outcome == EVOLUTION
        assert check_certificate(spec, v.certificate.p).ok

    @pytest.mark.parametrize("tol", [ToleranceContext(), ToleranceContext(eig_cluster_atol=1e-5)], ids=["default", "atol1e-5"])
    def test_no_refutation_names_the_member_of_a_canonical_point(self, tol):
        # at lambda0 = e_k the member W^{-1} M_k is the identity, diagonalisable and commuting with every member
        canonical = 0
        for n in (4, 6, 8):
            for kappa in (1e3, 1e4, 1e5, 1e6):
                for seed in range(20):
                    v = is_evolution_algebra(scrambled_planted(n, kappa, seed)[0], tol)
                    r, lam = v.refutation, v.diagnostics.lambda0
                    if np.count_nonzero(lam) != 1:
                        continue
                    canonical += 1
                    k = int(np.flatnonzero(lam)[0]) + 1
                    if isinstance(r, (NonDiagonalisable, NonCommuting)):
                        assert k not in ((r.index,) if isinstance(r, NonDiagonalisable) else r.pair), (n, kappa, seed, r)
        assert canonical >= 200  # of the 240 decisions


class TestOnePath:
    """One pencil search and one pass per decision, real and complex arithmetic alike."""

    def test_b1_decision_factors_each_structure_matrix_once(self, monkeypatch):
        spec = adversarial_instance("ann_mismatch", 6, 0)
        t = m_structure_matrices(spec)
        seen = record_factored(monkeypatch)
        v = is_evolution_algebra(spec)
        assert v.diagnostics.branch == "b.1"
        for k, m in enumerate(t):
            assert sum(a.shape == m.shape and np.array_equal(a, m) for a in seen) == 1, k + 1

    def test_no_svd_builds_a_left_factor_larger_than_its_input(self, monkeypatch):
        # the (n^2, n) annihilator stack is reduced to its R factor, without an n^2 x n^2 U
        shapes, qrs = [], []
        svd, qr = np.linalg.svd, np.linalg.qr

        def recording_svd(a, *args, **kwargs):
            out = svd(a, *args, **kwargs)
            u_size = 0 if isinstance(out, np.ndarray) else out[0].size  # compute_uv=False returns s alone
            shapes.append((np.shape(a), u_size))
            return out

        def recording_qr(a, mode="reduced"):
            qrs.append((np.shape(a), mode))
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        v = is_evolution_algebra(planted_evolution_algebra(16, seed=1)[0])
        assert v.outcome == EVOLUTION and v.diagnostics.branch == "b.2"
        assert qrs == [((256, 16), "r")]
        for shape, u_size in shapes:
            assert u_size <= np.prod(shape), shape

    def test_defective_refutation_measures_its_simple_eigenvalues_in_few_svds(self, monkeypatch):
        # one near-defective pair leaves the separation bound short for every simple eigenvalue;
        # one stacked values-only SVD per rung measures them instead of a kernel SVD each (101 SVDs)
        spec = adversarial_instance("defective", 48, seed=1)
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        v = is_evolution_algebra(spec)
        assert v.outcome == NOT_EVOLUTION and isinstance(v.refutation, NonDiagonalisable)
        assert len(calls) <= 12

    def test_b2_decision_factors_no_structure_matrix_and_no_stack(self, monkeypatch):
        # a non-zero annihilator leaves every M_k singular: the search starts on the leading blocks
        spec, _ = planted_evolution_algebra(16, seed=1)
        t = m_structure_matrices(spec)
        seen = record_factored(monkeypatch)
        v = is_evolution_algebra(spec)
        assert v.outcome == EVOLUTION and v.diagnostics.branch == "b.2"
        assert seen and not any(a.shape == (256, 16) for a in seen)
        for k, m in enumerate(t):
            assert not any(a.shape == m.shape and np.array_equal(a, m) for a in seen), k + 1

    @pytest.mark.parametrize(
        "spec, outcome",
        [(example_algebra("simple2d"), EVOLUTION), (adversarial_instance("defective", 6, 0), NOT_EVOLUTION)],
    )
    def test_branch_a_decision_factors_its_pencil_point_once(self, monkeypatch, spec, outcome):
        # the search has found W = M_k of full rank, so inverting it takes no second rank test
        seen = record_factored(monkeypatch)
        v = is_evolution_algebra(spec)
        assert v.outcome == outcome and v.diagnostics.branch == "a"
        k = int(np.flatnonzero(v.diagnostics.lambda0)[0])
        w = m_structure_matrices(spec)[k]
        assert sum(a.shape == w.shape and np.array_equal(a, w) for a in seen) == 1

    def test_b2_decision_draws_no_random_point_on_the_full_tensor(self, monkeypatch):
        evaluated = []
        evaluate_pencil = pencil.evaluate

        def recording_evaluate(mats, lam):
            if np.count_nonzero(lam) > 1:
                evaluated.append(np.asarray(mats[0]).shape)
            return evaluate_pencil(mats, lam)

        monkeypatch.setattr(pencil, "evaluate", recording_evaluate)
        cases = [
            (True, adversarial_instance("noncommuting", 4, None)),
            (True, adversarial_instance("noncommuting", 5, None)),
            (False, planted_evolution_algebra(6, seed=4)[0]),
        ]
        for blocks_searched_at_random, spec in cases:
            v = is_evolution_algebra(spec)
            n, r = spec.dim, spec.dim - v.diagnostics.ann_dim
            assert v.diagnostics.branch == "b.2"
            assert (n, n) not in evaluated
            assert ((r, r) in evaluated) == blocks_searched_at_random
            evaluated.clear()

    @pytest.mark.parametrize(
        "spec, outcome, branch",
        [
            (planted_evolution_algebra(6, seed=4)[0], EVOLUTION, "b.2"),
            (adversarial_instance("defective", 6, 0), NOT_EVOLUTION, "a"),
            # e_i^2 with a zero i-th coordinate in the natural basis: no M_k is invertible, the annihilator
            # is zero, and the similarity spectrum at the random pencil point is real and simple
            (AlgebraSpec(3, "real", {(i, i, k): float(3 * i + k) for i in (1, 2, 3) for k in (1, 2, 3) if i != k}),
             EVOLUTION, "b.1"),
        ],
    )
    def test_real_spectra_are_factored_in_real_arithmetic(self, monkeypatch, spec, outcome, branch):
        # every eigenspace of a real family with a real spectrum is computed
        # once, as a real kernel, by the construction and the scans alike
        complex_svds = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            complex_svds.append(np.iscomplexobj(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        v = is_evolution_algebra(spec)
        assert (v.outcome, v.diagnostics.branch) == (outcome, branch)
        if outcome == NOT_EVOLUTION:
            assert isinstance(v.refutation, NonDiagonalisable)
        assert complex_svds and not any(complex_svds)

    def test_a_non_real_computed_spectrum_is_measured_over_c(self, monkeypatch):
        # at its random pencil point the perturbed Jordan pair of N_1 splits into a conjugate pair,
        # so eigen_structure measures that pair over C: every complex SVD is of M - lI at one of its
        # computed eigenvalues l, or of eigenspace bases whose complex columns are eigenvectors of such an l
        eig, svd = np.linalg.eig, np.linalg.svd
        spectra, complex_inputs = [], []

        def recording_eig(a, *args, **kwargs):
            values, vectors = eig(a, *args, **kwargs)
            spectra.append((np.array(a), values))
            return values, vectors

        def recording_svd(a, *args, **kwargs):
            if np.iscomplexobj(a):
                complex_inputs.append((spectra[-1], np.array(a)))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eig", recording_eig)
        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        v = is_evolution_algebra(adversarial_instance("defective", 4, None))
        assert v.diagnostics.branch == "b.1"
        assert isinstance(v.refutation, NonDiagonalisable) and v.refutation.index == 1
        assert complex_inputs
        for (m, values), a in complex_inputs:
            non_real = values[values.imag != 0]
            assert not np.iscomplexobj(m) and non_real.size

            def is_eigenvector(v):
                return min(np.linalg.norm(m @ v - l * v) for l in non_real) <= 1e-12 * np.linalg.norm(m)

            for b in a.reshape(-1, *a.shape[-2:]):
                shift = b.shape == m.shape and any(np.array_equal(b, m - l * np.eye(len(m))) for l in non_real)
                complex_columns = [v for v in b.T if np.any(v.imag)]
                assert shift or (complex_columns and all(map(is_eigenvector, complex_columns)))

    def test_rejected_transform_is_checked_once(self, monkeypatch):
        calls = []
        check = decision._check

        def counting_check(*args):
            calls.append(1)
            return check(*args)

        monkeypatch.setattr(decision, "_check", counting_check)
        spec, _ = planted_evolution_algebra(8, seed=41)
        v = is_evolution_algebra(spec, ToleranceContext(verify_rtol=1e-12))
        assert v.outcome == UNDETERMINED
        assert v.diagnostics.notes == ("constructed transform failed independent congruence verification",)
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_complex_only_is_decided_in_one_pass(self, monkeypatch, seed):
        # C as a real algebra plus four idempotents, re-expressed in a scrambled basis:
        # only the +-i eigenspace of the similarity family needs complex arithmetic
        constants = {(1, 1, 1): 1.0, (2, 2, 1): -1.0, (1, 2, 2): 1.0, **{(i, i, i): 1.0 for i in range(3, 7)}}
        spec = change_basis(AlgebraSpec(6, "real", constants), well_conditioned_matrix(6, np.random.default_rng(seed)))
        families = []
        similarity_family = sdc._similarity_family

        def counting_family(*args):
            families.append(1)
            return similarity_family(*args)

        monkeypatch.setattr(sdc, "_similarity_family", counting_family)
        v = is_evolution_algebra(spec)
        assert len(families) == 1
        assert v.outcome == COMPLEX_ONLY_UNDETERMINED
        assert v.diagnostics.notes == ("similarity spectrum is not real; no real natural basis was certified",)
        p = v.certificate.p
        assert check_certificate(complexify(spec), p).ok
        assert np.count_nonzero(np.any(p.imag != 0, axis=0)) == 2


class TestSolveEndings:
    """Every ending of one decision pass, with the routing test, the scans, the construction and the checker stubbed."""

    WITNESS = NonCommuting((1, 2), 1.0)
    DEFECT = NonDiagonalisable(1, 0.5)
    REJECTED = ("constructed transform failed independent congruence verification",)
    NO_BASIS = ("no common eigenbasis was constructed: a restriction to a common eigenspace is defective",)
    FAILED = ("numerical failure: stub",)

    @pytest.mark.parametrize(
        "routed, witness, construction, accepted, calls, outcome, refutation, notes",
        [
            # not routed: the scans first; their witness ends the pass
            (False, WITNESS, "basis", True, ["route", "scan"], NOT_EVOLUTION, WITNESS, ()),
            # not routed, no witness: one construction, and the checker on its transform
            (False, None, "basis", True, ["route", "scan", "construct", "check"], EVOLUTION, None, ()),
            (False, None, "basis", False, ["route", "scan", "construct", "check"], UNDETERMINED, None, REJECTED),
            (False, None, "defect", True, ["route", "scan", "construct"], NOT_EVOLUTION, DEFECT, ()),
            (False, None, "raises", True, ["route", "scan", "construct"], UNDETERMINED, None, FAILED),
            (False, None, "none", True, ["route", "scan", "construct"], UNDETERMINED, None, NO_BASIS),
            # routed: the construction first; a certificate or a whole-space defect ends the pass
            (True, WITNESS, "basis", True, ["route", "construct", "check"], EVOLUTION, None, ()),
            (True, WITNESS, "defect", True, ["route", "construct"], NOT_EVOLUTION, DEFECT, ()),
            # routed, transform rejected or no basis: the scans run
            (True, WITNESS, "basis", False, ["route", "construct", "check", "scan"], NOT_EVOLUTION, WITNESS, ()),
            (True, None, "basis", False, ["route", "construct", "check", "scan"], UNDETERMINED, None, REJECTED),
            (True, WITNESS, "none", True, ["route", "construct", "scan"], NOT_EVOLUTION, WITNESS, ()),
            (True, None, "none", True, ["route", "construct", "scan"], UNDETERMINED, None, NO_BASIS),
            # routed, construction raises: the failure is final, the scans never run
            (True, WITNESS, "raises", True, ["route", "construct"], UNDETERMINED, None, FAILED),
            (True, None, "raises", True, ["route", "construct"], UNDETERMINED, None, FAILED),
        ],
    )
    def test_calls_and_ending(self, monkeypatch, routed, witness, construction, accepted, calls, outcome, refutation, notes):
        seen = []
        common_eigenbasis, check = sds._common_eigenbasis, decision._check

        def route(family, tol):
            seen.append("route")
            return routed

        def scan(family, tol):
            seen.append("scan")
            return witness

        def construct(family, tol):
            seen.append("construct")
            if construction == "raises":
                raise numkernel.NonConvergence("stub")
            if construction == "none":
                return None
            return self.DEFECT if construction == "defect" else common_eigenbasis(family, tol)

        def checker(t, p, tol):
            seen.append("check")
            result, products = check(t, p, tol)
            return (result if accepted else decision.CertificateCheck(ok=False, offending_pair=(1, 2))), products

        monkeypatch.setattr(sds, "_commute_with_sum", route)
        monkeypatch.setattr(sds, "_witness", scan)
        monkeypatch.setattr(sds, "_common_eigenbasis", construct)
        monkeypatch.setattr(decision, "_check", checker)
        v = is_evolution_algebra(example_algebra("simple2d"))
        assert seen == calls
        assert (v.outcome, v.refutation, v.diagnostics.notes) == (outcome, refutation, notes)
        assert (v.certificate is not None) == (outcome == EVOLUTION)

    def test_a_family_that_sums_to_a_multiple_of_the_identity_is_refuted_by_the_scan_after_the_construction(self, monkeypatch):
        # sum_k M_k = 2 M_1 with M_1 invertible: at lambda0 = e_1 the family sums to 2I, which every member
        # commutes with, so the routing test passes although M_2 and M_3 do not commute; the construction's
        # transform is rejected, and only the scan after it names the pair
        rng = np.random.default_rng(1)
        b = rng.standard_normal((4, 4))
        m1 = b + b.T + 6.0 * np.eye(4)
        m2, m3 = (c + c.T for c in rng.standard_normal((2, 4, 4)))
        t = np.stack([m1, m2, m3, m1 - m2 - m3])
        constants = {(i + 1, j + 1, k + 1): float(t[k, i, j]) for k in range(4) for i in range(4) for j in range(i, 4)}
        spec = AlgebraSpec(4, "real", constants)
        seen = []
        route, scan, construct, check = sds._commute_with_sum, sds._witness, sds._common_eigenbasis, decision._check

        def spy(name, function, result):
            def call(*args):
                value = function(*args)
                seen.append((name, result(value)))
                return value
            return call

        monkeypatch.setattr(sds, "_commute_with_sum", spy("route", route, bool))
        monkeypatch.setattr(sds, "_witness", spy("scan", scan, lambda r: r))
        monkeypatch.setattr(sds, "_common_eigenbasis", spy("construct", construct, lambda bases: isinstance(bases, list)))
        monkeypatch.setattr(decision, "_check", spy("check", check, lambda result: result[0].ok))
        v = is_evolution_algebra(spec)
        witness = NonCommuting((2, 3), v.refutation.commutator_norm)
        assert seen == [("route", True), ("construct", True), ("check", False), ("scan", witness)]
        assert (v.outcome, v.refutation, v.diagnostics.branch) == (NOT_EVOLUTION, witness, "a")
        assert np.array_equal(v.diagnostics.lambda0, np.eye(4)[0])
        _, family = sdc._similarity_family(t, v.diagnostics.lambda0)
        assert np.allclose(family.sum(axis=0), 2.0 * np.eye(4))
