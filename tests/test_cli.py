import json

import numpy as np
import pytest

from evoalg import cli, example_algebra, explain, is_evolution_algebra, parse
from evoalg.decision import NOT_EVOLUTION, Verdict
from evoalg.fileformat import format_matrix, serialise
from evoalg.sdc import KernelDimensionMismatch, NoFullRankPencil
from evoalg.sds import NonCommuting, NonDiagonalisable
from conftest import subnormal_tetraploid


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_evolution_exit_zero(self, capsys):
        code, out, _ = run(capsys, "check", "example://simple2d")
        assert code == 0
        assert "verdict: evolution" in out
        assert "natural basis" in out

    def test_refutation_exit_one(self, capsys):
        code, out, _ = run(capsys, "check", "example://mendel", "--epsilon", "0")
        assert code == 1
        assert "not diagonalisable" in out

    def test_complex_only_exit_two(self, tmp_path, capsys):
        f = tmp_path / "xz.alg"
        f.write_text("field: real\ndim: 2\nm 1 1 1 1\nm 2 2 1 -1\nm 1 2 2 1\n")
        code, out, _ = run(capsys, "check", str(f))
        assert code == 2
        assert "complex_only_undetermined" in out

    def test_json_report_schema(self, capsys):
        code, out, _ = run(capsys, "check", "example://mendel", "--epsilon", "0", "--json")
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "not_evolution"
        assert report["branch"] == "a"
        assert report["certificate"] is None
        assert report["refutation"]["kind"] == "non_diagonalisable"
        assert report["refutation"]["matrix_index"] == 2
        assert report["refutation"]["eigenvalue"][0] == pytest.approx(-1.0, abs=1e-8)
        diag = report["diagnostics"]
        for key in ("r0", "lambda0", "ann_dim", "tolerances", "trials", "trials_used", "seed", "notes", "runtime_ms"):
            assert key in diag

    def test_json_certificate_payload(self, capsys):
        code, out, _ = run(capsys, "check", "example://simple2d", "--json")
        assert code == 0
        report = json.loads(out)
        p = np.array([[complex(re, im) for re, im in row] for row in report["certificate"]["p"]])
        assert p.shape == (2, 2)
        assert len(report["certificate"]["diagonals"]) == 2
        assert len(report["certificate"]["natural_basis"]) == 2

    def test_batch_exit_is_worst(self, tmp_path, capsys):
        f = tmp_path / "nota2.alg"
        f.write_text(serialise(example_algebra("nota2")))
        code, out, _ = run(capsys, "check", str(f), "example://simple2d", "--json")
        assert code == 1
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["verdict"] for r in lines] == ["not_evolution", "evolution"]

    @pytest.mark.parametrize(
        "dim, branch, refutation, text",
        [
            (3, "b.1", {"kind": "kernel_dimension_mismatch", "kernel_dim": 0, "expected": 1},
             "refutation: common kernel has dimension 0, but the pencil rank defect requires 1"),
            (4, "b.2", {"kind": "no_full_rank_pencil", "trials": 4 + 16, "seed": 0},
             "refutation: no invertible pencil point for the reduced blocks after 20 trials (seed 0)"),
        ],
    )
    def test_no_full_rank_point_reports(self, tmp_path, capsys, dim, branch, refutation, text):
        # the arrowhead M_1 = I, padded with an annihilator direction when dim is 4
        f = tmp_path / "arrowhead.alg"
        f.write_text(f"field: real\ndim: {dim}\nm 1 1 1 1\nm 1 2 2 1\nm 1 3 3 1\n")
        note = {
            "b.1": "no full-rank pencil point found by randomized search; the rank defect contradicts the zero common kernel",
            "b.2": "randomized search found no invertible pencil point for the reduced blocks",
        }[branch]
        code, out, _ = run(capsys, "check", str(f), "--json")
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "not_evolution" and report["branch"] == branch
        assert report["refutation"] == refutation and report["certificate"] is None
        assert report["diagnostics"]["notes"] == [note]
        assert report["diagnostics"]["r0"] == 2 and report["diagnostics"]["ann_dim"] == dim - 3
        code, out, _ = run(capsys, "check", str(f))
        assert code == 1
        assert text in out.splitlines() and f"note: {note}" in out.splitlines()

    def test_batch_text_reports_have_headers(self, capsys):
        sources = ["example://simple2d", "example://nota2"]
        code, out, _ = run(capsys, "check", *sources)
        assert code == 1
        headers = [line for line in out.splitlines() if line.startswith("== ")]
        assert headers == [f"== {source}" for source in sources]
        first, second = out.split(headers[1] + "\n")
        assert first.startswith(headers[0] + "\nverdict: evolution\n")
        assert second.startswith("verdict: not_evolution\n")

    def test_bare_tolerance_sets_all_four(self, capsys):
        code, out, _ = run(capsys, "check", "example://simple2d", "--tol", "1e-9", "--json")
        assert code == 0
        assert json.loads(out)["diagnostics"]["tolerances"] == {
            "rank_rtol": 1e-9, "eig_cluster_atol": 1e-9, "commute_rtol": 1e-9, "verify_rtol": 1e-9,
        }

    def test_tolerance_overrides(self, capsys):
        code, _, _ = run(capsys, "check", "example://simple2d", "--tol", "verify_rtol=1e-6", "--tol", "rank_rtol=1e-12")
        assert code == 0
        code, _, err = run(capsys, "check", "example://simple2d", "--tol", "bogus=1")
        assert code == 3 and "unknown tolerance" in err


class TestRefutationReports:
    @pytest.mark.parametrize(
        "refutation, line, payload",
        [
            (NonDiagonalisable(2, complex(-1.5, -0.25)),
             "refutation: matrix 2 of the similarity family is not diagonalisable; defective eigenvalue -1.5-0.25i",
             {"kind": "non_diagonalisable", "matrix_index": 2, "eigenvalue": [-1.5, -0.25]}),
            (NonCommuting((1, 3), 0.123456789),
             "refutation: matrices 1 and 3 of the similarity family do not commute (commutator norm 0.123457)",
             {"kind": "non_commuting", "pair": [1, 3], "commutator_norm": 0.123456789}),
            (KernelDimensionMismatch(0, 2),
             "refutation: common kernel has dimension 0, but the pencil rank defect requires 2",
             {"kind": "kernel_dimension_mismatch", "kernel_dim": 0, "expected": 2}),
            (NoFullRankPencil(20, 7),
             "refutation: no invertible pencil point for the reduced blocks after 20 trials (seed 7)",
             {"kind": "no_full_rank_pencil", "trials": 20, "seed": 7}),
        ],
        ids=["non_diagonalisable", "non_commuting", "kernel_dimension_mismatch", "no_full_rank_pencil"],
    )
    def test_exact_text_line_and_json_payload(self, refutation, line, payload):
        diagnostics = is_evolution_algebra(example_algebra("simple2d")).diagnostics
        verdict = Verdict(NOT_EVOLUTION, None, refutation, diagnostics)
        assert [text for text in explain(verdict).splitlines() if text.startswith("refutation: ")] == [line]
        assert cli.report_json(verdict, 0.0)["refutation"] == payload


class TestOtherCommands:
    def test_basis_prints_vectors(self, capsys):
        code, out, _ = run(capsys, "basis", "example://simple2d")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    @pytest.mark.parametrize(
        "source",
        [["example://tetraploid", "--epsilon", "0.1"], ["example://mendel3d_ann", "--epsilon", "0.2"], ["random"]],
    )
    def test_basis_output_is_a_verify_matrix_file(self, tmp_path, capsys, source):
        # basis prints the rows of P, the layout verify --p reads
        if source == ["random"]:
            code, out, _ = run(capsys, "random", "--dim", "5", "--seed", "3")
            assert code == 0
            f = tmp_path / "r.alg"
            f.write_text(out)
            source = [str(f)]
        code, out, _ = run(capsys, "basis", *source)
        assert code == 0
        p = tmp_path / "p.mat"
        p.write_text(out)
        code, out, _ = run(capsys, "verify", *source, "--p", str(p))
        assert code == 0 and "accepted" in out

    def test_basis_refutation(self, capsys):
        code, out, _ = run(capsys, "basis", "example://nota2")
        assert code == 1
        assert "refutation" in out

    def test_ann(self, capsys):
        code, out, _ = run(capsys, "ann", "example://nota2")
        assert code == 0
        assert out.strip().splitlines() == ["0.0 0.0 1.0"]

    def test_ann_json(self, capsys):
        code, out, _ = run(capsys, "ann", "example://nota2", "--json")
        assert code == 0
        assert json.loads(out) == {"ann_dim": 1, "basis": [[[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]}

    def test_ann_empty(self, capsys):
        code, out, _ = run(capsys, "ann", "example://simple2d")
        assert code == 0
        assert "zero" in out

    def test_example_emits_parseable_fixture(self, capsys):
        code, out, _ = run(capsys, "example", "tetraploid", "--epsilon", "0.1")
        assert code == 0
        assert parse(out) == example_algebra("tetraploid", 0.1)

    def test_random_planted_checks_out(self, tmp_path, capsys):
        code, out, _ = run(capsys, "random", "--dim", "4", "--seed", "11")
        assert code == 0
        f = tmp_path / "r.alg"
        f.write_text(out)
        code, _, _ = run(capsys, "check", str(f))
        assert code == 0

    def test_random_adversarial(self, tmp_path, capsys):
        code, out, _ = run(capsys, "random", "--dim", "4", "--seed", "3", "--adversarial", "defective")
        assert code == 0
        f = tmp_path / "a.alg"
        f.write_text(out)
        code, out, _ = run(capsys, "check", str(f), "--json")
        assert code == 1
        assert json.loads(out)["refutation"]["kind"] == "non_diagonalisable"

    def test_verify_accepts_and_rejects(self, tmp_path, capsys):
        good = tmp_path / "good.mat"
        good.write_text(format_matrix(np.array([[1.0, 1.0], [1.0, -1.0]])))
        code, out, _ = run(capsys, "verify", "example://simple2d", "--p", str(good))
        assert code == 0 and "accepted" in out

        bad = tmp_path / "bad.mat"
        bad.write_text(format_matrix(np.eye(2)))
        code, out, _ = run(capsys, "verify", "example://simple2d", "--p", str(bad), "--json")
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False and report["offending_pair"] == [1, 2]
        code, out, _ = run(capsys, "verify", "example://simple2d", "--p", str(bad))
        assert code == 1
        assert out.startswith("certificate rejected: product of basis vectors 1 and 2 has residual ")

    def test_verify_rejects_non_finite_transform(self, tmp_path, capsys):
        p = tmp_path / "inf.mat"
        p.write_text("1e999 1\n1 -1\n")  # 1e999 parses as inf
        code, out, _ = run(capsys, "verify", "example://simple2d", "--p", str(p))
        assert code == 1 and "transform has non-finite entries" in out

    def test_lapack_failure_exits_undetermined(self, tmp_path, capsys):
        f = tmp_path / "subnormal.alg"
        f.write_text(serialise(subnormal_tetraploid()))
        code, out, _ = run(capsys, "check", str(f))
        assert code == 2 and "undetermined" in out and "numerical failure" in out


class TestErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 3 and err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "no-such-file.alg")
        assert code == 3 and "no-such-file" in err

    def test_parse_error_diagnostics(self, tmp_path, capsys):
        f = tmp_path / "bad.alg"
        f.write_text("field: real\ndim: 2\nm 2 1 1 0.5\n")
        code, _, err = run(capsys, "check", str(f))
        assert code == 3
        assert "line 3" in err and "store i <= j" in err

    def test_superscript_dim_is_a_parse_error(self, tmp_path, capsys):
        f = tmp_path / "sup.alg"
        f.write_text("field: real\ndim: \u00b2\n")
        code, out, err = run(capsys, "check", str(f))
        assert code == 3 and out == "" and err.startswith("error: line 2, column 1:")

    @pytest.mark.parametrize(
        "command, algebra_text, matrix_text",
        [
            ("check", b"field: real\ndim: 1\nm 1 1 1 \xff\n", None),
            ("check", b"field: real\ndim: 1000000\n", None),
            ("verify", b"field: real\ndim: 1\nm 1 1 1 \xff\n", b"1\n"),
            ("verify", b"field: real\ndim: 1000000\n", b"1\n"),
            ("verify", b"field: real\ndim: 1\nm 1 1 1 1\n", b"1\xff\n"),
        ],
        ids=["check-not-utf8", "check-dim-too-large", "verify-not-utf8", "verify-dim-too-large", "verify-p-not-utf8"],
    )
    def test_undecodable_or_unallocatable_input_exits_three(self, tmp_path, capsys, command, algebra_text, matrix_text):
        # dim: 1000000 asks numpy for 6.94 EiB, which it refuses at once
        f = tmp_path / "input.alg"
        f.write_bytes(algebra_text)
        argv = [command, str(f)]
        if matrix_text is not None:
            p = tmp_path / "p.mat"
            p.write_bytes(matrix_text)
            argv += ["--p", str(p)]
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and err.startswith("error: ")
        assert ("not UTF-8" in err) != ("dim 1000000 is too large" in err)

    def test_epsilon_out_of_range(self, capsys):
        code, _, err = run(capsys, "check", "example://tetraploid", "--epsilon", "0.9")
        assert code == 3 and "epsilon" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "example://nota2", "--trials", "0"],
            ["check", "example://simple2d", "--seed", "-1"],
            ["check", "example://simple2d", "--tol", "abc"],
            ["check", "example://simple2d", "--tol", "rank_rtol=abc"],
            ["random", "--dim", "0"],
            ["random", "--dim", "3", "--seed", "-2"],
            ["random", "--dim", "2", "--adversarial", "ann_mismatch"],
        ],
    )
    def test_bad_numbers_are_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 3 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["ann", "--seed", "1", "example://nota2"],
            ["ann", "--trials", "4", "example://nota2"],
            ["verify", "--seed", "1", "example://simple2d", "--p", "p.mat"],
            ["verify", "--trials", "4", "example://simple2d", "--p", "p.mat"],
        ],
    )
    def test_only_the_deciding_commands_take_search_flags(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "unrecognized arguments" in err

    @pytest.mark.parametrize("density", ["nan", "-1", "2", "inf"])
    def test_density_outside_the_unit_interval_is_a_usage_error(self, capsys, density):
        code, out, err = run(capsys, "random", "--dim", "3", "--density", density)
        assert code == 3 and out == "" and err.startswith("error: ") and "density" in err

    @pytest.mark.parametrize("density", ["0", "0.7", "1"])
    def test_density_in_the_unit_interval_prints_an_algebra(self, capsys, density):
        code, out, _ = run(capsys, "random", "--dim", "3", "--seed", "2", "--density", density)
        assert code == 0 and parse(out).dim == 3

    def test_negative_seed_on_a_file_that_reaches_the_random_trials(self, tmp_path, capsys):
        code, out, _ = run(capsys, "random", "--dim", "4", "--adversarial", "ann_mismatch")
        assert code == 0
        f = tmp_path / "am.alg"
        f.write_text(out)
        code, _, err = run(capsys, "check", str(f), "--seed", "-1")
        assert code == 3 and err.startswith("error: ") and "--seed" in err


class TestDeterminism:
    def test_reports_identical_modulo_runtime(self, capsys):
        reports = []
        for _ in range(3):
            _, out, _ = run(capsys, "check", "example://mendel3d_ann", "--epsilon", "0.2", "--json", "--seed", "7")
            blob = json.loads(out)
            blob["diagnostics"].pop("runtime_ms")
            reports.append(json.dumps(blob, sort_keys=True))
        assert len(set(reports)) == 1


class TestParser:
    def test_two_runs_build_one_parser(self, monkeypatch, capsys):
        built = []

        class CountingParser(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs["prog"])  # "evoalg" for the tree, "evoalg check" and so on for its subparsers
                super().__init__(*args, **kwargs)

        cli._build_parser.cache_clear()
        monkeypatch.setattr(cli, "_Parser", CountingParser)
        try:
            assert run(capsys, "check", "example://simple2d", "--tol", "verify_rtol=1e-6")[0] == 0
            assert run(capsys, "check", "example://simple2d", "--tol", "bogus=1")[0] == 3
            assert run(capsys, "check", "example://simple2d")[0] == 0  # the --tol list of a parse is its own
        finally:
            cli._build_parser.cache_clear()
        assert built.count("evoalg") == 1
