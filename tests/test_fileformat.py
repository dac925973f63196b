import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoalg import AlgebraSpec, example_algebra, parse, serialise, validate
from evoalg.fileformat import DuplicateEntry, FieldMismatch, ParseError, format_scalar, parse_matrix, parse_scalar


class TestParse:
    def test_simple2d_file(self):
        text = "field: real\ndim: 2\nm 1 1 1 1\nm 1 2 2 1\nm 2 2 1 1"
        assert parse(text) == example_algebra("simple2d")

    def test_comments_and_blank_lines(self):
        text = "# gametic table\nfield: real\n\ndim: 2\nm 1 1 1 1 # idempotent\n"
        assert parse(text).constants == {(1, 1, 1): 1.0}

    def test_disordered_index_hint(self):
        with pytest.raises(ParseError, match="store i <= j"):
            parse("field: real\ndim: 2\nm 2 1 1 0.5")

    def test_complex_value_accepted(self):
        spec = parse("field: complex\ndim: 1\nm 1 1 1 0.5+0.5i")
        assert spec.constants[(1, 1, 1)] == 0.5 + 0.5j

    def test_complex_under_real_rejected(self):
        with pytest.raises(FieldMismatch):
            parse("field: real\ndim: 1\nm 1 1 1 0.5+0.5i")

    def test_duplicate_entry(self):
        with pytest.raises(DuplicateEntry):
            parse("field: real\ndim: 2\nm 1 1 1 1\nm 1 1 1 2")

    @pytest.mark.parametrize("token", ["\u00b2", "0", "-2", "2.0"])
    def test_dim_must_be_a_positive_decimal_integer(self, token):
        # str.isdigit() also accepts superscripts, which int() rejects
        with pytest.raises(ParseError, match="positive integer") as info:
            parse(f"field: real\ndim: {token}\n")
        assert (info.value.line, info.value.column) == (2, 1)

    def test_entry_before_dim(self):
        with pytest.raises(ParseError, match="dim"):
            parse("field: real\nm 1 1 1 1\ndim: 2")

    def test_missing_headers(self):
        with pytest.raises(ParseError):
            parse("dim: 2\n")
        with pytest.raises(ParseError):
            parse("field: real\n")

    def test_bad_scalar_position(self):
        with pytest.raises(ParseError) as err:
            parse("field: real\ndim: 2\nm 1 1 1 zebra")
        assert err.value.line == 3
        assert err.value.column == 9

    def test_out_of_range_index(self):
        with pytest.raises(ParseError, match="out of range"):
            parse("field: real\ndim: 2\nm 1 1 3 1")

    def test_labels(self):
        spec = parse("field: real\ndim: 2\nlabels: gamete A, gamete B\nm 1 1 1 1")
        assert spec.labels == ("gamete A", "gamete B")


class TestScalars:
    @pytest.mark.parametrize(
        "token,value",
        [
            ("1", 1.0),
            ("-0.25", -0.25),
            ("1e-3", 1e-3),
            ("2.5E+2", 250.0),
            ("1+2i", 1 + 2j),
            ("1.5-0.5i", 1.5 - 0.5j),
            ("-1e-4+2e-4i", -1e-4 + 2e-4j),
        ],
    )
    def test_parse(self, token, value):
        assert parse_scalar(token) == value

    @pytest.mark.parametrize("token", ["i", "1+i", "1 + 2i", "abc", "1+2j", ""])
    def test_rejects(self, token):
        with pytest.raises(ValueError):
            parse_scalar(token)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    @settings(max_examples=100, deadline=None)
    def test_real_round_trip(self, x):
        assert parse_scalar(format_scalar(complex(x, 0.0))) == complex(x, 0.0)

    @given(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_complex_round_trip(self, re, im):
        z = complex(re, im)
        assert parse_scalar(format_scalar(z)) == z


class TestRoundTrips:
    FIXTURES = [
        ("simple2d", None),
        ("nota2", None),
        ("mendel", 0.0),
        ("mendel", 0.37),
        ("mendel3d_ann", 0.2),
        ("tetraploid", 0.1),
    ]

    @pytest.mark.parametrize("name,eps", FIXTURES)
    def test_spec_round_trip(self, name, eps):
        spec = example_algebra(name, eps)
        assert parse(serialise(spec)) == spec

    @pytest.mark.parametrize("name,eps", FIXTURES)
    def test_canonical_text_is_a_fixed_point(self, name, eps):
        text = serialise(example_algebra(name, eps))
        assert serialise(parse(text)) == text

    def test_complex_spec_round_trip(self):
        spec = validate(AlgebraSpec(2, "complex", {(1, 1, 1): 1 - 2j, (1, 2, 2): 3e-7 + 1j}, labels=("u", "v")))
        assert parse(serialise(spec)) == spec

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_spec_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        constants = {}
        for _ in range(int(rng.integers(0, 8))):
            i = int(rng.integers(1, n + 1))
            j = int(rng.integers(i, n + 1))
            k = int(rng.integers(1, n + 1))
            constants[(i, j, k)] = complex(rng.standard_normal(), rng.standard_normal())
        spec = validate(AlgebraSpec(n, "complex", constants))
        assert parse(serialise(spec)) == spec


class TestMatrixFiles:
    def test_parse_real(self):
        m = parse_matrix("1 2\n3 4\n")
        np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])
        assert m.dtype == np.float64

    def test_parse_complex_with_comments(self):
        m = parse_matrix("# transform\n1+1i 0\n0 1-1i\n")
        assert m[0, 0] == 1 + 1j

    def test_ragged_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix("1 2\n3\n")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix("# nothing\n")
