import json
import pathlib
import re
import sys
from typing import Optional

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evoalg import AlgebraSpec, adversarial_instance, example_algebra, parse, planted_evolution_algebra, serialise, validate
from evoalg.algebra import COMPLEX, REAL, MalformedSpec, complexify
from evoalg.corpus import ADVERSARIAL_KINDS
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

    @pytest.mark.parametrize("field, token", [("real", "1e400"), ("real", "-1e400"), ("complex", "1-1e400i")])
    def test_overflowing_value_is_reported_where_it_stands(self, field, token):
        with pytest.raises(ParseError, match="overflows to infinity") as err:
            parse(f"field: {field}\ndim: 2\nm 1 1 1 {token}\nm 1 2 2 1\n")
        assert (err.value.line, err.value.column) == (3, 9)

    def test_dim_too_large_to_allocate(self):
        # numpy refuses a 6.94 EiB tensor at once; no smaller size that the kernel might overcommit is tried
        with pytest.raises(ParseError, match="dim 1000000 is too large") as err:
            parse("field: real\ndim: 1000000\n")
        assert (err.value.line, err.value.column) == (1, 1)


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

    @pytest.mark.parametrize(
        "label",
        ["a,b", "a#x", " a", "a ", "", "a\nb", "a\r\nb", "a\x0bb", "a\x1cb", "a\x85b", "a\u2028b", "\u2003a"],
    )
    def test_a_label_a_file_cannot_hold_is_rejected(self, label):
        with pytest.raises(MalformedSpec, match=re.escape(repr(label))):
            validate(AlgebraSpec(2, "real", {(1, 1, 1): 1.0}, labels=(label, "c")))

    @given(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_every_accepted_label_round_trips(self, labels):
        try:
            spec = validate(AlgebraSpec(len(labels), "real", {(1, 1, 1): 1.0}, labels=tuple(labels)))
        except MalformedSpec:
            assume(False)
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


# -- the parser against the regex-based one it replaced -------------------------------------------------------------
#
# reference_parse and reference_parse_matrix are the earlier parser, kept verbatim apart from names: it tokenised
# each line with re.finditer(r"\S+"), tested indices and dim with re.fullmatch(r"\d+") and tried the complex pattern
# first.  The current parser must give the same spec, or raise the same error class at the same line and column with
# the same reason, on every input.  The one intended difference: a value that overflows to infinity stops the current
# parser at its own line and column, where the reference stored inf and failed later (at validate's line 1, column 1,
# or at a later line).

_REF_FLOAT = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_REF_UNSIGNED = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_REF_COMPLEX_RE = re.compile(rf"^(?P<re>{_REF_FLOAT})(?P<sign>[+-])(?P<im>{_REF_UNSIGNED})i$")
_REF_REAL_RE = re.compile(rf"^{_REF_FLOAT}$")


def reference_parse_scalar(token: str) -> complex:
    m = _REF_COMPLEX_RE.match(token)
    if m:
        imag = float(m.group("im"))
        if m.group("sign") == "-":
            imag = -imag
        return complex(float(m.group("re")), imag)
    if _REF_REAL_RE.match(token):
        return complex(float(token), 0.0)
    raise ValueError(f"not a scalar: {token!r}")


def _reference_tokens(line: str) -> list[tuple[str, int]]:
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


def reference_parse(text: str) -> AlgebraSpec:
    field: Optional[str] = None
    dim: Optional[int] = None
    labels: Optional[tuple[str, ...]] = None
    constants: dict[tuple[int, int, int], complex] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        toks = _reference_tokens(line)
        head, col = toks[0]

        if head == "field:":
            if len(toks) != 2 or toks[1][0] not in (REAL, COMPLEX):
                raise ParseError(lineno, col, "expected 'field: real' or 'field: complex'")
            field = toks[1][0]
        elif head == "dim:":
            if len(toks) != 2 or not re.fullmatch(r"\d+", toks[1][0]) or int(toks[1][0]) < 1:
                raise ParseError(lineno, col, "expected 'dim: n' with a positive integer n")
            dim = int(toks[1][0])
        elif head == "labels:":
            names = [x.strip() for x in line.split(":", 1)[1].split(",")]
            if any(not x for x in names):
                raise ParseError(lineno, col, "empty label")
            labels = tuple(names)
        elif head == "m":
            if dim is None:
                raise ParseError(lineno, col, "'dim:' must appear before entries")
            if field is None:
                raise ParseError(lineno, col, "'field:' must appear before entries")
            if len(toks) != 5:
                raise ParseError(lineno, col, "expected 'm i j k value'")
            idx = []
            for tok, tcol in toks[1:4]:
                if not re.fullmatch(r"\d+", tok):
                    raise ParseError(lineno, tcol, f"index {tok!r} is not a positive integer")
                idx.append(int(tok))
            i, j, k = idx
            if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
                raise ParseError(lineno, toks[1][1], f"index out of range for dim {dim}: ({i}, {j}, {k})")
            if i > j:
                raise ParseError(lineno, toks[1][1], f"i > j is not stored; store i <= j (write 'm {j} {i} {k} ...')")
            vtok, vcol = toks[4]
            try:
                value = reference_parse_scalar(vtok)
            except ValueError:
                raise ParseError(lineno, vcol, f"bad scalar {vtok!r}; use a decimal or a+bi / a-bi") from None
            if field == REAL and value.imag != 0.0:
                raise FieldMismatch(lineno, vcol, f"complex value {vtok!r} under field: real")
            if (i, j, k) in constants:
                raise DuplicateEntry(lineno, toks[1][1], f"entry ({i}, {j}, {k}) appears twice")
            constants[(i, j, k)] = value
        else:
            raise ParseError(lineno, col, f"unrecognised directive {head!r}")

    if field is None:
        raise ParseError(1, 1, "missing 'field:' header")
    if dim is None:
        raise ParseError(1, 1, "missing 'dim:' header")
    try:
        return validate(AlgebraSpec(dim, field, constants, labels))
    except MalformedSpec as exc:
        raise ParseError(1, 1, str(exc)) from exc


def reference_parse_matrix(text: str) -> np.ndarray:
    rows: list[list[complex]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        row = []
        for tok, col in _reference_tokens(line):
            try:
                row.append(reference_parse_scalar(tok))
            except ValueError:
                raise ParseError(lineno, col, f"bad scalar {tok!r}") from None
        if rows and len(row) != len(rows[0]):
            raise ParseError(lineno, 1, f"row has {len(row)} entries, expected {len(rows[0])}")
        rows.append(row)
    if not rows:
        raise ParseError(1, 1, "empty matrix")
    m = np.array(rows, dtype=np.complex128)
    if np.all(m.imag == 0):
        return m.real
    return m


def _outcome(parser, text: str) -> tuple:
    """What a parser makes of ``text``: its error (class, line, column, reason) or its result, down to the bytes."""
    try:
        result = parser(text)
    except ParseError as exc:
        return ("error", type(exc), exc.line, exc.column, exc.reason)
    if isinstance(result, np.ndarray):
        return ("matrix", result.dtype.str, result.shape, result.tobytes())
    t = result.constants.tensor
    return ("spec", result.dim, result.field, result.labels, t.dtype.str, t.tobytes())


def assert_parses_as_reference(text: str) -> None:
    new, ref = _outcome(parse, text), _outcome(reference_parse, text)
    if new[0] == "error" and new[4].endswith("overflows to infinity"):
        # the reference accepted the line and failed afterwards
        assert ref[0] == "error" and (ref[2] > new[2] or ref[2:4] == (1, 1)), (text, new, ref)
    else:
        assert new == ref, text


_SEPARATOR = st.sampled_from([" ", " ", " ", "  ", "\t", "\u00a0", "\u2003", "\x1f", " \t"])
_INDEX = st.one_of(
    st.integers(0, 5).map(str),
    st.sampled_from(["\u0663", "\u0662", "\u00b2", "-1", "+1", "1.0", "x", "01", "1e0"]),
)
_SCALAR = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: format_scalar(complex(x, 0.0))),
    st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)).map(format_scalar),
    st.sampled_from([
        "1", "-0.25", ".5", "5.", "+1", "1E+2", "0.5+0.5i", "1-2i", "-1e-4+2e-4i", "\u0663", "\u0663.5+1i", "1e-400",
        "1e400", "-1e400", "1+1e400i", "1e400-2i",  # overflow
        "zebra", "1+i", "i", "1+2j", "1 + 2i", "nan", "inf", "1_0", "\u00b2", "0x1", "1e", "--1",  # not scalars
    ]),
)
_HEADER = st.one_of(
    st.sampled_from(["field: real", "field: complex", "field: bogus", "field:", "field: real real", "labels: a, b",
                     "labels: x", "labels: a,, b", "labels:", "q 1 2", "m", "dim:", "dim: 2 2"]),
    st.sampled_from(["1", "2", "3", "\u0663", "\uff12", "\u00b2", "0", "-2", "2.0", "x"]).map(lambda d: "dim: " + d),
)


@st.composite
def _entry_line(draw) -> str:
    if draw(st.integers(0, 2)):  # indices in range for dim 3, so that duplicates and i > j are common
        toks = ["m", *(str(draw(st.integers(1, 2))) for _ in range(3)), draw(_SCALAR)]
    else:
        toks = ["m", draw(_INDEX), draw(_INDEX), draw(_INDEX), draw(_SCALAR)]
    if draw(st.integers(0, 5)) == 0:  # a short line, one too many tokens, or the value where an index belongs
        toks = toks[:draw(st.sampled_from([1, 2, 4]))] + [draw(_SCALAR)] * draw(st.integers(0, 2))
    return draw(_line_of(toks))


@st.composite
def _line_of(draw, toks: list[str]) -> str:
    """``toks`` between separators, with optional leading space and trailing comment."""
    seps = [draw(_SEPARATOR) for _ in toks]
    line = draw(st.sampled_from(["", "", " ", "\u2003"])) + "".join(t + s for t, s in zip(toks, seps))
    return line + draw(st.sampled_from(["", "", "", "# note", "#"]))


_FILLER = st.sampled_from(["", "   ", "\u00a0\t", "# a comment", "#", "\x1f"])


@st.composite
def _algebra_text(draw) -> str:
    head = draw(st.sampled_from([["field: real", "dim: 3"], ["field: complex", "dim: 3"], ["dim: 3", "field: complex"],
                                 ["field: real", "dim: 3"], ["field: complex", "dim: 3", "labels: a, b, c"],
                                 ["# header", "field: complex", "", "dim: 3"], [], ["field: real"]]))
    body = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 9))  # mostly entries, some headers (first or repeated), some filler
        body.append(draw(_HEADER if kind == 0 else _FILLER if kind == 1 else _entry_line()))
    return draw(st.sampled_from(["\n", "\r\n"])).join(head + body)


@st.composite
def _matrix_text(draw) -> str:
    width = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(_FILLER))
        else:
            row_width = width + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
            lines.append(draw(_line_of([draw(_SCALAR) for _ in range(max(row_width, 1))])))
    return "\n".join(lines)


def _acceptance_spec(fixture: dict) -> AlgebraSpec:
    if fixture["name"] is None:
        return validate(AlgebraSpec(fixture["dim"], "real", {}))
    return example_algebra(fixture["name"], fixture.get("epsilon"))


_ACCEPTANCE_FIXTURES = {
    case["id"]: case["fixture"]
    for case in json.loads((pathlib.Path(__file__).parent / "data" / "acceptance_cases.json").read_text("utf-8"))["cases"]
}


class TestAgainstReference:
    def test_regex_classes_are_the_str_predicates(self):
        # the columns of a diagnostic are found with \S+ on tokens split by str.split(), and indices are tested
        # with str.isdecimal() where the reference used \d+: both pairs agree on every code point
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.sub(r"\S", "", every) == "".join(filter(str.isspace, every))
        assert "".join(re.findall(r"\d", every)) == "".join(filter(str.isdecimal, every))

    @pytest.mark.parametrize("case_id", list(_ACCEPTANCE_FIXTURES))
    def test_acceptance_fixtures(self, case_id):
        text = serialise(_acceptance_spec(_ACCEPTANCE_FIXTURES[case_id]))
        assert _outcome(parse, text)[0] == "spec"
        assert_parses_as_reference(text)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_planted_and_adversarial_instances(self, n):
        planted = planted_evolution_algebra(n, seed=n)[0]
        for spec in [planted, complexify(planted)] + [adversarial_instance(kind, n, seed=n) for kind in ADVERSARIAL_KINDS]:
            text = serialise(spec)
            assert _outcome(parse, text)[0] == "spec"
            assert_parses_as_reference(text)

    @given(st.one_of(_SCALAR, st.text(alphabet="0123456789+-.eEij_ \u0663\u00b2", max_size=8)))
    @settings(max_examples=300, deadline=None)
    def test_scalars(self, token):
        def outcome(parser):
            try:
                return np.array(parser(token)).tobytes()  # the bits, so that -0.0 and 0.0 differ
            except ValueError:
                return None

        assert outcome(parse_scalar) == outcome(reference_parse_scalar)

    @given(_algebra_text())
    @settings(max_examples=200, deadline=None)
    def test_generated_algebra_files(self, text):
        assert_parses_as_reference(text)

    @given(_matrix_text())
    @settings(max_examples=150, deadline=None)
    def test_generated_matrix_files(self, text):
        assert _outcome(parse_matrix, text) == _outcome(reference_parse_matrix, text), text

    def test_overflow_is_the_one_difference(self):
        text = "field: real\ndim: 2\nm 1 1 1 1e400\n"
        assert _outcome(parse, text) == ("error", ParseError, 3, 9, "value '1e400' overflows to infinity")
        assert _outcome(reference_parse, text) == (
            "error", ParseError, 1, 1, "constant at (1, 1, 1) is not finite: (inf+0j)")
        # in a matrix file an overflowing value still reads as inf, which verify rejects as a non-finite transform
        assert _outcome(parse_matrix, "1e400\n") == _outcome(reference_parse_matrix, "1e400\n")

