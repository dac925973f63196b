"""Text format for algebras and the matrix files used by certificate checks.

An algebra file is UTF-8 text:

    # comment lines start with '#'
    field: real            (or: complex)
    dim: 2
    labels: x, y           (optional)
    m 1 1 1 1.0            (m  i j k  value, 1-based, i <= j)
    m 1 2 2 0.5+0.5i

Unlisted entries are zero.  Values are decimals or ``a+bi`` / ``a-bi``.
Serialisation is canonical: header in fixed order, entries sorted
lexicographically by (i, j, k), shortest round-trip decimal rendering, so
``parse(serialise(spec)) == spec`` exactly and serialising a canonical file
reproduces it byte for byte.
"""

from __future__ import annotations

import re
from typing import Optional

import numpy as np

from . import algebra
from .algebra import COMPLEX, REAL, AlgebraSpec


class ParseError(ValueError):
    """Malformed input text, with a line/column diagnostic."""

    def __init__(self, line: int, column: int, reason: str):
        self.line = line
        self.column = column
        self.reason = reason
        super().__init__(f"line {line}, column {column}: {reason}")


class DuplicateEntry(ParseError):
    """The same (i, j, k) appears twice."""


class FieldMismatch(ParseError):
    """A complex value under ``field: real``."""


_FLOAT = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_UNSIGNED = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^(?P<re>{_FLOAT})(?P<sign>[+-])(?P<im>{_UNSIGNED})i$")
_REAL_RE = re.compile(rf"^{_FLOAT}$")


def parse_scalar(token: str) -> complex:
    """Parse a decimal or ``a+bi`` / ``a-bi`` token."""
    m = _COMPLEX_RE.match(token)
    if m:
        imag = float(m.group("im"))
        if m.group("sign") == "-":
            imag = -imag
        return complex(float(m.group("re")), imag)
    if _REAL_RE.match(token):
        return complex(float(token), 0.0)
    raise ValueError(f"not a scalar: {token!r}")


def format_scalar(z: complex) -> str:
    """Canonical shortest round-trip rendering; omits a zero imaginary part."""
    z = complex(z)
    re_part = repr(float(z.real))
    if z.imag == 0.0:
        return re_part
    sign = "+" if z.imag > 0 else "-"
    return f"{re_part}{sign}{repr(abs(float(z.imag)))}i"


def _tokens(line: str) -> list[tuple[str, int]]:
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


def parse(text: str) -> AlgebraSpec:
    """Parse an algebra file into a validated spec.

    Raises :class:`ParseError` (or the :class:`DuplicateEntry` /
    :class:`FieldMismatch` refinements) with a line/column diagnostic.
    """
    field: Optional[str] = None
    dim: Optional[int] = None
    labels: Optional[tuple[str, ...]] = None
    constants: dict[tuple[int, int, int], complex] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        toks = _tokens(line)
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
                value = parse_scalar(vtok)
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
        return algebra.validate(AlgebraSpec(dim, field, constants, labels))
    except algebra.MalformedSpec as exc:
        raise ParseError(1, 1, str(exc)) from exc


def serialise(spec: AlgebraSpec) -> str:
    """Canonical text rendering of a spec; inverse of :func:`parse`."""
    spec = algebra.validate(spec)
    lines = [f"field: {spec.field}", f"dim: {spec.dim}"]
    if spec.labels is not None:
        lines.append("labels: " + ", ".join(spec.labels))
    lines += (f"m {i} {j} {k} {format_scalar(v)}" for (i, j, k), v in spec.constants.items())  # in (i, j, k) order
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    """Parse a matrix file: one row per line, whitespace-separated scalars.

    '#' starts a comment.  All rows must have equal length.
    """
    rows: list[list[complex]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        row = []
        for tok, col in _tokens(line):
            try:
                row.append(parse_scalar(tok))
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


def format_matrix(m: np.ndarray) -> str:
    """Render a matrix in the format accepted by :func:`parse_matrix`."""
    a = np.asarray(m)
    return "\n".join(" ".join(format_scalar(a[i, j]) for j in range(a.shape[1])) for i in range(a.shape[0])) + "\n"
