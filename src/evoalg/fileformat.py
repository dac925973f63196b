"""Text format for algebras and the matrix files used by certificate checks.

An algebra file is UTF-8 text:

    # comment lines start with '#'
    field: real            (or: complex)
    dim: 2
    labels: x, y           (optional)
    m 1 1 1 1.0            (m  i j k  value, 1-based, i <= j)
    m 1 2 2 0.5+0.5i

Tokens are split at any Unicode whitespace (``str.split()``); indices and
``dim`` are decimal digits (``str.isdecimal()``); values are decimals such as
``-1``, ``.5``, ``2.5E-3`` or ``a+bi`` / ``a-bi``, and one that overflows to
infinity is rejected.  Every error is a :class:`ParseError` at a line and
column.  Unlisted entries are zero.  Serialisation is canonical: header in
fixed order, entries sorted by (i, j, k), shortest round-trip decimals, so
``parse(serialise(spec)) == spec`` exactly and serialising a canonical file
reproduces it byte for byte.
"""

from __future__ import annotations

import cmath
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
    if _REAL_RE.match(token):  # no token matches both patterns, so the common case costs one match
        return complex(token)
    m = _COMPLEX_RE.match(token)
    if m:
        imag = float(m.group("im"))
        if m.group("sign") == "-":
            imag = -imag
        return complex(float(m.group("re")), imag)
    raise ValueError(f"not a scalar: {token!r}")


def format_scalar(z: complex) -> str:
    """Canonical shortest round-trip rendering; omits a zero imaginary part."""
    z = complex(z)
    re_part = repr(float(z.real))
    if z.imag == 0.0:
        return re_part
    sign = "+" if z.imag > 0 else "-"
    return f"{re_part}{sign}{repr(abs(float(z.imag)))}i"


def _column(line: str, index: int) -> int:
    """The 1-based column of token ``index`` of ``line.split()``, worked out for a diagnostic only."""
    return [m.start() + 1 for m in re.finditer(r"\S+", line)][index]  # \S fails exactly where str.isspace() holds


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
        toks = line.split()
        if not toks:
            continue
        head = toks[0]

        if head == "m":  # nearly every line is an entry
            if dim is None:
                raise ParseError(lineno, _column(line, 0), "'dim:' must appear before entries")
            if field is None:
                raise ParseError(lineno, _column(line, 0), "'field:' must appear before entries")
            if len(toks) != 5:
                raise ParseError(lineno, _column(line, 0), "expected 'm i j k value'")
            for t in (1, 2, 3):
                if not toks[t].isdecimal():
                    raise ParseError(lineno, _column(line, t), f"index {toks[t]!r} is not a positive integer")
            i, j, k = int(toks[1]), int(toks[2]), int(toks[3])
            if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
                raise ParseError(lineno, _column(line, 1), f"index out of range for dim {dim}: ({i}, {j}, {k})")
            if i > j:
                raise ParseError(lineno, _column(line, 1), f"i > j is not stored; store i <= j (write 'm {j} {i} {k} ...')")
            vtok = toks[4]
            try:
                value = parse_scalar(vtok)
            except ValueError:
                raise ParseError(lineno, _column(line, 4), f"bad scalar {vtok!r}; use a decimal or a+bi / a-bi") from None
            if field == REAL and value.imag != 0.0:
                raise FieldMismatch(lineno, _column(line, 4), f"complex value {vtok!r} under field: real")
            if (i, j, k) in constants:
                raise DuplicateEntry(lineno, _column(line, 1), f"entry ({i}, {j}, {k}) appears twice")
            if not cmath.isfinite(value):
                raise ParseError(lineno, _column(line, 4), f"value {vtok!r} overflows to infinity")
            constants[(i, j, k)] = value
        elif head == "field:":
            if len(toks) != 2 or toks[1] not in (REAL, COMPLEX):
                raise ParseError(lineno, _column(line, 0), "expected 'field: real' or 'field: complex'")
            field = toks[1]
        elif head == "dim:":
            if len(toks) != 2 or not toks[1].isdecimal() or int(toks[1]) < 1:
                raise ParseError(lineno, _column(line, 0), "expected 'dim: n' with a positive integer n")
            dim = int(toks[1])
        elif head == "labels:":
            names = [x.strip() for x in line.split(":", 1)[1].split(",")]
            if any(not x for x in names):
                raise ParseError(lineno, _column(line, 0), "empty label")
            labels = tuple(names)
        else:
            raise ParseError(lineno, _column(line, 0), f"unrecognised directive {head!r}")

    if field is None:
        raise ParseError(1, 1, "missing 'field:' header")
    if dim is None:
        raise ParseError(1, 1, "missing 'dim:' header")
    try:
        return algebra.validate(AlgebraSpec(dim, field, constants, labels))
    except algebra.MalformedSpec as exc:
        raise ParseError(1, 1, str(exc)) from exc
    except MemoryError as exc:  # numpy refuses at once a tensor it cannot allocate, as for dim: 1000000
        raise ParseError(1, 1, f"dim {dim} is too large: {exc}") from None


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
        toks = line.split()
        if not toks:
            continue
        row = []
        for t, tok in enumerate(toks):
            try:
                row.append(parse_scalar(tok))
            except ValueError:
                raise ParseError(lineno, _column(line, t), f"bad scalar {tok!r}") from None
        if rows and len(row) != len(rows[0]):
            raise ParseError(lineno, 1, f"row has {len(row)} entries, expected {len(rows[0])}")
        rows.append(row)
    if not rows:
        raise ParseError(1, 1, "empty matrix")
    m = np.array(rows, dtype=np.complex128)
    return m.real if np.all(m.imag == 0) else m


def format_matrix(m: np.ndarray) -> str:
    """Render a matrix in the format accepted by :func:`parse_matrix`."""
    a = np.asarray(m)
    return "\n".join(" ".join(format_scalar(a[i, j]) for j in range(a.shape[1])) for i in range(a.shape[0])) + "\n"
