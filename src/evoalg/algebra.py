"""Structure-constant model of a finite-dimensional commutative algebra.

An algebra over R or C is given by a basis ``e_1 .. e_n`` and the products
``e_i e_j = sum_k m_ijk e_k``.  Only entries with ``i <= j`` are stored, so a
non-commutative table is unrepresentable by construction.  The tensor is
repackaged as the n symmetric "structure matrices" ``M_k`` with
``(M_k)_{ij} = m_ijk``, held as one ``(n, n, n)`` array; the whole product is
then bilinear in coordinates: the k-th coordinate of ``a b`` is
``a^T M_k b``.

That array is the algebra.  A checked spec holds it, checked once, and its
``constants`` is a read-only view of it (``_TensorConstants``).  Any other
mapping of constants is checked in one pass over arrays (``_scatter``) that
reports the first offending entry in iteration order.  Public functions take
the tensor once on entry (``m_structure_matrices``) and work on the array.

A change of basis ``P`` takes the congruence transforms ``P^T M_k P`` and
re-coordinatises them through ``P^{-1}``: row ``l`` of ``P^{-1}`` gives the
new ``M_l`` as the pencil of the congruent stack at that row, so it is the
one contraction of the package, ``pencil.evaluate``.  The adapted basis of
the decision (branch "b.2") needs only the leading blocks, and its first
columns are standard vectors: it gathers those blocks from the tensor
exactly and contracts them with ``P^{-1}`` in the same way, so no ``n^4``
product is formed on the decision path.
"""

from __future__ import annotations

import cmath
import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import numkernel
from .numkernel import DEFAULT_TOL, DimensionMismatch, Singular, ToleranceContext
from .pencil import evaluate

REAL = "real"
COMPLEX = "complex"


class MalformedSpec(ValueError):
    """The structure-constant data is not a valid algebra description."""


class EmptyAnnihilator(ValueError):
    """The annihilator is zero; use the full-rank path instead."""


class EmptyQuotient(ValueError):
    """The annihilator is the whole algebra; the quotient would be 0-dimensional."""


class AlreadyComplex(ValueError):
    """Complexification of an algebra that is already complex."""


@dataclass(frozen=True)
class AlgebraSpec:
    """Dimension, scalar field, and sparse symmetric structure constants.

    ``constants`` maps ``(i, j, k)`` with 1-based indices and ``i <= j`` to the
    coefficient of ``e_k`` in ``e_i e_j``; missing entries are zero.  The entry
    for ``(j, i, k)`` is read as ``(i, j, k)``.  A checked spec (one returned by
    :func:`validate` or any other function of the package that returns a spec)
    is checked once: its ``constants`` is a read-only mapping over its structure
    tensor, with ``complex`` values, in sorted ``(i, j, k)`` order.
    """

    dim: int
    field: str
    constants: Mapping[tuple[int, int, int], complex]
    labels: Optional[tuple[str, ...]] = None


class _TensorConstants(Mapping):
    """The ``constants`` of a checked spec: a read-only mapping over its structure tensor.

    ``tensor`` is a read-only, C-ordered copy of the symmetric ``t`` given, in the
    field's dtype, with exact zeros stored as ``+0`` as a dict of the non-zero
    triples gives them back; that dict, in sorted ``(i, j, k)`` order, and ``narrowest`` are built on first read.
    """

    def __init__(self, t: np.ndarray, field: str):
        t = np.array(t, dtype=np.float64 if field == REAL else np.complex128, order="C")
        if not np.all(np.isfinite(t)):
            raise MalformedSpec("computed structure constants are not finite")
        t[t == 0] = 0
        t.flags.writeable = False
        self.tensor, self.field = t, field

    @cached_property
    def _dict(self) -> dict:
        rows, cols = np.triu_indices(len(self.tensor))
        upper = self.tensor[:, rows, cols].T  # one row per pair (i, j), in (i, j) order
        pair, k = np.nonzero(upper)
        keys = zip((rows[pair] + 1).tolist(), (cols[pair] + 1).tolist(), (k + 1).tolist())
        return dict(zip(keys, upper[pair, k].astype(np.complex128).tolist()))

    @cached_property
    def narrowest(self) -> np.ndarray:
        """``tensor``, or a read-only, C-ordered real copy of it when it is complex and every imaginary part is zero."""
        t = self.tensor
        return _TensorConstants(t.real, REAL).tensor if np.iscomplexobj(t) and not t.imag.any() else t

    def __getitem__(self, key):
        return self._dict[key]

    def __iter__(self):
        return iter(self._dict)

    def __len__(self) -> int:
        return len(self._dict)

    def __repr__(self) -> str:
        return repr(self._dict)

    def __reduce__(self):  # a copy is made through the constructor, so its tensor is read-only too
        return _TensorConstants, (self.tensor, self.field)


def _reject(key, value, n: int, real: bool) -> None:
    """Raise the :class:`MalformedSpec` of one constant, or return if the entry is valid."""
    try:
        i, j, k = map(int, key)
    except (TypeError, ValueError, OverflowError):
        raise MalformedSpec(f"constant key {key!r} is not an (i, j, k) index triple") from None
    if not (1 <= i <= j <= n and 1 <= k <= n):
        raise MalformedSpec(f"index triple {key!r} out of range for dimension {n} (need 1 <= i <= j <= n, 1 <= k <= n)")
    try:
        v = complex(value)
    except (TypeError, ValueError, OverflowError):
        raise MalformedSpec(f"constant at {key!r} does not convert to a complex number: {value!r}") from None
    if not cmath.isfinite(v):
        raise MalformedSpec(f"constant at {key!r} is not finite: {value!r}")
    if real and v.imag:
        raise MalformedSpec(f"constant at {key!r} has non-zero imaginary part under field: real")


def _scatter(constants: Mapping, n: int, real: bool) -> np.ndarray:
    """The structure tensor of a mapping of triples, checked in one pass over arrays.

    Keys are read into an array as by ``int()`` and values as by ``complex()``;
    the first offending entry in iteration order is reported by :func:`_reject`.
    Exact zeros are dropped and the rest is scattered into ``t[k] = M_k``.
    """
    m = len(constants)
    try:
        if not {3}.issuperset(map(len, constants)):
            raise ValueError("a key is not a triple")
        keys = np.fromiter(itertools.chain.from_iterable(constants), dtype=np.intp, count=3 * m).reshape(m, 3)
        values = np.fromiter(map(complex, constants.values()), dtype=np.complex128, count=m)
    except (TypeError, ValueError, OverflowError):
        # a key that is not a triple or int() cannot read, an index beyond
        # np.intp, or a value complex() cannot read: the loop finds the first
        for key, value in constants.items():
            _reject(key, value, n, real)
        raise
    i, j, k = keys.T
    bad = (i < 1) | (i > j) | (j > n) | (k < 1) | (k > n) | ~np.isfinite(values)
    if real:
        bad |= values.imag != 0
    if bad.any():
        _reject(*next(itertools.islice(constants.items(), int(bad.argmax()), None)), n, real)
    nonzero = values != 0
    values = values[nonzero].real if real else values[nonzero]
    t = np.zeros((n, n, n), dtype=values.dtype)
    i, j, k = (keys[nonzero] - 1).T
    # a triple given twice (say as (1, 2, 2) and (1.0, 2, 2)) keeps its last value, as in a dict
    t[k, i, j] = t[k, j, i] = values
    return t


def validate(spec: AlgebraSpec) -> AlgebraSpec:
    """Check a spec once and return it as a checked spec.

    Rejects non-finite constants, out-of-range or disordered indices,
    non-positive dimension, and labels that an algebra file cannot hold, so
    that ``parse(serialise(spec)) == spec``; drops exact zeros and coerces
    values to complex.
    Raises :class:`MalformedSpec` with the first offending entry in the
    message.  The result's ``constants`` is a read-only mapping in sorted
    ``(i, j, k)`` order; a checked spec keeps the tensor it holds.
    """
    n = spec.dim
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise MalformedSpec(f"dimension must be a positive integer, got {n!r}")
    if spec.field not in (REAL, COMPLEX):
        raise MalformedSpec(f"field must be 'real' or 'complex', got {spec.field!r}")
    constants = spec.constants
    if not (isinstance(constants, _TensorConstants) and constants.field == spec.field and len(constants.tensor) == n):
        constants = _TensorConstants(_scatter(constants, n, spec.field == REAL), spec.field)
    labels = spec.labels
    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise MalformedSpec(f"{len(labels)} labels for dimension {n}")
        for label in labels:
            if not label or label != label.strip() or "," in label or "#" in label or label.splitlines() != [label]:
                raise MalformedSpec(f"label {label!r} would not read back from an algebra file: a label is non-empty "
                                    "and holds no ',', '#', line break or leading or trailing whitespace")
    return AlgebraSpec(n, spec.field, constants, labels)


def m_structure_matrices(spec: AlgebraSpec) -> np.ndarray:
    """The structure tensor: a read-only ``(n, n, n)`` array ``t`` with ``t[k] = M_k``.

    ``(M_k)_{ij} = m_ijk``, checked by :func:`validate`; a checked spec gives
    the tensor it holds, so it is checked once.  Symmetry is exact by
    construction.  Real algebras yield float64, complex ones complex128.
    """
    return validate(spec).constants.tensor


def _recoordinatise(t: np.ndarray, pm: np.ndarray) -> np.ndarray:
    """Structure tensor in the basis given by the columns of ``pm``.

    The congruence transforms ``P^T M_k P`` are re-coordinatised through
    ``P^{-1}`` by :func:`pencil.evaluate`, then made symmetric.
    """
    total = evaluate(pm.T @ t @ pm, np.linalg.inv(pm))
    return (total + total.transpose(0, 2, 1)) / 2.0  # guard against round-off asymmetry


def multiply(spec: AlgebraSpec, a, b) -> np.ndarray:
    """Product of two elements given by coordinate vectors.

    The k-th output coordinate is ``a^T M_k b``.
    """
    t = m_structure_matrices(spec)
    x = np.asarray(a)
    y = np.asarray(b)
    if x.shape != (spec.dim,) or y.shape != (spec.dim,):
        raise DimensionMismatch(f"coordinate vectors must have length {spec.dim}, got {x.shape} and {y.shape}")
    return t @ y @ x


def change_basis(spec: AlgebraSpec, p, tol: ToleranceContext = DEFAULT_TOL) -> AlgebraSpec:
    """Re-express the algebra in the basis whose i-th vector is column i of ``p``.

    The new structure matrices are the congruence transforms ``P^T M_k P``
    re-coordinatised through ``P^{-1}``; products of elements commute with the
    coordinate change.  Raises :class:`Singular` for a rank-deficient ``p``.
    """
    t = m_structure_matrices(spec)
    n = spec.dim
    pm = np.asarray(p)
    if pm.shape != (n, n):
        raise DimensionMismatch(f"change of basis must be {n}x{n}, got {pm.shape}")
    if numkernel.rank(pm, tol) < n:
        raise Singular("change of basis matrix is singular under the rank tolerance")
    field = REAL if spec.field == REAL and not np.any(np.imag(pm)) else COMPLEX
    if field == REAL:
        pm = pm.real.astype(np.float64)
    return AlgebraSpec(n, field, _TensorConstants(_recoordinatise(t, pm), field))


def _annihilator(t: np.ndarray, tol: ToleranceContext) -> np.ndarray:
    return numkernel.kernel_basis(t.reshape(-1, len(t)), tol)


def annihilator_basis(spec: AlgebraSpec, tol: ToleranceContext = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the annihilator in coordinates.

    The annihilator is the common kernel of the structure matrices; it is
    computed from the stacked ``(n^2) x n`` matrix in a single kernel call.
    """
    return _annihilator(m_structure_matrices(spec), tol)


@dataclass(frozen=True)
class AdaptedBasis:
    """A basis listing the annihilator last, with the non-degenerate blocks.

    ``transform`` holds the new basis vectors as columns (annihilator columns
    last); in that basis every structure matrix is the direct sum of its
    leading ``(n - ann_dim)`` block and a zero block, and ``blocks`` is the
    ``(n, n - ann_dim, n - ann_dim)`` array of the n leading blocks.
    """

    transform: np.ndarray
    ann_dim: int
    blocks: np.ndarray


def _adapt(t: np.ndarray, ann: np.ndarray) -> AdaptedBasis:
    """Adapted basis for the structure tensor ``t`` with annihilator basis ``ann``.

    The first ``r = n - ann_dim`` columns of the transform ``P`` are the
    standard vectors ``e_i``, ``i`` in ``idx`` (from
    :func:`numkernel.complete_to_basis`), so the leading ``r x r`` block of
    ``P^T M_k P`` is ``M_k[idx][:, idx]`` exactly: each entry of the product
    is one product with 1 plus products with 0.  The blocks are gathered,
    not multiplied, and re-coordinatised through ``P^{-1}`` by
    :func:`pencil.evaluate`, whose complex loop skips the structural zeros of
    ``P^{-1}`` (a row has about ``ann_dim + 1`` non-zero entries).  The
    gathered blocks are exactly symmetric, and so is each sum of them, so no
    symmetrisation is needed.  The result is, bit for bit, the leading
    blocks of ``_recoordinatise(t, P)``, without forming its ``n^4`` product.
    """
    n = t.shape[0]
    a = ann.shape[1]
    if a == 0:
        raise EmptyAnnihilator("annihilator is zero; no adapted basis needed")
    indices = numkernel.complete_to_basis(ann)
    r = n - a
    transform = np.zeros((n, n), dtype=ann.dtype)
    transform[indices, range(r)] = 1.0
    transform[:, r:] = ann
    leading = t.take(indices, axis=1).take(indices, axis=2)
    return AdaptedBasis(transform, a, evaluate(leading, np.linalg.inv(transform)))


def _embed(adapted: AdaptedBasis, p_blocks: np.ndarray) -> np.ndarray:
    """The transform of the whole algebra from the transform ``p_blocks`` of the leading blocks.

    In the adapted basis, the leading blocks take ``p_blocks`` and the
    annihilator directions join the natural basis as they are; the result
    is that block-diagonal transform expressed in the input basis.
    """
    n, a = adapted.transform.shape[0], adapted.ann_dim
    r = n - a
    p_full = np.zeros((n, n), dtype=np.result_type(p_blocks.dtype, adapted.transform.dtype))
    p_full[:r, :r] = p_blocks
    p_full[r:, r:] = np.eye(a)
    return adapted.transform @ p_full


def adapt_basis_to_annihilator(spec: AlgebraSpec, tol: ToleranceContext = DEFAULT_TOL) -> AdaptedBasis:
    """Build a basis with the annihilator last and extract the leading blocks.

    The annihilator basis is completed to a full basis by greedy selection of
    standard basis vectors (largest residual first), which keeps the transform
    deterministic and well conditioned.  Raises :class:`EmptyAnnihilator` when
    the annihilator is zero.
    """
    t = m_structure_matrices(spec)
    return _adapt(t, _annihilator(t, tol))


def complexify(spec: AlgebraSpec) -> AlgebraSpec:
    """The same structure constants regarded over the complex field.

    Any basis of the real algebra is a basis of its complexification, so the
    structure tensor is unchanged, now held as complex.
    """
    spec = validate(spec)
    if spec.field == COMPLEX:
        raise AlreadyComplex("algebra is already complex")
    return AlgebraSpec(spec.dim, COMPLEX, _TensorConstants(spec.constants.tensor, COMPLEX), spec.labels)


def quotient_by_annihilator(spec: AlgebraSpec, tol: ToleranceContext = DEFAULT_TOL) -> AlgebraSpec:
    """Quotient algebra by the annihilator, in the adapted basis.

    Its structure matrices are exactly the first ``r`` leading blocks of the
    adapted basis, where ``r = n - ann_dim``.
    """
    adapted = adapt_basis_to_annihilator(spec, tol)
    r = spec.dim - adapted.ann_dim
    if r == 0:
        raise EmptyQuotient("annihilator is the whole algebra; quotient is 0-dimensional")
    return AlgebraSpec(r, spec.field, _TensorConstants(adapted.blocks[:r], spec.field))
