import sys
from pathlib import Path

import numpy as np
import pytest

from evoalg import (
    DEFAULT_TOL,
    AlgebraSpec,
    adapt_basis_to_annihilator,
    annihilator_basis,
    example_algebra,
    m_structure_matrices,
    max_pencil_rank,
    numkernel,
    validate,
)
from evoalg.pencil import evaluate
from evoalg.sds import NonDiagonalisable

# the corpus builders of tools/probe.py, imported by the tests as `from probe import ...`
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))


def assert_parallel(u, v, tol=1e-6):
    """Assert two vectors span the same line (up to scale and phase)."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    assert nu > 0 and nv > 0
    cos = abs(np.vdot(u, v)) / (nu * nv)
    assert np.sqrt(max(0.0, 2.0 - 2.0 * cos)) <= tol, f"vectors not parallel: {u} vs {v}"


def columns_match_up_to_scale(p, expected_columns, tol=1e-6):
    """Each expected column is parallel to exactly one column of p, and vice versa."""
    p = np.asarray(p)
    n = p.shape[1]
    assert len(expected_columns) == n
    used = set()
    for want in expected_columns:
        hit = None
        for j in range(n):
            if j in used:
                continue
            w = np.asarray(want, dtype=complex)
            c = p[:, j].astype(complex)
            cos = abs(np.vdot(w, c)) / (np.linalg.norm(w) * np.linalg.norm(c))
            if np.sqrt(max(0.0, 2.0 - 2.0 * cos)) <= tol:
                hit = j
                break
        assert hit is not None, f"no column of {p} matches {want}"
        used.add(hit)


def subnormal_tetraploid():
    """tetraploid at eps = 0.1 with every constant multiplied by 1e-310; finite, so validate accepts it."""
    spec = example_algebra("tetraploid", 0.1)
    return validate(AlgebraSpec(spec.dim, spec.field, {k: v * 1e-310 for k, v in spec.constants.items()}))


def similarity_family(spec, tol=DEFAULT_TOL):
    """``(lambda0, [W^{-1} M_k])`` of the stack the decision solves, or ``None`` when its pencil tops out below full rank.

    The stack is the structure tensor, or its leading blocks when the
    annihilator is non-zero; ``W = M(lambda0)`` at the point of the pencil
    search, taken at ``Re lambda0`` for a real stack.
    """
    annihilated = annihilator_basis(spec, tol).shape[1] > 0
    stack = list(adapt_basis_to_annihilator(spec, tol).blocks if annihilated else m_structure_matrices(spec))
    point = max_pencil_rank(stack, tol)
    if point.r0 < stack[0].shape[0]:
        return None
    w_inv = np.linalg.inv(evaluate(stack, point.lambda0 if np.iscomplexobj(stack[0]) else point.lambda0.real))
    return point.lambda0, [w_inv @ m for m in stack]


def reference_defect_scan(mats, tol=DEFAULT_TOL):
    """The defect scan that once followed the commutators of ``sds._witness``: a defect check per
    matrix in ascending index, the first defective matrix as the witness, else ``None``."""
    identity = np.eye(np.shape(mats)[-1])
    for idx, m in enumerate(mats):
        if np.array_equal(m, identity):
            continue  # the exact identity is never defective
        defect = numkernel.eigen_structure(m, tol).defective_cluster()
        if defect is not None:
            return NonDiagonalisable(idx + 1, defect.eigenvalue)
    return None


@pytest.fixture
def mendel0_mats():
    return m_structure_matrices(example_algebra("mendel", 0.0))


@pytest.fixture
def tetraploid0_mats():
    return m_structure_matrices(example_algebra("tetraploid", 0.0))
