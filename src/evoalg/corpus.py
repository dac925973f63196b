"""Built-in example algebras and randomized instance generators.

The named examples are classical 2- and 3-dimensional gametic algebras from
the genetics literature (simple Mendelian and auto-tetraploid inheritance)
together with their one-parameter deformations, plus a small algebra with a
one-dimensional annihilator whose quotient behaves differently from the
algebra itself.  The generators produce planted positive instances (evolution
algebras by construction) and adversarial instances with a known refutation
kind, which the test suite uses as oracles.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import algebra
from .algebra import REAL, AlgebraSpec


class OutOfRangeEpsilon(ValueError):
    """The deformation parameter lies outside the documented range."""


EXAMPLE_NAMES = ("simple2d", "nota2", "mendel", "mendel3d_ann", "tetraploid")

# documented parameter ranges; 0 is the undeformed classical algebra
_EPSILON_RANGES = {
    "mendel": (0.0, 1.0),
    "mendel3d_ann": (0.0, 1.0),
    "tetraploid": (0.0, 2.0 / 9.0),
}

ADVERSARIAL_KINDS = ("defective", "noncommuting", "ann_mismatch")


def example_algebra(name: str, epsilon: Optional[float] = None) -> AlgebraSpec:
    """Return a named example algebra, deformed by ``epsilon`` where applicable.

    ``epsilon`` defaults to 0 for the parametric families and must stay inside
    the documented range, that of the genetic interpretation.
    """
    if name not in EXAMPLE_NAMES:
        raise KeyError(f"unknown example {name!r}; choose from {', '.join(EXAMPLE_NAMES)}")
    if name in _EPSILON_RANGES:
        eps = 0.0 if epsilon is None else float(epsilon)
        lo, hi = _EPSILON_RANGES[name]
        if not lo <= eps <= hi:
            raise OutOfRangeEpsilon(f"{name} expects epsilon in [{lo:g}, {hi:g}], got {eps:g}")
    elif epsilon is not None:
        raise OutOfRangeEpsilon(f"{name} takes no epsilon parameter")

    if name == "simple2d":
        # e1^2 = e1, e1 e2 = e2, e2^2 = e1
        constants = {(1, 1, 1): 1.0, (1, 2, 2): 1.0, (2, 2, 1): 1.0}
        return algebra.validate(AlgebraSpec(2, REAL, constants))

    if name == "nota2":
        # e1^2 = e1 + e3, e2^2 = e1 - e3, e1 e2 = e2, e3 annihilates everything
        constants = {
            (1, 1, 1): 1.0,
            (1, 1, 3): 1.0,
            (2, 2, 1): 1.0,
            (2, 2, 3): -1.0,
            (1, 2, 2): 1.0,
        }
        return algebra.validate(AlgebraSpec(3, REAL, constants))

    if name == "mendel":
        # e1^2 = (1-eps) e1 + eps e2, e1 e2 = (e1 + e2)/2, e2^2 = e2
        constants = {
            (1, 1, 1): 1.0 - eps,
            (1, 1, 2): eps,
            (1, 2, 1): 0.5,
            (1, 2, 2): 0.5,
            (2, 2, 2): 1.0,
        }
        return algebra.validate(AlgebraSpec(2, REAL, constants))

    if name == "mendel3d_ann":
        # the Mendelian deformation padded with an annihilator direction e3;
        # the e3 coordinate of every product is minus its e2 coordinate
        mendel = example_algebra("mendel", eps).constants
        constants = {**mendel, **{(i, j, 3): -v for (i, j, k), v in mendel.items() if k == 2}}
        return algebra.validate(AlgebraSpec(3, REAL, constants))

    # tetraploid:
    # e1^2 = e1 + 2 eps (e1 + 4 e2)
    # e2^2 = (e1 + 4 e2 + e3)/6 - eps (3 e2 - 13 e3)
    # e3^2 = (1 + 10 eps) e3
    # e1 e2 = (e1 + e2)/2 + 10 eps e3
    # e1 e3 = (e1 + 4 e2 + e3)/6 + 10 eps e3
    # e2 e3 = (e2 + e3)/2 + 10 eps e3
    constants = {
        (1, 1, 1): 1.0 + 2.0 * eps,
        (1, 1, 2): 8.0 * eps,
        (2, 2, 1): 1.0 / 6.0,
        (2, 2, 2): 2.0 / 3.0 - 3.0 * eps,
        (2, 2, 3): 1.0 / 6.0 + 13.0 * eps,
        (3, 3, 3): 1.0 + 10.0 * eps,
        (1, 2, 1): 0.5,
        (1, 2, 2): 0.5,
        (1, 2, 3): 10.0 * eps,
        (1, 3, 1): 1.0 / 6.0,
        (1, 3, 2): 2.0 / 3.0,
        (1, 3, 3): 1.0 / 6.0 + 10.0 * eps,
        (2, 3, 2): 0.5,
        (2, 3, 3): 0.5 + 10.0 * eps,
    }
    return algebra.validate(AlgebraSpec(3, REAL, constants))


def well_conditioned_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random invertible real matrix with condition number at most ``1e4``."""
    while True:
        p = rng.uniform(-1.0, 1.0, size=(n, n))
        if np.linalg.cond(p) <= 1e4:
            return p


def planted_evolution_algebra(n: int, density: float = 0.7, seed: int = 0) -> tuple[AlgebraSpec, np.ndarray]:
    """Random algebra that is an evolution algebra by construction.

    Draws the squares of a natural basis as random coordinate tuples (a row
    is zeroed with probability 0.2, planting annihilator directions) and
    scrambles the natural form through a random well-conditioned change of
    basis.  Returns the spec together with the planted transform; any valid
    certificate is acceptable, not just the planted one.  Raises
    :class:`ValueError` unless ``n >= 1`` and ``0 <= density <= 1``.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density!r}")
    rng = np.random.default_rng([seed, n])
    t = np.zeros((n, n, n))
    for i in range(n):
        if density > 0 and rng.random() < 0.2:
            continue  # nilpotent natural generator
        mask = rng.random(n) < density
        values = rng.uniform(0.5, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        t[:, i, i] = np.where(mask, values, 0.0)  # e_i^2 = sum_k t[k, i, i] e_k
    natural = AlgebraSpec(n, REAL, algebra._TensorConstants(t, REAL))
    p = well_conditioned_matrix(n, rng)
    return algebra.change_basis(natural, p), p


def adversarial_instance(kind: str, n: int, seed: Optional[int] = None) -> AlgebraSpec:
    """Instance whose decision is expected to fail with the named refutation kind.

    * ``defective``: a Mendelian-type defective pair padded with idempotent
      directions; for n = 2 without a seed this is exactly ``mendel(0)``.
    * ``noncommuting``: the annihilator example padded with idempotents; for
      n = 3 without a seed this is exactly ``nota2``.
    * ``ann_mismatch``: a left-identity arrowhead pattern whose pencil rank
      stays at 2 while the common kernel is zero; needs n >= 3 (for n = 2 a
      zero common kernel already forces a full-rank pencil point).

    Without a seed the canonical embedding is returned; with a seed the
    instance is scrambled by a random well-conditioned change of basis, which
    preserves both the verdict and the refutation kind.
    """
    if kind not in ADVERSARIAL_KINDS:
        raise KeyError(f"unknown adversarial kind {kind!r}; choose from {', '.join(ADVERSARIAL_KINDS)}")
    if n < 2:
        raise ValueError(f"adversarial instances need n >= 2, got {n}")

    if kind == "noncommuting" and n < 3:
        raise ValueError("noncommuting instances need n >= 3")
    if kind == "ann_mismatch" and n < 3:
        raise ValueError("ann_mismatch instances need n >= 3: with a zero common kernel "
                         "a 2-dimensional pencil always reaches full rank")

    t = np.zeros((n, n, n))
    if kind == "ann_mismatch":
        t[:, 0, :] = t[:, :, 0] = np.eye(n)  # e_1 e_k = e_k for every k
    else:
        base = algebra.m_structure_matrices(example_algebra("mendel" if kind == "defective" else "nota2"))
        b = len(base)
        t[:b, :b, :b] = base
        pad = np.arange(b, n)
        t[pad, pad, pad] = 1.0  # idempotents e_i^2 = e_i after the base algebra
    spec = AlgebraSpec(n, REAL, algebra._TensorConstants(t, REAL))
    if seed is None:
        return spec
    rng = np.random.default_rng([seed, n, ADVERSARIAL_KINDS.index(kind)])
    return algebra.change_basis(spec, well_conditioned_matrix(n, rng))
