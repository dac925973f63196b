"""evoalg: decide whether a commutative algebra is an evolution algebra.

The question "does this algebra admit a basis in which all distinct-index
products vanish?" is equivalent to simultaneous diagonalisation via
congruence of its structure matrices.  This package implements that
reduction end to end: structure-constant modelling, pencil rank search,
similarity and congruence solvers, certificates and refutation witnesses,
built-in example algebras, a text file format and a CLI.
"""

from .algebra import (
    COMPLEX,
    REAL,
    AlgebraSpec,
    AlreadyComplex,
    EmptyAnnihilator,
    EmptyQuotient,
    MalformedSpec,
    adapt_basis_to_annihilator,
    annihilator_basis,
    change_basis,
    complexify,
    m_structure_matrices,
    multiply,
    quotient_by_annihilator,
    validate,
)
from .corpus import adversarial_instance, example_algebra, planted_evolution_algebra
from .decision import (
    COMPLEX_ONLY_UNDETERMINED,
    EVOLUTION,
    NOT_EVOLUTION,
    UNDETERMINED,
    Certificate,
    Verdict,
    check_certificate,
    explain,
    is_evolution_algebra,
)
from .fileformat import parse, serialise
from .numkernel import DEFAULT_TOL, ToleranceContext
from .pencil import PencilRankWitness, max_pencil_rank

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec",
    "ToleranceContext",
    "DEFAULT_TOL",
    "REAL",
    "COMPLEX",
    "EVOLUTION",
    "NOT_EVOLUTION",
    "COMPLEX_ONLY_UNDETERMINED",
    "UNDETERMINED",
    "Verdict",
    "Certificate",
    "PencilRankWitness",
    "MalformedSpec",
    "AlreadyComplex",
    "EmptyAnnihilator",
    "EmptyQuotient",
    "validate",
    "m_structure_matrices",
    "multiply",
    "change_basis",
    "annihilator_basis",
    "adapt_basis_to_annihilator",
    "complexify",
    "quotient_by_annihilator",
    "max_pencil_rank",
    "is_evolution_algebra",
    "check_certificate",
    "explain",
    "example_algebra",
    "planted_evolution_algebra",
    "adversarial_instance",
    "parse",
    "serialise",
]
