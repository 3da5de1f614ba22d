"""liecx: exact classification, construction, and verification of invariant
integrable complex structures on quotients g/h of compact Lie algebras."""

from .exact import (
    GQ, ZERO, ONE, I, Vec, Matrix, Subspace,
    ExactError, DimensionMismatch, AmbientMismatch, IrrationalSpectrum,
    rref, kernel, solve, inverse, charpoly, rational_eigenvalues, vec,
    parse_rational,
)
from .liealg import (
    LieAlgebra, Subalgebra, Quotient, quotient,
    centralizer, normalizer, derived, center, own_algebra, radical,
    is_solvable, is_nilpotent, extend_to_maximal_abelian,
    LieAlgebraError, NotClosed, NotAbelian,
)
from .catalog import (
    AlgebraSpec, su, so, u, torus, direct_sum, build, build_subalgebra,
    InvalidSpec,
)
from .roots import (
    Root, RootDatum, Parabolic, root_decomposition,
    enumerate_positive_systems, build_parabolic,
    killing_perp_nilradical,
    RootError, NotCartan, LeviMismatch, ClosureFailure,
)
from .cx import (
    ComplexStructure, TorusComplexStructure, MData, ClassificationReport,
    LedgerEntry, SymmetricVerdict,
    nijenhuis, is_invariant, is_integrable, plus_space, compute_m,
    construct_J, decompose_J, classify, verify_structure, is_symmetric_pair,
    default_torus_structure,
    NotInvariant, OddFiber, TheoremViolation,
)

__version__ = "0.1.0"
