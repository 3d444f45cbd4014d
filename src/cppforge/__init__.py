"""cppforge: r-regular permutation and complete permutation polynomial
constructions over extension fields, with exhaustive desk-scale verification.

The package is organized around dense tables on F_q^d: `gf` provides the
field arithmetic, `poly` / `linalg` the exact polynomial and matrix layers
(cyclotomic polynomials, companion matrices, characteristic
polynomials), `perm` the table operations (composition, cycle structure,
regularity, CPP tests), `fieldext` the dual-basis bridge between F_q^d and
F_{q^d}, `construct` the named constructions, and `verify` the claim-level
brute-force harness behind the `cppforge` CLI.
"""

from .errors import (
    CharacteristicDividesN,
    CharacteristicDividesR,
    CppforgeError,
    CtxMismatch,
    DegreeMismatch,
    DependentBasis,
    DimMismatch,
    DivisionByZero,
    HypothesisViolated,
    InvalidSpec,
    NotASubfieldRelation,
    NotBijective,
    NotMonic,
    NotPrime,
    ReducibleModulus,
    Singular,
    SizeCap,
    UnknownClaim,
)
from .gf import FieldCtx, field_from_order, field_new, parse_field_spec, trace
from .poly import Poly, cyclotomic, divides, gcd, irreducible_factors
from .linalg import Mat, char_poly, companion, eval_poly_at_matrix
from .perm import CycleStructure, PermTable
from .fieldext import BasisPair, default_basis, make_basis, to_univariate
from .construct import (
    ConstructionSpec,
    TauSpec,
    build,
    named_construction,
    pick_h,
    random_additive_pp,
    tau_to_table,
)
from .verify import VerificationReport, claims, verify_all, verify_claim

__version__ = "0.1.0"
