"""Exception types shared across the library."""


class CppforgeError(Exception):
    """Base class for every error raised by this package."""


class NotPrime(CppforgeError):
    """Field characteristic is not a prime number."""


class ReducibleModulus(CppforgeError):
    """Supplied extension modulus is not irreducible."""


class DegreeMismatch(CppforgeError):
    """Supplied modulus degree disagrees with the extension degree."""


class CtxMismatch(CppforgeError):
    """Operands belong to different field contexts."""


class DivisionByZero(CppforgeError, ZeroDivisionError):
    """Inversion or division by the zero element / zero polynomial."""


class NotASubfieldRelation(CppforgeError):
    """The two contexts are not in a subfield relation."""


class CharacteristicDividesN(CppforgeError):
    """Cyclotomic index shares a factor with the field characteristic."""


class CharacteristicDividesR(CppforgeError):
    """Cycle length target shares a factor with the field characteristic."""


class DimMismatch(CppforgeError):
    """Matrix or vector dimensions do not agree."""


class Singular(CppforgeError):
    """Matrix has zero determinant, no inverse exists."""


class NotMonic(CppforgeError):
    """Polynomial was required to be monic."""


class NotBijective(CppforgeError):
    """Operation requires a bijective table."""


class DependentBasis(CppforgeError):
    """Candidate basis vectors are linearly dependent."""


class SizeCap(CppforgeError):
    """Requested object exceeds the hard size cap."""


class InvalidSpec(CppforgeError, ValueError):
    """Malformed field spec, cyclotomic index, coordinate map or construction."""


class HypothesisViolated(CppforgeError):
    """Named construction invoked with parameters outside its hypotheses."""


class UnknownClaim(CppforgeError):
    """Claim id is not registered with the verification harness."""
