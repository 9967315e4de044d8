"""Exception types shared across the package."""


class GriforgeError(Exception):
    """Base class for all griforge errors."""


class ModulusMismatch(GriforgeError):
    """Operands live modulo different prime powers."""


class NotAUnit(GriforgeError):
    """Inversion was asked of an element divisible by p."""


class NotIrreducible(GriforgeError):
    """A defining polynomial is reducible modulo p."""


class DegreeMismatch(GriforgeError):
    """Polynomials or components have incompatible degrees."""


class NoRoot(GriforgeError):
    """Root finding was called outside its contract."""


class NotARootModP(GriforgeError):
    """Lifting start value does not reduce to a root."""


class NotASimpleRoot(GriforgeError):
    """Lifting start value is a multiple root modulo p."""


class ParamMismatch(GriforgeError):
    """Ring presentations do not share (p, s, n)."""


class CtxMismatch(GriforgeError):
    """Elements belong to different ring presentations."""


class InvalidIsomorphism(GriforgeError):
    """A claimed image of x is not a root of the source polynomial."""


class BetaOutOfRange(GriforgeError):
    """Sampler bound outside 1 <= beta < p^s/2."""


class BetaTooLarge(GriforgeError):
    """Reduction modulo p needs beta < p/2."""


class ModuliNotCoprime(GriforgeError):
    """CRT composition needs pairwise coprime moduli."""


class BadDelta(GriforgeError):
    """Lattice reduction parameter outside (1/4, 1)."""


class ValidationError(GriforgeError):
    """A serialized file failed validation on load."""


class InvariantBreach(GriforgeError):
    """An internal self-check failed; the output would be wrong."""
