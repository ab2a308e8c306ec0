"""Exception hierarchy shared across the package."""


class MTLabError(Exception):
    """Base class for all package errors."""


class ReduciblePolynomial(MTLabError):
    """A defining polynomial factored over the rationals."""


class PrecisionTooLow(MTLabError):
    """The p-adic factorization cannot be resolved at the requested precision."""


class PrecisionExhausted(MTLabError):
    """A quantity vanishes to the working precision and cannot be certified."""


class NegativeValuation(MTLabError):
    """Reduction was requested for an element that is not integral."""


class InvalidOperator(MTLabError):
    """A Hecke-type operator is not defined at this level."""


class OutOfBudget(MTLabError):
    """A computation exceeds the configured size cap."""


class SplittingFailure(MTLabError):
    """No configured Hecke combination has squarefree characteristic polynomial."""


class WeightNotCongruent(MTLabError):
    """The weight-lowering map requires k - 2 > 0 divisible by p - 1."""


class NotOrdinary(MTLabError):
    """p-stabilization requires a unit Hecke eigenvalue at p."""


class EmbeddingAmbiguity(MTLabError):
    """Several inequivalent residue-field embeddings align the checked data."""


class NotInSpan(MTLabError):
    """A reduced symbol does not lie in the expected degeneracy span."""

    def __init__(self, message, span_dimension=None):
        super().__init__(message)
        self.span_dimension = span_dimension
