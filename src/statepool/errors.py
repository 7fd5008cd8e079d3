"""Exception types shared across the toolkit.

All domain errors subclass ValueError so callers that do not care about
the distinction can catch a single type.
"""


class StatePoolError(ValueError):
    """Base class for all domain errors raised by this package."""

    def payload(self) -> dict:
        """The machine-readable report of this error: its class name and message."""
        return {"error": type(self).__name__, "message": str(self)}


class InvalidParameterError(StatePoolError):
    """A size, strength or option argument is outside its documented range."""


class MalformedInputError(InvalidParameterError):
    """The input JSON does not match the expected schema."""


class DimensionMismatchError(StatePoolError):
    """Operands act on incompatible spaces."""


class NotPSDError(StatePoolError):
    """A state the library computed, a pooled state, is not positive semidefinite.
    A non-PSD input is InvalidParameterError."""


class ImpossibleConditioningError(StatePoolError):
    """Conditioning on an event/outcome with zero probability or support."""


class IncompatibleAssignmentsError(StatePoolError):
    """The two agents' state assignments have disjoint supports."""


class PriorSupportError(StatePoolError):
    """The posteriors' common support escapes the support of the prior."""


class NonHermitianPoolingProductError(StatePoolError):
    """The pooling product s1 @ pinv(prior) @ s2 failed the Hermiticity check.

    Signals that the conditional-independence precondition of the pooling
    formula does not hold for these inputs.
    """

    def __init__(self, residual):
        self.residual = float(residual)
        super().__init__(f"non-Hermitian pooling product (relative residual {residual:.3e})")

    def payload(self) -> dict:
        return super().payload() | {"residual": self.residual}
