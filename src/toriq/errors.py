"""Exception hierarchy shared by all toriq modules."""


class ToriqError(Exception):
    """Base class for all library errors."""


class NotSquare(ToriqError):
    pass


class RankDeficient(ToriqError):
    pass


class NonIntegerQuotient(ToriqError):
    pass


class NotFullDimensional(ToriqError):
    pass


class OriginNotInterior(ToriqError):
    pass


class DegenerateCone(ToriqError):
    pass


class NotFMatrix(ToriqError):
    pass


class OutsideMoving(ToriqError):
    pass


class InvalidFan(ToriqError):
    pass


class NotFanoWeight(ToriqError):
    pass


class NotReflexive(ToriqError):
    pass


class NonIntegralFactor(ToriqError):
    """A covering index failed to divide the quotient's index (invariant violation)."""


class InconsistentAction(ToriqError):
    """A finite quotient produced a cokernel that differs from the acting subgroup."""


class NotConverged(ToriqError):
    """An iterative reduction exceeded its round limit."""


class TooLarge(ToriqError):
    pass


class OutOfDomain(ToriqError):
    pass


class InvalidInput(ToriqError):
    """Schema violation in a CLI input document."""
