"""Exception hierarchy, record base and invariant check shared by all toriq modules."""

from operator import attrgetter


class Record:
    """Base of the immutable value types: the fields are the annotations, in order, with
    defaults as class attributes; equal only within one class, hashed by the field tuple."""

    def __init_subclass__(cls):
        cls._fields = fields = tuple(cls.__annotations__)
        get = attrgetter(*fields)  # the field tuple in one call (the bare value for one field)
        cls._key = staticmethod(get if len(fields) > 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            fields, defaults, rest = self._fields, vars(type(self)), set(self._fields[len(args):])
            if len(args) > len(fields) or not kwargs.keys() <= rest or not rest - kwargs.keys() <= defaults.keys():
                raise TypeError(f"{type(self).__name__}() got an unexpected, repeated or missing argument")
            args += tuple(kwargs[f] if f in kwargs else defaults[f] for f in fields[len(args):])
        for name, value in zip(self._fields, args):  # not via __dict__, which makes every read slower
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return self._key(self) == self._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


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


class InvariantViolation(ToriqError):
    """An identity that the theory guarantees failed on computed values: a library fault."""


def check(cond, name: str) -> None:
    """Raise InvariantViolation(name) unless cond holds; unlike assert, it also runs under python -O."""
    if not cond:
        raise InvariantViolation(name)


class InconsistentAction(ToriqError):
    """A torsion action that does not fit the acting subgroup: another group, or not onto."""


class NotConverged(ToriqError):
    """An iterative reduction exceeded its round limit."""


class TooLarge(ToriqError):
    pass


class OutOfDomain(ToriqError):
    pass


class InvalidInput(ToriqError):
    """Schema violation in a CLI input document."""
