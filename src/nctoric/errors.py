"""Exception hierarchy shared by all nctoric modules.

Every domain error carries a stable machine-readable ``name`` so the CLI
can map it to an exit code and a diagnostic string.
"""

import sys


class NctoricError(Exception):
    """Base class for all domain errors, each named by its class."""

    name = "DomainError"

    def __init_subclass__(cls):
        cls.name = cls.__name__


class FieldMismatch(NctoricError):
    pass


class OutOfRange(NctoricError):
    @classmethod
    def digits(cls):  # for an int past the interpreter's int-to-text limit
        return cls(f"an output number has more than the interpreter's "
                   f"{sys.get_int_max_str_digits()}-digit limit for text")


class RationalInput(NctoricError):
    pass


class PoleAtInput(NctoricError):
    pass


class DivisionByZero(NctoricError):
    pass


class Unbounded(NctoricError):
    pass


class Empty(NctoricError):
    pass


class NotSimple(NctoricError):
    pass


class NotSimplicial(NctoricError):
    pass


class NonRational(NctoricError):
    pass


class IrrationalNormals(NctoricError):
    pass


class WrongDimension(NctoricError):
    pass


class DimensionMismatch(NctoricError):
    pass


class CodimensionOne(NctoricError):
    pass


class RankDeficient(NctoricError):
    pass


class DegenerateSystem(NctoricError):
    pass


class DegenerateFoliation(NctoricError):
    pass


class IrrationalWeights(NctoricError):
    pass


class NotNormalizable(NctoricError):
    pass


class PeriodNotFound(NctoricError):
    pass


class InvalidGroupoid(NctoricError):
    pass


class InvalidAlgebra(NctoricError):
    pass


class DegreeZero(NctoricError):
    pass


class ComplexTooLarge(NctoricError):
    pass


class LengthMismatch(NctoricError):
    pass


class TooManySubsets(NctoricError):
    pass


class ChainTooLong(NctoricError):
    pass


class InputError(NctoricError):
    pass


#: most characters of an offending input value that an error message quotes
_QUOTE_LIMIT = 100


def _quote(value) -> str:
    """repr(value) for an error message; past _QUOTE_LIMIT characters, its
    start and its length, so a huge input gives a short message."""
    text = repr(value)
    return text if len(text) <= _QUOTE_LIMIT else \
        f"{text[:_QUOTE_LIMIT]}... ({len(text)} characters)"


def _integer(name: str, x) -> int:
    """x, if it is an int (a bool is not), else InputError."""
    if type(x) is not int:
        raise InputError(f"{name} must be an integer, got {_quote(x)}")
    return x
