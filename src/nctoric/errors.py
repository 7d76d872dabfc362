"""Exception hierarchy shared by all nctoric modules.

Every domain error carries a stable machine-readable ``name`` so the CLI
can map it to an exit code and a diagnostic string.
"""

import sys


class NctoricError(Exception):
    """Base class for all domain errors."""

    name = "DomainError"


class FieldMismatch(NctoricError):
    name = "FieldMismatch"


class OutOfRange(NctoricError):
    name = "OutOfRange"

    @classmethod
    def digits(cls):  # for an int past the interpreter's int-to-text limit
        return cls(f"an output number has more than the interpreter's "
                   f"{sys.get_int_max_str_digits()}-digit limit for text")


class RationalInput(NctoricError):
    name = "RationalInput"


class PoleAtInput(NctoricError):
    name = "PoleAtInput"


class DivisionByZero(NctoricError):
    name = "DivisionByZero"


class Unbounded(NctoricError):
    name = "Unbounded"


class Empty(NctoricError):
    name = "Empty"


class NotSimple(NctoricError):
    name = "NotSimple"


class NotSimplicial(NctoricError):
    name = "NotSimplicial"


class NonRational(NctoricError):
    name = "NonRational"


class IrrationalNormals(NctoricError):
    name = "IrrationalNormals"


class WrongDimension(NctoricError):
    name = "WrongDimension"


class DimensionMismatch(NctoricError):
    name = "DimensionMismatch"


class CodimensionOne(NctoricError):
    name = "CodimensionOne"


class RankDeficient(NctoricError):
    name = "RankDeficient"


class DegenerateSystem(NctoricError):
    name = "DegenerateSystem"


class DegenerateFoliation(NctoricError):
    name = "DegenerateFoliation"


class IrrationalWeights(NctoricError):
    name = "IrrationalWeights"


class NotNormalizable(NctoricError):
    name = "NotNormalizable"


class PeriodNotFound(NctoricError):
    name = "PeriodNotFound"


class InvalidGroupoid(NctoricError):
    name = "InvalidGroupoid"


class InvalidAlgebra(NctoricError):
    name = "InvalidAlgebra"


class DegreeZero(NctoricError):
    name = "DegreeZero"


class ComplexTooLarge(NctoricError):
    name = "ComplexTooLarge"


class LengthMismatch(NctoricError):
    name = "LengthMismatch"


class TooManySubsets(NctoricError):
    name = "TooManySubsets"


class ChainTooLong(NctoricError):
    name = "ChainTooLong"


class InputError(NctoricError):
    name = "InputError"
