"""Exception types shared across the package."""


class BoolcombError(Exception):
    """Base class for every error raised by this package."""


class MismatchedVertexCount(BoolcombError):
    pass


class EmptyInput(BoolcombError):
    pass


class ArityMismatch(BoolcombError):
    pass


class OutOfRangeVertex(BoolcombError):
    pass


class DuplicateVertex(BoolcombError):
    pass


class SizeLimitExceeded(BoolcombError):
    pass


class BudgetExceeded(BoolcombError):
    pass


class OutOfRangeVariable(BoolcombError):
    pass


class NotEquivalenceGraph(BoolcombError):
    pass


class UnsupportedTag(BoolcombError):
    pass


class NotIntersectionClosed(BoolcombError):
    pass


class NoBigTwinClass(BoolcombError):
    pass


class CertificationError(BoolcombError):
    pass


class UnknownTheorem(BoolcombError):
    pass


class UnsupportedExpression(BoolcombError):
    pass


class MalformedLabel(BoolcombError):
    pass


class SchemeRejectsGraph(BoolcombError):
    pass


class MalformedInput(BoolcombError):
    """Malformed input or argument; a parse failure carries its byte offset."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset
