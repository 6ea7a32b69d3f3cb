"""Exception hierarchy shared by all distlaw modules."""


class DistlawError(Exception):
    """Base class for every error raised by this package."""


class UnknownGenerator(DistlawError):
    """A name was looked up that is not in the carrier."""


class ShapeMismatch(DistlawError):
    """A term does not have the structure an operation requires."""


class BoundTooLarge(DistlawError):
    """An enumeration would exceed the configured term ceiling."""


class IndexOrder(DistlawError):
    """Series indices were not strictly decreasing or fell outside 1..n."""


class SplitOutOfRange(DistlawError):
    """A series split point was outside 1..n-1."""


class NotAnAlgebra(DistlawError):
    """An action table violates the algebra axioms."""


class _OutOfTable(NotAnAlgebra):
    """An action lookup beyond the table's bound: a skip, not a law failure."""


class UnsupportedNode(DistlawError):
    """An expression uses a node the chosen theory cannot interpret."""


class ParseError(DistlawError):
    """Bad expression syntax; carries the offset and the expected tokens."""

    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} at position {position}"
                         + (f" (expected {', '.join(expected)})" if expected else ""))
        self.position = position
        self.expected = tuple(expected)


class DimensionError(DistlawError):
    """A boundary was requested at a dimension the cell does not have."""


class ComposabilityError(DistlawError):
    """Adjacent cells in a string do not share the required boundary."""


class RaggedGrid(DistlawError):
    """A two-layer string whose inner strings have unequal lengths."""


class FileFormatError(DistlawError):
    """A globular-set file is malformed or violates globularity."""
