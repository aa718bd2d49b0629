"""Exception hierarchy.

MathError covers every mathematically meaningful rejection (bad precondition,
failed lemma clause); the CLI maps it to exit code 2.  Malformed input is a
ParseError (exit 1).  Plain bugs stay ordinary Python exceptions.
"""


class WhitforgeError(Exception):
    pass


class ParseError(WhitforgeError):
    pass


class MathError(WhitforgeError):
    pass


class DimensionMismatch(MathError):
    pass


class SizeMismatch(MathError):
    pass


class NotRationalSplit(MathError):
    """Input is not rational semisimple (char poly does not split over Q with
    full eigenspaces)."""


class NotCommuting(MathError):
    pass


class NotNilpotent(MathError):
    pass


class NotDominated(MathError):
    pass


class WrongPartition(MathError):
    pass


class NoSolutionError(MathError):
    """A linear system that the theory promises solvable turned out not to be;
    signals inconsistent input (e.g. a non-neutral pair fed to sl2_complete)."""


class InvalidPartitionForType(MathError):
    pass


class UnsupportedQuery(MathError):
    pass


class PreconditionViolation(MathError):
    pass


class ShapeViolation(MathError):
    """A Heisenberg-shape containment failed; message names the containment."""


class VerificationError(MathError):
    """A certificate self-check failed; message names the violated clause."""


class InternalCheckFailure(MathError):
    """A recursion invariant that should always hold was violated at runtime."""
