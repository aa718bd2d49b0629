"""Exception hierarchy, and `Record`, the base of the immutable result
records.

MathError covers every mathematically meaningful rejection (bad precondition,
failed lemma clause); the CLI maps it to exit code 2.  Malformed input is a
ParseError (exit 1).  Plain bugs stay ordinary Python exceptions.

`Record` lives here, in the one module every record module imports, so the
records cost no import of `dataclasses` (which loads `inspect`, `ast` and
`dis`) and no `exec` of generated methods at start-up.
"""


class Record:
    """An immutable record over `__slots__`.  A subclass names its
    constructor arguments, in positional order, in `_fields` (all its
    slots by default), and the fields its equality, hash and repr read in
    `_shown` (`_fields` by default); a slot outside `_fields` is filled by
    the subclass's own `__init__`.  The constructor takes the fields
    positionally and fills each through its slot's setter; assignment and
    deletion raise AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._shown = cls.__dict__.get("_shown", cls._fields)
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls._fields)

    def __init__(self, *values):
        if len(values) != len(self._setters):
            raise TypeError(f"{type(self).__name__} takes {len(self._setters)} "
                            f"positional arguments, got {len(values)}")
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not setattr
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def _key(self):
        return tuple([getattr(self, name) for name in self._shown])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
                + ")")


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
