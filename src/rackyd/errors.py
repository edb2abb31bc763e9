"""Exception types shared across the package, and the index check that raises one."""


class ValidationError(ValueError):
    """An input violates a structural precondition (bad table, bad literal, bad shape)."""


class ShapeError(ValidationError):
    """Matrix or tensor dimensions do not line up."""


class DegreeOverflowError(ValidationError):
    """An exact operation would leave the representable degree window.

    Raised instead of silently truncating; the enveloping-algebra machinery in
    :mod:`rackyd.envelope` truncates by design and says so, everything else
    treats overflow as an error.
    """


class ConsistencyError(RuntimeError):
    """An invariant that is guaranteed mathematically failed to hold.

    Seeing this exception means the library itself has a bug (or the inputs
    were mutated behind its back), not that the input data is merely invalid.
    """


def as_int(value, what: str) -> int:
    """An index or a count read from JSON, which must be a JSON integer, or a ValidationError.

    A string is refused, though ``int()`` reads ``" 1 "`` and ``"1_0"``; so
    is a float (``2.7`` is no index, and ``1.0`` is not the literal an index
    is written as), and so is a bool, though Python counts ``True`` as the
    int 1.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValidationError(f"{what} {value!r} is not an integer")
