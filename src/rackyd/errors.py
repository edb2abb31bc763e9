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
    """``int(value)`` for an index read from input, or a ValidationError.

    A float is refused, not truncated: ``2.7`` is no index, and ``1.0`` is
    not the integer literal a count or an index is written as.  A bool is
    refused too, though Python counts ``True`` as the int 1.
    """
    if isinstance(value, (bool, float)):
        raise ValidationError(f"{what} {value!r} is not an integer")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} {value!r} is not an integer") from exc
