"""Exception types, and the check of numbers read from JSON, shared across the package."""

from itertools import chain

import numpy as np

# the most bytes numpy lets one array span, and the most items Python's len counts
MAX_SIZE = np.iinfo(np.intp).max


class ValidationError(ValueError):
    """An argument violates an operation's preconditions."""


class DataFileError(Exception):
    """An input file is missing, malformed, or holds unusable values."""


def json_floats(value, what, *shape):
    """value, JSON numbers nested in lists of the given lengths, or tuples of set ones, as floats.

    The first length may be None, for any. With no lengths value is one number and comes back
    as a float, else as an array. A bool, a string, any other non-number, a wrong length or
    nesting, or an integer too large for a float is a ValidationError about what."""
    level = [value]
    for n in shape:
        if not (set(map(type, level)) <= ({list} if n is None else {list, tuple})
                and (n is None or set(map(len, level)) <= {n})):
            raise ValidationError(f"malformed {what}")
        level = list(chain.from_iterable(level))
    if not set(map(type, level)) <= {int, float}:
        raise ValidationError(f"malformed {what}: not a number")
    try:
        a = np.array(level, dtype=float)
    except OverflowError:
        raise ValidationError(f"malformed {what}: a number too large for a float") from None
    return a.reshape(-1, *shape[1:]) if shape else float(a[0])
