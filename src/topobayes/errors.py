"""Exception types, and the largest size numpy and Python index, shared across the package."""

import numpy as np

# the most bytes numpy lets one array span, and the most items Python's len counts
MAX_SIZE = np.iinfo(np.intp).max


class ValidationError(ValueError):
    """An argument violates an operation's preconditions."""


class DataFileError(Exception):
    """An input file is missing, malformed, or holds unusable values."""
