"""Exception types, the largest size numpy and Python index, and the checks of pairs and seeds."""

import numpy as np

# the most bytes numpy lets one array span, and the most items Python's len counts
MAX_SIZE = np.iinfo(np.intp).max


class ValidationError(ValueError):
    """An argument violates an operation's preconditions."""


class DataFileError(Exception):
    """An input file is missing, malformed, or holds unusable values."""


def pairs_array(x, what) -> np.ndarray:
    """x as a float array of shape (n, 2), an empty x as (0, 2); any other shape is a
    ValidationError about what, as a reshape to pairs would regroup its coordinates."""
    a = np.asarray(x, dtype=float)
    if a.size and a.shape != a.shape[:1] + (2,):
        raise ValidationError(f"{what} must have shape (n, 2)")
    return a.reshape(-1, 2)


def seeded_rng(seed) -> np.random.Generator:
    """numpy's generator for seed, refused before any draw unless an integer of at least 0."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValidationError(f"seed must be an integer of at least 0, got {seed!r}")
    return np.random.default_rng(seed)
