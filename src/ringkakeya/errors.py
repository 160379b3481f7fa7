"""Shared exception types."""


class GuardExceeded(Exception):
    """A requested computation would exceed the configured size guard."""


class RowFactorError(ValueError):
    """A row of the target matrix is not in the row space of the source."""


class VerificationError(ValueError):
    """An input object fails its own verification (e.g. not a Kakeya set)."""
