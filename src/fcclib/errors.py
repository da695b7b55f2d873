"""Exceptions shared across the search and coding modules."""

from __future__ import annotations


class BudgetExceededError(RuntimeError):
    """An exact search ran out of its node/size budget before deciding.

    ``best_lower`` and ``best_upper`` carry the bracketing bounds proved
    before the budget ran out (None when no partial information exists).
    """

    def __init__(self, message: str, best_lower=None, best_upper=None):
        super().__init__(message)
        self.best_lower = best_lower
        self.best_upper = best_upper


class SizeLimitError(BudgetExceededError):
    """A search refused before it started, its input above a size limit: no
    budget was spent, and raising the budget would not help."""


class CodeNotFoundError(RuntimeError):
    """A completed exact search proved that no code with the requested
    parameters exists (a negative result, not a failure to decide)."""


class DecodingFailureError(RuntimeError):
    """No codeword lies within the promised error radius of the received word."""
