"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class OrbitopeError(Exception):
    """Base class for all package errors."""


class InvalidInputError(OrbitopeError):
    """Bad user input or a violated precondition (CLI exit code 1)."""


class CapExceededError(InvalidInputError):
    """A desk-scale guard was hit (Weyl order or orbit size cap)."""


class TheoremViolationError(OrbitopeError):
    """An internal cross-check contradicted a proved statement (CLI exit code 2).

    This always indicates an implementation bug, never bad input.
    """
