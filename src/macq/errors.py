"""Exception types shared across the package.

Every error raised by library code derives from MacqError so callers (and the
command line front end) can report failures by class name.
"""

from __future__ import annotations


class MacqError(Exception):
    """Base class for all package errors."""


class DomainError(MacqError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class InvalidQuery(MacqError):
    """A strategy produced a query containing stations outside 1..n."""


class CapExceeded(MacqError):
    """A round or recursion cap was reached before the game finished."""


class BudgetExceeded(MacqError):
    """An enumeration would exceed the fixed budget of 10**6 candidate live sets."""


class Inconsistent(MacqError):
    """A feedback is consistent with no remaining candidate live set."""


class AdversaryInconsistent(MacqError):
    """An adversary produced feedback that contradicts its own history."""


class AmbiguousLeaf(MacqError):
    """Two distinct live sets reach the same finished decision-tree leaf."""
