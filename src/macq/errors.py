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
    """A strategy was still querying at the round cap of 4n + 16."""


class BudgetExceeded(MacqError):
    """Work beyond a fixed limit: an enumeration over the budget of 10**6
    candidate live sets, or an instance beyond the exact oracle's (n, d) cap."""


class Inconsistent(MacqError):
    """A feedback is consistent with no remaining candidate live set, whether
    ``refine`` is handed it directly or an adversary answers it in a game."""


class AmbiguousLeaf(MacqError):
    """Two distinct live sets reach the same finished decision-tree leaf."""
