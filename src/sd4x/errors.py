"""Exception hierarchy shared by the sd4x modules."""
from __future__ import annotations


class SD4XError(Exception):
    """Base class for all sd4x errors."""


class InputError(SD4XError):
    """Invalid data, schema, configuration, or arguments."""


class InvariantError(SD4XError):
    """A runtime invariant (partition cover, pattern extent, ...) was violated."""


class ExternalBlackBoxError(SD4XError):
    """The external black-box process failed or returned malformed output."""


class PatternError(SD4XError):
    """A pattern operation produced an empty or inconsistent restriction."""
