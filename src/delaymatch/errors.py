"""Exception hierarchy.

Two branches matter for exit-code classification in the CLI: `UserError`
covers bad inputs (malformed files, non-metric distance tables, requests at
unknown points), while `InvariantViolation` marks conditions that should be
impossible if the library is correct (a sampled tree failing domination, a
cost identity not closing).  The CLI maps them to exit codes 1 and 2.
"""

from __future__ import annotations


class DelayMatchError(Exception):
    """Base class for all package errors."""


class UserError(DelayMatchError):
    """Invalid input or configuration supplied by the caller."""


class InvariantViolation(DelayMatchError):
    """Internal consistency check failed; indicates a bug, not bad input."""


# -- metric validation -------------------------------------------------------

class AsymmetricDistance(UserError):
    pass


class NegativeDistance(UserError):
    pass


class TriangleViolation(UserError):
    pass


class DegenerateSpace(UserError):
    pass


class InstanceLoadError(UserError):
    pass


# -- requests and schedules --------------------------------------------------

class OddRequestSet(UserError):
    pass


class MatchBeforeArrival(UserError):
    pass


class UncoveredRequest(UserError):
    pass


class DoubleService(UserError):
    pass


class UnknownLocation(UserError):
    pass


# -- algorithms --------------------------------------------------------------

class TooLarge(UserError):
    """Instance exceeds the exact-oracle size cap."""


class OutOfDomain(UserError):
    pass


class RegimeMismatch(UserError):
    pass


class DominationViolation(InvariantViolation):
    pass


class TraceMismatch(InvariantViolation):
    pass


class IdentityViolation(InvariantViolation):
    pass


class ConfigInvalid(UserError):
    pass
