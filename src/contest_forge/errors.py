"""Exception taxonomy: one class per way a caller reacts.

- ``ContestForgeError``: the base of every error this package raises.
- ``ValidationError``: inputs violate a documented precondition (CLI exit
  code 1).
- ``PopulationTooLarge``, a ``ValidationError``: the input is valid but
  exceeds a documented size limit.
- ``NumericalError``: a solver failed to meet its contract (CLI exit code 2).
- ``IterationLimit``, a ``NumericalError``: a solver ran out of steps.

The message names the case; every other failure of an input is a plain
``ValidationError`` and every other solver breakdown a plain
``NumericalError``.
"""

from __future__ import annotations


class ContestForgeError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ContestForgeError):
    """Inputs violate a documented precondition."""


class NumericalError(ContestForgeError):
    """A solver failed to meet its contract."""


class PopulationTooLarge(ValidationError):
    """The input exceeds a documented size limit."""


class IterationLimit(NumericalError):
    """A solver ran out of steps before meeting its contract."""
