"""Exception types shared across the package, and the default budget they guard."""

from __future__ import annotations

DEFAULT_RESIDUE_BUDGET = 10_000_000  # the default --budget: residue-test and enumeration cap


class ResourceLimitError(RuntimeError):
    """A configured degree, residue, or enumeration budget would be exceeded."""

    def __init__(self, message: str, *, required: int | None = None,
                 budget: int | None = None) -> None:
        super().__init__(message)
        self.required = required
        self.budget = budget


class InternalConsistencyError(RuntimeError):
    """An internal cross-check failed; signals a bug, not bad input."""


class NotSemistableError(ValueError):
    """Input polynomial is not 2-locally semistable.

    ``coordinates`` lists the offending g-basis coordinates as
    ``(index, coefficient, valuation)`` triples.
    """

    def __init__(self, message: str, coordinates: tuple = ()) -> None:
        super().__init__(message)
        self.coordinates = tuple(coordinates)


class WeightMonotonicityError(RuntimeError):
    """The weight failed to strictly increase during a graded reduction step.

    Raising this is itself a mathematical finding: it means one of the
    filtration congruences failed on concrete polynomials.
    """


class PolyParseError(ValueError):
    """Malformed polynomial expression."""
