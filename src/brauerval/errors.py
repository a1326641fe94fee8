"""Exception hierarchy for the verification engine.

Every failure mode that a caller might want to branch on gets its own
class.  Anything raised out of this package is an EngineError unless it
is a plain bug (TypeError, AssertionError, ...) or EnumerationBound: a
work budget that runs out is a verdict, not an engine failure.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine-level failures."""


class DimensionMismatch(EngineError):
    """Vectors or lattices of incompatible dimensions were combined."""


class NonContainment(EngineError):
    """An index or quotient was requested for lattices without containment."""


class EnumerationBound(Exception):
    """An enumeration would exceed its work budget.

    Not an EngineError, so no handler of failed input or failed peels can
    swallow it: the task ends, and its Inconclusive verdict reports the
    payload, which names the budget, its bound and the estimated work.
    """

    def __init__(self, budget: str, max_work: int, estimated_work: int) -> None:
        super().__init__(f"estimated work {estimated_work} exceeds the {budget} bound {max_work}")
        self.payload = {"budget": budget, "max_work": max_work, "estimated_work": estimated_work}


class ZeroElement(EngineError):
    """A valuation or inverse was requested for the zero element."""


class AmbiguousValuation(EngineError):
    """Minimal-value terms may cancel; no valuation can be certified."""


class UnsupportedConfiguration(EngineError):
    """The input is outside the fragment this engine can certify."""


class ScenarioError(EngineError):
    """A scenario file or CLI request failed to parse or validate."""
