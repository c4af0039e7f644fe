"""Exception types shared across the solver stages."""


class FairRangeError(Exception):
    """Base class for solver errors."""


class InfeasibleRangesError(FairRangeError):
    """The range constraints admit no center set of size k."""


class UnrangedGroupError(FairRangeError):
    """A facility's group has no range in the range constraints."""


class CostRangeError(FairRangeError):
    """The power p puts the instance's costs outside the float range."""


class StageError(FairRangeError):
    """An internal invariant failed inside a named pipeline stage."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"{stage}: {message}")


class OpeningInfeasibleError(StageError):
    """The territory-capped opening program has no solution.

    Its one-unit territory caps can pin a group below its lower bound even
    though integral selections exist; the solver then falls back to a
    direct selection.
    """


class NoIntegralSelectionError(StageError):
    """Flow rounding found no integral selection that meets the ranges.

    The solver then falls back to a direct selection.
    """


class SimplexError(FairRangeError):
    """The LP solver could not produce a usable result."""


class IterationLimitError(SimplexError):
    """Pivot count exceeded the configured cap."""
