"""Exception types shared across the solver stages."""


class FairRangeError(Exception):
    """Base class for solver errors."""


class InfeasibleRangesError(FairRangeError):
    """The range constraints admit no center set of size k."""


class UnrangedGroupError(FairRangeError):
    """A facility's group has no range in the range constraints."""


class CostRangeError(FairRangeError):
    """The instance's costs are out of range: a distance is negative, nan
    or infinite, a client demand is negative or not finite, or the power p
    puts them past float range (PowerRangeError)."""


class PowerRangeError(CostRangeError):
    """The power p puts total weight * d_max^p past the cap on stage costs."""


class StageError(FairRangeError):
    """An internal invariant failed inside a named pipeline stage."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"{stage}: {message}")


class SimplexError(FairRangeError):
    """The LP solver could not produce a usable result."""


class IterationLimitError(SimplexError):
    """Pivot count exceeded the configured cap."""
