"""Exception types shared across the solver stages."""


class FairRangeError(Exception):
    """Base class for solver errors."""


class InfeasibleRangesError(FairRangeError):
    """The range constraints admit no center set of size k."""


class UnrangedGroupError(FairRangeError):
    """A facility's group has no range in the range constraints."""


class StageError(FairRangeError):
    """An internal invariant failed inside a named pipeline stage."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"{stage}: {message}")


class SimplexError(FairRangeError):
    """The LP solver could not produce a usable result."""


class IterationLimitError(SimplexError):
    """Pivot count exceeded the configured cap."""
