"""Fair range clustering: a certified LP-rounding solver."""

from .instance import (
    MetricInstance,
    RangeConstraints,
    CenterSolution,
    ValidationReport,
    instance_from_coords,
    validate_instance,
    clustering_cost,
    check_range_feasibility,
    build_center_solution,
)
from .errors import (
    FairRangeError,
    InfeasibleRangesError,
    UnrangedGroupError,
    CostRangeError,
    PowerRangeError,
    StageError,
    SimplexError,
    IterationLimitError,
)
from .pipeline import (
    SolveReport,
    solve_fair_range,
    brute_force_optimum,
    generate_figure1_instance,
    random_instance,
    random_ranges,
    approximation_study,
    report_to_text,
)

__version__ = "0.1.0"
