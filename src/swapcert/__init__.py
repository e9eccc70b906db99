"""Simulation and certification toolkit for CHSH tests of entangled joint
measurements in a three-party entanglement-swapping network."""

from .blocks import (
    BlockPair,
    ChshBlockStructure,
    ObservableBlock,
    ObservableBlocks,
    SepBoundResult,
    block_chsh,
    chsh_operator,
    chsh_spectrum,
    jordan_blocks,
    sep_bound,
    sep_bound_formula,
    sep_bound_oracle,
    sep_bound_value,
    version_operator,
)
from .certify import (
    CLASSICAL_BOUND,
    SQRT2,
    TSIRELSON,
    DistanceBounds,
    Verdict,
    VerdictWitness,
    certify_crit1,
    certify_crit2,
    distance_bounds,
    overlap_chsh,
    overlap_version_matrix,
    relabel,
    threshold_for_distance,
    trace_distance,
)
from .linalg import (
    DEFAULT_TOL,
    DensityMatrix,
    PureState,
    ValidationError,
    partial_trace,
    ptrace_array,
    tensor,
)
from .measurements import (
    BinnedMeasurement,
    DichotomicObservable,
    FourOutcomeMeasurement,
    bell_basis,
    bell_measurement,
    charlie_settings_ideal,
    perturbed_bell_measurement,
    product_measurement,
    qubit_observable,
)
from .protocol import (
    ChshReport,
    CountsTable,
    ReportStdErr,
    Scenario,
    TheoremCheckReport,
    born_tables,
    chsh_ac,
    chsh_bc,
    conditional_version_matrix,
    estimate_report,
    exact_report,
    ideal_scenario,
    joint_distribution,
    noisy_scenario,
    sample_counts,
    steer,
    steered_states,
    theorem_check,
)

__version__ = "0.1.0"
