"""Desk-scale simulator of entanglement recovery by local operations.

Two protocols are covered: open-loop echo control of a pair dephased by
correlated random phases, and closed-loop correction conditioned on
measuring a qubit environment.  Everything needed to reproduce the theory
curves lives here: state primitives, entanglement measures, the noise
model with its closed forms, the feedback pipeline, and Poissonian
count-statistics tools, plus a sweep runner and CLI.
"""

from .closedloop import (
    AssistanceScan,
    ClosedLoopParams,
    assistance_scan,
    controlled_concurrence_closed,
    measurement_branches,
    uncontrolled_concurrence_closed,
)
from .counts import (
    CoincidenceCounts,
    EstimationError,
    coincidence_probabilities,
    estimate_p_prime,
    estimate_theta,
    simulate_counts,
)
from .dephasing import (
    CORRECTED,
    ECHOED,
    UNCONTROLLED,
    MonteCarloMoments,
    NoiseParams,
    PhaseSequence,
    TrajectoryControl,
    analytic_coherence,
    monte_carlo_moments,
    sample_phase_matrix,
    sample_sequence,
    trajectory_state,
)
from .entanglement import (
    PreparationModel,
    PureStateEnsemble,
    XStateError,
    binary_entropy,
    concurrence,
    concurrence_with_path,
    concurrence_x_state,
    ensemble_average_eof,
    eof_from_concurrence,
    mixture,
    werner,
)
from .openloop import (
    OpenLoopResult,
    open_loop_series,
    run_open_loop,
)
from .runner import OUTPUT_SCHEMAS, RunConfig, output_schema, run
from .states import (
    DensityMatrix,
    LocalOperator,
    PureState,
    RegisterError,
    apply_local,
    apply_two_qubit,
    bell_state,
    bit_flip,
    fidelity_to_pure,
    kron_state,
    maximally_mixed,
    partial_trace,
    phase_shift,
)

__version__ = "0.2.0"
