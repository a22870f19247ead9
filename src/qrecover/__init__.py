"""Desk-scale simulator of entanglement recovery by local operations.

Two protocols are covered: open-loop echo control of a pair dephased by
correlated random phases, and closed-loop correction conditioned on
measuring a qubit environment.  The theory curves come from closed forms
and one Monte Carlo kernel, with no quantum state built: the noise model
with its closed coherence and Monte Carlo moments, the eta-mixed
concurrence and entanglement of formation, the feedback pipeline's closed
forms, and Poissonian count-statistics tools, plus a sweep runner and CLI.
"""

from .closedloop import (
    assistance_scan,
    controlled_concurrence_closed,
    measurement_branches,
    uncontrolled_concurrence_closed,
)
from .counts import (
    EstimationError,
    coincidence_probabilities,
    estimate_p_prime,
    estimate_theta,
    simulate_counts,
)
from .dephasing import analytic_coherence, coherence_std_error, monte_carlo_moments
from .entanglement import binary_entropy, eof_from_concurrence, eta_from_fidelity, mixed_concurrence
from .openloop import open_loop_series
from .runner import OUTPUT_SCHEMAS, RunConfig, output_schema, run

__version__ = "0.14.0"
