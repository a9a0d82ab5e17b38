"""Learning a minimum-error qubit measurement from unlabeled quantum data.

The library simulates an ensemble of qubits drawn from two unknown pure
states and learns, from destructive single-qubit measurements alone, the
two-outcome POVM that discriminates the states with minimum error.  The
learners work in Bloch-vector form, so each reduces to closed-form plane
geometry plus shot-noise statistics; only the Helstrom oracle they are
checked against builds complex density matrices, and it diagonalizes their
2x2 difference in closed form from its entries.
"""

__version__ = "0.1.0"

from povmlearn.bloch import (
    EPS_DEGENERATE,
    EPS_PHYS,
    Plane,
    bloch_from_state_angle,
    perp_in_plane,
    plane_angle,
    rotate_in_plane,
    wrap_angle,
)
from povmlearn.decomposition import (
    EPS_CLAMP,
    DecompositionPair,
    MixtureTargets,
    cos_theta,
    decompose,
    ensemble_vector,
    learn_axis,
    mixture_targets,
    success_prob,
)
from povmlearn.ensemble import EnsembleSpec, RngStream, pauli_axes
from povmlearn.equal_prior import (
    delta_analytic,
    povm_axis_from_phi,
    solve_alpha,
    weak_readings,
    weak_signal_threshold,
)
from povmlearn.errors import ContractViolation, DegenerateEnsemble, DiscriminationError
from povmlearn.evaluate import EvalReport, classify_holdout, folded_success, score
from povmlearn.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    emit_results,
    run_experiment,
    summarize,
    sweep,
)
from povmlearn.helstrom import helstrom, success_equal_priors
