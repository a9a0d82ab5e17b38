"""Learning a minimum-error qubit measurement from unlabeled quantum data.

The library simulates an ensemble of qubits drawn from two unknown pure
states and learns, from destructive single-qubit measurements alone, the
two-outcome POVM that discriminates the states with minimum error.  All
state manipulation happens in Bloch-vector form, so every learner reduces
to closed-form plane geometry plus shot-noise statistics.
"""

__version__ = "0.1.0"

from povmlearn.bloch import (
    EPS_DEGENERATE,
    EPS_PHYS,
    Plane,
    bloch_from_state_angle,
    perp_in_plane,
    plane_angle,
    prob_plus,
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
from povmlearn.ensemble import (
    EnsembleSpec,
    PauliEstimate,
    RngStream,
    ShotBatch,
    ensemble_bloch,
    estimate_pauli,
    measure_shots,
    pauli_axes,
)
from povmlearn.equal_prior import (
    EqualPriorEstimate,
    delta_analytic,
    estimate_delta,
    learn_equal_prior,
    povm_axis_from_phi,
    solve_alpha,
    weak_signal_threshold,
)
from povmlearn.errors import (
    ContractViolation,
    CosThetaOutOfRange,
    DegenerateEnsemble,
    DiscriminationError,
    InvalidPriors,
    WeakSignal,
)
from povmlearn.evaluate import ConfusionMatrix, EvalReport, classify_holdout, score
from povmlearn.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    TrialResult,
    emit_results,
    run_experiment,
    summarize,
    sweep,
)
from povmlearn.helstrom import (
    HelstromResult,
    detector_probabilities,
    helstrom,
    success_equal_priors,
)
