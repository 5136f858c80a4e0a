"""Decoherent-histories toolkit for finite-dimensional quantum models.

The package evaluates decoherence functionals over sets of projection
histories, classifies sets as forwards- or backwards-decoherent, builds
generalized records for strongly decoherent pure-state sets, evaluates
two-boundary and pre/post-selected probabilities, and demonstrates
recoherence on mirror-extended models.
"""

from .exceptions import (
    ConditionNotSatisfiedError,
    DegenerateNormalizationError,
    MixedStateError,
    ModelFileError,
    ModelValidationError,
)
from .histories import (
    BothConditionsReport,
    CoarseGrainReport,
    CoarseGraining,
    DecoherenceReport,
    PageReport,
    PairCheck,
    TimeReversedSet,
    TolerancePolicy,
    TrivialityReport,
    both_conditions_theorem_check,
    candidate_probability_backwards,
    candidate_probability_forwards,
    check_decoherence,
    check_two_state_decoherence,
    coarse_grain_check,
    decoherence_functional,
    page_symmetric_cosmology_check,
    pure_two_state_triviality_check,
    time_reversed_history_set,
    two_state_functional,
    two_state_probability,
    two_state_probability_table,
)
from .linalg import exp_generator, herm_eig, kron, trace
from .model import (
    ProjectorFamily,
    QuantumModel,
    StateOperator,
    TimeGrid,
    TimeSymmetryResult,
    evolve_state,
    heisenberg_projector,
    is_time_symmetric,
    partial_trace,
    time_reverse_state,
    time_reverse_vector,
)
from .modelfile import dump_model, load_model, model_from_dict, model_to_dict
from .records import (
    BranchVector,
    OrthogonalityEquivalenceReport,
    RecordSet,
    branch_vectors,
    construct_records,
    strong_decoherence_iff_orthogonality,
)
from .scenarios import (
    CollapseTrajectory,
    RecoherenceAnalysis,
    abl_probability,
    abl_table,
    collapse_chain_enumerate,
    collapse_probability_table,
    commuting_random_model,
    haar_unitary,
    random_model,
    recoherence_scenario,
    reverse_collapse_chain,
    spin_model,
    spin_post_selection,
    spin_recoherence_base,
    spin_symmetric_scenario,
)

__version__ = "0.1.0"
