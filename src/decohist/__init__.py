"""Decoherent-histories toolkit for finite-dimensional quantum models.

The package evaluates decoherence functionals over sets of projection
histories, classifies sets as forwards- or backwards-decoherent, builds
generalized records for strongly decoherent pure-state sets, evaluates
two-boundary and pre/post-selected probabilities, and demonstrates
recoherence on mirror-extended models.

The names below are imported from their modules on first access (PEP 562),
so importing the package, or one of its modules, loads only what it uses.
"""

import importlib

_EXPORTS = {
    "exceptions": (
        "ConditionNotSatisfiedError",
        "DegenerateNormalizationError",
        "MixedStateError",
        "ModelFileError",
        "ModelValidationError",
    ),
    "histories": (
        "BothConditionsReport",
        "CoarseGrainReport",
        "CoarseGraining",
        "DecoherenceReport",
        "PageReport",
        "PairCheck",
        "TimeReversedSet",
        "TolerancePolicy",
        "TrivialityReport",
        "both_conditions_theorem_check",
        "candidate_probability_backwards",
        "candidate_probability_forwards",
        "check_decoherence",
        "check_two_state_decoherence",
        "coarse_grain_check",
        "decoherence_functional",
        "page_symmetric_cosmology_check",
        "pure_two_state_triviality_check",
        "time_reversed_history_set",
        "two_state_functional",
        "two_state_probability",
        "two_state_probability_table",
    ),
    "linalg": ("exp_generator", "herm_eig", "kron", "trace"),
    "model": (
        "ProjectorFamily",
        "QuantumModel",
        "StateOperator",
        "TimeGrid",
        "TimeSymmetryResult",
        "evolve_state",
        "heisenberg_projector",
        "is_time_symmetric",
        "partial_trace",
        "time_reverse_state",
        "time_reverse_vector",
    ),
    "modelfile": ("dump_model", "load_model", "model_from_dict", "model_to_dict"),
    "records": (
        "BranchVector",
        "OrthogonalityEquivalenceReport",
        "RecordSet",
        "branch_vectors",
        "construct_records",
        "strong_decoherence_iff_orthogonality",
    ),
    "scenarios": (
        "CollapseTrajectory",
        "RecoherenceAnalysis",
        "abl_probability",
        "abl_table",
        "collapse_chain_enumerate",
        "collapse_probability_table",
        "commuting_random_model",
        "haar_unitary",
        "random_model",
        "recoherence_scenario",
        "reverse_collapse_chain",
        "spin_model",
        "spin_post_selection",
        "spin_recoherence_base",
        "spin_symmetric_scenario",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a module, as when every module was imported eagerly
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
