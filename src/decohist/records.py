"""Branch vectors and generalized records for pure-state models.

For a pure initial state the chain product of each history applied to the
state vector gives a branch vector whose squared norm is the history's
forwards probability.  Strong decoherence of the set is the same thing as
pairwise orthogonality of these branches, and exactly then one can build a
family of later-time projectors perfectly correlated with the histories: the
records constructed here are the rank-one projectors onto the unitarily
evolved, normalized branches.

Mixed initial states are refused rather than approximated; the imperfect-
records generalization is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import ConditionNotSatisfiedError, MixedStateError
from .histories import (
    DecoherenceReport,
    TolerancePolicy,
    _branch_table,
    _check_memory,
    _classify,
    _from_frame,
    _measure,
    _walk,
    check_decoherence,
)
from .model import ATOL_MODEL, ProjectorFamily, QuantumModel, TimeGrid

__all__ = [
    "BranchVector",
    "OrthogonalityEquivalenceReport",
    "RecordSet",
    "branch_vectors",
    "construct_records",
    "strong_decoherence_iff_orthogonality",
]

ZERO_BRANCH_NORM = 1e-14  # branches with smaller norm get null records


@dataclass
class BranchVector:
    """Unnormalized chain image of the initial state for one history."""

    history: tuple
    vector: np.ndarray

    def norm_squared(self) -> float:
        return float(np.vdot(self.vector, self.vector).real)


def _require_pure(model: QuantumModel, psi) -> np.ndarray:
    psi = linalg.as_vector(psi, "psi")
    if abs(float(np.linalg.norm(psi)) - 1.0) > 1e-10:
        raise ValueError("psi must be normalized")
    if not model.initial_state.is_pure():
        raise MixedStateError(
            f"model state has purity {model.initial_state.purity():.6f}; records need a pure state"
        )
    defect = linalg.max_abs(model.initial_state.rho - np.outer(psi, psi.conj()))
    if defect > ATOL_MODEL:
        raise ValueError(f"psi does not match the model's initial state (defect {defect:.3e})")
    return psi


def branch_vectors(model: QuantumModel, psi) -> list[BranchVector]:
    """Chain products applied to the pure initial state, one per history.

    The squared norms are the forwards candidate probabilities and sum to 1.
    """
    psi = _require_pure(model, psi)
    rows = _from_frame(model, _branch_table(model, psi[:, None]), 0)
    return [BranchVector(h, row) for h, row in zip(model.history_labels(), rows)]


@dataclass
class OrthogonalityEquivalenceReport:
    """Branch orthogonality vs strong decoherence, at every truncation depth.

    ``per_depth`` holds, for each k = 1..n, the largest off-diagonal branch
    overlap of the first-k-family set, whether the strong decoherence check
    passes there, and whether the two verdicts agree.
    """

    agrees: bool
    per_depth: list[tuple[int, float, bool, bool]]
    gram: np.ndarray  # full-depth Gram matrix of the branches
    full_report: DecoherenceReport


def strong_decoherence_iff_orthogonality(
        model: QuantumModel, psi,
        tolerance: TolerancePolicy | None = None) -> OrthogonalityEquivalenceReport:
    """Check that branch orthogonality and strong decoherence agree.

    Both sides are evaluated at every truncation depth k <= n, the strongest
    finite version of the equivalence.  Depth k is level k of the prefix
    walk: orthogonality is read from the Gram matrix of the branches of
    ``psi``, strong decoherence from the functional of the model's state.
    When the state's columns are ``psi`` itself, as for a state built from
    that vector, the two are one Gram matrix and one walk.  The full set's
    report is read from the last level, not from another walk.
    """
    psi = _require_pure(model, psi)
    tolerance = tolerance or TolerancePolicy()
    cols = model.initial_state.columns
    own = np.array_equal(cols, psi[:, None])
    chain_levels = None if own else _walk(model, cols)
    per_depth, agrees = [], True
    for depth, psi_rows in enumerate(_walk(model, psi[:, None])):  # depth 0: the set without families
        gram = overlaps = chain = None  # free the previous level before measuring this one
        gram, overlaps = _measure(model, psi_rows, 1.0, "strong", tolerance)
        orthogonal = bool(overlaps.passed.all())
        max_overlap = float(overlaps.measure.max(initial=0.0))
        if not own:  # the psi side's pairs are read no further: free them first
            overlaps = None
            chain = _measure(model, next(chain_levels), 1.0, "strong", tolerance)
        chain = chain or (gram, overlaps)
        if depth:
            strong = chain[1].verdict() == "decoherent"
            per_depth.append((depth, max_overlap, strong, orthogonal == strong))
            agrees &= orthogonal == strong
    full = _classify(model, None, 1.0, "strong", tolerance, "forwards", measured=chain)
    # gram[i, j] = <b_i, b_j>, the transpose of the functional-ordered matrix
    return OrthogonalityEquivalenceReport(agrees, per_depth, gram.T, full)


@dataclass
class RecordSet:
    """Orthogonal record projections at a late time, one per nonzero branch.

    ``projections`` maps each history to its record projector (the zero
    matrix for null branches); ``residual`` completes the family to the
    identity.  ``correlation[i, j]`` is the weight branch j deposits on record
    i: diagonal equals the probability table, off-diagonals vanish.
    """

    time_index: int
    time: float
    histories: list[tuple]
    projections: dict
    residual: np.ndarray
    probabilities: dict
    correlation: np.ndarray
    extension_report: DecoherenceReport


def construct_records(model: QuantumModel, psi, time_index: int | None = None,
                      tolerance: TolerancePolicy | None = None) -> RecordSet:
    """Build record projectors at grid time ``time_index`` (default: last).

    Requires strong forwards decoherence, judged on the Gram matrix of the
    branch vectors, which for the pure state is the forwards functional, so
    the model is walked once.  Each branch vector is evolved to the record
    time, normalized, and turned into a rank-one projector.  The record
    family is verified to be perfectly correlated with the histories and to
    extend the history set without breaking strong decoherence.
    """
    psi = _require_pure(model, psi)
    tolerance = tolerance or TolerancePolicy()
    if time_index is None:
        time_index = model.grid.n_times - 1
    if not 0 <= time_index < model.grid.n_times:
        raise IndexError(f"record time index {time_index} outside the grid")
    if model.families and time_index < model.families[-1].time_index:
        raise ValueError(
            f"record time index {time_index} precedes the last family "
            f"(index {model.families[-1].time_index})"
        )
    table = _branch_table(model, psi[:, None])
    base = _classify(model, table, 1.0, "strong", tolerance, "forwards")
    if not base.decoherent:
        raise ConditionNotSatisfiedError(
            f"strong forwards decoherence does not hold (classification: {base.classification}); "
            "records exist only for strongly decoherent sets"
        )
    histories = base.histories
    evolved = _from_frame(model, table, time_index)
    probabilities = {h: float(np.vdot(v, v).real) for h, v in zip(histories, table[:, 0])}
    norms = np.linalg.norm(evolved, axis=1)
    live = norms > ZERO_BRANCH_NORM
    units = np.zeros_like(evolved)
    units[live] = evolved[live] / norms[live, None]
    projections = {h: np.outer(u, u.conj()) for h, u in zip(histories, units)}  # 0 for a null branch
    # Perfect correlation: branch j lands entirely on its own record.
    correlation = np.abs(units.conj() @ evolved.T) ** 2
    for i, h in enumerate(histories):
        if abs(correlation[i, i] - probabilities[h]) > 1e-9:
            raise ConditionNotSatisfiedError(
                f"record correlation diagonal {correlation[i, i]!r} deviates from "
                f"probability {probabilities[h]!r}"
            )
    off = correlation - np.diag(np.diag(correlation))
    if linalg.max_abs(off) > 1e-9:
        raise ConditionNotSatisfiedError(
            f"record correlation has off-diagonal weight {linalg.max_abs(off):.3e}"
        )
    residual = np.eye(model.dim, dtype=complex) - sum(projections.values())
    extension_report = _extension_check(model, time_index, histories, projections,
                                        residual, tolerance)
    return RecordSet(
        time_index=int(time_index),
        time=float(model.grid.times[time_index]),
        histories=histories,
        projections=projections,
        residual=residual,
        probabilities=probabilities,
        correlation=correlation,
        extension_report=extension_report,
    )


def _extension_check(model, time_index, histories, projections, residual,
                     tolerance) -> DecoherenceReport:
    """Append the record family and re-run the strong forwards check.

    The records are hosted on a truncated grid padded with identity steps so
    the family sits at an interior time regardless of where ``time_index``
    falls; the padding does not change any functional value.
    """
    times = list(model.grid.times[: time_index + 1])
    steps = list(model.grid.step_unitaries[:time_index])
    gap = times[-1] - times[-2] if len(times) >= 2 else 1.0
    eye = np.eye(model.dim, dtype=complex)
    times += [times[-1] + gap, times[-1] + 2 * gap]
    steps += [eye, eye]
    members = [
        ("rec:" + ",".join(h), projections[h])
        for h in histories
        if projections[h].any()
    ]
    if linalg.defect(residual, 1e-12) > 1e-12:
        members.append(("rec:none", residual))
    _check_memory(len(histories) * len(members), model.initial_state.columns.size)
    record_family = ProjectorFamily(time_index + 1, members)
    extended = model._derive(list(model.families) + [record_family], TimeGrid(times, steps))
    report = check_decoherence(extended, "forwards", "strong", tolerance)
    if not report.decoherent:
        raise ConditionNotSatisfiedError(
            "record family fails to extend the history set consistently "
            f"(classification: {report.classification})"
        )
    return report
