"""History sets, decoherence functionals, probabilities and classification.

A history picks one member from each projector family; the chain operator of
a history is the ordered product of the family projectors conjugated back to
the initial time (latest time leftmost).  Writing ``L_h`` for that chain and
``rho`` for the initial state, the three functionals computed here are

* forwards:   D(h, h') = Tr(L_h rho L_h'^dagger)
* backwards:  D(h, h') = Tr(L_h^dagger rho L_h')
* two-state:  D(h, h') = Tr(rho_f L_h rho_i L_h'^dagger)

Diagonals are the candidate probabilities; a set is weakly decoherent when
the real parts of all off-diagonal entries vanish and strongly (also called
"medium") decoherent when their moduli do.  Off-diagonal entries are compared
against max(abs_floor, rel * sqrt(p_h p_h')) so zero-probability branches are
judged by the absolute floor.

Evaluation factorizes the state through ``StateOperator.columns``: with
rho = C C^dagger, D(h, h') is the Hilbert-Schmidt inner product of L_h C and
L_h' C.  A Schrodinger-picture prefix walk builds these for all histories at
once, applying each step segment and then each member projector to every
node of a level, so shared prefixes are computed once (one O(d^2 r) product
per node).  Every functional is then one Gram product of the resulting
branch table, and the walk's levels are the truncated history sets.
A model's own table (its state's columns, every history) is walked once per
direction and kept read-only on the model, so the functionals, coarse
graining, the both-conditions check and the single-history values of one
model share it; a single-history value is a read of its row.  Apart from
that memo, whose tables are the same whichever call fills it, all functions
here are pure; histories may be evaluated concurrently and the reports
assemble in a fixed lexicographic order regardless of evaluation order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .exceptions import (
    ConditionNotSatisfiedError,
    DegenerateNormalizationError,
    ModelValidationError,
)
from .model import (
    ATOL_MODEL,
    TIME_ATOL,
    ProjectorFamily,
    QuantumModel,
    StateOperator,
    _dynamics_symmetry_defect,
    _freeze,
    _psd_columns,
    _reverse_in_basis,
)

__all__ = [
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
]

History = tuple  # tuple of member labels, one per family

PROBABILITY_SLACK = 1e-10  # candidate values may poke this far outside [0, 1]
NORMALIZATION_FLOOR = 1e-14  # below this, Tr(rho_f rho_i) counts as zero
MARGINAL_FACTOR = 1e3  # failed pairs within this factor of threshold are marginal
TABLE_ATOL = 1e-9  # two probability tables (or values) this close agree


@dataclass(frozen=True)
class TolerancePolicy:
    """Pair threshold max(abs, rel * sqrt(p_h * p_h')) for off-diagonal checks."""

    rel: float = 1e-9
    abs: float = 1e-12

    def __post_init__(self):
        for name, value in (("rel", self.rel), ("abs", self.abs)):
            if not 0.0 <= value < math.inf:
                raise ValueError(f"tolerance {name} = {value!r} must be finite and non-negative")

    def pair_threshold(self, p: float, q: float) -> float:
        return max(self.abs, self.rel * math.sqrt(max(p, 0.0) * max(q, 0.0)))


@dataclass(frozen=True)
class PairCheck:
    """One off-diagonal functional entry measured against its threshold."""

    left: History
    right: History
    value: complex
    measure: float
    threshold: float
    passed: bool
    ratio: float


@dataclass
class DecoherenceReport:
    """Full pair table plus classification for one direction and strength.

    ``probabilities`` is populated only when the set classifies as decoherent;
    for the two-state direction the diagonals are divided by ``normalization``
    (Tr(rho_f rho_i), 1.0 otherwise).  The pair table is kept as arrays and
    ``pairs`` builds its :class:`PairCheck` list on first access.
    """

    direction: str
    strength: str
    classification: str  # 'decoherent' | 'marginal' | 'not_decoherent'
    histories: list[History]
    diagonals: dict[History, float]
    _arrays: _PairArrays = field(repr=False, compare=False)
    probabilities: dict[History, float] | None
    tolerance: TolerancePolicy
    normalization: float = 1.0

    @property
    def decoherent(self) -> bool:
        return self.classification == "decoherent"

    @functools.cached_property
    def pairs(self) -> list[PairCheck]:
        """One :class:`PairCheck` per pair i < j, row-major over the histories."""
        h = self.histories
        return [
            PairCheck(h[i], h[j], value, measure, threshold, passed, ratio)
            for i, j, value, measure, threshold, passed, ratio
            in zip(*(a.tolist() for a in self._arrays))
        ]

    def _worst_first(self) -> np.ndarray:
        """Pair positions worst first: ratio descending, then both histories by label."""
        h = self.histories
        rank = np.empty(len(h), dtype=np.intp)
        rank[sorted(range(len(h)), key=h.__getitem__)] = np.arange(len(h))
        a = self._arrays
        return np.lexsort((rank[a.j], rank[a.i], -a.ratio))

    def worst_pairs(self) -> list[PairCheck]:
        pairs = self.pairs
        return [pairs[k] for k in self._worst_first().tolist()]

    def max_offdiagonal(self) -> float:
        return float(self._arrays.measure.max(initial=0.0))


def _walk(model: QuantumModel, cols: np.ndarray, backwards: bool = False):
    """Schrodinger-picture prefix walk over the families, one level per family.

    Each level has shape (nodes, r, d): one node per history prefix, in
    lexicographic order, holding the transposed columns P_k U_k ... P_1 U_1 C
    at the family's time, where U_k is the segment of steps between
    consecutive family times.  Backwards walks the families latest first,
    from W(t_n) C through the adjoint segments.
    """
    grid = model.grid
    order = range(model.n_families)
    nodes, prev = cols.T[None], None
    for k in (reversed(order) if backwards else order):
        fam = model.families[k]
        t = fam.time_index
        if prev is None:
            step = grid.cumulative(t).T
        elif backwards:
            step = grid.segment(t, prev).conj()
        else:
            step = grid.segment(prev, t).T
        flat = nodes.reshape(-1, nodes.shape[-1]) @ step
        # the family met last varies fastest forwards and slowest backwards
        nodes = np.stack([(flat @ p.T).reshape(nodes.shape) for p in fam.projectors],
                         axis=0 if backwards else 1)
        nodes, prev = nodes.reshape(-1, *nodes.shape[2:]), t
        yield nodes


def _branch_table(model: QuantumModel, cols: np.ndarray, backwards: bool = False) -> np.ndarray:
    """Rows of L_h C (L_h^dagger C backwards), one (r, d) block per history.

    The last level of the walk pulled back to the initial time, by W(t_n)^dagger
    (W(t_1)^dagger backwards).  The model's own table, that of its state's
    ``columns`` object, is memoised on the model per direction, read-only.
    """
    own = cols is model.initial_state.columns
    if own and backwards in model._tables:
        return model._tables[backwards]
    table = cols.T[None]
    for table in _walk(model, cols, backwards):
        pass
    if model.families:
        w = model.grid.cumulative(model.families[0 if backwards else -1].time_index)
        table = (table.reshape(-1, model.dim) @ w.conj()).reshape(table.shape)
    if own:
        model._tables[backwards] = _freeze(table)
    return table


def _gram(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """D[i, j] = <a_j, b_i> from one product B A^dagger of the flattened rows.

    ``b`` defaults to ``a``.  The upper triangle is mirrored and the diagonal
    made real, so the result is exactly Hermitian.
    """
    a = a.reshape(a.shape[0], -1)
    b = a if b is None else b.reshape(a.shape)
    g = b @ a.conj().T
    d = np.triu(g, 1)
    d += d.conj().T
    d[np.diag_indices_from(d)] = g.diagonal().real
    return d


def _clamp_probability(value: complex, what: str) -> float:
    p = float(np.real(value))
    if abs(np.imag(value)) > 1e-9:
        raise ModelValidationError(f"{what} has imaginary part {np.imag(value):.3e}")
    if p < -PROBABILITY_SLACK or p > 1.0 + PROBABILITY_SLACK:
        raise ModelValidationError(
            f"{what} = {p!r} lies outside [0, 1] beyond tolerance; model invariants are broken"
        )
    return min(max(p, 0.0), 1.0)


def _functional_matrix(model: QuantumModel, direction: str,
                       rho_i: StateOperator | None = None,
                       rho_f: np.ndarray | None = None):
    """Histories and the full matrix D[i, j] = functional(h_i, h_j)."""
    if direction not in ("forwards", "backwards", "two_state"):
        raise ValueError(f"unknown direction {direction!r}")
    state = rho_i if rho_i is not None else model.initial_state
    a = _branch_table(model, state.columns, direction == "backwards")
    b = a.reshape(-1, model.dim) @ rho_f.T if direction == "two_state" else None
    return model.history_labels(), _gram(a, b)


def _row(model: QuantumModel, history) -> int:
    """Branch-table row of one history: its member indices, the last family fastest."""
    return np.ravel_multi_index(model.history_indices(history), [len(f) for f in model.families])


def candidate_probability_forwards(model: QuantumModel, history) -> float:
    """Diagonal of the forwards functional: Tr(L_h rho L_h^dagger), in [0, 1]."""
    a = _branch_table(model, model.initial_state.columns)[_row(model, history)]
    return _clamp_probability(np.vdot(a, a), f"forwards probability of {tuple(history)}")


def candidate_probability_backwards(model: QuantumModel, history) -> float:
    """Diagonal of the backwards functional: Tr(L_h^dagger rho L_h), in [0, 1]."""
    a = _branch_table(model, model.initial_state.columns, backwards=True)[_row(model, history)]
    return _clamp_probability(np.vdot(a, a), f"backwards probability of {tuple(history)}")


def decoherence_functional(model: QuantumModel, h, h_prime, direction: str = "forwards") -> complex:
    """Functional value for one ordered pair of histories.

    The diagonal (h == h') is real and equals the candidate probability for
    the chosen direction.
    """
    if direction not in ("forwards", "backwards"):
        raise ValueError(f"direction must be 'forwards' or 'backwards', got {direction!r}")
    table = _branch_table(model, model.initial_state.columns, direction == "backwards")
    return complex(np.vdot(table[_row(model, h_prime)], table[_row(model, h)]))


class _PairArrays(NamedTuple):
    """Upper-triangle pairs of a functional matrix, one array entry per pair."""

    i: np.ndarray
    j: np.ndarray
    value: np.ndarray
    measure: np.ndarray
    threshold: np.ndarray
    passed: np.ndarray
    ratio: np.ndarray

    def verdict(self) -> str:
        if self.passed.all():
            return "decoherent"
        return "marginal" if self.ratio.max() <= MARGINAL_FACTOR else "not_decoherent"


def _pair_arrays(d: np.ndarray, scale: float, strength: str,
                 tolerance: TolerancePolicy) -> _PairArrays:
    """Measure every pair i < j of D against its threshold.

    Measures and thresholds are on the normalized scale (D / scale), with the
    threshold of :meth:`TolerancePolicy.pair_threshold` and ratio inf where
    the threshold is zero.
    """
    i, j = np.triu_indices(d.shape[0], 1)
    value = d[i, j]
    measure = (np.abs(value.real) if strength == "weak" else np.abs(value)) / scale
    p = np.maximum(d.diagonal().real / scale, 0.0)
    threshold = np.maximum(tolerance.abs, tolerance.rel * np.sqrt(p[i] * p[j]))
    ratio = np.divide(measure, threshold, out=np.full_like(measure, np.inf),
                      where=threshold > 0)
    return _PairArrays(i, j, value, measure, threshold, measure <= threshold, ratio)


def _classify(histories, d, probabilities_scale, strength, tolerance,
              direction) -> DecoherenceReport:
    tolerance = tolerance or TolerancePolicy()
    arrays = _pair_arrays(d, probabilities_scale, strength, tolerance)
    classification = arrays.verdict()
    diagonals = d.diagonal().real
    probabilities = None
    if classification == "decoherent":
        probabilities = {
            h: _clamp_probability(p, f"probability of {h}")
            for h, p in zip(histories, (diagonals / probabilities_scale).tolist())
        }
    return DecoherenceReport(
        direction=direction,
        strength=strength,
        classification=classification,
        histories=list(histories),
        diagonals=dict(zip(histories, diagonals.tolist())),
        _arrays=arrays,
        probabilities=probabilities,
        tolerance=tolerance,
        normalization=probabilities_scale,
    )


def check_decoherence(model: QuantumModel, direction: str = "forwards",
                      strength: str = "weak",
                      tolerance: TolerancePolicy | None = None) -> DecoherenceReport:
    """Evaluate every off-diagonal pair and classify the history set.

    ``strength='weak'`` tests |Re D| only; ``strength='strong'`` tests |D|.
    A set that fails but stays within MARGINAL_FACTOR of every threshold is
    classified marginal.  Probabilities (the diagonals) are reported only for
    decoherent sets.
    """
    if direction not in ("forwards", "backwards"):
        raise ValueError(f"direction must be 'forwards' or 'backwards', got {direction!r}")
    if strength not in ("weak", "strong"):
        raise ValueError(f"strength must be 'weak' or 'strong', got {strength!r}")
    histories, d = _functional_matrix(model, direction)
    return _classify(histories, d, 1.0, strength, tolerance, direction)


def _coerce_final_operator(rho_f, dim: int) -> np.ndarray:
    """Validate a final operator: Hermitian PSD, any trace (identity allowed)."""
    if isinstance(rho_f, StateOperator):
        return rho_f.rho
    m = linalg.as_matrix(rho_f, "final operator")
    if m.shape != (dim, dim):
        raise ModelValidationError(f"final operator shape {m.shape} does not match dimension {dim}")
    h = np.conjugate(m.T, order="C")  # m^dagger in one strided pass
    if linalg.max_abs(m - h) > 1e-10:
        raise ModelValidationError("final operator must be Hermitian")
    h += m
    h /= 2.0
    if _psd_columns(h) is None and float(np.linalg.eigvalsh(h)[0]) < -ATOL_MODEL:
        raise ModelValidationError("final operator must be positive semidefinite")
    return m


def _two_state_normalization(rho_i: StateOperator, rho_f: np.ndarray) -> float:
    n = complex(np.sum(rho_f * rho_i.rho.T))  # Tr(rho_f rho_i) without the d^3 product
    if abs(n) <= NORMALIZATION_FLOOR:
        raise DegenerateNormalizationError(
            f"Tr(rho_f rho_i) = {n!r} vanishes; two-state probabilities are undefined"
        )
    return float(n.real)


def check_two_state_decoherence(rho_i, rho_f, model: QuantumModel,
                                strength: str = "weak",
                                tolerance: TolerancePolicy | None = None) -> DecoherenceReport:
    """Two-state analog of :func:`check_decoherence`.

    Off-diagonals of Tr(rho_f L_h rho_i L_h'^dagger) are tested; reported
    probabilities are the diagonals divided by Tr(rho_f rho_i).
    """
    if strength not in ("weak", "strong"):
        raise ValueError(f"strength must be 'weak' or 'strong', got {strength!r}")
    if not isinstance(rho_i, StateOperator):
        rho_i = StateOperator(rho_i)
    rho_f = _coerce_final_operator(rho_f, model.dim)
    norm = _two_state_normalization(rho_i, rho_f)
    histories, d = _functional_matrix(model, "two_state", rho_i=rho_i, rho_f=rho_f)
    return _classify(histories, d, norm, strength, tolerance, "two_state")


def two_state_functional(rho_i, rho_f, model: QuantumModel, h, h_prime) -> complex:
    """Tr(rho_f L_h rho_i L_h'^dagger) for independent initial/final operators.

    ``rho_f`` must be Hermitian positive semidefinite but need not be
    normalized (the identity is a valid choice, reducing the functional to
    the forwards one).  Raises if Tr(rho_f rho_i) vanishes.
    """
    if not isinstance(rho_i, StateOperator):
        rho_i = StateOperator(rho_i)
    rho_f = _coerce_final_operator(rho_f, model.dim)
    _two_state_normalization(rho_i, rho_f)
    table = _branch_table(model, rho_i.columns)  # a foreign rho_i walks the whole table
    return complex(np.vdot(table[_row(model, h_prime)], table[_row(model, h)] @ rho_f.T))


def two_state_probability_table(rho_i, rho_f, model: QuantumModel,
                                tolerance: TolerancePolicy | None = None) -> dict[History, float]:
    """Normalized two-state probabilities for every history.

    Requires the two-state decoherence condition to hold for the set; raises
    :class:`ConditionNotSatisfiedError` otherwise.
    """
    report = check_two_state_decoherence(rho_i, rho_f, model, "weak", tolerance)
    if not report.decoherent:
        raise ConditionNotSatisfiedError(
            f"two-state decoherence does not hold (classification: {report.classification})"
        )
    return dict(report.probabilities)


def two_state_probability(rho_i, rho_f, model: QuantumModel, h,
                          tolerance: TolerancePolicy | None = None) -> float:
    """Two-state probability of one history, Tr(rho_f L_h rho_i L_h^dagger) / Tr(rho_f rho_i)."""
    table = two_state_probability_table(rho_i, rho_f, model, tolerance)
    return table[tuple(h)]


@dataclass
class CoarseGraining:
    """Per-family partition of member labels into labeled blocks.

    ``blocks`` holds one mapping per family, block label -> member labels.
    Blocks must be disjoint and cover every member of their family, and a
    family's block labels must differ as strings, since a coarse history
    names each block by ``str(label)``.
    """

    blocks: tuple[dict, ...]

    @classmethod
    def singletons(cls, model: QuantumModel) -> "CoarseGraining":
        return cls(tuple({lab: (lab,) for lab in fam.labels} for fam in model.families))

    def validate(self, model: QuantumModel) -> None:
        if len(self.blocks) != model.n_families:
            raise ValueError(
                f"graining has {len(self.blocks)} family entries, model has {model.n_families}"
            )
        for fam, mapping in zip(model.families, self.blocks):
            if len(set(map(str, mapping))) != len(mapping):
                raise ValueError(f"block labels {list(mapping)} are not distinct as strings")
            members = [str(m) for block in mapping.values() for m in block]
            if sorted(members) != sorted(fam.labels) or not all(mapping.values()):
                raise ValueError(
                    f"blocks {mapping!r} do not partition family labels {fam.labels}"
                )

    def coarse_model(self, model: QuantumModel) -> QuantumModel:
        """The model with each family's blocks merged into single projectors.

        A merged member is the plain sum of its fine members, and every
        family is validated in full by the public constructor.
        """
        return model._derive([
            ProjectorFamily(fam.time_index, [(label, sum(fam.member(str(m)) for m in block))
                                             for label, block in mapping.items()])
            for fam, mapping in zip(model.families, self.blocks)
        ])

    def fine_histories_of(self, coarse_history) -> list[History]:
        pools = [
            tuple(str(m) for m in {str(k): b for k, b in mapping.items()}[str(label)])
            for mapping, label in zip(self.blocks, coarse_history)
        ]
        return [tuple(h) for h in itertools.product(*pools)]


@dataclass
class CoarseGrainReport:
    """Additivity audit of a coarse-graining against the fine-grained table."""

    direction: str
    max_violation: float
    additive: bool
    per_history: dict[History, tuple[float, float]]  # coarse -> (direct, summed)
    tolerance: float


def coarse_grain_check(model: QuantumModel, graining: CoarseGraining,
                       direction: str = "forwards") -> CoarseGrainReport:
    """Compare coarse candidate probabilities with sums of fine-grained ones.

    A merged projector is the sum of its members, so the chain of a coarse
    history is the sum of its fine chains, and its branch-table row the sum
    of their rows: one walk of the fine model gives both sides.  For a
    decoherent set the two agree to ``TABLE_ATOL``; otherwise the largest
    discrepancy is the surviving interference, e.g. merging exactly two
    histories leaves 2 Re D(h, h') behind.
    """
    if direction not in ("forwards", "backwards"):
        raise ValueError(f"direction must be 'forwards' or 'backwards', got {direction!r}")
    graining.validate(model)
    a = _branch_table(model, model.initial_state.columns, direction == "backwards")
    fine = [_clamp_probability(v, f"{direction} probability of {h}")
            for h, v in zip(model.history_labels(), np.einsum("hij,hij->h", a.conj(), a).tolist())]
    # One axis per family, then the flattened row with the clamped fine
    # probability as its last column: sum each family's blocks.
    rows = np.concatenate([a.reshape(len(a), -1), np.array(fine)[:, None]], axis=1)
    rows = rows.reshape(*map(len, model.families), -1)
    for k, (fam, mapping) in enumerate(zip(model.families, graining.blocks)):
        picks = [[fam.labels.index(str(m)) for m in block] for block in mapping.values()]
        rows = np.stack([rows.take(p, axis=k).sum(axis=k) for p in picks], axis=k)
    rows = rows.reshape(-1, rows.shape[-1])
    norms = np.einsum("hi,hi->h", rows[:, :-1].conj(), rows[:, :-1]).tolist()
    coarse_histories = itertools.product(*[[str(b) for b in mapping] for mapping in graining.blocks])
    per_history = {}
    max_violation = 0.0
    for ch, v, summed in zip(coarse_histories, norms, rows[:, -1].real.tolist()):
        direct = _clamp_probability(v, f"{direction} probability of {ch}")
        per_history[ch] = (direct, summed)
        max_violation = max(max_violation, abs(direct - summed))
    return CoarseGrainReport(direction, max_violation, max_violation <= TABLE_ATOL,
                             per_history, TABLE_ATOL)


@dataclass
class BothConditionsReport:
    """Result of testing that forwards and backwards probabilities coincide.

    Applicable only when both weak decoherence conditions hold; then the two
    candidate tables must agree and both must equal the real part of the bare
    chain expectation Re Tr(L_h rho).
    """

    applicable: bool
    reason: str
    forwards: DecoherenceReport
    backwards: DecoherenceReport
    max_table_difference: float | None = None
    max_chain_difference: float | None = None
    chain_expectations: dict[History, float] = field(default_factory=dict)
    passed: bool | None = None


def both_conditions_theorem_check(model: QuantumModel,
                                  tolerance: TolerancePolicy | None = None) -> BothConditionsReport:
    """When both weak conditions hold, verify the probability tables coincide to ``TABLE_ATOL``."""
    fwd = check_decoherence(model, "forwards", "weak", tolerance)
    bwd = check_decoherence(model, "backwards", "weak", tolerance)
    if not (fwd.decoherent and bwd.decoherent):
        failed = []
        if not fwd.decoherent:
            failed.append("forwards")
        if not bwd.decoherent:
            failed.append("backwards")
        return BothConditionsReport(False, f"not applicable: {' and '.join(failed)} "
                                           "weak decoherence fails", fwd, bwd)
    # Tr(L_h rho) = <C, L_h C> for rho = C C^dagger
    cols = model.initial_state.columns
    table = _branch_table(model, cols)
    chain = table.reshape(len(table), -1) @ cols.T.conj().reshape(-1)
    chain_vals = dict(zip(model.history_labels(), chain.real.tolist()))
    table_diff = max(abs(fwd.probabilities[h] - bwd.probabilities[h]) for h in fwd.probabilities)
    chain_diff = max(
        max(abs(fwd.probabilities[h] - chain_vals[h]), abs(bwd.probabilities[h] - chain_vals[h]))
        for h in fwd.probabilities
    )
    return BothConditionsReport(
        True, "both weak decoherence conditions hold", fwd, bwd,
        max_table_difference=table_diff, max_chain_difference=chain_diff,
        chain_expectations=chain_vals,
        passed=(table_diff <= TABLE_ATOL and chain_diff <= TABLE_ATOL),
    )


@dataclass
class TrivialityReport:
    """Audit of the single-state two-boundary condition for a pure state.

    When the condition holds, every probability equals |<psi|L_h|psi>|^2,
    coincides with <psi|L_h|psi> itself, and is therefore 0 or 1.
    """

    condition_holds: bool
    classification: str
    probabilities: dict[History, float]
    amplitudes: dict[History, complex]
    max_amplitude_defect: float | None = None
    all_zero_or_one: bool | None = None


def pure_two_state_triviality_check(model: QuantumModel, psi,
                                    tolerance: TolerancePolicy | None = None) -> TrivialityReport:
    """Check the restrictive rho_i = rho_f = |psi><psi| condition and its 0/1 law.

    Both boundary slots are filled with the given pure state; the model
    contributes only its families and dynamics.  Values within
    ``TABLE_ATOL`` of 0 or 1, and of their amplitudes, count as such.
    """
    psi = linalg.as_vector(psi, "psi")
    state = StateOperator.from_vector(psi)
    report = check_two_state_decoherence(state, state.rho, model, "weak", tolerance)
    amps = _branch_table(model, psi[:, None])[:, 0] @ psi.conj()
    amplitudes = dict(zip(model.history_labels(), amps.tolist()))
    probabilities = {h: abs(amp) ** 2 for h, amp in amplitudes.items()}
    if not report.decoherent:
        return TrivialityReport(False, report.classification, probabilities, amplitudes)
    defect = max(
        max(abs(probabilities[h] - amplitudes[h].real), abs(amplitudes[h].imag))
        for h in amplitudes
    )
    trivial = all(min(p, abs(1.0 - p)) <= TABLE_ATOL for p in probabilities.values())
    return TrivialityReport(True, report.classification, probabilities, amplitudes,
                            max_amplitude_defect=defect,
                            all_zero_or_one=(trivial and defect <= TABLE_ATOL))


@dataclass
class TimeReversedSet:
    """Time-reversed history set living on the same grid and state.

    Each family moves to the mirror image of its time and its projectors are
    conjugated in the declared basis; family order reverses accordingly.  A
    history of the reversed set corresponds to the reversed label tuple of
    the original set.
    """

    model: QuantumModel
    family_map: tuple[tuple[int, int], ...]  # (reversed family idx, original family idx)

    @staticmethod
    def reversed_history(history) -> History:
        return tuple(reversed(tuple(history)))


def time_reversed_history_set(model: QuantumModel) -> TimeReversedSet:
    """Reflect the history set about t = 0 within the same model.

    Every family time t_k must have -t_k on the grid to ``TIME_ATOL`` (and
    strictly inside it); the reversed family at -t_k carries the conjugated
    projectors B P^* B^dagger under the original labels.  Applying the
    operation twice returns the original set.
    """
    times = model.grid.times
    b = model.conjugation_basis
    placed = []  # (new_time_index, original_family_index, family)
    for k, fam in enumerate(model.families):
        target = -float(times[fam.time_index])
        hits = np.nonzero(np.abs(times - target) <= TIME_ATOL)[0]
        if hits.size == 0:
            raise ModelValidationError(
                f"grid does not admit reflection: no grid time at {target!r} "
                f"(mirror of family {k} at {float(times[fam.time_index])!r})"
            )
        j = int(hits[0])
        if not 0 < j < times.size - 1:
            raise ModelValidationError(
                f"reflected family time {target!r} is not strictly inside the grid"
            )
        members = [
            (label, _reverse_in_basis(p, b))
            for label, p in zip(fam.labels, fam.projectors)
        ]
        placed.append((j, k, ProjectorFamily(j, members)))
    placed.sort(key=lambda item: item[0])
    reversed_model = model._derive([fam for _, _, fam in placed])
    family_map = tuple((new_idx, orig_idx) for new_idx, (_, orig_idx, _) in enumerate(placed))
    return TimeReversedSet(reversed_model, family_map)


@dataclass
class PageReport:
    """Symmetric-cosmology audit: reversed-set probabilities match the originals.

    Preconditions (each reported with its defect): both boundary operators are
    fixed by time reversal, they commute, and the grid with its steps mirrors
    about t = 0.  Given those and two-state decoherence of both the original
    and the reversed set, the two probability tables must coincide.
    """

    preconditions: dict[str, tuple[bool, float]]
    preconditions_ok: bool
    original: DecoherenceReport | None = None
    time_reversed: DecoherenceReport | None = None
    applicable: bool = False
    reason: str = ""
    max_table_difference: float | None = None
    passed: bool | None = None


def page_symmetric_cosmology_check(rho_i, rho_f, model: QuantumModel,
                                   tolerance: TolerancePolicy | None = None) -> PageReport:
    """Test time-symmetric-cosmology behavior for a boundary pair (rho_i, rho_f).

    Preconditions must hold to ``ATOL_MODEL`` and the tables agree to ``TABLE_ATOL``.
    """
    if not isinstance(rho_i, StateOperator):
        rho_i = StateOperator(rho_i)
    rho_f = _coerce_final_operator(rho_f, model.dim)
    b = model.conjugation_basis
    d_i = linalg.max_abs(rho_i.rho - _reverse_in_basis(rho_i.rho, b))
    d_f = linalg.max_abs(rho_f - _reverse_in_basis(rho_f, b))
    d_c = linalg.max_abs(rho_i.rho @ rho_f - rho_f @ rho_i.rho)
    times = model.grid.times
    centers = np.nonzero(np.abs(times) <= TIME_ATOL)[0]
    if centers.size:
        grid_defect, dyn_defect, why = _dynamics_symmetry_defect(model, int(centers[0]))
        d_g = max(grid_defect, dyn_defect)
        grid_ok = not why
    else:
        d_g, grid_ok = float("inf"), False
    preconditions = {
        "initial_time_symmetric": (d_i <= ATOL_MODEL, d_i),
        "final_time_symmetric": (d_f <= ATOL_MODEL, d_f),
        "boundary_operators_commute": (d_c <= ATOL_MODEL, d_c),
        "grid_mirrors_about_zero": (grid_ok, d_g),
    }
    ok = all(flag for flag, _ in preconditions.values())
    if not ok:
        failed = [name for name, (flag, _) in preconditions.items() if not flag]
        return PageReport(preconditions, False, reason=f"precondition failed: {', '.join(failed)}")
    reversed_set = time_reversed_history_set(model)
    original = check_two_state_decoherence(rho_i, rho_f, model, "weak", tolerance)
    mirrored = check_two_state_decoherence(rho_i, rho_f, reversed_set.model, "weak", tolerance)
    if not (original.decoherent and mirrored.decoherent):
        which = []
        if not original.decoherent:
            which.append("original set")
        if not mirrored.decoherent:
            which.append("time-reversed set")
        return PageReport(preconditions, True, original, mirrored, False,
                          f"two-state decoherence fails for: {', '.join(which)}")
    diff = max(
        abs(original.probabilities[h] - mirrored.probabilities[reversed_set.reversed_history(h)])
        for h in original.probabilities
    )
    return PageReport(preconditions, True, original, mirrored, True,
                      "preconditions and both decoherence conditions hold",
                      max_table_difference=diff, passed=diff <= TABLE_ATOL)
