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
L_h' C (two-state: of F^dagger L_h C and F^dagger L_h' C, rho_f = F F^dagger).
A Schrodinger-picture prefix walk builds the L_h C for all histories at once,
carrying every node of a level to the next family's time (``TimeGrid.carry``)
and applying each member projector to it through its factor
(:meth:`ProjectorFamily.apply`), so shared prefixes are computed once (one
O(d^2 r) product per node).
Its last level, W L_h C with W the unitary up to the last family's time, is
the branch table: W cancels from every Gram entry, so every functional is one
Gram product of the table as it stands.  Only this module applies W:
columns that meet the table are carried into W's frame (:func:`_overlaps`,
a two-state factor), rows wanted at another time out of it
(:func:`_from_frame`).  The walk's levels, from depth 0 on, are the
truncated sets.  Every verdict is one :func:`_classify` of a set's branch
rows (:func:`_rows`), which forms their Gram, rounding floor and pair arrays
(:func:`_measure`).
A model's own table (its state's columns, every history) is walked once per
direction and kept read-only on the model, so the functionals, coarse
graining, the both-conditions check, the single-history values and every
caller that starts from a pure state's own vector (its one column) share it;
a single-history value is a read of its row.  Apart from that memo, whose
tables are the same whichever call fills it, all functions here are pure;
histories may be evaluated concurrently and the reports assemble in a fixed
lexicographic order regardless of evaluation order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .bounds import _gamma
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
    _eigh,
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
RATIO_TIE = 1e-12  # pair-table ratios this close (relative) to the next larger one tie
# A history set whose estimated peak exceeds MEMORY_BUDGET bytes is refused:
# the walk holds about TABLE_BYTES per branch-table entry (the last level, its
# projected members and their stack, 16 bytes per complex number each), and
# the whole-matrix pair work about PAIR_BYTES per pair i < j (the Gram matrix,
# 32, and the pair arrays with their temporaries, about 73, which set the peak).
MEMORY_BUDGET = 2 * 2**30
TABLE_BYTES = 48
PAIR_BYTES = 112


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
        h, a = self.histories, self._arrays
        return [
            PairCheck(h[i], h[j], value, measure, threshold, passed, ratio)
            for i, j, value, measure, threshold, passed, ratio
            in zip(*(c.tolist() for c in (a.i, a.j, a.value, a.measure, a.threshold,
                                          a.passed, a.ratio)))
        ]

    def _worst_first(self) -> np.ndarray:
        """Pair positions worst first: ratio descending, ties by both histories' labels.

        Rounding must not decide the order, so two kinds of pairs tie: those
        at or below their rounding floor, sorted as ratio 0, and ratios that
        agree to 12 significant digits (each within ``RATIO_TIE``, relative, of
        the next larger one).
        """
        h = self.histories
        rank = np.empty(len(h), dtype=np.intp)
        rank[sorted(range(len(h)), key=h.__getitem__)] = np.arange(len(h))
        a = self._arrays
        key = np.where(a.at_floor, 0.0, a.ratio)
        order = np.argsort(-key)
        desc = key[order]
        new = np.ones(desc.size, dtype=bool)  # where a tie class starts
        new[1:] = desc[1:] < desc[:-1] * (1.0 - RATIO_TIE)
        tie = np.empty_like(order)
        tie[order] = np.cumsum(new)
        return np.lexsort((rank[a.j], rank[a.i], tie))

    def worst_pairs(self) -> list[PairCheck]:
        pairs = self.pairs
        return [pairs[k] for k in self._worst_first().tolist()]

    def max_offdiagonal(self) -> float:
        return float(self._arrays.measure.max(initial=0.0))


def _check_memory(m: int, row: int, pair_work: bool = True) -> None:
    """Refuse m histories of ``row`` entries each (and their pairs if ``pair_work``) over budget."""
    pairs = m * (m - 1) // 2
    estimate = TABLE_BYTES * m * row + (PAIR_BYTES * pairs if pair_work else 0)
    if estimate > MEMORY_BUDGET:
        raise ModelValidationError(
            f"{m} histories ({pairs} pairs) need an estimated {estimate / 2**30:.3g} GiB "
            f"for {'pair work' if pair_work else 'the branch table'}, "
            f"above the memory budget of {MEMORY_BUDGET / 2**30:.3g} GiB")


def _walk(model: QuantumModel, cols: np.ndarray, backwards: bool = False):
    """Schrodinger-picture prefix walk over the families, one level per depth from 0.

    Level k has shape (nodes, r, d): one node per prefix of k families, in
    lexicographic order, holding the transposed columns P_k U_k ... P_1 U_1 C
    at the family's time (level 0 is ``cols.T[None]``), where U_k carries the
    state between family times (``TimeGrid.carry``).  Backwards walks the
    families latest first, from W(t_n) C through the adjoint segments.  A set
    whose branch table is over the memory budget is refused before level 0.
    """
    _check_memory(math.prod(map(len, model.families)), cols.size, pair_work=False)
    order = range(model.n_families)
    nodes, prev = cols.T[None], 0
    yield nodes
    for k in (reversed(order) if backwards else order):
        fam = model.families[k]
        flat = model.grid.carry(nodes.reshape(-1, nodes.shape[-1]), prev, fam.time_index)
        # the family met last varies fastest forwards and slowest backwards
        nodes = np.stack([fam.apply(a, flat, rows=True).reshape(nodes.shape) for a in range(len(fam))],
                         axis=0 if backwards else 1)
        nodes, prev = nodes.reshape(-1, *nodes.shape[2:]), fam.time_index
        yield nodes


def _frame(model: QuantumModel) -> int:
    """Grid index of the forwards branch table's frame: the last family's time (0 without families)."""
    return model.families[-1].time_index if model.families else 0


def _branch_table(model: QuantumModel, cols: np.ndarray, backwards: bool = False) -> np.ndarray:
    """Rows W L_h C (W L_h^dagger C backwards), one (r, d) block per history.

    The last level of the walk, left in the frame of the last family it
    meets: W = W(t_n) forwards and W(t_1) backwards.  W is unitary, so it
    cancels from every inner product of two rows; an overlap with
    initial-time columns v is <W v, row> (:func:`_overlaps`).  The model's
    own table, that of columns equal to its state's ``columns`` (for a pure
    state, its vector), is memoised on the model per direction, read-only.
    """
    own = cols is model.initial_state.columns or np.array_equal(cols, model.initial_state.columns)
    if own and backwards in model._tables:
        return model._tables[backwards]
    for table in _walk(model, cols, backwards):
        pass
    if own:
        model._tables[backwards] = _freeze(table)
    return table


def _in_frame(model: QuantumModel, cols: np.ndarray) -> np.ndarray:
    """Initial-time columns v (at most d) as W v, in the frame of the forwards branch table."""
    return model.grid.carry(cols.T, 0, _frame(model)).T


def _overlaps(model: QuantumModel, cols: np.ndarray, v: np.ndarray, k: int) -> np.ndarray:
    """<V, L_h C> per history for d x r columns V at grid index k: V, not the table, meets the frame.

    Chain expectations Tr(L_h rho) and triviality amplitudes take V = C at 0; ABL, psi_f at the end.
    """
    table = _branch_table(model, cols)
    return table.reshape(len(table), -1) @ model.grid.carry(v.T, k, _frame(model)).conj().reshape(-1)


def _from_frame(model: QuantumModel, table: np.ndarray, k: int) -> np.ndarray:
    """The rows of a forwards branch ``table`` carried from its frame to grid index k, (m r, d)."""
    return model.grid.carry(table.reshape(-1, model.dim), _frame(model), k)


def _gram(a: np.ndarray) -> np.ndarray:
    """D[i, j] = <a_j, a_i>, the product A A^dagger of the flattened rows as computed.

    D is Hermitian only to rounding; its readers take the pairs i < j and the
    real diagonal.  Pair work over the memory budget is refused first.
    """
    a = a.reshape(a.shape[0], -1)
    _check_memory(*a.shape)
    return a @ a.conj().T


def _clamp_probability(value: complex, what: str) -> float:
    p = float(np.real(value))
    if abs(np.imag(value)) > 1e-9:
        raise ModelValidationError(f"{what} has imaginary part {np.imag(value):.3e}")
    if p < -PROBABILITY_SLACK or p > 1.0 + PROBABILITY_SLACK:
        raise ModelValidationError(
            f"{what} = {p!r} lies outside [0, 1] beyond tolerance; model invariants are broken"
        )
    return min(max(p, 0.0), 1.0)


def _rows(model: QuantumModel, backwards: bool = False,
          rho_i: StateOperator | None = None, factor: np.ndarray | None = None) -> np.ndarray:
    """Branch rows L_h C (L_h^dagger C backwards) or, two-state, F^dagger L_h C, one block per history."""
    a = _branch_table(model, (model.initial_state if rho_i is None else rho_i).columns, backwards)
    if factor is not None:  # two-state rows a @ (W F)^*, rho_f = F F^dagger
        a = (a.reshape(-1, model.dim) @ _in_frame(model, factor).conj()).reshape(*a.shape[:2], -1)
    return a


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
    """Upper-triangle pairs of a functional matrix, one array entry per pair.

    ``at_floor`` marks the measures at or below a positive rounding floor.
    """

    i: np.ndarray
    j: np.ndarray
    value: np.ndarray
    measure: np.ndarray
    threshold: np.ndarray
    passed: np.ndarray
    ratio: np.ndarray
    at_floor: np.ndarray

    def verdict(self) -> str:
        if self.passed.all():
            return "decoherent"
        return "marginal" if self.ratio.max() <= MARGINAL_FACTOR else "not_decoherent"


def _measure(model: QuantumModel, rows: np.ndarray, scale: float, strength: str,
             tolerance: TolerancePolicy, row: int | None = None) -> tuple[np.ndarray, _PairArrays]:
    """The Gram D of branch ``rows`` and every pair i < j measured against its threshold and floor.

    Measures and thresholds are on the normalized scale (D / scale), with the
    threshold of :meth:`TolerancePolicy.pair_threshold` and ratio inf where
    the threshold is zero.  The rounding floor is gamma_n sqrt(p_h p_h'): an
    entry is an inner product of ``row`` numbers (default: a row's; a
    two-state row F^dagger L_h C keeps that of L_h C) of rows that the walk
    built with two products of length d per family, a two-state factor or
    amplitude and its carry into the table's frame adding one each; its
    error is about gamma_n sqrt(D_ii D_jj) for n the summed lengths (Higham,
    *Accuracy and Stability of Numerical Algorithms*, section 3.1).
    """
    d = _gram(rows)
    gamma = _gamma((rows[0].size if row is None else row) + 2 * (model.n_families + 1) * model.dim)
    i, j = np.triu_indices(d.shape[0], 1)
    value = d[i, j]
    measure = (np.abs(value.real) if strength == "weak" else np.abs(value)) / scale
    p = np.maximum(d.diagonal().real / scale, 0.0)
    root = np.sqrt(p[i] * p[j])
    threshold = np.maximum(tolerance.abs, tolerance.rel * root)
    ratio = np.divide(measure, threshold, out=np.full_like(measure, np.inf),
                      where=threshold > 0)
    at_floor = (measure <= gamma * root) & (root > 0)
    return d, _PairArrays(i, j, value, measure, threshold, measure <= threshold, ratio, at_floor)


def _classify(model: QuantumModel, rows: np.ndarray | None, scale: float, strength: str,
              tolerance: TolerancePolicy | None, direction: str, row: int | None = None,
              measured: tuple[np.ndarray, _PairArrays] | None = None) -> DecoherenceReport:
    """Classify the set of branch ``rows``, or their ``measured`` Gram and pairs (:func:`_measure`).

    Pair work over the memory budget is refused before the labels are built.
    """
    tolerance = tolerance or TolerancePolicy()
    d, arrays = measured or _measure(model, rows, scale, strength, tolerance, row)
    histories = model.history_labels()
    classification = arrays.verdict()
    diagonals = d.diagonal().real
    probabilities = None
    if classification == "decoherent":
        probabilities = {
            h: _clamp_probability(p, f"probability of {h}")
            for h, p in zip(histories, (diagonals / scale).tolist())
        }
    return DecoherenceReport(
        direction=direction,
        strength=strength,
        classification=classification,
        histories=histories,
        diagonals=dict(zip(histories, diagonals.tolist())),
        _arrays=arrays,
        probabilities=probabilities,
        tolerance=tolerance,
        normalization=scale,
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
    return _classify(model, _rows(model, direction == "backwards"), 1.0, strength, tolerance,
                     direction)


def _coerce_initial_state(rho_i, dim: int) -> StateOperator:
    """``rho_i`` as a :class:`StateOperator` of the model's dimension."""
    state = rho_i if isinstance(rho_i, StateOperator) else StateOperator(rho_i)
    if state.dim != dim:
        raise ModelValidationError(
            f"initial state dimension {state.dim} does not match model dimension {dim}"
        )
    return state


def _coerce_final_operator(rho_f, dim: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Validate a final operator (Hermitian PSD, any trace); return it, read where it lies, and F.

    F, with rho_f = F F^dagger, is None for the identity (whose rows are the branch table), a
    :class:`StateOperator`'s ``columns``, the certified factor at any rank, or else eigh's columns.
    Hermiticity allows max |m - m^dagger| up to ATOL_MODEL or, if larger, the rounding of a
    computed outer product fl(v v^dagger), 2 sqrt(2) gamma_2 |v_i||v_j| <= 2 sqrt(2) gamma_2
    max_i |m_ii|, so an operator of large trace is not rejected for its rounding.
    """
    state = isinstance(rho_f, StateOperator)
    m = rho_f.rho if state else linalg.read_matrix(rho_f, "final operator")
    if m.shape != (dim, dim):
        raise ModelValidationError(f"final operator shape {m.shape} does not match dimension {dim}")
    if state:
        return m, rho_f.columns
    floor = 2.0 * math.sqrt(2.0) * _gamma(2) * float(np.abs(m.diagonal()).max(initial=0.0))
    tol = max(ATOL_MODEL, floor)
    h, defect = linalg.hermitian_part(m, tol)
    if defect > tol:
        raise ModelValidationError("final operator must be Hermitian")
    if (h.diagonal() == 1.0).all() and np.count_nonzero(h) == dim:  # the identity
        return m, None
    factor = _psd_columns(h)
    if factor is None:
        factor = _eigh(h, "final operator must be positive semidefinite")[2]
    return m, factor


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
    rho_i = _coerce_initial_state(rho_i, model.dim)
    rho_f, factor = _coerce_final_operator(rho_f, model.dim)
    norm = _two_state_normalization(rho_i, rho_f)
    return _classify(model, _rows(model, rho_i=rho_i, factor=factor), norm, strength, tolerance,
                     "two_state", rho_i.columns.size)


def two_state_functional(rho_i, rho_f, model: QuantumModel, h, h_prime) -> complex:
    """Tr(rho_f L_h rho_i L_h'^dagger) for independent initial/final operators.

    ``rho_f`` must be Hermitian positive semidefinite but need not be
    normalized (the identity is a valid choice, reducing the functional to
    the forwards one).  Raises if Tr(rho_f rho_i) vanishes.

    The value is the inner product of the two histories' rows F^dagger L C.
    Each call factors ``rho_f``, and an ``rho_i`` whose columns differ from
    the model state's walks the whole branch table, so callers that need
    many values build the whole functional once with
    :func:`check_two_state_decoherence`.
    """
    rho_i = _coerce_initial_state(rho_i, model.dim)
    rho_f, factor = _coerce_final_operator(rho_f, model.dim)
    _two_state_normalization(rho_i, rho_f)
    rows = _branch_table(model, rho_i.columns)[[_row(model, h), _row(model, h_prime)]]
    a, b = rows if factor is None else rows @ _in_frame(model, factor).conj()
    return complex(np.vdot(b, a))


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

        A merged member is the sum of its fine members: its factor is their
        factors side by side, and every family is validated in full
        (:meth:`ProjectorFamily._from_factors`).
        """
        return model._derive([
            ProjectorFamily._from_factors(fam.time_index, {
                label: np.concatenate([fam._factors[fam._index(str(m))] for m in block], axis=1)
                for label, block in mapping.items()})
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
        failed = [name for name, rep in (("forwards", fwd), ("backwards", bwd)) if not rep.decoherent]
        return BothConditionsReport(False, f"not applicable: {' and '.join(failed)} "
                                           "weak decoherence fails", fwd, bwd)
    cols = model.initial_state.columns  # Tr(L_h rho) = <C, L_h C> for rho = C C^dagger
    chain = _overlaps(model, cols, cols, 0)
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
    contributes only its families and dynamics; the rows <psi|L_h|psi> give D = amp amp^dagger.
    Values within ``TABLE_ATOL`` of 0 or 1, and of their amplitudes, count as such.
    """
    state = StateOperator.from_vector(linalg.as_vector(psi, "psi"))
    amps = _overlaps(model, state.columns, state.columns, 0)  # F = C = psi: <psi, L_h psi>
    report = _classify(model, amps[:, None], _two_state_normalization(state, state.rho),
                       "weak", tolerance, "two_state")
    probs = np.abs(amps) ** 2
    amplitudes, probabilities = (dict(zip(report.histories, a.tolist())) for a in (amps, probs))
    if not report.decoherent:
        return TrivialityReport(False, report.classification, probabilities, amplitudes)
    defect = float(np.maximum(np.abs(probs - amps.real), np.abs(amps.imag)).max())
    trivial = bool(np.all(np.minimum(probs, np.abs(1.0 - probs)) <= TABLE_ATOL))
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
    projectors B P^* B^dagger under the original labels, built from the
    reversed factors B Q_a^* (:meth:`ProjectorFamily._from_factors`).  Applying
    the operation twice returns the original set.
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
        factors = {label: b @ q.conj() for label, q in zip(fam.labels, fam._factors)}
        placed.append((j, k, ProjectorFamily._from_factors(j, factors)))
    placed.sort(key=lambda item: item[0])
    return TimeReversedSet(model._derive([fam for _, _, fam in placed]),
                           tuple((new_idx, orig_idx) for new_idx, (_, orig_idx, _) in enumerate(placed)))


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
    rho_i = _coerce_initial_state(rho_i, model.dim)
    rho_f, factor = _coerce_final_operator(rho_f, model.dim)
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
    norm = _two_state_normalization(rho_i, rho_f)  # both sets from the operators checked above
    original, mirrored = (_classify(m, _rows(m, False, rho_i, factor), norm, "weak", tolerance,
                                    "two_state", rho_i.columns.size)
                          for m in (model, reversed_set.model))
    if not (original.decoherent and mirrored.decoherent):
        which = [name for name, rep in (("original set", original), ("time-reversed set", mirrored))
                 if not rep.decoherent]
        return PageReport(preconditions, True, original, mirrored, False,
                          f"two-state decoherence fails for: {', '.join(which)}")
    diff = max(
        abs(original.probabilities[h] - mirrored.probabilities[reversed_set.reversed_history(h)])
        for h in original.probabilities
    )
    return PageReport(preconditions, True, original, mirrored, True,
                      "preconditions and both decoherence conditions hold",
                      max_table_difference=diff, passed=diff <= TABLE_ATOL)
