"""Model layer: states, projector families, time grids and time reversal.

A :class:`QuantumModel` bundles everything the history calculus consumes: an
initial density operator at the first grid time, per-interval step unitaries,
exhaustive orthogonal projector families attached to interior grid times, and
the unitary basis in which the antiunitary time reversal conjugates.

All objects validate their invariants at construction and are immutable
afterwards (stored arrays are marked read-only), so they are safe to share
across threads.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import ModelValidationError

__all__ = [
    "ProjectorFamily",
    "QuantumModel",
    "StateOperator",
    "TimeGrid",
    "TimeSymmetryResult",
    "as_state_vector",
    "evolve_state",
    "heisenberg_projector",
    "is_time_symmetric",
    "partial_trace",
    "time_reverse_operator",
    "time_reverse_state",
    "time_reverse_vector",
]

# Validation tolerance on state / projector / unitarity invariants.  Defects
# within 10x of it only warn, since user-supplied matrices accumulate rounding.
ATOL_MODEL = 1e-10
WARN_FACTOR = 10.0


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check(defect: float, what: str, atol: float = ATOL_MODEL) -> None:
    if defect <= atol:
        return
    if defect <= WARN_FACTOR * atol:
        warnings.warn(f"{what}: defect {defect:.3e} exceeds {atol:.1e}", stacklevel=3)
        return
    raise ModelValidationError(f"{what}: defect {defect:.3e} exceeds {atol:.1e}")


def as_state_vector(psi, name: str = "state vector", atol: float = 1e-12) -> np.ndarray:
    """Validate a unit-norm complex vector and return a read-only copy."""
    v = linalg.as_vector(psi, name)
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > atol:
        raise ModelValidationError(f"{name} is not normalized: ||psi|| = {nrm!r}")
    return _freeze(v)


class StateOperator:
    """Density operator: Hermitian, unit trace, positive semidefinite.

    ``purity_hint`` records whether the operator was constructed from a state
    vector; ``purity()`` gives the actual Tr(rho^2).  The operator is
    diagonalised once, at construction: ``eigenvalues`` (ascending) and
    ``eigenvectors`` (columns) feed every later spectral query.
    """

    def __init__(self, rho, purity_hint: bool = False):
        m = linalg.as_matrix(rho, "state operator")
        if m.shape[0] != m.shape[1]:
            raise ModelValidationError(f"state operator must be square, got {m.shape}")
        _check(linalg.max_abs(m - m.conj().T), "state operator Hermiticity")
        _check(abs(complex(np.trace(m)) - 1.0), "state operator trace")
        w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
        if w[0] < -ATOL_MODEL:
            raise ModelValidationError(
                f"state operator is not positive semidefinite (min eigenvalue {w[0]:.3e})"
            )
        self.rho = _freeze(m)
        self.eigenvalues = _freeze(w)
        self.eigenvectors = _freeze(v)
        self.purity_hint = bool(purity_hint)
        self.vector: np.ndarray | None = None  # set when built from a vector

    @classmethod
    def from_vector(cls, psi) -> "StateOperator":
        v = as_state_vector(psi)
        state = cls(np.outer(v, v.conj()), purity_hint=True)
        state.vector = v
        return state

    def state_vector(self) -> np.ndarray:
        """A unit vector representing a pure state (exact if one was stored)."""
        if self.vector is not None:
            return self.vector
        if not self.is_pure():
            raise ModelValidationError(
                f"state with purity {self.purity():.6f} has no state vector"
            )
        return self.eigenvectors[:, -1]

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    def purity(self) -> float:
        return float(self.eigenvalues @ self.eigenvalues)

    def is_pure(self, atol: float = ATOL_MODEL) -> bool:
        return abs(self.purity() - 1.0) <= atol

    def eigen_columns(self, cutoff: float = 1e-14) -> np.ndarray:
        """Columns v_k sqrt(lambda_k) spanning the support of rho.

        The density operator equals C @ C.conj().T for the returned C;
        eigenvalues at or below ``cutoff`` are dropped as null directions.
        A validated state has unit trace, so at least one column remains.
        """
        keep = self.eigenvalues > cutoff
        return self.eigenvectors[:, keep] * np.sqrt(self.eigenvalues[keep])

    def __repr__(self) -> str:  # pragma: no cover
        return f"StateOperator(dim={self.dim}, purity={self.purity():.6f})"


class TimeGrid:
    """Strictly increasing times with one step unitary per interval."""

    def __init__(self, times, step_unitaries):
        t = np.asarray(times, dtype=float).reshape(-1)
        if t.size < 2:
            raise ModelValidationError("time grid needs at least two times")
        if not np.all(np.diff(t) > 0):
            raise ModelValidationError(f"grid times must be strictly increasing: {t.tolist()}")
        steps = [linalg.as_matrix(u, f"step unitary {i}") for i, u in enumerate(step_unitaries)]
        if len(steps) != t.size - 1:
            raise ModelValidationError(
                f"need {t.size - 1} step unitaries for {t.size} times, got {len(steps)}"
            )
        dim = steps[0].shape[0]
        for i, u in enumerate(steps):
            if u.shape != (dim, dim):
                raise ModelValidationError(f"step unitary {i} has shape {u.shape}, expected {(dim, dim)}")
            _check(linalg.max_abs(u @ u.conj().T - np.eye(dim)), f"step unitary {i} unitarity")
        self.times = _freeze(t)
        self.step_unitaries = tuple(_freeze(u) for u in steps)
        self._cumulative: list[np.ndarray] = [_freeze(np.eye(dim, dtype=complex)),
                                              self.step_unitaries[0]]

    @classmethod
    def from_generators(cls, times, generators) -> "TimeGrid":
        """Build the grid from per-interval Hermitian generators h_i.

        Each step becomes exp(-i h_i dt_i) with dt_i the interval length.
        """
        t = np.asarray(times, dtype=float).reshape(-1)
        steps = [
            linalg.exp_generator(h, t[i + 1] - t[i]) for i, h in enumerate(generators)
        ]
        return cls(t, steps)

    @property
    def dim(self) -> int:
        return self.step_unitaries[0].shape[0]

    @property
    def n_times(self) -> int:
        return int(self.times.size)

    def cumulative(self, k: int) -> np.ndarray:
        """W(t_k <- t_0), the ordered product of the first k step unitaries.

        W(t_1) is the first step itself; later products are computed once
        and kept read-only.
        """
        if not 0 <= k < self.n_times:
            raise IndexError(f"grid index {k} out of range [0, {self.n_times})")
        while len(self._cumulative) <= k:
            j = len(self._cumulative)
            w = self.step_unitaries[j - 1] @ self._cumulative[j - 1]
            self._cumulative.append(_freeze(w))
        return self._cumulative[k]

    def segment(self, a: int, b: int) -> np.ndarray:
        """W(t_b <- t_a), the ordered product of the steps between grid indices a < b.

        A one-step segment is the step itself; a longer one multiplies the
        steps out, latest leftmost, without passing through W(t_a).
        """
        if not 0 <= a < b < self.n_times:
            raise IndexError(f"grid segment ({a}, {b}) out of range [0, {self.n_times})")
        w = self.step_unitaries[a]
        for u in self.step_unitaries[a + 1:b]:
            w = u @ w
        return _freeze(w)


class ProjectorFamily:
    """Labeled orthogonal projectors that sum to the identity.

    Each member must be idempotent and Hermitian, members must be mutually
    orthogonal, and the family must be exhaustive; all within ``ATOL_MODEL``
    elementwise (near-violations inside 10x the tolerance only warn).
    """

    def __init__(self, time_index: int, members):
        members = list(members)
        if not members:
            raise ModelValidationError("projector family needs at least one member")
        labels = []
        projectors = []
        for label, p in members:
            labels.append(str(label))
            projectors.append(linalg.as_matrix(p, f"projector {label!r}"))
        if len(set(labels)) != len(labels):
            raise ModelValidationError(f"duplicate member labels in family: {labels}")
        dim = projectors[0].shape[0]
        for label, p in zip(labels, projectors):
            if p.shape != (dim, dim):
                raise ModelValidationError(f"projector {label!r} has shape {p.shape}, expected {(dim, dim)}")
            _check(linalg.max_abs(p - p.conj().T), f"projector {label!r} Hermiticity")
            _check(linalg.max_abs(p @ p - p), f"projector {label!r} idempotence")
        for (la, pa), (lb, pb) in itertools.combinations(zip(labels, projectors), 2):
            _check(linalg.max_abs(pa @ pb), f"orthogonality of projectors {la!r}, {lb!r}")
        _check(
            linalg.max_abs(sum(projectors) - np.eye(dim)),
            "family completeness (sum of projectors vs identity)",
        )
        self.time_index = int(time_index)
        self.labels = tuple(labels)
        self.projectors = tuple(_freeze(p) for p in projectors)

    @classmethod
    def from_basis(cls, time_index: int, basis: np.ndarray, blocks) -> "ProjectorFamily":
        """Family of projectors onto column spans of a unitary ``basis``.

        ``blocks`` maps labels to index sets; the sets must partition the
        column indices.
        """
        b = linalg.as_matrix(basis, "basis")
        members = []
        seen: set[int] = set()
        for label, idx in dict(blocks).items():
            idx = list(idx)
            cols = b[:, idx]
            members.append((label, cols @ cols.conj().T))
            seen.update(idx)
        if sorted(seen) != list(range(b.shape[1])):
            raise ModelValidationError(f"blocks do not partition basis columns: {sorted(seen)}")
        return cls(time_index, members)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    def __len__(self) -> int:
        return len(self.projectors)

    def member(self, label_or_index) -> np.ndarray:
        if isinstance(label_or_index, (int, np.integer)):
            return self.projectors[int(label_or_index)]
        try:
            return self.projectors[self.labels.index(str(label_or_index))]
        except ValueError:
            raise KeyError(f"no member {label_or_index!r} in family with labels {self.labels}") from None


class QuantumModel:
    """A finite-dimensional model: state, dynamics, and projector families.

    ``families`` sit at strictly increasing interior grid times.  The
    ``conjugation_basis`` declares the basis in which time reversal conjugates
    (defaults to the computational basis, i.e. the identity); it must be a
    symmetric or antisymmetric unitary, so that time reversal is an
    involution.  ``factors`` optionally records a tensor-factor structure of
    the Hilbert space.
    """

    def __init__(self, initial_state: StateOperator, grid: TimeGrid, families,
                 conjugation_basis=None, factors=None):
        if not isinstance(initial_state, StateOperator):
            initial_state = StateOperator(initial_state)
        if initial_state.dim != grid.dim:
            raise ModelValidationError(
                f"state dimension {initial_state.dim} does not match grid dimension {grid.dim}"
            )
        families = tuple(families)
        previous = None
        for f in families:
            if not isinstance(f, ProjectorFamily):
                raise ModelValidationError("families must be ProjectorFamily instances")
            if f.dim != grid.dim:
                raise ModelValidationError(
                    f"family dimension {f.dim} does not match grid dimension {grid.dim}"
                )
            if not 0 < f.time_index < grid.n_times - 1:
                raise ModelValidationError(
                    f"family time index {f.time_index} must lie strictly inside the grid"
                )
            if previous is not None and f.time_index <= previous:
                raise ModelValidationError("family time indices must be strictly increasing")
            previous = f.time_index
        if conjugation_basis is None:
            basis = np.eye(grid.dim, dtype=complex)
        else:
            basis = linalg.as_matrix(conjugation_basis, "conjugation basis")
            if basis.shape != (grid.dim, grid.dim):
                raise ModelValidationError(
                    f"conjugation basis shape {basis.shape} does not match dimension {grid.dim}"
                )
            if not linalg.is_unitary(basis):
                raise ModelValidationError("conjugation basis must be unitary")
            # Time reversal is an involution only when B B^* = +-1.
            _check(min(linalg.max_abs(basis - basis.T), linalg.max_abs(basis + basis.T)),
                   "conjugation basis symmetry (B = B^T or B = -B^T)")
        if factors is not None:
            factors = tuple(int(d) for d in factors)
            if int(np.prod(factors)) != grid.dim:
                raise ModelValidationError(
                    f"factors {factors} do not multiply to dimension {grid.dim}"
                )
        self.initial_state = initial_state
        self.grid = grid
        self.families = families
        self.conjugation_basis = _freeze(basis)
        self.factors = factors

    def _derive(self, families, grid: TimeGrid | None = None) -> "QuantumModel":
        """A model with this one's state, conjugation basis and factors.

        The grid (this model's by default) and the families are validated as
        in the constructor; the basis, validated here, is reused as it is.
        """
        derived = QuantumModel(self.initial_state, self.grid if grid is None else grid,
                               families, None, self.factors)
        derived.conjugation_basis = self.conjugation_basis
        return derived

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def n_families(self) -> int:
        return len(self.families)

    def family_times(self) -> tuple[float, ...]:
        return tuple(float(self.grid.times[f.time_index]) for f in self.families)

    def history_labels(self) -> list[tuple[str, ...]]:
        """All histories as label tuples, lexicographic in the multi-index."""
        return [tuple(h) for h in itertools.product(*[f.labels for f in self.families])]

    def history_indices(self, history) -> tuple[int, ...]:
        """Resolve a label tuple to per-family member indices."""
        history = tuple(history)
        if len(history) != self.n_families:
            raise ValueError(
                f"history {history} has {len(history)} labels, model has {self.n_families} families"
            )
        out = []
        for f, label in zip(self.families, history):
            if str(label) not in f.labels:
                raise KeyError(f"label {label!r} not in family labels {f.labels}")
            out.append(f.labels.index(str(label)))
        return tuple(out)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"QuantumModel(dim={self.dim}, times={self.grid.times.tolist()}, "
            f"families={[f.labels for f in self.families]})"
        )


def heisenberg_projector(model: QuantumModel, family_index: int, member) -> np.ndarray:
    """Projector of family ``family_index`` conjugated back to the initial time.

    Returns W^dagger P W with W the cumulative unitary from the first grid
    time to the family's time.  The result is again an orthogonal projector.
    """
    fam = model.families[family_index]
    p = fam.member(member)
    w = model.grid.cumulative(fam.time_index)
    out = w.conj().T @ p @ w
    return out


def evolve_state(model: QuantumModel, to_index: int) -> StateOperator:
    """State at grid time ``to_index``: W rho(t_0) W^dagger, no collapses."""
    w = model.grid.cumulative(to_index)
    rho = w @ model.initial_state.rho @ w.conj().T
    return StateOperator(rho, purity_hint=model.initial_state.purity_hint)


def partial_trace(state, dims, keep):
    """Reduced operator over the kept tensor factors.

    ``dims`` lists the factor dimensions (their product must equal the total
    dimension); ``keep`` is a factor index or a collection of them.  Accepts a
    :class:`StateOperator` or a bare matrix and returns the same kind.
    """
    is_state = isinstance(state, StateOperator)
    rho = state.rho if is_state else linalg.as_matrix(state, "operator")
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ValueError(f"factor dimensions {dims} inconsistent with operator shape {rho.shape}")
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    keep = tuple(sorted(int(k) for k in keep))
    n = len(dims)
    if any(not 0 <= k < n for k in keep) or len(set(keep)) != len(keep):
        raise ValueError(f"invalid keep specification {keep} for {n} factors")
    t = rho.reshape(dims + dims)
    row_idx = list(range(n))
    col_idx = [i if i not in keep else n + i for i in range(n)]
    out_idx = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(t, row_idx + col_idx, out_idx)
    d_keep = int(np.prod([dims[k] for k in keep]))
    reduced = reduced.reshape(d_keep, d_keep)
    return StateOperator(reduced, purity_hint=False) if is_state else reduced


def time_reverse_operator(op: np.ndarray, conjugation_basis=None) -> np.ndarray:
    """Antiunitary image B op^* B^dagger of an operator.

    ``conjugation_basis`` B fixes the basis in which entrywise conjugation is
    taken; identity (the default) conjugates in the computational basis.
    Applied twice the map gives (B B^*) op (B B^*)^dagger, so it is involutive
    exactly when B B^* = +-1, i.e. when the unitary B is symmetric (T^2 = 1,
    as for the default) or antisymmetric (T^2 = -1, e.g. i sigma_y).
    ``QuantumModel`` accepts only such bases.
    """
    op = np.asarray(op, dtype=complex)
    if conjugation_basis is None:
        return op.conj()
    b = linalg.as_matrix(conjugation_basis, "conjugation basis")
    if not linalg.is_unitary(b):
        raise ModelValidationError("conjugation basis must be unitary")
    return b @ op.conj() @ b.conj().T


def time_reverse_vector(psi: np.ndarray, conjugation_basis=None) -> np.ndarray:
    """Antiunitary image B psi^* of a state vector."""
    psi = np.asarray(psi, dtype=complex)
    if conjugation_basis is None:
        return psi.conj()
    b = linalg.as_matrix(conjugation_basis, "conjugation basis")
    if not linalg.is_unitary(b):
        raise ModelValidationError("conjugation basis must be unitary")
    return b @ psi.conj()


def time_reverse_state(state: StateOperator, conjugation_basis=None) -> StateOperator:
    """Time-reversed density operator B rho^* B^dagger.

    Preserves trace, Hermiticity and positivity; fixes operators that are
    real in the conjugation basis.
    """
    rho = state.rho if isinstance(state, StateOperator) else linalg.as_matrix(state, "state")
    return StateOperator(time_reverse_operator(rho, conjugation_basis),
                         purity_hint=getattr(state, "purity_hint", False))


@dataclass(frozen=True)
class TimeSymmetryResult:
    """Outcome of a time-symmetry probe: verdict plus a human-readable reason."""

    symmetric: bool
    diagnostic: str
    grid_defect: float = 0.0
    dynamics_defect: float = 0.0
    state_defect: float = 0.0

    def __bool__(self) -> bool:
        return self.symmetric


def _dynamics_symmetry_defect(model: QuantumModel, center_index: int,
                              time_atol: float = 1e-9) -> tuple[float, float, str]:
    """Grid and step mirror defects about a center index.

    The j-th step after the center must equal B S^T B^dagger of the j-th step
    before it (the reflected propagator traverses the mirror interval in the
    opposite direction, which transposes it in the conjugation basis).
    """
    times = model.grid.times
    n = times.size
    if not 0 <= center_index < n:
        raise IndexError(f"center index {center_index} out of range")
    if center_index != n - 1 - center_index:
        return float("inf"), float("inf"), "grid asymmetric: center is not the middle time"
    b = model.conjugation_basis
    grid_defect = 0.0
    dyn_defect = 0.0
    for j in range(1, center_index + 1):
        dt_before = times[center_index] - times[center_index - j]
        dt_after = times[center_index + j] - times[center_index]
        grid_defect = max(grid_defect, abs(dt_after - dt_before))
        step_after = model.grid.step_unitaries[center_index + j - 1]
        step_before = model.grid.step_unitaries[center_index - j]
        mirrored = b @ step_before.T @ b.conj().T
        dyn_defect = max(dyn_defect, linalg.max_abs(step_after - mirrored))
    if grid_defect > time_atol:
        return grid_defect, dyn_defect, f"grid asymmetric: spacing defect {grid_defect:.3e}"
    if dyn_defect > ATOL_MODEL:
        return grid_defect, dyn_defect, f"dynamics asymmetric: step defect {dyn_defect:.3e}"
    return grid_defect, dyn_defect, ""


def is_time_symmetric(model: QuantumModel, center_index: int) -> TimeSymmetryResult:
    """Probe whether the model is time-symmetric about a central grid time.

    Checks three things: the grid times mirror about the center, each step
    after the center is the reflected image of its partner before it, and the
    state evolved to the center is fixed by time reversal.  Never raises; a
    failing probe carries a diagnostic naming the first broken condition.
    """
    try:
        grid_defect, dyn_defect, why = _dynamics_symmetry_defect(model, center_index)
    except IndexError as exc:
        return TimeSymmetryResult(False, str(exc))
    if why:
        return TimeSymmetryResult(False, why, grid_defect=grid_defect, dynamics_defect=dyn_defect)
    rho_c = evolve_state(model, center_index).rho
    state_defect = linalg.max_abs(rho_c - time_reverse_operator(rho_c, model.conjugation_basis))
    if state_defect > ATOL_MODEL:
        return TimeSymmetryResult(
            False, f"state not time-symmetric at center: defect {state_defect:.3e}",
            grid_defect=grid_defect, dynamics_defect=dyn_defect, state_defect=state_defect,
        )
    return TimeSymmetryResult(True, "time-symmetric about the center time",
                              grid_defect=grid_defect, dynamics_defect=dyn_defect,
                              state_defect=state_defect)
