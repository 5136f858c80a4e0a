"""Model layer: states, projector families, time grids and time reversal.

A :class:`QuantumModel` bundles everything the history calculus consumes: an
initial density operator at the first grid time, per-interval step unitaries,
exhaustive orthogonal projector families attached to interior grid times, and
the unitary basis in which the antiunitary time reversal conjugates.

All objects validate their invariants at construction and are immutable
afterwards (stored arrays are marked read-only), so they are safe to share
across threads.  A model keeps one copy of each stored input (state, step
unitaries, a conjugation basis given to it) and one factor per family
member; the identities, W(t_0) = 1 and the default conjugation basis, are
built when first read, and final operators, which no model keeps, are read
where they lie; family members and a grid's products of steps are built on
each read and not kept.  States move by
:meth:`TimeGrid.carry`, one step at a time (a walk level of more than d
rows takes the segment product).  The lazily computed values, the
identities, a state's spectrum and a model's own branch tables (one per
direction, memoised by :mod:`decohist.histories`), are deterministic:
threads that read one first at the same moment may each compute it, and
they obtain identical arrays.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .bounds import _BOUND_SLACK, _UNIT_ROUNDOFF, _factor_bounds, _factor_columns, _gamma
from .exceptions import ModelValidationError

__all__ = [
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
]

# Validation tolerance on state / projector / unitarity invariants.  Defects
# within 10x of it only warn, since user-supplied matrices accumulate rounding.
ATOL_MODEL = 1e-10
WARN_FACTOR = 10.0
TIME_ATOL = 1e-9  # grid times this close count as the same time (mirror and centre lookups)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check(defect: float, what: str, stacklevel: int = 3) -> None:
    if defect <= ATOL_MODEL:
        return
    if defect <= WARN_FACTOR * ATOL_MODEL:
        warnings.warn(f"{what}: defect {defect:.3e} exceeds {ATOL_MODEL:.1e}", stacklevel=stacklevel)
        return
    raise ModelValidationError(f"{what}: defect {defect:.3e} exceeds {ATOL_MODEL:.1e}")


SPECTRAL_CUTOFF = 1e-14  # eigenvalues (residual diagonals) at or below it are null
# Allowance for eigh's eigenvalue error, in units of d u max|lambda|: on random PSD
# operators of rank 1 to d (d = 2 to 256, traces up to 1e12) the most negative
# eigenvalue was -1.45 units.
_EIGH_SLACK = 10.0


def _cholesky_rows(h: np.ndarray) -> np.ndarray:
    """Rows c_k^T of a factor h ~ sum_k c_k c_k^dagger, one per pivot above the cutoff.

    Pivoted Cholesky of the Hermitian ``h`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, section 10.3): the largest residual diagonal is the next pivot until it is
    at most ``SPECTRAL_CUTOFF``, so rank r takes r pivots at any r, O(r^2 d).  Each pivot is one
    matrix-vector product, which OpenBLAS splits between threads by rows, so the rows are the
    same at any BLAS thread count.  Below full rank they are copied out of the d x d buffer.
    """
    d = h.shape[0]
    rows = np.empty((d, d), dtype=complex)
    diag = h.diagonal().real.copy()  # the residual diagonal
    for k in range(d):
        q = int(np.argmax(diag))
        pivot = diag[q]
        if not pivot > SPECTRAL_CUTOFF:
            return rows[:k].copy()
        col = h[q].conj() - rows[:k].T @ rows[:k, q].conj()
        col *= 1.0 / math.sqrt(pivot)
        rows[k] = col
        diag -= col.real ** 2 + col.imag ** 2
        diag[q] = 0.0  # exactly zero in exact arithmetic; never a pivot again
    return rows


def _psd_columns(h: np.ndarray) -> np.ndarray | None:
    """Columns C with h = C C^dagger and a proof that h is PSD, or None.

    C comes from :func:`_cholesky_rows`, at any rank.  For the remainder S = h - C C^dagger,
    formed a block of rows at a time so that no second d x d array is held beside h, Weyl's
    inequality gives lambda_min(h) >= -||S||_F.  Forming S in floating point errs by at most
    sqrt(2) gamma_{r+2} || |C| |C|^T ||_F + u ||S||_F for r columns and unit
    roundoff u (Higham, *Accuracy and Stability of Numerical Algorithms*,
    sections 3.6 and 10.3), and || |C| |C|^T ||_F is at most ||C||_F times
    min(||C||_F, sqrt(||C||_1 ||C||_inf)).  When ||S||_F plus that allowance
    is at most ATOL_MODEL / 2, h is PSD to within half the eigenvalue rule's
    tolerance.  The other half covers the eigensolver's own error, taken as
    d u tr h (||h||_2 <= tr h + d ATOL_MODEL / 2 for such an h).  None, for the
    caller to decide by eigenvalues, means that estimate exceeds its half (a
    large trace, read before any pivot) or the certificate does (negative
    eigenvalues inside the tolerance).
    """
    if h.shape[0] * _UNIT_ROUNDOFF * float(h.diagonal().real.sum()) > ATOL_MODEL / 2:
        return None
    c = _cholesky_rows(h)
    c_norm = float(np.linalg.norm(c))
    s_sq, block, c_conj = 0.0, max(1, linalg._RESIDUAL_BLOCK // h.shape[0]), c.conj()
    for i in range(0, h.shape[0], block):
        s = c.T[i:i + block] @ c_conj  # -S, one block of rows
        s -= h[i:i + block]
        s_sq += float(np.vdot(s, s).real)
        del s  # before the next block is formed
    s_norm = math.sqrt(s_sq)
    a = np.abs(c)
    norm_1, norm_inf = a.sum(axis=1).max(initial=0.0), a.sum(axis=0).max(initial=0.0)
    abs_norm = min(c_norm, math.sqrt(norm_1 * norm_inf))
    n = (c.shape[0] + 2) * _UNIT_ROUNDOFF
    allowance = math.sqrt(2.0) * n / (1.0 - n) * abs_norm * c_norm + _UNIT_ROUNDOFF * s_norm
    return c.T if s_norm + allowance <= ATOL_MODEL / 2 else None


def _eigen_floor(w: np.ndarray) -> float:
    """max(ATOL_MODEL, ``_EIGH_SLACK`` d u max|lambda|): eigenvalues ``w`` (ascending) this near 0 are 0.

    The second term is ``eigh``'s own error: it is exact for h + E with
    ||E||_2 about d u ||h||_2, which moves each eigenvalue by at most ||E||_2
    (Weyl), so a large-trace operator is not misjudged; a state's floor is ATOL_MODEL.
    """
    return max(ATOL_MODEL, _EIGH_SLACK * w.size * _UNIT_ROUNDOFF * max(-w[0], w[-1]))


def _eigh(h: np.ndarray,
          error: str = "state operator is not positive semidefinite (min eigenvalue {:.3e})"):
    """Read-only eigenvalues (ascending), eigenvectors and ``eigen_columns`` of the Hermitian ``h``.

    A smallest eigenvalue below -:func:`_eigen_floor` raises ``error``, formatted with it.
    """
    w, v = np.linalg.eigh(h)
    if w[0] < -_eigen_floor(w):
        raise ModelValidationError(error.format(w[0]))
    keep = w > SPECTRAL_CUTOFF
    return _freeze(w), _freeze(v), _freeze(v[:, keep] * np.sqrt(w[keep]))


def as_state_vector(psi) -> np.ndarray:
    """Validate a unit-norm complex vector and return a read-only copy."""
    v = linalg.as_vector(psi, "state vector")
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-12:
        raise ModelValidationError(f"state vector is not normalized: ||psi|| = {nrm!r}")
    return _freeze(v)


class StateOperator:
    """Density operator: Hermitian, unit trace, positive semidefinite.

    ``purity()`` gives Tr(rho^2), and ``is_pure()`` tests it against 1 to within ``ATOL_MODEL``.
    ``columns`` is a read-only factor C with rho = C C^dagger, one column per unit of numerical
    rank r: the pivoted Cholesky factor (:func:`_cholesky_rows`, O(r^2 d) at any rank, the same
    at any BLAS thread count) when its residual certifies positivity (:func:`_psd_columns`),
    else ``eigen_columns()``.  A state built :meth:`from_vector` stores the vector as ``vector``
    (None otherwise) and its one column is that vector itself.  ``eigenvalues`` (ascending),
    ``eigenvectors`` and ``eigen_columns()`` come from one ``eigh`` of (rho + rho^dagger) / 2,
    run at construction when the certificate fails, else on first read, and kept read-only.
    """

    def __init__(self, rho):
        m = linalg.as_matrix(rho, "state operator")
        if m.shape[0] != m.shape[1]:
            raise ModelValidationError(f"state operator must be square, got {m.shape}")
        h, defect = linalg.hermitian_part(m, ATOL_MODEL)
        _check(defect, "state operator Hermiticity")
        _check(abs(complex(np.trace(m)) - 1.0), "state operator trace")
        self.rho = _freeze(m)
        cols = _psd_columns(h)
        if cols is None:
            self._spectrum = _eigh(h)
        self.columns = _freeze(self.eigen_columns() if cols is None else cols)
        self.vector: np.ndarray | None = None  # set when built from a vector

    @classmethod
    def from_vector(cls, psi) -> "StateOperator":
        """The pure state |psi><psi|, whose one column is psi itself.

        ``columns`` is ``vector[:, None]`` and rho the computed outer product
        fl(v v^dagger), with no check and no ``eigh``, since none could fail.
        Each entry is one complex product, within sqrt(2) gamma_2 |v_i||v_j|
        of v_i v_j^* (Higham, *Accuracy and Stability of Numerical
        Algorithms*, lemma 3.5), so rho is Hermitian to within
        2 sqrt(2) gamma_2 |v_i||v_j|, about 6e-16, and its trace, by the norm
        check of :func:`as_state_vector` (||v|| within 1e-12 of 1), within
        2.1e-12 + gamma_{d+2} of 1: both far inside ``ATOL_MODEL``.  The
        Hermitian part H = (rho + rho^dagger) / 2, whose ``eigh`` gives the
        spectrum on first read, adds a rounding of u, so each entry of
        H - v v^dagger is at most (sqrt(2) gamma_2 + u (1 + sqrt(2) gamma_2))
        |v_i||v_j| and, by Weyl's inequality, lambda_min(H) >=
        -|| |H - v v^dagger| ||_2 >= -4.3e-16 ||v||^2: positive semidefinite
        well within the eigenvalue rule's tolerance.
        """
        v = as_state_vector(psi)
        state = cls.__new__(cls)
        state.rho = _freeze(np.outer(v, v.conj()))
        state.columns = _freeze(v[:, None])
        state.vector = v
        return state

    def _hermitian(self) -> np.ndarray:
        return linalg.hermitian_part(self.rho, ATOL_MODEL)[0]

    @functools.cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _eigh(self._hermitian())

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._spectrum[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._spectrum[1]

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
        """Tr(rho^2), the squared Frobenius norm of C^dagger C."""
        g = self.columns.conj().T @ self.columns
        return float(np.vdot(g, g).real)

    def is_pure(self) -> bool:
        return abs(self.purity() - 1.0) <= ATOL_MODEL

    def eigen_columns(self) -> np.ndarray:
        """Columns v_k sqrt(lambda_k) spanning the support of rho.

        The density operator equals C @ C.conj().T for the returned C;
        eigenvalues at or below ``SPECTRAL_CUTOFF`` are dropped as null
        directions.  A validated state has unit trace, so at least one
        column remains.
        """
        return self._spectrum[2]

    def __repr__(self) -> str:  # pragma: no cover
        return f"StateOperator(dim={self.dim}, purity={self.purity():.6f})"


class TimeGrid:
    """Strictly increasing times with one step unitary per interval; :meth:`carry` moves states."""

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
            _check(linalg.unitarity_defect(u, ATOL_MODEL), f"step unitary {i} unitarity")
        self.times = _freeze(t)
        self.step_unitaries = tuple(_freeze(u) for u in steps)

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

        W(t_0) is the identity, built on first read and kept; any later
        W(t_k) is :meth:`segment` (0, k), multiplied out on each read and not
        kept.  All are read-only.
        """
        if not 0 <= k < self.n_times:
            raise IndexError(f"grid index {k} out of range [0, {self.n_times})")
        return self.segment(0, k) if k else self._identity

    @functools.cached_property
    def _identity(self) -> np.ndarray:
        return _freeze(np.eye(self.dim, dtype=complex))

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

    def carry(self, rows: np.ndarray, a: int, b: int) -> np.ndarray:
        """Rows (transposed columns v) at grid index a carried to grid index b.

        The columns become W(t_b <- t_a) v for a < b and W(t_a <- t_b)^dagger v for
        a > b; for a = b the rows come back as they are.  A block of at most d rows
        takes one step at a time, k r d^2 over k steps, never more than the
        (k - 1) d^3 + r d^2 of forming the segment; a larger block, such as a level
        of many nodes, takes the segment product (:meth:`segment`).
        """
        if not (0 <= a < self.n_times and 0 <= b < self.n_times):
            raise IndexError(f"grid carry ({a}, {b}) out of range [0, {self.n_times})")
        lo, hi = sorted((a, b))
        steps = self.step_unitaries[lo:hi]
        if len(steps) > 1 and rows.shape[0] > self.dim:
            steps = (self.segment(lo, hi),)
        for u in (steps if a < b else steps[::-1]):
            rows = rows @ u.T if a < b else linalg.times_conj(rows, u)
        return rows


def _hermiticity_defect(p: np.ndarray) -> float:
    """max |P - P^dagger|, from one contiguous P^dagger taken in one strided pass."""
    h = np.conjugate(p.T, order="C")
    h -= p
    return linalg.max_abs(h)


def _member_factors(projectors, pivots) -> list[np.ndarray]:
    """Q_a with Q_a Q_a^dagger ~ P_a for each member of a family that passed.

    The member's (Q_a, residual) from :meth:`ProjectorFamily._bound_defects`
    when ||Q_a Q_a^dagger - P_a||_F <= ``ATOL_MODEL``, else the one :func:`_psd_columns`
    certifies for h = (P_a + P_a^dagger) / 2, else h's spectral columns v sqrt(lambda),
    lambda > ``SPECTRAL_CUTOFF``: an uncertified pivoted factor need not be near P_a.
    """
    factors = []
    for p, (q, residual) in zip(projectors, pivots):
        if not residual <= ATOL_MODEL:  # as for equal pivot columns
            h = (p + p.conj().T) / 2.0
            if (q := _psd_columns(h)) is None:
                w, v = linalg.herm_eig(h)
                q = v[:, w > SPECTRAL_CUTOFF] * np.sqrt(w[w > SPECTRAL_CUTOFF])
        factors.append(q)
    return factors


class ProjectorFamily:
    """Labeled orthogonal projectors that sum to the identity.

    Each member must be idempotent and Hermitian, members must be mutually
    orthogonal, and the family must be exhaustive; all within ``ATOL_MODEL``
    elementwise (near-violations inside 10x the tolerance only warn).

    Each member is factored once, P_a ~ Q_a Q_a^dagger: a known Q_a of
    :meth:`_from_factors` as it is, else the static-pivot factor.  A family
    whose completeness defect is within the tolerance is offered, whatever
    its size, to the factor certificate: since Q = [Q_1 ... Q_n] is square,
    ||Q^dagger Q - I||_2 = ||Q Q^dagger - I||_2 bounds every cross block
    Q_a^dagger Q_b without a pair product (see
    :func:`decohist.bounds._factor_bounds`).  The certificate is all or
    nothing: when its largest bound (pairs, idempotence and Hermiticity) is
    within the tolerance, the family is certified and forms no other defect;
    otherwise the dense rule decides every check (see :meth:`_bound_defects`).
    Each bound is on its check as the dense rule computes it, so the checks
    report in the dense order (Hermiticity and idempotence per member, then
    the pairs, then completeness) with the verdicts, messages and warnings
    of forming every product.

    Validation reads the caller's matrices without copying them.  A family
    keeps only a read-only factor Q_a per member (d x r_a, about d^2 numbers
    in all), whichever proof decides: the one it was validated with when
    ||Q_a Q_a^dagger - P_a||_F <= ``ATOL_MODEL``, as every known or certified
    factor is, else a certified or spectral one (:func:`_member_factors`).
    :meth:`apply` applies a member as Q_a (Q_a^dagger x), and ``projectors``
    and :meth:`member` build Q_a Q_a^dagger on each read and keep none, so
    they and a dump and reload agree with the input to the tolerance (bit for
    bit from known factors).
    """

    def __init__(self, time_index: int, members):
        self._validate(time_index, members, None)

    def _validate(self, time_index: int, members, columns) -> None:
        """Validate ``members`` and keep the given factors ``columns``, or else factors of them."""
        level = 4 if columns is None else 5  # warnings name who called __init__, or _from_factors' caller
        members = list(members)
        if not members:
            raise ModelValidationError("projector family needs at least one member")
        labels = []
        projectors = []  # the caller's matrices, read where they lie
        for label, p in members:
            labels.append(str(label))
            projectors.append(linalg._finite_matrix(np.asarray(p, dtype=complex), f"projector {label!r}"))
        if len(set(labels)) != len(labels):
            raise ModelValidationError(f"duplicate member labels in family: {labels}")
        dim = projectors[0].shape[0]
        n_square = next((a for a, p in enumerate(projectors) if p.shape != (dim, dim)), len(projectors))
        if n_square == len(projectors):
            herm, idem, orth, complete, pivots, certified = self._bound_defects(projectors, columns)
        else:
            herm = [_hermiticity_defect(p) for p in projectors[:n_square]]
            idem = [math.inf] * n_square
        for a, (label, p) in enumerate(zip(labels, projectors)):
            if a == n_square:
                raise ModelValidationError(f"projector {label!r} has shape {p.shape}, expected {(dim, dim)}")
            _check(herm[a], f"projector {label!r} Hermiticity", level)
            if not idem[a] <= ATOL_MODEL:
                _check(linalg.defect(p @ p - p, ATOL_MODEL), f"projector {label!r} idempotence", level)
        for (a, b), defect in orth.items():
            _check(defect, f"orthogonality of projectors {labels[a]!r}, {labels[b]!r}", level)
        _check(complete, "family completeness (sum of projectors vs identity)", level)
        self.time_index = int(time_index)
        self.labels = tuple(labels)
        self.certified = certified  # whether the factor certificate proved every check
        self._factors = tuple(map(_freeze, _member_factors(projectors, pivots)))

    @staticmethod
    def _bound_defects(projectors, columns):
        """Hermiticity defects, idempotence bounds, pair defects, completeness, (Q_a, residual)s, certified.

        Each member is factored once: a given Q_a of ``columns`` with residual 0
        and no product, since its member is fl(Q_a Q_a^dagger) itself, else the
        static-pivot factor and residual of :func:`decohist.bounds._factor_columns`
        (no columns and inf if it fails).  A family, of any size, whose completeness
        defect is at most ``ATOL_MODEL`` is offered to
        :func:`decohist.bounds._factor_bounds` with those pairs.  When its bound
        is at most ``ATOL_MODEL`` too, it stands for every Hermiticity and
        idempotence defect and no pair is listed.  Otherwise the dense rule
        forms every Hermiticity defect and pair product, and bounds each
        member's idempotence defect: with C = sum_b P_b - I, the exact identity
        P_a^2 - P_a = P_a C - sum_{b != a} P_a P_b bounds it by the pair
        products and C; for b < a, P_a P_b comes from the computed P_b P_a
        through P_a P_b = (P_b P_a)^dagger + P_a^dagger H_b + H_a P_b,
        H = P - P^dagger.  Row and column 2-norms bound every rounding error,
        that of the dense check p @ p - p included (Higham, *Accuracy and
        Stability of Numerical Algorithms*, section 3.1: sqrt(2) gamma_{d+2}
        per complex inner product of length d), so a member whose bound is at
        most ``ATOL_MODEL`` would pass the dense check silently.
        """
        n, d = len(projectors), projectors[0].shape[0]
        c = projectors[0].copy()  # C, summed in the order of sum(projectors) - I
        for p in projectors[1:]:
            c += p
        c[np.diag_indices(d)] -= 1.0
        complete, c_norm = linalg.max_abs(c), math.sqrt(np.vdot(c, c).real)
        pivots = ([(q, 0.0) for q in columns] if columns else  # C's array is their work space
                  [_factor_columns(p, c) or (p[:, :0], math.inf) for p in projectors])
        del c
        bound = _factor_bounds(pivots, c_norm) if complete <= ATOL_MODEL else math.inf
        if bound <= ATOL_MODEL:
            return [bound] * n, [bound] * n, {}, complete, pivots, True
        herm = [_hermiticity_defect(p) for p in projectors]
        squares = (np.square(p.real) + np.square(p.imag) for p in projectors)  # one at a time
        rows, cols = np.sqrt([(s.sum(axis=1).max(initial=0.0), s.sum(axis=0).max(initial=0.0))
                              for s in squares]).T
        g = math.sqrt(2.0) * _gamma(d + 2)  # rounding of one complex inner product
        herm_cols = math.sqrt(d) * np.asarray(herm)  # bounds every row and column 2-norm of H
        others = np.zeros(n)  # per member a, bounds on the exact max |P_a P_b| summed over b != a
        orth = {}
        for a, b in itertools.combinations(range(n), 2):
            orth[a, b] = linalg.max_abs(projectors[a] @ projectors[b])
            ab = orth[a, b] + g * rows[a] * cols[b]
            # P_b P_a = (P_a P_b)^dagger + P_b^dagger H_a + H_b P_a
            others[a] += ab
            others[b] += ab + cols[b] * herm_cols[a] + herm_cols[b] * cols[a]
        # Column 2-norms of the exact C: the computed one's, plus the rounding of
        # its n-term sum, at most sqrt(2) gamma_n (sum_b |P_b| + I) elementwise.
        c_cols = math.sqrt(d) * complete + math.sqrt(2.0) * _gamma(n) * (cols.sum() + 1.0)
        idem = _BOUND_SLACK * (rows * c_cols + others + g * rows * cols)
        return herm, idem, orth, complete, pivots, False

    def _index(self, label_or_index) -> int:
        if isinstance(label_or_index, (int, np.integer)):
            return int(label_or_index)
        try:
            return self.labels.index(str(label_or_index))
        except ValueError:
            raise KeyError(f"no member {label_or_index!r} in family with labels {self.labels}") from None

    @classmethod
    def from_basis(cls, time_index: int, basis: np.ndarray, blocks) -> "ProjectorFamily":
        """Family of projectors onto column spans of a unitary ``basis``.

        ``blocks`` maps labels to lists of column indices; together they
        must name every column exactly once.  The columns B_a of each block
        are the member's factor (:meth:`_from_factors`), kept bit for bit.
        """
        b = linalg.as_matrix(basis, "basis")
        blocks = {label: list(idx) for label, idx in dict(blocks).items()}
        seen = sorted(k for idx in blocks.values() for k in idx)  # repeats kept
        if seen != list(range(b.shape[1])):
            raise ModelValidationError(f"blocks do not partition basis columns: {seen}")
        return cls._from_factors(time_index, {label: b[:, idx] for label, idx in blocks.items()})

    @classmethod
    def _from_factors(cls, time_index: int, factors) -> "ProjectorFamily":
        """Members fl(Q_a Q_a^dagger), validated as any family's, keeping ``factors`` (label -> new Q_a)."""
        family = cls.__new__(cls)
        family._validate(time_index, [(label, q @ q.conj().T) for label, q in factors.items()],
                         list(factors.values()))
        return family

    @property
    def dim(self) -> int:
        return self._factors[0].shape[0]

    def __len__(self) -> int:
        return len(self.labels)

    def member(self, label_or_index) -> np.ndarray:
        """The member's projector Q_a Q_a^dagger, built on this read, read-only and not kept."""
        q = self._factors[self._index(label_or_index)]
        return _freeze(q @ q.conj().T)

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        return tuple(map(self.member, range(len(self))))

    def apply(self, index: int, x: np.ndarray, rows: bool = False) -> np.ndarray:
        """P_a x for columns x (d x k), or x P_a^T for rows x (k x d), the transposed columns.

        The member is applied as Q_a (Q_a^dagger x), two products of d r_a k
        each, and P_a is not formed.
        """
        q = self._factors[index]
        return linalg.times_conj(x, q) @ q.T if rows else q @ linalg.times_conj(x.T, q).T


class QuantumModel:
    """A finite-dimensional model: state, dynamics, and projector families.

    ``families`` sit at strictly increasing interior grid times.  The
    ``conjugation_basis`` declares the basis in which time reversal conjugates
    (defaults to the computational basis, i.e. the identity, built when first
    read); it must be a symmetric or antisymmetric unitary, so that time
    reversal is an involution.  ``factors`` optionally records a tensor-factor
    structure of the Hilbert space.
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
        if conjugation_basis is not None:
            basis = _basis_for(conjugation_basis, (grid.dim,), 1, f"dimension {grid.dim}")
            # Time reversal is an involution only when B B^* = +-1.
            _check(min(linalg.defect(basis - basis.T, ATOL_MODEL),
                       linalg.defect(basis + basis.T, ATOL_MODEL)),
                   "conjugation basis symmetry (B = B^T or B = -B^T)")
            self.conjugation_basis = _freeze(basis)  # shadows the default identity
        if factors is not None:
            factors = tuple(int(d) for d in factors)
            if int(np.prod(factors)) != grid.dim:
                raise ModelValidationError(
                    f"factors {factors} do not multiply to dimension {grid.dim}"
                )
        self.initial_state = initial_state
        self.grid = grid
        self.families = families
        self.factors = factors
        self._tables: dict[bool, np.ndarray] = {}  # read-only branch tables, keyed by backwards

    @functools.cached_property
    def conjugation_basis(self) -> np.ndarray:
        """The default basis, the identity, built on first read and kept read-only."""
        return _freeze(np.eye(self.dim, dtype=complex))

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
    w = model.grid.cumulative(fam.time_index)
    return w.conj().T @ fam.member(member) @ w


def evolve_state(model: QuantumModel, to_index: int) -> StateOperator:
    """State at grid time ``to_index``: W rho(t_0) W^dagger, no collapses (:func:`_states_at`)."""
    return next(_states_at(model, (to_index,)))


def _states_at(model: QuantumModel, indices):
    """The states at grid ``indices``, each carried on from the last by :meth:`TimeGrid.carry`.

    A state built from a vector moves the vector (weight 1); any other, the eigenvectors V
    of its eigenvalues lambda beyond ``SPECTRAL_CUTOFF`` in magnitude.  The new state,
    validated like any other, is (W V) diag(lambda) (W V)^dagger: the negative eigenvalues
    that validation let through, which ``columns`` leaves out, keep their share of the
    trace.  At t_0 it is the initial state itself.
    """
    state, at = model.initial_state, 0
    if state.vector is None:
        keep = np.abs(state.eigenvalues) > SPECTRAL_CUTOFF
        rows, weights = state.eigenvectors[:, keep].T, state.eigenvalues[keep]
    else:
        rows, weights = state.vector[None], np.ones(1)
    for k in indices:
        rows, at = model.grid.carry(rows, at, k), k
        yield state if k == 0 else StateOperator((rows.T * weights) @ rows.conj())


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
    return StateOperator(reduced) if is_state else reduced


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
    return _reverse_in_basis(op, _basis_for(conjugation_basis, op.shape, 2, f"operand shape {op.shape}"))


def _basis_for(conjugation_basis, shape: tuple, axes: int, what: str) -> np.ndarray:
    """Unitary ``conjugation_basis`` B, checked to act on the first ``axes`` axes of ``shape`` (``what``)."""
    b = linalg.as_matrix(conjugation_basis, "conjugation basis")
    if b.shape[0] != b.shape[1] or shape[:axes] != (b.shape[0],) * axes:
        raise ModelValidationError(f"conjugation basis shape {b.shape} does not match {what}")
    if not linalg.is_unitary(b):
        raise ModelValidationError("conjugation basis must be unitary")
    return b


def _reverse_in_basis(op: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """B op^* B^dagger for a basis already validated, such as a model's."""
    return basis @ op.conj() @ basis.conj().T


def time_reverse_vector(psi: np.ndarray, conjugation_basis=None) -> np.ndarray:
    """Antiunitary image B psi^* of a state vector."""
    psi = np.asarray(psi, dtype=complex)
    if conjugation_basis is None:
        return psi.conj()
    return _basis_for(conjugation_basis, psi.shape, 1, f"operand shape {psi.shape}") @ psi.conj()


def time_reverse_state(state: StateOperator, conjugation_basis=None) -> StateOperator:
    """Time-reversed density operator B rho^* B^dagger.

    Preserves trace, Hermiticity and positivity; fixes operators that are
    real in the conjugation basis.
    """
    rho = state.rho if isinstance(state, StateOperator) else linalg.as_matrix(state, "state")
    return StateOperator(time_reverse_operator(rho, conjugation_basis))


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


def _dynamics_symmetry_defect(model: QuantumModel, center_index: int) -> tuple[float, float, str]:
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
    if grid_defect > TIME_ATOL:
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
    state_defect = linalg.max_abs(rho_c - _reverse_in_basis(rho_c, model.conjugation_basis))
    if state_defect > ATOL_MODEL:
        return TimeSymmetryResult(
            False, f"state not time-symmetric at center: defect {state_defect:.3e}",
            grid_defect=grid_defect, dynamics_defect=dyn_defect, state_defect=state_defect,
        )
    return TimeSymmetryResult(True, "time-symmetric about the center time",
                              grid_defect=grid_defect, dynamics_defect=dyn_defect,
                              state_defect=state_defect)
