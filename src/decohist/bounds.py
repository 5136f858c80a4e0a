"""Rigorous rounding bounds for validation, and the factor certificate of projector families.

The bounds follow Higham, *Accuracy and Stability of Numerical Algorithms*,
section 3.1, with u the unit roundoff.  :func:`_factor_bounds` bounds every
dense check of a projector family at once, from one factor per member and
no pair product; when that one bound meets the tolerance the family is
certified whole (see :class:`decohist.model.ProjectorFamily`).
"""

from __future__ import annotations

import math

import numpy as np

__all__: list[str] = []

_UNIT_ROUNDOFF = np.finfo(float).eps / 2
# Relative allowance for the rounding of the family bounds' own arithmetic:
# each sums and multiplies a few nonnegative floats, every one within a
# relative (d^2 + 4) u of the quantity it stands for (a Frobenius norm sums
# d^2 squares).
_BOUND_SLACK = 1.001


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), the n-operation rounding constant."""
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


def _factor_columns(p: np.ndarray, idx: np.ndarray) -> np.ndarray | None:
    """Q = P[:, idx] L^{-dagger}, L L^dagger = P[idx, idx], built 16 pivots b at a time.

    Each step appends Y L_b^{-dagger} for the residual columns
    Y = P[:, b] - Q Q[b]^dagger and the Cholesky factor L_b of Y[b]'s
    Hermitian part.  None if a block is not positive definite or Q not finite.
    """
    q = np.empty((p.shape[0], idx.size), dtype=complex)
    for k in range(0, idx.size, 16):
        b = idx[k:k + 16]
        y = p[:, b]
        if k:
            y -= q[:, :k] @ q[b, :k].conj().T
        h = y[b]
        try:
            low = np.linalg.cholesky((h + h.conj().T) / 2.0)
        except np.linalg.LinAlgError:
            return None
        block = q[:, k:k + b.size]
        np.matmul(y, np.linalg.inv(low).conj().T, out=block)
        if not np.isfinite(block).all():
            return None
    return q


def _factor_bounds(projectors, c_norm: float, work: np.ndarray) -> tuple[list[np.ndarray], float] | None:
    """The factors Q_a of a family and the largest of its bounds on the dense checks, or None.

    The bound covers every max |P_a P_b| (a != b), max |P_a^2 - P_a| and
    max |P_a - P_a^dagger|, each as the dense check computes it, so when it
    is at most the tolerance every check would pass silently; ``c_norm`` is
    the computed ||C||_F, C = sum_b P_b - I.  Member a is factored through
    its r_a = round(tr P_a) largest diagonal entries (:func:`_factor_columns`);
    the proof uses the computed Q_a (d x r_a) as it is.  E_a = Q_a Q_a^dagger - P_a,
    formed in ``work``, has ||E_a||_F <= e_a: its computed norm (1 + 4u) plus
    sqrt(2) gamma_{r_a+2} ||Q_a||_F^2 for the product's rounding.  When the
    ranks sum to d, Q = [Q_1 ... Q_n] is square, so
    ||Q^dagger Q - I||_2 = ||Q Q^dagger - I||_2 = ||C + sum_a E_a||_2 <= eps
    = ||C||_F + sum_a e_a, with ||C||_F at most c_norm plus
    sqrt(2) gamma_n (sum_b ||P_b||_F + sqrt(d)) for the rounding of its sum
    and ||P_b||_F <= ||Q_b||_F^2 + e_b.  eps bounds every block
    Q_a^dagger Q_b and Q_a^dagger Q_a - I, so ||Q_a||_2 <= sqrt(1 + eps), and
    with rho_a the largest row 2-norm of Q_a, s_a = rho_a sqrt(1 + eps)
    bounds every row and column 2-norm of Q_a Q_a^dagger and w_a = s_a + e_a
    those of P_a.  Then P_a P_b = Q_a (Q_a^dagger Q_b) Q_b^dagger
    - Q_a Q_a^dagger E_b - E_a Q_b Q_b^dagger + E_a E_b gives, elementwise,
    |P_a P_b| <= rho_a rho_b eps + s_a e_b + e_a s_b + e_a e_b; P_a^2 - P_a
    adds E_a to the same expansion with b = a; each bound adds
    sqrt(2) gamma_{d+2} w_a w_b for the dense product's rounding.  And
    P_a - P_a^dagger = E_a^dagger - E_a gives 2 (1 + u) e_a.  None when
    the ranks do not sum to d, a factor fails, or eps is not finite.
    """
    n, d = len(projectors), projectors[0].shape[0]
    ranks = [round(float(np.trace(p).real)) for p in projectors]
    if sum(ranks) != d or min(ranks) < 0:
        return None
    rho, e, q_frob, factors = np.zeros(n), np.zeros(n), np.zeros(n), []
    for a, (p, r) in enumerate(zip(projectors, ranks)):
        # pivots by Python's stable sort: no other validation step runs numpy's
        # sort kernels, whose code would add about 0.1 MiB of resident pages
        diag = p.diagonal().real.tolist()
        q = _factor_columns(p, np.array(sorted(range(d), key=diag.__getitem__, reverse=True)[:r],
                                        dtype=np.intp))
        if q is None:
            return None
        factors.append(q)
        q_rows = (np.square(q.real) + np.square(q.imag)).sum(axis=1)
        np.matmul(q, q.conj().T, out=work)
        work -= p
        q_frob[a] = q_rows.sum()
        e[a] = ((1.0 + 4.0 * _UNIT_ROUNDOFF) * float(np.linalg.norm(work))
                + math.sqrt(2.0) * _gamma(r + 2) * q_frob[a])
        rho[a] = math.sqrt(q_rows.max(initial=0.0))
    c_frob = c_norm + math.sqrt(2.0) * _gamma(n) * (float((q_frob + e).sum()) + math.sqrt(d))
    eps = c_frob + float(e.sum())
    if not math.isfinite(eps):
        return None
    s = rho * math.sqrt(1.0 + eps)
    w = s + e
    bounds = (np.outer(rho, rho) * eps + np.outer(s, e) + np.outer(e, s) + np.outer(e, e)
              + math.sqrt(2.0) * _gamma(d + 2) * np.outer(w, w))
    bounds[np.diag_indices(n)] += e
    return factors, max(_BOUND_SLACK * float(bounds.max()),
                        _BOUND_SLACK * 2.0 * (1.0 + _UNIT_ROUNDOFF) * float(e.max()))
