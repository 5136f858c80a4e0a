"""Dense complex linear algebra primitives.

Everything in this module operates on plain ``numpy.ndarray`` values with
``complex128`` dtype.  Matrices are dense and row-major; no sparsity or
arbitrary-precision support is attempted (dimensions up to about 1024).
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import ModelValidationError

__all__ = ["exp_generator", "herm_eig"]

# Elementwise tolerance admitted on |A - A^dagger| for "Hermitian" inputs.
ATOL_HERMITIAN = 1e-12
# Elementwise tolerance on |U U^dagger - I| for "unitary" inputs.
ATOL_UNITARY = 1e-10
# c in :func:`defect`'s bound c max(|Re z|, |Im z|) on the computed |z|: sqrt(2) plus 4 ulps.
_MODULUS_BOUND = math.sqrt(2.0) * (1.0 + 4.0 * np.finfo(float).eps)
_RESIDUAL_BLOCK = 2**14  # entries of a residual formed at a time
_SMALLEST_NORMAL = float(np.finfo(float).tiny)
# Largest |Re z| and |Im z| of an input entry: a product of two is at most 1e200,
# so no sum of such products overflows and validation raises no numpy warning.
LARGEST_ENTRY = 1e100


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex array (always a fresh copy)."""
    return _finite_matrix(np.array(a, dtype=complex), name)


def read_matrix(a, name: str = "matrix") -> np.ndarray:
    """:func:`as_matrix` for an input that is read and not kept: no copy of a complex array."""
    return _finite_matrix(np.asarray(a, dtype=complex), name)


def _finite_matrix(m: np.ndarray, name: str) -> np.ndarray:
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    _check_entries(m, name)
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce ``a`` to a finite 1-D complex array (always a fresh copy)."""
    v = np.array(a, dtype=complex).reshape(-1)
    if v.size == 0:
        raise ValueError(f"{name} is empty")
    _check_entries(v, name)
    return v


def _float_view(a: np.ndarray) -> np.ndarray | None:
    """The float64 view (real and imaginary parts side by side) of a non-empty complex128 array.

    None when ``a`` is empty, 0-dimensional, of another dtype, or its last axis is not contiguous.
    """
    if a.dtype != np.complex128 or a.size == 0 or a.ndim == 0 or a.strides[-1] != a.itemsize:
        return None
    return a.view(np.float64)


def _check_entries(a: np.ndarray, name: str) -> None:
    """Raise ModelValidationError unless every real and imaginary part of ``a`` is within +-``LARGEST_ENTRY``.

    From the max and min of the float view, or else of the real and imaginary
    parts, with no temporary: a NaN propagates to both and fails either comparison.
    """
    v = _float_view(a)
    if not all(-LARGEST_ENTRY <= part.min(initial=0.0) and part.max(initial=0.0) <= LARGEST_ENTRY
               for part in ((a.real, a.imag) if v is None else (v,))):
        what = ("non-finite entries" if not np.isfinite(a).all()
                else f"a real or imaginary part beyond {LARGEST_ENTRY:.0e}")
        raise ModelValidationError(f"{name} contains {what}")


def max_abs(a) -> float:
    """Largest entry magnitude; 0.0 for empty arrays."""
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


def defect(a: np.ndarray, tol: float) -> float:
    """max |a| where it exceeds ``tol``; otherwise it or a bound on it at most ``tol``.

    For a defect that only meets a tolerance: ``defect(a, tol) <= tol``
    exactly when ``max_abs(a) <= tol``, and above ``tol`` the two are equal,
    so a warning or an error prints the exact value.  The bound is
    B = fl(c m) with m = max(|Re z|, |Im z|) over the entries, from two
    reductions of the float view and no temporary, and c = ``_MODULUS_BOUND``.
    When B > ``tol``, or the view is missing (:func:`_float_view`), or
    m is not finite, or 0 < m < the smallest normal float, the result is
    ``max_abs(a)``.

    B dominates the computed ``np.abs(a).max()``, not only the exact modulus.
    With u = 2^-53 the unit roundoff, every |z| <= sqrt(2) m, and numpy's
    complex absolute value of a normal result errs by at most 4u relative:
    libm's hypot by under one ulp (2u); numpy's vector loop, l sqrt(1 + r^2)
    with r = s / l for l, s the larger and smaller of |Re z| and |Im z| and
    1 + r^2 one fused multiply-add, by about 3u (Higham, *Accuracy and
    Stability of Numerical Algorithms*, section 3.1).  c = fl(fl(sqrt 2)
    (1 + 8u)) >= sqrt(2) (1 - u)^2 (1 + 8u) >= sqrt(2) (1 + 5.9u), so for a
    normal m, B >= c m (1 - u) >= sqrt(2) m (1 + 4.8u) >= (1 + 4u) sqrt(2) m,
    at least every computed |z|.  Subnormal m, where rounding errs by an
    absolute ulp, takes the exact path; m = 0 gives B = 0 = max |a|.
    """
    v = _float_view(a)
    if v is not None:
        m = abs(max(float(v.max()), -float(v.min())))  # NaN if any entry is NaN
        bound = _MODULUS_BOUND * m
        if bound <= tol and (m >= _SMALLEST_NORMAL or m == 0.0):
            return bound
    return max_abs(a)


def times_conj(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """a @ u^*, conjugating the smaller operand: (a^* u)^* is a u^* bit for bit."""
    if a.size >= u.size:
        return a @ u.conj()
    out = a.conj() @ u
    return np.conjugate(out, out=out)


def unitarity_defect(u: np.ndarray, tol: float) -> float:
    """:func:`defect` of U U^dagger - I for a square U, the identity taken off the product's diagonal."""
    g = u @ u.conj().T
    g[np.diag_indices_from(g)] -= 1.0
    return defect(g, tol)


def is_unitary(a: np.ndarray) -> bool:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return unitarity_defect(a, ATOL_UNITARY) <= ATOL_UNITARY


def hermitian_part(m: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """(m + m^dagger) / 2 of a finite square m, in one new array, and its Hermiticity :func:`defect`.

    m^dagger is taken once, in one strided pass, into the array that becomes
    the result.  The defect max |m - m^dagger| is read against ``tol`` from
    m^dagger - m (negation is exact), formed ``_RESIDUAL_BLOCK`` entries at a
    time: the largest block value is a bound at most ``tol`` when every
    block's is, and otherwise the exact defect, since a block that exceeds
    ``tol`` returns its exact value and every other block's exact value is at
    most ``tol``.  Then h += m; h /= 2 gives (m^dagger + m) / 2, bit for bit
    (m + m^dagger) / 2 since IEEE addition commutes.
    """
    h = np.conjugate(m.T, order="C")
    n = m.shape[0]
    rows = max(1, _RESIDUAL_BLOCK // max(1, n))
    block = np.empty((min(rows, n), n), dtype=complex)
    worst = 0.0
    for i in range(0, n, rows):
        top = h[i:i + rows]
        worst = max(worst, defect(np.subtract(top, m[i:i + rows], out=block[:len(top)]), tol))
    h += m
    h /= 2.0
    return h, worst


def _fix_eigenvector_phases(v: np.ndarray) -> np.ndarray:
    # Make the largest-magnitude component of each column real and positive,
    # so eigenvectors are deterministic across runs (outside degeneracies).
    for j in range(v.shape[1]):
        col = v[:, j]
        i = int(np.argmax(np.abs(col)))
        pivot = col[i]
        if abs(pivot) > 0.0:
            v[:, j] = col * (abs(pivot) / pivot)
    return v


def herm_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and unitary ``v``
    satisfying ``a = v @ diag(w) @ v.conj().T``.  Eigenvector phases are fixed
    by making the largest-magnitude component of each column real-positive.

    Raises ``ValueError`` if ``a`` deviates from Hermiticity by more than
    ``ATOL_HERMITIAN`` elementwise.
    """
    m = as_matrix(a, "herm_eig input")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"herm_eig requires a square matrix, got shape {m.shape}")
    h, worst = hermitian_part(m, ATOL_HERMITIAN)
    if worst > ATOL_HERMITIAN:
        raise ValueError(f"matrix is not Hermitian (max |A - A^dagger| = {worst:.3e})")
    w, v = np.linalg.eigh(h)
    return w, _fix_eigenvector_phases(v)


def exp_generator(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary exp(-i h t) for a Hermitian generator h.

    Computed through the eigendecomposition of ``h``, so the result is unitary
    to the accuracy of the eigensolver.
    """
    w, v = herm_eig(h)
    return (v * np.exp(-1j * w * float(t))) @ v.conj().T
