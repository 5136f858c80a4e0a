"""Dense complex linear algebra primitives.

Everything in this module operates on plain ``numpy.ndarray`` values with
``complex128`` dtype.  Matrices are dense and row-major; no sparsity or
arbitrary-precision support is attempted (dimensions up to about 1024).
"""

from __future__ import annotations

import numpy as np

__all__ = ["exp_generator", "herm_eig", "kron", "trace"]

# Elementwise tolerance admitted on |A - A^dagger| for "Hermitian" inputs.
ATOL_HERMITIAN = 1e-12
# Elementwise tolerance on |U U^dagger - I| for "unitary" inputs.
ATOL_UNITARY = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex array (always a fresh copy)."""
    return _finite_matrix(np.array(a, dtype=complex), name)


def read_matrix(a, name: str = "matrix") -> np.ndarray:
    """:func:`as_matrix` for an input that is read and not kept: no copy of a complex array."""
    return _finite_matrix(np.asarray(a, dtype=complex), name)


def _finite_matrix(m: np.ndarray, name: str) -> np.ndarray:
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce ``a`` to a finite 1-D complex array (always a fresh copy)."""
    v = np.array(a, dtype=complex).reshape(-1)
    if v.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def max_abs(a) -> float:
    """Largest entry magnitude; 0.0 for empty arrays."""
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


def trace(a: np.ndarray) -> complex:
    """Trace of a square matrix."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"trace requires a square matrix, got shape {a.shape}")
    return complex(np.trace(a))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, (a ⊗ b)[i*rb+k, j*cb+l] = a[i,j] b[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def unitarity_defect(u: np.ndarray) -> float:
    """max |U U^dagger - I| of a square U, the identity taken off the product's diagonal in place."""
    g = u @ u.conj().T
    g[np.diag_indices_from(g)] -= 1.0
    return max_abs(g)


def is_unitary(a: np.ndarray) -> bool:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return unitarity_defect(a) <= ATOL_UNITARY


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
    defect = max_abs(m - m.conj().T)
    if defect > ATOL_HERMITIAN:
        raise ValueError(f"matrix is not Hermitian (max |A - A^dagger| = {defect:.3e})")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return w, _fix_eigenvector_phases(v)


def exp_generator(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary exp(-i h t) for a Hermitian generator h.

    Computed through the eigendecomposition of ``h``, so the result is unitary
    to the accuracy of the eigensolver.
    """
    w, v = herm_eig(h)
    return (v * np.exp(-1j * w * float(t))) @ v.conj().T
