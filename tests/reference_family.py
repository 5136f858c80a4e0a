"""Dense reference for projector-family validation.

This is the rule ``ProjectorFamily`` applied before it proved idempotence
from the orthogonality products: every invariant is formed as a d x d
array and compared elementwise with the tolerance, member by member
(Hermiticity, then idempotence), then pair by pair, then completeness.
It shares no code with ``decohist.model``, which the tests compare against
it.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np

from decohist.exceptions import ModelValidationError

ATOL = 1e-10
WARN_FACTOR = 10.0


def _max_abs(a: np.ndarray) -> float:
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


def _check(defect: float, what: str) -> None:
    if defect <= ATOL:
        return
    if defect <= WARN_FACTOR * ATOL:
        warnings.warn(f"{what}: defect {defect:.3e} exceeds {ATOL:.1e}", stacklevel=3)
        return
    raise ModelValidationError(f"{what}: defect {defect:.3e} exceeds {ATOL:.1e}")


def dense_family_check(members) -> None:
    """Validate (label, matrix) members as the dense rule does; raise or warn."""
    members = list(members)
    if not members:
        raise ModelValidationError("projector family needs at least one member")
    labels = [str(label) for label, _ in members]
    projectors = [np.array(p, dtype=complex) for _, p in members]
    if len(set(labels)) != len(labels):
        raise ModelValidationError(f"duplicate member labels in family: {labels}")
    dim = projectors[0].shape[0]
    for label, p in zip(labels, projectors):
        if p.shape != (dim, dim):
            raise ModelValidationError(f"projector {label!r} has shape {p.shape}, expected {(dim, dim)}")
        _check(_max_abs(p - p.conj().T), f"projector {label!r} Hermiticity")
        _check(_max_abs(p @ p - p), f"projector {label!r} idempotence")
    for (la, pa), (lb, pb) in itertools.combinations(zip(labels, projectors), 2):
        _check(_max_abs(pa @ pb), f"orthogonality of projectors {la!r}, {lb!r}")
    _check(_max_abs(sum(projectors) - np.eye(dim)),
           "family completeness (sum of projectors vs identity)")
