"""Slow reference evaluator for the decoherence functionals.

Builds one Heisenberg-picture chain matrix per history from the public
``heisenberg_projector`` and evaluates one ``np.vdot`` per pair of histories.
It shares no code with the prefix-walk core in ``decohist.histories``, which
the tests compare against it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from decohist.model import QuantumModel, StateOperator, heisenberg_projector


def single_chain(model: QuantumModel, history) -> np.ndarray:
    """L_h: the history's Heisenberg projectors, latest leftmost."""
    chain = np.eye(model.dim, dtype=complex)
    for k, j in enumerate(model.history_indices(tuple(history))):
        chain = heisenberg_projector(model, k, j) @ chain
    return chain


def chain_operators(model: QuantumModel) -> list[np.ndarray]:
    """L_h for every history, lexicographic in the member indices."""
    heis = [
        [heisenberg_projector(model, k, j) for j in range(len(fam))]
        for k, fam in enumerate(model.families)
    ]
    chains = []
    for idx in itertools.product(*[range(len(f)) for f in model.families]):
        chain = np.eye(model.dim, dtype=complex)
        for k, j in enumerate(idx):
            chain = heis[k][j] @ chain
        chains.append(chain)
    return chains


def functional_matrix(model: QuantumModel, direction: str = "forwards",
                      rho_i: StateOperator | None = None,
                      rho_f: np.ndarray | None = None) -> np.ndarray:
    """D[i, j] for every pair, one ``np.vdot`` each.

    Forwards Tr(L_i rho L_j^dagger), backwards Tr(L_i^dagger rho L_j),
    two-state Tr(rho_f L_i rho_i L_j^dagger).
    """
    cols = (model.initial_state if rho_i is None else rho_i).eigen_columns()
    chains = chain_operators(model)
    if direction == "backwards":
        chains = [c.conj().T for c in chains]
    applied = [c @ cols for c in chains]
    weighted = applied if direction != "two_state" else [rho_f @ a for a in applied]
    m = len(applied)
    d = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            d[i, j] = np.vdot(applied[j], weighted[i])
    return d


def max_offdiagonal(d: np.ndarray) -> float:
    """Largest |D[i, j]| over i < j (the strong measure), 0.0 without pairs."""
    m = d.shape[0]
    return max((abs(complex(d[i, j])) for i in range(m) for j in range(i + 1, m)),
               default=0.0)


def pair_table(d: np.ndarray, scale: float, strength: str, tolerance) -> list[tuple]:
    """(i, j, value, measure, threshold, passed, ratio) per pair i < j, one at a time."""
    p = [float(d[i, i].real) / scale for i in range(d.shape[0])]
    rows = []
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            value = complex(d[i, j])
            measure = (abs(value.real) if strength == "weak" else abs(value)) / scale
            threshold = tolerance.pair_threshold(p[i], p[j])
            ratio = measure / threshold if threshold > 0 else math.inf
            rows.append((i, j, value, measure, threshold, measure <= threshold, ratio))
    return rows


def truncated_model(model: QuantumModel, depth: int) -> QuantumModel:
    """The same model with only its first ``depth`` families."""
    return QuantumModel(model.initial_state, model.grid, model.families[:depth],
                        model.conjugation_basis, model.factors)
