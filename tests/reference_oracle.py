"""Per-trajectory references for the collapse-chain oracle.

These are the loops ``collapse_chain_enumerate`` and
``reverse_collapse_chain`` ran before they went level by level: every
outcome sequence is run on its own.  ``mixed_collapse_table`` walks the unit
columns of the state's factor together as one d x r block that is projected
and renormalized column by column; ``collapse_walk`` runs a pure vector,
forwards or backwards, and keeps its states.  They multiply out their own
step segments and share no code with ``decohist.scenarios``, which the tests
compare against them.
"""

from __future__ import annotations

import itertools

import numpy as np


def _segments(model) -> list[np.ndarray]:
    """Per family, the product of the steps from the previous family's time to its own."""
    steps = model.grid.step_unitaries
    segments, pos = [], 0
    for fam in model.families:
        w = np.eye(model.dim, dtype=complex)
        for u in steps[pos:fam.time_index]:
            w = u @ w
        segments.append(w)
        pos = fam.time_index
    return segments


def mixed_collapse_table(model) -> list[tuple[tuple, float]]:
    """(labels, probability) of every trajectory, sorted by labels."""
    cols = model.initial_state.columns
    weights = np.sum(cols.real ** 2 + cols.imag ** 2, axis=0)
    units = cols / np.sqrt(weights)
    families = model.families
    segments = _segments(model)
    table = []
    for idx in itertools.product(*[range(len(f)) for f in families]):
        block = units
        probs = np.ones(weights.size)
        for fam, seg, j in zip(families, segments, idx):
            block = fam.projectors[j] @ (seg @ block)
            p_step = np.sum(block.real ** 2 + block.imag ** 2, axis=0)
            probs *= p_step
            live = p_step > 1e-300
            block[:, live] /= np.sqrt(p_step[live])
            block[:, ~live] = 0.0
        labels = tuple(f.labels[j] for f, j in zip(families, idx))
        table.append((labels, float(weights @ probs)))
    return sorted(table)


def collapse_segments(model, backwards: bool = False) -> list[np.ndarray]:
    """Per family met, the product of the steps reaching its time; then the tail.

    Forwards the steps run from the first grid time to the last; backwards
    their adjoints run from the last grid time to the first.  Each product
    starts from its first step (an adjoint is stored contiguous).
    """
    steps = model.grid.step_unitaries
    families = model.families[::-1] if backwards else model.families
    last = model.grid.n_times - 1
    stops = [fam.time_index for fam in families] + [0 if backwards else last]
    segments = []
    pos = last if backwards else 0
    for stop in stops:
        idx = reversed(range(stop, pos)) if backwards else range(pos, stop)
        factors = [steps[i].conj().T if backwards else steps[i] for i in idx]
        w = np.ascontiguousarray(factors[0])
        for u in factors[1:]:
            w = u @ w
        segments.append(w)
        pos = stop
    return segments


def collapse_walk(model, psi: np.ndarray, backwards: bool = False) -> list[tuple]:
    """(labels, probability, states) of every trajectory of a pure vector, in product order.

    Backwards the families are met latest first.  Labels are reported
    time-ordered either way.
    """
    families = model.families[::-1] if backwards else model.families
    *segments, tail = collapse_segments(model, backwards)
    trajectories = []
    for idx in itertools.product(*[range(len(f)) for f in families]):
        state = psi.copy()
        prob = 1.0
        states = []
        for fam, seg, j in zip(families, segments, idx):
            state = fam.projectors[j] @ (seg @ state)
            p_step = float(np.vdot(state, state).real)
            prob *= p_step
            state = state / np.sqrt(p_step) if p_step > 1e-300 else np.zeros_like(state)
            states.append(state.copy())
        states.append(tail @ state)
        labels = tuple(f.labels[j] for f, j in zip(families, idx))
        trajectories.append((labels[::-1] if backwards else labels, prob, states))
    return trajectories
