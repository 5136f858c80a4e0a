"""Per-trajectory reference for the mixed-state collapse-chain oracle.

This is the loop ``collapse_chain_enumerate`` ran before it went level by
level: every outcome sequence is run on its own from the initial state, the
unit columns of the state's factor walking it together as one d x r block
that is projected and renormalized column by column.  It multiplies out its
own step segments and shares no code with ``decohist.scenarios``, which the
tests compare against it.
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
