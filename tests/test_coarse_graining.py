"""Coarse-graining checked against the reference functional and the coarse model.

``coarse_grain_check`` sums rows of the fine branch table.  Here hypothesis
draws random and commuting models, pure and mixed, with one to three families
and a random partition of each family (blocks in any order, members in any
order within a block), and compares, in both directions:

* ``direct`` with the block sums of ``reference_evaluator.functional_matrix``
  and with the diagonals of ``check_decoherence`` on ``coarse_model``;
* ``summed`` with the sums of the fine diagonals;
* every off-diagonal pair value of ``check_decoherence`` on ``coarse_model``
  with the sum of the reference functional over its two blocks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_evaluator as ref
from decohist.histories import CoarseGraining, check_decoherence, coarse_grain_check
from decohist.scenarios import commuting_random_model, random_model

ATOL = 1e-12


def _model(kind: str, seed: int, dim: int, n: int):
    if kind == "commuting":
        return commuting_random_model(seed, dim=dim, n_families=n)
    return random_model(seed, dim=dim, n_families=n, pure=kind == "pure")


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(("pure", "mixed", "commuting")))
    model = _model(kind, draw(st.integers(0, 2 ** 16)), draw(st.integers(2, 5)), draw(st.integers(1, 3)))
    blocks = []
    for fam in model.families:
        labels = draw(st.permutations(fam.labels))
        owner = draw(st.lists(st.integers(0, len(labels) - 1), min_size=len(labels), max_size=len(labels)))
        mapping: dict = {}
        for label, k in zip(labels, owner):
            mapping.setdefault(f"B{k}", []).append(label)
        blocks.append(mapping)
    return model, CoarseGraining(tuple(blocks))


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(cases(), st.sampled_from(("forwards", "backwards")))
def test_coarse_grain_matches_reference_and_coarse_model(case, direction):
    model, graining = case
    rep = coarse_grain_check(model, graining, direction)
    d = ref.functional_matrix(model, direction)
    position = {h: i for i, h in enumerate(model.history_labels())}
    fine = check_decoherence(model, direction).diagonals
    coarse_report = check_decoherence(graining.coarse_model(model), direction)
    coarse = coarse_report.diagonals
    assert list(rep.per_history) == list(coarse)
    blocks = {ch: [position[h] for h in graining.fine_histories_of(ch)] for ch in coarse}
    for ch, (direct, summed) in rep.per_history.items():
        block_sum = d[np.ix_(blocks[ch], blocks[ch])].sum()
        assert direct == pytest.approx(block_sum.real, abs=ATOL)
        assert direct == pytest.approx(coarse[ch], abs=ATOL)
        assert summed == pytest.approx(sum(fine[h] for h in graining.fine_histories_of(ch)), abs=ATOL)
    for pair in coarse_report.pairs:
        cross_sum = d[np.ix_(blocks[pair.left], blocks[pair.right])].sum()
        assert abs(pair.value - cross_sum) <= ATOL
