"""Property test: the level-batched mixed-state oracle against the per-trajectory loop.

``collapse_chain_enumerate`` runs a mixed state's trajectories level by
level, all of them side by side in one product per segment and member.
hypothesis draws random mixed models, commuting models, models without
families, gapped grids, and states whose factor columns each lie in one
member of the first family, so that whole branches and single columns have
probability exactly zero.  The table must equal that of the per-trajectory
loop in ``reference_oracle``, trajectory by trajectory in the same order.
"""

import itertools

import numpy as np
import reference_oracle as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_grid_gaps import _psd

from decohist.model import ProjectorFamily, QuantumModel, StateOperator, TimeGrid
from decohist.scenarios import (
    _cut,
    collapse_chain_enumerate,
    commuting_random_model,
    haar_unitary,
    random_model,
)

ATOL = 1e-13


@st.composite
def cases(draw):
    """(kind, n_families, dim, gaps, trailing, seed) of one mixed model."""
    kind = draw(st.sampled_from(["random", "commuting", "gapped", "zero"]))
    n_families = draw(st.integers(0 if kind != "zero" else 1, 3))
    dim = draw(st.integers(3 if kind == "zero" else 2, 5))
    gaps = draw(st.lists(st.integers(1, 3), min_size=n_families, max_size=n_families))
    trailing = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return kind, n_families, dim, gaps, trailing, seed


def _gapped(n_families, dim, gaps, trailing, seed, zero):
    """Families ``gaps`` steps apart; with ``zero``, a state that some branches miss exactly.

    For ``zero`` the steps before the first family are the identity and that
    family projects onto runs of the computational basis, while the state is
    block diagonal on a proper subset of those runs (at least two dimensions
    wide, so the state stays mixed).  Its factor columns then lie each in one
    run: a member outside the subset receives probability 0, and inside a
    trajectory the columns of the other runs are exactly 0.
    """
    rng = np.random.default_rng(seed)
    n_steps = sum(gaps) + trailing
    steps = [haar_unitary(dim, rng) for _ in range(n_steps)]
    families = []
    for k, t in enumerate(np.cumsum(gaps).tolist()):
        runs = _cut(dim, int(rng.integers(2, min(dim, 3) + 1)), rng)
        basis = haar_unitary(dim, rng)
        if zero and k == 0:
            steps[:t] = [np.eye(dim, dtype=complex)] * t
            basis = np.eye(dim, dtype=complex)
            first_runs = runs
        blocks = {f"m{j}": run for j, run in enumerate(runs)}
        families.append(ProjectorFamily.from_basis(t, basis, blocks))
    if zero:
        subsets = [s for k in range(1, len(first_runs))
                   for s in itertools.combinations(first_runs, k) if sum(map(len, s)) >= 2]
        rho = np.zeros((dim, dim), dtype=complex)
        for run in subsets[int(rng.integers(len(subsets)))]:
            rho[run.start:run.stop, run.start:run.stop] = _psd(len(run), len(run), rng)
    else:
        rho = _psd(dim, int(rng.integers(2, dim + 1)), rng)
    grid = TimeGrid(np.arange(n_steps + 1, dtype=float), steps)
    return QuantumModel(StateOperator(rho / np.trace(rho).real), grid, families)


def _model(kind, n_families, dim, gaps, trailing, seed):
    if kind == "random":
        return random_model(seed, dim=dim, n_families=n_families, pure=False)
    if kind == "commuting":
        return commuting_random_model(seed, dim=dim, n_families=n_families)
    return _gapped(n_families, dim, gaps, trailing, seed, kind == "zero")


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(cases())
@example(("zero", 2, 5, [2, 1], 2, 3))  # columns split over two members, one member empty
@example(("gapped", 0, 3, [], 2, 5))
@example(("random", 3, 4, [1, 1, 1], 1, 11))
def test_level_batched_oracle_matches_per_trajectory_loop(case):
    model = _model(*case)
    assert not model.initial_state.is_pure()
    trajectories = collapse_chain_enumerate(model)
    assert all(t.states is None for t in trajectories)
    got = [(t.labels, t.probability) for t in trajectories]
    expected = ref.mixed_collapse_table(model)
    assert [labels for labels, _ in got] == [labels for labels, _ in expected]
    worst = max(abs(p - q) for (_, p), (_, q) in zip(got, expected))
    assert worst <= ATOL
    if case[0] == "zero":
        assert min(p for _, p in expected) == 0.0
