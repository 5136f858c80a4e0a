"""Property tests: the level-batched collapse oracle against the per-trajectory loops.

``collapse_chain_enumerate`` and ``reverse_collapse_chain`` run all
trajectories level by level, side by side in one product per segment and
member.  For mixed states hypothesis draws random mixed models, commuting
models, models without families, gapped grids, and states whose factor
columns each lie in one member of the first family, so that whole branches
and single columns have probability exactly zero.  For pure states it draws
random models, gapped grids with or without families whose labels are not
in sorted order, and vectors inside one member of the first family (or,
reversed, of the last), so that whole branches have probability exactly
zero.  The results must equal those of the per-trajectory loops in
``reference_oracle``, trajectory by trajectory in label order.
"""

import itertools
import math
import time

import numpy as np
import pytest
import reference_oracle as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_grid_gaps import _psd

from decohist import histories
from decohist.cli import main
from decohist.exceptions import ModelValidationError
from decohist.histories import check_decoherence
from decohist.model import ProjectorFamily, QuantumModel, StateOperator, TimeGrid
from decohist.scenarios import (
    _cut,
    collapse_chain_enumerate,
    collapse_probability_table,
    commuting_random_model,
    haar_unitary,
    random_model,
    reverse_collapse_chain,
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


def _unit(dim, support, rng):
    """A random unit vector on the coordinates ``support``."""
    v = np.zeros(dim, dtype=complex)
    v[support] = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
    return v / np.linalg.norm(v)


def _pure(kind, n_families, dim, gaps, trailing, seed):
    """A pure model and a final state for the reverse run.

    ``gapped`` and ``zero`` label each family's members in descending order,
    so that the product order of the trajectories is not their label order.
    For ``zero`` the steps before the first family and after the last are the
    identity, those two families project onto runs of the computational
    basis, and the initial and final vectors lie in the first run of the
    first and of the last family: the other members of that family receive
    probability exactly 0, forwards and reversed.
    """
    rng = np.random.default_rng(seed)
    if kind == "random":
        model = random_model(seed, dim=dim, n_families=n_families, pure=True)
        return model, _unit(dim, range(dim), rng)
    zero = kind == "zero"
    n_steps = sum(gaps) + trailing
    steps = [haar_unitary(dim, rng) for _ in range(n_steps)]
    times = np.cumsum(gaps).tolist()
    families = []
    for k, t in enumerate(times):
        runs = _cut(dim, int(rng.integers(2, min(dim, 3) + 1)), rng)
        basis = haar_unitary(dim, rng)
        if zero and k in (0, n_families - 1):
            basis = np.eye(dim, dtype=complex)
            if k == 0:
                steps[:t] = [np.eye(dim, dtype=complex)] * t
                psi = _unit(dim, runs[0], rng)
            if k == n_families - 1:
                steps[t:] = [np.eye(dim, dtype=complex)] * (n_steps - t)
                final = _unit(dim, runs[0], rng)
        blocks = {f"m{len(runs) - 1 - j}": run for j, run in enumerate(runs)}
        families.append(ProjectorFamily.from_basis(t, basis, blocks))
    if not zero:
        psi, final = _unit(dim, range(dim), rng), _unit(dim, range(dim), rng)
    grid = TimeGrid(np.arange(n_steps + 1, dtype=float), steps)
    return QuantumModel(StateOperator.from_vector(psi), grid, families), final


@st.composite
def pure_cases(draw):
    """(kind, n_families, dim, gaps, trailing, seed) of one pure model."""
    kind = draw(st.sampled_from(["random", "gapped", "zero"]))
    n_families = draw(st.integers(0 if kind != "zero" else 1, 3))
    dim = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.integers(1, 3), min_size=n_families, max_size=n_families))
    trailing = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return kind, n_families, dim, gaps, trailing, seed


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(pure_cases())
@example(("zero", 2, 5, [2, 1], 2, 3))
@example(("zero", 1, 4, [1], 1, 8))  # one family, first and last at once
@example(("gapped", 3, 4, [1, 2, 1], 2, 5))  # labels out of order in every family
@example(("gapped", 0, 3, [], 2, 5))
@example(("random", 3, 4, [1, 1, 1], 1, 11))
def test_level_walk_matches_per_trajectory_pure_runs(case):
    model, final = _pure(*case)
    psi = model.initial_state.state_vector()
    runs = [(collapse_chain_enumerate(model), ref.collapse_walk(model, psi)),
            (reverse_collapse_chain(model, final), ref.collapse_walk(model, final, backwards=True))]
    for got, expected in runs:
        expected = sorted(expected, key=lambda t: t[0])
        assert [t.labels for t in got] == [labels for labels, _, _ in expected]
        for t, (_, probability, states) in zip(got, expected):
            assert abs(t.probability - probability) <= ATOL
            assert len(t.states) == len(states) == model.n_families + 1
            for mine, theirs in zip(t.states, states):
                assert mine.base is None  # each trajectory owns its states
                assert np.max(np.abs(mine - theirs)) <= ATOL
        if case[0] == "zero":
            assert min(p for _, p, _ in expected) == 0.0


def test_oracle_over_the_memory_budget_is_refused(monkeypatch):
    # the oracle's level blocks are charged to the core's budget before the first level
    monkeypatch.setattr(histories, "MEMORY_BUDGET", 2**20)
    model = random_model(1, dim=3, n_families=12)
    assert math.prod(map(len, model.families)) == 46656
    psi = model.initial_state.state_vector()
    for run in (lambda: check_decoherence(model), lambda: collapse_probability_table(model),
                lambda: reverse_collapse_chain(model, psi)):
        with pytest.raises(ModelValidationError, match="46656 histories .* above the memory budget"):
            run()


def test_reverse_over_the_budget_exits_65_at_once(capsys):
    started = time.perf_counter()
    assert main(["reverse", "--scenario", "random", "dim=3", "n=24"]) == 65
    assert time.perf_counter() - started < 1.0
    assert "above the memory budget of 2 GiB" in capsys.readouterr().err
