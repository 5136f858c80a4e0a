"""Property test: families anywhere on the grid, not only at indices 1, 2, ...

The random models and built-in scenarios put their families at consecutive
grid indices from 1, so every step segment of the prefix walk is one step.
Here hypothesis draws grid layouts where the first family may sit after
index 1, consecutive families may lie several steps apart, and several steps
may trail the last family, with pure and mixed states.  The forwards,
backwards and two-state matrices must equal the reference evaluator, and the
forwards diagonals the collapse-chain oracle.
"""

import numpy as np
import reference_evaluator as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decohist.histories import _coerce_final_operator, _gram, _rows, check_decoherence
from decohist.model import ProjectorFamily, QuantumModel, StateOperator, TimeGrid
from decohist.scenarios import collapse_probability_table, haar_unitary

ATOL = 1e-12


@st.composite
def layouts(draw):
    """(gaps, trailing, dim, members, rank, seed) of one model.

    ``gaps[k]`` is the number of steps before family k (from the first grid
    time, then from family k - 1), ``trailing`` the steps after the last
    family; ``rank`` 1 is a pure state.
    """
    n_families = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.integers(1, 3), min_size=n_families, max_size=n_families))
    trailing = draw(st.integers(1, 3))
    dim = draw(st.integers(2, 5))
    members = draw(st.lists(st.integers(2, min(dim, 3)),
                            min_size=n_families, max_size=n_families))
    rank = draw(st.integers(1, dim))
    seed = draw(st.integers(0, 2**32 - 1))
    return gaps, trailing, dim, members, rank, seed


def _psd(dim, rank, rng):
    c = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return c @ c.conj().T


def _build(gaps, trailing, dim, members, rank, seed):
    rng = np.random.default_rng(seed)
    n_steps = sum(gaps) + trailing
    grid = TimeGrid(np.arange(n_steps + 1, dtype=float),
                    [haar_unitary(dim, rng) for _ in range(n_steps)])
    families = []
    for t, n in zip(np.cumsum(gaps).tolist(), members):
        cuts = sorted(rng.choice(np.arange(1, dim), size=n - 1, replace=False).tolist())
        bounds = [0, *cuts, dim]
        blocks = {f"m{j}": range(bounds[j], bounds[j + 1]) for j in range(n)}
        families.append(ProjectorFamily.from_basis(t, haar_unitary(dim, rng), blocks))
    if rank == 1:
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = StateOperator.from_vector(psi / np.linalg.norm(psi))
    else:
        rho = _psd(dim, rank, rng)
        state = StateOperator(rho / np.trace(rho).real)
    rho_f = _psd(dim, int(rng.integers(1, dim + 1)), rng)
    return QuantumModel(state, grid, families), rho_f


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(layouts())
@example(([3, 2, 3], 3, 4, [2, 3, 2], 1, 7))
@example(([2, 3], 2, 5, [3, 2], 3, 11))
def test_gapped_layouts_match_reference_and_oracle(layout):
    model, rho_f = _build(*layout)
    factor = _coerce_final_operator(rho_f, model.dim)[1]
    for direction, extra, core in (
            ("forwards", {}, ()), ("backwards", {}, (True,)),
            ("two_state", {"rho_i": model.initial_state, "rho_f": rho_f},
             (False, model.initial_state, factor))):
        d = _gram(_rows(model, *core))
        expected = ref.functional_matrix(model, direction, **extra)
        assert np.max(np.abs(d - expected)) <= ATOL, direction
    diagonals = check_decoherence(model, "forwards").diagonals
    oracle = collapse_probability_table(model)
    assert set(oracle) == set(diagonals)
    assert max(abs(diagonals[h] - oracle[h]) for h in oracle) <= ATOL
