"""Property tests: identities every decoherence functional obeys, decoherent or not.

For any history set, completeness of each family and unitarity of the steps
give sum_h L_h^dagger L_h = 1 (and sum_h L_h = 1), so forwards and backwards

* the candidate probabilities sum to 1: sum_h D(h, h) = Tr(rho) = 1;
* the whole functional sums to 1: sum_{h, h'} D(h, h') = Tr(rho) = 1;
* D is Hermitian with a non-negative diagonal (D(h, h) = ||L_h C||^2);

and the two-state functional sums to Tr(rho_f rho_i).  hypothesis draws
random and commuting models with pure and mixed states, and gapped grids.
The functionals are read from the model's memoised branch tables, as the
checks read them.

Two of the paper's statements are tested the same way: on commuting models,
where both weak conditions hold, the forwards and backwards probabilities
coincide and equal Re Tr(L_h rho); and reversing a reversed history set
gives back the set, for a conjugation basis with B B^* = +1 or -1.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_grid_gaps import _build, layouts

from decohist.histories import (
    _functional_matrix,
    both_conditions_theorem_check,
    time_reversed_history_set,
)
from decohist.model import QuantumModel, StateOperator, TimeGrid
from decohist.scenarios import _random_family, commuting_random_model, haar_unitary, random_model

ATOL = 1e-12
SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=50)


@st.composite
def models(draw):
    """(model, rho_f): a random, commuting or gapped-grid model and a final operator."""
    source = draw(st.sampled_from(["random", "commuting", "gapped"]))
    if source == "gapped":
        return _build(*draw(layouts()))
    seed = draw(st.integers(0, 2**32 - 1))
    dim = draw(st.integers(2, 5))
    n = draw(st.integers(0, 3))
    if source == "random":
        model = random_model(seed, dim=dim, n_families=n, pure=draw(st.booleans()))
    else:
        model = commuting_random_model(seed, dim=dim, n_families=n)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return model, a @ a.conj().T


def _directions(model):
    for direction in ("forwards", "backwards"):
        yield direction, _functional_matrix(model, direction)[1]


@SETTINGS
@given(models())
def test_candidate_probabilities_sum_to_one(case):
    model, _ = case
    for direction, d in _directions(model):
        assert abs(np.trace(d) - 1.0) <= ATOL, direction


@SETTINGS
@given(models())
def test_whole_functional_sums_to_one(case):
    model, _ = case
    for direction, d in _directions(model):
        assert abs(d.sum() - 1.0) <= ATOL, direction


@SETTINGS
@given(models())
def test_functional_is_hermitian_with_nonnegative_diagonal(case):
    model, rho_f = case
    for direction, d in _directions(model):
        assert np.array_equal(d, d.conj().T), direction
        assert np.all(d.diagonal().real >= 0.0), direction
    _, d = _functional_matrix(model, "two_state", rho_i=model.initial_state, rho_f=rho_f)
    assert np.array_equal(d, d.conj().T)


@SETTINGS
@given(models())
def test_two_state_functional_sums_to_boundary_overlap(case):
    model, rho_f = case
    _, d = _functional_matrix(model, "two_state", rho_i=model.initial_state, rho_f=rho_f)
    overlap = np.trace(rho_f @ model.initial_state.rho)
    assert abs(d.sum() - overlap) <= ATOL * max(1.0, abs(overlap))


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(0, 3))
def test_both_conditions_theorem_on_commuting_models(seed, dim, n):
    report = both_conditions_theorem_check(commuting_random_model(seed, dim=dim, n_families=n))
    assert report.applicable and report.passed
    for h, p in report.forwards.probabilities.items():
        assert abs(p - report.backwards.probabilities[h]) <= ATOL
        assert abs(p - report.chain_expectations[h]) <= ATOL


@st.composite
def reflectable(draw):
    """(model, sign): families at interior times of a grid symmetric about 0, with B B^* = sign.

    B is U U^T for sign +1 and U (i sigma_y (x) 1) U^T for sign -1, with U Haar.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    sign = draw(st.sampled_from([1, -1]))
    dim = 2 * draw(st.integers(1, 2)) if sign < 0 else draw(st.integers(2, 5))
    half = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    interior = np.arange(1, 2 * half)
    n = draw(st.integers(0, min(3, interior.size)))
    times = sorted(rng.choice(interior, size=n, replace=False).tolist())
    u = haar_unitary(dim, rng)
    j = np.eye(dim) if sign > 0 else np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(dim // 2))
    grid = TimeGrid(np.arange(-half, half + 1, dtype=float),
                    [haar_unitary(dim, rng) for _ in range(2 * half)])
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    model = QuantumModel(StateOperator.from_vector(psi / np.linalg.norm(psi)), grid,
                         [_random_family(dim, t, rng) for t in times], conjugation_basis=u @ j @ u.T)
    return model, sign


@SETTINGS
@given(reflectable())
def test_reversing_a_reversed_set_gives_back_the_set(case):
    model, sign = case
    b = model.conjugation_basis
    assert np.max(np.abs(b @ b.conj() - sign * np.eye(model.dim))) <= ATOL
    back = time_reversed_history_set(time_reversed_history_set(model).model).model
    assert np.array_equal(back.grid.times, model.grid.times)
    assert [f.time_index for f in back.families] == [f.time_index for f in model.families]
    for fam, again in zip(model.families, back.families):
        assert again.labels == fam.labels
        for p, q in zip(fam.projectors, again.projectors):
            assert np.max(np.abs(p - q)) <= ATOL
