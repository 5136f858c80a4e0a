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
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_grid_gaps import _build, layouts

from decohist.histories import _functional_matrix
from decohist.scenarios import commuting_random_model, random_model

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
