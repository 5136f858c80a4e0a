"""Property tests: the two-state functional as the Gram matrix of F^dagger L_h C.

With rho_i = C C^dagger and rho_f = F F^dagger,

    Tr(rho_f L_h rho_i L_h'^dagger) = <F^dagger L_h' C, F^dagger L_h C>,

so the core computes the two-state functional as the Gram matrix of the
branch-table rows times F^*.  hypothesis draws random and commuting models,
pure and mixed states, and gapped grids, with final operators of rank 1,
rank 8, rank above 32 (where eigenvalues give the factor) and large trace
(1e6 times a rank-one operator, also factored by eigenvalues).  Three
identities are checked:

* the two-state matrix equals the reference evaluator's
  Tr(rho_f L_h rho_i L_h'^dagger);
* with rho_i = rho_f = |psi><psi| the rows are the amplitudes
  <psi|L_h|psi> and D = amp amp^dagger, which is rank one: the paper's
  criticism of the two-vector approach, whose probabilities are 0 or 1
  whenever the condition holds;
* with rho_f = 1 the two-state matrix is the forwards one, bit for bit: the
  identity has no factor, and its rows are the memoised branch table.
"""

import numpy as np
import reference_evaluator as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_grid_gaps import _build, layouts

from decohist.histories import (
    _coerce_final_operator,
    _gram,
    _rows,
    pure_two_state_triviality_check,
)
from decohist.model import StateOperator
from decohist.scenarios import commuting_random_model, haar_unitary, random_model

ATOL = 1e-12
LARGE_TRACE = 1e6
SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=40)
FINAL_DIMS = {"rank1": (3, 6), "rank8": (8, 10), "rank34": (36, 36), "large": (3, 8)}


@st.composite
def models(draw, dims=(3, 6)):
    """A random, commuting or gapped-grid model of a dimension in ``dims``."""
    source = draw(st.sampled_from(["random", "commuting", "gapped"]))
    dim = draw(st.integers(*dims))
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 2 if dim > 10 else 3))
    if source == "random":
        return random_model(seed, dim=dim, n_families=n, pure=draw(st.booleans()))
    if source == "commuting":
        return commuting_random_model(seed, dim=dim, n_families=n)
    gaps, trailing, _, members, _, seed = draw(layouts())
    members = [min(k, dim) for k in members]
    return _build(gaps, trailing, dim, members, draw(st.integers(1, dim)), seed)[0]


def _final_operator(kind, dim, seed):
    rng = np.random.default_rng(seed)
    rank = {"rank1": 1, "rank8": 8, "rank34": 34, "large": 1}[kind]
    c = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho_f = c @ c.conj().T
    return rho_f * (LARGE_TRACE if kind == "large" else 1.0) / np.trace(rho_f).real


@st.composite
def two_state_cases(draw):
    kind = draw(st.sampled_from(sorted(FINAL_DIMS)))
    model = draw(models(FINAL_DIMS[kind]))
    return kind, model, _final_operator(kind, model.dim, draw(st.integers(0, 2**32 - 1)))


@SETTINGS
@given(two_state_cases())
@example(("rank34", random_model(1, dim=36, n_families=2, pure=False),
          _final_operator("rank34", 36, 2)))
@example(("large", random_model(3, dim=6, n_families=2, pure=False),
          _final_operator("large", 6, 0)))
@example(("rank8", commuting_random_model(4, dim=8, n_families=3), _final_operator("rank8", 8, 5)))
@example(("rank1", _build([2, 1], 2, 5, [2, 3], 3, 6)[0], _final_operator("rank1", 5, 7)))
def test_two_state_gram_matches_the_reference(case):
    kind, model, rho_f = case
    # every drawn operator is PSD, and the eigenvalue floor grows with the trace
    factor = _coerce_final_operator(rho_f, model.dim)[1]
    assert factor.shape[1] == np.linalg.matrix_rank(rho_f) or kind == "large"
    _assert_matches_the_reference(model, rho_f, factor)


def _assert_matches_the_reference(model, rho_f, factor):
    d = _gram(_rows(model, False, model.initial_state, factor))
    expected = ref.functional_matrix(model, "two_state", rho_i=model.initial_state, rho_f=rho_f)
    scale = max(1.0, np.trace(rho_f).real)  # entries, and their rounding, grow with rho_f
    assert np.max(np.abs(d - expected)) <= ATOL * scale


def test_large_trace_final_operator_matches_the_reference():
    # a 1e6 rank-one operator the eigenvalue rule accepts, so the identity
    # is always checked at that trace, through the eigh fallback
    rho_f = _final_operator("large", 6, 0)
    factor = _coerce_final_operator(rho_f, 6)[1]
    assert np.max(np.abs(factor @ factor.conj().T - rho_f)) <= ATOL * LARGE_TRACE
    _assert_matches_the_reference(random_model(3, dim=6, n_families=2, pure=False), rho_f, factor)


@SETTINGS
@given(models(), st.integers(0, 2**32 - 1))
def test_pure_boundaries_give_rank_one_two_state_functional(model, seed):
    psi = haar_unitary(model.dim, np.random.default_rng(seed))[:, 0]
    state = StateOperator.from_vector(psi)
    report = pure_two_state_triviality_check(model, psi)
    amps = np.array([report.amplitudes[h] for h in model.history_labels()])
    expected = np.array([np.vdot(psi, chain @ psi) for chain in ref.chain_operators(model)])
    assert np.max(np.abs(amps - expected)) <= ATOL
    d = _gram(_rows(model, False, state, _coerce_final_operator(state, model.dim)[1]))
    assert np.max(np.abs(d - np.outer(amps, amps.conj()))) <= ATOL
    if report.condition_holds:
        assert report.all_zero_or_one


@SETTINGS
@given(st.one_of(models((2, 8)), models((33, 36))))
def test_identity_final_operator_gives_the_forwards_functional(model):
    forwards = _gram(_rows(model))
    factor = _coerce_final_operator(np.eye(model.dim, dtype=complex), model.dim)[1]
    assert factor is None
    d = _gram(_rows(model, False, model.initial_state, factor))
    assert np.array_equal(d, forwards)
