"""A pure state's factor is its own vector.

``StateOperator.from_vector`` keeps psi as its one column and the outer
product fl(psi psi^dagger) as rho, with no ``eigh`` at construction.  The
spectrum, read on first use, is ``_eigh`` of the Hermitian part of that
outer product, bit for bit what the construction computed when it ran the
decomposition itself.  Callers that start from the model's own vector read
the model's memoised table; another vector, such as e^{i phi} psi, walks its
own and gets its own branches.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist.histories import _branch_table, _frame
from decohist.model import StateOperator, _eigh
from decohist.records import branch_vectors
from decohist.scenarios import random_model


def _unit_vector(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(dim=st.integers(1, 48), seed=st.integers(0, 2**32 - 1))
def test_vector_is_the_column_and_the_spectrum_waits(dim, seed):
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        state = StateOperator.from_vector(_unit_vector(dim, seed))
        assert eigh.call_count == 0
        v = state.vector
        assert state.columns.shape == (dim, 1)
        assert np.array_equal(state.columns[:, 0], v)
        assert not state.columns.flags.writeable and not v.flags.writeable
        assert np.array_equal(state.rho, np.outer(v, v.conj()))
        # the Hermitian part as the eager construction formed it
        h = np.conjugate(state.rho.T, order="C")
        h += state.rho
        h /= 2.0
        w, vecs, cols = _eigh(h)
        assert eigh.call_count == 1
        assert np.array_equal(state.eigenvalues, w) and np.array_equal(state.eigenvectors, vecs)
        assert np.array_equal(state.eigen_columns(), cols)
        assert eigh.call_count == 2
    assert state.is_pure()


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), dim=st.integers(2, 6), n=st.integers(1, 3),
       phi=st.floats(0.1, 6.2))
def test_a_phased_vector_gets_its_own_branches(seed, dim, n, phi):
    model = random_model(seed, dim=dim, n_families=n)
    psi = model.initial_state.state_vector()
    own = _branch_table(model, model.initial_state.columns)[:, 0]
    phased = np.exp(1j * phi) * psi
    table = _branch_table(model, phased[:, None])[:, 0]
    assert np.max(np.abs(table - np.exp(1j * phi) * own)) <= 1e-12
    assert not np.array_equal(table, own)
    # branch vectors are the phased table's rows carried back to the initial time
    branches = np.array([b.vector for b in branch_vectors(model, phased)])
    assert np.array_equal(branches, model.grid.carry(table, _frame(model), 0))
    assert list(model._tables) == [False]  # the phased table is not kept
    assert np.array_equal(model._tables[False][:, 0], own)
