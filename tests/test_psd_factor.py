"""The certified pivoted-Cholesky factor of states and final operators.

``model._psd_columns`` replaces the eigenvalue test of positivity whenever
it can prove it.  Hypothesis draws Hermitian matrices with a chosen rank and
smallest eigenvalue, including ones just inside and just outside the
tolerance; the accept/reject verdict and message of ``StateOperator`` and of
the final-operator check must equal the eigenvalue rule's, and a returned
factor must reproduce its matrix.  Larger explicit cases reach the rank at
which the factor gives way to eigenvalues, and a final operator of large
trace the bound on the eigensolver's error; the functionals of such states
are checked against the reference evaluator.
"""

import numpy as np
import pytest
import reference_evaluator as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decohist.exceptions import ModelValidationError
from decohist.histories import _coerce_final_operator, _gram, _rows
from decohist.model import _FACTOR_RANK, ATOL_MODEL, QuantumModel, StateOperator, _psd_columns
from decohist.scenarios import haar_unitary, random_model

SHIFTS = (-1e-3, -2e-10, -0.4e-10, 0.0, 1e-9, 1e-3)


def _hermitian(dim, rank, shift, scale, seed):
    """U diag(lambda) U^dagger: ``rank`` positive eigenvalues, one equal to ``shift``.

    The shifted eigenvalue replaces a zero one, or the smallest positive one
    at full rank; the others are scaled so that the trace is ``scale``.
    """
    rng = np.random.default_rng(seed)
    w = np.zeros(dim)
    w[:rank] = rng.uniform(0.05, 1.0, rank)
    if dim > 1 and (rank < dim or shift != 0.0):
        w[min(rank, dim - 1)] = 0.0
        w *= (scale - shift) / w.sum() if w.sum() > 0 else 0.0
        w[min(rank, dim - 1)] = shift
    else:
        w *= scale / w.sum() if w.sum() > 0 else 0.0
    u = haar_unitary(dim, rng)
    h = (u * w) @ u.conj().T
    return (h + h.conj().T) / 2.0


def _state_verdict_by_eigenvalues(h):
    w = np.linalg.eigh(h)[0]
    if w[0] < -ATOL_MODEL:
        return f"state operator is not positive semidefinite (min eigenvalue {w[0]:.3e})"
    return None


def _final_verdict_by_eigenvalues(h):
    """The eigenvalue rule: a floor of 1e-10, or 10 d u max|lambda| where that is larger."""
    w = np.linalg.eigvalsh(h)
    if w[0] < -max(1e-10, 10 * h.shape[0] * np.finfo(float).eps / 2 * np.abs(w).max()):
        return "final operator must be positive semidefinite"
    return None


def _verdict(build):
    try:
        build()
    except ModelValidationError as exc:
        return str(exc)
    return None


def _check_factor(h, rank=None, shift=0.0):
    """A returned factor reproduces h to 1e-12, or to ATOL_MODEL / 2 if h is indefinite."""
    cols = _psd_columns(h)
    if cols is not None:
        atol = 1e-12 if shift >= 0.0 else ATOL_MODEL / 2
        assert np.max(np.abs(cols @ cols.conj().T - h), initial=0.0) <= atol
    if rank is not None:  # a PSD matrix with a clear spectral gap is always certified
        assert cols is not None and cols.shape == (h.shape[0], rank)


@st.composite
def operators(draw):
    dim = draw(st.integers(1, 12))
    rank = draw(st.integers(0, dim))
    shift = draw(st.sampled_from(SHIFTS))
    return dim, rank, shift, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(operators())
@example((6, 3, -2e-10, 1))
@example((6, 6, -0.4e-10, 2))
@example((1, 1, 0.0, 3))
def test_states_match_the_eigenvalue_rule(case):
    dim, rank, shift, seed = case
    rank = max(rank, 1)  # a state has unit trace
    h = _hermitian(dim, rank, shift, 1.0, seed)
    assert _verdict(lambda: StateOperator(h)) == _state_verdict_by_eigenvalues(h)
    gapped = shift == 0.0 or shift >= 1e-3
    _check_factor(h, rank + (shift > 0 and rank < dim) if gapped else None, shift)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(operators(), st.sampled_from((0.25, 3.0, 40.0)))
@example((5, 0, 0.0, 4), 3.0)
@example((4, 2, -2e-10, 5), 40.0)
def test_final_operators_match_the_eigenvalue_rule(case, scale):
    dim, rank, shift, seed = case
    h = _hermitian(dim, rank, shift, scale if rank else 0.0, seed)
    got = _verdict(lambda: _coerce_final_operator(h, dim))
    assert got == _final_verdict_by_eigenvalues(h)
    _check_factor(h, shift=shift)


@pytest.mark.parametrize("scale", [0.0, 1e-3, 1.0, 7.5, 1e6])
@pytest.mark.parametrize("dim", [1, 5, 12, 48])
def test_scaled_identities_are_accepted(dim, scale):
    h = scale * np.eye(dim, dtype=complex)
    _coerce_final_operator(h, dim)
    # at 1e6 the rounding allowance alone exceeds the budget, and eigh decides
    certified = scale <= 10 and (dim <= _FACTOR_RANK or scale == 0)
    _check_factor(h, None if not certified else dim if scale else 0)
    assert (_psd_columns(h) is None) == (not certified)


@pytest.mark.parametrize("dim,rank", [(40, 31), (40, 32), (40, 33), (48, 47), (48, 48),
                                      (70, 64)])
def test_ranks_above_the_limit_are_decided_by_eigenvalues(dim, rank):
    h = _hermitian(dim, rank, 0.0, 1.0, 100 + rank)
    _check_factor(h, rank if rank <= _FACTOR_RANK else None)
    assert (_psd_columns(h) is None) == (rank > _FACTOR_RANK)
    state = StateOperator(h)
    assert state.columns.shape == (dim, rank)
    assert np.max(np.abs(state.columns @ state.columns.conj().T - h)) <= 1e-12
    bad = _hermitian(dim, rank, -2e-10, 1.0, 100 + rank)
    message = _state_verdict_by_eigenvalues(bad)
    assert message is not None and _verdict(lambda: StateOperator(bad)) == message
    assert _verdict(lambda: _coerce_final_operator(bad, dim)) == _final_verdict_by_eigenvalues(bad)


@pytest.mark.parametrize("dim", [4, 64])
def test_identity_final_operator_needs_no_factor(dim, monkeypatch):
    """rho_f = 1 gives no factor, so the two-state rows are the branch table: no eigh at any d."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    h = np.eye(dim, dtype=complex)
    m, factor = _coerce_final_operator(h, dim)
    assert m is h and factor is None and calls == []


@pytest.mark.parametrize("dim,trace", [(64, 10.0), (64, 1e6), (256, 1e4)])
def test_large_trace_rank_one_final_operators(dim, trace, monkeypatch):
    """Beyond d u tr(h) <= ATOL_MODEL / 2, one eigh decides and gives the factor's columns.

    The eigenvalue floor grows with the operator, so these PSD operators are
    accepted at every trace.
    """
    rng = np.random.default_rng(dim)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    h = trace * np.outer(v, v.conj()) / np.vdot(v, v).real
    h = (h + h.conj().T) / 2.0
    decided_by_eigenvalues = dim * np.finfo(float).eps / 2 * trace > ATOL_MODEL / 2
    assert (_psd_columns(h) is None) == decided_by_eigenvalues
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    assert _final_verdict_by_eigenvalues(h) is None
    m, factor = _coerce_final_operator(h, dim)
    assert len(calls) == decided_by_eigenvalues
    assert m is h and np.max(np.abs(factor @ factor.conj().T - h)) <= 1e-12 * trace


@pytest.mark.parametrize("dim", [2, 8, 36])
def test_eigenvalue_floor_scales_with_the_operator(dim):
    """PSD operators 1e6 v v^dagger pass at any d; lambda_min = -1e-6 lambda_max still fails."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        h = 1e6 * np.outer(v, v.conj())
        _coerce_final_operator((h + h.conj().T) / 2.0, dim)
    u = haar_unitary(dim, rng)
    w = np.zeros(dim)
    w[-1], w[0] = 1e6, -1.0
    with pytest.raises(ModelValidationError, match="^final operator must be positive semidefinite$"):
        _coerce_final_operator((u * w) @ u.conj().T, dim)
    w[-1], w[0] = 1.0 / (1.0 - 1e-6), -1e-6 / (1.0 - 1e-6)  # unit trace
    rho = (u * w) @ u.conj().T
    with pytest.raises(ModelValidationError, match=r"^state operator is not positive semidefinite \(min eigenvalue -1\.000e-06\)$"):
        StateOperator((rho + rho.conj().T) / 2.0)


def test_hermiticity_floor_scales_with_the_operator():
    """Computed outer products 1e6 v v^dagger pass as they are; a unit-scale leak still fails."""
    rng = np.random.default_rng(0)
    for dim in (2, 8, 36):
        for _ in range(200):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            _coerce_final_operator(1e6 * np.outer(v, v.conj()), dim)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    h = np.outer(v, v.conj()) / np.vdot(v, v).real
    h[0, 1] += 1e-10j  # anti-Hermitian: max |m - m^dagger| = 2e-10
    h[1, 0] += 1e-10j
    with pytest.raises(ModelValidationError, match="^final operator must be Hermitian$"):
        _coerce_final_operator(h, 8)


@pytest.mark.parametrize("rank", [3, 33, 40])
def test_factored_states_match_the_reference(rank):
    base = random_model(5, dim=40, n_families=2, members_per_family=3)
    state = StateOperator(_hermitian(40, rank, 0.0, 1.0, rank))
    assert state.columns.shape == (40, rank)
    model = QuantumModel(state, base.grid, base.families)
    rho_f = _hermitian(40, 7, 0.0, 2.0, rank + 1)
    factor = _coerce_final_operator(rho_f, 40)[1]
    for direction, extra, core in (("forwards", {}, ()), ("backwards", {}, (True,)),
                                   ("two_state", {"rho_i": state, "rho_f": rho_f},
                                    (False, state, factor))):
        d = _gram(_rows(model, *core))
        expected = ref.functional_matrix(model, direction, **extra)
        assert np.max(np.abs(d - expected)) <= 1e-12, direction


def test_spectrum_is_lazy_and_read_only():
    state = StateOperator(_hermitian(6, 2, 0.0, 1.0, 9))
    assert "_spectrum" not in vars(state)
    w, v = state.eigenvalues, state.eigenvectors
    assert state.eigenvalues is w and state.eigenvectors is v
    assert np.array_equal(w, np.linalg.eigh(state._hermitian())[0])
    for a in (w, v, state.columns, state.eigen_columns()):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    with pytest.raises(AttributeError):
        state.eigenvalues = w
