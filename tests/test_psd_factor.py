"""The certified pivoted-Cholesky factor of states and final operators.

``model._psd_columns`` replaces the eigenvalue test of positivity whenever
it can prove it.  Hypothesis draws Hermitian matrices with a chosen rank and
smallest eigenvalue, including ones just inside and just outside the
tolerance; the accept/reject verdict and message of ``StateOperator`` and of
the final-operator check must equal the eigenvalue rule's, and a returned
factor must reproduce its matrix.  Larger explicit cases certify ranks up
to 72, and a final operator of large trace reaches the bound on the
eigensolver's error; the functionals of such states are checked against the
reference evaluator.  The certified factor is the same at one and at two
BLAS threads.  A factor taken from eigenvalues keeps one column per unit of
the rank that ``_rank_and_vector`` counts, at any BLAS thread count.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import reference_evaluator as ref
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from decohist import model as model_module
from decohist.exceptions import ModelValidationError
from decohist.bounds import _gamma
from decohist.histories import _coerce_final_operator, _gram, _rows, check_two_state_decoherence
from decohist.model import (ATOL_MODEL, QuantumModel, StateOperator, _eigen_floor, _psd_columns,
                            _rank_and_vector)
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
@example((40, 33, 0.0, 6))
@example((48, 47, -2e-10, 7))
@example((64, 64, -0.4e-10, 8))
@example((72, 70, 1e-9, 9))
@example((72, 72, 0.0, 10))
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
@example((40, 35, -2e-10, 11), 3.0)
@example((64, 50, 0.0, 12), 40.0)
@example((72, 72, -0.4e-10, 13), 0.25)
@example((72, 71, 1e-3, 14), 3.0)
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
    # certified at any dim; at 1e6 the rounding allowance alone exceeds the budget, and eigh decides
    certified = scale <= 10
    _check_factor(h, None if not certified else dim if scale else 0)
    assert (_psd_columns(h) is None) == (not certified)


@pytest.mark.parametrize("dim,rank", [(40, 31), (40, 32), (40, 33), (48, 47), (48, 48),
                                      (70, 64), (70, 70)])
def test_ranks_above_the_limit_are_decided_by_eigenvalues(dim, rank, monkeypatch):
    """No rank limit: PSD operators of rank 31 to 70 are certified, with no eigh.

    Shifted by -2e-10, the same operators fail the certificate and are
    decided by eigenvalues, with the eigenvalue rule's verdict and message.
    """
    h = _hermitian(dim, rank, 0.0, 1.0, 100 + rank)
    _check_factor(h, rank)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    state = StateOperator(h)
    assert calls == [] and _coerce_final_operator(h, dim)[1].shape == (dim, rank)
    monkeypatch.undo()
    assert state.columns.shape == (dim, rank)
    assert np.max(np.abs(state.columns @ state.columns.conj().T - h)) <= 1e-12
    bad = _hermitian(dim, rank, -2e-10, 1.0, 100 + rank)
    message = _state_verdict_by_eigenvalues(bad)
    assert _psd_columns(bad) is None
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

    The trace is read before any pivot, so such an operator is not factored.
    The eigenvalue floor grows with the operator, so these PSD operators are
    accepted at every trace.
    """
    rng = np.random.default_rng(dim)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    h = trace * np.outer(v, v.conj()) / np.vdot(v, v).real
    h = (h + h.conj().T) / 2.0
    decided_by_eigenvalues = dim * np.finfo(float).eps / 2 * trace > ATOL_MODEL / 2
    assert (_psd_columns(h) is None) == decided_by_eigenvalues
    calls, factored = [], []
    eigh, cholesky_rows = np.linalg.eigh, model_module._cholesky_rows
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    monkeypatch.setattr(model_module, "_cholesky_rows", lambda a: factored.append(1) or cholesky_rows(a))
    assert _final_verdict_by_eigenvalues(h) is None
    m, factor = _coerce_final_operator(h, dim)
    assert len(calls) == decided_by_eigenvalues and len(factored) == (not decided_by_eigenvalues)
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


_FACTOR_SCRIPT = """
import sys
import numpy as np
from decohist.histories import _coerce_final_operator
from decohist.model import StateOperator
rho, rho_f = np.load(sys.argv[1] + "/rho.npy"), np.load(sys.argv[1] + "/rho_f.npy")
np.save(sys.argv[2], StateOperator(rho).columns)
np.save(sys.argv[3], _coerce_final_operator(rho_f, rho_f.shape[0])[1])
"""


def test_factors_are_the_same_at_one_and_two_blas_threads(tmp_path):
    """A full-rank state and final operator at d = 256, factored under 1 and under 2 threads.

    Both are certified, so neither runs eigh, whose eigenvectors differ
    between thread counts at this size.  Evolved states and walks are not
    covered.
    """
    np.save(tmp_path / "rho.npy", _hermitian(256, 256, 0.0, 1.0, 11))
    np.save(tmp_path / "rho_f.npy", _hermitian(256, 256, 0.0, 3.0, 12))
    src = Path(__file__).resolve().parents[1] / "src"
    factors = []
    for threads in ("1", "2"):
        outs = [tmp_path / f"{name}{threads}.npy" for name in ("columns", "factor")]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", _FACTOR_SCRIPT, str(tmp_path), *map(str, outs)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        factors.append([np.load(out) for out in outs])
    for one, two in zip(*factors):
        assert one.shape == (256, 256) and one.tobytes() == two.tobytes()


_VECTOR_SCRIPT = """
import sys
from types import SimpleNamespace
import numpy as np
from decohist.cli import _rank_one_vector
from decohist.model import StateOperator
rho = np.load(sys.argv[1])
np.save(sys.argv[2], _rank_one_vector(SimpleNamespace(dim=rho.shape[0]), rho, "abl"))
np.save(sys.argv[3], StateOperator(rho).state_vector())
"""


def test_vectors_are_the_same_at_one_and_two_blas_threads(tmp_path):
    """The vector of a rank-one rho_final and of a pure state built from a matrix, at d = 512.

    Both are read from the certified factor through the 1 x 1 Gram of its column, not from
    eigh of the d x d operator, whose eigenvectors differ between thread counts at this size.
    """
    psi = haar_unitary(512, np.random.default_rng(13))[:, 0]
    np.save(tmp_path / "rho.npy", np.outer(psi, psi.conj()))
    src = Path(__file__).resolve().parents[1] / "src"
    vectors = []
    for threads in ("1", "2"):
        outs = [tmp_path / f"{name}{threads}.npy" for name in ("final", "state")]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", _VECTOR_SCRIPT, str(tmp_path / "rho.npy"),
                               *map(str, outs)], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        vectors.append([np.load(out) for out in outs])
    for one, two in zip(*vectors):
        assert one.shape == (512,) and one.tobytes() == two.tobytes()
    assert abs(abs(np.vdot(psi, vectors[0][0])) - 1.0) <= 1e-12


_WIDTH_SCRIPT = """
import numpy as np
from decohist.histories import _coerce_final_operator
from decohist.model import _rank_and_vector
for dim in (64, 256, 512):
    rng = np.random.default_rng(dim)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    factor = _coerce_final_operator(1e6 * np.outer(v, v.conj()), dim)[1]
    rank, u = _rank_and_vector(factor)
    print(dim, factor.shape[1], rank, abs(abs(np.vdot(v, u)) - 1.0))
"""


def test_eigenvalue_factors_keep_one_column_per_unit_of_rank_at_one_and_two_blas_threads():
    """rho_f = 1e6 v v^dagger at d = 64, 256 and 512 is factored by eigenvalues into one column.

    eigh's noise eigenvalues, near d u 1e6 and so above 1e-14 but within the rank floor,
    give no column.  Widths, ranks and vectors are compared, not bytes: eigh's vector
    itself differs between thread counts at d = 512.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", _WIDTH_SCRIPT], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        for line in proc.stdout.splitlines():
            dim, width, rank, gap = line.split()
            assert (width, rank) == ("1", "1") and float(gap) <= 1e-12, (threads, line)


@st.composite
def eigenvalue_path_operators(draw):
    """(dim, eigenvalues, seed) of operators that the certificate refuses and the eigenvalue rule accepts.

    Final operators of rank at most 6 and trace at least 1e4, whose rounding allowance
    exceeds the certificate's budget, or unit-trace states with one eigenvalue in
    [-9e-11, -6e-11] and a few in (1e-14, 1e-10].
    """
    dim = draw(st.integers(2, 64))
    unit = st.floats(0.05, 1.0)
    if draw(st.booleans()):
        w = np.array(draw(st.lists(unit, min_size=1, max_size=min(6, dim))))
        w *= 10.0 ** draw(st.floats(4.0, 9.0)) / w.sum()
    else:
        n_small = draw(st.integers(0, min(3, dim - 2)))
        big = np.array(draw(st.lists(unit, min_size=1, max_size=dim - 1 - n_small)))
        small = draw(st.lists(st.floats(1e-14, 1e-10, exclude_min=True), min_size=n_small,
                              max_size=n_small))
        w = np.concatenate([big * (1.0 - sum(small)) / big.sum(), small,
                            [-draw(st.floats(6e-11, 9e-11))]])
        w[0] += 1.0 - w.sum()
    return dim, np.pad(w, (0, dim - w.size)), draw(st.integers(0, 2**32 - 1))


def _factor(dim, w, seed):
    """The factor of U diag(w) U^dagger, a state's ``columns`` at unit trace, else rho_f's."""
    u = haar_unitary(dim, np.random.default_rng(seed))
    h = (u * w) @ u.conj().T
    h = (h + h.conj().T) / 2.0
    if abs(np.trace(h).real - 1.0) <= ATOL_MODEL:
        return h, StateOperator(h).columns
    return h, _coerce_final_operator(h, dim)[1]


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(eigenvalue_path_operators())
def test_eigenvalue_factors_are_as_wide_as_their_rank(case):
    """The factor of an operator decided by eigenvalues has its rank's width and reproduces it.

    Eigenvalues within the floor, of either sign, give no column, so F F^dagger is within
    d :func:`_eigen_floor` of the operator.  A final operator keeps its k columns.
    """
    dim, w, seed = case
    h, factor = _factor(dim, w, seed)
    assume(_psd_columns(h) is None)
    assert factor.shape[1] == _rank_and_vector(factor)[0]
    assert np.max(np.abs(factor @ factor.conj().T - h)) <= dim * _eigen_floor(np.linalg.eigvalsh(h))
    if w.min() >= 0.0:  # a final operator, whose eigenvalues are all zero or above 1e4 / 120
        assert factor.shape[1] == np.count_nonzero(w)


def test_state_eigenvalues_within_the_floor_give_no_column():
    """A unit-trace state with five eigenvalues in [0.1, 1] and four within 1e-10 of zero.

    Its eigenvalue -8e-11 fails the certificate, so eigh factors it: 5 columns, not 8.
    """
    w = np.array([0.1, 0.3, 0.5, 0.7, 1.0] + [0.0] * 27)
    w *= (1.0 - 3e-11 - 5e-12 - 2e-13 + 8e-11) / w.sum()
    w[5:9] = -8e-11, 3e-11, 5e-12, 2e-13
    h, factor = _factor(32, w, 32)
    assert _psd_columns(h) is None
    assert factor.shape == (32, 5) and _rank_and_vector(factor)[0] == 5


def test_eigenvalue_factored_final_operator_matches_the_reference():
    """Two-state values with rho_f = 1e6 v v^dagger at d = 256 equal the dense functional.

    Each value is within its pair's rounding floor gamma_n sqrt(D_ii D_jj) of
    ``reference_evaluator``'s Tr(rho_f L_i rho_i L_j^dagger), which reads rho_f whole.
    """
    model = random_model(seed=2, dim=256, n_families=4, members_per_family=2, pure=False)
    rng = np.random.default_rng(256)
    v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    rho_f = 1e6 * np.outer(v, v.conj()) / np.vdot(v, v).real
    factor = _coerce_final_operator(rho_f, 256)[1]
    assert factor.shape == (256, 1)
    d = _gram(_rows(model, False, model.initial_state, factor))
    expected = ref.functional_matrix(model, "two_state", rho_i=model.initial_state, rho_f=rho_f)
    root = np.sqrt(np.outer(d.diagonal().real, d.diagonal().real))
    gamma = _gamma(model.initial_state.columns.shape[1] + 2 * (model.n_families + 1) * 256)
    assert np.all(np.abs(d - expected) <= gamma * root)
    report = check_two_state_decoherence(model.initial_state, rho_f, model)
    assert report.classification == "not_decoherent"
