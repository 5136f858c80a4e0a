import numpy as np
import pytest

from decohist import histories, records
from decohist.exceptions import ConditionNotSatisfiedError, MixedStateError, ModelValidationError
from decohist.linalg import max_abs
from decohist.model import ProjectorFamily, QuantumModel, StateOperator, TimeGrid
from decohist.records import (
    branch_vectors,
    construct_records,
    strong_decoherence_iff_orthogonality,
)
from decohist.scenarios import random_model, spin_model

PLUS_X = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
PLUS_Z = np.array([1.0, 0.0], dtype=complex)


def _state_vector(model):
    w, v = np.linalg.eigh(model.initial_state.rho)
    return v[:, -1]


def _interference_model():
    eye = np.eye(2, dtype=complex)
    grid = TimeGrid([0.0, 1.0, 2.0, 3.0], [eye, eye, eye])
    px = np.outer(PLUS_X, PLUS_X.conj())
    families = [
        ProjectorFamily(1, [("x+", px), ("x-", np.eye(2) - px)]),
        ProjectorFamily(2, [("z+", np.diag([1.0, 0.0])), ("z-", np.diag([0.0, 1.0]))]),
    ]
    return QuantumModel(StateOperator.from_vector(PLUS_Z), grid, families)


# ------------------------------------------------ branch vectors


def test_spin_branch_norms_match_probabilities():
    m = spin_model(0.6)
    psi = _state_vector(m)
    branches = branch_vectors(m, psi)
    norms = {b.history: b.norm_squared() for b in branches}
    assert norms[("x+", "z+")] == pytest.approx(0.18, abs=1e-10)
    assert norms[("x+", "z-")] == pytest.approx(0.18, abs=1e-10)
    assert norms[("x-", "z+")] == pytest.approx(0.32, abs=1e-10)
    assert norms[("x-", "z-")] == pytest.approx(0.32, abs=1e-10)
    assert sum(norms.values()) == pytest.approx(1.0, abs=1e-9)


def test_spin_branches_pairwise_orthogonal():
    m = spin_model(0.37 + 0.2j)
    branches = branch_vectors(m, _state_vector(m))
    for i in range(len(branches)):
        for j in range(i + 1, len(branches)):
            overlap = abs(np.vdot(branches[i].vector, branches[j].vector))
            assert overlap <= 1e-10


def test_single_basis_family_branches_are_components():
    eye = np.eye(3, dtype=complex)
    grid = TimeGrid([0.0, 1.0, 2.0], [eye, eye])
    fam = ProjectorFamily.from_basis(1, np.eye(3), {f"e{j}": [j] for j in range(3)})
    psi = np.array([0.6, 0.0, 0.8], dtype=complex)
    m = QuantumModel(StateOperator.from_vector(psi), grid, [fam])
    branches = {b.history: b.vector for b in branch_vectors(m, psi)}
    np.testing.assert_allclose(branches[("e0",)], [0.6, 0, 0], atol=1e-14)
    np.testing.assert_allclose(branches[("e2",)], [0, 0, 0.8], atol=1e-14)


def test_branch_vectors_reject_mixed_state():
    eye = np.eye(2, dtype=complex)
    grid = TimeGrid([0.0, 1.0, 2.0], [eye, eye])
    fam = ProjectorFamily(1, [("0", np.diag([1.0, 0.0])), ("1", np.diag([0.0, 1.0]))])
    m = QuantumModel(StateOperator(np.eye(2) / 2.0), grid, [fam])
    with pytest.raises(MixedStateError):
        branch_vectors(m, PLUS_Z)


def test_branch_norm_sums_on_random_pure_models():
    for seed in range(8):
        m = random_model(seed + 200, dim=5, n_families=2, pure=True)
        psi = _state_vector(m)
        total = sum(b.norm_squared() for b in branch_vectors(m, psi))
        assert total == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------ equivalence


def test_spin_model_equivalence_both_sides_pass():
    m = spin_model(0.6)
    rep = strong_decoherence_iff_orthogonality(m, _state_vector(m))
    assert rep.agrees
    assert all(agree for _, _, _, agree in rep.per_depth)
    assert rep.full_report.decoherent
    off = rep.gram - np.diag(np.diag(rep.gram))
    assert max_abs(off) <= 1e-10


def test_interference_model_both_sides_fail_together():
    m = _interference_model()
    rep = strong_decoherence_iff_orthogonality(m, PLUS_Z)
    assert rep.agrees
    depth2 = rep.per_depth[1]
    assert not depth2[2]  # strong decoherence fails at full depth
    # the overlap computed by hand: both two-step branches through z+ equal
    # |+z>/2, so their inner product is 1/4
    assert abs(rep.gram[0, 2] - 0.25) <= 1e-12


def test_single_family_trivially_agrees():
    eye = np.eye(2, dtype=complex)
    grid = TimeGrid([0.0, 1.0, 2.0], [eye, eye])
    fam = ProjectorFamily(1, [("0", np.diag([1.0, 0.0])), ("1", np.diag([0.0, 1.0]))])
    m = QuantumModel(StateOperator.from_vector(PLUS_X), grid, [fam])
    rep = strong_decoherence_iff_orthogonality(m, PLUS_X)
    assert rep.agrees
    assert rep.full_report.decoherent


def test_equivalence_on_random_models():
    for seed in range(20):
        m = random_model(seed + 300, dim=4, n_families=2, pure=True)
        rep = strong_decoherence_iff_orthogonality(m, _state_vector(m))
        assert rep.agrees, f"seed {seed + 300}"


# ------------------------------------------------ record construction


def test_spin_records_correlation_and_extension():
    m = spin_model(0.6)
    psi = _state_vector(m)
    recs = construct_records(m, psi)
    assert recs.time == pytest.approx(3.0)
    diag = np.diag(recs.correlation)
    probs = [recs.probabilities[h] for h in recs.histories]
    np.testing.assert_allclose(diag, probs, atol=1e-9)
    off = recs.correlation - np.diag(diag)
    assert max_abs(off) <= 1e-9
    assert recs.extension_report.decoherent
    # record projectors are orthogonal and dominated by the identity
    total = sum(recs.projections.values())
    assert max_abs(total @ total - total) <= 1e-9
    assert max_abs(recs.residual @ recs.residual - recs.residual) <= 1e-9


def test_spin_records_live_in_pointer_sectors():
    # each record is dominated by the corresponding pointer product projector
    m = spin_model(0.6)
    recs = construct_records(m, _state_vector(m))
    eye2 = np.eye(2)
    pointer = {"x+": 1, "x-": 2, "z+": 1, "z-": 2}  # pointer basis slots
    for h, r in recs.projections.items():
        p1 = np.zeros((3, 3))
        p1[pointer[h[0]], pointer[h[0]]] = 1.0
        p2 = np.zeros((3, 3))
        p2[pointer[h[1]], pointer[h[1]]] = 1.0
        sector = np.kron(eye2, np.kron(p1, p2))
        assert max_abs(sector @ r - r) <= 1e-10


def test_deterministic_chain_single_record():
    eye = np.eye(3, dtype=complex)
    grid = TimeGrid([0.0, 1.0, 2.0], [eye, eye])
    fam = ProjectorFamily.from_basis(1, np.eye(3), {f"e{j}": [j] for j in range(3)})
    psi = np.array([1.0, 0.0, 0.0], dtype=complex)
    m = QuantumModel(StateOperator.from_vector(psi), grid, [fam])
    recs = construct_records(m, psi)
    nonzero = [h for h, r in recs.projections.items() if max_abs(r) > 0]
    assert nonzero == [("e0",)]
    np.testing.assert_allclose(recs.projections[("e0",)],
                               np.diag([1.0, 0.0, 0.0]), atol=1e-12)


def test_record_extension_over_the_memory_budget_is_refused_before_it_is_built(monkeypatch):
    # the spin set (4 histories) fits the budget; its extension by 5 records does not
    m = spin_model(0.6)
    monkeypatch.setattr(histories, "MEMORY_BUDGET", 10_000)
    built = []
    family = records.ProjectorFamily
    monkeypatch.setattr(records, "ProjectorFamily", lambda *a: built.append(a) or family(*a))
    with pytest.raises(ModelValidationError, match=r"^20 histories \(190 pairs\)"):
        construct_records(m, _state_vector(m))
    assert built == []


def test_records_refuse_interference_model():
    m = _interference_model()
    with pytest.raises(ConditionNotSatisfiedError, match="strong"):
        construct_records(m, PLUS_Z)


def test_records_refuse_early_time():
    m = spin_model(0.6)
    with pytest.raises(ValueError, match="precedes"):
        construct_records(m, _state_vector(m), time_index=1)


def test_records_valid_at_later_times():
    # a trailing nontrivial step: records built at the earlier and later slots
    # are unitary images of each other and keep the correlation structure
    m = spin_model(0.6)
    psi = _state_vector(m)
    from decohist.scenarios import haar_unitary

    rng = np.random.default_rng(5)
    extra = haar_unitary(18, rng)
    times = list(m.grid.times) + [4.0]
    steps = list(m.grid.step_unitaries) + [extra]
    extended = QuantumModel(m.initial_state, TimeGrid(times, steps), m.families,
                            factors=m.factors)
    early = construct_records(extended, psi, time_index=3)
    late = construct_records(extended, psi, time_index=4)
    np.testing.assert_allclose(early.correlation, late.correlation, atol=1e-9)
    for h in early.projections:
        moved = extra @ early.projections[h] @ extra.conj().T
        assert max_abs(moved - late.projections[h]) <= 1e-9
