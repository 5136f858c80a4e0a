import tracemalloc
import warnings

import numpy as np
import pytest

from decohist import model as model_module
from decohist.exceptions import ModelValidationError
from decohist.histories import (
    CoarseGraining,
    check_decoherence,
    check_two_state_decoherence,
    coarse_grain_check,
)
from decohist.linalg import max_abs
from decohist.model import (
    ProjectorFamily,
    QuantumModel,
    StateOperator,
    TimeGrid,
    as_state_vector,
    evolve_state,
    heisenberg_projector,
    is_time_symmetric,
    partial_trace,
    time_reverse_operator,
    time_reverse_state,
    time_reverse_vector,
)
from decohist.records import construct_records
from decohist.scenarios import (
    collapse_probability_table,
    haar_unitary,
    random_model,
    recoherence_scenario,
    spin_model,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _pure(psi):
    psi = np.asarray(psi, dtype=complex)
    return StateOperator.from_vector(psi / np.linalg.norm(psi))


# ---------------------------------------------------------------- states


def test_state_operator_accepts_valid_density_matrix():
    rho = np.diag([0.25, 0.75]).astype(complex)
    s = StateOperator(rho)
    assert s.dim == 2
    assert s.purity() == pytest.approx(0.625)


def test_state_operator_rejects_non_hermitian():
    with pytest.raises(ModelValidationError, match="Hermiticity"):
        StateOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_state_operator_rejects_bad_trace():
    with pytest.raises(ModelValidationError, match="trace"):
        StateOperator(np.diag([0.5, 0.6]))


def test_state_operator_rejects_negative_eigenvalue():
    with pytest.raises(ModelValidationError, match="positive semidefinite"):
        StateOperator(np.diag([1.2, -0.2]))


def test_from_vector_is_pure():
    s = StateOperator.from_vector([1.0, 0.0])
    assert s.is_pure()


def test_state_vector_norm_enforced():
    with pytest.raises(ModelValidationError, match="not normalized"):
        as_state_vector([1.0, 1.0])


def test_eigen_columns_factorize_state():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    s = StateOperator(rho / np.trace(rho).real)
    c = s.eigen_columns()
    assert max_abs(c @ c.conj().T - s.rho) <= 1e-12


def _mixed_rho(rank: int, dim: int = 4, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_stored_spectrum_is_read_only():
    s = StateOperator(_mixed_rho(4))
    for a in (s.eigenvalues, s.eigenvectors):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


@pytest.mark.parametrize("rank", [1, 2, 4], ids=["pure", "rank-deficient", "mixed"])
def test_purity_matches_trace_of_square(rank):
    s = StateOperator(_mixed_rho(rank))
    assert abs(s.purity() - np.trace(s.rho @ s.rho).real) <= 1e-12
    assert s.is_pure() == (rank == 1)


def test_state_vector_of_pure_matrix_matches_up_to_phase():
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    v = StateOperator(np.outer(psi, psi.conj())).state_vector()
    assert abs(abs(np.vdot(psi, v)) - 1.0) <= 1e-12


def test_state_is_diagonalised_once(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0}

    def counted(name):
        original = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    model = random_model(seed=3, dim=4, pure=False)
    assert calls == {"eigh": 0, "eigvalsh": 0}
    check_decoherence(model, "forwards")
    check_decoherence(model, "backwards")
    check_two_state_decoherence(model.initial_state, model.initial_state, model)
    check_two_state_decoherence(model.initial_state, model.initial_state.rho, model)
    merged = {"all": model.families[0].labels}
    singles = [{lab: (lab,) for lab in fam.labels} for fam in model.families[1:]]
    coarse_grain_check(model, CoarseGraining((merged, *singles)))
    collapse_probability_table(model)
    assert calls == {"eigh": 0, "eigvalsh": 0}
    w = model.initial_state.eigenvalues
    assert calls == {"eigh": 1, "eigvalsh": 0}
    assert model.initial_state.eigenvectors.shape == (4, 4)
    assert model.initial_state.eigen_columns().shape[1] == int(np.sum(w > 1e-14))
    assert calls == {"eigh": 1, "eigvalsh": 0}
    # A pure state's column is its vector: no factor, and one eigh when the spectrum is read.
    factored = []
    cholesky_rows = model_module._cholesky_rows
    monkeypatch.setattr(model_module, "_cholesky_rows", lambda h: factored.append(h) or cholesky_rows(h))
    pure = StateOperator.from_vector(haar_unitary(4, np.random.default_rng(1))[:, 0])
    assert calls == {"eigh": 1, "eigvalsh": 0} and factored == []
    assert pure.eigenvalues[-1] == pytest.approx(1.0)
    assert calls == {"eigh": 2, "eigvalsh": 0}
    # A pure state built from a matrix reads its vector from its one column: an eigh of the
    # 1 x 1 Gram may run, one of the d x d operator may not.
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: shapes.append(h.shape) or eigh(h))
    spin = spin_model(0.6)
    psi = spin.initial_state.vector
    pure = QuantumModel(StateOperator(np.outer(psi, psi.conj())), spin.grid, spin.families)
    vector = pure.initial_state.state_vector()
    assert abs(abs(np.vdot(psi, vector)) - 1.0) <= 1e-12
    assert collapse_probability_table(pure) == pytest.approx(collapse_probability_table(spin), abs=1e-12)
    assert construct_records(pure, vector).probabilities == pytest.approx(
        construct_records(spin, psi).probabilities, abs=1e-12)
    assert spin.dim == 18 and set(shapes) == {(1, 1)}


# ---------------------------------------------------------------- grids


def test_grid_requires_increasing_times():
    with pytest.raises(ModelValidationError, match="strictly increasing"):
        TimeGrid([0.0, 0.0, 1.0], [np.eye(2), np.eye(2)])


def test_grid_requires_unitary_steps():
    with pytest.raises(ModelValidationError, match="unitarity"):
        TimeGrid([0.0, 1.0], [2.0 * np.eye(2)])


def test_grid_step_count():
    with pytest.raises(ModelValidationError, match="step unitaries"):
        TimeGrid([0.0, 1.0, 2.0], [np.eye(2)])


def test_grid_from_generators_is_unitary():
    h = np.array([[1.0, 0.3], [0.3, -0.5]], dtype=complex)
    grid = TimeGrid.from_generators([0.0, 0.5, 2.0], [h, 2 * h])
    for u in grid.step_unitaries:
        assert max_abs(u @ u.conj().T - np.eye(2)) <= 1e-10


def test_cumulative_composition():
    rng = np.random.default_rng(12)
    steps = [haar_unitary(3, rng) for _ in range(3)]
    grid = TimeGrid([0.0, 1.0, 2.0, 3.0], steps)
    expected = steps[2] @ steps[1] @ steps[0]
    assert max_abs(grid.cumulative(3) - expected) <= 1e-13


def test_cumulative_first_product_is_the_first_step():
    rng = np.random.default_rng(12)
    steps = [haar_unitary(3, rng) for _ in range(2)]
    grid = TimeGrid([0.0, 1.0, 2.0], steps)
    assert np.array_equal(grid.cumulative(1), grid.step_unitaries[0])
    assert not grid.cumulative(2).flags.writeable


def test_grid_keeps_no_product_once_the_cumulative_one_is_dropped():
    rng = np.random.default_rng(13)
    steps = [haar_unitary(32, rng) for _ in range(6)]
    grid = TimeGrid(np.arange(7.0), steps)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        w = grid.cumulative(6)
        assert tracemalloc.get_traced_memory()[0] - before >= w.nbytes
        del w
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < steps[0].nbytes / 2  # no product of steps, not even the last one


def test_segment_multiplies_the_steps_between_two_times():
    rng = np.random.default_rng(14)
    steps = [haar_unitary(3, rng) for _ in range(4)]
    grid = TimeGrid([0.0, 1.0, 2.0, 3.0, 4.0], steps)
    assert grid.segment(2, 3) is grid.step_unitaries[2]
    assert max_abs(grid.segment(1, 4) - steps[3] @ steps[2] @ steps[1]) <= 1e-13
    assert max_abs(grid.segment(0, 4) - grid.cumulative(4)) <= 1e-13
    assert not grid.segment(0, 2).flags.writeable
    for a, b in ((1, 1), (2, 1), (-1, 2), (0, 5)):
        with pytest.raises(IndexError):
            grid.segment(a, b)


# ---------------------------------------------------------------- families


def _basis_family(time_index=1, dim=4, blocks=None, seed=13):
    rng = np.random.default_rng(seed)
    basis = haar_unitary(dim, rng)
    blocks = blocks or {"a": [0, 1], "b": [2, 3]}
    return ProjectorFamily.from_basis(time_index, basis, blocks)


def test_family_from_basis_satisfies_invariants():
    fam = _basis_family()
    total = sum(fam.projectors)
    assert max_abs(total - np.eye(4)) <= 1e-12
    for p in fam.projectors:
        assert max_abs(p @ p - p) <= 1e-12
        assert max_abs(p - p.conj().T) <= 1e-12
    assert max_abs(fam.member("a") @ fam.member("b")) <= 1e-12


@pytest.mark.parametrize("blocks", [{"a": [0, 1], "b": [1]}, {"a": [0, 0], "b": [1]}],
                         ids=["shared", "repeated"])
def test_family_from_basis_rejects_blocks_that_repeat_an_index(blocks):
    with pytest.raises(ModelValidationError, match="blocks do not partition basis columns"):
        ProjectorFamily.from_basis(1, np.eye(2), blocks)


def test_family_warns_on_near_violation():
    p0 = np.diag([1.0 + 5e-10, 0.0])
    p1 = np.diag([0.0, 1.0])
    with pytest.warns(UserWarning) as caught:
        ProjectorFamily(1, [("a", p0), ("b", p1)])
    messages = [str(w.message) for w in caught]
    assert any("idempotence" in m for m in messages)
    assert any("completeness" in m for m in messages)


def test_family_rejects_large_violation():
    p0 = np.diag([1.1, 0.0])
    p1 = np.diag([0.0, 1.0])
    with pytest.raises(ModelValidationError):
        ProjectorFamily(1, [("a", p0), ("b", p1)])


def test_family_rejects_non_orthogonal():
    p = np.diag([1.0, 0.0])
    with pytest.raises(ModelValidationError, match="orthogonality"):
        ProjectorFamily(1, [("a", p), ("b", p)])


def test_family_rejects_incomplete():
    p = np.diag([1.0, 0.0, 0.0])
    q = np.diag([0.0, 1.0, 0.0])
    with pytest.raises(ModelValidationError, match="completeness"):
        ProjectorFamily(1, [("a", p), ("b", q)])


@pytest.mark.parametrize("members,bad", [
    ([("a", np.ones((2, 3))), ("b", np.eye(2))], "'a' has shape (2, 3), expected (2, 2)"),
    ([("a", np.diag([1.0, 0.0])), ("b", np.eye(3))], "'b' has shape (3, 3), expected (2, 2)"),
], ids=["first", "second"])
def test_family_rejects_a_member_of_the_wrong_shape(members, bad):
    with pytest.raises(ModelValidationError) as err:
        ProjectorFamily(1, members)
    assert bad in str(err.value)


# ---------------------------------------------------------------- model assembly


def _small_model(steps=None, families=None, psi=(1.0, 0.0)):
    eye = np.eye(2, dtype=complex)
    steps = steps if steps is not None else [eye, eye]
    grid = TimeGrid(np.arange(len(steps) + 1, dtype=float), steps)
    if families is None:
        families = [ProjectorFamily(1, [("0", np.diag([1.0, 0.0])), ("1", np.diag([0.0, 1.0]))])]
    return QuantumModel(_pure(psi), grid, families)


def test_family_must_sit_inside_grid():
    eye = np.eye(2, dtype=complex)
    grid = TimeGrid([0.0, 1.0, 2.0], [eye, eye])
    fam = ProjectorFamily(2, [("0", np.diag([1.0, 0.0])), ("1", np.diag([0.0, 1.0]))])
    with pytest.raises(ModelValidationError, match="strictly inside"):
        QuantumModel(_pure([1, 0]), grid, [fam])


def test_family_indices_strictly_increasing():
    eye = np.eye(2, dtype=complex)
    grid = TimeGrid([0.0, 1.0, 2.0, 3.0], [eye, eye, eye])
    fam = lambda k: ProjectorFamily(k, [("0", np.diag([1.0, 0.0])), ("1", np.diag([0.0, 1.0]))])
    with pytest.raises(ModelValidationError, match="strictly increasing"):
        QuantumModel(_pure([1, 0]), grid, [fam(2), fam(1)])


def test_history_enumeration_is_lexicographic():
    m = spin_model(0.6)
    assert m.history_labels() == [
        ("x+", "z+"), ("x+", "z-"), ("x-", "z+"), ("x-", "z-"),
    ]


# ---------------------------------------------------------------- heisenberg picture


def test_heisenberg_projector_trivial_dynamics():
    m = _small_model()
    p = heisenberg_projector(m, 0, "0")
    np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-14)


def test_heisenberg_projector_double_conjugation():
    m = spin_model(0.6)
    fam = m.families[1]
    w = m.grid.cumulative(fam.time_index)
    p = heisenberg_projector(m, 1, "z+")
    back = w @ p @ w.conj().T
    assert max_abs(back - fam.member("z+")) <= 1e-12


def test_heisenberg_projector_is_projector_and_complete():
    m = spin_model(0.37 + 0.41j)
    for k, fam in enumerate(m.families):
        total = np.zeros((m.dim, m.dim), dtype=complex)
        for label in fam.labels:
            p = heisenberg_projector(m, k, label)
            assert max_abs(p @ p - p) <= 1e-10
            total += p
        assert max_abs(total - np.eye(m.dim)) <= 1e-10


def test_evolve_state_identity_at_zero():
    m = spin_model(0.6)
    assert max_abs(evolve_state(m, 0).rho - m.initial_state.rho) == 0.0


def test_evolve_state_preserves_purity():
    m = spin_model(0.8j)
    for k in range(m.grid.n_times):
        assert abs(evolve_state(m, k).purity() - 1.0) <= 1e-12


def test_states_keep_the_negative_eigenvalues_validation_lets_through():
    # 20 eigenvalues at -9e-11 pass validation, but their 1.8e-9 of trace is not in the columns
    rng = np.random.default_rng(26)
    d = 32
    w = np.full(d, -9e-11)
    w[20:] = (1.0 + 20 * 9e-11) / (d - 20)
    o = np.linalg.qr(rng.standard_normal((d, d)))[0]
    u0, u1 = haar_unitary(d, rng), haar_unitary(d, rng)
    rho_0 = (u1 @ u0).conj().T @ ((o * w) @ o.T) @ (u1 @ u0)  # real, so time-symmetric, at t = 0
    state = StateOperator((rho_0 + rho_0.conj().T) / 2)
    model = QuantumModel(state, TimeGrid([-2.0, -1.0, 0.0, 1.0, 2.0], [u0, u1, u1.T, u0.T]), [])
    half = np.kron(np.diag([1.0, 1.0, 0.0, 0.0]), np.eye(8)).astype(complex)
    base = QuantumModel(state, TimeGrid([-2.0, -1.0, 0.0], [u0, u1]),
                        [ProjectorFamily(1, [("a", half), ("b", np.eye(d) - half)])], factors=(4, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evolve_state(model, 0) is state
        for k in range(1, model.grid.n_times):
            u = model.grid.segment(0, k)
            evolved = evolve_state(model, k)
            assert max_abs(evolved.rho - u @ state.rho @ u.conj().T) <= 1e-12
            assert evolved.eigenvalues[0] < -8e-11
        assert is_time_symmetric(model, 2)
        assert len(recoherence_scenario(base).purity_curve) == 5


def test_evolve_state_takes_steps_unitary_to_the_tolerance():
    # a carried vector's norm drifts 4e-11 over two steps, past a state vector's 1e-12 check
    rng = np.random.default_rng(27)
    steps = [haar_unitary(8, rng) * (1.0 + 2e-11) for _ in range(2)]
    model = QuantumModel(_pure(rng.standard_normal(8)), TimeGrid([0.0, 1.0, 2.0], steps), [])
    w = model.grid.segment(0, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evolved = evolve_state(model, 2)
    assert max_abs(evolved.rho - w @ model.initial_state.rho @ w.conj().T) <= 1e-12


@pytest.mark.parametrize("k", [4, 99, -1])
def test_evolve_state_refuses_indices_off_the_grid(k):
    with pytest.raises(IndexError, match="out of range"):
        evolve_state(spin_model(0.6), k)


def test_evolve_state_composes():
    rng = np.random.default_rng(14)
    steps = [haar_unitary(4, rng) for _ in range(3)]
    grid = TimeGrid([0.0, 1.0, 2.0, 3.0], steps)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    model = QuantumModel(_pure(psi), grid, [])
    mid = evolve_state(model, 2)
    resumed = QuantumModel(mid, TimeGrid([2.0, 3.0], steps[2:]), [])
    direct = evolve_state(model, 3).rho
    stitched = evolve_state(resumed, 1).rho
    assert max_abs(direct - stitched) <= 1e-11


def test_spin_reduced_particle_state_is_maximally_mixed():
    m = spin_model(0.6)
    rho3 = evolve_state(m, 3)
    reduced = partial_trace(rho3, m.factors, keep=0)
    assert max_abs(reduced.rho - np.eye(2) / 2.0) <= 1e-12


# ---------------------------------------------------------------- partial trace


def test_partial_trace_product_state():
    rho_a = np.diag([0.2, 0.8]).astype(complex)
    rho_b = np.diag([0.5, 0.25, 0.25]).astype(complex)
    joint = np.kron(rho_a, rho_b)
    np.testing.assert_allclose(partial_trace(joint, (2, 3), keep=0), rho_a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, (2, 3), keep=1), rho_b, atol=1e-12)


def test_partial_trace_maximally_entangled():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(bell, bell.conj())
    for keep in (0, 1):
        np.testing.assert_allclose(partial_trace(rho, (2, 2), keep), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_rejects_bad_dims():
    with pytest.raises(ValueError, match="inconsistent"):
        partial_trace(np.eye(4) / 4.0, (2, 3), keep=0)


# ---------------------------------------------------------------- time reversal


def test_time_reverse_fixes_real_state():
    rho = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
    s = StateOperator(rho)
    assert max_abs(time_reverse_state(s).rho - rho) == 0.0


def test_time_reverse_involution():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = a @ a.conj().T
    s = StateOperator(rho / np.trace(rho).real)
    twice = time_reverse_state(time_reverse_state(s))
    assert max_abs(twice.rho - s.rho) <= 1e-13


def test_time_reverse_plus_y_gives_minus_y():
    plus_y = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    s = StateOperator.from_vector(plus_y)
    # conjugating (1, i)/sqrt(2) by hand gives (1, -i)/sqrt(2)
    minus_y_rho = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
    assert max_abs(time_reverse_state(s).rho - minus_y_rho) <= 1e-14


def test_model_rejects_conjugation_basis_that_is_not_an_involution():
    # unitary but neither symmetric nor antisymmetric: B B^* = diag(-i, i)
    b = np.array([[0.0, 1.0], [1.0j, 0.0]])
    with pytest.raises(ModelValidationError, match="symmetr"):
        QuantumModel(_pure([1.0, 0.0]), _small_model().grid, [], conjugation_basis=b)


def test_model_rejects_conjugation_basis_of_another_dimension():
    grid = TimeGrid([0.0, 1.0, 2.0], [np.eye(4)] * 2)
    with pytest.raises(ModelValidationError, match="conjugation basis shape"):
        QuantumModel(StateOperator(np.eye(4) / 4), grid, [], conjugation_basis=np.eye(2))


def test_model_accepts_antisymmetric_conjugation_basis():
    i_sigma_y = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    m = QuantumModel(_pure([1.0, 0.0]), _small_model().grid, [], conjugation_basis=i_sigma_y)
    psi = np.array([0.6, 0.8j])
    # T^2 = -1 on vectors, a global phase; operators come back unchanged
    twice = time_reverse_vector(time_reverse_vector(psi, m.conjugation_basis), m.conjugation_basis)
    assert max_abs(twice + psi) <= 1e-15


def test_time_reverse_requires_unitary_basis():
    s = StateOperator.from_vector([1.0, 0.0])
    with pytest.raises(ModelValidationError, match="unitary"):
        time_reverse_state(s, np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("reverse,operand", [
    (time_reverse_operator, np.eye(3)),
    (time_reverse_vector, np.ones(3) / np.sqrt(3.0)),
    (time_reverse_state, StateOperator(np.eye(3) / 3.0)),
], ids=["operator", "vector", "state"])
def test_time_reverse_refuses_a_basis_of_another_shape(reverse, operand):
    with pytest.raises(ModelValidationError,
                       match=r"conjugation basis shape \(2, 2\) does not match operand shape \(3(, 3)?,?\)"):
        reverse(operand, np.eye(2))


# ---------------------------------------------------------------- time symmetry probe


def test_time_symmetric_real_hamiltonian_real_center_state():
    # real generator, symmetric grid, and an initial state chosen so that the
    # state at the center time is real: exp(+i sigma_x)|0> = (cos 1, i sin 1)
    h = SIGMA_X
    grid = TimeGrid.from_generators([-1.0, 0.0, 1.0], [h, h])
    psi0 = np.array([np.cos(1.0), 1j * np.sin(1.0)])
    m = QuantumModel(_pure(psi0), grid, [])
    res = is_time_symmetric(m, 1)
    assert res.symmetric, res.diagnostic


def test_time_symmetric_rejects_complex_center_state():
    h = SIGMA_X
    grid = TimeGrid.from_generators([-1.0, 0.0, 1.0], [h, h])
    plus_y = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    back = grid.cumulative(1).conj().T @ plus_y  # state that reaches |+y> at center
    m = QuantumModel(_pure(back), grid, [])
    res = is_time_symmetric(m, 1)
    assert not res.symmetric
    assert "state" in res.diagnostic


def test_time_symmetric_rejects_asymmetric_grid():
    h = SIGMA_X
    grid = TimeGrid.from_generators([-1.0, 0.0, 2.0], [h, h])
    m = QuantumModel(_pure([1.0, 0.0]), grid, [])
    res = is_time_symmetric(m, 1)
    assert not res.symmetric
    assert "grid" in res.diagnostic


def test_time_symmetric_rejects_asymmetric_dynamics():
    rng = np.random.default_rng(16)
    u = haar_unitary(2, rng)
    grid = TimeGrid([-1.0, 0.0, 1.0], [u, u])  # mirror would need u^T in second slot
    m = QuantumModel(_pure([1.0, 0.0]), grid, [])
    res = is_time_symmetric(m, 1)
    assert not res.symmetric
    assert "dynamics" in res.diagnostic
