import itertools

import numpy as np
import pytest

from decohist import histories, linalg
from decohist.exceptions import (
    ConditionNotSatisfiedError,
    DegenerateNormalizationError,
    ModelValidationError,
)
from decohist.histories import (
    both_conditions_theorem_check,
    check_decoherence,
    check_two_state_decoherence,
    decoherence_functional,
    page_symmetric_cosmology_check,
    pure_two_state_triviality_check,
    time_reversed_history_set,
    two_state_functional,
    two_state_probability,
    two_state_probability_table,
)
from decohist.linalg import max_abs
from decohist.model import (
    ProjectorFamily,
    QuantumModel,
    StateOperator,
    TimeGrid,
    heisenberg_projector,
    is_time_symmetric,
)
from decohist.scenarios import (
    abl_probability,
    commuting_random_model,
    haar_unitary,
    random_model,
    spin_model,
    spin_post_selection,
    spin_symmetric_scenario,
)


def _heisenberg_chain(model, labels):
    idx = model.history_indices(tuple(labels))
    op = np.eye(model.dim, dtype=complex)
    for k, j in enumerate(idx):
        op = heisenberg_projector(model, k, j) @ op
    return op


def _commuting_final_operator(model, seed):
    """A second operator diagonal in the state's eigenbasis, unnormalized."""
    rng = np.random.default_rng(seed)
    w, v = np.linalg.eigh(model.initial_state.rho)
    weights = rng.uniform(0.2, 2.0, size=w.size)
    return v @ np.diag(weights) @ v.conj().T


# ------------------------------------------------ reductions and identities


def test_identity_final_operator_reduces_to_forwards():
    for seed in range(6):
        m = random_model(seed + 100, dim=4, n_families=2, pure=bool(seed % 2))
        eye = np.eye(m.dim)
        hs = m.history_labels()
        for h, hp in [(hs[0], hs[0]), (hs[0], hs[-1]), (hs[1], hs[0])]:
            two = two_state_functional(m.initial_state, eye, m, h, hp)
            fwd = decoherence_functional(m, h, hp, "forwards")
            assert abs(two - fwd) <= 1e-12


def test_normalization_sum_when_condition_holds():
    # commuting construction: the two-state condition holds and the diagonal
    # sum equals Tr(rho_f rho_i)
    for seed in range(4):
        m = commuting_random_model(seed + 120, dim=5, n_families=2)
        rho_f = _commuting_final_operator(m, seed)
        rep = check_two_state_decoherence(m.initial_state, rho_f, m)
        assert rep.decoherent
        diag_sum = sum(rep.diagonals.values())
        expected = float(np.trace(rho_f @ m.initial_state.rho).real)
        assert diag_sum == pytest.approx(expected, abs=1e-10)
        assert sum(rep.probabilities.values()) == pytest.approx(1.0, abs=1e-9)


def test_cyclic_role_swap_identity():
    # normalized value is unchanged when the two operators swap roles and the
    # chain order reverses: Tr(rho_f L rho_i L^dag)/Tr(rho_f rho_i)
    #                      = Tr(rho_i L^dag rho_f L)/Tr(rho_i rho_f)
    for seed in range(6):
        m = random_model(seed + 140, dim=4, n_families=2, pure=False)
        rho_i = m.initial_state
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho_f = a @ a.conj().T
        n = float(np.trace(rho_f @ rho_i.rho).real)
        for h in m.history_labels():
            chain = _heisenberg_chain(m, h)
            lhs = two_state_functional(rho_i, rho_f, m, h, h) / n
            rhs = complex(np.trace(rho_i.rho @ chain.conj().T @ rho_f @ chain)) / n
            assert abs(lhs - rhs) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_normalization_is_the_trace_of_the_product(seed):
    m = random_model(seed, dim=24, n_families=1, pure=seed % 2 == 0)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((24, 3 + seed)) + 1j * rng.standard_normal((24, 3 + seed))
    rho_f = a @ a.conj().T
    expected = float(np.trace(rho_f @ m.initial_state.rho).real)
    report = check_two_state_decoherence(m.initial_state, rho_f, m)
    assert abs(report.normalization - expected) <= 1e-15 * expected


def test_degenerate_normalization_rejected():
    m = spin_model(0.6)
    # final operator supported only where the initial state vanishes
    rho_f = np.zeros((18, 18), dtype=complex)
    rho_f[17, 17] = 1.0
    psi0_support = abs(m.initial_state.rho[17, 17])
    assert psi0_support <= 1e-14
    with pytest.raises(DegenerateNormalizationError):
        two_state_functional(m.initial_state, rho_f, m, ("x+", "z+"), ("x+", "z+"))


def test_final_operator_must_be_hermitian_psd():
    m = spin_model(0.6)
    bad = np.zeros((18, 18), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(Exception, match="Hermitian"):
        two_state_functional(m.initial_state, bad, m, ("x+", "z+"), ("x+", "z+"))
    with pytest.raises(Exception, match="positive semidefinite"):
        two_state_functional(m.initial_state, -np.eye(18), m, ("x+", "z+"), ("x+", "z+"))


_QUTRIT = StateOperator(np.eye(3) / 3.0)


@pytest.mark.parametrize("call", [
    lambda m, rho: check_two_state_decoherence(_QUTRIT, rho, m),
    lambda m, rho: two_state_functional(_QUTRIT, rho, m, ("z+",), ("z-",)),
    lambda m, rho: page_symmetric_cosmology_check(_QUTRIT, rho, m),
    lambda m, rho: check_two_state_decoherence(m.initial_state, _QUTRIT, m),
    lambda m, rho: two_state_functional(m.initial_state, _QUTRIT, m, ("z+",), ("z-",)),
    lambda m, rho: page_symmetric_cosmology_check(m.initial_state, _QUTRIT, m),
], ids=["check-rho_i", "functional-rho_i", "page-rho_i",
        "check-state-rho_f", "functional-state-rho_f", "page-state-rho_f"])
def test_boundary_operator_of_the_wrong_dimension_names_both(call):
    model, _, psi_f = spin_post_selection()
    with pytest.raises(ModelValidationError, match=r"3\b.* does not match .*dimension 2$"):
        call(model, np.outer(psi_f, psi_f.conj()))


# ------------------------------------------------ two-state probabilities


def test_identity_final_gives_forwards_probabilities():
    m = spin_model(0.6)
    table = two_state_probability_table(m.initial_state, np.eye(m.dim), m)
    assert table[("x+", "z+")] == pytest.approx(0.18, abs=1e-12)
    assert table[("x-", "z-")] == pytest.approx(0.32, abs=1e-12)
    assert sum(table.values()) == pytest.approx(1.0, abs=1e-9)


def test_pre_post_selected_qubit_matches_abl():
    model, psi_i, psi_f = spin_post_selection()
    rho_i = StateOperator.from_vector(psi_i)
    rho_f = np.outer(psi_f, psi_f.conj())
    p_plus = two_state_probability(rho_i, rho_f, model, ("z+",))
    p_minus = two_state_probability(rho_i, rho_f, model, ("z-",))
    assert p_plus == pytest.approx(1.0, abs=1e-12)
    assert p_minus == pytest.approx(0.0, abs=1e-12)
    # cross-check against the independent pre/post-selection rule
    assert p_plus == pytest.approx(abl_probability(psi_i, psi_f, model, ("z+",)), abs=1e-12)
    assert p_minus == pytest.approx(abl_probability(psi_i, psi_f, model, ("z-",)), abs=1e-12)


def test_condition_not_satisfied_raises():
    # bare interference model: no records, the two-state condition fails
    eye = np.eye(2, dtype=complex)
    grid = TimeGrid([0.0, 1.0, 2.0, 3.0], [eye, eye, eye])
    plus_x = np.array([1.0, 1.0]) / np.sqrt(2.0)
    px = np.outer(plus_x, plus_x.conj())
    families = [
        ProjectorFamily(1, [("x+", px), ("x-", np.eye(2) - px)]),
        ProjectorFamily(2, [("z+", np.diag([1.0, 0.0])), ("z-", np.diag([0.0, 1.0]))]),
    ]
    m = QuantumModel(StateOperator.from_vector([1.0, 0.0]), grid, families)
    with pytest.raises(ConditionNotSatisfiedError):
        two_state_probability(m.initial_state, np.eye(2), m, ("x+", "z+"))


# ------------------------------------------------ pure-state triviality


def _eigenfamily_model(dim=4, which=1, n_families=1):
    eye = np.eye(dim, dtype=complex)
    grid = TimeGrid(np.arange(n_families + 2, dtype=float), [eye] * (n_families + 1))
    families = [
        ProjectorFamily.from_basis(k + 1, np.eye(dim), {f"e{j}": [j] for j in range(dim)})
        for k in range(n_families)
    ]
    psi = np.zeros(dim, dtype=complex)
    psi[which] = 1.0
    return QuantumModel(StateOperator.from_vector(psi), grid, families), psi


def test_triviality_eigenfamily_probabilities_are_zero_or_one():
    m, psi = _eigenfamily_model(dim=4, which=1, n_families=2)
    rep = pure_two_state_triviality_check(m, psi)
    assert rep.condition_holds
    assert rep.all_zero_or_one
    assert rep.probabilities[("e1", "e1")] == pytest.approx(1.0, abs=1e-12)
    assert sum(rep.probabilities.values()) == pytest.approx(1.0, abs=1e-9)


def test_triviality_balanced_spin_witnesses_non_equivalence():
    # both one-state conditions hold with probabilities 1/4, yet the
    # single-state two-boundary condition fails: the conditions differ
    m = spin_model(1.0 / np.sqrt(2.0))
    both = both_conditions_theorem_check(m)
    assert both.applicable and both.passed
    for p in both.forwards.probabilities.values():
        assert p == pytest.approx(0.25, abs=1e-10)
    w, v = np.linalg.eigh(m.initial_state.rho)
    rep = pure_two_state_triviality_check(m, v[:, -1])
    assert not rep.condition_holds


def test_triviality_generic_model_condition_fails_quietly():
    m = random_model(170, dim=4, n_families=2, pure=True)
    w, v = np.linalg.eigh(m.initial_state.rho)
    rep = pure_two_state_triviality_check(m, v[:, -1])
    assert not rep.condition_holds
    assert rep.all_zero_or_one is None


def test_triviality_passes_its_validated_state_as_the_final_operator(monkeypatch):
    # the state built from psi is already validated: its columns are the
    # final factor, with no Hermiticity pass or PSD certificate on its matrix
    seen, reads = [], []
    coerce, read = histories._coerce_final_operator, linalg.read_matrix
    monkeypatch.setattr(histories, "_coerce_final_operator",
                        lambda rho_f, dim: seen.append(rho_f) or coerce(rho_f, dim))
    monkeypatch.setattr(linalg, "read_matrix", lambda *a: reads.append(a) or read(*a))
    m, psi = _eigenfamily_model(dim=4, which=1, n_families=2)
    rep = pure_two_state_triviality_check(m, psi)
    assert rep.all_zero_or_one
    assert seen == [] and reads == []


# ------------------------------------------------ time-reversed history sets


def _mirrored_random_model(seed, dim=4, reflect_steps=True):
    """Grid (-2,-1,0,1,2); families at -1 and +1; optionally mirrored steps."""
    rng = np.random.default_rng(seed)
    s1, s2 = haar_unitary(dim, rng), haar_unitary(dim, rng)
    if reflect_steps:
        steps = [s1, s2, s2.T, s1.T]
    else:
        steps = [s1, s2, haar_unitary(dim, rng), haar_unitary(dim, rng)]
    grid = TimeGrid([-2.0, -1.0, 0.0, 1.0, 2.0], steps)
    fam1 = ProjectorFamily.from_basis(1, haar_unitary(dim, rng),
                                      {"a": [0, 1], "b": list(range(2, dim))})
    fam2 = ProjectorFamily.from_basis(3, haar_unitary(dim, rng),
                                      {"c": [0], "d": list(range(1, dim))})
    real_center = rng.standard_normal(dim)
    real_center /= np.linalg.norm(real_center)
    psi0 = (s2 @ s1).conj().T @ real_center  # state real at the center time
    return QuantumModel(StateOperator.from_vector(psi0), grid, [fam1, fam2])


def test_time_reversal_round_trip():
    m = _mirrored_random_model(7)
    rev = time_reversed_history_set(m)
    back = time_reversed_history_set(rev.model)
    for fam_a, fam_b in zip(m.families, back.model.families):
        assert fam_a.time_index == fam_b.time_index
        assert fam_a.labels == fam_b.labels
        for pa, pb in zip(fam_a.projectors, fam_b.projectors):
            assert max_abs(pa - pb) <= 1e-12


def test_time_reversal_round_trip_antisymmetric_basis():
    m = _mirrored_random_model(7)
    b = np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))  # i sigma_y (x) 1, T^2 = -1
    m = QuantumModel(m.initial_state, m.grid, m.families, conjugation_basis=b)
    rev = time_reversed_history_set(m)
    back = time_reversed_history_set(rev.model)
    for fam_a, fam_r, fam_b in zip(m.families, reversed(rev.model.families), back.model.families):
        assert fam_a.time_index == fam_b.time_index
        assert fam_a.labels == fam_b.labels
        for pa, pr, pb in zip(fam_a.projectors, fam_r.projectors, fam_b.projectors):
            assert max_abs(pa - pr) > 1e-3  # a single reversal moves the projectors
            assert max_abs(pa - pb) <= 1e-12


def test_time_reversal_requires_reflectable_grid():
    m = spin_model(0.6)  # grid 0..3 has no mirror times
    with pytest.raises(Exception, match="reflection"):
        time_reversed_history_set(m)


def test_reversed_forwards_equals_original_backwards_when_symmetric():
    m = _mirrored_random_model(11)
    assert is_time_symmetric(m, 2).symmetric
    rev = time_reversed_history_set(m)
    hs = m.history_labels()
    for h, hp in itertools.product(hs, repeat=2):
        fwd_rev = decoherence_functional(
            rev.model, rev.reversed_history(h), rev.reversed_history(hp), "forwards"
        )
        bwd_orig = decoherence_functional(m, h, hp, "backwards")
        assert abs(fwd_rev - bwd_orig.conjugate()) <= 1e-11


def test_reversed_equivalence_fails_without_symmetry():
    m = _mirrored_random_model(13, reflect_steps=False)
    assert not is_time_symmetric(m, 2).symmetric
    rev = time_reversed_history_set(m)
    hs = m.history_labels()
    worst = max(
        abs(decoherence_functional(rev.model, rev.reversed_history(h),
                                   rev.reversed_history(hp), "forwards")
            - decoherence_functional(m, h, hp, "backwards").conjugate())
        for h, hp in itertools.product(hs, repeat=2)
    )
    assert worst > 1e-6


def test_mirrored_spin_reversed_probabilities_match():
    # engineered time-symmetric spin extension: the reversed set decoheres
    # forwards and reproduces the original backwards table
    analysis = spin_symmetric_scenario()
    em = analysis.extended_model
    assert is_time_symmetric(em, (em.grid.n_times - 1) // 2).symmetric
    rev = analysis.reversed_set
    fwd_rev = check_decoherence(rev.model, "forwards", "weak")
    bwd_orig = check_decoherence(em, "backwards", "weak")
    assert fwd_rev.decoherent and bwd_orig.decoherent
    for h, p in bwd_orig.probabilities.items():
        assert fwd_rev.probabilities[rev.reversed_history(h)] == pytest.approx(p, abs=1e-9)


# ------------------------------------------------ symmetric-cosmology audit


def test_page_check_balanced_mirror_identity_final():
    analysis = spin_symmetric_scenario()
    em = analysis.extended_model
    rep = page_symmetric_cosmology_check(em.initial_state, np.eye(em.dim), em)
    assert rep.preconditions_ok, rep.preconditions
    assert rep.applicable and rep.passed
    assert rep.max_table_difference <= 1e-9


def test_page_check_validates_the_final_operator_once(monkeypatch):
    # both history sets are classified from the operator checked on entry
    seen, coerce = [], histories._coerce_final_operator
    monkeypatch.setattr(histories, "_coerce_final_operator",
                        lambda rho_f, dim: seen.append(rho_f) or coerce(rho_f, dim))
    em = spin_symmetric_scenario().extended_model
    rep = page_symmetric_cosmology_check(em.initial_state, np.eye(em.dim), em)
    assert rep.passed
    assert len(seen) == 1


def test_page_check_reports_failed_state_symmetry():
    m = _mirrored_random_model(17)
    plus_y = np.zeros(m.dim, dtype=complex)
    plus_y[0], plus_y[1] = 1.0 / np.sqrt(2.0), 1.0j / np.sqrt(2.0)
    rho_i = StateOperator.from_vector(plus_y)
    rep = page_symmetric_cosmology_check(rho_i, np.eye(m.dim), m)
    assert not rep.preconditions_ok
    assert not rep.preconditions["initial_time_symmetric"][0]
    assert "precondition" in rep.reason


def test_page_check_reports_a_grid_without_time_zero():
    eye = np.eye(2, dtype=complex)
    fam = ProjectorFamily(1, [("0", np.diag([1.0, 0.0])), ("1", np.diag([0.0, 1.0]))])
    m = QuantumModel(StateOperator(eye / 2.0), TimeGrid([1.0, 2.0, 3.0], [eye, eye]), [fam])
    rep = page_symmetric_cosmology_check(m.initial_state, eye, m)
    assert rep.preconditions["grid_mirrors_about_zero"] == (False, float("inf"))
    assert not rep.preconditions_ok
    assert rep.reason == "precondition failed: grid_mirrors_about_zero"


def test_page_check_reports_noncommuting_boundaries():
    m = _mirrored_random_model(19)
    rho_f = np.zeros((m.dim, m.dim))
    rho_f[0, 1] = rho_f[1, 0] = 0.5
    rho_f[0, 0] = rho_f[1, 1] = 0.5
    rho_i = np.zeros((m.dim, m.dim))
    rho_i[0, 0] = 1.0  # real, hence time-symmetric, but not commuting with rho_f
    rep = page_symmetric_cosmology_check(StateOperator(rho_i), rho_f, m)
    assert not rep.preconditions["boundary_operators_commute"][0]
    assert rep.preconditions["initial_time_symmetric"][0]


def test_page_check_diagonal_real_boundaries_pass_preconditions():
    m = _mirrored_random_model(23)
    probs = np.array([0.4, 0.3, 0.2, 0.1])
    rho_i = StateOperator(np.diag(probs))
    rho_f = np.diag([1.0, 0.5, 2.0, 0.25])
    rep = page_symmetric_cosmology_check(rho_i, rho_f, m)
    assert rep.preconditions_ok
