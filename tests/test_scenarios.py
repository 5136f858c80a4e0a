import numpy as np
import pytest
from reference_evaluator import single_chain

from decohist.exceptions import DegenerateNormalizationError, ModelValidationError
from decohist.histories import check_decoherence
from decohist.linalg import max_abs
from decohist.model import (
    ProjectorFamily,
    QuantumModel,
    StateOperator,
    TimeGrid,
    evolve_state,
    partial_trace,
)
from decohist.scenarios import (
    abl_probability,
    abl_table,
    collapse_chain_enumerate,
    collapse_probability_table,
    haar_unitary,
    random_model,
    recoherence_scenario,
    reverse_collapse_chain,
    spin_model,
    spin_post_selection,
    spin_recoherence_base,
    spin_symmetric_scenario,
)

ALPHA, BETA = 0.6, 0.8


def _basis_state(dim, k):
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return v


def _ket(particle, m1, m2):
    """Index into particle(2) x pointer(3) x pointer(3); z-basis, (ready, +, -)."""
    return _basis_state(18, particle * 9 + m1 * 3 + m2)


def _overlap(a, b):
    return abs(complex(np.vdot(a, b)))


# ------------------------------------------------ spin model construction


def test_spin_model_rejects_unnormalized():
    with pytest.raises(ModelValidationError, match="normalized"):
        spin_model(0.9, 0.9)


def test_spin_final_state_components():
    m = spin_model(ALPHA)
    s = 1.0 / np.sqrt(2.0)
    expected = (
        ALPHA * s * _ket(0, 1, 1)       # +z with both pointers up
        + ALPHA * s * _ket(1, 1, 2)     # -z, first pointer up, second down
        + BETA * s * _ket(0, 2, 1)      # +z, first down, second up
        - BETA * s * _ket(1, 2, 2)      # -z, both down (sign from the x->z change)
    )
    rho_end = evolve_state(m, 3).rho
    assert max_abs(rho_end - np.outer(expected, expected.conj())) <= 1e-12


def test_spin_final_state_branch_magnitudes():
    # the four branch amplitudes have magnitudes (|a|, |a|, |b|, |b|)/sqrt(2)
    m = spin_model(ALPHA)
    rho_end = evolve_state(m, 3).rho
    s = 1.0 / np.sqrt(2.0)
    for ket, mag in [
        (_ket(0, 1, 1), ALPHA * s), (_ket(1, 1, 2), ALPHA * s),
        (_ket(0, 2, 1), BETA * s), (_ket(1, 2, 2), BETA * s),
    ]:
        amp2 = float((ket.conj() @ rho_end @ ket).real)
        assert amp2 == pytest.approx(mag**2, abs=1e-12)


# ------------------------------------------------ collapse chains


def test_spin_collapse_trajectory_reproduces_state_sequence():
    m = spin_model(ALPHA)
    trajs = {t.labels: t for t in collapse_chain_enumerate(m)}
    t = trajs[("x+", "z+")]
    assert t.probability == pytest.approx(ALPHA**2 / 2.0, abs=1e-10)
    # after the x collapse: |+x> with the first pointer up
    plus_x_recorded = (_ket(0, 1, 0) + _ket(1, 1, 0)) / np.sqrt(2.0)
    assert _overlap(t.states[0], plus_x_recorded) == pytest.approx(1.0, abs=1e-12)
    # after the z collapse and the trailing trivial step: both pointers set
    assert _overlap(t.states[1], _ket(0, 1, 1)) == pytest.approx(1.0, abs=1e-12)
    assert _overlap(t.states[2], _ket(0, 1, 1)) == pytest.approx(1.0, abs=1e-12)


def test_spin_collapse_table():
    table = collapse_probability_table(spin_model(ALPHA))
    assert table[("x+", "z+")] == pytest.approx(0.18, abs=1e-10)
    assert table[("x+", "z-")] == pytest.approx(0.18, abs=1e-10)
    assert table[("x-", "z+")] == pytest.approx(0.32, abs=1e-10)
    assert table[("x-", "z-")] == pytest.approx(0.32, abs=1e-10)


def test_deterministic_model_single_trajectory():
    eye = np.eye(2, dtype=complex)
    grid = TimeGrid([0.0, 1.0, 2.0], [eye, eye])
    fam = ProjectorFamily(1, [("0", np.diag([1.0, 0.0])), ("1", np.diag([0.0, 1.0]))])
    m = QuantumModel(StateOperator.from_vector([1.0, 0.0]), grid, [fam])
    trajs = collapse_chain_enumerate(m)
    probs = {t.labels: t.probability for t in trajs}
    assert probs[("0",)] == pytest.approx(1.0, abs=1e-12)
    assert probs[("1",)] == pytest.approx(0.0, abs=1e-12)


def test_collapse_oracle_matches_chain_formula():
    from decohist.histories import candidate_probability_forwards

    for seed in range(10):
        m = random_model(seed + 400, dim=4, n_families=2, pure=bool(seed % 2))
        table = collapse_probability_table(m)
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-9)
        for h in m.history_labels():
            assert table[h] == pytest.approx(
                candidate_probability_forwards(m, h), abs=1e-10
            )


def test_collapse_oracle_with_gapped_families():
    # several grid steps between family times
    from decohist.histories import candidate_probability_forwards

    rng = np.random.default_rng(3)
    steps = [haar_unitary(3, rng) for _ in range(5)]
    grid = TimeGrid(np.arange(6, dtype=float), steps)
    f1 = ProjectorFamily.from_basis(1, haar_unitary(3, rng), {"a": [0], "b": [1, 2]})
    f2 = ProjectorFamily.from_basis(4, haar_unitary(3, rng), {"c": [0, 1], "d": [2]})
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    m = QuantumModel(StateOperator.from_vector(psi / np.linalg.norm(psi)), grid, [f1, f2])
    table = collapse_probability_table(m)
    for h in m.history_labels():
        assert table[h] == pytest.approx(candidate_probability_forwards(m, h), abs=1e-10)


# ------------------------------------------------ reverse procedure


def test_spin_reverse_chain_fixture():
    m = spin_model(ALPHA)
    final = _ket(0, 1, 1)  # +z with both pointers up
    trajs = {t.labels: t for t in reverse_collapse_chain(m, final)}
    t = trajs[("x+", "z+")]
    assert t.probability == pytest.approx(0.5, abs=1e-10)
    # state after undoing the z copy and projecting on x+:
    assert _overlap(t.states[1], (_ket(0, 1, 0) + _ket(1, 1, 0)) / np.sqrt(2)) == \
        pytest.approx(1.0, abs=1e-12)
    # reconstructed earliest-time state: |+x> with both pointers reset
    reconstructed = t.states[-1]
    plus_x_reset = (_ket(0, 0, 0) + _ket(1, 0, 0)) / np.sqrt(2.0)
    assert _overlap(reconstructed, plus_x_reset) == pytest.approx(1.0, abs=1e-12)
    # which differs from the model's own initial state
    w, v = np.linalg.eigh(m.initial_state.rho)
    fidelity = _overlap(v[:, -1], reconstructed) ** 2
    assert fidelity == pytest.approx(ALPHA**2, abs=1e-10)
    assert fidelity < 1.0 - 1e-3


def test_reverse_other_trajectory_also_half():
    m = spin_model(ALPHA)
    trajs = {t.labels: t for t in reverse_collapse_chain(m, _ket(0, 1, 1))}
    assert trajs[("x-", "z+")].probability == pytest.approx(0.5, abs=1e-10)
    assert trajs[("x+", "z-")].probability == pytest.approx(0.0, abs=1e-12)


def test_reverse_single_family_trivial_dynamics_matches_forwards():
    eye = np.eye(2, dtype=complex)
    grid = TimeGrid([0.0, 1.0, 2.0], [eye, eye])
    fam = ProjectorFamily(1, [("0", np.diag([1.0, 0.0])), ("1", np.diag([0.0, 1.0]))])
    psi = np.array([0.6, 0.8], dtype=complex)
    m = QuantumModel(StateOperator.from_vector(psi), grid, [fam])
    forwards = collapse_probability_table(m)
    reverse = {t.labels: t.probability for t in reverse_collapse_chain(m, psi)}
    for h in forwards:
        assert reverse[h] == pytest.approx(forwards[h], abs=1e-12)


# ------------------------------------------------ pre/post selection


def test_abl_post_selected_qubit():
    model, psi_i, psi_f = spin_post_selection()
    # numerator for z+ is |<+z|P_{z+}|+x>|^2 = 1/2, z- contributes zero,
    # so conditioning forces the z+ outcome
    table = abl_table(psi_i, psi_f, model)
    assert table[("z+",)] == pytest.approx(1.0, abs=1e-12)
    assert table[("z-",)] == pytest.approx(0.0, abs=1e-12)
    assert abl_probability(psi_i, psi_f, model, ("z+",)) == pytest.approx(1.0, abs=1e-12)


def test_abl_no_families_trivially_one():
    rng = np.random.default_rng(9)
    u = haar_unitary(3, rng)
    grid = TimeGrid([0.0, 1.0], [u])
    psi_i = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi_i /= np.linalg.norm(psi_i)
    m = QuantumModel(StateOperator.from_vector(psi_i), grid, [])
    table = abl_table(psi_i, u @ psi_i, m)
    assert table[()] == pytest.approx(1.0, abs=1e-12)


def test_abl_impossible_selection_raises():
    model, psi_i, _ = spin_post_selection()
    # z- projects |+x> onto |-z>; post-selecting |+z>... build a truly
    # orthogonal case: initial |+z>, family z, post-select |-z>
    eye = np.eye(2, dtype=complex)
    grid = TimeGrid([0.0, 1.0, 2.0], [eye, eye])
    fam = ProjectorFamily(1, [("z+", np.diag([1.0, 0.0])), ("z-", np.diag([0.0, 1.0]))])
    m = QuantumModel(StateOperator.from_vector([1.0, 0.0]), grid, [fam])
    with pytest.raises(DegenerateNormalizationError, match="impossible"):
        abl_table([1.0, 0.0], [0.0, 1.0], m)


def test_abl_marginalized_over_final_family_gives_forwards():
    from decohist.histories import candidate_probability_forwards

    for seed in (0, 1):
        m = random_model(seed + 500, dim=4, n_families=2, pure=True)
        w, v = np.linalg.eigh(m.initial_state.rho)
        psi_i = v[:, -1]
        w_end = m.grid.cumulative(m.grid.n_times - 1)
        for h in m.history_labels():
            marginal = 0.0
            for k in range(m.dim):
                psi_f = _basis_state(m.dim, k)
                numerators = {}
                for hh in m.history_labels():
                    amp = complex(psi_f.conj() @ (w_end @ (single_chain(m, hh) @ psi_i)))
                    numerators[hh] = abs(amp) ** 2
                denom = sum(numerators.values())
                if denom <= 1e-14:
                    continue
                marginal += denom * (numerators[h] / denom)
            assert marginal == pytest.approx(
                candidate_probability_forwards(m, h), abs=1e-9
            )


# ------------------------------------------------ recoherence


def test_recoherence_requires_base_ending_at_zero():
    with pytest.raises(ModelValidationError, match="time 0"):
        recoherence_scenario(spin_model(0.6))


def test_recoherence_requires_a_family():
    eye = np.eye(2, dtype=complex)
    m = QuantumModel(StateOperator.from_vector([1.0, 0.0]), TimeGrid([-1.0, 0.0], [eye]), [])
    with pytest.raises(ModelValidationError, match="at least one family"):
        recoherence_scenario(m)


def test_recoherence_requires_symmetric_center_state():
    eye = np.eye(2, dtype=complex)
    grid = TimeGrid([-2.0, -1.0, 0.0], [eye, eye])
    fam = ProjectorFamily(1, [("0", np.diag([1.0, 0.0])), ("1", np.diag([0.0, 1.0]))])
    plus_y = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    m = QuantumModel(StateOperator.from_vector(plus_y), grid, [fam])
    with pytest.raises(ModelValidationError, match="time-symmetric"):
        recoherence_scenario(m)


def test_mirrored_spin_purity_curve():
    analysis = spin_symmetric_scenario(ALPHA)
    p, q = ALPHA**2, BETA**2
    expected = [
        (-3.0, 1.0), (-2.0, 1.0), (-1.0, p * p + q * q), (0.0, 0.5),
        (1.0, p * p + q * q), (2.0, 1.0), (3.0, 1.0),
    ]
    assert len(analysis.purity_curve) == len(expected)
    for (t, purity), (te, pe) in zip(analysis.purity_curve, expected):
        assert t == pytest.approx(te)
        assert purity == pytest.approx(pe, abs=1e-9)
    # purity is back to 1 already at the mirror image of the first family time
    at_mirror_of_t1 = dict(analysis.purity_curve)[2.0]
    assert at_mirror_of_t1 == pytest.approx(1.0, abs=1e-9)
    assert analysis.purity_dip == pytest.approx(0.5, abs=1e-9)


def _sigma_y_mirror_base():
    """A mixed recoherence base whose time reversal conjugates in i sigma_y (x) 1 (B B^* = -1)."""
    rng = np.random.default_rng(4)
    grid = TimeGrid([-3.0, -2.0, -1.0, 0.0], [haar_unitary(4, rng) for _ in range(3)])
    b = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(2))
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho_c = x @ x.conj().T
    rho_c = rho_c + b @ rho_c.conj() @ b.conj().T  # fixed by the reversal
    w = grid.cumulative(3)
    rho_0 = w.conj().T @ (rho_c / np.trace(rho_c).real) @ w
    family = ProjectorFamily.from_basis(1, haar_unitary(4, rng), {"a": [0, 1], "b": [2, 3]})
    return QuantumModel(StateOperator(rho_0), grid, [family], conjugation_basis=b, factors=(2, 2))


@pytest.mark.parametrize("analyse", [spin_symmetric_scenario,
                                     lambda: recoherence_scenario(_sigma_y_mirror_base())],
                         ids=["spin-balanced", "sigma-y-basis"])
def test_purity_curve_is_the_reduced_purity_of_the_evolved_state(analyse):
    analysis = analyse()
    ext = analysis.extended_model
    expected = [(float(t), partial_trace(evolve_state(ext, k), ext.factors, (0,)).purity())
                for k, t in enumerate(ext.grid.times)]
    assert analysis.purity_curve == expected  # bit for bit
    assert analysis.recoherence_witness


def test_mirrored_spin_records_are_erased():
    analysis = spin_symmetric_scenario(ALPHA)
    em = analysis.extended_model
    final = evolve_state(em, em.grid.n_times - 1)
    assert max_abs(final.rho - em.initial_state.rho) <= 1e-10
    # the reduced pointer states end in the ready position
    pointer = partial_trace(final, em.factors, keep=1)
    np.testing.assert_allclose(pointer.rho, np.diag([1.0, 0.0, 0.0]), atol=1e-10)


def test_mirrored_spin_interference_revives():
    analysis = spin_symmetric_scenario(ALPHA)
    assert analysis.first_half_forwards.decoherent
    revivals = [v for _, v in analysis.reinterference]
    assert revivals[0] <= 1e-9          # still quiet right after the center
    assert revivals[-1] > 1e-3          # interference back by the last mirror time
    assert revivals[-1] >= revivals[0]


def test_mirrored_spin_equivalence_with_reversed_set():
    analysis = spin_symmetric_scenario(ALPHA)
    assert analysis.recoherence_witness is True
    assert analysis.reversed_backwards.decoherent
    assert analysis.equivalence_holds is True
    # and the contrast: the original set does not decohere backwards
    assert not analysis.original_backwards.decoherent


def test_trivial_dynamics_base_never_entangles():
    dim = 4
    eye = np.eye(dim, dtype=complex)
    grid = TimeGrid([-2.0, -1.0, 0.0], [eye, eye])
    fam = ProjectorFamily.from_basis(1, np.eye(dim), {"a": [0, 1], "b": [2, 3]})
    psi = _basis_state(dim, 0)
    base = QuantumModel(StateOperator.from_vector(psi), grid, [fam], factors=(2, 2))
    analysis = recoherence_scenario(base)
    assert analysis.first_half_forwards.decoherent
    assert all(p == pytest.approx(1.0, abs=1e-12) for _, p in analysis.purity_curve)
    assert analysis.recoherence_witness is True
    assert analysis.reversed_backwards.decoherent
    assert analysis.equivalence_holds is True


def test_non_mirrored_extension_loses_the_recoherence_tie():
    # repeat the couplings forward instead of undoing them: purity never
    # returns (no recoherence), while the reversed set happens to decohere
    # backwards through the extra records.  The tie between the purity
    # witness and the reversed-set condition is a property of the mirror
    # construction, not an identity.
    from decohist.histories import check_decoherence, time_reversed_history_set

    base = spin_recoherence_base(ALPHA)
    times = list(map(float, base.grid.times)) + [1.0, 2.0, 3.0]
    steps = list(base.grid.step_unitaries) + [
        base.grid.step_unitaries[2], base.grid.step_unitaries[1],
        np.eye(base.dim, dtype=complex),
    ]
    warped = QuantumModel(base.initial_state, TimeGrid(times, steps),
                          base.families, factors=base.factors)
    reduced = partial_trace(evolve_state(warped, warped.grid.n_times - 1),
                            warped.factors, keep=0)
    initial = partial_trace(warped.initial_state, warped.factors, keep=0)
    no_recoherence = abs(reduced.purity() - initial.purity()) > 1e-3
    assert no_recoherence
    rev = time_reversed_history_set(warped)
    reversed_backwards = check_decoherence(rev.model, "backwards", "weak").decoherent
    assert reversed_backwards  # the two sides disagree here
    assert no_recoherence == reversed_backwards


def test_balanced_mirror_also_decoheres_backwards():
    # with balanced amplitudes even the original set decoheres backwards
    analysis = spin_symmetric_scenario()
    assert analysis.original_backwards.decoherent
    assert analysis.reversed_backwards.decoherent
