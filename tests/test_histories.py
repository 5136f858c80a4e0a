import itertools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from decohist.exceptions import ModelValidationError
from decohist.histories import (
    CoarseGraining,
    TolerancePolicy,
    _check_memory,
    both_conditions_theorem_check,
    candidate_probability_backwards,
    candidate_probability_forwards,
    check_decoherence,
    coarse_grain_check,
    decoherence_functional,
    page_symmetric_cosmology_check,
    time_reversed_history_set,
    two_state_functional,
)
from decohist import linalg
from decohist.linalg import max_abs
from decohist.model import (
    ProjectorFamily,
    QuantumModel,
    StateOperator,
    TimeGrid,
    evolve_state,
    is_time_symmetric,
    time_reverse_operator,
)
from decohist.scenarios import (
    commuting_random_model,
    haar_unitary,
    random_model,
    spin_model,
    spin_symmetric_scenario,
)

PLUS_Z = np.array([1.0, 0.0], dtype=complex)
PLUS_X = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def _qubit_family(time_index, axis, prefix):
    p = np.outer(axis, axis.conj())
    return ProjectorFamily(time_index, [(f"{prefix}+", p), (f"{prefix}-", np.eye(2) - p)])


def interference_model(psi=PLUS_Z):
    """Bare spin-1/2, x family then z family, no environment: not decoherent."""
    eye = np.eye(2, dtype=complex)
    grid = TimeGrid([0.0, 1.0, 2.0, 3.0], [eye, eye, eye])
    families = [_qubit_family(1, PLUS_X, "x"), _qubit_family(2, PLUS_Z, "z")]
    return QuantumModel(StateOperator.from_vector(psi), grid, families)


def single_family_identity_model():
    eye = np.eye(2, dtype=complex)
    grid = TimeGrid([0.0, 1.0, 2.0], [eye, eye])
    fam = ProjectorFamily(1, [("all", np.eye(2, dtype=complex))])
    return QuantumModel(StateOperator.from_vector(PLUS_X), grid, [fam])


# ------------------------------------------------ schrodinger-picture oracle


def _segment(model, start, stop):
    seg = np.eye(model.dim, dtype=complex)
    for i in range(start, stop):
        seg = model.grid.step_unitaries[i] @ seg
    return seg


def _schrodinger_chain(model, labels):
    """P_{a_n} U ... P_{a_1} U built literally from step products."""
    idx = model.history_indices(tuple(labels))
    op = np.eye(model.dim, dtype=complex)
    pos = 0
    for fam, j in zip(model.families, idx):
        op = fam.projectors[j] @ _segment(model, pos, fam.time_index) @ op
        pos = fam.time_index
    return op


def _schrodinger_chain_reverse(model, labels):
    """P_{a_1} U^dagger ... P_{a_n} U^dagger(to the final time)."""
    idx = model.history_indices(tuple(labels))
    indices = [f.time_index for f in model.families]
    op = model.families[0].projectors[idx[0]].copy()
    for k in range(1, len(idx)):
        seg = _segment(model, indices[k - 1], indices[k])
        op = op @ seg.conj().T @ model.families[k].projectors[idx[k]]
    op = op @ _segment(model, indices[-1], model.grid.n_times - 1).conj().T
    return op


def schrodinger_functional(model, h, hp, direction):
    rho0 = model.initial_state.rho
    if direction == "forwards":
        a = _schrodinger_chain(model, h)
        b = _schrodinger_chain(model, hp)
        return complex(np.trace(a @ rho0 @ b.conj().T))
    w = model.grid.cumulative(model.grid.n_times - 1)
    rho_end = w @ rho0 @ w.conj().T
    a = _schrodinger_chain_reverse(model, h)
    b = _schrodinger_chain_reverse(model, hp)
    return complex(np.trace(a @ rho_end @ b.conj().T))


# ------------------------------------------------ candidate probabilities


def test_spin_forwards_probabilities_parametric():
    for alpha in (0.6, 0.3 + 0.5j, 1.0 / np.sqrt(2.0)):
        m = spin_model(alpha)
        p = abs(alpha) ** 2
        q = 1.0 - p
        expected = {
            ("x+", "z+"): p / 2, ("x+", "z-"): p / 2,
            ("x-", "z+"): q / 2, ("x-", "z-"): q / 2,
        }
        for h, val in expected.items():
            assert candidate_probability_forwards(m, h) == pytest.approx(val, abs=1e-12)


def test_spin_forwards_probabilities_alpha_06():
    m = spin_model(0.6)
    assert candidate_probability_forwards(m, ("x+", "z+")) == pytest.approx(0.18, abs=1e-12)
    assert candidate_probability_forwards(m, ("x+", "z-")) == pytest.approx(0.18, abs=1e-12)
    assert candidate_probability_forwards(m, ("x-", "z+")) == pytest.approx(0.32, abs=1e-12)
    assert candidate_probability_forwards(m, ("x-", "z-")) == pytest.approx(0.32, abs=1e-12)


def test_spin_backwards_probabilities_all_quarter():
    for alpha in (0.6, 0.17 - 0.4j, 1.0):
        m = spin_model(alpha)
        for h in m.history_labels():
            assert candidate_probability_backwards(m, h) == pytest.approx(0.25, abs=1e-10)


def test_single_identity_family_probability_one():
    m = single_family_identity_model()
    assert candidate_probability_forwards(m, ("all",)) == pytest.approx(1.0, abs=1e-14)
    assert candidate_probability_backwards(m, ("all",)) == pytest.approx(1.0, abs=1e-14)


def test_balanced_amplitudes_make_tables_agree():
    m = spin_model(1.0 / np.sqrt(2.0))
    for h in m.history_labels():
        f = candidate_probability_forwards(m, h)
        b = candidate_probability_backwards(m, h)
        assert f == pytest.approx(b, abs=1e-12)
        assert f == pytest.approx(0.25, abs=1e-12)


def test_completeness_sums():
    for seed in range(6):
        m = random_model(seed, dim=5, n_families=2, pure=bool(seed % 2))
        total_f = sum(candidate_probability_forwards(m, h) for h in m.history_labels())
        total_b = sum(candidate_probability_backwards(m, h) for h in m.history_labels())
        assert total_f == pytest.approx(1.0, abs=1e-9)
        assert total_b == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------ functional values


def test_functional_diagonal_matches_candidates():
    m = spin_model(0.3 + 0.5j)
    for h in m.history_labels():
        df = decoherence_functional(m, h, h, "forwards")
        db = decoherence_functional(m, h, h, "backwards")
        assert abs(df.imag) <= 1e-12 and abs(db.imag) <= 1e-12
        assert df.real == pytest.approx(candidate_probability_forwards(m, h), abs=1e-12)
        assert db.real == pytest.approx(candidate_probability_backwards(m, h), abs=1e-12)


def test_functional_hermiticity():
    for seed in range(4):
        m = random_model(seed + 20, dim=4, n_families=2)
        hs = m.history_labels()
        for direction in ("forwards", "backwards"):
            for h, hp in itertools.combinations(hs, 2):
                v = decoherence_functional(m, h, hp, direction)
                w = decoherence_functional(m, hp, h, direction)
                assert abs(v - w.conjugate()) <= 1e-12


def test_spin_forwards_offdiagonals_vanish():
    m = spin_model(0.6)
    for h, hp in itertools.combinations(m.history_labels(), 2):
        assert abs(decoherence_functional(m, h, hp, "forwards")) <= 1e-12


def test_spin_backwards_violating_pair():
    # the maximal violation sits on pairs differing only in the z outcome,
    # with value (|alpha|^2 - |beta|^2) / 4 up to sign
    m = spin_model(0.6)
    v = decoherence_functional(m, ("x+", "z+"), ("x+", "z-"), "backwards")
    assert abs(abs(v.real) - 0.07) <= 1e-12
    rep = check_decoherence(m, "backwards", "weak")
    worst = rep.worst_pairs()[0]
    assert worst.left[0] == worst.right[0]  # same x outcome
    assert worst.left[1] != worst.right[1]  # different z outcome
    assert abs(abs(worst.value.real) - 0.07) <= 1e-12


def test_picture_equivalence_random_models():
    # Heisenberg-picture evaluation must match a literal Schrodinger-picture
    # computation with interleaved step products, both directions
    for seed in range(8):
        m = random_model(seed + 40, dim=6, n_families=3,
                         members_per_family=2, pure=bool(seed % 2))
        hs = m.history_labels()
        for direction in ("forwards", "backwards"):
            for h, hp in [(hs[0], hs[0]), (hs[0], hs[1]), (hs[2], hs[5])]:
                engine = decoherence_functional(m, h, hp, direction)
                oracle = schrodinger_functional(m, h, hp, direction)
                assert abs(engine - oracle) <= 1e-12


def test_spin_heisenberg_vs_schrodinger():
    m = spin_model(0.6)
    for h, hp in itertools.product(m.history_labels(), repeat=2):
        engine = decoherence_functional(m, h, hp, "forwards")
        oracle = schrodinger_functional(m, h, hp, "forwards")
        assert abs(engine - oracle) <= 1e-12


# ------------------------------------------------ classification


def test_spin_forwards_weak_decoherent_with_probabilities():
    rep = check_decoherence(spin_model(0.6), "forwards", "weak")
    assert rep.classification == "decoherent"
    assert rep.probabilities[("x+", "z+")] == pytest.approx(0.18, abs=1e-12)
    assert sum(rep.probabilities.values()) == pytest.approx(1.0, abs=1e-9)


def test_spin_backwards_not_decoherent_off_balance():
    rep = check_decoherence(spin_model(0.6), "backwards", "weak")
    assert rep.classification == "not_decoherent"
    assert rep.probabilities is None


def test_spin_backwards_decoherent_at_balance():
    rep = check_decoherence(spin_model(1.0 / np.sqrt(2.0)), "backwards", "weak")
    assert rep.classification == "decoherent"
    for p in rep.probabilities.values():
        assert p == pytest.approx(0.25, abs=1e-10)


def test_deterministic_chain_strongly_decoherent():
    # families project onto the evolved images of the computational basis, so
    # the chain is deterministic: one unit-probability history
    rng = np.random.default_rng(77)
    dim = 4
    steps = [haar_unitary(dim, rng) for _ in range(3)]
    grid = TimeGrid([0.0, 1.0, 2.0, 3.0], steps)
    families = []
    for k in (1, 2):
        basis = grid.cumulative(k)
        blocks = {f"e{j}": [j] for j in range(dim)}
        families.append(ProjectorFamily.from_basis(k, basis, blocks))
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    m = QuantumModel(StateOperator.from_vector(psi), grid, families)
    rep = check_decoherence(m, "forwards", "strong")
    assert rep.classification == "decoherent"
    assert rep.probabilities[("e0", "e0")] == pytest.approx(1.0, abs=1e-12)
    assert sum(rep.probabilities.values()) == pytest.approx(1.0, abs=1e-9)


def test_interference_model_not_decoherent():
    rep = check_decoherence(interference_model(), "forwards", "weak")
    assert rep.classification == "not_decoherent"


def test_marginal_classification_band():
    # with a fat absolute floor the 0.25 interference terms fall inside the
    # marginal band (ratio 250 < 1000)
    rep = check_decoherence(interference_model(), "forwards", "weak",
                            TolerancePolicy(rel=0.0, abs=1e-3))
    assert rep.classification == "marginal"


def test_strength_strong_catches_imaginary_interference():
    # |+y> against x/z families has purely imaginary cross terms: weak passes,
    # strong must not
    plus_y = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    m = interference_model(plus_y)
    weak = check_decoherence(m, "forwards", "weak")
    strong = check_decoherence(m, "forwards", "strong")
    assert strong.classification == "not_decoherent"
    assert strong.max_offdiagonal() > weak.max_offdiagonal()


# ------------------------------------------------ coarse graining


def test_singleton_graining_zero_violation():
    m = spin_model(0.6)
    rep = coarse_grain_check(m, CoarseGraining.singletons(m), "forwards")
    assert rep.max_violation <= 1e-12
    assert rep.additive


def test_spin_merge_z_outcomes_is_additive():
    m = spin_model(0.6)
    graining = CoarseGraining((
        {"x+": ("x+",), "x-": ("x-",)},
        {"z": ("z+", "z-")},
    ))
    rep = coarse_grain_check(m, graining, "forwards")
    assert rep.additive
    direct, summed = rep.per_history[("x+", "z")]
    assert direct == pytest.approx(0.36, abs=1e-10)
    assert summed == pytest.approx(0.36, abs=1e-10)


def test_interference_violation_equals_cross_term():
    # merging the two x outcomes leaves exactly 2 Re D(h, h') behind
    m = interference_model()
    graining = CoarseGraining((
        {"x": ("x+", "x-")},
        {"z+": ("z+",), "z-": ("z-",)},
    ))
    rep = coarse_grain_check(m, graining, "forwards")
    assert not rep.additive
    cross = decoherence_functional(m, ("x+", "z+"), ("x-", "z+"), "forwards")
    direct, summed = rep.per_history[("x", "z+")]
    assert (direct - summed) == pytest.approx(2.0 * cross.real, abs=1e-12)


def test_singleton_blocks_keep_the_fine_labels_and_order():
    m = spin_model(0.6)
    graining = CoarseGraining((
        {"x+": ("x+",), "x-": ("x-",)},
        {"z": ("z+", "z-")},
    ))
    coarse = graining.coarse_model(m)
    assert coarse.families[0].labels == ("x+", "x-")
    assert coarse.families[1].labels == ("z",)
    # the same members under other labels or in another order
    renamed = CoarseGraining(({"a": ("x+",), "b": ("x-",)}, {"z": ("z+", "z-")}))
    reordered = CoarseGraining(({"x-": ("x-",), "x+": ("x+",)}, {"z": ("z+", "z-")}))
    assert renamed.coarse_model(m).families[0].labels == ("a", "b")
    assert reordered.coarse_model(m).families[0].labels == ("x-", "x+")


def test_empty_block_is_not_a_partition():
    m = spin_model(0.6)
    graining = CoarseGraining(({"x+": ("x+",), "x-": ("x-",)}, {"z": ("z+", "z-"), "none": ()}))
    with pytest.raises(ValueError, match="do not partition"):
        coarse_grain_check(m, graining, "forwards")


def test_coarse_grain_check_rejects_an_unknown_direction():
    m = spin_model(0.6)
    with pytest.raises(ValueError, match="direction must be"):
        coarse_grain_check(m, CoarseGraining.singletons(m), "forward")


@pytest.mark.parametrize("direction", ["forwards", "backwards"])
def test_int_block_labels_give_the_values_of_string_labels(direction):
    m = spin_model(0.6)
    ints = coarse_grain_check(
        m, CoarseGraining(({0: ("x+",), 1: ("x-",)}, {"z": ("z+", "z-")})), direction)
    strs = coarse_grain_check(
        m, CoarseGraining(({"0": ("x+",), "1": ("x-",)}, {"z": ("z+", "z-")})), direction)
    assert list(ints.per_history) == [("0", "z"), ("1", "z")]
    assert ints.per_history == strs.per_history
    assert ints.max_violation == strs.max_violation
    clash = CoarseGraining(({1: ("x+",), "1": ("x-",)}, {"z": ("z+", "z-")}))
    with pytest.raises(ValueError, match="not distinct as strings"):
        coarse_grain_check(m, clash, direction)


def test_coarse_model_reads_int_members_as_labels():
    # members labelled "1" then "0": the member 0 is the label "0", not index 0
    fam = ProjectorFamily(1, [("1", np.diag([1.0, 0.0])), ("0", np.diag([0.0, 1.0]))])
    grid = TimeGrid([0, 1, 2], [np.eye(2)] * 2)
    m = QuantumModel(StateOperator(np.diag([0.3, 0.7])), grid, [fam])
    graining = CoarseGraining(({"a": (0,), "b": (1,)},))
    direct = {h: d for h, (d, _) in coarse_grain_check(m, graining).per_history.items()}
    assert direct == pytest.approx({("a",): 0.7, ("b",): 0.3}, abs=1e-12)
    coarse = check_decoherence(graining.coarse_model(m))
    assert coarse.diagonals == pytest.approx(direct, abs=1e-12)


def test_merged_blocks_are_validated_in_full(monkeypatch):
    m = spin_model(0.6)
    built = []
    validate = ProjectorFamily._validate

    def counting_validate(self, time_index, members, columns):
        built.append(time_index)
        validate(self, time_index, members, columns)

    monkeypatch.setattr(ProjectorFamily, "_validate", counting_validate)
    graining = CoarseGraining((
        {"x+": ("x+",), "x-": ("x-",)},
        {"z": ("z+", "z-")},
    ))
    # the check sums rows of the fine branch table and builds no family
    coarse_grain_check(m, graining, "forwards")
    coarse_grain_check(m, graining, "backwards")
    coarse_grain_check(m, CoarseGraining.singletons(m), "forwards")
    assert built == []
    # the coarse model validates every family it builds
    graining.coarse_model(m)
    assert built == [f.time_index for f in m.families]


def test_derived_models_reuse_the_validated_basis(monkeypatch):
    m = spin_model(0.6)
    flip = np.eye(m.dim)[::-1]  # a symmetric permutation, so a valid basis
    m = QuantumModel(m.initial_state, m.grid, m.families, flip, m.factors)
    calls = []
    is_unitary = linalg.is_unitary

    def counting_is_unitary(a, *args, **kwargs):
        calls.append(np.shape(a))
        return is_unitary(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "is_unitary", counting_is_unitary)
    graining = CoarseGraining(({"x+": ("x+",), "x-": ("x-",)}, {"z": ("z+", "z-")}))
    coarse = graining.coarse_model(m)
    assert calls == []
    assert coarse.conjugation_basis is m.conjugation_basis
    assert coarse.factors == m.factors
    assert coarse.families[1].labels == ("z",)


def test_time_reversal_reuses_the_validated_basis(monkeypatch):
    m = spin_symmetric_scenario().extended_model
    b = m.conjugation_basis
    center = int(np.nonzero(np.abs(m.grid.times) <= 1e-9)[0][0])
    rho, rho_c = m.initial_state.rho, evolve_state(m, center).rho
    expected = [[time_reverse_operator(p, b) for p in fam.projectors] for fam in m.families]
    calls = []
    is_unitary = linalg.is_unitary

    def counting_is_unitary(a, *args, **kwargs):
        calls.append(np.shape(a))
        return is_unitary(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "is_unitary", counting_is_unitary)
    reversed_set = time_reversed_history_set(m)
    page = page_symmetric_cosmology_check(m.initial_state, np.eye(m.dim), m)
    symmetry = is_time_symmetric(m, center)
    assert calls == []
    for new, orig in reversed_set.family_map:
        for p, q in zip(reversed_set.model.families[new].projectors, expected[orig]):
            assert np.array_equal(p, q)
    assert page.preconditions["initial_time_symmetric"][1] == max_abs(
        rho - time_reverse_operator(rho, b))
    assert page.passed
    assert symmetry.symmetric
    assert symmetry.state_defect == max_abs(rho_c - time_reverse_operator(rho_c, b))


def test_derived_models_still_validate_grid_and_families():
    m = spin_model(0.6)
    late = ProjectorFamily(m.grid.n_times - 1, [("all", np.eye(m.dim))])
    with pytest.raises(ModelValidationError, match="strictly inside"):
        m._derive([late])
    wide = TimeGrid([0.0, 1.0, 2.0], [np.eye(m.dim + 1)] * 2)
    with pytest.raises(ModelValidationError, match="dimension"):
        m._derive([], wide)


def _all_pairwise_merges(model):
    for k, fam in enumerate(model.families):
        for a, b in itertools.combinations(fam.labels, 2):
            blocks = []
            for kk, f in enumerate(model.families):
                if kk == k:
                    merged = {f"{a}|{b}": (a, b)}
                    merged.update({lab: (lab,) for lab in f.labels if lab not in (a, b)})
                    blocks.append(merged)
                else:
                    blocks.append({lab: (lab,) for lab in f.labels})
            yield CoarseGraining(tuple(blocks))


def test_additivity_iff_weak_decoherence():
    decohering = [spin_model(0.6), commuting_random_model(3, dim=5, n_families=2)]
    violating = [interference_model(), random_model(91, dim=4, n_families=2)]
    for m in decohering:
        assert check_decoherence(m, "forwards", "weak").decoherent
        for graining in _all_pairwise_merges(m):
            assert coarse_grain_check(m, graining, "forwards").max_violation <= 1e-9
    for m in violating:
        assert not check_decoherence(m, "forwards", "weak").decoherent
        worst = max(
            coarse_grain_check(m, g, "forwards").max_violation
            for g in _all_pairwise_merges(m)
        )
        assert worst > 1e-9


# ------------------------------------------------ both-conditions theorem


def test_both_conditions_balanced_spin():
    rep = both_conditions_theorem_check(spin_model(1.0 / np.sqrt(2.0)))
    assert rep.applicable and rep.passed
    assert rep.max_table_difference <= 1e-9
    assert rep.max_chain_difference <= 1e-9
    for h, val in rep.chain_expectations.items():
        assert val == pytest.approx(0.25, abs=1e-10)


def test_both_conditions_unbalanced_spin_not_applicable():
    rep = both_conditions_theorem_check(spin_model(0.6))
    assert not rep.applicable
    assert "backwards" in rep.reason


def test_both_conditions_single_family():
    m = single_family_identity_model()
    rep = both_conditions_theorem_check(m)
    assert rep.applicable and rep.passed
    assert rep.forwards.probabilities[("all",)] == pytest.approx(1.0, abs=1e-12)


def test_both_conditions_commuting_models():
    for seed in range(5):
        m = commuting_random_model(seed + 60, dim=5, n_families=2)
        rep = both_conditions_theorem_check(m)
        assert rep.applicable, f"seed {seed}: {rep.reason}"
        assert rep.passed
        assert rep.max_table_difference <= 1e-9


# ------------------------------------------------ input validation


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -1.0, -1e-300])
@pytest.mark.parametrize("name", ["rel", "abs"])
def test_tolerance_must_be_finite_and_non_negative(name, value):
    with pytest.raises(ValueError, match=f"tolerance {name} .* must be finite and non-negative"):
        TolerancePolicy(**{name: value})


def test_zero_tolerances_are_allowed():
    tol = TolerancePolicy(rel=0.0, abs=0.0)
    assert tol.pair_threshold(0.5, 0.5) == 0.0


def test_unknown_history_label_raises():
    m = spin_model(0.6)
    with pytest.raises(KeyError):
        candidate_probability_forwards(m, ("x+", "nope"))


def test_wrong_history_length_raises():
    m = spin_model(0.6)
    with pytest.raises(ValueError, match="labels"):
        candidate_probability_forwards(m, ("x+",))


def test_probability_outside_unit_interval_rejected():
    # sanity plumbing: a clean model never trips this
    m = spin_model(0.6)
    for h in m.history_labels():
        p = candidate_probability_forwards(m, h)
        assert 0.0 <= p <= 1.0


# ------------------------------------------------ memory budget


@pytest.mark.parametrize("m, dim, fits", [
    (4096, 256, True),  # a pure check at dim 256, m = 4096: about 0.93 GB at its peak
    (64 * 64, 64, True),  # the 6-qubit register's record extension: about 0.85 GB
    (128 * 128, 128, False),  # the 7-qubit register's record extension, m^4 Gram entries
    (2**40, 3, False),
])
def test_memory_budget_admits_and_refuses_pure_sets(m, dim, fits):
    if fits:
        _check_memory(m, dim)
    else:
        with pytest.raises(ModelValidationError, match=rf"^{m} histories \({m * (m - 1) // 2} pairs\)"):
            _check_memory(m, dim)


def test_set_over_the_memory_budget_is_refused_before_the_walk(monkeypatch):
    model = random_model(2, dim=3, n_families=40, members_per_family=2)
    walked = []
    monkeypatch.setattr(TimeGrid, "carry", lambda grid, rows, a, b: walked.append((a, b)))
    with pytest.raises(ModelValidationError, match=r"GiB for the branch table, above the memory budget of 2 GiB"):
        check_decoherence(model)
    assert walked == []


def test_single_values_of_a_set_over_the_pair_budget_are_computed():
    # 8192 histories: the table is 0.5 MB, the whole-matrix pair work 3.5 GiB
    model = random_model(5, dim=4, n_families=13, members_per_family=2)
    h, h_prime = (tuple(f.labels[k] for f in model.families) for k in (0, 1))
    assert 0.0 <= candidate_probability_forwards(model, h) <= 1.0
    assert 0.0 <= candidate_probability_backwards(model, h) <= 1.0
    assert np.isfinite(decoherence_functional(model, h, h_prime))
    assert np.isfinite(two_state_functional(model.initial_state, np.eye(4), model, h, h_prime))
    with pytest.raises(ModelValidationError, match=r"^8192 histories \(33550336 pairs\) .* pair work"):
        check_decoherence(model)


def test_scale_probe_times_the_smallest_row():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "tests" / "scale_probe.py"), str(root), "--rows", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, line = proc.stdout.splitlines()[1:]
    row = dict(zip(header.split(), line.split()))
    # dim 16, ten 2-member families on a pure state: 1,024 histories
    assert (row["row"], row["dim"], row["fam"], row["state"], row["m"], row["pairs"]) == (
        "1", "16", "10", "pure", "1024", "523776")
    assert all(float(row[k]) >= 0.0 for k in ("build_s", "valid_s", "walk_s", "gram_s", "pairs_s"))
    # each family keeps its factors, 16^2 complex numbers, 4 KiB
    assert float(row["fam_MiB"]) == round(10 * 16 * 16 * 16 / 2**20, 2)
    # the Gram alone is 1024^2 complex numbers, 16 MiB
    assert float(row["peak_MiB"]) >= 16.0
