"""The prefix-walk core against the per-pair reference evaluator.

Every functional, pointwise value, truncation depth and reinterference probe
comes from one branch table; each is compared here with the chain-matrix,
one-``vdot``-per-pair evaluation in ``reference_evaluator``.
"""

import itertools
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
import reference_evaluator as ref

from decohist import histories, records
from decohist.cli import main
from decohist.histories import (
    CoarseGraining,
    TolerancePolicy,
    _branch_table,
    _coerce_final_operator,
    _gram,
    _rows,
    both_conditions_theorem_check,
    candidate_probability_backwards,
    candidate_probability_forwards,
    check_decoherence,
    check_two_state_decoherence,
    coarse_grain_check,
    decoherence_functional,
    pure_two_state_triviality_check,
    two_state_functional,
)
from decohist.model import ProjectorFamily, QuantumModel, StateOperator, TimeGrid
from decohist.records import branch_vectors, construct_records, strong_decoherence_iff_orthogonality
from decohist.scenarios import (
    abl_table,
    commuting_random_model,
    random_model,
    recoherence_scenario,
    spin_model,
    spin_recoherence_base,
    spin_symmetric_scenario,
)

ATOL = 1e-12


def _with_state(model, rho):
    return QuantumModel(StateOperator(rho), model.grid, model.families,
                        model.conjugation_basis, model.factors)


def _rank_r(model, r, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((model.dim, r)) + 1j * rng.standard_normal((model.dim, r))
    rho = c @ c.conj().T
    return _with_state(model, rho / np.trace(rho).real)


def _case(kind, n, seed):
    if kind == "pure":
        return random_model(seed, dim=5, n_families=n, pure=True)
    if kind == "mixed":
        return random_model(seed, dim=4, n_families=n, pure=False)
    if kind == "rank2":
        return _rank_r(random_model(seed, dim=6, n_families=n, members_per_family=2), 2, seed)
    return commuting_random_model(seed, dim=4, n_families=n)


CASES = [(kind, n, 40 + 7 * n + i)
         for i, kind in enumerate(("pure", "mixed", "rank2", "commuting"))
         for n in range(5)]


def _final_operator(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a @ a.conj().T / dim


@pytest.mark.parametrize("kind,n,seed", CASES)
def test_functional_matrices_match_reference(kind, n, seed):
    model = _case(kind, n, seed)
    rho_f = _final_operator(model.dim, seed)
    factor = _coerce_final_operator(rho_f, model.dim)[1]
    for direction, extra, core in (
            ("forwards", {}, ()), ("backwards", {}, (True,)),
            ("two_state", {"rho_i": model.initial_state, "rho_f": rho_f},
             (False, model.initial_state, factor))):
        d = _gram(_rows(model, *core))
        expected = ref.functional_matrix(model, direction, **extra)
        assert np.max(np.abs(d - expected)) <= ATOL, direction
        assert np.max(np.abs(d - d.conj().T)) <= ATOL, direction


@pytest.mark.parametrize("kind,n,seed", CASES)
def test_reports_match_reference_pair_table(kind, n, seed):
    model = _case(kind, n, seed)
    rho_f = _final_operator(model.dim, seed)
    tol = TolerancePolicy()
    reports = [
        (check_decoherence(model, "forwards", "weak", tol), ref.functional_matrix(model), 1.0),
        (check_decoherence(model, "backwards", "strong", tol),
         ref.functional_matrix(model, "backwards"), 1.0),
    ]
    two = check_two_state_decoherence(model.initial_state, rho_f, model, "weak", tol)
    reports.append((two, ref.functional_matrix(model, "two_state", model.initial_state, rho_f),
                    two.normalization))
    hs = model.history_labels()
    for report, d, scale in reports:
        expected = ref.pair_table(d, scale, report.strength, tol)
        assert len(report.pairs) == len(expected)
        for pair, (i, j, value, measure, threshold, passed, _) in zip(report.pairs, expected):
            assert (pair.left, pair.right) == (hs[i], hs[j])
            assert abs(pair.value - value) <= ATOL
            assert abs(pair.measure - measure) <= ATOL
            assert pair.threshold == pytest.approx(threshold, rel=ATOL, abs=0.0)
            assert pair.passed == passed


@pytest.mark.parametrize("kind,n,seed", CASES)
def test_pointwise_values_and_branch_vectors_match_reference(kind, n, seed):
    model = _case(kind, n, seed)
    rho_f = _final_operator(model.dim, seed)
    hs = model.history_labels()
    fwd = ref.functional_matrix(model)
    bwd = ref.functional_matrix(model, "backwards")
    two = ref.functional_matrix(model, "two_state", model.initial_state, rho_f)
    for i, h in enumerate(hs):
        assert abs(candidate_probability_forwards(model, h) - fwd[i, i].real) <= ATOL
        assert abs(candidate_probability_backwards(model, h) - bwd[i, i].real) <= ATOL
    for i, j in [(0, len(hs) - 1), (len(hs) - 1, 0), (len(hs) // 2, 0)]:
        assert abs(decoherence_functional(model, hs[i], hs[j]) - fwd[i, j]) <= ATOL
        assert abs(decoherence_functional(model, hs[i], hs[j], "backwards") - bwd[i, j]) <= ATOL
        got = two_state_functional(model.initial_state, rho_f, model, hs[i], hs[j])
        assert abs(got - two[i, j]) <= ATOL
    if model.initial_state.is_pure():
        psi = model.initial_state.state_vector()
        for b, h in zip(branch_vectors(model, psi), hs):
            assert b.history == h
            assert np.max(np.abs(b.vector - ref.single_chain(model, h) @ psi)) <= ATOL


def _unrecorded_x_spin():
    """Spin model whose x outcome leaves no pointer record: depth 1 decoheres, depth 2 not."""
    spin = spin_model(0.6)
    steps = spin.grid.step_unitaries
    grid = TimeGrid(spin.grid.times, [np.eye(spin.dim), steps[1], steps[2]])
    return QuantumModel(spin.initial_state, grid, spin.families, factors=spin.factors)


@pytest.mark.parametrize("model", [
    spin_model(0.6), _unrecorded_x_spin(), random_model(3, dim=5, n_families=3),
    random_model(4, dim=4, n_families=4, members_per_family=2),
    random_model(5, dim=3, n_families=0),
], ids=["spin", "unrecorded-x", "random3", "random4", "no-families"])
def test_truncation_depths_match_truncated_models(model):
    psi = model.initial_state.state_vector()
    report = strong_decoherence_iff_orthogonality(model, psi)
    assert [row[0] for row in report.per_depth] == list(range(1, model.n_families + 1))
    for depth, max_overlap, strong, agree in report.per_depth:
        sub = ref.truncated_model(model, depth)
        assert strong == check_decoherence(sub, "forwards", "strong").decoherent
        assert agree
        gram = ref.functional_matrix(_with_state(sub, np.outer(psi, psi.conj())))
        assert abs(max_overlap - ref.max_offdiagonal(gram)) <= ATOL
    branches = [ref.single_chain(model, h) @ psi for h in model.history_labels()]
    expected = np.array([[np.vdot(a, b) for b in branches] for a in branches])
    assert np.max(np.abs(report.gram - expected)) <= ATOL


def test_truncation_verdicts_change_with_depth():
    model = _unrecorded_x_spin()
    report = strong_decoherence_iff_orthogonality(model, model.initial_state.state_vector())
    assert [row[2] for row in report.per_depth] == [True, False]


@pytest.mark.parametrize("analysis", [
    spin_symmetric_scenario(), recoherence_scenario(spin_recoherence_base(0.6)),
], ids=["spin-symmetric", "recoherence"])
def test_reinterference_matches_per_depth_probes(analysis):
    extended = analysis.extended_model
    rev_families = analysis.reversed_set.model.families
    expected = []
    for depth in range(1, len(rev_families) + 1):
        probe = QuantumModel(extended.initial_state, extended.grid,
                             list(extended.families) + list(rev_families[:depth]),
                             extended.conjugation_basis, extended.factors)
        t_probe = float(extended.grid.times[rev_families[depth - 1].time_index])
        expected.append((t_probe, ref.max_offdiagonal(ref.functional_matrix(probe))))
    assert len(analysis.reinterference) == len(expected)
    for (t, v), (t_ref, v_ref) in zip(analysis.reinterference, expected):
        assert t == t_ref
        assert abs(v - v_ref) <= ATOL


def _zero_branch_model():
    """|0> with a {|0><0|, |1><1|} family and no dynamics: history "1" has probability 0."""
    eye = np.eye(2, dtype=complex)
    family = ProjectorFamily(1, [("0", np.diag([1.0, 0.0])), ("1", np.diag([0.0, 1.0]))])
    return QuantumModel(StateOperator.from_vector([1.0, 0.0]),
                        TimeGrid([0.0, 1.0, 2.0], [eye, eye]), [family])


@pytest.mark.parametrize("tol", [TolerancePolicy(), TolerancePolicy(rel=1e-3, abs=0.0),
                                 TolerancePolicy(rel=0.0, abs=1e-6)])
@pytest.mark.parametrize("model", [random_model(9, dim=4, n_families=3, pure=False),
                                   _zero_branch_model(), spin_model(0.6)],
                         ids=["random", "zero-branch", "spin"])
def test_thresholds_equal_pair_threshold_exactly(model, tol):
    rho_f = _final_operator(model.dim, 2)
    reports = [check_decoherence(model, direction, strength, tol)
               for direction, strength in itertools.product(("forwards", "backwards"),
                                                            ("weak", "strong"))]
    reports.append(check_two_state_decoherence(model.initial_state, rho_f, model, "weak", tol))
    for report in reports:
        p = {h: v / report.normalization for h, v in report.diagonals.items()}
        for pair in report.pairs:
            threshold = tol.pair_threshold(p[pair.left], p[pair.right])
            assert pair.threshold == threshold
            assert pair.passed == (pair.measure <= threshold)
            expected_ratio = pair.measure / threshold if threshold > 0 else math.inf
            assert pair.ratio == expected_ratio


def test_zero_threshold_gives_infinite_ratio():
    report = check_decoherence(_zero_branch_model(), "forwards", "weak",
                               TolerancePolicy(rel=1e-9, abs=0.0))
    (pair,) = report.pairs
    assert pair.threshold == 0.0
    assert pair.ratio == math.inf
    assert pair.passed


def _count_walks(monkeypatch):
    """Record (model, backwards) for every walk the branch tables start."""
    calls = []
    walk = histories._walk

    def counting(model, cols, backwards=False):
        calls.append((model, backwards))
        return walk(model, cols, backwards)

    monkeypatch.setattr(histories, "_walk", counting)
    return calls


def _merge_first_family(model):
    return CoarseGraining(tuple(
        {"all": fam.labels} if k == 0 else {label: (label,) for label in fam.labels}
        for k, fam in enumerate(model.families)))


def test_each_model_walks_once_per_direction(monkeypatch):
    calls = _count_walks(monkeypatch)
    model = commuting_random_model(5, dim=5, n_families=3)
    rho_f = _final_operator(model.dim, 5)
    graining = _merge_first_family(model)
    requests = [
        lambda: check_decoherence(model, "forwards"),
        lambda: check_decoherence(model, "backwards", "strong"),
        lambda: check_two_state_decoherence(model.initial_state, rho_f, model),
        lambda: coarse_grain_check(model, graining, "forwards"),
        lambda: coarse_grain_check(model, graining, "backwards"),
        lambda: both_conditions_theorem_check(model),
    ]
    for request in requests:
        out = request()
        assert len(model._tables) <= 2
    assert out.applicable  # so the check read the chain values from the table
    assert sorted(backwards for _, backwards in calls) == [False, True]
    assert all(m is model for m, _ in calls)
    # a single-history value and equal columns read the memo; other columns
    # walk every time, and are not kept
    candidate_probability_forwards(model, model.history_labels()[0])
    _branch_table(model, model.initial_state.columns.copy())
    assert len(calls) == 2
    _branch_table(model, 1j * model.initial_state.columns)
    assert len(calls) == 3 and len(model._tables) == 2
    # a pure state's column is its vector, so every caller that starts from it
    # reads the forwards table: records walk the record extension only
    calls.clear()
    pure = spin_model(0.6)
    psi = pure.initial_state.state_vector()
    check_decoherence(pure, "forwards", "strong")
    construct_records(pure, psi)
    branch_vectors(pure, psi)
    pure_two_state_triviality_check(pure, psi)
    abl_table(psi, pure.grid.cumulative(pure.grid.n_times - 1) @ psi, pure)
    assert [(m is pure, m.n_families, backwards) for m, backwards in calls] == [
        (True, 2, False), (False, 3, False)]


def test_orthogonality_check_walks_once_for_the_state_vector(monkeypatch):
    walks = []
    walk = records._walk

    def counting(model, cols, backwards=False):
        walks.append(cols)
        return walk(model, cols, backwards)

    monkeypatch.setattr(records, "_walk", counting)
    pure = spin_model(0.6)
    psi = pure.initial_state.state_vector()
    mine = strong_decoherence_iff_orthogonality(pure, psi)
    assert len(walks) == 1  # one Gram matrix per level serves both sides
    # a vector equal to the state's only up to a phase walks the state's columns too
    turned = strong_decoherence_iff_orthogonality(pure, np.exp(0.7j) * psi)
    assert len(walks) == 3
    assert mine.agrees and turned.agrees
    assert [row[::2] for row in turned.per_depth] == [row[::2] for row in mine.per_depth]
    assert [row[1] for row in turned.per_depth] == pytest.approx([row[1] for row in mine.per_depth],
                                                                 abs=1e-15)


@pytest.mark.parametrize("from_vector", [True, False], ids=["from-vector", "from-rho"])
def test_orthogonality_check_walks_once_per_side(monkeypatch, from_vector):
    # the full set's report is read from the last level, not from another walk
    walks = []
    for module in (histories, records):
        def counting(model, cols, backwards=False, walk=module._walk):
            walks.append(model)
            return walk(model, cols, backwards)

        monkeypatch.setattr(module, "_walk", counting)
    model = random_model(10, dim=5, n_families=3)
    psi = model.initial_state.state_vector()
    if not from_vector:
        model = _with_state(model, model.initial_state.rho)
        assert not np.array_equal(model.initial_state.columns, psi[:, None])
    assert model._tables == {}
    report = strong_decoherence_iff_orthogonality(model, psi)
    assert walks == [model] * (1 if from_vector else 2)
    full = check_decoherence(model, "forwards", "strong")
    assert report.full_report.classification == full.classification
    assert report.full_report.diagonals == full.diagonals
    assert all(np.array_equal(a, b) for a, b in zip(report.full_report._arrays, full._arrays))


@pytest.mark.parametrize("from_vector", [True, False], ids=["from-vector", "from-rho"])
def test_orthogonality_check_measures_each_level_once_per_side(monkeypatch, from_vector):
    # the full set's report is built from the last level's measurement, not from a second one
    sizes = []
    measure = histories._measure

    def counting(model, rows, *args, **kwargs):
        sizes.append(len(rows))
        return measure(model, rows, *args, **kwargs)

    for module in (histories, records):
        monkeypatch.setattr(module, "_measure", counting)
    model = random_model(10, dim=5, n_families=3)
    psi = model.initial_state.state_vector()
    if not from_vector:
        model = _with_state(model, model.initial_state.rho)
    report = strong_decoherence_iff_orthogonality(model, psi)
    levels = [1, *np.cumprod([len(f) for f in model.families]).tolist()]  # the state alone first
    assert sizes == [n for n in levels for _ in range(1 if from_vector else 2)]
    assert report.gram.shape == (levels[-1],) * 2


def test_orthogonality_check_frees_the_psi_side_before_the_state_side(monkeypatch):
    # only the psi side's verdict and largest overlap are read, so its pair
    # arrays are gone by the time the state's side is measured
    sides = []
    measure = records._measure

    def watched(model, rows, *args, **kwargs):
        if len(sides) % 2:  # the state's side of a level
            assert sides[-1]() is None
        result = measure(model, rows, *args, **kwargs)
        sides.append(weakref.ref(result[1].measure))
        return result

    monkeypatch.setattr(records, "_measure", watched)
    model = random_model(10, dim=5, n_families=3)
    psi = model.initial_state.state_vector()
    model = _with_state(model, model.initial_state.rho)
    strong_decoherence_iff_orthogonality(model, psi)
    assert len(sides) == 2 * (model.n_families + 1)


def _readers(model, psi, rho_f):
    """Every report read from a Gram matrix, reduced to plain values that compare exactly."""
    def plain(report):
        return (report.classification, report.diagonals, report.probabilities,
                [a.tolist() for a in report._arrays])

    spin = spin_model(0.6)
    spin_psi = spin.initial_state.state_vector()
    symmetric = spin_symmetric_scenario()
    extended = symmetric.extended_model
    page = histories.page_symmetric_cosmology_check(extended.initial_state, np.eye(extended.dim),
                                                    extended)
    orthogonality = strong_decoherence_iff_orthogonality(model, psi)
    return [
        *(plain(check_decoherence(model, direction, strength))
          for direction in ("forwards", "backwards") for strength in ("weak", "strong")),
        *(plain(check_two_state_decoherence(model.initial_state, rho_f, model, strength))
          for strength in ("weak", "strong")),
        (page.passed, page.max_table_difference, plain(page.original), plain(page.time_reversed)),
        pure_two_state_triviality_check(model, psi),
        plain(construct_records(spin, spin_psi).extension_report),
        (symmetric.reinterference, plain(symmetric.first_half_forwards),
         plain(symmetric.reversed_backwards), plain(symmetric.original_backwards)),
        (orthogonality.agrees, orthogonality.per_depth, plain(orthogonality.full_report)),
    ]


def test_readers_never_read_the_lower_triangle(monkeypatch):
    model = random_model(11, dim=4, n_families=3)
    psi = model.initial_state.state_vector()
    rho_f = _final_operator(model.dim, 11)
    expected = _readers(model, psi, rho_f)
    gram = histories._gram

    def poisoned(a):
        d = gram(a)
        d[np.tril_indices_from(d, -1)] = np.nan
        return d

    monkeypatch.setattr(histories, "_gram", poisoned)  # the one module that forms a Gram
    model._tables.clear()
    assert _readers(model, psi, rho_f) == expected


def test_records_walks_the_model_and_its_extension_once(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import inputs  # the benchmark's register-model generator

    path = tmp_path / "reg4.json"
    inputs.write_model_file(inputs.register_model(4, np.random.default_rng(4)), path)
    calls = _count_walks(monkeypatch)
    assert main(["records", "--model", str(path)]) == 0
    capsys.readouterr()
    assert [(m.n_families, backwards) for m, backwards in calls] == [(4, False), (5, False)]


def test_triviality_check_walks_once(monkeypatch):
    # the rows that give D = amp amp^dagger are the amplitudes themselves
    calls = _count_walks(monkeypatch)
    model = random_model(9, dim=5, n_families=3)
    rep = pure_two_state_triviality_check(model, model.initial_state.state_vector())
    assert len(rep.amplitudes) == len(model.history_labels())
    assert [m for m, _ in calls] == [model]


def test_derived_and_coarse_models_walk_their_own_tables(monkeypatch):
    calls = _count_walks(monkeypatch)
    model = random_model(6, dim=4, n_families=2, pure=False)
    check_decoherence(model)
    derived = model._derive(model.families)
    coarse = _merge_first_family(model).coarse_model(model)
    for other in (derived, coarse):
        assert other._tables == {}
        for _ in range(2):
            assert np.max(np.abs(_gram(_rows(other))
                                 - ref.functional_matrix(other))) <= ATOL
    assert [m for m, _ in calls] == [model, derived, coarse]


def test_content_equal_columns_share_the_memo(monkeypatch):
    calls = _count_walks(monkeypatch)
    model = random_model(7, dim=4, n_families=2, pure=False)
    rho_f = _final_operator(model.dim, 7)
    twin = StateOperator(model.initial_state.rho)
    assert twin is not model.initial_state
    assert np.array_equal(twin.columns, model.initial_state.columns)
    mine = check_two_state_decoherence(model.initial_state, rho_f, model)
    for _ in range(2):
        other = check_two_state_decoherence(twin, rho_f, model)
        assert other.diagonals == mine.diagonals
    assert len(calls) == 1
    assert list(model._tables) == [False]


@pytest.mark.parametrize("backwards", [False, True])
@pytest.mark.parametrize("model", [random_model(8, dim=4, n_families=2, pure=False),
                                   random_model(5, dim=3, n_families=0)],
                         ids=["random", "no-families"])
def test_memoised_table_is_read_only(model, backwards):
    table = _branch_table(model, model.initial_state.columns, backwards)
    assert _branch_table(model, model.initial_state.columns, backwards) is table
    with pytest.raises(ValueError):
        table[0] = 0.0
    with pytest.raises(ValueError):
        table.reshape(-1)[0] = 1.0


@pytest.mark.parametrize("two_state_first", [False, True], ids=["forwards-first", "two-state-first"])
@pytest.mark.parametrize("kind,n,seed", CASES[1::3])
def test_memoised_functionals_match_reference_in_either_order(kind, n, seed, two_state_first):
    model = _case(kind, n, seed)
    rho_f = _final_operator(model.dim, seed)
    factor = _coerce_final_operator(rho_f, model.dim)[1]
    order = [("forwards", {}, ()), ("backwards", {}, (True,)),
             ("two_state", {"rho_i": model.initial_state, "rho_f": rho_f},
              (False, model.initial_state, factor))]
    if two_state_first:
        order.reverse()
    for direction, extra, core in order * 2:  # the second round reads the memo
        d = _gram(_rows(model, *core))
        assert np.max(np.abs(d - ref.functional_matrix(model, direction, **extra))) <= ATOL
