"""Property test: every reader of the branch table, on gapped grids.

The branch table stays in the frame of the last family the walk meets, so
each reader either needs no frame (a Gram matrix, a squared norm), carries a
few initial-time columns into the table's frame (two-state factor, chain
expectations, triviality amplitudes), or carries the table's rows to another
time (branch vectors back to the start, records on to the record time, and
ABL's final vector back to the table).  The evolved state, too, is the
state's columns carried step by step, and equals W rho W^dagger.  Hypothesis
draws models from
``random_model`` and ``commuting_random_model``, with pure, rank-2 and
full-rank states, and re-hosts their families on grids with several steps
before each family and after the last, so that every carry spans more than
one step.  Every value is compared with the chain-matrix reference
evaluator.
"""

import numpy as np
import reference_evaluator as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decohist.histories import (
    TolerancePolicy,
    _coerce_final_operator,
    _gram,
    _rows,
    both_conditions_theorem_check,
    check_decoherence,
    check_two_state_decoherence,
    pure_two_state_triviality_check,
    two_state_functional,
)
from decohist import cli, scenarios
from decohist.model import (
    ProjectorFamily,
    QuantumModel,
    StateOperator,
    TimeGrid,
    evolve_state,
    is_time_symmetric,
)
from decohist.records import branch_vectors, construct_records
from decohist.scenarios import abl_table, commuting_random_model, haar_unitary, random_model

ATOL = 1e-12
KINDS = ("pure", "mixed", "rank2", "commuting")


@st.composite
def cases(draw):
    """(kind, gaps, trailing, dim, seed): ``gaps[k]`` steps lead to family k, ``trailing`` follow the last."""
    kind = draw(st.sampled_from(KINDS))
    n_families = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.integers(1, 3), min_size=n_families, max_size=n_families))
    trailing = draw(st.integers(1, 3))
    dim = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    return kind, gaps, trailing, dim, seed


def _unit(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _gapped(model, gaps, trailing, rng, commuting):
    """The model's state and families on a grid with ``gaps`` and ``trailing`` steps.

    Each of the model's steps u opens its run of steps.  The others are Haar
    unitaries, or powers of u for a commuting model, which keep it commuting.
    """
    steps = []
    for u, run in zip(model.grid.step_unitaries, [*gaps, trailing]):
        steps.append(u)
        steps += [np.linalg.matrix_power(u, j + 2) if commuting else haar_unitary(model.dim, rng)
                  for j in range(run - 1)]
    grid = TimeGrid(np.arange(len(steps) + 1, dtype=float), steps)
    families = [ProjectorFamily(t, zip(fam.labels, fam.projectors))
                for t, fam in zip(np.cumsum(gaps).tolist(), model.families)]
    return QuantumModel(model.initial_state, grid, families)


def _build(kind, gaps, trailing, dim, seed):
    n = len(gaps)
    if kind == "commuting":
        model = commuting_random_model(seed, dim=dim, n_families=n)
    else:
        model = random_model(seed, dim=dim, n_families=n, pure=kind == "pure")
    rng = np.random.default_rng(seed)
    if kind == "rank2":
        c = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
        rho = c @ c.conj().T
        model = QuantumModel(StateOperator(rho / np.trace(rho).real), model.grid, model.families)
    return _gapped(model, gaps, trailing, rng, kind == "commuting"), rng


def _end(model):
    w = np.eye(model.dim, dtype=complex)
    for u in model.grid.step_unitaries:
        w = u @ w
    return w


def _check_functionals(model, rng):
    c = rng.standard_normal((model.dim, 2)) + 1j * rng.standard_normal((model.dim, 2))
    rho_f = c @ c.conj().T
    factor = _coerce_final_operator(rho_f, model.dim)[1]
    for direction, extra, core in (
            ("forwards", {}, ()), ("backwards", {}, (True,)),
            ("two_state", {"rho_i": model.initial_state, "rho_f": rho_f},
             (False, model.initial_state, factor))):
        d = _gram(_rows(model, *core))
        expected = ref.functional_matrix(model, direction, **extra)
        assert np.max(np.abs(d - expected)) <= ATOL, direction
    hs = model.history_labels()
    value = two_state_functional(model.initial_state, rho_f, model, hs[-1], hs[0])
    assert abs(value - expected[-1, 0]) <= ATOL


def _check_chain_expectations(model):
    # thresholds so loose that both conditions hold, so the chain values are read
    report = both_conditions_theorem_check(model, TolerancePolicy(rel=1e300, abs=1e300))
    assert report.applicable
    for h, value in report.chain_expectations.items():
        expected = np.trace(ref.single_chain(model, h) @ model.initial_state.rho).real
        assert abs(value - expected) <= ATOL


def _check_vector_readers(model, rng):
    psi, psi_f = _unit(rng, model.dim), _unit(rng, model.dim)
    chains = {h: ref.single_chain(model, h) for h in model.history_labels()}
    amplitudes = pure_two_state_triviality_check(model, psi).amplitudes
    for h, chain in chains.items():
        assert abs(amplitudes[h] - np.vdot(psi, chain @ psi)) <= ATOL
    w_end = _end(model)
    numerators = {h: abs(np.vdot(psi_f, w_end @ chain @ psi)) ** 2 for h, chain in chains.items()}
    total = sum(numerators.values())
    for h, p in abl_table(psi, psi_f, model).items():
        assert abs(p - numerators[h] / total) <= ATOL
    if model.initial_state.vector is not None:
        own = model.initial_state.vector
        for b in branch_vectors(model, own):
            assert np.max(np.abs(b.vector - chains[b.history] @ own)) <= ATOL


def _check_evolved_states(model):
    """evolve_state carries the state; the reference conjugates rho with the segment."""
    rho = model.initial_state.rho
    for k in range(model.grid.n_times):
        w = model.grid.segment(0, k) if k else np.eye(model.dim)
        assert np.max(np.abs(evolve_state(model, k).rho - w @ rho @ w.conj().T)) <= ATOL, k


def _check_records(model, rng):
    """Records of a pure superposition of the common eigenbasis, at a random later time."""
    basis = model.initial_state.eigenvectors
    coefficients = _unit(rng, model.dim)
    pure = QuantumModel(StateOperator.from_vector(basis @ coefficients), model.grid, model.families)
    psi = pure.initial_state.vector
    time_index = int(rng.integers(pure.families[-1].time_index, pure.grid.n_times))
    recs = construct_records(pure, psi, time_index)
    w = np.eye(pure.dim, dtype=complex)
    for u in pure.grid.step_unitaries[:time_index]:
        w = u @ w
    evolved = {h: w @ ref.single_chain(pure, h) @ psi for h in pure.history_labels()}
    for h, v in evolved.items():
        p = np.vdot(v, v).real
        assert abs(recs.probabilities[h] - p) <= ATOL
        # p P_h = |v><v|, with no division by a small norm (P_h = 0 for a null branch)
        assert np.max(np.abs(p * recs.projections[h] - np.outer(v, v.conj()))) <= ATOL
    assert recs.extension_report.decoherent


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(cases())
@example(("pure", [3, 2, 3], 3, 4, 7))
@example(("rank2", [2, 3], 2, 5, 11))
@example(("commuting", [3, 1, 2], 2, 4, 5))
def test_table_readers_match_reference_on_gapped_grids(case):
    model, rng = _build(*case)
    _check_functionals(model, rng)
    _check_chain_expectations(model)
    _check_vector_readers(model, rng)
    _check_evolved_states(model)
    if case[0] == "commuting":
        _check_records(model, rng)


def test_checks_never_read_cumulative_products(monkeypatch):
    # families at grid indices 3 and 5: three steps before the first and five before the last
    model, rng = _build("mixed", [3, 2], 2, 4, 3)
    rho_f = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)

    def refused(grid, k):
        raise AssertionError(f"a check read TimeGrid.cumulative({k})")

    monkeypatch.setattr(TimeGrid, "cumulative", refused)
    check_decoherence(model, "forwards")
    check_decoherence(model, "backwards", "strong")
    check_two_state_decoherence(model.initial_state, rho_f, model)
    both_conditions_theorem_check(model)
    pure_two_state_triviality_check(model, _unit(rng, model.dim))


def test_state_movers_never_form_products_of_steps(monkeypatch, capsys):
    def refused(name):
        def call(grid, *indices):
            raise AssertionError(f"a state mover read TimeGrid.{name}")
        return call

    for name in ("cumulative", "segment"):
        monkeypatch.setattr(TimeGrid, name, refused(name))
    model, _ = _build("mixed", [3, 2], 2, 4, 3)
    assert evolve_state(model, model.grid.n_times - 1).dim == model.dim
    extended = scenarios._mirror_extension(scenarios.spin_recoherence_base(1.0 / np.sqrt(2.0)))
    assert is_time_symmetric(extended, extended.grid.n_times // 2)
    assert cli.main(["reverse", "--scenario", "spin", "a=0.6"]) == 0  # the default final vector
    assert "trajectories" in capsys.readouterr().out
