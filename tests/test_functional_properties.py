"""Property tests: identities every decoherence functional obeys, decoherent or not.

For any history set, completeness of each family and unitarity of the steps
give sum_h L_h^dagger L_h = 1 (and sum_h L_h = 1), so forwards and backwards

* the candidate probabilities sum to 1: sum_h D(h, h) = Tr(rho) = 1;
* the whole functional sums to 1: sum_{h, h'} D(h, h') = Tr(rho) = 1;
* D is Hermitian with a non-negative diagonal (D(h, h) = ||L_h C||^2);

and the two-state functional sums to Tr(rho_f rho_i).  hypothesis draws
random and commuting models with pure and mixed states, and gapped grids.
The functionals are read from the model's memoised branch tables, as the
checks read them.

Three of the paper's statements are tested the same way: on commuting
models, where both weak conditions hold, the forwards and backwards
probabilities coincide and equal Re Tr(L_h rho); reversing a reversed history
set gives back the set, for a conjugation basis with B B^* = +1 or -1; and on
a mirror extension the backwards functional of the reversed set is the
complex conjugate of the forwards functional of the set, pair by pair, and
the extension ends in B rho_0^* B^dagger, the time reverse of its initial
state, so a B that is a product over the tensor factors brings the reduced
purity back (the recoherence witness).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_grid_gaps import _build, layouts

from decohist.histories import (
    _coerce_final_operator,
    _gram,
    _rows,
    both_conditions_theorem_check,
    time_reversed_history_set,
)
from decohist.model import QuantumModel, StateOperator, TimeGrid, evolve_state
from decohist.scenarios import (
    _random_family,
    commuting_random_model,
    haar_unitary,
    random_model,
    recoherence_scenario,
)

ATOL = 1e-12
SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=50)


@st.composite
def models(draw):
    """(model, rho_f): a random, commuting or gapped-grid model and a final operator."""
    source = draw(st.sampled_from(["random", "commuting", "gapped"]))
    if source == "gapped":
        return _build(*draw(layouts()))
    seed = draw(st.integers(0, 2**32 - 1))
    dim = draw(st.integers(2, 5))
    n = draw(st.integers(0, 3))
    if source == "random":
        model = random_model(seed, dim=dim, n_families=n, pure=draw(st.booleans()))
    else:
        model = commuting_random_model(seed, dim=dim, n_families=n)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return model, a @ a.conj().T


def _directions(model):
    for direction in ("forwards", "backwards"):
        yield direction, _gram(_rows(model, direction == "backwards"))


@SETTINGS
@given(models())
def test_candidate_probabilities_sum_to_one(case):
    model, _ = case
    for direction, d in _directions(model):
        assert abs(np.trace(d) - 1.0) <= ATOL, direction


@SETTINGS
@given(models())
def test_whole_functional_sums_to_one(case):
    model, _ = case
    for direction, d in _directions(model):
        assert abs(d.sum() - 1.0) <= ATOL, direction


@SETTINGS
@given(models())
def test_functional_is_hermitian_with_nonnegative_diagonal(case):
    model, rho_f = case
    for direction, d in _directions(model):
        assert np.max(np.abs(d - d.conj().T)) <= ATOL, direction
        assert np.all(d.diagonal().real >= 0.0), direction
    factor = _coerce_final_operator(rho_f, model.dim)[1]
    d = _gram(_rows(model, False, model.initial_state, factor))
    assert np.max(np.abs(d - d.conj().T)) <= ATOL


@SETTINGS
@given(models())
def test_two_state_functional_sums_to_boundary_overlap(case):
    model, rho_f = case
    factor = _coerce_final_operator(rho_f, model.dim)[1]
    d = _gram(_rows(model, False, model.initial_state, factor))
    overlap = np.trace(rho_f @ model.initial_state.rho)
    assert abs(d.sum() - overlap) <= ATOL * max(1.0, abs(overlap))


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(0, 3))
def test_both_conditions_theorem_on_commuting_models(seed, dim, n):
    report = both_conditions_theorem_check(commuting_random_model(seed, dim=dim, n_families=n))
    assert report.applicable and report.passed
    for h, p in report.forwards.probabilities.items():
        assert abs(p - report.backwards.probabilities[h]) <= ATOL
        assert abs(p - report.chain_expectations[h]) <= ATOL


@st.composite
def reflectable(draw):
    """(model, sign): families at interior times of a grid symmetric about 0, with B B^* = sign.

    B is U U^T for sign +1 and U (i sigma_y (x) 1) U^T for sign -1, with U Haar.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    sign = draw(st.sampled_from([1, -1]))
    dim = 2 * draw(st.integers(1, 2)) if sign < 0 else draw(st.integers(2, 5))
    half = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    interior = np.arange(1, 2 * half)
    n = draw(st.integers(0, min(3, interior.size)))
    times = sorted(rng.choice(interior, size=n, replace=False).tolist())
    u = haar_unitary(dim, rng)
    j = np.eye(dim) if sign > 0 else np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(dim // 2))
    grid = TimeGrid(np.arange(-half, half + 1, dtype=float),
                    [haar_unitary(dim, rng) for _ in range(2 * half)])
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    model = QuantumModel(StateOperator.from_vector(psi / np.linalg.norm(psi)), grid,
                         [_random_family(dim, t, rng) for t in times], conjugation_basis=u @ j @ u.T)
    return model, sign


@SETTINGS
@given(reflectable())
def test_reversing_a_reversed_set_gives_back_the_set(case):
    model, sign = case
    b = model.conjugation_basis
    assert np.max(np.abs(b @ b.conj() - sign * np.eye(model.dim))) <= ATOL
    back = time_reversed_history_set(time_reversed_history_set(model).model).model
    assert np.array_equal(back.grid.times, model.grid.times)
    assert [f.time_index for f in back.families] == [f.time_index for f in model.families]
    for fam, again in zip(model.families, back.families):
        assert again.labels == fam.labels
        for p, q in zip(fam.projectors, again.projectors):
            assert np.max(np.abs(p - q)) <= ATOL


@st.composite
def mirror_bases(draw):
    """A recoherence base: Haar steps on a grid ending at 0, 1-3 families before 0.

    The state at 0 is rho_c = (X + B X^* B^dagger) / 2, normalized, which the
    reversal fixes, pulled back to the first time; B is 1, or i sigma_y (x) 1
    at even dimension.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    odd = seed % 2 == 1  # B B^* = -1
    dim = 2 * draw(st.integers(1, 2)) if odd else draw(st.integers(2, 5))
    n = draw(st.integers(1, 3))
    half = n + draw(st.integers(1, 2))
    rng = np.random.default_rng(seed)
    grid = TimeGrid(np.arange(-half, 1, dtype=float), [haar_unitary(dim, rng) for _ in range(half)])
    b = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(dim // 2)) if odd else np.eye(dim)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x = x @ x.conj().T
    rho_c = x + b @ x.conj() @ b.conj().T
    w = grid.cumulative(half)
    rho_0 = w.conj().T @ (rho_c / np.trace(rho_c).real) @ w
    times = sorted(rng.choice(np.arange(1, half), size=n, replace=False).tolist())
    return QuantumModel(StateOperator(rho_0), grid, [_random_family(dim, t, rng) for t in times],
                        conjugation_basis=b)


@SETTINGS
@given(mirror_bases())
def test_reversed_backwards_functional_is_the_conjugate_of_the_forwards_one(base):
    analysis = recoherence_scenario(base)
    forwards, backwards = analysis.first_half_forwards, analysis.reversed_backwards
    flip = analysis.reversed_set.reversed_history
    values = {}
    for pair in forwards.pairs:
        values[pair.left, pair.right] = pair.value
        values[pair.right, pair.left] = pair.value.conjugate()
    assert len(backwards.pairs) * 2 == len(values)
    for pair in backwards.pairs:
        assert abs(pair.value - values[flip(pair.left), flip(pair.right)].conjugate()) <= ATOL
    assert backwards.diagonals.keys() == {flip(h) for h in forwards.diagonals}
    for h, p in forwards.diagonals.items():
        assert abs(backwards.diagonals[flip(h)] - p) <= ATOL


def _factored(base):
    return QuantumModel(base.initial_state, base.grid, base.families, base.conjugation_basis,
                        factors=(2, base.dim // 2))


@SETTINGS
@given(mirror_bases().filter(lambda base: base.dim % 2 == 0).map(_factored))
def test_mirror_extension_ends_in_the_time_reverse_of_its_initial_state(base):
    # W_ext = B W^T B^dagger W and rho_c = B rho_c^* B^dagger give B rho_0^* B^dagger
    analysis = recoherence_scenario(base)
    ext = analysis.extended_model
    b, rho_0 = base.conjugation_basis, base.initial_state.rho
    final = evolve_state(ext, ext.grid.n_times - 1).rho
    assert np.max(np.abs(final - b @ rho_0.conj() @ b.conj().T)) <= ATOL
    assert analysis.recoherence_witness
