"""Projector families held as their factors.

Every validated family keeps one factor Q_a per member, about d^2 numbers in
all, and no dense copy of a member, whichever proof decides: the known
factors of a family built from them (``from_basis``, time reversal, coarse
graining), or else the static-pivot factors that validation forms once per
member (the spectral columns where a pivot factor is not within the
tolerance).  Every complete family, whatever its size, is offered to the
certificate.  The walk and the collapse oracle apply a member as Q_a (Q_a^dagger x).
Hypothesis draws models with such families, pure and mixed, and compares the
reports, the forwards, backwards and two-state functionals and the collapse
table with the chain-matrix reference evaluator and the per-trajectory oracle
run on the caller's dense matrices; and draws 2- and 3-member families that
the certificate cannot prove, whose members must apply and read back as the
caller's matrices.  The other tests measure what a family holds, check that
the benchmark's ``large-dim`` request sequence keeps no member, that each
member is factored once and a family from known factors not at all, that
time reversal and coarse graining build their families from the source's
factors (B Q_a^*, and the fine factors side by side) without reading a
member, that a model dump, which reads every member, leaves none kept, that
a family ``from_basis`` keeps its basis columns bit for bit, whichever proof
decides, and, in extended precision, that a member built from known factors
lies within the certificate's rounding term of Q_a Q_a^dagger.
"""

import copy
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import reference_evaluator as ref
import reference_oracle as oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decohist import bounds
from decohist import model as model_module
from decohist.histories import (
    CoarseGraining,
    TolerancePolicy,
    check_decoherence,
    check_two_state_decoherence,
    _coerce_final_operator,
    _gram,
    _rows,
    coarse_grain_check,
    time_reversed_history_set,
)
from decohist.model import ATOL_MODEL, WARN_FACTOR, ProjectorFamily, QuantumModel, StateOperator, TimeGrid
from decohist.modelfile import model_to_dict
from decohist.scenarios import collapse_probability_table, haar_unitary
from test_family_bounds import _equal_pivot_columns, _orthogonality_leak

ATOL = 1e-12


class _DenseFamily:
    """The caller's matrices in the place of a family, for the references to read."""

    def __init__(self, family, matrices):
        self.time_index, self.labels = family.time_index, family.labels
        self.projectors = tuple(matrices)

    def __len__(self):
        return len(self.labels)

    def member(self, j):
        return self.projectors[j]


def _blocks(dim, ranks, rng):
    """Projectors onto consecutive column blocks of ranks ``ranks`` of one Haar basis."""
    basis = haar_unitary(dim, rng)
    edges = np.concatenate([[0], np.cumsum(ranks)])
    return [basis[:, lo:hi] @ basis[:, lo:hi].conj().T for lo, hi in zip(edges, edges[1:])]


def _state(dim, rank, rng):
    c = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    if rank == 1:
        return StateOperator.from_vector(c[:, 0] / np.linalg.norm(c))
    rho = c @ c.conj().T
    return StateOperator(rho / np.trace(rho).real)


def _model(dim, member_counts, rank, rng):
    """A model with one family of Haar blocks per entry of ``member_counts``, and the inputs."""
    steps = [haar_unitary(dim, rng) for _ in range(len(member_counts) + 1)]
    inputs, families = [], []
    for t, n in enumerate(member_counts, start=1):
        cuts = np.sort(rng.choice(np.arange(1, dim), n - 1, replace=False))
        matrices = _blocks(dim, np.diff(np.concatenate([[0], cuts, [dim]])), rng)
        inputs.append(matrices)
        families.append(ProjectorFamily(t, [(f"m{j}", p) for j, p in enumerate(matrices)]))
    grid = TimeGrid(np.arange(len(steps) + 1, dtype=float), steps)
    return QuantumModel(_state(dim, rank, rng), grid, families), inputs


def _numbers(family):
    """How many numbers the family keeps: those of its factors, d^2 when the ranks sum to d."""
    return sum(q.size for q in family._factors)


def _dense_twin(model, inputs):
    """The model with the caller's matrices in the place of its families."""
    twin = copy.copy(model)
    twin.families = tuple(_DenseFamily(f, m) for f, m in zip(model.families, inputs))
    twin._tables = {}
    return twin


@st.composite
def cases(draw):
    """(dim, members per family, state rank, seed), with d <= 64 and 4 to 8 members."""
    dim = draw(st.integers(8, 64))
    counts = draw(st.lists(st.integers(4, 8), min_size=1, max_size=2))
    rank = draw(st.sampled_from([1, 2, dim]))
    return dim, counts, rank, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(cases())
@example((64, [8, 8], 2, 5))
@example((64, [4, 8], 1, 9))
@example((40, [6], 40, 3))
def test_certified_families_match_the_dense_references(case):
    dim, counts, rank, seed = case
    model, inputs = _model(dim, counts, rank, np.random.default_rng(seed))
    assert all(f.certified for f in model.families)
    twin = _dense_twin(model, inputs)
    tol = TolerancePolicy()
    hs = model.history_labels()
    for direction in ("forwards", "backwards"):
        report = check_decoherence(model, direction, "weak", tol)
        expected = ref.pair_table(ref.functional_matrix(twin, direction), 1.0, "weak", tol)
        assert len(report.pairs) == len(expected)
        for pair, (i, j, value, _, _, passed, _) in zip(report.pairs, expected):
            assert (pair.left, pair.right) == (hs[i], hs[j])
            assert abs(pair.value - value) <= ATOL
            assert pair.passed == passed
        assert report.decoherent == all(row[5] for row in expected)
    table = collapse_probability_table(model)
    if rank == 1:
        reference = {labels: p for labels, p, _ in oracle.collapse_walk(twin, model.initial_state.vector)}
    else:
        reference = dict(oracle.mixed_collapse_table(twin))
    assert table.keys() == reference.keys()
    assert max(abs(table[h] - reference[h]) for h in table) <= ATOL
    assert all(_numbers(f) == dim * dim for f in model.families)


@st.composite
def small_cases(draw):
    """(dim, members per family, state rank, seed), with d <= 16 and 2 to 4 members."""
    counts = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    dim = draw(st.integers(max(counts), 16))
    rank = draw(st.sampled_from([1, 2, dim]))
    return dim, counts, rank, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(small_cases())
@example((16, [2, 3, 4], 2, 1))
@example((5, [2, 2], 5, 7))
def test_every_family_matches_the_dense_functionals(case):
    # every forwards, backwards and two-state entry against the chain matrices
    # of the caller's arrays, whichever factor each family keeps
    dim, counts, rank, seed = case
    rng = np.random.default_rng(seed)
    model, inputs = _model(dim, counts, rank, rng)
    # every family is complete, so each is offered to the certificate, which
    # proves Haar blocks of any count
    assert all(f.certified for f in model.families)
    twin = _dense_twin(model, inputs)
    rho_f = _state(dim, 2, rng).rho
    got = {"forwards": _gram(_rows(model)), "backwards": _gram(_rows(model, True)),
           "two_state": _gram(_rows(model, False, model.initial_state,
                                     _coerce_final_operator(rho_f, dim)[1]))}
    for direction, d in got.items():
        expected = ref.functional_matrix(twin, direction, rho_f=rho_f)
        assert np.max(np.abs(d - expected)) <= ATOL


def _assert_factors_apply_the_inputs(family, matrices, limit):
    """Each member applies as the caller's matrix, and Q_a Q_a^dagger is within ``limit`` of it."""
    x = np.random.default_rng(0).standard_normal((family.dim, 6)).view(complex)
    scale = ATOL * np.linalg.norm(x)
    for a, p in enumerate(matrices):
        assert np.abs(family.apply(a, x) - p @ x).max() <= scale
        assert np.abs(family.apply(a, x.T, rows=True) - x.T @ p.T).max() <= scale
        q = family._factors[a]
        assert np.abs(q @ q.conj().T - p).max() <= limit


def _stretched(basis):
    """``basis`` times 1 + delta, with (1 + delta)^2 - 1 = 0.9 ``ATOL_MODEL``.

    Its block projectors pass every dense check silently: C = sum_a P_a - I
    and each P_a^2 - P_a are 0.9 ``ATOL_MODEL`` times I and P_a.  But the
    certificate reads ||C||_F = 0.9 ``ATOL_MODEL`` sqrt(d), and some member
    of n has a diagonal entry of at least 1/n, so at d >= 12 and n <= 3 it
    cannot prove them.
    """
    return basis * np.sqrt(1.0 + 0.9 * ATOL_MODEL)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(st.integers(12, 16), st.integers(2, 3), st.booleans(), st.integers(0, 2**32 - 1))
def test_dense_rule_factors_apply_the_input_members(dim, n, from_basis, seed):
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, dim), min(n, dim) - 1, replace=False))
    edges = np.concatenate([[0], cuts, [dim]])
    basis = _stretched(haar_unitary(dim, rng))
    blocks = {f"m{j}": list(range(lo, hi)) for j, (lo, hi) in enumerate(zip(edges, edges[1:]))}
    matrices = [basis[:, idx] @ basis[:, idx].conj().T for idx in blocks.values()]
    family = (ProjectorFamily.from_basis(1, basis, blocks) if from_basis
              else ProjectorFamily(1, zip(blocks, matrices)))
    assert not family.certified
    _assert_factors_apply_the_inputs(family, matrices, ATOL_MODEL)


def _leak():
    # a leak of 5 ATOL_MODEL between two members: the certificate cannot prove
    # that pair, and its checks warn
    eye = np.eye(8, dtype=complex)
    theta = 5.0 * ATOL_MODEL
    turned = np.cos(theta) * eye[:, 0] + np.sin(theta) * eye[:, 1]
    return [np.outer(turned, turned.conj()), eye[:, 1:2] @ eye[:, 1:2].T,
            eye[:, 2:4] @ eye[:, 2:4].T, eye[:, 4:] @ eye[:, 4:].T]


@pytest.mark.parametrize("matrices, warned", [
    ([p for _, p in _equal_pivot_columns()], False),
    (_leak(), True),
], ids=["equal-pivot-columns", "leak-5"])
def test_edge_families_apply_the_input_members(matrices, warned):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        family = ProjectorFamily(1, zip("abcd", matrices))
    assert bool(caught) == warned and not family.certified
    _assert_factors_apply_the_inputs(family, matrices, (WARN_FACTOR if warned else 1.0) * ATOL_MODEL)


def test_certified_family_holds_its_factors():
    rng = np.random.default_rng(1)
    members = [(f"m{j}", p) for j, p in enumerate(_blocks(256, [64] * 4, rng))]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        family = ProjectorFamily(1, members)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 1.1 * 2**20  # four dense copies held 4 MiB
    # Q_a Q_a^dagger, built on read, is within the certificate's e_a of the input
    for (_, p), q in zip(members, family.projectors):
        assert not q.flags.writeable
        assert np.linalg.norm(q - p) <= ATOL_MODEL
    assert np.array_equal(family.member("m2"), family.projectors[2])


def test_reversal_and_dump_keep_no_member(monkeypatch):
    # reversal and coarse graining build their families from the source's
    # factors, B Q_a^* and the fine factors side by side: they read no member
    # and factor nothing, and every family they build is certified and holds
    # d^2 numbers.  A dump reads every member, and keeps none.
    rng = np.random.default_rng(3)
    dim = 16
    grid = TimeGrid(np.arange(-2.0, 3.0), [haar_unitary(dim, rng) for _ in range(4)])
    families = [ProjectorFamily(t, [(f"m{j}", p) for j, p in enumerate(_blocks(dim, [2] * 8, rng))])
                for t in (1, 3)]
    u = haar_unitary(dim, rng)
    model = QuantumModel(_state(dim, 1, rng), grid, families, u @ u.T)  # a symmetric unitary basis
    assert all(f.certified for f in model.families)
    calls = {"member": 0, "factored": 0}
    read_member, factor_columns = ProjectorFamily.member, bounds._factor_columns

    def counting_member(self, label_or_index):
        calls["member"] += 1
        return read_member(self, label_or_index)

    def counting_factor_columns(*args):
        calls["factored"] += 1
        return factor_columns(*args)

    with monkeypatch.context() as patch:
        patch.setattr(ProjectorFamily, "member", counting_member)
        patch.setattr(bounds, "_factor_columns", counting_factor_columns)
        patch.setattr(model_module, "_factor_columns", counting_factor_columns)
        reversed_set = time_reversed_history_set(model)
        pairs = {f"p{j}": (f"m{2 * j}", f"m{2 * j + 1}") for j in range(4)}
        coarse = CoarseGraining((pairs, pairs)).coarse_model(model)
    assert calls == {"member": 0, "factored": 0}
    for new, old in reversed_set.family_map:
        family, source = reversed_set.model.families[new], model.families[old]
        assert family.labels == source.labels
        assert all(np.array_equal(q, model.conjugation_basis @ p.conj())
                   for q, p in zip(family._factors, source._factors))
    for family, source in zip(coarse.families, model.families):
        assert all(np.array_equal(q, np.hstack(source._factors[2 * j:2 * j + 2]))
                   for j, q in enumerate(family._factors))
    reversed_model = reversed_set.model
    model_to_dict(model)
    model_to_dict(reversed_model)
    for family in model.families + reversed_model.families + coarse.families:
        assert family.certified and _numbers(family) == dim * dim
    member = model.families[0].member("m1")
    assert np.array_equal(member, model.families[0].projectors[1])
    kept = weakref.ref(member)
    del member
    assert kept() is None


def test_large_dim_requests_never_build_a_member():
    # the benchmark's large-dim request: d = 256, 2 families of 4 rank-64 members
    rng = np.random.default_rng(2)
    model, _ = _model(256, [4, 4], 4, rng)
    rho_f = _state(256, 4, rng).rho
    merged = {"m0+m1": ("m0", "m1"), "m2+m3": ("m2", "m3")}
    singles = {f"m{j}": (f"m{j}",) for j in range(4)}
    check_decoherence(model, "forwards", "weak")
    check_decoherence(model, "backwards", "weak")
    check_two_state_decoherence(model.initial_state, rho_f, model, "weak")
    coarse_grain_check(model, CoarseGraining((merged, singles)))
    collapse_probability_table(model)
    assert all(f.certified for f in model.families)
    assert all(_numbers(f) == 256 * 256 for f in model.families)


_TWO_BLOCKS = {"a": [0, 3, 7, 9, 12], "b": [1, 2, 4, 5, 6, 8, 10, 11, 13, 14, 15]}


@pytest.mark.parametrize("dim, blocks, stretch, certified", [
    (16, _TWO_BLOCKS, True, False),
    (16, _TWO_BLOCKS, False, True),
    (64, {f"m{j}": list(range(j, 64, 4)) for j in range(4)}, False, True),
], ids=["dense-rule", "two-members", "certified"])
def test_small_family_keeps_its_inputs_bit_for_bit(dim, blocks, stretch, certified):
    # a family from_basis keeps its blocks of basis columns, copied and read-only,
    # whichever proof decides, and forms no factor: its members are the products
    # it validated.  A complete family is offered to the certificate whatever its
    # size; a stretched basis leaves it to the dense rule.
    basis = haar_unitary(dim, np.random.default_rng(3))
    if stretch:
        basis = _stretched(basis)
    family = ProjectorFamily.from_basis(1, basis, blocks)
    assert family.certified == certified
    for a, idx in enumerate(blocks.values()):
        cols, q = basis[:, idx], family._factors[a]
        assert np.array_equal(cols, q) and not np.shares_memory(basis, q) and not q.flags.writeable
        assert np.array_equal(family.member(a), cols @ cols.conj().T)


def test_family_left_to_a_product_keeps_its_inputs_bit_for_bit():
    # the dense rule decides the leak's family, and its members, each of exact
    # rank, are read back from their static-pivot factors bit for bit
    members = _leak()
    with pytest.warns(UserWarning, match="exceeds"):  # orthogonality and completeness
        family = ProjectorFamily(1, zip("abcd", members))
    assert not family.certified
    assert all(np.array_equal(p, q) for p, q in zip(members, family.projectors))


def test_each_member_is_factored_once(monkeypatch):
    # every member gets its static-pivot factor and residual once, whichever
    # proof decides: the leak's family is not offered to the certificate (its
    # completeness defect is 5 ATOL_MODEL), the rotation's is offered and not
    # proven, and the dense rule keeps the factors already formed.  Families
    # built from known factors (from_basis, time reversal, coarse graining)
    # call no factorization, which is where a residual product is formed.
    calls = []
    factor_columns = bounds._factor_columns

    def counting_factor_columns(p, *args):
        calls.append(p.shape)
        return factor_columns(p, *args)

    monkeypatch.setattr(bounds, "_factor_columns", counting_factor_columns)
    monkeypatch.setattr(model_module, "_factor_columns", counting_factor_columns)
    for members in (list(zip("abcd", _leak())), _orthogonality_leak(0.9)):
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            family = ProjectorFamily(1, members)
        assert not family.certified and len(calls) == len(members)
    rng = np.random.default_rng(4)
    dim = 16
    calls.clear()
    families = [ProjectorFamily.from_basis(t, haar_unitary(dim, rng), {f"m{j}": [2 * j, 2 * j + 1]
                                                                      for j in range(8)})
                for t in (1, 3)]
    grid = TimeGrid(np.arange(-2.0, 3.0), [haar_unitary(dim, rng) for _ in range(4)])
    model = QuantumModel(_state(dim, 1, rng), grid, families)
    reversed_set = time_reversed_history_set(model)
    pairs = {f"p{j}": (f"m{2 * j}", f"m{2 * j + 1}") for j in range(4)}
    coarse = CoarseGraining((pairs, pairs)).coarse_model(model)
    assert calls == []
    assert all(f.certified for f in model.families + reversed_set.model.families + coarse.families)


@settings(derandomize=True, deadline=None, database=None, max_examples=12)
@given(st.integers(2, 64), st.integers(0, 2**32 - 1))
def test_known_factor_members_lie_within_the_rounding_term(dim, seed):
    # A member built from a known factor is fl(Q_a Q_a^dagger) itself, so the
    # certificate takes its residual as 0 and lets sqrt(2) gamma_{r+2} ||Q_a||_F^2
    # stand for ||Q_a Q_a^dagger - P_a||_F.  Checked against Q_a Q_a^dagger formed
    # in np.clongdouble, where the float64 data are exact, for the factors of
    # from_basis, time reversal and coarse graining; the extended product's own
    # rounding (unit roundoff 2^-64) is added to the true error.
    assert np.finfo(np.longdouble).nmant >= 63
    rng = np.random.default_rng(seed)
    n = min(dim, 4)
    cuts = np.sort(rng.choice(np.arange(1, dim), n - 1, replace=False))
    edges = np.concatenate([[0], cuts, [dim]])
    order = rng.permutation(dim).tolist()
    blocks = {f"m{j}": order[lo:hi] for j, (lo, hi) in enumerate(zip(edges, edges[1:]))}
    grid = TimeGrid(np.arange(-2.0, 3.0), [np.eye(dim)] * 4)
    u = haar_unitary(dim, rng)
    model = QuantumModel(_state(dim, 1, rng), grid,
                         [ProjectorFamily.from_basis(t, haar_unitary(dim, rng), blocks) for t in (1, 3)],
                         u @ u.T)
    merged = {"front": tuple(blocks)[:n // 2 or 1], "back": tuple(blocks)[n // 2 or 1:]}
    families = (model.families + time_reversed_history_set(model).model.families
                + CoarseGraining((merged, merged)).coarse_model(model).families)
    u_ext = float(np.finfo(np.longdouble).eps) / 2
    for family in families:
        for q in family._factors:
            r = q.shape[1]
            member = (q @ q.conj().T).astype(np.clongdouble)  # as _from_factors forms it
            q_ext = q.astype(np.clongdouble)
            error = q_ext @ q_ext.conj().T - member
            q_frob = float(np.sum(q_ext.real ** 2 + q_ext.imag ** 2))
            true = float(np.sqrt(np.sum(error.real ** 2 + error.imag ** 2)))
            true += np.sqrt(2.0) * (r + 2) * u_ext / (1 - (r + 2) * u_ext) * q_frob
            assert true <= np.sqrt(2.0) * bounds._gamma(r + 2) * q_frob
