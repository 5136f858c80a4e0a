"""Certified projector families held as their factors.

A family of at least 4 members whose factor certificate proves every check
keeps one factor Q_a per member, not a dense copy of each member.  The walk
and the collapse oracle apply a member as Q_a (Q_a^dagger x).  Hypothesis
draws models with such families, pure and mixed, and compares the reports
and the collapse table with the chain-matrix reference evaluator and the
per-trajectory oracle run on the caller's dense matrices.  The other tests
measure what a certified family holds, check that the benchmark's
``large-dim`` request sequence never builds a member, that time reversal and
a model dump, which read every member, leave none kept, and that uncertified
families keep their inputs bit for bit.
"""

import copy
import tracemalloc
import weakref

import numpy as np
import pytest
import reference_evaluator as ref
import reference_oracle as oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decohist.histories import (
    CoarseGraining,
    TolerancePolicy,
    check_decoherence,
    check_two_state_decoherence,
    coarse_grain_check,
    time_reversed_history_set,
)
from decohist.model import ATOL_MODEL, ProjectorFamily, QuantumModel, StateOperator, TimeGrid
from decohist.modelfile import model_to_dict
from decohist.scenarios import collapse_probability_table, haar_unitary

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
    assert all(p is None for f in model.families for p in f._members)


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


def test_reversal_and_dump_keep_no_member():
    # both read every member of the source model's families
    rng = np.random.default_rng(3)
    dim = 16
    grid = TimeGrid(np.arange(-2.0, 3.0), [haar_unitary(dim, rng) for _ in range(4)])
    families = [ProjectorFamily(t, [(f"m{j}", p) for j, p in enumerate(_blocks(dim, [4] * 4, rng))])
                for t in (1, 3)]
    model = QuantumModel(_state(dim, 1, rng), grid, families)
    assert all(f.certified for f in model.families)
    reversed_model = time_reversed_history_set(model).model
    model_to_dict(model)
    model_to_dict(reversed_model)
    for family in model.families + reversed_model.families:
        assert not family.certified or all(p is None for p in family._members)
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
    assert all(p is None for f in model.families for p in f._members)


def test_small_family_keeps_its_inputs_bit_for_bit():
    members = _blocks(16, [5, 11], np.random.default_rng(3))
    family = ProjectorFamily(1, zip("ab", members))
    assert not family.certified
    for p, q in zip(members, family.projectors):
        assert np.array_equal(p, q) and not np.shares_memory(p, q) and not q.flags.writeable


def test_family_left_to_a_product_keeps_its_inputs_bit_for_bit():
    # a leak of 5 ATOL_MODEL between two members: the certificate cannot prove
    # that pair, its checks warn, and the family stays dense
    eye = np.eye(8, dtype=complex)
    theta = 5.0 * ATOL_MODEL
    turned = np.cos(theta) * eye[:, 0] + np.sin(theta) * eye[:, 1]
    members = [np.outer(turned, turned.conj()), eye[:, 1:2] @ eye[:, 1:2].T,
               eye[:, 2:4] @ eye[:, 2:4].T, eye[:, 4:] @ eye[:, 4:].T]
    with pytest.warns(UserWarning, match="exceeds"):  # orthogonality and completeness
        family = ProjectorFamily(1, zip("abcd", members))
    assert not family.certified
    assert all(np.array_equal(p, q) for p, q in zip(members, family.projectors))
