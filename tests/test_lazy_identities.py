"""What a model holds: identities built on first read, final operators read in place.

A ``TimeGrid`` keeps W(t_0) = 1 and a ``QuantumModel`` its default
conjugation basis only once they are read, so constructing either keeps no
d×d array beyond the stored inputs; tracemalloc measures what construction
keeps.  Both reads give frozen identities, and a model with an explicit
identity basis serializes byte for byte like one without.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from decohist import histories
from decohist.model import ProjectorFamily, QuantumModel, StateOperator, TimeGrid
from decohist.modelfile import dump_model, model_to_dict
from decohist.scenarios import haar_unitary

DIM = 64
MATRIX_BYTES = DIM * DIM * 16  # one d×d complex array


def _kept(build):
    """``build()`` and the bytes it allocated and still holds."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        obj = build()
        return obj, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def _parts(seed: int = 0):
    rng = np.random.default_rng(seed)
    steps = [haar_unitary(DIM, rng) for _ in range(3)]
    psi = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
    half = np.diag([1.0] * (DIM // 2) + [0.0] * (DIM // 2)).astype(complex)
    family = ProjectorFamily(1, [("a", half), ("b", np.eye(DIM) - half)])
    return steps, StateOperator.from_vector(psi / np.linalg.norm(psi)), [family]


def _assert_frozen_identity(a: np.ndarray) -> None:
    assert not a.flags.writeable
    assert a.dtype == complex and np.array_equal(a, np.eye(DIM))


def test_identities_are_built_on_first_read():
    steps, state, families = _parts()
    grid, kept = _kept(lambda: TimeGrid([0.0, 1.0, 2.0, 3.0], steps))
    assert kept < (len(steps) + 0.5) * MATRIX_BYTES  # the step copies, no identity
    w0, kept = _kept(lambda: grid.cumulative(0))
    assert kept >= MATRIX_BYTES
    _assert_frozen_identity(w0)
    assert grid.cumulative(0) is w0

    model, kept = _kept(lambda: QuantumModel(state, grid, families))
    assert kept < 0.5 * MATRIX_BYTES
    basis, kept = _kept(lambda: model.conjugation_basis)
    assert kept >= MATRIX_BYTES
    _assert_frozen_identity(basis)
    assert model.conjugation_basis is basis


def test_check_two_state_decoherence_reads_the_final_operator_in_place(monkeypatch):
    steps, state, families = _parts(1)
    model = QuantumModel(state, TimeGrid([0.0, 1.0, 2.0, 3.0], steps), families)
    rho_f = np.diag(np.linspace(0.1, 1.0, DIM)).astype(complex)
    seen = []
    normalization = histories._two_state_normalization
    monkeypatch.setattr(histories, "_two_state_normalization",
                        lambda rho_i, rho_f: seen.append(rho_f) or normalization(rho_i, rho_f))
    report = histories.check_two_state_decoherence(state, rho_f, model)
    assert seen[0] is rho_f
    assert report.normalization == pytest.approx(float(np.trace(rho_f @ state.rho).real))


def test_explicit_identity_basis_serializes_like_the_default(tmp_path):
    steps, state, families = _parts(2)
    grid = TimeGrid([0.0, 1.0, 2.0, 3.0], steps)
    default = QuantumModel(state, grid, families)
    explicit = QuantumModel(state, grid, families, np.eye(DIM))
    assert model_to_dict(default) == model_to_dict(explicit)
    assert "conjugation_basis" not in model_to_dict(default)
    dump_model(default, tmp_path / "default.json")
    dump_model(explicit, tmp_path / "explicit.json")
    assert (tmp_path / "default.json").read_bytes() == (tmp_path / "explicit.json").read_bytes()
    for model in (default, explicit):
        _assert_frozen_identity(model.conjugation_basis)
        _assert_frozen_identity(model.grid.cumulative(0))
