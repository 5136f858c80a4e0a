"""Seeded input generator for the benchmark workloads.

Depends on numpy only: it never calls into ``decohist`` (in particular not
``decohist.scenarios.random_model``), so a change to the program cannot shift
what a workload feeds it.  Everything is a plain complex128 array; the same
seed always gives the same arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix, phases fixed."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def block_projectors(basis: np.ndarray, n_members: int) -> list[np.ndarray]:
    """Projectors onto equal consecutive column blocks of a unitary basis."""
    dim = basis.shape[0]
    if dim % n_members:
        raise ValueError(f"dimension {dim} does not split into {n_members} equal blocks")
    size = dim // n_members
    out = []
    for j in range(n_members):
        cols = basis[:, j * size:(j + 1) * size]
        out.append(cols @ cols.conj().T)
    return out


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def random_psd(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-``rank`` positive semidefinite matrix with unit trace."""
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = a @ a.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


@dataclass
class ModelArrays:
    """Everything a model is built from, as arrays.

    ``families`` holds one list of (label, projector) pairs per family; family
    k sits at grid index k + 1 on the grid 0, 1, ..., len(families) + 1.
    Exactly one of ``psi`` (pure state) and ``rho`` (mixed state) is set.
    """

    steps: list[np.ndarray]
    families: list[list[tuple[str, np.ndarray]]]
    psi: np.ndarray | None = None
    rho: np.ndarray | None = None
    rho_final: np.ndarray | None = None
    # History label tuple -> exact forwards probability, when known in closed form.
    expected_probabilities: dict[tuple, float] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.steps[0].shape[0]

    @property
    def times(self) -> list[float]:
        return [float(t) for t in range(len(self.steps) + 1)]

    def nbytes(self) -> int:
        arrays = list(self.steps) + [p for fam in self.families for _, p in fam]
        arrays += [a for a in (self.psi, self.rho, self.rho_final) if a is not None]
        return int(sum(a.nbytes for a in arrays))


def haar_family_model(dim: int, n_families: int, n_members: int, rng: np.random.Generator,
                      state_rank: int | None = None, final_rank: int | None = None) -> ModelArrays:
    """Haar step unitaries and families of equal-rank blocks of Haar bases.

    ``state_rank=None`` draws a random pure state; otherwise a mixed state of
    that rank.  ``final_rank`` adds a PSD final operator of that rank.
    """
    steps = [haar_unitary(dim, rng) for _ in range(n_families + 1)]
    families = []
    for _ in range(n_families):
        projectors = block_projectors(haar_unitary(dim, rng), n_members)
        families.append([(f"m{j}", p) for j, p in enumerate(projectors)])
    arrays = ModelArrays(steps, families)
    if state_rank is None:
        arrays.psi = random_pure_state(dim, rng)
    else:
        arrays.rho = random_psd(dim, state_rank, rng)
    if final_rank is not None:
        arrays.rho_final = random_psd(dim, final_rank, rng)
    return arrays


def register_model(n_qubits: int, rng: np.random.Generator) -> ModelArrays:
    """n-qubit register model, strongly decoherent in both directions.

    In the basis given by the columns of one Haar unitary V, every step is a
    diagonal phase and family k asks for the value of qubit k.  All Heisenberg
    projectors are then V Pi V^dagger with Pi diagonal, so each history's chain
    projects onto one column of V and its probability is |(V^dagger psi)_i|^2,
    where bit k of i (most significant first) is the label of family k.
    """
    dim = 2 ** n_qubits
    v = haar_unitary(dim, rng)
    steps = []
    for _ in range(n_qubits + 1):
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=dim))
        steps.append((v * phases) @ v.conj().T)
    bits = (np.arange(dim)[:, None] >> np.arange(n_qubits - 1, -1, -1)[None, :]) & 1
    families = []
    for k in range(n_qubits):
        members = []
        for b in (0, 1):
            cols = v[:, bits[:, k] == b]
            members.append((str(b), cols @ cols.conj().T))
        families.append(members)
    psi = random_pure_state(dim, rng)
    weights = np.abs(v.conj().T @ psi) ** 2
    expected = {tuple(str(b) for b in bits[i]): float(weights[i]) for i in range(dim)}
    return ModelArrays(steps, families, psi=psi, expected_probabilities=expected)


def _pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def write_model_file(arrays: ModelArrays, path) -> None:
    """Write the model as JSON in the format ``decohist --model`` reads.

    Written by the benchmark itself, in the layout of the package's own
    writer (two-space indent, complex numbers as [re, im] pairs).  The text
    is streamed to the file so that the benchmark's own peak memory stays
    below that of the CLI process reading it.
    """
    data = {
        "dim": arrays.dim,
        "initial_state": [[float(z.real), float(z.imag)] for z in arrays.psi],
        "grid": arrays.times,
        "steps": [{"unitary": _pairs(u)} for u in arrays.steps],
        "families": [
            {"time_index": k + 1,
             "projectors": [{"label": label, "matrix": _pairs(p)} for label, p in fam]}
            for k, fam in enumerate(arrays.families)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        for chunk in json.JSONEncoder(indent=2).iterencode(data):
            fh.write(chunk)
        fh.write("\n")
