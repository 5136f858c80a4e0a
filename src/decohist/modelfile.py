"""JSON model files: load, validate with positioned errors, and emit.

Complex numbers serialize as two-element arrays [re, im]; matrices as
row-major nested arrays of those pairs.  Top-level keys:

``dim`` or ``factors``
    Hilbert-space dimension, or the tensor-factor dimensions.
``initial_state``
    A vector (list of pairs), a matrix (list of rows), or ``"pure:<k>"`` for
    the k-th computational basis state.
``conjugation_basis``
    Optional unitary matrix; identity when absent.
``grid``
    Strictly increasing list of times.
``steps``
    One entry per interval: ``{"unitary": M}`` or ``{"generator": H}`` (the
    step becomes exp(-i H dt) for the interval length dt).
``families``
    List of ``{"time_index": k, "projectors": [...]}``; each projector is
    ``{"label": s, "matrix": M}`` or ``{"label": s, "basis_indices": [...]}``.
``rho_final``
    Optional Hermitian PSD matrix for two-state commands.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from . import linalg
from .exceptions import ModelFileError, ModelValidationError
from .model import ProjectorFamily, QuantumModel, StateOperator, TimeGrid

__all__ = ["dump_model", "load_model", "model_from_dict", "model_to_dict"]


def _to_pairs(a) -> list:
    """Complex entries as nested [re, im] pairs."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def _complex_array(value, where: str, ndims=(2,)) -> np.ndarray:
    """Nested [re, im] pairs as a complex vector (ndim 1) or matrix (ndim 2)."""
    expected = "a matrix" if ndims == (2,) else "a vector or a matrix"
    expected += " of [re, im] pairs"
    try:
        a = np.asarray(value)
        if a.dtype.kind == "O" and all(isinstance(x, (int, float)) for x in a.flat):
            a = a.astype(float)  # numbers mixed with integers wider than 64 bits
    except OverflowError:
        raise ModelFileError(f"{where}: number too large for a float") from None
    except ValueError:
        raise ModelFileError(f"{where}: ragged nesting, expected {expected}") from None
    if (a.dtype.kind not in "biuf" or a.ndim - 1 not in ndims or a.shape[-1] != 2
            or 0 in a.shape):
        raise ModelFileError(f"{where}: expected {expected}")
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        index = "".join(f"[{k}]" for k in bad[0])
        raise ModelFileError(f"{where}{index}: non-finite number {float(a[tuple(bad[0])])}")
    # each [re, im] pair read as one complex128, so signed zeros survive
    return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]


def _initial_state(value, dim: int, where: str) -> StateOperator:
    if isinstance(value, str):
        if not value.startswith("pure:"):
            raise ModelFileError(f"{where}: named states must look like 'pure:<index>', got {value!r}")
        try:
            k = int(value.split(":", 1)[1])
        except ValueError:
            raise ModelFileError(f"{where}: bad basis index in {value!r}") from None
        if not 0 <= k < dim:
            raise ModelFileError(f"{where}: basis index {k} outside dimension {dim}")
        psi = np.zeros(dim, dtype=complex)
        psi[k] = 1.0
        return StateOperator.from_vector(psi)
    a = _complex_array(value, where, ndims=(1, 2))
    return StateOperator(a) if a.ndim == 2 else StateOperator.from_vector(a)


def model_from_dict(data: dict) -> tuple[QuantumModel, np.ndarray | None]:
    """Build a model (and the optional final operator) from parsed JSON.

    Every structural problem raises :class:`ModelFileError` carrying the key
    path; invariant violations from the model layer pass through as
    :class:`ModelValidationError`.
    """
    if not isinstance(data, dict):
        raise ModelFileError(f"top level: expected an object, got {type(data).__name__}")
    factors = None
    if "dim" in data and not (_is_int(data["dim"]) and data["dim"] > 0):
        raise ModelFileError("dim: expected a positive integer")
    if "factors" in data:
        if not (isinstance(data["factors"], list) and data["factors"]
                and all(_is_int(d) and d > 0 for d in data["factors"])):
            raise ModelFileError("factors: expected a list of positive integers")
        factors = tuple(data["factors"])
        dim = int(np.prod(factors))
        if "dim" in data and data["dim"] != dim:
            raise ModelFileError(f"dim: {data['dim']} contradicts factors {factors}")
    elif "dim" in data:
        dim = data["dim"]
    else:
        raise ModelFileError("top level: needs 'dim' or 'factors'")
    for key in ("initial_state", "grid", "steps", "families"):
        if key not in data:
            raise ModelFileError(f"top level: missing required key {key!r}")
    times = data["grid"]
    if not (isinstance(times, list) and len(times) >= 2
            and all((_is_int(t) or isinstance(t, float)) and abs(t) <= sys.float_info.max
                    for t in times)):
        raise ModelFileError("grid: expected a list of at least two finite numbers")
    if not isinstance(data["steps"], list) or len(data["steps"]) != len(times) - 1:
        raise ModelFileError(
            f"steps: expected {len(times) - 1} entries for {len(times)} grid times"
        )
    steps = []
    for i, entry in enumerate(data["steps"]):
        where = f"steps[{i}]"
        if not isinstance(entry, dict) or len(entry) != 1:
            raise ModelFileError(f"{where}: expected exactly one of 'unitary' or 'generator'")
        if "unitary" in entry:
            steps.append(_complex_array(entry["unitary"], f"{where}.unitary"))
        elif "generator" in entry:
            h = _complex_array(entry["generator"], f"{where}.generator")
            try:
                steps.append(linalg.exp_generator(h, float(times[i + 1]) - float(times[i])))
            except ValueError as exc:
                raise ModelFileError(f"{where}.generator: {exc}") from None
        else:
            raise ModelFileError(f"{where}: expected 'unitary' or 'generator'")
    grid = TimeGrid(times, steps)
    if not isinstance(data["families"], list):
        raise ModelFileError("families: expected a list")
    families = []
    for i, entry in enumerate(data["families"]):
        where = f"families[{i}]"
        if not isinstance(entry, dict) or "time_index" not in entry or "projectors" not in entry:
            raise ModelFileError(f"{where}: expected 'time_index' and 'projectors'")
        if not _is_int(entry["time_index"]):
            raise ModelFileError(f"{where}.time_index: expected an integer")
        if not isinstance(entry["projectors"], list):
            raise ModelFileError(f"{where}.projectors: expected a list")
        members = []
        for j, proj in enumerate(entry["projectors"]):
            pwhere = f"{where}.projectors[{j}]"
            if not isinstance(proj, dict) or "label" not in proj:
                raise ModelFileError(f"{pwhere}: expected an object with a 'label'")
            label = str(proj["label"])
            if "matrix" in proj:
                members.append((label, _complex_array(proj["matrix"], f"{pwhere}.matrix")))
            elif "basis_indices" in proj:
                idx = proj["basis_indices"]
                if not (isinstance(idx, list) and all(_is_int(k) for k in idx)):
                    raise ModelFileError(f"{pwhere}.basis_indices: expected a list of integers")
                if any(not 0 <= k < dim for k in idx):
                    raise ModelFileError(f"{pwhere}.basis_indices: index outside dimension {dim}")
                p = np.zeros((dim, dim), dtype=complex)
                for k in idx:
                    p[k, k] = 1.0
                members.append((label, p))
            else:
                raise ModelFileError(f"{pwhere}: expected 'matrix' or 'basis_indices'")
        families.append(ProjectorFamily(entry["time_index"], members))
    conj = None
    if "conjugation_basis" in data:
        conj = _complex_array(data["conjugation_basis"], "conjugation_basis")
    state = _initial_state(data["initial_state"], dim, "initial_state")
    model = QuantumModel(state, grid, families, conj, factors)
    rho_final = None
    if "rho_final" in data:
        rho_final = _complex_array(data["rho_final"], "rho_final")
    return model, rho_final


def _is_int(x) -> bool:
    """An integer that is not a JSON boolean (``isinstance(True, int)`` holds)."""
    return isinstance(x, int) and not isinstance(x, bool)


def model_to_dict(model: QuantumModel, rho_final: np.ndarray | None = None) -> dict:
    """Serialize a model to the JSON structure ``model_from_dict`` reads."""
    data: dict = {}
    if model.factors is not None:
        data["factors"] = list(model.factors)
    else:
        data["dim"] = model.dim
    if model.initial_state.vector is not None:
        data["initial_state"] = _to_pairs(model.initial_state.vector)
    else:
        data["initial_state"] = _to_pairs(model.initial_state.rho)
    if linalg.max_abs(model.conjugation_basis - np.eye(model.dim)) > 0:
        data["conjugation_basis"] = _to_pairs(model.conjugation_basis)
    data["grid"] = [float(t) for t in model.grid.times]
    data["steps"] = [{"unitary": _to_pairs(u)} for u in model.grid.step_unitaries]
    data["families"] = [
        {
            "time_index": fam.time_index,
            "projectors": [
                {"label": label, "matrix": _to_pairs(p)}
                for label, p in zip(fam.labels, fam.projectors)
            ],
        }
        for fam in model.families
    ]
    if rho_final is not None:
        data["rho_final"] = _to_pairs(rho_final)
    return data


def _matrices_as_arrays(obj: dict) -> dict:
    """A parsed JSON object with its step and projector matrices as numeric arrays.

    Called as each object closes, so a model file's nested lists are freed
    one matrix at a time; a list that is not a numeric array (ragged, or
    holding other values) stays a list, for :func:`_complex_array` to report.
    """
    for key in ("unitary", "generator", "matrix"):
        if isinstance(obj.get(key), list):
            try:
                a = np.array(obj[key])
            except (ValueError, OverflowError):
                continue
            if a.dtype.kind in "biuf":
                obj[key] = a
    return obj


def load_model(path) -> tuple[QuantumModel, np.ndarray | None]:
    """Read and validate a model file; errors carry file position or key path."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text, object_hook=_matrices_as_arrays)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    try:
        return model_from_dict(data)
    except ModelFileError as exc:
        raise ModelFileError(f"{path}: {exc}") from None
    except ModelValidationError as exc:
        raise ModelValidationError(f"{path}: {exc}") from None


def dump_model(model: QuantumModel, path, rho_final: np.ndarray | None = None) -> None:
    Path(path).write_text(
        json.dumps(model_to_dict(model, rho_final)) + "\n", encoding="utf-8"
    )
