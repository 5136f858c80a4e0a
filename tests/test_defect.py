"""Tolerance-only validation checks decided from a componentwise bound.

``linalg.defect(a, tol)`` returns a bound c max(|Re z|, |Im z|) when it is
at most ``tol`` and the exact ``max_abs(a)`` otherwise.  Hypothesis draws
complex arrays whose largest modulus lies around the tolerance, with that
entry at phase pi/4 (where sqrt(2) is tight) or with a modulus whose
computed value rounds up; transposed, strided, empty and overflowed arrays
take the exact path.  The verdict of ``model._check`` (silent, warning or
error, with its message) must be the one that ``max_abs`` gives.  The
finiteness tests read the float view of contiguous arrays and must keep
their error texts; an input entry beyond ``linalg.LARGEST_ENTRY`` is
rejected before any numpy warning, and ``hermitian_part`` must give the parent formula's
Hermitian part and eigenpairs bit for bit.
"""

from __future__ import annotations

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decohist import linalg
from decohist.cli import main
from decohist.exceptions import ModelValidationError
from decohist.histories import _coerce_final_operator, check_two_state_decoherence
from decohist.modelfile import _to_pairs, dump_model
from decohist.model import ATOL_MODEL, WARN_FACTOR, ProjectorFamily, StateOperator, TimeGrid, _check
from decohist.scenarios import random_model

LAYOUTS = ("contiguous", "transposed", "strided", "empty", "inf", "nan")
PEAKS = ("phase-pi/4", "rounds-up", "random")
ULP = np.finfo(float).eps


def _outcome(defect: float) -> tuple[str, list[str]]:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            _check(defect, "test defect")
            result = "silent"
        except ModelValidationError as exc:
            result = f"error: {exc}"
    return result, [str(w.message) for w in caught]


def _computed_modulus(z: complex) -> float:
    return float(np.abs(np.array([z]))[0])  # numpy's array loop, as max_abs uses it


def _rounding_up(target: float, rng: np.random.Generator) -> complex:
    """An entry of modulus about ``target`` whose computed modulus exceeds the exact one."""
    for _ in range(64):
        x = target * rng.uniform(0.3, 0.9)
        z = complex(x, math.sqrt(max(target * target - x * x, 0.0)))
        if Fraction(_computed_modulus(z)) ** 2 > Fraction(z.real) ** 2 + Fraction(z.imag) ** 2:
            return z
    raise AssertionError("no entry whose modulus rounds up")


def _array(case) -> np.ndarray:
    rows, cols, seed, layout, peak, target, where = case
    rng = np.random.default_rng(seed)
    if layout == "empty":
        return np.zeros((rows, 0) if seed % 2 else (0, cols), dtype=complex)
    if layout in ("inf", "nan"):
        big = np.full((rows, 3), 1e200 + (1e200j if layout == "nan" else 0j))
        with np.errstate(over="ignore", invalid="ignore"):
            return big @ big.T[:, :cols]  # inf + 0j, or (inf - inf) + inf j = nan + inf j
    shape = (cols, rows) if layout == "transposed" else (rows, 2 * cols if layout == "strided" else cols)
    a = (rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)) * (target / 2.0)
    if peak == "phase-pi/4":
        x = target / math.sqrt(2.0)
        z = complex(x, x) * (1j ** (seed % 4))
    elif peak == "rounds-up":
        z = _rounding_up(target, rng)
    else:
        z = target * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    a.flat[where % a.size] = z
    if layout == "transposed":
        return a.T
    if layout == "strided":
        return a[:, ::2]
    return a


targets = st.one_of(
    st.floats(0.5, 2.0).map(lambda f: f * ATOL_MODEL),
    # at the warning and the error thresholds, a few ulps either side
    st.tuples(st.sampled_from((1.0, WARN_FACTOR)), st.integers(-8, 8)).map(
        lambda t: t[0] * ATOL_MODEL * (1.0 + t[1] * ULP)),
)
cases = st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(0, 2 ** 16),
                  st.sampled_from(LAYOUTS), st.sampled_from(PEAKS), targets, st.integers(0, 63))


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(cases)
# |z| just above the tolerance at phase pi/4: max(|Re z|, |Im z|) alone is below it
@example((3, 4, 1, "contiguous", "phase-pi/4", ATOL_MODEL * (1.0 + 2.0 * ULP), 5))
@example((1, 1, 2, "contiguous", "phase-pi/4", ATOL_MODEL * (1.0 + 1e-9), 0))
@example((4, 4, 3, "contiguous", "rounds-up", ATOL_MODEL * (1.0 + ULP), 7))
@example((2, 5, 4, "strided", "phase-pi/4", ATOL_MODEL * 1.01, 3))
@example((5, 2, 6, "transposed", "phase-pi/4", ATOL_MODEL * 1.01, 3))
@example((2, 3, 7, "inf", "random", ATOL_MODEL, 0))
@example((2, 3, 8, "nan", "random", ATOL_MODEL, 0))
@example((2, 3, 9, "empty", "random", ATOL_MODEL, 0))
def test_defect_decides_as_max_abs(case):
    a = _array(case)
    exact = linalg.max_abs(a)
    got = linalg.defect(a, ATOL_MODEL)
    assert _outcome(got) == _outcome(exact)
    assert (got <= ATOL_MODEL) == (exact <= ATOL_MODEL)
    if got <= ATOL_MODEL:
        assert got >= exact  # the bound dominates the computed modulus
    else:
        assert np.array_equal(got, exact, equal_nan=True)  # the exact value is reported


def test_defect_of_exact_zeros_and_subnormals():
    assert linalg.defect(np.zeros((3, 3), dtype=complex), 1e-12) == 0.0
    tiny = np.full((2, 2), complex(5e-324, 5e-324))
    assert linalg.defect(tiny, 1e-12) == linalg.max_abs(tiny)  # subnormal: the exact path
    assert linalg.defect(np.array([[1e-13 + 1e-13j]]), 1e-12) >= abs(1e-13 + 1e-13j)


@pytest.mark.parametrize("build, message", [
    (lambda: StateOperator(np.array([[0.5, complex(0.0, np.nan)], [0.0, 0.5]])),
     "state operator contains non-finite entries"),
    (lambda: ProjectorFamily(1, [("a", np.array([[np.inf, 0.0], [0.0, 0.0]])), ("b", np.eye(2))]),
     "projector 'a' contains non-finite entries"),
    (lambda: TimeGrid([0.0, 1.0], [np.asfortranarray(np.diag([1.0, np.nan, 1.0]) + 0j)]),
     "step unitary 0 contains non-finite entries"),
    (lambda: linalg.as_vector([1.0, complex(0.0, np.inf)], "psi"), "psi contains non-finite entries"),
], ids=["nan-imaginary-state", "inf-real-projector", "fortran-step", "inf-imaginary-vector"])
def test_finiteness_errors_keep_their_text(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


HUGE = 1e308
_HUGE_FAMILY = [[[1, HUGE], [HUGE, 0]], [[0, -HUGE], [-HUGE, 1]]]
_HUGE_DIAGONAL_FAMILY = [np.diag([HUGE, 0.0]), np.diag([1.0 - HUGE, 1.0])]


def _family(members):
    return ProjectorFamily(1, [(f"m{j}", p) for j, p in enumerate(members)])


# (build, model-file key and value or None, CLI command): each is rejected or accepted, never warned about
@pytest.mark.parametrize("build, key, value, command", [
    (lambda: StateOperator([[1, HUGE], [HUGE, 0]]), "initial_state", [[1, HUGE], [HUGE, 0]], "check"),
    (lambda: StateOperator(np.diag([HUGE, 1.0 - HUGE])), "initial_state", np.diag([HUGE, 1.0 - HUGE]),
     "check"),
    (lambda: TimeGrid([0.0, 1.0], [[[HUGE, 0], [0, 1]]]), "steps", [[[HUGE, 0], [0, 1]]] * 2, "check"),
    (lambda: StateOperator.from_vector([HUGE, HUGE]), "initial_state", [HUGE, HUGE], "check"),
    (lambda: _family(_HUGE_FAMILY), "families", _HUGE_FAMILY, "check"),
    (lambda: _family(_HUGE_DIAGONAL_FAMILY), "families", _HUGE_DIAGONAL_FAMILY, "check"),
    (lambda: ProjectorFamily.from_basis(1, [[HUGE, 0], [0, 1]], {"a": [0], "b": [1]}), None, None, None),
    (lambda: _coerce_final_operator(HUGE * np.eye(2), 2), "rho_final", HUGE * np.eye(2), "page"),
    (lambda: _coerce_final_operator(np.array([[1, HUGE], [HUGE, 1]]), 2), "rho_final",
     [[1, HUGE], [HUGE, 1]], "page"),
    (lambda: _coerce_final_operator(1e100 * np.eye(2), 2), None, None, None),
    (lambda: StateOperator([[1, 1e100], [1e100, 0]]), "initial_state", [[1, 1e100], [1e100, 0]], "check"),
], ids=["state", "state-diagonal", "step", "vector", "family", "family-diagonal", "basis",
        "final-identity", "final-indefinite", "final-at-bound", "state-at-bound"])
def test_huge_entries_raise_no_numpy_warning(build, key, value, command, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            build()
        except ModelValidationError:
            pass
        if key is None:
            return
        dump_model(random_model(1, 2, 1, 2), tmp_path / "model.json")
        data = json.loads((tmp_path / "model.json").read_text())
        if key == "steps":
            data[key] = [{"unitary": _to_pairs(u)} for u in value]
        elif key == "families":
            data[key][0]["projectors"] = [{"label": f"m{j}", "matrix": _to_pairs(p)}
                                          for j, p in enumerate(value)]
        else:
            data[key] = _to_pairs(value)
        (tmp_path / "model.json").write_text(json.dumps(data))
        code = main([command, *(["--forwards"] if command == "check" else []),
                     "--model", str(tmp_path / "model.json")])
    err = capsys.readouterr().err
    assert code == 65 and len(err.splitlines()) == 1 and err.startswith("invariant violation: "), err


def test_indefinite_operators_near_the_float_maximum_are_rejected():
    """Eigenvalues +-1e308, whose Hermitian part overflows: rejected before any factor or eigh."""
    with pytest.raises(ModelValidationError, match=r"^state operator contains a real or imaginary part beyond 1e\+100$"):
        StateOperator([[1, HUGE], [HUGE, 0]])
    model = random_model(3, 2, 1, 2)
    with pytest.raises(ModelValidationError, match=r"^final operator contains a real or imaginary part beyond 1e\+100$"):
        check_two_state_decoherence(model.initial_state, [[1, HUGE], [HUGE, 1]], model)


def test_transposed_final_operator_view_is_read_as_it_lies():
    model = random_model(3, 4, 2, 2, pure=False)
    rho_f = np.eye(4, dtype=complex)
    rho_f[1, 2] = complex(np.nan, 0.0)
    with pytest.raises(ValueError, match="^final operator contains non-finite entries$"):
        check_two_state_decoherence(model.initial_state, rho_f.T, model)
    fine = np.asfortranarray(np.diag([1.0, 2.0, 0.5, 0.0]).astype(complex))
    assert check_two_state_decoherence(model.initial_state, fine, model).normalization > 0.0


def _parent_hermitian_part(m: np.ndarray) -> tuple[np.ndarray, float]:
    return (m + m.conj().T) / 2.0, linalg.max_abs(m - m.conj().T)


@pytest.mark.parametrize("dim", [1, 2, 7, 64, 129, 300])
@pytest.mark.parametrize("skew", [0.0, 1e-15, 3e-13, 2e-12, 1e-6])
def test_hermitian_part_matches_the_parent_formula(dim, skew):
    rng = np.random.default_rng(dim)
    z, e = rng.standard_normal((2, dim, dim)) + 1j * rng.standard_normal((2, dim, dim))
    m = (z + z.conj().T) / 2.0 + skew * e
    h, got = linalg.hermitian_part(m, linalg.ATOL_HERMITIAN)
    ref_h, exact = _parent_hermitian_part(m)
    assert h.tobytes() == ref_h.tobytes()
    assert h.flags.c_contiguous
    assert (got <= linalg.ATOL_HERMITIAN) == (exact <= linalg.ATOL_HERMITIAN)
    assert got == exact if got > linalg.ATOL_HERMITIAN else got >= exact
    if exact > linalg.ATOL_HERMITIAN:
        message = rf"^matrix is not Hermitian \(max \|A - A\^dagger\| = {exact:.3e}\)$"
        with pytest.raises(ValueError, match=message):
            linalg.herm_eig(m)
        return
    w, v = linalg.herm_eig(m)
    ref_w, ref_v = np.linalg.eigh(ref_h)
    linalg._fix_eigenvector_phases(ref_v)
    assert w.tobytes() == ref_w.tobytes()
    assert v.tobytes() == ref_v.tobytes()
