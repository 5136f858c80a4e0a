import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare_cli
from compare_cli import label, largest_difference, read_commands
from decohist import cli, histories, scenarios
from decohist.cli import build_parser, main
from decohist.modelfile import dump_model, load_model, model_from_dict, model_to_dict
from decohist.exceptions import ModelFileError
from decohist.histories import RATIO_TIE, TolerancePolicy, check_decoherence
from decohist.model import ATOL_MODEL, QuantumModel, StateOperator, TimeGrid
from decohist.scenarios import (
    _random_family,
    haar_unitary,
    random_model,
    spin_model,
    spin_post_selection,
    spin_recoherence_base,
)

FULL_SQRT_HALF = repr(float(1.0 / np.sqrt(2.0)))
SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args):
    """A fresh interpreter that imports decohist from this checkout's ``src``."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


# ------------------------------------------------ check


def test_check_forwards_spin(capsys):
    code, report = run_cli(capsys, "check", "--forwards", "--scenario", "spin", "a=0.6")
    assert code == 0
    res = report["result"]
    assert res["classification"] == "decoherent"
    probs = {tuple(e["history"]): e["probability"] for e in res["probabilities"]}
    assert probs[("x+", "z+")] == pytest.approx(0.18, abs=1e-10)
    assert probs[("x+", "z-")] == pytest.approx(0.18, abs=1e-10)
    assert probs[("x-", "z+")] == pytest.approx(0.32, abs=1e-10)
    assert probs[("x-", "z-")] == pytest.approx(0.32, abs=1e-10)


def test_check_backwards_spin_fails(capsys):
    code, report = run_cli(capsys, "check", "--backwards", "--scenario", "spin", "a=0.6")
    assert code == 1
    assert report["result"]["classification"] == "not_decoherent"
    worst = report["result"]["pair_table"][0]
    assert abs(abs(worst["re"]) - 0.07) <= 1e-10


def test_check_both_balanced_spin(capsys):
    code, report = run_cli(
        capsys, "check", "--both", "--scenario", "spin", f"a={FULL_SQRT_HALF}"
    )
    assert code == 0
    res = report["result"]
    assert res["applicable"] and res["passed"]
    for entry in res["forwards"]["probabilities"]:
        assert entry["probability"] == pytest.approx(0.25, abs=1e-10)


def test_check_pair_table_worst_first(capsys):
    _, report = run_cli(capsys, "check", "--backwards", "--scenario", "spin", "a=0.6")
    rep = check_decoherence(spin_model(0.6), "backwards")
    at_floor = {(p.left, p.right) for p, tied in zip(rep.pairs, rep._arrays.at_floor) if tied}
    rows = [(row["ratio"], (tuple(row["left"]), tuple(row["right"])))
            for row in report["result"]["pair_table"]]
    ranked = [row for row in rows if row[1] not in at_floor]
    assert len(ranked) == 2 and ranked[-1][0] > 1.0
    # ratios descend among rows that are not tied; tied rows follow their labels
    for (r, labels), (r_next, labels_next) in zip(ranked, ranked[1:]):
        assert r >= r_next or (r_next - r <= RATIO_TIE * r_next and labels < labels_next)
    floor_rows = [labels for _, labels in rows[len(ranked):]]  # rounding-level measures, ratio 0
    assert set(floor_rows) == at_floor and floor_rows == sorted(floor_rows)


def test_tolerance_flags_override(capsys):
    # a huge absolute floor turns the backwards failure into a pass
    code, report = run_cli(capsys, "check", "--backwards", "--scenario", "spin",
                           "a=0.6", "--tol-abs", "0.5")
    assert code == 0
    assert report["tolerances"]["abs"] == 0.5


# ------------------------------------------------ other commands


def test_probs_reports_both_directions(capsys):
    code, report = run_cli(capsys, "probs", "--scenario", "spin", "a=0.6")
    assert code == 0
    res = report["result"]
    fwd = {tuple(e["history"]): e["probability"] for e in res["forwards"]["candidate_table"]}
    bwd = {tuple(e["history"]): e["probability"] for e in res["backwards"]["candidate_table"]}
    assert fwd[("x-", "z-")] == pytest.approx(0.32, abs=1e-10)
    assert all(v == pytest.approx(0.25, abs=1e-10) for v in bwd.values())
    assert res["backwards"]["classification"] == "not_decoherent"


def test_abl_scenario_table(capsys):
    code, report = run_cli(capsys, "abl", "--scenario", "spin-post")
    assert code == 0
    table = {tuple(e["history"]): e["probability"] for e in report["result"]["table"]}
    assert table[("z+",)] == pytest.approx(1.0, abs=1e-10)
    assert report["result"]["sum"] == pytest.approx(1.0, abs=1e-9)


def test_records_command(capsys):
    code, report = run_cli(capsys, "records", "--scenario", "spin", "a=0.6")
    assert code == 0
    res = report["result"]
    assert res["extension_classification"] == "decoherent"
    corr = np.array(res["correlation"])
    assert np.allclose(corr, np.diag(np.diag(corr)), atol=1e-9)
    probs = sorted(e["probability"] for e in res["probabilities"])
    assert probs == pytest.approx([0.18, 0.18, 0.32, 0.32], abs=1e-10)


def test_records_refused_without_strong_decoherence(capsys):
    # bare qubit with interfering families via a model file
    code, report = run_cli(capsys, "records", "--scenario", "random", "dim=4", "n=2")
    assert code == 1
    assert report["result"]["records"] is None


@pytest.mark.parametrize("tf", ["99", "-1", "1"])
def test_records_tf_out_of_range_exit_64_names_the_range(capsys, tf):
    # the spin grid has indices 0..3 and its last family sits at index 2
    code = main(["records", "--scenario", "spin", "--tf", tf])
    assert code == 64
    assert f"--tf {tf} is outside the allowed range [2, 3]" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [("--tol-abs", "inf"), ("--tol-abs", "nan"),
                                           ("--tol-rel", "-1"), ("--tol-rel", "inf"),
                                           ("--tol-abs", "-1e-12")])
def test_non_finite_or_negative_tolerance_exit_64(capsys, option, value):
    code = main(["check", "--backwards", f"{option}={value}", "--scenario", "spin"])
    out, err = capsys.readouterr()
    assert code == 64
    assert out == ""
    assert "must be finite and non-negative" in err


def test_unexpected_memory_error_exit_70_names_its_type(capsys, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError()

    monkeypatch.setitem(cli._DISPATCH, "check", out_of_memory)
    code = main(["check", "--forwards", "--scenario", "spin"])
    out, err = capsys.readouterr()
    assert code == 70
    assert out == ""
    assert err == "unexpected error: MemoryError()\n"


def test_abl_impossible_selection_exit_65(tmp_path, capsys):
    # |z+> before and |z-> after: every history has amplitude zero
    data = model_to_dict(spin_post_selection()[0], np.diag([0.0, 1.0]))
    data["initial_state"] = "pure:0"
    path = tmp_path / "impossible.json"
    path.write_text(json.dumps(data))
    code = main(["abl", "--model", str(path)])
    assert code == 65
    assert "invariant violation: pre/post-selection pair is impossible" in capsys.readouterr().err


@pytest.mark.parametrize("dim", [4, 16, 64])
def test_large_trace_rank_one_rho_final(tmp_path, capsys, dim):
    # eigh leaves the null eigenvalues of 1e6 v v^dagger near d u 1e6, above 1e-10
    model = random_model(1, dim, 2)
    u = haar_unitary(dim, np.random.default_rng(dim))
    tables = []
    for rho_final in (np.outer(u[:, 0], u[:, 0].conj()), 1e6 * np.outer(u[:, 0], u[:, 0].conj())):
        path = tmp_path / "post.json"
        path.write_text(json.dumps(model_to_dict(model, rho_final)))
        code, report = run_cli(capsys, "abl", "--model", str(path))
        assert code == 0
        tables.append({tuple(e["history"]): e["probability"] for e in report["result"]["table"]})
        assert main(["reverse", "--model", str(path)]) == 0
        capsys.readouterr()
    assert tables[0].keys() == tables[1].keys()
    assert max(abs(tables[0][h] - tables[1][h]) for h in tables[0]) <= 1e-12
    # rank two at the same scale is still refused
    path.write_text(json.dumps(model_to_dict(model, 1e6 * u[:, :2] @ u[:, :2].conj().T)))
    assert main(["abl", "--model", str(path)]) == 65
    assert "abl needs rho_final of rank one" in capsys.readouterr().err


def test_abl_and_reverse_read_the_final_vector_from_its_factor(tmp_path, capsys, monkeypatch):
    """A certified rank-one rho_final gives its vector with no eigh of a d x d operator.

    Only the 1 x 1 Gram of its one column is diagonalised; the identity, which has no
    factor, and the zero operator, whose factor has no column, are refused with none.
    """
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: shapes.append(h.shape) or eigh(h))
    model = spin_model(0.6)
    phi = haar_unitary(model.dim, np.random.default_rng(3))[:, 0]
    path = tmp_path / "post.json"
    path.write_text(json.dumps(model_to_dict(model, np.outer(phi, phi.conj()))))
    code, report = run_cli(capsys, "abl", "--model", str(path))
    assert code == 0
    table = {tuple(e["history"]): e["probability"] for e in report["result"]["table"]}
    expected = scenarios.abl_table(model.initial_state.vector, phi, model)
    assert max(abs(table[h] - expected[h]) for h in expected) <= 1e-12
    code, report = run_cli(capsys, "reverse", "--model", str(path))
    assert code == 0
    probabilities = {tuple(t["history"]): t["probability"] for t in report["result"]["trajectories"]}
    oracle = {t.labels: t.probability for t in scenarios.reverse_collapse_chain(model, phi)}
    assert max(abs(probabilities[h] - oracle[h]) for h in oracle) <= 1e-12
    assert model.dim == 18 and set(shapes) == {(1, 1)}
    for rho_final in (np.eye(model.dim), np.zeros((model.dim, model.dim))):
        path.write_text(json.dumps(model_to_dict(model, rho_final)))
        for command in ("abl", "reverse"):
            assert main([command, "--model", str(path)]) == 65
            assert f"{command} needs rho_final of rank one" in capsys.readouterr().err
    assert set(shapes) == {(1, 1)}


def test_reverse_command(capsys):
    code, report = run_cli(capsys, "reverse", "--scenario", "spin", "a=0.6")
    assert code == 0
    rows = {tuple(r["history"]): r for r in report["result"]["trajectories"]}
    assert sum(r["probability"] for r in rows.values()) == pytest.approx(1.0, abs=1e-9)


def test_recohere_command(capsys):
    code, report = run_cli(capsys, "recohere", "--scenario", "spin-symmetric")
    assert code == 0
    res = report["result"]
    curve = dict((t, p) for t, p in res["purity_curve"])
    assert curve[0.0] == pytest.approx(0.5, abs=1e-9)
    assert curve[2.0] == pytest.approx(1.0, abs=1e-9)
    assert res["recoherence_witness"] is True
    assert res["equivalence_holds"] is True
    assert res["reversed_set_backwards"] == "decoherent"


def _count_analyses(monkeypatch) -> list:
    """Record the tolerance of every recoherence analysis the CLI runs."""
    calls, analyse = [], scenarios.recoherence_scenario

    def counted(*args, **kwargs):
        calls.append(kwargs.get("tolerance"))
        return analyse(*args, **kwargs)

    monkeypatch.setattr(scenarios, "recoherence_scenario", counted)
    return calls


@pytest.mark.parametrize("name, alpha", [("spin-symmetric", 1.0 / np.sqrt(2.0)),
                                         ("recoherence", 0.6)])
def test_recohere_tolerances_reach_mirror_scenarios(capsys, monkeypatch, name, alpha):
    calls = _count_analyses(monkeypatch)
    code, report = run_cli(capsys, "recohere", "--tol-rel", "1", "--tol-abs", "1",
                           "--scenario", name)
    tol = TolerancePolicy(rel=1.0, abs=1.0)
    assert calls == [tol]
    api = scenarios.recoherence_scenario(spin_recoherence_base(alpha), tolerance=tol)
    res = report["result"]
    assert res["first_half_classification"] == api.first_half_forwards.classification
    assert res["reversed_set_backwards"] == api.reversed_backwards.classification
    assert res["original_set_backwards"] == api.original_backwards.classification
    assert res["recoherence_witness"] == api.recoherence_witness
    assert res["equivalence_holds"] == api.equivalence_holds
    assert code == (0 if api.recoherence_witness else 1)


def _mirror_base(factors=(2, 2), seed=0, dim=4, n=2, half=3):
    """A recoherence base drawn as the property tests' ``mirror_bases`` draws one, with B = 1.

    Haar steps on a grid ending at 0, ``n`` random families before 0, and the
    state at 0 the real part of a random density matrix, pulled back to the start.
    """
    rng = np.random.default_rng(seed)
    grid = TimeGrid(np.arange(-half, 1, dtype=float), [haar_unitary(dim, rng) for _ in range(half)])
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x = x @ x.conj().T
    rho_c = x + x.conj()
    w = grid.cumulative(half)
    rho_0 = w.conj().T @ (rho_c / np.trace(rho_c).real) @ w
    times = sorted(rng.choice(np.arange(1, half), size=n, replace=False).tolist())
    families = [_random_family(dim, t, rng) for t in times]
    return QuantumModel(StateOperator(rho_0), grid, families, factors=factors)


@pytest.mark.parametrize("factors, witness, code", [((2, 2), True, 0), (None, None, 1)],
                         ids=["factored", "no-factors"])
def test_recohere_exits_on_its_witness(tmp_path, capsys, factors, witness, code):
    # the first half does not decohere forwards, so neither does the reversed
    # set backwards; the purity comes back all the same
    path = tmp_path / "base.json"
    dump_model(_mirror_base(factors), path)
    got, report = run_cli(capsys, "recohere", "--model", str(path))
    res = report["result"]
    assert res["first_half_classification"] == "not_decoherent"
    assert res["reversed_set_backwards"] == "not_decoherent"
    assert res["recoherence_witness"] is witness
    assert res["equivalence_holds"] is (None if witness is None else False)
    assert got == code


@pytest.mark.parametrize("argv", [
    ["check", "--scenario", "spin-symmetric"],
    ["check", "--both", "--scenario", "recoherence"],
    ["page", "--scenario", "spin-symmetric"],
    ["probs", "--scenario", "recoherence"],
    ["scenario", "emit", "spin-symmetric"],
])
def test_mirror_scenarios_run_no_analysis_outside_recohere(capsys, monkeypatch, argv):
    calls = _count_analyses(monkeypatch)
    code, report = run_cli(capsys, *argv)
    assert code in (0, 1) and report is not None
    assert calls == []


def test_page_command(capsys):
    code, report = run_cli(capsys, "page", "--scenario", "spin-symmetric")
    assert code == 0
    res = report["result"]
    assert all(entry["ok"] for entry in res["preconditions"].values())
    assert res["passed"] is True
    assert res["max_table_difference"] <= 1e-9


def test_scenario_list(capsys):
    code, report = run_cli(capsys, "scenario", "list")
    assert code == 0
    assert set(report["scenarios"]) >= {"spin", "spin-post", "spin-symmetric",
                                        "recoherence", "random"}


# ------------------------------------------------ model files


def test_model_file_round_trip_identical_reports(tmp_path, capsys):
    model = spin_model(0.6)
    path = tmp_path / "spin.json"
    dump_model(model, path)
    code_a, rep_a = run_cli(capsys, "check", "--forwards", "--model", str(path))
    code_b, rep_b = run_cli(capsys, "check", "--forwards", "--scenario", "spin", "a=0.6")
    assert code_a == code_b == 0
    for rep in (rep_a, rep_b):
        rep.pop("timing_s")
        rep.pop("input")
    assert json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)


def test_model_round_trip_through_dict():
    model = spin_model(0.3 + 0.4j, 0.5 + np.sqrt(0.5) * 1j)
    data = model_to_dict(model)
    rebuilt, _ = model_from_dict(json.loads(json.dumps(data)))
    assert rebuilt.dim == model.dim
    assert rebuilt.history_labels() == model.history_labels()
    from decohist.linalg import max_abs

    assert max_abs(rebuilt.initial_state.rho - model.initial_state.rho) <= 1e-12
    for fa, fb in zip(model.families, rebuilt.families):
        for pa, pb in zip(fa.projectors, fb.projectors):
            assert max_abs(pa - pb) <= 1e-12


def test_dump_and_load_return_identical_arrays(tmp_path):
    model = random_model(seed=2, dim=3, pure=False)
    basis = np.array([[0, 1j, 0], [1j, 0, 0], [0, 0, -1]])
    model = QuantumModel(model.initial_state, model.grid, model.families, basis)
    rho_final = np.diag([0.5, 0.25, 0.25]).astype(complex)
    path = tmp_path / "mixed.json"
    dump_model(model, path, rho_final)
    loaded, loaded_final = load_model(path)
    assert np.array_equal(loaded.initial_state.rho, model.initial_state.rho)
    assert np.array_equal(loaded.conjugation_basis, basis)
    assert np.array_equal(loaded_final, rho_final)
    for ua, ub in zip(loaded.grid.step_unitaries, model.grid.step_unitaries):
        assert np.array_equal(ua, ub)
    # a loaded family keeps the factors of the dumped members, which it reads back to the tolerance
    for fa, fb in zip(loaded.families, model.families):
        assert all(np.abs(pa - pb).max() <= ATOL_MODEL for pa, pb in zip(fa.projectors, fb.projectors))


@pytest.mark.parametrize("index, value, where", [
    ((1, 1, 0), float("nan"), "steps[0].unitary[1][1][0]: non-finite number nan"),
    ((1, 1, 0), 10 ** 400, "steps[0].unitary: number too large for a float"),
    ((1, 1, 0), "1.0", "steps[0].unitary: expected a matrix"),
    ((1,), [[1.0, 0.0]], "steps[0].unitary: ragged"),
    ((1, 1), [1.0], "steps[0].unitary: ragged"),
], ids=["nan", "oversized", "string", "ragged-row", "re-singleton"])
def test_bad_matrix_entry_exit_64_names_key_path(tmp_path, capsys, index, value, where):
    data = model_to_dict(spin_post_selection()[0])
    target = data["steps"][0]["unitary"]
    for k in index[:-1]:
        target = target[k]
    target[index[-1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main(["check", "--model", str(path)])
    assert code == 64
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("index, value, where", [
    ((1,), [[1.0, 0.0]], "families[0].projectors[1].matrix: ragged"),
    ((1, 1), "1.0", "families[0].projectors[1].matrix: ragged"),
    ((1, 1, 0), None, "families[0].projectors[1].matrix: expected a matrix"),
    ((1, 1, 1), 10 ** 400, "families[0].projectors[1].matrix: number too large for a float"),
    ((0, 1, 0), float("inf"), "families[0].projectors[1].matrix[0][1][0]: non-finite number inf"),
], ids=["ragged-row", "string-pair", "null", "oversized", "inf"])
def test_bad_projector_matrix_exit_64_names_key_path(tmp_path, capsys, index, value, where):
    # matrices become arrays as the file is parsed; one that cannot must still be reported
    data = model_to_dict(spin_model(0.6))
    target = data["families"][0]["projectors"][1]["matrix"]
    for k in index[:-1]:
        target = target[k]
    target[index[-1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["check", "--model", str(path)]) == 64
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("time", [float("inf"), float("nan"), 10 ** 400],
                         ids=["inf", "nan", "oversized"])
def test_non_finite_grid_time_exit_64(tmp_path, capsys, time):
    data = model_to_dict(spin_model(0.6))
    data["grid"][-1] = time
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(data))
    assert main(["check", "--model", str(path)]) == 64
    assert "grid: expected a list of at least two finite numbers" in capsys.readouterr().err


def _dim_true(data):
    del data["factors"]
    data["dim"] = True


def _basis_indices_false(data):
    data["families"][0]["projectors"] = [{"label": "z+", "basis_indices": [False]},
                                         {"label": "z-", "basis_indices": [1]}]


@pytest.mark.parametrize("edit, where", [
    (_dim_true, "dim: expected a positive integer"),
    (lambda data: data.update(factors=[True, 2]), "factors: expected a list of positive integers"),
    (lambda data: data.update(grid=[False, True, 2.0]), "grid: expected a list"),
    (lambda data: data["families"][0].update(time_index=True),
     "families[0].time_index: expected an integer"),
    (_basis_indices_false, "families[0].projectors[0].basis_indices: expected a list of integers"),
], ids=["dim", "factors", "grid", "time_index", "basis_indices"])
def test_json_boolean_exit_64_names_key_path(tmp_path, capsys, edit, where):
    # isinstance(True, int) holds, so each would otherwise load as 0 or 1
    data = model_to_dict(spin_post_selection()[0])
    edit(data)
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    assert main(["check", "--model", str(path)]) == 64
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("key, value, where", [
    ("projectors", 2, "families[0].projectors: expected a list"),
    ("projectors", None, "families[0].projectors: expected a list"),
    ("projectors", "z+", "families[0].projectors: expected a list"),  # not read by character
    ("projectors", {"label": "z+"}, "families[0].projectors: expected a list"),  # nor by key
    ("factors", [], "factors: expected a list of positive integers"),
], ids=["projectors-number", "projectors-null", "projectors-string", "projectors-object",
        "factors-empty"])
def test_model_file_shape_error_exit_64_names_key_path(tmp_path, capsys, key, value, where):
    data = model_to_dict(spin_post_selection()[0])
    (data["families"][0] if key == "projectors" else data)[key] = value
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(data))
    assert main(["check", "--model", str(path)]) == 64
    assert where in capsys.readouterr().err


def test_scenario_emit_and_reload(tmp_path, capsys):
    path = tmp_path / "emitted.json"
    code, _ = run_cli(capsys, "scenario", "emit", "spin", "a=0.6", "--out", str(path))
    assert code == 0
    model, rho_final = load_model(path)
    assert model.dim == 18
    assert rho_final is None


ROUND_TRIP_SCENARIOS = [["spin", "a=0.6"], ["spin-post"], ["spin-symmetric"], ["recoherence"],
                        ["random", "seed=3", "dim=6"], ["random", "seed=2", "dim=6", "pure=0"]]
ROUND_TRIP_FORMS = [["check", "--forwards"], ["check", "--backwards"], ["check", "--both"],
                    ["probs"], ["abl"], ["records"], ["reverse"], ["recohere"], ["page"]]


@pytest.mark.parametrize("form", ROUND_TRIP_FORMS, ids=" ".join)
@pytest.mark.parametrize("scenario", ROUND_TRIP_SCENARIOS, ids=" ".join)
def test_scenario_runs_as_its_emitted_model_file(tmp_path, capsys, scenario, form):
    path = tmp_path / "emitted.json"
    assert run_cli(capsys, "scenario", "emit", *scenario, "--out", str(path))[0] == 0
    outcomes = []
    for source in (["--scenario", *scenario], ["--model", str(path)]):
        code, report = run_cli(capsys, *form, *source)
        outcomes.append((code, None) if report is None else (code, report["result"]))
        assert report is None or report["exit_code"] == code
    assert outcomes[0] == outcomes[1]


def test_command_list_parses():
    # a malformed line would exit 2 on every tree and so compare as identical
    commands = read_commands(Path(__file__).resolve().parent / "cli_commands.txt")
    assert commands
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"cli_commands.txt line does not parse: {' '.join(argv)}")


def test_compare_cli_labels_row_moves_and_float_changes():
    rows = [{"left": ["a"], "ratio": 1.0}, {"left": ["b"], "ratio": 1.0}]
    base = (0, "", json.dumps({"table": rows}, indent=2), None)
    moved = (0, "", json.dumps({"table": rows[::-1]}, indent=2), None)
    nudged = (0, "", json.dumps({"table": [dict(rows[0], ratio=1.0000000000000002), rows[1]]}), None)
    written = (0, "", "", json.dumps({"table": rows[::-1]}))
    assert label(base, moved) == "row order only"
    assert label(base, nudged) == "float values only"
    assert label((0, "", "", json.dumps({"table": rows})), written) == "row order only"
    assert label(moved, nudged) == "row order and float values"  # both at once
    assert label(base, (0, "", json.dumps({"table": rows[:1]}), None)) == "other"
    assert label(base, (1, *base[1:])) == "other"
    assert label(base, (0, "warning", *base[2:])) == "other"


def test_compare_cli_prints_the_largest_float_difference():
    rows = [{"left": ["a"], "re": 0.5, "ratio": 1.0}, {"left": ["b"], "re": -0.25, "ratio": 2.0}]
    old = (0, "", json.dumps({"table": rows, "probabilities": [0.5, 0.5], "n": 2}), None)
    # rows moved and nudged: matched by the sort of "row order only", not by position
    new = (0, "", json.dumps({"table": [dict(rows[1], re=-0.25 + 3e-16), dict(rows[0], ratio=1.0 + 1e-15)],
                              "probabilities": [0.5, 0.5 - 2e-16], "n": 2}), None)
    # row "a"'s ratio moved most, but ratios are left out: row "b"'s re is the largest
    assert largest_difference(old, new) == ((-0.25 + 3e-16) - -0.25, "stdout.table[].re")
    assert largest_difference(old, old)[0] == 0.0
    written = (0, "", "", json.dumps({"p": [0.25, float("nan")]}))
    assert largest_difference(written, (0, "", "", json.dumps({"p": [0.5, float("nan")]}))) == (0.25, "out.p[]")
    # no float-for-float match: another shape, another int, text that is not JSON
    assert largest_difference(old, (0, "", json.dumps({"table": rows[:1]}), None)) is None
    assert largest_difference(old, (0, "", old[2].replace('"n": 2', '"n": 3'), None)) is None
    assert largest_difference(old, (0, "", old[2].replace('"ratio": 2.0', '"ratio": null'), None)) is None
    assert largest_difference((0, "", "usage", None), (0, "", "usage:", None)) is None


def test_compare_cli_runs_each_tree_at_its_thread_count(tmp_path, monkeypatch, capsys):
    """``--threads OLD,NEW`` sets the BLAS threads of each tree's runs; outputs are compared as ever."""
    seen = []

    def fake_run(argv, cwd, env, **kwargs):
        seen.append((env["OPENBLAS_NUM_THREADS"], env["OMP_NUM_THREADS"], env["MKL_NUM_THREADS"]))
        out = json.dumps({"p": 0.5 + 1e-16 * (env["OPENBLAS_NUM_THREADS"] == "2"), "timing_s": 1.0})
        return subprocess.CompletedProcess(argv, 0, out, "")

    monkeypatch.setattr(compare_cli.subprocess, "run", fake_run)
    monkeypatch.setattr(compare_cli, "write_fixtures", lambda tree, where: None)
    commands = tmp_path / "commands.txt"
    commands.write_text("check --scenario spin\n")
    argv = [str(SRC.parent), str(SRC.parent), "--commands", str(commands), "--workdir", str(tmp_path)]
    assert compare_cli.main(argv) == 0 and seen == [("1",) * 3] * 2
    seen.clear()
    assert compare_cli.main([*argv, "--threads", "1,2"]) == 1 and seen == [("1",) * 3, ("2",) * 3]
    out = capsys.readouterr().out
    assert "DIFFERS [float values only] (stdout; largest float difference 1.11e-16 at stdout.p)" in out
    assert "1 commands, 0 identical, 1 differing (1 float values only)" in out
    for bad in ("2", "1,0", "1,x"):
        with pytest.raises(SystemExit):
            compare_cli.main([*argv, "--threads", bad])


def test_parse_error_exit_64(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code = main(["check", "--forwards", "--model", str(bad)])
    err = capsys.readouterr().err
    assert code == 64
    assert "line 1" in err


def test_schema_error_exit_64(tmp_path, capsys):
    bad = tmp_path / "schema.json"
    bad.write_text(json.dumps({"dim": 2, "initial_state": "pure:0", "grid": [0.0, 1.0]}))
    code = main(["check", "--forwards", "--model", str(bad)])
    assert code == 64
    assert "steps" in capsys.readouterr().err


def test_non_involutive_conjugation_basis_exit_65(tmp_path, capsys):
    data = model_to_dict(spin_model(0.6))
    # a unitary permutation that is not symmetric: B B^* is a 3-cycle, not +-1
    basis = np.kron(np.eye(6), np.roll(np.eye(3), 1, axis=0))
    data["conjugation_basis"] = [[[float(z), 0.0] for z in row] for row in basis]
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(data))
    code = main(["check", "--model", str(path)])
    assert code == 65
    assert "conjugation basis symmetry" in capsys.readouterr().err


def test_conjugation_basis_of_another_dimension_exit_65(tmp_path, capsys):
    # time reversal multiplied by it, so page exited 70 on a matmul error
    data = model_to_dict(spin_model(0.6))
    data["conjugation_basis"] = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(data))
    for command in ("check", "page"):
        assert main([command, "--model", str(path)]) == 65
        assert "conjugation basis shape (2, 2)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["abl", "reverse"])
def test_non_hermitian_rho_final_exit_65(tmp_path, command, capsys):
    # eigh reads one triangle, so this would pass as the rank-one |z-><z-|
    data = model_to_dict(spin_post_selection()[0], np.array([[0.0, 5.0], [0.0, 1.0]]))
    path = tmp_path / "post.json"
    path.write_text(json.dumps(data))
    code = main([command, "--model", str(path)])
    assert code == 65
    assert "final operator must be Hermitian" in capsys.readouterr().err


def test_invariant_violation_exit_65(tmp_path, capsys):
    data = {
        "dim": 2,
        "initial_state": "pure:0",
        "grid": [0.0, 1.0, 2.0],
        "steps": [
            {"unitary": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]},
            {"unitary": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        ],
        "families": [
            {"time_index": 1, "projectors": [
                {"label": "0", "basis_indices": [0]},
                {"label": "1", "basis_indices": [1]},
            ]},
        ],
    }
    bad = tmp_path / "nonunitary.json"
    bad.write_text(json.dumps(data))
    code = main(["check", "--forwards", "--model", str(bad)])
    assert code == 65
    assert "unitarity" in capsys.readouterr().err


def test_generator_steps_and_pure_state(tmp_path, capsys):
    data = {
        "dim": 2,
        "initial_state": "pure:0",
        "grid": [0.0, 1.0, 2.0],
        "steps": [
            {"generator": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]},
            {"unitary": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        ],
        "families": [
            {"time_index": 1, "projectors": [
                {"label": "0", "basis_indices": [0]},
                {"label": "1", "basis_indices": [1]},
            ]},
        ],
    }
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(data))
    code, report = run_cli(capsys, "probs", "--model", str(path))
    assert code == 0
    fwd = {tuple(e["history"]): e["probability"]
           for e in report["result"]["forwards"]["candidate_table"]}
    # exp(-i sigma_x) from |0>: P(0) = cos(1)^2
    assert fwd[("0",)] == pytest.approx(np.cos(1.0) ** 2, abs=1e-10)


def test_out_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["check", "--forwards", "--scenario", "spin", "a=0.6",
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["result"]["classification"] == "decoherent"


def test_usage_error_needs_model_or_scenario(capsys):
    code = main(["check", "--forwards"])
    assert code == 64


@pytest.mark.parametrize("params, name", [
    (["spin", "a=nan"], "a="),
    (["random", "dim=0"], "dim="),
    (["random", "n=-1"], "n="),
], ids=["spin-a-nan", "random-dim-0", "random-n-negative"])
def test_bad_scenario_parameter_exit_64_names_it(capsys, params, name):
    code = main(["check", "--scenario", *params])
    assert code == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err


@pytest.mark.parametrize("argv, fragment", [
    (["check", "--scenario", "random", "seed=1", "dims=8"],
     "scenario 'random' has no parameter 'dims'; accepted: seed, dim, n, pure"),
    (["check", "--scenario", "spin-post", "a=1"], "no parameter 'a'; accepted: none"),
    (["recohere", "--scenario", "spin-symmetric", "b=0.6"], "no parameter 'b'; accepted: a, alpha"),
    (["scenario", "emit", "random", "dims=8"], "no parameter 'dims'"),
    (["check", "--scenario", "spin", "alpha=0.6", "a=0.8"], "a and alpha spell one parameter"),
    (["check", "--scenario", "spin", "beta=0.8", "b=0.6"], "b and beta spell one parameter"),
    (["scenario", "emit", "recoherence", "a=0.6", "alpha=0.8"], "a and alpha spell one"),
], ids=["unknown", "spin-post", "mirror", "emit", "alpha-twice", "beta-twice", "emit-twice"])
def test_scenario_parameter_outside_its_keys_exit_64(capsys, argv, fragment):
    # each ran with the key ignored, or with one spelling winning, and exited 0
    assert main(argv) == 64
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, fragment", [
    (["check", "--scenario", "spin", "a"], 64, "scenario parameter 'a' is not key=value"),
    (["check", "--scenario", "spin", "a=x"], 64, "cannot parse a='x' as a number"),
    (["check", "--scenario", "random", "dim=x"], 64, "cannot parse dim='x' as an integer"),
    (["check", "--scenario", "recoherence", "a=0.6+0.1j"], 64, "mirror scenarios need real"),
    (["check", "--scenario", "spin-mirror"], 64, "unknown scenario 'spin-mirror'; available:"),
    (["abl", "--scenario", "spin"], 64, "abl needs a final state"),
    (["records", "--scenario", "random", "pure=0"], 65, "needs a pure initial state"),
    (["scenario", "emit"], 64, "scenario emit needs a scenario name"),
    (["check", "--scenario", "random", "seed=-1"], 64, "seed=-1: must be non-negative"),
    (["check", "--seed", "-3", "--scenario", "random"], 64, "seed=-3: must be non-negative"),
    (["check", "--scenario", "random", "dim=3", "n=40"], 65,
     "histories (1320246374206787737430356131840 pairs) need an estimated"),
], ids=["not-key-value", "complex", "int", "mirror-complex", "unknown-scenario", "abl-no-final",
        "mixed-state", "emit-no-name", "negative-seed", "negative-seed-option", "over-budget"])
def test_cli_error_exits(capsys, argv, code, fragment):
    assert main(argv) == code
    assert fragment in capsys.readouterr().err


def test_printed_pair_tables_over_the_budget_exit_65_before_the_walk():
    """``check --both`` of 1,728 histories (1,492,128 rows a table) is refused within seconds.

    The core's own estimate admits it; printed, the two tables ran out of a 2 GiB address
    space and exited 70 with ``MemoryError()`` after about 25 s.
    """
    import resource

    limit = 2 * 2**30
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "decohist.cli", "check", "--both", "--scenario", "random", "seed=1",
         "dim=16", "n=8"], capture_output=True, text=True, timeout=5, env={**os.environ, "PYTHONPATH": path},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 65 and proc.stdout == ""
    assert proc.stderr == ("invariant violation: 1728 histories (1492128 pairs) need an estimated 4.27 GiB "
                           "for the printed pair tables, above the memory budget of 2 GiB\n")


def test_printed_pair_tables_are_charged_per_table(capsys, monkeypatch):
    """``check`` charges one table or two, and ``page`` two only when it prints them.

    spin-symmetric has 4 histories (6 pairs) and fits the core's estimate of 4,128 bytes;
    page of the random scenario fails a precondition, so it walks and prints nothing.
    """
    monkeypatch.setattr(histories, "MEMORY_BUDGET", 10_000)
    assert main(["check", "--forwards", "--scenario", "spin-symmetric"]) == 0
    for argv in (["check", "--both"], ["page"]):
        capsys.readouterr()
        assert main([*argv, "--scenario", "spin-symmetric"]) == 65
        assert "4 histories (6 pairs) need an estimated 1.72e-05 GiB for the printed pair tables" in (
            capsys.readouterr().err)
    code, report = run_cli(capsys, "page", "--scenario", "random")
    assert code == 1 and report["result"]["original"] is None


_DROP = object()
_EYE2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


@pytest.mark.parametrize("command, path, value, code, fragment", [
    ("abl", ("rho_final",), [[[0.7, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.3, 0.0]]], 65,
     "abl needs rho_final of rank one"),
    ("check", ("initial_state",), "mixed:0",
     64, "initial_state: named states must look like 'pure:<index>'"),
    ("check", ("initial_state",), "pure:x", 64, "initial_state: bad basis index in 'pure:x'"),
    ("check", (), [], 64, "top level: expected an object, got list"),
    ("check", ("dim",), 3, 64, "dim: 3 contradicts factors (2,)"),
    ("check", ("factors",), _DROP, 64, "top level: needs 'dim' or 'factors'"),
    ("check", ("steps", 1), _DROP, 64, "steps: expected 2 entries for 3 grid times"),
    ("check", ("steps", 0, "generator"), _EYE2,
     64, "steps[0]: expected exactly one of 'unitary' or 'generator'"),
    ("check", ("steps", 0), {"matrix": _EYE2}, 64, "steps[0]: expected 'unitary' or 'generator'"),
    ("check", ("steps", 0), {"generator": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
     64, "steps[0].generator: "),
    ("check", ("families",), {}, 64, "families: expected a list"),
    ("check", ("families", 0, "time_index"), _DROP,
     64, "families[0]: expected 'time_index' and 'projectors'"),
    ("check", ("families", 0, "projectors", 0, "label"), _DROP,
     64, "families[0].projectors[0]: expected an object with a 'label'"),
    ("check", ("families", 0, "projectors", 0), {"label": "z+", "basis_indices": [2]},
     64, "families[0].projectors[0].basis_indices: index outside dimension 2"),
    ("check", ("families", 0, "projectors", 0, "matrix"), _DROP,
     64, "families[0].projectors[0]: expected 'matrix' or 'basis_indices'"),
], ids=["rank-two-final", "named-state-prefix", "named-state-index", "top-level", "dim-factors",
        "no-dim", "step-count", "step-two-keys", "step-key", "non-hermitian-generator",
        "families", "family-keys", "label", "basis-index", "projector-keys"])
def test_model_file_error_exits_name_the_key_path(tmp_path, capsys, command, path, value, code,
                                                  fragment):
    data = model_to_dict(spin_post_selection()[0])
    if path:
        target = data
        for key in path[:-1]:
            target = target[key]
        if value is _DROP:
            del target[path[-1]]
        else:
            target[path[-1]] = value
    else:
        data = value
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(data))
    assert main([command, "--model", str(file)]) == code
    assert fragment in capsys.readouterr().err


def test_module_entry_point_runs():
    proc = run_python("-m", "decohist.cli", "scenario", "list")
    assert proc.returncode == 0
    assert "spin-symmetric" in proc.stdout


def test_reports_without_the_c_encoder():
    """Reports use only public ``json``: they are written without its C encoder."""
    proc = run_python("-c", "import json.encoder, sys; json.encoder.c_make_encoder = None; "
                      "from decohist.cli import main; sys.exit(main(['check', '--scenario', 'spin']))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["classification"] == "decoherent"


def test_verdicts_and_pair_rows_agree_across_blas_thread_counts():
    """The README's promise: another thread count keeps verdicts and the row order.

    Floats may change their last digits.  Most rows of this command have
    measures at rounding level, zero in exact arithmetic, which tie and follow
    their labels, so the rows (left, right, passed) must come in one order.
    """
    argv = ["-m", "decohist.cli", "check", "--both", "--scenario", "random",
            "seed=5", "dim=128", "n=2", "pure=0"]
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode in (0, 1, 2), proc.stderr
        runs.append((proc.returncode, json.loads(proc.stdout)["result"]))
    (code_1, one), (code_2, two) = runs
    assert code_1 == code_2
    for direction in ("forwards", "backwards"):
        assert one[direction]["classification"] == two[direction]["classification"]
        rows = [[(tuple(r["left"]), tuple(r["right"]), r["passed"]) for r in report[direction]["pair_table"]]
                for report in (one, two)]
        assert len(set(rows[0])) == len(rows[0]) == 66
        assert rows[0] == rows[1], direction
    assert (one["applicable"], one["passed"]) == (two["applicable"], two["passed"])

def test_cli_import_is_lazy_and_package_names_resolve():
    proc = run_python("-c", (
        "import sys, decohist.cli, decohist\n"
        "print(sorted(m for m in sys.modules if m.startswith('decohist.')))\n"
        "print([n for n in decohist.__all__ if not hasattr(decohist, n)])\n"
        "print(decohist.scenarios.__name__, decohist.StateOperator.__module__)\n"
    ))
    assert proc.returncode == 0, proc.stderr
    loaded, names, modules = proc.stdout.splitlines()
    assert "decohist.records" not in loaded and "decohist.scenarios" not in loaded
    assert "decohist.cli" in loaded
    assert names == "[]"
    assert modules == "decohist.scenarios decohist.model"


def test_load_model_key_path_in_error(tmp_path):
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"dim": 2, "initial_state": "pure:9",
                               "grid": [0.0, 1.0], "steps": [{"unitary": eye}],
                               "families": []}))
    with pytest.raises(ModelFileError, match="initial_state"):
        load_model(bad)
