"""CLI reports: the JSON writer and the order of pair-table rows.

``cli._dumps`` must give exactly the text of ``json.dumps(obj, indent=2)``;
hypothesis draws nests of every JSON shape, including the special strings,
floats and key orders that a table writer could get wrong.  Pair tables are
worst first: ratio descending, then both histories by label tuple.
"""

import gc
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decohist import cli
from decohist.cli import main
from decohist.histories import check_decoherence
from decohist.model import ProjectorFamily, QuantumModel, StateOperator, TimeGrid
from decohist.modelfile import dump_model, load_model

special = st.sampled_from('"\\\n\t%sé☃\U0001f600\x00\x7f a1')
texts = st.text(special | st.characters(), max_size=6)
keys = texts | st.integers(-3, 3) | st.floats() | st.booleans() | st.none()
scalars = (st.none() | st.booleans() | st.integers(-2**80, 2**80) | texts
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.floats(allow_nan=True, allow_infinity=True).map(np.float64))


@st.composite
def tables(draw, values):
    """Objects with one key set, each in its own key order."""
    names = draw(st.lists(texts, max_size=4, unique=True))
    return [{k: draw(values) for k in draw(st.permutations(names))}
            for _ in range(draw(st.integers(0, 4)))]


@st.composite
def rectangles(draw, values):
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return [[draw(values) for _ in range(cols)] for _ in range(rows)]


def _nests(inner):
    return (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
            | st.dictionaries(keys, inner, max_size=4) | tables(inner) | rectangles(inner)
            | st.builds(lambda v, n: [v] * n, inner, st.integers(0, 3)))  # one shared object


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.recursive(scalars, _nests, max_leaves=30))
@example([{"a": 1, "b": [1.5, "x"]}, {"b": [2.5, "y"], "a": 2}])
@example([{"1": "str key"}, {1: "int key"}, {True: "bool key"}, {-0.0: 0}, {0.0: 0}])
@example([{1: "equal keys"}, {True: "with other texts"}, {1.0: "each"}])
@example([{-0.0: 0}, {0.0: 0}])
@example({"%s": "%d", "100%": ["%", {"%%": float("nan")}], "": [[], [[]], {}]})
def test_dumps_equals_json_dumps_indent_2(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2)


def test_dumps_rejects_what_json_rejects():
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._dumps({"a": [1, {2, 3}]})


# ------------------------------------------------ pair order


def _worst_first(rep):
    return sorted(rep.pairs, key=lambda p: (-p.ratio, p.left, p.right))


def _cli_order(capsys, argv):
    main(argv)
    report = json.loads(capsys.readouterr().out)["result"]
    tables = [report[k] for k in ("forwards", "backwards") if k in report] or [report]
    return [[(tuple(r["left"]), tuple(r["right"]), r["ratio"]) for r in t["pair_table"]]
            for t in tables]


def _labelled_model():
    """A zero-probability branch, labels out of string order, identity dynamics.

    Member order is "2", "10", "x".  The state |0> never reaches "10" and
    "x", so their pairs have threshold 0 (ratio inf) under --tol-abs 0; every
    off-diagonal vanishes, so all other ratios tie at 0.
    """
    eye = np.eye(3)
    members = [(lab, np.outer(eye[k], eye[k])) for k, lab in enumerate(("2", "10", "x"))]
    grid = TimeGrid([0.0, 1.0, 2.0, 3.0], [eye] * 3)
    state = StateOperator(np.outer(eye[0], eye[0]))
    return QuantumModel(state, grid, [ProjectorFamily(1, members), ProjectorFamily(2, members)])


def _tied_model():
    """|+> measured in the computational basis, then in the basis (b = |+>, a = |->).

    The pairs ((0, b), (1, b)) and ((0, a), (1, a)) have the same measure
    and threshold, so the same nonzero ratio; by label, the "a" pair comes
    first although "b" is the first member.
    """
    eye, h = np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    z = ProjectorFamily(1, [(lab, np.outer(eye[k], eye[k])) for k, lab in enumerate("01")])
    x = ProjectorFamily(2, [(lab, np.outer(h[:, k], h[:, k])) for k, lab in enumerate("ba")])
    grid = TimeGrid([0.0, 1.0, 2.0, 3.0], [eye] * 3)
    return QuantumModel(StateOperator.from_vector(h[:, 0]), grid, [z, x])


@pytest.mark.parametrize("build, tol_abs", [(_labelled_model, "1e-12"),
                                            (_labelled_model, "0"),
                                            (_tied_model, "1e-12")])
def test_pair_table_order_is_ratio_then_labels(tmp_path, capsys, build, tol_abs):
    path = tmp_path / "model.json"
    dump_model(build(), path)
    model, _ = load_model(path)
    assert model.history_labels() != sorted(model.history_labels())
    rows = _cli_order(capsys, ["check", "--both", "--model", str(path), "--tol-abs", tol_abs])
    ratios = [r for _, _, r in rows[0]]
    assert len(set(ratios)) < len(ratios)  # ties are broken by the labels
    assert (float("inf") in ratios) == (tol_abs == "0")
    tol = cli.TolerancePolicy(abs=float(tol_abs))
    for direction, got in zip(("forwards", "backwards"), rows):
        rep = check_decoherence(model, direction, "weak", tol)
        expected = [(p.left, p.right, p.ratio) for p in _worst_first(rep)]
        assert got == expected
        assert [(p.left, p.right, p.ratio) for p in rep.worst_pairs()] == expected


def test_tied_nonzero_ratios_follow_labels(capsys, tmp_path):
    path = tmp_path / "tied.json"
    dump_model(_tied_model(), path)
    forwards = _cli_order(capsys, ["check", "--forwards", "--model", str(path)])[0]
    assert forwards[:2] == [(("0", "a"), ("1", "a"), 1e9), (("0", "b"), ("1", "b"), 1e9)]


# ------------------------------------------------ every command


@pytest.mark.parametrize("enabled", [True, False])
def test_main_pauses_the_collector_and_restores_it(monkeypatch, enabled):
    seen = []
    monkeypatch.setattr(cli, "_run", lambda argv: seen.append(gc.isenabled()) or 0)
    (gc.enable if enabled else gc.disable)()
    try:
        assert main([]) == 0
        assert seen == [False]
        assert gc.isenabled() == enabled
    finally:
        gc.enable()


COMMANDS = {
    "check": ["check", "--both", "--scenario", "spin"],
    "probs": ["probs", "--scenario", "spin"],
    "abl": ["abl", "--scenario", "spin-post"],
    "records": ["records", "--scenario", "spin"],
    "reverse": ["reverse", "--scenario", "spin"],
    "recohere": ["recohere", "--scenario", "spin-symmetric"],
    "page": ["page", "--scenario", "spin-symmetric"],
    "scenario list": ["scenario", "list"],
    "scenario emit": ["scenario", "emit", "random", "seed=4", "pure=0"],
}


def test_commands_cover_the_dispatch_table():
    assert set(cli._DISPATCH) | {"scenario list", "scenario emit"} == set(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_is_json_dumps_indent_2(capsys, name):
    main(COMMANDS[name])
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
