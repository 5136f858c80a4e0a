"""Tests of the benchmark's own machinery: spans, percentiles, inputs, checks.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _span(sid, name, parent, start, end, request=7):
    s = tracing.Span(name, parent, request)
    s.sid, s.start, s.end = sid, start, end
    return s


def test_self_times_of_nested_spans():
    spans = [
        _span(0, "request", None, 0.0, 10.0),
        _span(1, "histories.check_decoherence", 0, 1.0, 6.0),
        _span(2, "model.heisenberg_projector", 1, 2.0, 4.0),
        _span(3, "runtime.gc", 1, 4.5, 5.0),
        _span(4, "scenarios.collapse_probability_table", 0, 7.0, 9.0),
        _span(5, "scenarios.collapse_chain_enumerate", 4, 7.5, 8.5),
    ]
    assert tracing.self_times(spans) == [3.0, 2.5, 2.0, 0.5, 1.0, 1.0]
    rec = tracing.request_breakdown(spans)[7]
    assert rec["request_s"] == 10.0
    assert rec["self_s"] == {"unattributed": 3.0, "histories.check": 2.5,
                             "model.heisenberg": 2.0, "runtime.gc": 0.5,
                             "scenarios.oracle": 2.0}
    assert rec["calls"]["scenarios.oracle"] == 2
    assert sum(rec["self_s"].values()) == rec["request_s"]


def test_tracer_records_spans_and_restores_bindings():
    import decohist.cli
    import decohist.histories
    import decohist.records
    from decohist.scenarios import spin_model

    original = decohist.histories.check_decoherence
    tracer = tracing.Tracer()
    with tracer.installed():
        assert decohist.cli.check_decoherence is not original
        assert decohist.records.check_decoherence is not original
        with tracer.request(1):
            report = decohist.histories.check_decoherence(spin_model(0.6), "forwards", "weak")
    assert decohist.histories.check_decoherence is original
    assert decohist.cli.check_decoherence is original
    rec = tracing.request_breakdown(tracer.spans)[1]
    assert rec["calls"]["histories.check"] == 1
    assert rec["calls"]["model.build"] >= 4
    assert rec["counts"]["pairs"] == len(report.pairs) == 6
    assert sum(rec["self_s"].values()) == pytest.approx(rec["request_s"], abs=1e-12)
    assert min(rec["self_s"].values()) >= 0.0


def test_tail_percentile_rule():
    assert stats.tail_percentile(stats.MIN_SAMPLES - 1) is None
    assert [stats.tail_percentile(n) for n in (20, 39, 40, 99, 100, 200, 1000, 10000)] == [
        50.0, 50.0, 75.0, 75.0, 90.0, 95.0, 99.0, 99.9]
    values = list(range(1, 41))
    summary = stats.latency_summary(values)
    assert summary == {"p50": 20.5, "tail": 30.5, "tail_percentile": 75.0, "samples": 40}
    assert sum(v > summary["tail"] for v in values) == stats.MIN_BEYOND
    assert stats.percentile(list(range(1, 21)), 50.0) == 10.5
    assert stats.percentile(list(range(1, 63)), 75.0) == 47
    with pytest.raises(ValueError):
        stats.latency_summary(list(range(19)))


def test_generator_is_deterministic(tmp_path):
    def draw(seed):
        rng = np.random.default_rng(seed)
        return (inputs.haar_family_model(8, 2, 2, rng, state_rank=2, final_rank=2),
                inputs.register_model(3, rng))

    (a1, r1), (a2, r2), (a3, _) = draw(5), draw(5), draw(6)
    for x, y in ((a1, a2), (r1, r2)):
        assert all(np.array_equal(u, v) for u, v in zip(x.steps, y.steps))
        assert all(np.array_equal(p, q) for f, g in zip(x.families, y.families)
                   for (_, p), (_, q) in zip(f, g))
    assert np.array_equal(a1.rho, a2.rho) and np.array_equal(a1.rho_final, a2.rho_final)
    assert r1.expected_probabilities == r2.expected_probabilities
    assert not np.array_equal(a1.steps[0], a3.steps[0])
    assert sum(r1.expected_probabilities.values()) == pytest.approx(1.0, abs=1e-12)
    inputs.write_model_file(r1, tmp_path / "a.json")
    inputs.write_model_file(r2, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_register_model_probabilities_match_program():
    from decohist.histories import check_decoherence

    arrays = inputs.register_model(3, np.random.default_rng(0))
    report = check_decoherence(workloads.build_model(arrays), "forwards", "strong")
    assert report.decoherent
    for h, p in arrays.expected_probabilities.items():
        assert report.probabilities[h] == pytest.approx(p, abs=1e-12)


def test_perturbed_api_output_counts_as_failure():
    workload = workloads.WORKLOADS["many-histories"]
    state = workload.setup(3, None)
    out = workload.request(state)
    assert workload.check(state, out) == []
    history = next(iter(out["forwards"].diagonals))
    out["forwards"].diagonals[history] += 1e-6
    assert workload.check(state, out) != []


def test_perturbed_cli_output_counts_as_failure(tmp_path):
    workload = workloads.WORKLOADS["cli-records"]
    models = {"reg6": inputs.register_model(2, np.random.default_rng(1)),
              "reg4": inputs.register_model(2, np.random.default_rng(2))}
    state = {"models": models, "workdir": tmp_path}

    def table(key, shift=0.0):
        rows = sorted(models[key].expected_probabilities.items())
        return [{"history": list(h), "probability": p + (shift if i == 0 else 0.0)}
                for i, (h, p) in enumerate(rows)]

    def write(shift):
        check = {"applicable": True, "passed": True, "forwards": {"probabilities": table("reg6")}}
        records = {"probabilities": table("reg4", shift), "extension_classification": "decoherent",
                   "correlation": np.diag([r["probability"] for r in table("reg4")]).tolist()}
        (tmp_path / "check.json").write_text(json.dumps({"result": check}))
        (tmp_path / "records.json").write_text(json.dumps({"result": records}))

    write(0.0)
    assert workload.check(state, {"codes": [0, 0]}) == []
    assert workload.check(state, {"codes": [0, 1]}) != []
    write(1e-6)
    assert workload.check(state, {"codes": [0, 0]}) != []
