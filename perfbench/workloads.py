"""The three benchmark workloads: inputs, one request, and its output checks.

Every workload is a closed loop with one client: the next request starts
when the previous one has returned.  ``setup`` makes the inputs from the
seed (and writes model files where the workload needs them); ``request`` is
the timed call into the program; ``check`` compares what came back with
references computed independently of the code under test and returns the
list of failures (empty when the request is correct).

Calls go through module attributes (``histories.check_decoherence``, never
a function name bound here at import), so the tracer's wrappers see them.  Each API request builds a fresh model from the arrays, so no
cache inside the program carries over between requests.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
from decohist import cli, histories, model, records, scenarios

import inputs

TOL = 1e-9


def build_model(arrays: inputs.ModelArrays):
    if arrays.psi is not None:
        state = model.StateOperator.from_vector(arrays.psi)
    else:
        state = model.StateOperator(arrays.rho)
    grid = model.TimeGrid(arrays.times, arrays.steps)
    families = [model.ProjectorFamily(k + 1, members) for k, members in enumerate(arrays.families)]
    return model.QuantumModel(state, grid, families)


def _check_diagonals(report, what: str, failures: list[str]) -> None:
    total = sum(report.diagonals.values())
    if abs(total - 1.0) > TOL:
        failures.append(f"{what} diagonals sum to {total!r}, not 1")


def _check_against_oracle(report, oracle: dict, failures: list[str]) -> None:
    if set(oracle) != set(report.diagonals):
        failures.append("collapse-chain table and forwards report name different histories")
        return
    worst = max(abs(report.diagonals[h] - oracle[h]) for h in oracle)
    if worst > TOL:
        failures.append(f"forwards diagonals differ from the collapse-chain table by {worst:.3e}")


class ManyHistories:
    """dim 16, pure state, 7 two-member families: m = 128 histories."""

    name = "many-histories"

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng([seed, 1])
        return {"arrays": inputs.haar_family_model(16, 7, 2, rng)}

    def request(self, state: dict) -> dict:
        arrays = state["arrays"]
        built = build_model(arrays)
        return {
            "forwards": histories.check_decoherence(built, "forwards", "weak"),
            "backwards": histories.check_decoherence(built, "backwards", "weak"),
            "orthogonality": records.strong_decoherence_iff_orthogonality(built, arrays.psi),
            "oracle": scenarios.collapse_probability_table(built),
        }

    def check(self, state: dict, out: dict) -> list[str]:
        failures: list[str] = []
        fwd, orth = out["forwards"], out["orthogonality"]
        _check_diagonals(fwd, "forwards", failures)
        _check_diagonals(out["backwards"], "backwards", failures)
        _check_against_oracle(fwd, out["oracle"], failures)
        if not orth.agrees:
            failures.append("strong decoherence and branch orthogonality disagree")
        strong = orth.full_report
        if len(strong.pairs) != len(fwd.pairs):
            failures.append("strong and weak forwards reports differ in pair count")
        elif any(s.passed and not w.passed for s, w in zip(strong.pairs, fwd.pairs)):
            failures.append("a pair passes strong decoherence but fails weak decoherence")
        if strong.decoherent and not fwd.decoherent:
            failures.append("set is strongly but not weakly decoherent")
        return failures


class LargeDim:
    """dim 256, rank-4 mixed state, 2 four-member families: m = 16 histories."""

    name = "large-dim"

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng([seed, 2])
        arrays = inputs.haar_family_model(256, 2, 4, rng, state_rank=4, final_rank=4)
        labels = [label for label, _ in arrays.families[0]]
        merged = {f"{a}+{b}": (a, b) for a, b in zip(labels[::2], labels[1::2])}
        singles = {label: (label,) for label, _ in arrays.families[1]}
        return {"arrays": arrays, "blocks": (merged, singles),
                "normalization": float(np.trace(arrays.rho_final @ arrays.rho).real)}

    def request(self, state: dict) -> dict:
        arrays = state["arrays"]
        built = build_model(arrays)
        return {
            "forwards": histories.check_decoherence(built, "forwards", "weak"),
            "backwards": histories.check_decoherence(built, "backwards", "weak"),
            "two_state": histories.check_two_state_decoherence(
                built.initial_state, arrays.rho_final, built, "weak"),
            "coarse": histories.coarse_grain_check(
                built, histories.CoarseGraining(state["blocks"])),
            "oracle": scenarios.collapse_probability_table(built),
        }

    def check(self, state: dict, out: dict) -> list[str]:
        failures: list[str] = []
        fwd, two, coarse = out["forwards"], out["two_state"], out["coarse"]
        _check_diagonals(fwd, "forwards", failures)
        _check_diagonals(out["backwards"], "backwards", failures)
        _check_against_oracle(fwd, out["oracle"], failures)
        # Sum over all entries of D is Tr(rho_f rho_i): diagonals plus twice
        # the real off-diagonals.  Diagonals alone sum to it only when the set
        # decoheres, which this Haar set does not.
        norm = state["normalization"]
        if abs(two.normalization - norm) > TOL * norm:
            failures.append(f"two-state normalization {two.normalization!r}, expected {norm!r}")
        total = sum(two.diagonals.values()) + 2.0 * sum(p.value.real for p in two.pairs)
        if abs(total / norm - 1.0) > TOL:
            failures.append(f"two-state functional sums to {total / norm!r} of Tr(rho_f rho_i)")
        # Merging histories adds exactly their interference: direct - summed
        # equals twice the real forwards off-diagonals inside each block.
        values = {(p.left, p.right): p.value for p in fwd.pairs}
        merged, singles = state["blocks"]
        for (a, b), (direct, summed) in coarse.per_history.items():
            fine = [(x, y) for x in merged[a] for y in singles[b]]
            interference = 2.0 * sum(
                values[(h, k)].real for i, h in enumerate(fine) for k in fine[i + 1:])
            expected_sum = sum(fwd.diagonals[h] for h in fine)
            if abs(summed - expected_sum) > TOL or abs(direct - summed - interference) > TOL:
                failures.append(f"coarse history {(a, b)} breaks additivity bookkeeping")
        return failures


def _take_report(path: Path) -> dict:
    """Read a CLI report and delete it, so the next request must write its own."""
    report = json.loads(path.read_text(encoding="utf-8"))["result"]
    path.unlink()
    return report


class CliRecords:
    """Two CLI sessions on register models: check --both (reg6), records (reg4)."""

    name = "cli-records"

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng([seed, 3])
        models = {"reg6": inputs.register_model(6, rng), "reg4": inputs.register_model(4, rng)}
        paths = {}
        for key, arrays in models.items():
            paths[key] = workdir / f"{key}.json"
            inputs.write_model_file(arrays, paths[key])
        argvs = [
            ["check", "--both", "--model", str(paths["reg6"]), "--out", str(workdir / "check.json")],
            ["records", "--model", str(paths["reg4"]), "--out", str(workdir / "records.json")],
        ]
        return {"models": models, "argvs": argvs, "workdir": workdir}

    def request(self, state: dict) -> dict:
        """One session: each command in a fresh interpreter, as a user runs it."""
        codes = []
        for argv in state["argvs"]:
            proc = subprocess.run([sys.executable, "-m", "decohist.cli", *argv],
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
            codes.append(proc.returncode)
        return {"codes": codes}

    def request_in_process(self, state: dict) -> dict:
        """The same argv through ``decohist.cli.main``, so spans can wrap it."""
        return {"codes": [cli.main(list(argv)) for argv in state["argvs"]]}

    def check(self, state: dict, out: dict) -> list[str]:
        failures: list[str] = []
        if out["codes"] != [0, 0]:
            return [f"exit codes {out['codes']}, expected [0, 0]"]
        check, records = (_take_report(state["workdir"] / name) for name in ("check.json", "records.json"))
        if not (check["applicable"] and check["passed"]):
            failures.append(f"check --both: applicable={check['applicable']}, passed={check['passed']}")
        for what, table, key in (("check forwards", check["forwards"]["probabilities"], "reg6"),
                                 ("records", records["probabilities"], "reg4")):
            expected = state["models"][key].expected_probabilities
            got = {tuple(row["history"]): row["probability"] for row in table or []}
            if set(got) != set(expected):
                failures.append(f"{what}: histories differ from the generated model")
            elif max(abs(got[h] - expected[h]) for h in expected) > TOL:
                failures.append(f"{what}: probabilities differ from |c_h|^2 by more than {TOL}")
        corr = np.array(records["correlation"])
        off = corr - np.diag(np.diag(corr))
        if corr.size == 0 or np.max(np.abs(off)) > TOL:
            failures.append("records correlation has off-diagonal weight")
        if records["extension_classification"] != "decoherent":
            failures.append("record family does not extend the set consistently")
        return failures


WORKLOADS = {w.name: w for w in (ManyHistories(), LargeDim(), CliRecords())}

