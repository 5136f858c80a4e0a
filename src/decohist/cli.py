"""Command-line interface: model ingestion, dispatch, deterministic reports.

Commands: ``check``, ``probs``, ``abl``, ``records``, ``reverse``,
``recohere``, ``page``, ``scenario list``, ``scenario emit``.  Reports are
compact JSON, the text of ``json.dumps(report)``, on standard output (or
``--out``).  For identical inputs and seeds they give the same verdicts and
pair-table row order at any BLAS thread count, and identical bytes apart from
the ``timing_s`` field at a fixed one (another thread count can change the
last digits of floats).

Exit codes: 0 decoherent / check passed, 1 not decoherent / check failed,
2 marginal, 64 model-file parse errors, bad scenario parameters and
out-of-range options (among them negative or non-finite tolerances), 65
model invariant violations, 70 unexpected errors.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import json
import sys
import time

import numpy as np

from .exceptions import (
    ConditionNotSatisfiedError,
    DegenerateNormalizationError,
    MixedStateError,
    ModelFileError,
    ModelValidationError,
)
from .histories import (
    DecoherenceReport,
    TolerancePolicy,
    _coerce_final_operator,
    both_conditions_theorem_check,
    check_decoherence,
    page_symmetric_cosmology_check,
)
from .model import ProjectorFamily, QuantumModel, TimeGrid, _dynamics_symmetry_defect, _eigen_floor
from .modelfile import _to_pairs, load_model, model_to_dict

EXIT_DECOHERENT = 0
EXIT_NOT_DECOHERENT = 1
EXIT_MARGINAL = 2
EXIT_USAGE = 64
EXIT_INVARIANT = 65
EXIT_SOFTWARE = 70

# Each scenario's parameter keys; a key outside its set is a usage error.
_SCENARIO_KEYS = {"spin": ("a", "alpha", "b", "beta"), "spin-post": (),
                  "spin-symmetric": ("a", "alpha"), "recoherence": ("a", "alpha"),
                  "random": ("seed", "dim", "n", "pure")}
SCENARIO_NAMES = tuple(_SCENARIO_KEYS)


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _parse_params(tokens: list[str]) -> dict:
    params = {}
    for tok in tokens:
        if "=" not in tok:
            raise _CliError(f"scenario parameter {tok!r} is not key=value", EXIT_USAGE)
        key, value = tok.split("=", 1)
        params[key.strip()] = value.strip()
    return params


def _param_complex(params: dict, *names, default=None):
    given = [name for name in names if name in params]
    if len(given) > 1:
        raise _CliError(f"{' and '.join(given)} spell one parameter; give one of them", EXIT_USAGE)
    for name in given:
        try:
            value = complex(params[name])
        except ValueError:
            raise _CliError(f"cannot parse {name}={params[name]!r} as a number", EXIT_USAGE)
        if not cmath.isfinite(value):
            raise _CliError(f"{name}={params[name]!r} is not a finite number", EXIT_USAGE)
        return value
    return default


def _param_int(params: dict, name: str, default: int) -> int:
    if name not in params:
        return default
    try:
        return int(params[name])
    except ValueError:
        raise _CliError(f"cannot parse {name}={params[name]!r} as an integer", EXIT_USAGE)


def _build_scenario(name: str, params: dict, seed: int):
    """Resolve a scenario into (model, rho_final), the pair that ``scenario emit`` writes."""
    from . import scenarios

    if name not in _SCENARIO_KEYS:
        raise _CliError(f"unknown scenario {name!r}; available: {', '.join(SCENARIO_NAMES)}",
                        EXIT_USAGE)
    for key in params:
        if key not in _SCENARIO_KEYS[name]:
            raise _CliError(f"scenario {name!r} has no parameter {key!r}; accepted: "
                            f"{', '.join(_SCENARIO_KEYS[name]) or 'none'}", EXIT_USAGE)
    rho_final = None
    if name == "spin":
        alpha = _param_complex(params, "a", "alpha", default=0.6)
        beta = _param_complex(params, "b", "beta", default=None)
        model = scenarios.spin_model(alpha, beta)
    elif name == "spin-post":
        model, _, psi_f = scenarios.spin_post_selection()
        rho_final = np.outer(psi_f, psi_f.conj())
    elif name in ("spin-symmetric", "recoherence"):
        default = 1.0 / np.sqrt(2.0) if name == "spin-symmetric" else 0.6
        alpha = _param_complex(params, "a", "alpha", default=default)
        if abs(alpha.imag) > 0:
            raise _CliError("mirror scenarios need real amplitudes", EXIT_USAGE)
        model = scenarios._mirror_extension(scenarios.spin_recoherence_base(alpha.real))
    else:
        dim, n = _param_int(params, "dim", 4), _param_int(params, "n", 2)
        if n < 0:
            raise _CliError(f"n={n}: the number of families must be at least 0", EXIT_USAGE)
        least = 2 if n else 1  # every family has at least two members
        if dim < least:
            raise _CliError(f"dim={dim}: must be at least {least} for n={n} families", EXIT_USAGE)
        seed = _param_int(params, "seed", seed)
        if seed < 0:
            raise _CliError(f"seed={seed}: must be non-negative", EXIT_USAGE)
        model = scenarios.random_model(
            seed=seed,
            dim=dim,
            n_families=n,
            pure=bool(_param_int(params, "pure", 1)),
        )
    return model, rho_final


def _resolve_model(args, seed: int):
    if bool(args.model) == bool(args.scenario):
        raise _CliError("exactly one of --model or --scenario is required", EXIT_USAGE)
    if args.model:
        return load_model(args.model)
    name, *tokens = args.scenario
    model, rho_final = _build_scenario(name, _parse_params(tokens), seed)
    # A family keeps factors Q and its emitted file Q Q^dagger, which loads to new factors:
    # rebuild every family from those, as loading the file does, so a scenario runs as its file.
    return model._derive([ProjectorFamily(f.time_index, zip(f.labels, f.projectors))
                          for f in model.families]), rho_final


def _sorted_table(table: dict) -> list[dict]:
    return [
        {"history": list(h), "probability": float(p)}
        for h, p in sorted(table.items())
    ]


def _pair_table(rep: DecoherenceReport) -> list[dict]:
    """The report's pairs worst first, read from its pair arrays in one pass."""
    a = rep._arrays
    order = rep._worst_first()
    keys = [list(h) for h in rep.histories]  # one shared list per history
    columns = (a.i, a.j, a.value.real, a.value.imag, a.measure, a.threshold, a.ratio, a.passed)
    return [
        {"left": keys[i], "right": keys[j], "re": re, "im": im, "measure": measure,
         "threshold": threshold, "ratio": ratio, "passed": passed}
        for i, j, re, im, measure, threshold, ratio, passed
        in zip(*(c[order].tolist() for c in columns))
    ]


def _report_decoherence(rep: DecoherenceReport) -> dict:
    return {
        "direction": rep.direction,
        "strength": rep.strength,
        "classification": rep.classification,
        "normalization": rep.normalization,
        "pair_table": _pair_table(rep),
        "probabilities": None if rep.probabilities is None else _sorted_table(rep.probabilities),
    }


def _classification_exit(classification: str) -> int:
    return {
        "decoherent": EXIT_DECOHERENT,
        "marginal": EXIT_MARGINAL,
        "not_decoherent": EXIT_NOT_DECOHERENT,
    }[classification]


def _cmd_check(args, model: QuantumModel, rho_final: np.ndarray | None, tol: TolerancePolicy):
    if args.both:
        rep = both_conditions_theorem_check(model, tol)
        body = {
            "mode": "both",
            "applicable": rep.applicable,
            "reason": rep.reason,
            "forwards": _report_decoherence(rep.forwards),
            "backwards": _report_decoherence(rep.backwards),
            "max_table_difference": rep.max_table_difference,
            "max_chain_difference": rep.max_chain_difference,
            "passed": rep.passed,
        }
        code = EXIT_DECOHERENT if (rep.applicable and rep.passed) else EXIT_NOT_DECOHERENT
        return body, code
    direction = "backwards" if args.backwards else "forwards"
    rep = check_decoherence(model, direction, args.strength, tol)
    return _report_decoherence(rep), _classification_exit(rep.classification)


def _cmd_probs(args, model: QuantumModel, rho_final: np.ndarray | None, tol: TolerancePolicy):
    body = {}
    for direction in ("forwards", "backwards"):
        rep = check_decoherence(model, direction, args.strength, tol)
        body[direction] = {
            "classification": rep.classification,
            "candidate_table": _sorted_table(
                {h: rep.diagonals[h] for h in rep.histories}
            ),
        }
    return body, EXIT_DECOHERENT


def _rank_one_vector(model: QuantumModel, rho_final: np.ndarray, command: str) -> np.ndarray:
    """The state vector of a valid rank-one rho_final; anything else exits 65."""
    w, v = np.linalg.eigh(_coerce_final_operator(rho_final, model.dim)[0])
    if np.sum(w > _eigen_floor(w)) != 1:
        raise _CliError(f"{command} needs rho_final of rank one", EXIT_INVARIANT)
    return v[:, -1]


def _cmd_abl(args, model: QuantumModel, rho_final: np.ndarray | None, tol: TolerancePolicy):
    from . import scenarios

    psi_i = _pure_state_vector(model)  # a mixed state exits 65 before a missing rho_final
    if rho_final is None:
        raise _CliError(
            "abl needs a final state: use --scenario spin-post or a model file "
            "with a rank-one rho_final", EXIT_USAGE,
        )
    table = scenarios.abl_table(psi_i, _rank_one_vector(model, rho_final, "abl"), model)
    body = {
        "table": _sorted_table(table),
        "sum": float(sum(table.values())),
    }
    return body, EXIT_DECOHERENT


def _pure_state_vector(model: QuantumModel) -> np.ndarray:
    if not model.initial_state.is_pure():
        raise _CliError("this command needs a pure initial state", EXIT_INVARIANT)
    return model.initial_state.state_vector()


def _cmd_records(args, model: QuantumModel, rho_final: np.ndarray | None, tol: TolerancePolicy):
    from .records import construct_records

    last = model.grid.n_times - 1
    first = model.families[-1].time_index if model.families else 0
    if args.tf is not None and not first <= args.tf <= last:
        raise _CliError(f"--tf {args.tf} is outside the allowed range [{first}, {last}] "
                        "(last family's grid index to last grid index)", EXIT_USAGE)
    psi = _pure_state_vector(model)
    try:
        recs = construct_records(model, psi, args.tf, tol)
    except ConditionNotSatisfiedError as exc:
        return {"error": str(exc), "records": None}, EXIT_NOT_DECOHERENT
    body = {
        "time": recs.time,
        "probabilities": _sorted_table(recs.probabilities),
        "correlation": recs.correlation.tolist(),
        "extension_classification": recs.extension_report.classification,
        "projections": {",".join(h): _to_pairs(p) for h, p in sorted(recs.projections.items())},
    }
    return body, EXIT_DECOHERENT


def _cmd_reverse(args, model: QuantumModel, rho_final: np.ndarray | None, tol: TolerancePolicy):
    from .scenarios import reverse_collapse_chain

    final = None if rho_final is None else _rank_one_vector(model, rho_final, "reverse")
    psi0 = _pure_state_vector(model)
    if final is None:
        final = model.grid.carry(psi0[None], 0, model.grid.n_times - 1)[0]
    body = {"trajectories": []}
    for t in reverse_collapse_chain(model, final):  # sorted by labels
        reconstructed = t.states[-1]
        fidelity = float(abs(np.vdot(psi0, reconstructed)) ** 2) if t.probability > 0 else 0.0
        body["trajectories"].append({
            "history": list(t.labels),
            "probability": t.probability,
            "reconstruction_fidelity": fidelity,
        })
    return body, EXIT_DECOHERENT


def _recoherence_base(model: QuantumModel) -> QuantumModel:
    """The half up to 0 of dynamics mirrored about the grid time nearest 0, else the model."""
    times, c = model.grid.times, int(np.argmin(np.abs(model.grid.times)))
    if _dynamics_symmetry_defect(model, c)[2]:  # as for a grid ending at 0: c is not its middle
        return model
    return model._derive(model.families, TimeGrid(times[:c + 1], model.grid.step_unitaries[:c]))


def _cmd_recohere(args, model: QuantumModel, rho_final: np.ndarray | None, tol: TolerancePolicy):
    from .scenarios import recoherence_scenario

    analysis = recoherence_scenario(_recoherence_base(model), tolerance=tol)
    body = {
        "first_half_classification": analysis.first_half_forwards.classification,
        "purity_curve": [[t, p] for t, p in (analysis.purity_curve or [])],
        "purity_dip": analysis.purity_dip,
        "reinterference": [[t, v] for t, v in analysis.reinterference],
        "reversed_set_backwards": analysis.reversed_backwards.classification,
        "original_set_backwards": analysis.original_backwards.classification,
        "recoherence_witness": analysis.recoherence_witness,
        "equivalence_holds": analysis.equivalence_holds,
    }
    return body, EXIT_DECOHERENT if analysis.recoherence_witness else EXIT_NOT_DECOHERENT


def _cmd_page(args, model: QuantumModel, rho_final: np.ndarray | None, tol: TolerancePolicy):
    if rho_final is None:
        rho_final = np.eye(model.dim, dtype=complex)
    rep = page_symmetric_cosmology_check(model.initial_state, rho_final, model, tol)
    body = {
        "preconditions": {
            name: {"ok": ok, "defect": defect}
            for name, (ok, defect) in rep.preconditions.items()
        },
        "applicable": rep.applicable,
        "reason": rep.reason,
        "original": None if rep.original is None else _report_decoherence(rep.original),
        "time_reversed": None if rep.time_reversed is None else _report_decoherence(rep.time_reversed),
        "max_table_difference": rep.max_table_difference,
        "passed": rep.passed,
    }
    ok = bool(rep.applicable) and bool(rep.passed)
    return body, EXIT_DECOHERENT if ok else EXIT_NOT_DECOHERENT


def _cmd_scenario(args):
    if args.action == "list":
        return {"scenarios": list(SCENARIO_NAMES)}, EXIT_DECOHERENT
    data = model_to_dict(*_build_scenario(args.name, _parse_params(args.params or []), seed=0))
    if args.out:
        _emit(data, args.out)
        return {"written": args.out}, EXIT_DECOHERENT
    return data, EXIT_DECOHERENT


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report)  # the one-shot C encoder; json.dump would iterate in Python
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", help="path to a JSON model file")
    parser.add_argument("--scenario", nargs="+", metavar="NAME [k=v ...]",
                        help=f"built-in scenario ({', '.join(SCENARIO_NAMES)})")
    parser.add_argument("--tol-rel", type=float, default=1e-9, dest="tol_rel")
    parser.add_argument("--tol-abs", type=float, default=1e-12, dest="tol_abs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write the report to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decohist",
        description="Decoherent-histories engine: consistency checks, probabilities, "
                    "records, recoherence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify a history set as decoherent or not")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--forwards", action="store_true")
    group.add_argument("--backwards", action="store_true")
    group.add_argument("--both", action="store_true",
                       help="require both conditions and compare the probability tables")
    p.add_argument("--strength", choices=("weak", "strong"), default="weak")
    _add_common(p)

    p = sub.add_parser("probs", help="candidate probability tables, both directions")
    p.add_argument("--strength", choices=("weak", "strong"), default="weak")
    _add_common(p)

    p = sub.add_parser("abl", help="pre- and post-selected outcome probabilities")
    _add_common(p)

    p = sub.add_parser("records", help="construct record projectors at a late time")
    p.add_argument("--tf", type=int, default=None, help="grid index for the records")
    _add_common(p)

    p = sub.add_parser("reverse", help="run the collapse chain backwards from the final state")
    _add_common(p)

    p = sub.add_parser("recohere", help="mirror-extend a pre-zero model and analyze recoherence")
    _add_common(p)

    p = sub.add_parser("page", help="time-symmetric cosmology audit for (rho_i, rho_f)")
    _add_common(p)

    p = sub.add_parser("scenario", help="list built-in scenarios or emit one as a model file")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("name", nargs="?", help="scenario name (for emit)")
    p.add_argument("params", nargs="*", help="scenario parameters k=v (for emit)")
    p.add_argument("--out", help="write the model file here")
    return parser


_DISPATCH = {
    "check": _cmd_check,
    "probs": _cmd_probs,
    "abl": _cmd_abl,
    "records": _cmd_records,
    "reverse": _cmd_reverse,
    "recohere": _cmd_recohere,
    "page": _cmd_page,
}


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The cyclic garbage collector is paused for the run: a run allocates
    tens of thousands of containers (the parsed model file, the report
    rows), all freed by reference counting, and the collector's passes over
    them found almost nothing to free (about 180 objects in a
    ``check --both`` of a 64-history model, against 130 passes).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "scenario":
            if args.action == "emit" and not args.name:
                raise _CliError("scenario emit needs a scenario name", EXIT_USAGE)
            body, code = _cmd_scenario(args)
            _emit(body, args.out if args.action == "list" else None)
            return code
        try:
            tol = TolerancePolicy(rel=args.tol_rel, abs=args.tol_abs)
        except ValueError as exc:
            raise _CliError(str(exc), EXIT_USAGE) from None
        # held through _emit: freeing the model first raised peak RSS (+150 KiB at dim 64)
        model, rho_final = _resolve_model(args, args.seed)
        body, code = _DISPATCH[args.command](args, model, rho_final, tol)
        report = {
            "command": args.command,
            "input": args.model if args.model else " ".join(args.scenario),
            "seed": args.seed,
            "tolerances": {"rel": tol.rel, "abs": tol.abs},
            "result": body,
            "exit_code": code,
            "timing_s": round(time.perf_counter() - started, 6),
        }
        _emit(report, args.out)
        return code
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ModelFileError as exc:
        print(f"model file error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ModelValidationError, MixedStateError, DegenerateNormalizationError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ConditionNotSatisfiedError as exc:
        print(f"condition not satisfied: {exc}", file=sys.stderr)
        return EXIT_NOT_DECOHERENT
    except Exception as exc:
        # the repr names the type: a MemoryError has no text
        print(f"unexpected error: {exc!r}", file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    raise SystemExit(main())
