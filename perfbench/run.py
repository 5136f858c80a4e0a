"""Run one decohist benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src/``.  ``--trace 0`` measures the end-to-end metrics with no
tracing: it sets up SETUPS times (import once, then input generation,
model-file writing and one warm-up request each) and reports the median,
then runs a closed loop with one client for ``--seconds`` (and at least
MIN_SAMPLES requests).  ``--trace 1`` sets up once, then alternates untraced
and traced requests for ``--seconds`` and reports per-layer metrics per
request from the spans (see ``tracing.py``).  Every request's output is
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

BLAS and OpenMP thread counts are capped at the number of usable cores, and
CLI children inherit the cap.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUPS = 3  # set-ups per end-to-end run; setup_s is their median
MIN_TRACED = 3  # fewest traced (and untraced) requests in a traced run
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> int:
    """Keep every thread-count variable within 1..nproc; returns the BLAS cap."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= nproc:
            os.environ[var] = str(nproc)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


class Tally:
    """Attempted and failed requests; failures print to standard error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            for line in failures:
                print(f"request {self.attempted} failed: {line}", file=sys.stderr)


def attempt(workload, request, state, tally: Tally, tracer=None, request_id=None) -> float:
    """Run one request, check its output, and return its latency in seconds.

    With a tracer, the request runs inside a root span and the latency is
    that span's duration.  Checks run outside the timed region.
    """
    out, failures = None, []
    started = time.perf_counter()
    try:
        if tracer is None:
            out = request(state)
        else:
            with tracer.installed(), tracer.request(request_id) as root:
                out = request(state)
    except Exception:
        failures = [traceback.format_exc()]
    elapsed = time.perf_counter() - started
    if tracer is not None and not failures:
        elapsed = root.end - root.start
    if not failures:
        try:
            failures = workload.check(state, out)
        except Exception:
            failures = [f"output check raised: {traceback.format_exc()}"]
    tally.record(failures)
    return elapsed


def setup_once(workload, seed: int, workdir: Path, tally: Tally):
    """Generate inputs (writing model files) and run one checked warm-up request."""
    started = time.perf_counter()
    state = workload.setup(seed, workdir)
    generated = time.perf_counter() - started
    warmup = attempt(workload, workload.request, state, tally)
    return state, generated + warmup


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(workload, seed: int, seconds: float, import_s: float, workdir: Path):
    from stats import MIN_SAMPLES, latency_summary

    tally = Tally()
    setups = []
    for _ in range(SETUPS):
        state, took = setup_once(workload, seed, workdir, tally)
        setups.append(took)
    latencies = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(latencies) < MIN_SAMPLES:
        latencies.append(attempt(workload, workload.request, state, tally))
    summary = latency_summary(latencies)
    metrics = {
        "request_s.p50": (summary["p50"], "s"),
        "request_s.tail": (summary["tail"], "s"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    notes = {
        "request_s.p50": f"median of {summary['samples']} requests",
        "request_s.tail": f"p{summary['tail_percentile']:g} of {summary['samples']} requests",
        "setup_s": f"import {import_s:.4f} s + median of {SETUPS} set-ups",
        "peak_rss_mb": "max of benchmark process and CLI children",
    }
    detail = {"latencies_s": latencies, "setups_s": setups, "import_s": import_s}
    return state, tally, metrics, notes, detail


def import_probe(reps: int = 3) -> float:
    """Median time to import ``decohist.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import decohist.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=60)
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def traced(workload, seed: int, seconds: float, workdir: Path):
    import tracing

    tally = Tally()
    state, _ = setup_once(workload, seed, workdir, tally)
    request = getattr(workload, "request_in_process", workload.request)
    cli_import_s = import_probe()
    tracer = tracing.Tracer()
    plain, spanned = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or min(len(plain), len(spanned)) < MIN_TRACED:
        if i % 2 == 0:
            plain.append(attempt(workload, request, state, tally))
        else:
            spanned.append(attempt(workload, request, state, tally, tracer, request_id=i))
        i += 1
    breakdown = tracing.request_breakdown(tracer.spans)
    for rid, rec in breakdown.items():
        covered = sum(rec["self_s"].values())
        if abs(covered - rec["request_s"]) > 1e-9 * max(1.0, rec["request_s"]):
            raise RuntimeError(f"request {rid}: self times sum to {covered}, not {rec['request_s']}")
        if min(rec["self_s"].values()) < -1e-6:
            raise RuntimeError(f"request {rid}: negative self time {rec['self_s']}")
    metrics = layer_metrics(breakdown, cli_import_s,
                            statistics.median(spanned) / statistics.median(plain) - 1.0)
    notes = {"trace.overhead": f"median of {len(spanned)} traced / median of {len(plain)} untraced, - 1",
             "histories.ns_per_pair": f"base: {metrics['histories.pairs'][0]:g} pairs per request"}
    detail = {"untraced_s": plain, "traced_s": spanned,
              "spans": [s.as_dict() for s in tracer.spans]}
    return state, tally, metrics, notes, detail


def layer_metrics(breakdown: dict, cli_import_s: float, overhead: float) -> dict:
    """Per-request means of the per-layer numbers, as (value, unit) pairs."""
    n = len(breakdown)
    recs = list(breakdown.values())

    def self_s(layer):
        return sum(r["self_s"].get(layer, 0.0) for r in recs) / n

    def calls(layer):
        return sum(r["calls"].get(layer, 0) for r in recs) / n

    def count(key):
        return sum(r["counts"].get(key, 0) for r in recs) / n

    pairs = count("pairs")
    return {
        "model.build_s": (self_s("model.build"), "s"),
        "model.build_calls": (calls("model.build"), "count"),
        "model.heisenberg_s": (self_s("model.heisenberg"), "s"),
        "model.heisenberg_calls": (calls("model.heisenberg"), "count"),
        "linalg.s": (self_s("linalg"), "s"),
        "linalg.calls": (calls("linalg"), "count"),
        "histories.check_calls": (calls("histories.check"), "count"),
        "histories.pairs": (pairs, "count"),
        "histories.check_self_s": (self_s("histories.check"), "s"),
        "histories.ns_per_pair": (1e9 * self_s("histories.check") / pairs if pairs else 0.0, "ns"),
        "histories.pointwise_s": (self_s("histories.pointwise"), "s"),
        "histories.other_s": (self_s("histories.other"), "s"),
        "records.self_s": (self_s("records"), "s"),
        "records.calls": (calls("records"), "count"),
        "scenarios.oracle_s": (self_s("scenarios.oracle"), "s"),
        "scenarios.trajectories": (count("trajectories"), "count"),
        "modelfile.load_s": (self_s("modelfile"), "s"),
        "modelfile.bytes_read": (count("bytes_read"), "bytes"),
        "cli.import_s": (cli_import_s, "s"),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.report_bytes": (count("report_bytes"), "bytes"),
        "runtime.gc_s": (self_s("runtime.gc"), "s"),
        "runtime.gc_collections": (calls("runtime.gc"), "count"),
        "unattributed_s": (self_s("unattributed"), "s"),
        "trace.request_s": (sum(r["request_s"] for r in recs) / n, "s"),
        "trace.overhead": (overhead, "ratio"),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
            sizes[f"l{level}_bytes"] = int(size.rstrip("KM")) * scale
    return sizes


def _blas() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout: baseline.md names the measured commit
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def environment(blas_threads: int, state: dict) -> dict:
    import numpy

    arrays = [state["arrays"]] if "arrays" in state else list(state["models"].values())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **_cache_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "blas_threads": blas_threads,
        "commit": _commit(),
        "input_bytes": sum(a.nbytes() for a in arrays),
    }


def single_thread_diagnostic(args) -> dict:
    """Traced large-dim pass with one BLAS thread, in a child process."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", "large-dim",
            "--seed", str(args.seed), "--seconds", str(max(1, args.seconds // 4)), "--trace", "1"]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=90)
    except subprocess.TimeoutExpired:
        return {"error": "timed out after 90 s"}
    if proc.returncode != 0:
        return {"error": f"exit code {proc.returncode}"}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"blas_threads": 1, **{k: v["value"] for k, v in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one decohist benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "decohist" / "__init__.py").is_file():
        print(f"error: no decohist sources under {SRC}; run inside a full checkout",
              file=sys.stderr)
        return 2
    blas_threads = cap_threads()
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path[:0] = [str(HERE), str(SRC)]

    started = time.perf_counter()
    import workloads  # imports numpy and the decohist modules it calls

    import_s = time.perf_counter() - started
    import decohist

    if Path(decohist.__file__).resolve().parent != (SRC / "decohist").resolve():
        print(f"error: imported decohist from {decohist.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        state, tally, metrics, notes, detail = traced(workload, args.seed, args.seconds, workdir)
    else:
        state, tally, metrics, notes, detail = end_to_end(
            workload, args.seed, args.seconds, import_s, workdir)
    env = environment(blas_threads, state)
    if args.trace and workload.name == "large-dim" and blas_threads > 1:
        env["single_thread_large_dim"] = single_thread_diagnostic(args)

    error_rate = tally.failed / tally.attempted
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
    print(f"  {'error_rate':<24} {error_rate:>14.6g} {'ratio':<6} "
          f"{tally.failed} failed of {tally.attempted} attempted")
    print("environment " + json.dumps(env, sort_keys=True))
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "environment": env, "error_rate": error_rate, **detail}
    (workdir / f"trace{args.trace}.json").write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
