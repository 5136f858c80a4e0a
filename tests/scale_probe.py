"""Time the core's three stages on the rows of ROADMAP.md's state table.

    python tests/scale_probe.py [TREE] [--rows 1,3]

TREE is a checkout with ``src/decohist`` (default: this script's own).  Each
row is ``random_model(1, dim, families, 2, pure)`` and runs in a fresh
process with TREE's ``src`` first on ``PYTHONPATH``.  The process builds the
model, then validates its state, grid and families again from the arrays
already drawn (:func:`revalidate`), then times ``_rows`` (the walk), ``_gram``
and ``_measure`` (the Gram again plus the pair arrays, so the pair-array time
is ``_measure`` minus ``_gram``), each once, on the forwards weak check.  It
prints one line per row: the model build time (Haar draws included), the
validation time, the family data the model holds (the ``nbytes`` of its
families' factors and of any dense copies of members), the three stage times,
the tracemalloc peak of the three stages (numpy's arrays included) and the
process's peak RSS.
``--rows`` picks rows by number; the default runs them all, and the last
needs about 2 GB.  The script writes nothing, and it compares nothing: the
numbers are one run on whatever host runs it.
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

# (dim, families, pure) per row of the state table; every family has 2 members
ROWS = {1: (16, 10, True), 2: (256, 12, True), 3: (64, 12, False), 4: (1024, 12, True)}
HEADER = (f"{'row':>3}  {'dim':>4} {'fam':>3} {'state':<5} {'m':>5} {'pairs':>9}  "
          f"{'build_s':>7} {'valid_s':>7} {'fam_MiB':>8} {'walk_s':>7} {'gram_s':>7} {'pairs_s':>7}  "
          f"{'peak_MiB':>8} {'rss_MiB':>8}")


def family_bytes(families) -> int:
    """Bytes of family data: the factors and the dense member copies that ``families`` hold.

    Read from the private arrays of either layout (``_factors``, and the
    ``_members`` of a tree that kept dense copies), so any TREE can be probed.
    """
    held = (a for f in families
            for a in (*(getattr(f, "_factors", None) or ()), *getattr(f, "_members", ())))
    return sum(a.nbytes for a in held if a is not None)


def revalidate(model) -> None:
    """Build the model's state, grid and families again from its arrays, by the same constructors.

    A state from a vector is built :meth:`from_vector`, any other from its
    matrix; each family :meth:`from_basis`, with its factors side by side as
    the basis and one block of consecutive columns per member.  No Haar draw.
    """
    from decohist.model import ProjectorFamily, StateOperator, TimeGrid

    state = model.initial_state
    StateOperator.from_vector(state.vector) if state.vector is not None else StateOperator(state.rho)
    TimeGrid(model.grid.times, model.grid.step_unitaries)
    for family in model.families:
        ends = np.cumsum([q.shape[1] for q in family._factors])
        blocks = {label: range(end - q.shape[1], end)
                  for label, q, end in zip(family.labels, family._factors, ends)}
        ProjectorFamily.from_basis(family.time_index, np.hstack(family._factors), blocks)


def probe(row: int) -> str:
    """One row, in this process, as one line of the table."""
    from decohist.histories import TolerancePolicy, _gram, _measure, _rows
    from decohist.scenarios import random_model

    dim, families, pure = ROWS[row]
    start = time.perf_counter()
    model = random_model(1, dim, families, 2, pure)
    build = time.perf_counter() - start
    start = time.perf_counter()
    revalidate(model)
    valid = time.perf_counter() - start
    held = family_bytes(model.families)
    tracemalloc.start()
    start = time.perf_counter()
    rows = _rows(model)
    walk = time.perf_counter() - start
    start = time.perf_counter()
    gram = _gram(rows)
    gram_s = time.perf_counter() - start
    del gram  # _measure forms its own
    start = time.perf_counter()
    arrays = _measure(model, rows, 1.0, "weak", TolerancePolicy())[1]
    measure_s = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return (f"{row:>3}  {dim:>4} {families:>3} {'pure' if pure else 'mixed':<5} {len(rows):>5} "
            f"{arrays.i.size:>9}  {build:7.3f} {valid:7.3f} {held / 2**20:8.2f} {walk:7.3f} {gram_s:7.3f} "
            f"{measure_s - gram_s:7.3f}  "
            f"{peak / 2**20:8.1f} {rss:8.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, nargs="?", default=Path(__file__).resolve().parents[1])
    parser.add_argument("--rows", default=",".join(map(str, ROWS)),
                        help="comma-separated row numbers, from " + ", ".join(map(str, ROWS)))
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(probe(args.child))
        return 0
    rows = [int(r) for r in args.rows.split(",")]
    unknown = sorted(set(rows) - set(ROWS))
    if unknown:
        parser.error(f"no row {unknown[0]}; rows are {', '.join(map(str, ROWS))}")
    tree = args.tree.resolve()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    print(f"scale probe of {tree}")
    print(HEADER, flush=True)
    failed = 0
    for row in rows:
        proc = subprocess.run([sys.executable, __file__, str(tree), "--child", str(row)],
                              env=env, capture_output=True, text=True)
        if proc.returncode:
            failed += 1
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            print(f"{row:>3}  failed with exit code {proc.returncode}: {last}", flush=True)
        else:
            print(proc.stdout.strip(), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
