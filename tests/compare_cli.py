"""Run the CLI command list against two source trees and compare the output.

    python tests/compare_cli.py OLD_TREE NEW_TREE [--commands FILE] [--workdir DIR]
                                [--threads OLD,NEW]

Each tree is a checkout with ``src/decohist``.  Every command of the list
(``tests/cli_commands.txt`` by default) runs as ``python -m decohist.cli``
with that tree's ``src`` first on ``PYTHONPATH``, its BLAS thread count
(``--threads``, one for each tree by default), and its own working directory
holding the fixture files, so the two runs see the same relative paths.
``python tests/compare_cli.py . . --threads 1,2`` compares one tree at one
and at two threads.  A command differs when its exit code, its stderr, its
stdout or a file it wrote with ``--out`` differ.  Stdout and ``--out`` files
are compared by content, not layout: text that parses as JSON loses its
top-level ``timing_s`` and is compared as ``json.dumps(obj, indent=2)``, and
other text as it is.  In stderr the tree's ``src`` path becomes ``<src>`` and
the line number after a source file name is dropped, so that moving a line
that a warning names is no difference.  The script prints one line per
differing command and a summary, and exits 1 if any command differs.

Each differing command gets one label.  With equal exit codes and stderr,
it is "row order only" when its JSON outputs are equal once the rows of
every list of objects are sorted, "float values only" when they are equal
once every float is masked (rows in the same order), and "row order and
float values" when they are equal once floats are masked and rows sorted;
anything else is "other".  Beside the label each line prints the largest
absolute difference between the two outputs' floats, with the rows of every
list of objects sorted as for "row order only", and where it lies
(``stdout.result.forwards.pair_table[].measure``), or ``-`` when the outputs
do not match up float for float.  That difference leaves out ``ratio``
fields: a ratio is a measure over its threshold, both compared on their
own, and dividing by a small threshold magnifies last-digit noise.  Ratios
still count toward the label.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SOURCE_LINE = re.compile(r"(<src>\S*?\.py):\d+:")


def canonical(text: str) -> str:
    """JSON text re-indented without its top-level ``timing_s``; other text as it is."""
    try:
        obj = json.loads(text)
    except ValueError:
        return text
    if isinstance(obj, dict):
        obj.pop("timing_s", None)
    return json.dumps(obj, indent=2)


def _sorted_rows(obj):
    """``obj`` with every list of objects sorted by the rows' JSON text, first with floats masked.

    Rows are ordered by what is not a float before their floats, so float
    noise does not pair a row of one output with another row of the other.
    """
    if isinstance(obj, dict):
        return {k: _sorted_rows(v) for k, v in obj.items()}
    if isinstance(obj, list):
        items = [_sorted_rows(v) for v in obj]
        if not all(isinstance(v, dict) for v in items):
            return items
        return sorted(items, key=lambda v: (json.dumps(_floats_masked(v)), json.dumps(v)))
    return obj


def _floats_masked(obj):
    """``obj`` with every float replaced by one placeholder."""
    if isinstance(obj, dict):
        return {k: _floats_masked(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_floats_masked(v) for v in obj]
    return "<float>" if isinstance(obj, float) else obj


def _float_gap(a, b, where: str = "") -> tuple[float, str]:
    """Largest |x - y| over the floats x, y at the same place of ``a`` and ``b``, and that place.

    A place is the path of keys, with ``[]`` for a list's items; the floats
    under a ``ratio`` key are matched up but left out of the maximum.
    ValueError when ``a`` and ``b`` differ in anything but their floats.
    """
    if isinstance(a, float) and isinstance(b, float):
        return (0.0 if a == b or (math.isnan(a) and math.isnan(b)) else abs(a - b)), where
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        gaps = {k: _float_gap(a[k], b[k], f"{where}.{k}") for k in a}
        return max((gap for k, gap in gaps.items() if k != "ratio"), default=(0.0, where))
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((_float_gap(x, y, f"{where}[]") for x, y in zip(a, b)), default=(0.0, where))
    if type(a) is type(b) and a == b:
        return 0.0, where
    raise ValueError("the outputs do not match up float for float")


def largest_difference(old: tuple, new: tuple) -> tuple[float, str] | None:
    """The largest float difference between two outcomes' JSON outputs, rows sorted, and its place.

    The place starts with ``stdout`` or ``out``; None when the outputs do
    not match up float for float or are not JSON.
    """
    try:
        a, b = ([_sorted_rows(json.loads(text)) if text else text for text in o[2:]] for o in (old, new))
        return max(_float_gap(x, y, part) for x, y, part in zip(a, b, ("stdout", "out")))
    except ValueError:
        return None


def label(old: tuple, new: tuple) -> str:
    """How two differing outcomes (exit code, stderr, stdout, --out file) differ."""
    if old[:2] != new[:2]:
        return "other"
    try:
        a, b = ([json.loads(text) if text else text for text in o[2:]] for o in (old, new))
    except ValueError:
        return "other"
    if _sorted_rows(a) == _sorted_rows(b):
        return "row order only"
    masked = [_floats_masked(x) for x in (a, b)]
    if masked[0] == masked[1]:
        return "float values only"
    if _sorted_rows(masked[0]) == _sorted_rows(masked[1]):
        return "row order and float values"
    return "other"


def read_commands(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.lstrip().startswith("#")]


def run(tree: Path, argv: list[str], cwd: Path, threads: str = "1") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    return subprocess.run([sys.executable, "-m", "decohist.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def _pairs(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def write_fixtures(tree: Path, where: Path) -> None:
    """Model files derived from ``tree``'s emitted scenarios, plus the register models.

    The register models come from the benchmark generator in this script's
    own checkout (``perfbench/inputs.py``), so ``tree`` needs only ``src/``.
    """
    for name, params in (("spin", ["a=0.6"]), ("spin-post", []), ("spin-symmetric", [])):
        proc = run(tree, ["scenario", "emit", name, *params, "--out", f"base-{name}.json"], where)
        if proc.returncode != 0:
            raise SystemExit(f"cannot emit the {name} fixture:\n{proc.stderr}")
    spin = json.loads((where / "base-spin.json").read_text(encoding="utf-8"))
    for family in spin["families"]:
        family["projectors"].reverse()
    post = json.loads((where / "base-spin-post.json").read_text(encoding="utf-8"))
    finals = {
        "spin-post-rank1": [[0.5, 0.5], [0.5, 0.5]],
        "spin-post-rank2": [[0.7, 0.1], [0.1, 0.3]],
        "spin-post-nonherm": [[0.5, 0.2], [0.0, 0.5]],
    }
    files = {"label-order": spin}
    # Time reversal in the antisymmetric basis i sigma_y (x) 1_9, so B B^* = -1.
    symmetric = json.loads((where / "base-spin-symmetric.json").read_text(encoding="utf-8"))
    files["spin-symmetric-sigma-y"] = dict(
        symmetric, conjugation_basis=_pairs(np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(9))))
    # Final operators other than 1 that pass every page precondition: the
    # state itself (rank one, a certified factor) and 1e6 times it (factored
    # by eigenvalues, since the certificate's rounding allowance grows with
    # the trace).
    psi = np.array(symmetric["initial_state"], dtype=float)  # the file stores the vector
    psi = psi[:, 0] + 1j * psi[:, 1]
    rho_i = np.outer(psi, psi.conj())
    for name, scale in (("spin-symmetric-final-state", 1.0), ("spin-symmetric-final-large", 1e6)):
        files[name] = dict(symmetric, rho_final=_pairs(scale * rho_i))
    for name, rho_f in finals.items():
        files[name] = dict(post, rho_final=_pairs(rho_f))
    files["mixed-rank2"] = dict(post, initial_state=_pairs([[0.6, 0.1], [0.1, 0.4]]),
                                rho_final=_pairs([[0.7, 0.1], [0.1, 0.3]]))
    nan = json.loads(json.dumps(post))
    nan["steps"][0] = {"unitary": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [float("nan"), 0.0]]]}
    files["nan"] = nan
    # z+ grown by 3e-10 along itself: idempotence and completeness warn.
    # A non-Hermitian leak of 1e-8 moved from z- into z+: rejected.
    for name, z_plus, z_minus in (("family-warn", [[1.0 + 3e-10, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]),
                                  ("family-reject", [[1.0, 0.0], [1e-8, 0.0]], [[0.0, 0.0], [-1e-8, 1.0]])):
        bad = json.loads(json.dumps(post))
        bad["families"][0]["projectors"] = [{"label": "z+", "matrix": _pairs(z_plus)},
                                            {"label": "z-", "matrix": _pairs(z_minus)}]
        files[name] = bad
    for name, data in files.items():
        (where / f"{name}.json").write_text(json.dumps(data, indent=2), encoding="utf-8")
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    import inputs  # the benchmark's numpy-only generator

    rng = np.random.default_rng([1, 3])
    for key, n in (("reg6", 6), ("reg4", 4)):
        inputs.write_model_file(inputs.register_model(n, rng), where / f"{key}.json")


def outcome(tree: Path, argv: list[str], cwd: Path, threads: str) -> tuple:
    proc = run(tree, argv, cwd, threads)
    written = None
    if "--out" in argv:
        out = cwd / argv[argv.index("--out") + 1]
        written = canonical(out.read_text(encoding="utf-8")) if out.exists() else None
    stderr = SOURCE_LINE.sub(r"\1:", proc.stderr.replace(str(tree / "src"), "<src>"))
    return proc.returncode, stderr, canonical(proc.stdout), written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--commands", type=Path, default=HERE / "cli_commands.txt")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="directory for fixtures and outputs (a temporary one by default)")
    parser.add_argument("--threads", default="1,1", metavar="OLD,NEW",
                        help="BLAS thread counts of the old and the new tree's runs (default 1,1)")
    args = parser.parse_args(argv)
    threads = args.threads.split(",")
    if len(threads) != 2 or not all(t.isdigit() and int(t) > 0 for t in threads):
        parser.error(f"--threads {args.threads!r}: expected two positive counts, OLD,NEW")
    commands = read_commands(args.commands)
    root = Path(tempfile.mkdtemp(prefix="compare-cli-")) if args.workdir is None else args.workdir
    fixtures = root / "fixtures"
    fixtures.mkdir(parents=True, exist_ok=True)
    write_fixtures(args.old.resolve(), fixtures)
    dirs = []
    for tag in ("old", "new"):
        shutil.copytree(fixtures, root / tag, dirs_exist_ok=True)
        dirs.append(root / tag)
    parts = ("exit code", "stderr", "stdout", "--out file")
    labels = Counter()
    for command in commands:
        old = outcome(args.old.resolve(), command, dirs[0], threads[0])
        new = outcome(args.new.resolve(), command, dirs[1], threads[1])
        diff = [name for name, a, b in zip(parts, old, new) if a != b]
        if diff:
            kind = label(old, new)
            labels[kind] += 1
            gap = largest_difference(old, new)
            print(f"DIFFERS [{kind}] ({', '.join(diff)}; largest float difference "
                  f"{'-' if gap is None else f'{gap[0]:.2e} at {gap[1]}'}): decohist {shlex.join(command)}")
    differing = sum(labels.values())
    kinds = ", ".join(f"{n} {kind}" for kind, n in sorted(labels.items()))
    print(f"{len(commands)} commands, {len(commands) - differing} identical, {differing} differing"
          f"{f' ({kinds})' if kinds else ''} (outputs in {root})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
