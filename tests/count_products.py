"""Count the matrix products that one request forms, per call site.

    python tests/count_products.py TREE [--workload NAME] [--seed N]
    python tests/count_products.py TREE --family DIM MEMBERS

TREE is a checkout with ``src/decohist`` and ``perfbench/``.  The package is
copied to a temporary directory, where an AST rewrite turns every ``@`` and
every ``np.matmul`` call into a call that counts it under its source site
(file, line and enclosing function).  The script then runs, in this process
and against that copy, one request of the named ``perfbench/workloads.py``
workload (``large-dim`` by default; a CLI workload runs its commands through
``decohist.cli.main``), or with ``--family`` builds one projector family of
MEMBERS Haar block projectors at dimension DIM.  For the family it also prints the bytes
of array data that the family keeps after construction, from tracemalloc (its members'
factors).  It prints, per call site, the number of
square products (both operands square matrices of one size, such as two
d x d operators) and of all products, then the totals.  Inputs and model
files go to the temporary directory; the script writes nothing under TREE.
"""

from __future__ import annotations

import argparse
import ast
import builtins
import shutil
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

COUNTER = "__count_matmul__"


class _CountMatmul(ast.NodeTransformer):
    """Replace ``a @ b`` and ``np.matmul(a, b, ...)`` by ``__count_matmul__(a, b, site, ...)``."""

    def __init__(self, filename: str):
        self.filename = filename
        self.scope: list[str] = []

    def _site(self, node: ast.AST) -> ast.Constant:
        where = ".".join(self.scope) or "<module>"
        return ast.Constant(f"{self.filename}:{node.lineno} {where}")

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()
        return node

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        self.generic_visit(node)
        if not isinstance(node.op, ast.MatMult):
            return node
        call = ast.Call(ast.Name(COUNTER, ast.Load()), [node.left, node.right, self._site(node)], [])
        return ast.copy_location(call, node)

    def visit_Call(self, node: ast.Call) -> ast.AST:
        self.generic_visit(node)
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "matmul"
                and isinstance(func.value, ast.Name) and func.value.id == "np"):
            return node
        call = ast.Call(ast.Name(COUNTER, ast.Load()), [*node.args[:2], self._site(node)],
                        node.keywords)
        return ast.copy_location(call, node)

    def visit_AugAssign(self, node: ast.AugAssign) -> ast.AST:
        self.generic_visit(node)
        if not isinstance(node.op, ast.MatMult):
            return node
        load = ast.Name(node.target.id, ast.Load()) if isinstance(node.target, ast.Name) else node.target
        call = ast.Call(ast.Name(COUNTER, ast.Load()), [load, node.value, self._site(node)], [])
        return ast.copy_location(ast.Assign([node.target], call), node)


def rewrite_package(tree: Path, dest: Path) -> None:
    """Copy ``tree/src/decohist`` to ``dest/decohist`` with every product counted."""
    package = dest / "decohist"
    shutil.copytree(tree / "src" / "decohist", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for path in package.glob("*.py"):
        module = _CountMatmul(path.name).visit(ast.parse(path.read_text(encoding="utf-8")))
        path.write_text(ast.unparse(ast.fix_missing_locations(module)) + "\n", encoding="utf-8")


def _counting(counts: Counter):
    def count_matmul(a, b, site, **kwargs):
        out = np.matmul(a, b, **kwargs)
        square = (np.ndim(a) == np.ndim(b) == 2 and a.shape[0] == a.shape[1]
                  and b.shape == a.shape)
        counts[site, square] += 1
        return out
    return count_matmul


def _haar_family(dim: int, members: int, seed: int) -> list[tuple[str, np.ndarray]]:
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    edges = np.linspace(0, dim, members + 1).astype(int)
    return [(f"m{j}", q[:, lo:hi] @ q[:, lo:hi].conj().T)
            for j, (lo, hi) in enumerate(zip(edges, edges[1:]))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("--workload", default="large-dim")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--family", type=int, nargs=2, metavar=("DIM", "MEMBERS"))
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    counts: Counter = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        rewrite_package(tree, work)
        setattr(builtins, COUNTER, _counting(counts))
        sys.path[:0] = [str(work), str(tree / "perfbench")]
        if args.family:
            from decohist import model
            members = _haar_family(*args.family, args.seed)
            counts.clear()
            tracemalloc.start()
            family = model.ProjectorFamily(1, members)  # noqa: F841 (held for the snapshot)
            arrays = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
            tracemalloc.stop()
            kept = sum(stat.size for stat in arrays.statistics("filename"))
            what = (f"one {args.family[1]}-member family at d = {args.family[0]} "
                    f"(it keeps {kept:,} bytes of arrays)")
        else:
            import workloads
            workload = workloads.WORKLOADS[args.workload]
            (work / "inputs").mkdir()
            state = workload.setup(args.seed, work / "inputs")
            request = getattr(workload, "request_in_process", workload.request)
            counts.clear()
            request(state)
            what = f"one {args.workload} request (seed {args.seed})"
    sites = sorted({site for site, _ in counts})
    print(f"matrix products in {what}, tree {tree}")
    print(f"{'square':>7} {'all':>7}  site")
    for site in sites:
        print(f"{counts[site, True]:7d} {counts[site, True] + counts[site, False]:7d}  {site}")
    square = sum(n for (_, sq), n in counts.items() if sq)
    print(f"{square:7d} {sum(counts.values()):7d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
