"""Which projector families of the benchmark's inputs the factor certificate decides.

    python tests/family_traffic.py [--seeds N ...]

For each seed (1, 2, 3, 301 and 401 by default) the script builds, from the
benchmark's own generator (``perfbench/inputs.py``), the families that the
``large-dim`` and ``cli-records`` workloads validate: the two 4-member
families of ``large-dim``; the two-member families of the ``reg6`` and
``reg4`` register models, read from the model files the CLI reads; and the
records family that ``records`` builds on ``reg4``.  It prints one row per
input and seed: how many families, their sizes, how many are certified, and
the largest bound of the factor certificate among them (``-`` when no family
is offered to it: fewer than 4 members, or a completeness defect above the
tolerance).  Model files go to a temporary directory.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402
from decohist import model  # noqa: E402
from decohist.modelfile import load_model  # noqa: E402
from decohist.records import construct_records  # noqa: E402


def _trace_families() -> list[tuple[int, bool, float | None]]:
    """Record (members, certified, the certificate's largest bound or None) of every family built."""
    built, offered = [], []
    init, factor_bounds = model.ProjectorFamily.__init__, model._factor_bounds

    def bounded(*args):
        cert = factor_bounds(*args)
        offered.append(None if cert is None else cert[1])
        return cert

    def traced(self, *args, **kwargs):
        offered.clear()
        init(self, *args, **kwargs)
        built.append((len(self), self.certified, offered[0] if offered else None))

    model._factor_bounds = bounded
    model.ProjectorFamily.__init__ = traced
    return built


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 301, 401])
    args = parser.parse_args()
    built = _trace_families()
    print(f"{'input':<14} {'seed':>5} {'families':>8} {'members':>8} {'certified':>9} {'worst bound':>12}")

    def row(name: str, seed: int, build):
        """Print the row of the families that ``build()`` validates, and return what it returns."""
        built.clear()
        result = build()
        bounds = [b for _, _, b in built if b is not None]
        print(f"{name:<14} {seed:>5} {len(built):>8} {','.join(sorted({str(n) for n, _, _ in built})):>8}"
              f" {sum(c for _, c, _ in built):>9} {f'{max(bounds):.1e}' if bounds else '-':>12}")
        return result

    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            arrays = inputs.haar_family_model(256, 2, 4, np.random.default_rng([seed, 2]),
                                              state_rank=4, final_rank=4)
            row("large-dim", seed, lambda: [model.ProjectorFamily(k + 1, members)
                                            for k, members in enumerate(arrays.families)])
            rng = np.random.default_rng([seed, 3])
            for key, n_qubits in (("reg6", 6), ("reg4", 4)):
                path = Path(tmp) / f"{key}.json"
                inputs.write_model_file(inputs.register_model(n_qubits, rng), path)
                loaded = row(key, seed, lambda: load_model(path)[0])
            row("reg4 records", seed,
                lambda: construct_records(loaded, loaded.initial_state.state_vector()))


if __name__ == "__main__":
    main()
