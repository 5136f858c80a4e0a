"""Which proof decides each projector family of the benchmark's inputs, and the data it keeps.

    python tests/family_traffic.py [TREE] [--seeds N ...]

TREE is a checkout with ``src/decohist`` (default: this script's own); the
inputs come from the benchmark generator in this script's own checkout
(``perfbench/inputs.py``), so TREE needs only ``src/``.  For each seed (1,
2, 3, 301 and 401 by default) the script builds the families that the
``large-dim`` and ``cli-records`` workloads validate: the two 4-member
families of ``large-dim``; the two-member families of the ``reg6`` and
``reg4`` register models, read from the model files the CLI reads; and the
records family that ``records`` builds on ``reg4``.  It prints one row per
input and seed: how many families, their sizes, the proof that decided them
(``certificate`` when the factor certificate proved every one, ``dense rule``
when it proved none, ``mixed`` otherwise), how many are certified, how many
were offered to the certificate, the largest bound it gave among them (``-``
when none was offered, ``inf`` when it gave none), and the KiB of family data
they keep (:func:`scale_probe.family_bytes`).  The proof comes from each
family's ``certified`` and the offer from the calls of the certificate, so
TREE may be any checkout whose ``_factor_bounds`` returns the bound, alone
or after the factors.  Model files go to a temporary directory.
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402
from scale_probe import family_bytes  # noqa: E402


def _trace_families(model) -> list[tuple]:
    """Record (family, certified, the certificate's largest bound or None if not offered) of each family."""
    built, offered = [], []
    init, factor_bounds = model.ProjectorFamily.__init__, model._factor_bounds

    def bounded(*args):
        cert = factor_bounds(*args)  # the bound, (factors, bound), or None for no bound
        offered.append(math.inf if cert is None else cert[1] if isinstance(cert, tuple) else cert)
        return cert

    def traced(self, *args, **kwargs):
        offered.clear()
        init(self, *args, **kwargs)
        built.append((self, self.certified, offered[0] if offered else None))

    model._factor_bounds = bounded
    model.ProjectorFamily.__init__ = traced
    return built


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 301, 401])
    args = parser.parse_args()
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    from decohist import model
    from decohist.modelfile import load_model
    from decohist.records import construct_records

    built = _trace_families(model)
    print(f"family traffic of {args.tree.resolve()}")
    print(f"{'input':<14} {'seed':>5} {'families':>8} {'members':>8} {'proof':<11} {'certified':>9}"
          f" {'offered':>7} {'worst bound':>12} {'data_KiB':>9}")

    def row(name: str, seed: int, build):
        """Print the row of the families that ``build()`` validates, and return what it returns."""
        built.clear()
        result = build()
        bounds = [b for _, _, b in built if b is not None]
        certified = sum(c for _, c, _ in built)
        proof = "certificate" if certified == len(built) else "dense rule" if not certified else "mixed"
        print(f"{name:<14} {seed:>5} {len(built):>8} {','.join(sorted({str(len(f)) for f, _, _ in built})):>8}"
              f" {proof:<11} {certified:>9} {len(bounds):>7} {f'{max(bounds):.1e}' if bounds else '-':>12}"
              f" {family_bytes(f for f, _, _ in built) / 2**10:9.1f}")
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
