"""The CLI's input contract for final operators.

Hypothesis draws ``rho_final`` at scales from 1e-300 to 1e99, of rank 0 to 3,
at d = 2 to 16, and writes it into a model file beside a seeded random model.
``abl``, ``reverse`` and ``page`` run on it through ``cli.main`` with warnings
as errors.  Only the contract is asserted, not which exit is right for an
input: every run ends with a documented exit code (0, 1, 2, 64 or 65, never
70), an exit of 64 or 65 prints exactly one line to stderr, and no numpy
warning is raised (one would be an error, so exit 70, here).
"""

import contextlib
import io
import json
import tempfile
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from decohist import cli
from decohist.modelfile import model_to_dict
from decohist.scenarios import random_model

CONTRACT_EXITS = {cli.EXIT_DECOHERENT, cli.EXIT_NOT_DECOHERENT, cli.EXIT_MARGINAL,
                  cli.EXIT_USAGE, cli.EXIT_INVARIANT}


@lru_cache(maxsize=None)
def _model(dim: int):
    return random_model(dim, dim=dim, n_families=2, members_per_family=2)


def _run(*argv: str) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(list(argv))
    return code, err.getvalue()


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(st.integers(2, 16), st.integers(0, 3),
       st.one_of(st.floats(-300.0, 99.0), st.floats(-12.0, 12.0)),  # log10 of the scale
       st.booleans(), st.integers(0, 2**32 - 1))
def test_final_operators_meet_the_exit_contract(dim, rank, exponent, real, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((dim, min(rank, dim)))
    if not real:
        v = v + 1j * rng.standard_normal(v.shape)
    v /= np.linalg.norm(v, axis=0)
    rho_final = 10.0 ** exponent * (v @ v.conj().T) / max(rank, 1)
    with tempfile.TemporaryDirectory() as where:
        path = Path(where) / "model.json"
        path.write_text(json.dumps(model_to_dict(_model(dim), rho_final)), encoding="utf-8")
        for command in ("abl", "reverse", "page"):
            code, stderr = _run(command, "--model", str(path))
            assert code in CONTRACT_EXITS, (command, code, stderr)
            if code in (cli.EXIT_USAGE, cli.EXIT_INVARIANT):
                assert len(stderr.splitlines()) == 1, (command, stderr)
            assert "Warning" not in stderr, (command, stderr)
