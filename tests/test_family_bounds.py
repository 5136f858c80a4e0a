"""Projector families proven idempotent from their orthogonality products.

``ProjectorFamily`` skips a member's idempotence product when a rigorous
bound shows the dense check would pass silently.  Here hypothesis draws
families (Haar block projectors, computational-basis projectors, one-member
identities), perturbs them at multiples of the tolerance around the warn and
reject thresholds, and compares the outcome, the exception text and the
ordered warnings with the dense rule in ``reference_family``, for the
families and for their merges through ``CoarseGraining.coarse_model``.

The perturbations are shaped so that each term of the bound matters: a
member that grows along its own range breaks completeness and idempotence
but no computed product (the P_a C term); a non-Hermitian leak
|u_b><u_c| moved from member b to member a breaks the idempotence of a only
through P_a P_c, which for c < a is never computed (the Hermiticity terms).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decohist import linalg
from decohist.exceptions import ModelValidationError
from decohist.histories import CoarseGraining
from decohist.model import ATOL_MODEL, ProjectorFamily, QuantumModel, StateOperator, TimeGrid
from reference_family import dense_family_check

SCALES = (0.0, 0.3, 0.9, 1.1, 3.0, 9.0, 11.0, 1e3)
KINDS = ("hermiticity", "idempotence", "orthogonality", "completeness")


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _family(case) -> tuple[list[tuple[str, np.ndarray]], list[int]]:
    """Members (label, matrix) and, per member, the index of its merge block."""
    dim, basis, n, seed, kind, scale, (a, b, c), blocks = case
    rng = np.random.default_rng(seed)
    if basis == "identity":
        n = 1
    cuts = sorted(rng.choice(np.arange(1, dim), size=n - 1, replace=False).tolist()) if n > 1 else []
    edges = [0, *cuts, dim]
    u = _haar(dim, rng) if basis == "haar" else np.eye(dim, dtype=complex)
    members = [u[:, lo:hi] @ u[:, lo:hi].conj().T for lo, hi in zip(edges, edges[1:])]
    units = [u[:, lo] for lo in edges[:-1]]  # one unit vector in each member's range
    a, b, c = a % n, b % n, c % n
    eps = scale * ATOL_MODEL
    if kind == "hermiticity":
        leak = eps * np.outer(units[b], units[c].conj())
    elif kind == "orthogonality":
        leak = eps * (np.outer(units[a], units[b].conj()) + np.outer(units[b], units[a].conj()))
    else:
        leak = eps * np.outer(units[a], units[a].conj())
    members[a] = members[a] + leak
    if kind != "completeness" and b != a:
        members[b] = members[b] - leak
    return [(f"m{j}", p) for j, p in enumerate(members)], [k % n for k in blocks[:n]]


def _outcome(build) -> tuple[str, list[str]]:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            build()
            result = "accepted"
        except ModelValidationError as exc:
            result = f"rejected: {exc}"
    return result, [str(w.message) for w in caught]


cases = st.tuples(
    st.integers(1, 24),
    st.sampled_from(("haar", "computational", "identity")),
    st.integers(1, 6),
    st.integers(0, 2 ** 16),
    st.sampled_from(KINDS),
    st.sampled_from(SCALES),
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    st.lists(st.integers(0, 5), min_size=6, max_size=6),
).map(lambda t: (t[0], t[1], min(t[2], t[0]), *t[3:]))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(cases)
# A leak |u_2><u_0| from member 2 into member 1, inside the warn band: only
# the Hermiticity terms of P_1 P_0 show that member 1 is not idempotent.
@example((12, "haar", 3, 7, "hermiticity", 3.0, (1, 2, 0), [0, 0, 1, 0, 0, 0]))
@example((6, "computational", 3, 1, "hermiticity", 3.0, (1, 2, 0), [0, 1, 1, 0, 0, 0]))
# A member grown along its own range: only P_a C shows the idempotence defect.
@example((9, "haar", 3, 3, "completeness", 3.0, (0, 0, 0), [0, 0, 1, 0, 0, 0]))
@example((4, "identity", 1, 0, "completeness", 11.0, (0, 0, 0), [0, 0, 0, 0, 0, 0]))
def test_family_verdicts_match_the_dense_rule(case):
    members, assignment = _family(case)
    got = _outcome(lambda: ProjectorFamily(1, members))
    assert got == _outcome(lambda: dense_family_check(members))
    if got[0] != "accepted" or len(set(assignment)) == len(assignment):
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fine = ProjectorFamily(1, members)
    dim = fine.dim
    model = QuantumModel(StateOperator(np.eye(dim) / dim), TimeGrid([0.0, 1.0, 2.0], [np.eye(dim)] * 2),
                         [fine])
    blocks = {}
    for label, k in zip(fine.labels, assignment):
        blocks.setdefault(f"B{k}", []).append(label)
    merged = [(label, sum(fine.member(m) for m in block)) for label, block in blocks.items()]
    graining = CoarseGraining((blocks,))
    assert _outcome(lambda: graining.coarse_model(model)) == _outcome(lambda: dense_family_check(merged))


@pytest.fixture
def max_abs_calls(monkeypatch):
    calls = []
    max_abs = linalg.max_abs

    def counted(a):
        calls.append(np.shape(a))
        return max_abs(a)

    monkeypatch.setattr(linalg, "max_abs", counted)
    return calls


def test_clean_families_skip_idempotence_products(max_abs_calls):
    rng = np.random.default_rng(4)
    u = _haar(32, rng)
    members = [(f"m{j}", u[:, 8 * j:8 * j + 8] @ u[:, 8 * j:8 * j + 8].conj().T) for j in range(4)]
    ProjectorFamily(1, members)
    # 4 Hermiticity defects, 6 orthogonality products, 1 completeness defect
    assert len(max_abs_calls) == 4 + 6 + 1


def test_idempotence_is_multiplied_out_where_the_bound_fails(max_abs_calls):
    p = np.diag([1.0, 0.0, 0.0]).astype(complex)
    q = np.eye(3) - p
    q[1, 1] += 2e-9  # a completeness defect that voids the bound of both members
    with pytest.raises(ModelValidationError, match="'b' idempotence"):
        ProjectorFamily(1, [("a", p), ("b", q)])
    # Hermiticity of a and b, the pair, completeness, and both idempotence products
    assert len(max_abs_calls) == 6
