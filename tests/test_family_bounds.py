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
A rotation turns member a's range toward member b's and leaves both exact
projectors, so of the factor certificate's terms only eps, the bound on
every cross block Q_a^dagger Q_b, sees the overlap P_a P_b.
"""

from __future__ import annotations

import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decohist import linalg
from decohist.exceptions import ModelValidationError
from decohist.histories import CoarseGraining
from decohist.model import ATOL_MODEL, WARN_FACTOR, ProjectorFamily, QuantumModel, StateOperator, TimeGrid
from reference_family import dense_family_check

SCALES = (0.0, 0.3, 0.9, 1.1, 3.0, 9.0, 11.0, 1e3)
KINDS = ("hermiticity", "idempotence", "orthogonality", "completeness", "rotation")


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
    elif kind == "rotation":  # u_a turns by the angle eps toward u_b
        turned = np.cos(eps) * units[a] + np.sin(eps) * units[b]
        leak = np.outer(turned, turned.conj()) - np.outer(units[a], units[a].conj())
    else:
        leak = eps * np.outer(units[a], units[a].conj())
    members[a] = members[a] + leak
    if kind not in ("completeness", "rotation") and b != a:
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
# A member's range turned toward another's, in the warn band: each member is a
# projector, and only the certificate's eps bounds the overlap.
@example((8, "computational", 5, 2, "rotation", 3.0, (1, 3, 0), [0, 1, 2, 3, 4, 0]))
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
    """Shapes of the dense defects read, one each whether ``max_abs`` or ``defect`` reads it."""
    calls = []
    max_abs, defect = linalg.max_abs, linalg.defect

    def counted(a):
        calls.append(np.shape(a))
        return max_abs(a)

    def counted_defect(a, tol):
        calls.append(np.shape(a))
        n = len(calls)
        value = defect(a, tol)
        del calls[n:]  # the max_abs that defect falls back to reads the same array
        return value

    monkeypatch.setattr(linalg, "max_abs", counted)
    monkeypatch.setattr(linalg, "defect", counted_defect)
    return calls


def test_clean_families_skip_idempotence_products(max_abs_calls):
    rng = np.random.default_rng(4)
    u = _haar(32, rng)
    members = [(f"m{j}", u[:, 8 * j:8 * j + 8] @ u[:, 8 * j:8 * j + 8].conj().T) for j in range(4)]
    ProjectorFamily(1, members)
    # no Hermiticity defect and no orthogonality product (the factor
    # certificate bounds all 4 members and 6 pairs), 1 completeness defect
    assert len(max_abs_calls) == 0 + 0 + 1


def test_idempotence_is_multiplied_out_where_the_bound_fails(max_abs_calls):
    p = np.diag([1.0, 0.0, 0.0]).astype(complex)
    q = np.eye(3) - p
    q[1, 1] += 2e-9  # a completeness defect that voids the bound of both members
    with pytest.raises(ModelValidationError, match="'b' idempotence"):
        ProjectorFamily(1, [("a", p), ("b", q)])
    # Hermiticity of a and b, the pair, completeness, and both idempotence products
    assert len(max_abs_calls) == 6


def test_rank_one_families_form_no_pair_product(max_abs_calls):
    u = _haar(16, np.random.default_rng(5))
    ProjectorFamily(1, [(f"m{j}", np.outer(u[:, j], u[:, j].conj())) for j in range(16)])
    # the completeness defect only: no Hermiticity, pair or idempotence product
    assert len(max_abs_calls) == 0 + 0 + 1


def test_two_member_families_form_no_pair_product(max_abs_calls):
    # a complete family is offered to the certificate whatever its size
    u = _haar(8, np.random.default_rng(6))
    family = ProjectorFamily(1, [("lo", u[:, :3] @ u[:, :3].conj().T), ("hi", u[:, 3:] @ u[:, 3:].conj().T)])
    # the completeness defect only: no Hermiticity, pair or idempotence product
    assert len(max_abs_calls) == 0 + 0 + 1 and family.certified


def _zero_member() -> list[tuple[str, np.ndarray]]:
    eye = np.eye(8, dtype=complex)
    blocks = [eye[:, :2], eye[:, 2:4], eye[:, :0], eye[:, 4:6], eye[:, 6:]]
    return [(f"m{j}", b @ b.conj().T) for j, b in enumerate(blocks)]


def _equal_pivot_columns() -> list[tuple[str, np.ndarray]]:
    # The rank-2 member's two largest diagonal entries (1/2, 1/2) sit on equal
    # columns, so the Cholesky factor of that 2 x 2 block does not exist.
    vectors = [[(1, 1, 0, 0, 0), (0, 0, 1, 1, 1)], [(1, -1, 0, 0, 0)],
               [(0, 0, 1, -1, 0)], [(0, 0, 1, 1, -2)]]
    members = []
    for j, vs in enumerate(vectors):
        v = np.array(vs, dtype=complex).T
        v /= np.linalg.norm(v, axis=0)
        members.append((f"m{j}", v @ v.conj().T))
    return members


def _perturbed_equal_pivot_columns() -> list[tuple[str, np.ndarray]]:
    # The projector onto span{(e1 + e2)/sqrt(2), (e3 + e4)/sqrt(2)} plus indefinite
    # noise on its null space (eigenvalues about +-5e-11, diagonal 1e-13), and its
    # complement: the member's static-pivot factor fails, and its pivoted Cholesky
    # factor takes a 1e-13 pivot whose column is about 1e-4, which no residual certifies.
    s = 1 / np.sqrt(2)
    v = np.array([[s, s, 0, 0], [0, 0, s, s]], dtype=complex).T
    n = np.array([[s, -s, 0, 0], [0, 0, s, -s]], dtype=complex).T
    p = v @ v.conj().T + n @ np.array([[1e-13, 5e-11], [5e-11, 1e-13]]) @ n.conj().T
    return [("m0", p), ("m1", np.eye(4) - p)]


def _short_ranks() -> list[tuple[str, np.ndarray]]:
    # Four members whose ranks sum to 5 of 6: completeness fails.
    eye = np.eye(6, dtype=complex)
    return [(f"m{j}", eye[:, lo:hi] @ eye[:, lo:hi].T) for j, (lo, hi) in enumerate(
        [(0, 1), (1, 2), (2, 3), (3, 5)])]


def _orthogonality_leak(scale: float) -> list[tuple[str, np.ndarray]]:
    # e_a turned toward e_b by scale * ATOL_MODEL: max |P_a P_b| is about that angle
    return _family((8, "computational", 5, 0, "rotation", scale, (0, 2, 0), [0] * 6))[0]


# max_abs calls: the Hermiticity defects, idempotence products and pair products
# that the bounds leave, and the completeness defect; and whether the family is
# certified (None: it is rejected).  The certificate cannot prove a leak's pair,
# so the leaks take the dense rule whole, Hermiticity passes included.
@pytest.mark.parametrize("members, calls, certified", [
    (_zero_member(), 0 + 0 + 0 + 1, True),
    (_equal_pivot_columns(), 4 + 0 + 6 + 1, False),
    (_perturbed_equal_pivot_columns(), 2 + 1 + 1 + 1, False),
    (_short_ranks(), 4 + 4 + 6 + 1, None),
    (_orthogonality_leak(0.9), 5 + 5 + 10 + 1, False),
    (_orthogonality_leak(1.1), 5 + 5 + 10 + 1, False),
], ids=["zero-member", "equal-pivot-columns", "perturbed-equal-pivot-columns", "short-ranks", "leak-0.9", "leak-1.1"])
def test_certificate_edge_cases_match_the_dense_rule(members, calls, certified, max_abs_calls):
    got = _outcome(lambda: ProjectorFamily(1, members))
    assert got == _outcome(lambda: dense_family_check(members))
    assert len(max_abs_calls) == calls
    assert (certified is None) == got[0].startswith("rejected")
    if certified is None:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        family = ProjectorFamily(1, members)
    assert family.certified == certified
    # every family keeps factors, read back within the tolerance of its inputs
    # (ten times it for a family whose checks warned); the equal pivot columns
    # leave the static-pivot factor to the member's certified pivoted Cholesky
    # factor, and the perturbed ones to its spectral columns, which leave out
    # the eigenvalues within the floor: one column per unit of tr P_a
    limit = (WARN_FACTOR if got[1] else 1.0) * ATOL_MODEL
    assert all(np.abs(q - p).max() <= limit for (_, p), q in zip(members, family.projectors))
    assert [q.shape[1] for q in family._factors] == [round(np.trace(p).real) for _, p in members]


def test_count_products_reports_a_certified_family():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "tests" / "count_products.py"), str(root),
                           "--family", "32", "4"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(None, 2) for line in proc.stdout.splitlines()[2:]]
    sites = {site: (int(square), int(total)) for square, total, site in rows}
    # the family keeps its factors, d^2 complex numbers, and no dense member
    assert "(it keeps 16,384 bytes of arrays)" in proc.stdout.splitlines()[0]
    # one factor block and one residual product per member, no square product
    assert sites.pop("total") == (0, 8)
    assert sorted(site.split()[-1] for site in sites) == ["_factor_columns", "_factor_columns"]
    assert set(sites.values()) == {(0, 4)}


def test_family_traffic_reports_the_proof_and_data_of_each_input():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "tests" / "family_traffic.py"), str(root),
                           "--seeds", "1"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = {line[:14].strip(): line[14:].split() for line in proc.stdout.splitlines()[2:]}
    # input: (families, members, proof, dim); every family is complete, so each is
    # offered to the certificate and proven by it, and keeps d^2 complex numbers
    expected = {"large-dim": ("2", "4", "certificate", 256), "reg6": ("6", "2", "certificate", 64),
                "reg4": ("4", "2", "certificate", 16), "reg4 records": ("1", "16", "certificate", 16)}
    assert rows.keys() == expected.keys()
    for name, (families, members, proof, dim) in expected.items():
        seed, n, sizes, kind, *rest = rows[name]
        assert (seed, n, sizes, kind) == ("1", families, members, proof)
        assert rest[-4] == rest[-3] == families  # certified, offered
        assert float(rest[-1]) == int(families) * dim * dim * 16 / 2**10
