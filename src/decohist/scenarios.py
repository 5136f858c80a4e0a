"""Built-in models, the collapse-chain oracle, pre/post-selection, recoherence.

The spin scenario is an 18-dimensional system: a spin-1/2 particle and two
three-state pointers (ready/up/down).  The first step unitary copies the
particle's x-component onto pointer 1, the second copies the z-component onto
pointer 2, and the families ask "x up or down?" then "z up or down?" of the
particle alone.  This single model exercises almost every operation in the
package: it decoheres forwards but not backwards (unless |alpha|^2 = 1/2),
its branches are orthogonal pointer states, and with real amplitudes its
mirror extension recoheres.

``collapse_chain_enumerate`` and ``reverse_collapse_chain`` run every
outcome sequence, level by level, with explicit project-and-renormalize
steps; they are deliberately independent of the chain machinery in
:mod:`decohist.histories` so the two can check each other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import DegenerateNormalizationError, ModelValidationError
from .histories import (
    TABLE_ATOL,
    DecoherenceReport,
    TimeReversedSet,
    TolerancePolicy,
    _check_memory,
    _measure,
    _overlaps,
    _walk,
    check_decoherence,
    time_reversed_history_set,
)
from .model import (
    ATOL_MODEL,
    ProjectorFamily,
    QuantumModel,
    StateOperator,
    TimeGrid,
    _reverse_in_basis,
    _states_at,
    evolve_state,
    partial_trace,
)

__all__ = [
    "CollapseTrajectory",
    "RecoherenceAnalysis",
    "abl_probability",
    "abl_table",
    "collapse_chain_enumerate",
    "collapse_probability_table",
    "commuting_random_model",
    "haar_unitary",
    "random_model",
    "recoherence_scenario",
    "reverse_collapse_chain",
    "spin_model",
    "spin_post_selection",
    "spin_recoherence_base",
    "spin_symmetric_scenario",
]

PLUS_X = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
MINUS_X = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
PLUS_Z = np.array([1.0, 0.0], dtype=complex)

# Pointer basis order: 0 = ready, 1 = "up" record, 2 = "down" record.
_POINTER_DIM = 3


def _pointer_cycle(sign: str) -> np.ndarray:
    """Permutation the premeasurement applies to a pointer: ready -> record.

    The action on already-set pointers is a fixed cyclic completion, which
    makes the conditional map unitary without touching the reached states.
    """
    c = np.zeros((_POINTER_DIM, _POINTER_DIM), dtype=complex)
    order = (0, 1, 2) if sign == "+" else (0, 2, 1)
    for i, j in zip(order, order[1:] + order[:1]):
        c[j, i] = 1.0
    return c


def _premeasurement(projectors, pointer_slot: int) -> np.ndarray:
    """Controlled pointer shift: sum_s P_s (x) cycle_s on the chosen pointer."""
    out = np.zeros((2 * _POINTER_DIM * _POINTER_DIM,) * 2, dtype=complex)
    for sign, p in projectors:
        factors = [p, np.eye(_POINTER_DIM), np.eye(_POINTER_DIM)]
        factors[pointer_slot] = _pointer_cycle(sign)
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        out += term
    return out


def _spin_projectors(axis: np.ndarray) -> list[tuple[str, np.ndarray]]:
    return [("+", np.outer(axis, axis.conj()))] + [
        ("-", np.eye(2, dtype=complex) - np.outer(axis, axis.conj()))
    ]


def _spin_parts(alpha, beta):
    """psi_0, the x and z premeasurements, and the x and z families at grid indices 1, 2.

    The particle is in alpha |+x> + beta |-x> with both pointers ready.
    """
    ready = np.zeros(_POINTER_DIM, dtype=complex)
    ready[0] = 1.0
    psi0 = np.kron(np.kron(alpha * PLUS_X + beta * MINUS_X, ready), ready)
    u1 = _premeasurement(_spin_projectors(PLUS_X), pointer_slot=1)
    u2 = _premeasurement(_spin_projectors(PLUS_Z), pointer_slot=2)
    eye9 = np.eye(_POINTER_DIM * _POINTER_DIM)
    families = [
        ProjectorFamily(1, [(f"x{s}", np.kron(p, eye9)) for s, p in _spin_projectors(PLUS_X)]),
        ProjectorFamily(2, [(f"z{s}", np.kron(p, eye9)) for s, p in _spin_projectors(PLUS_Z)]),
    ]
    return psi0, u1, u2, families


def spin_model(alpha: complex, beta: complex | None = None) -> QuantumModel:
    """Two consecutive premeasurements of a spin-1/2, x then z.

    The particle starts in alpha |+x> + beta |-x| with both pointers ready;
    |alpha|^2 + |beta|^2 must be 1.  Families (one per measurement time) ask
    about the particle only.  Forwards probabilities come out as
    (p/2, p/2, q/2, q/2) with p = |alpha|^2, backwards all 1/4.
    """
    alpha = complex(alpha)
    if beta is None:
        if abs(alpha) > 1.0 + 1e-12:
            raise ModelValidationError(f"|alpha| = {abs(alpha)!r} exceeds 1")
        beta = complex(np.sqrt(max(0.0, 1.0 - abs(alpha) ** 2)))
    beta = complex(beta)
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-12:
        raise ModelValidationError(
            f"amplitudes not normalized: |alpha|^2 + |beta|^2 = {abs(alpha)**2 + abs(beta)**2!r}"
        )
    psi0, u1, u2, families = _spin_parts(alpha, beta)
    grid = TimeGrid([0.0, 1.0, 2.0, 3.0], [u1, u2, np.eye(psi0.size, dtype=complex)])
    return QuantumModel(StateOperator.from_vector(psi0), grid, families,
                        factors=(2, _POINTER_DIM, _POINTER_DIM))


def spin_post_selection() -> tuple[QuantumModel, np.ndarray, np.ndarray]:
    """Bare spin-1/2 with one z family and trivial dynamics, plus pre/post states.

    Returns (model, psi_initial, psi_final) with psi_initial = |+x> and
    psi_final = |+z>; conditioning on that final state forces the z+ outcome.
    """
    eye = np.eye(2, dtype=complex)
    grid = TimeGrid([0.0, 1.0, 2.0], [eye, eye])
    family = ProjectorFamily(1, [(f"z{s}", p) for s, p in _spin_projectors(PLUS_Z)])
    model = QuantumModel(StateOperator.from_vector(PLUS_X), grid, [family], factors=(2,))
    return model, PLUS_X.copy(), PLUS_Z.copy()


@dataclass
class CollapseTrajectory:
    """One outcome sequence of the project-and-renormalize evolution.

    ``labels`` are time-ordered.  For pure models ``states`` holds the
    normalized state after each projection and finally after the trailing
    evolution; it is ``None`` for mixed models (the probabilities are then
    aggregated over the columns of the state's factor).  For reverse chains the
    states follow the reverse procedure, ending at the reconstructed
    earliest-time state.
    """

    labels: tuple
    probability: float
    states: list[np.ndarray] | None = None


def _collapse_levels(model: QuantumModel, cols: np.ndarray, pure: bool,
                     backwards: bool = False) -> list[CollapseTrajectory]:
    """Project and renormalize along every outcome sequence, one level per family.

    A mixed run starts each column c of the d x r factor ``cols`` from
    c / ||c|| with weight ||c||^2; a pure run (r = 1) starts from its vector
    as given, with weight 1, and keeps each trajectory's states, ending with
    the trailing evolution.  The d x r blocks of unit columns of every
    trajectory so far sit side by side, trajectory-major, so each family
    costs one segment product and one application per member
    (:meth:`ProjectorFamily.apply`, two thin products through its factor),
    and every column is renormalized on its own.  Each segment is the product
    of the steps reaching the family's time, multiplied out here from its
    first step (an adjoint is stored contiguous) rather than taken from the
    grid, so the oracle stays independent of the code it checks.  Forwards the steps run
    from the first grid time to the last; backwards their adjoints run from
    the last to the first and the families are met latest first.  The
    trajectories come back sorted by their time-ordered labels.  A set whose
    last level (m trajectories of d x r) is over the core's memory budget is
    refused before the first level; the size check shares no arithmetic.
    """
    steps = model.grid.step_unitaries
    families = model.families[::-1] if backwards else model.families
    last = model.grid.n_times - 1
    d, r = cols.shape
    _check_memory(math.prod(map(len, families)), d * r, pair_work=False)
    weights = np.ones(1) if pure else np.sum(cols.real ** 2 + cols.imag ** 2, axis=0)
    blocks = (cols if pure else cols / np.sqrt(weights))[:, None]  # (d, trajectories, r)
    probs = np.ones((1, r))
    levels = []  # a pure run's blocks after each family, then after the tail
    pos = last if backwards else 0
    for fam in (*families, None) if pure else families:
        stop = (0 if backwards else last) if fam is None else fam.time_index
        idx = reversed(range(stop, pos)) if backwards else range(pos, stop)
        factors = [steps[i].conj().T if backwards else steps[i] for i in idx]
        seg = np.ascontiguousarray(factors[0])
        for u in factors[1:]:
            seg = u @ seg
        pos = stop
        flat = seg @ blocks.reshape(d, -1)
        if fam is None:
            levels.append(flat.reshape(blocks.shape))
            break
        blocks = np.stack([fam.apply(a, flat).reshape(blocks.shape) for a in range(len(fam))], axis=2)
        blocks = blocks.reshape(d, -1, r)  # a trajectory's members follow it, in order
        p_step = np.sum(blocks.real ** 2 + blocks.imag ** 2, axis=0)
        probs = (probs[:, None] * p_step.reshape(len(probs), len(fam), r)).reshape(-1, r)
        live = p_step > 1e-300
        np.divide(blocks, np.sqrt(p_step), out=blocks, where=live)
        blocks[:, ~live] = 0.0
        if pure:
            levels.append(blocks)
    trajectories = []
    for t, (labels, p) in enumerate(zip(itertools.product(*[f.labels for f in families]), probs)):
        # the trajectory's prefix at each level: its index with the later families dropped
        states = [level[:, t * level.shape[1] // len(probs), 0].copy() for level in levels]
        trajectories.append(CollapseTrajectory(labels[::-1] if backwards else labels,
                                               float(weights @ p), states if pure else None))
    return sorted(trajectories, key=lambda t: t.labels)


def collapse_chain_enumerate(model: QuantumModel) -> list[CollapseTrajectory]:
    """All collapse trajectories with stepwise-product probabilities, sorted by labels.

    This is the oracle for the forwards candidate probabilities: the product
    of stepwise collapse probabilities equals the chain-product trace formula,
    so the two tables must agree on every model.  A mixed initial state is
    handled as a mixture of pure runs, one per column c of its factor
    ``columns``, run from c / ||c|| with weight ||c||^2 (trajectory states
    omitted), and a trajectory's probability is sum_c ||c||^2 p_c.  A pure
    state runs from its state vector and keeps the states.  All runs go
    level by level through one walk (see :func:`_collapse_levels`).
    """
    state = model.initial_state
    if state.is_pure():
        return _collapse_levels(model, state.state_vector()[:, None], pure=True)
    return _collapse_levels(model, state.columns, pure=False)


def collapse_probability_table(model: QuantumModel) -> dict[tuple, float]:
    return {t.labels: t.probability for t in collapse_chain_enumerate(model)}


def reverse_collapse_chain(model: QuantumModel, final_state) -> list[CollapseTrajectory]:
    """Run the collapse procedure backwards from a state at the final time.

    Steps are applied as adjoints from the last grid time down to the first,
    with the family projections encountered in reverse order.  Labels are
    reported time-ordered, and the trajectories sorted by them; the last
    recorded state is the reconstructed
    earliest-time state, which in general differs from the model's own
    initial state.
    """
    psi_f = linalg.as_vector(final_state, "final state")
    if abs(float(np.linalg.norm(psi_f)) - 1.0) > 1e-10:
        raise ValueError("final state must be normalized")
    return _collapse_levels(model, psi_f[:, None], pure=True, backwards=True)


def abl_probability(psi_initial, psi_final, model: QuantumModel, history) -> float:
    """Pre- and post-selected probability of one history (the ABL rule).

    Both conditioning states are pure; the numerator is the squared chain
    amplitude between them and the denominator sums the numerators over all
    histories.  A denominator at or below 1e-14 means the selection pair is
    impossible and raises :class:`DegenerateNormalizationError`.
    """
    table = abl_table(psi_initial, psi_final, model)
    return table[tuple(history)]


def abl_table(psi_initial, psi_final, model: QuantumModel) -> dict[tuple, float]:
    psi_i = linalg.as_vector(psi_initial, "initial state")
    psi_f = linalg.as_vector(psi_final, "final state")
    amps = _overlaps(model, psi_i[:, None], psi_f[:, None], model.grid.n_times - 1)
    numerators = {h: abs(amp) ** 2 for h, amp in zip(model.history_labels(), amps.tolist())}
    denom = sum(numerators.values())
    if denom <= 1e-14:
        raise DegenerateNormalizationError(
            f"pre/post-selection pair is impossible: denominator {denom!r}"
        )
    return {h: numerators[h] / denom for h in numerators}


def spin_recoherence_base(alpha: float) -> QuantumModel:
    """Spin premeasurement model arranged so a mirror extension erases it.

    The particle starts in alpha |+x> + sqrt(1 - alpha^2) |-x>.  Unlike
    :func:`spin_model`, each projection happens first and the pointer
    copy follows inside the next interval; both couplings then sit strictly
    between the first family time and the central time 0, so the reflected
    half undoes them all by the mirror image of the first family time.
    The amplitudes are real, since otherwise no time reversal could fix the
    central state.
    """
    alpha = float(alpha)
    beta = float(np.sqrt(max(0.0, 1.0 - alpha**2)))
    if abs(alpha**2 + beta**2 - 1.0) > 1e-12:
        raise ModelValidationError("amplitudes not normalized")
    psi0, u1, u2, families = _spin_parts(alpha, beta)
    grid = TimeGrid([-3.0, -2.0, -1.0, 0.0], [np.eye(psi0.size, dtype=complex), u1, u2])
    return QuantumModel(StateOperator.from_vector(psi0), grid, families,
                        factors=(2, _POINTER_DIM, _POINTER_DIM))


@dataclass
class RecoherenceAnalysis:
    """Everything the mirror extension demonstrates.

    The witness for recoherence is the reduced purity of the kept factors
    returning, by the final time, to its initial value.  The time-reversed set
    decoheres backwards exactly when the first half decoheres forwards (its
    backwards functional is the complex conjugate of the first half's forwards
    one); ``equivalence_holds`` records whether the witness agrees with that.
    """

    extended_model: QuantumModel
    first_half_forwards: DecoherenceReport
    purity_curve: list[tuple[float, float]] | None
    reinterference: list[tuple[float, float]]
    reversed_set: TimeReversedSet
    reversed_backwards: DecoherenceReport
    original_backwards: DecoherenceReport
    recoherence_witness: bool | None
    equivalence_holds: bool | None
    purity_dip: float | None = None


def _mirror_extension(base: QuantumModel) -> QuantumModel:
    """The extended model of :func:`recoherence_scenario`, with its base checks."""
    times = base.grid.times
    if abs(float(times[-1])) > 1e-12:
        raise ModelValidationError("recoherence base must end exactly at time 0")
    if not all(float(times[f.time_index]) < 0 for f in base.families):
        raise ModelValidationError("recoherence base families must all sit before time 0")
    if not base.families:
        raise ModelValidationError("recoherence base needs at least one family")
    b = base.conjugation_basis
    rho_c = evolve_state(base, base.grid.n_times - 1).rho
    defect = linalg.max_abs(rho_c - _reverse_in_basis(rho_c, b))
    if defect > ATOL_MODEL:
        raise ModelValidationError(
            f"state at time 0 is not time-symmetric (defect {defect:.3e}); "
            "choose a central state fixed by time reversal"
        )
    ext_times = list(map(float, times)) + [-float(t) for t in reversed(times[:-1])]
    mirrored = [b @ u.T @ b.conj().T for u in reversed(base.grid.step_unitaries)]
    ext_steps = list(base.grid.step_unitaries) + mirrored
    return base._derive(base.families, TimeGrid(ext_times, ext_steps))


def recoherence_scenario(base: QuantumModel,
                         tolerance: TolerancePolicy | None = None) -> RecoherenceAnalysis:
    """Extend a pre-zero model through its own mirror image and analyze it.

    The base must have all families before time 0 and end exactly at 0 with a
    state there that time reversal fixes.  The extension appends the
    reflected times with each step replaced by its reflected image, giving a
    grid symmetric about 0.  The analysis checks forwards decoherence of the
    first half, tracks how off-diagonal functional weight returns as the
    history set is pushed into the mirrored half, and computes the
    purity-based recoherence witness (the first factor's final reduced purity
    back at its initial value to ``TABLE_ATOL``).  ``equivalence_holds``
    says whether the witness agrees with backwards decoherence of the
    time-reversed set, which holds exactly when the first half decoheres
    forwards: a property of the base, not a check of the witness.
    """
    extended = _mirror_extension(base)
    first_half = check_decoherence(extended, "forwards", "weak", tolerance)
    purity_curve = witness = dip = None
    if extended.factors is not None:
        states = _states_at(extended, range(extended.grid.n_times))  # one carry step per grid time
        purity_curve = [(t, partial_trace(state, extended.factors, (0,)).purity())
                        for t, state in zip(extended.grid.times.tolist(), states)]
        initial_purity, final_purity = purity_curve[0][1], purity_curve[-1][1]
        dip = initial_purity - min(p for _, p in purity_curve)
        witness = abs(final_purity - initial_purity) <= TABLE_ATOL
    reversed_set = time_reversed_history_set(extended)
    # Push the set into the mirrored half one reversed family at a time: the
    # walk over the combined families has those truncations as its levels,
    # from the depth one past the first half's families.
    rev_families = reversed_set.model.families
    probe = extended._derive(list(extended.families) + list(rev_families))
    levels = itertools.islice(_walk(probe, probe.initial_state.columns),
                              len(extended.families) + 1, None)
    reinterference = [
        (float(extended.grid.times[fam.time_index]),
         float(_measure(probe, rows, 1.0, "strong", tolerance or TolerancePolicy())[1]
               .measure.max(initial=0.0)))
        for fam, rows in zip(rev_families, levels)
    ]
    reversed_backwards = check_decoherence(reversed_set.model, "backwards", "weak", tolerance)
    original_backwards = check_decoherence(extended, "backwards", "weak", tolerance)
    equivalence = None if witness is None else (witness == reversed_backwards.decoherent)
    return RecoherenceAnalysis(
        extended_model=extended,
        first_half_forwards=first_half,
        purity_curve=purity_curve,
        reinterference=reinterference,
        reversed_set=reversed_set,
        reversed_backwards=reversed_backwards,
        original_backwards=original_backwards,
        recoherence_witness=witness,
        equivalence_holds=equivalence,
        purity_dip=dip,
    )


def spin_symmetric_scenario(alpha: float = 1.0 / np.sqrt(2.0)) -> RecoherenceAnalysis:
    """Mirror-extended spin model with real amplitudes (default balanced)."""
    return recoherence_scenario(spin_recoherence_base(alpha))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _cut(dim: int, parts: int, rng: np.random.Generator) -> list[range]:
    """``parts`` consecutive runs of range(dim), cut at distinct random points."""
    cuts = sorted(rng.choice(np.arange(1, dim), size=parts - 1, replace=False).tolist())
    bounds = [0] + cuts + [dim]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _random_family(dim: int, time_index: int, rng: np.random.Generator,
                   size: int | None = None) -> ProjectorFamily:
    basis = haar_unitary(dim, rng)
    if size is None:
        size = int(rng.integers(2, min(dim, 4) + 1))
    blocks = {f"m{j}": list(run) for j, run in enumerate(_cut(dim, size, rng))}
    return ProjectorFamily.from_basis(time_index, basis, blocks)


def random_model(seed: int, dim: int = 4, n_families: int = 2,
                 members_per_family: int | None = None, pure: bool = True) -> QuantumModel:
    """Seeded random model: Haar steps and random orthogonal-basis families."""
    rng = np.random.default_rng(seed)
    n_times = n_families + 2
    steps = [haar_unitary(dim, rng) for _ in range(n_times - 1)]
    grid = TimeGrid(np.arange(n_times, dtype=float), steps)
    families = [
        _random_family(dim, k + 1, rng, members_per_family)
        for k in range(n_families)
    ]
    if pure:
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state = StateOperator.from_vector(psi / np.linalg.norm(psi))
    else:
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = a @ a.conj().T
        state = StateOperator(rho / np.trace(rho).real)
    return QuantumModel(state, grid, families)


def commuting_random_model(seed: int, dim: int = 4, n_families: int = 2) -> QuantumModel:
    """Random model whose families, dynamics and state share one eigenbasis.

    Everything commutes, so the set decoheres in both directions with
    generally nontrivial probabilities; useful as a constructed case where
    forwards and backwards tables must coincide.
    """
    rng = np.random.default_rng(seed)
    basis = haar_unitary(dim, rng)
    n_times = n_families + 2
    steps = []
    for _ in range(n_times - 1):
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=dim))
        steps.append(basis @ np.diag(phases) @ basis.conj().T)
    grid = TimeGrid(np.arange(n_times, dtype=float), steps)
    families = [_random_family_from_basis(basis, k + 1, rng) for k in range(n_families)]
    probs = rng.uniform(0.1, 1.0, size=dim)
    probs /= probs.sum()
    rho = basis @ np.diag(probs) @ basis.conj().T
    return QuantumModel(StateOperator(rho), grid, families)


def _random_family_from_basis(basis: np.ndarray, time_index: int,
                              rng: np.random.Generator) -> ProjectorFamily:
    dim = basis.shape[0]
    runs = _cut(dim, int(rng.integers(2, min(dim, 3) + 1)), rng)
    perm = rng.permutation(dim)
    blocks = {f"m{j}": perm[run].tolist() for j, run in enumerate(runs)}
    return ProjectorFamily.from_basis(time_index, basis, blocks)
