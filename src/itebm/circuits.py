"""Compile imaginary-time propagators into post-selected circuit IR.

Each hidden unit becomes a run of commuting Pauli rotations
exp(-i W_r sigma_r X_anc) plus a bias rotation exp(-i W_0 X_anc) on a fresh
ancilla, followed by measure / post-select on 0 / reset.  Post-selection
leaves cos(W_0 + sum_r W_r sigma_r) acting on the visible register, which is
the marginalized auxiliary-field factor; the circuit's log_norm accumulates
ln(2A) per unit so the encoded operator is recovered exactly.

Two compilation routes exist per term: "rbm" rotates with the term's own
letters (one ancilla rotation per weight), while "cx" concentrates the
term's parity onto its last support qubit with a CX ladder and encodes a
one-body factor there.  Ancillas are assigned in waves: a job joins the open
wave while a free ancilla exists and its letters are compatible with every
job already in the wave (same letter at shared qubits, and entangling-gate
jobs never share support); the wave then measures and resets all its
ancillas together.  Post-selected actions multiply in job order regardless
of wave boundaries, so packing never changes the encoded operator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .decomp import (
    LN2,
    cascade_diagonal,
    mean_unit_success,
)
from .ir import AncillaPolicy, Circuit, Fragment, Gate
from .pauli import Hamiltonian, HamiltonianTerm, basis_rotation_layer, word_from_sites
from .simulator import n_trotter_steps


@dataclass
class _Job:
    """One hidden-unit encoding awaiting an ancilla assignment."""

    rotations: list[tuple[tuple[tuple[int, str], ...], float]]
    before: list[Gate] = field(default_factory=list)
    after: list[Gate] = field(default_factory=list)
    log_norm: float = 0.0
    mean_success: float = 1.0
    letters: dict[int, str] = field(default_factory=dict)


def _conflicts(a: _Job, b: _Job) -> bool:
    for q, letter in a.letters.items():
        other = b.letters.get(q)
        if other is not None and (letter != other or letter == "*"):
            return True
    return False


def _emit_waves(jobs: list[_Job], ancillas: list[int], width: int) -> Fragment:
    """Pack jobs into ancilla waves, preserving job order exactly."""
    frag = Fragment()
    wave: list[_Job] = []

    def flush() -> None:
        if not wave:
            return
        for slot, job in enumerate(wave):
            anc = ancillas[slot]
            frag.gates.extend(job.before)
            for sites, angle in job.rotations:
                letters = dict(sites)
                letters[anc] = "X"
                frag.gates.append(
                    Gate("pauli_rot", angle=angle, string=word_from_sites(width, letters))
                )
            frag.gates.extend(job.after)
            frag.log_norm += job.log_norm
            frag.model_success *= job.mean_success
        for slot in range(len(wave)):
            cbit = frag.n_cbits
            frag.n_cbits += 1
            frag.gates.append(Gate("measure", (ancillas[slot],), cbit=cbit))
            frag.gates.append(Gate("postselect", cbit=cbit, value=0))
        for slot in range(len(wave)):
            frag.gates.append(Gate("reset", (ancillas[slot],)))
        wave.clear()

    for job in jobs:
        if len(wave) >= len(ancillas) or any(_conflicts(job, w) for w in wave):
            flush()
        wave.append(job)
    flush()
    return frag


def _rbm_jobs(
    table: dict[tuple[int, ...], float], letters: dict[int, str], n_qubits: int
) -> tuple[list[_Job], float]:
    """Hidden-unit jobs for a table of couplings sharing one letter map.

    Returns the jobs plus the scalar log-norm shift of any identity
    remainder (which needs no ancilla).
    """
    jobs: list[_Job] = []
    extra = 0.0
    for dec in cascade_diagonal(table, n_qubits):
        if not dec.hidden_units:  # identity remainder: pure scalar
            extra += dec.log_norm
            continue
        (unit,) = dec.hidden_units
        rotations: list[tuple[tuple[tuple[int, str], ...], float]] = [
            (((q, letters[q]),), 2.0 * w) for q, w in unit.weights
        ]
        if unit.bias != 0.0:
            rotations.append(((), 2.0 * unit.bias))
        jobs.append(
            _Job(
                rotations=rotations,
                log_norm=LN2 + dec.log_norm,
                mean_success=mean_unit_success(unit),
                letters={q: letters[q] for q in unit.sites()},
            )
        )
    return jobs, extra


def _term_jobs_rbm(term: HamiltonianTerm, dtau: float) -> tuple[list[_Job], float]:
    """Jobs plus scalar log-norm shift for one term on the rbm route."""
    coupling = dtau * term.coefficient
    support = term.string.support()
    if not support:
        return [], -coupling
    if coupling == 0.0:
        return [], 0.0
    letters = {q: term.string.word[q] for q in support}
    return _rbm_jobs({support: coupling}, letters, term.string.n_qubits)


def _term_jobs_cx(term: HamiltonianTerm, dtau: float) -> tuple[list[_Job], float]:
    """Single-ancilla job for one term via basis layer + CX parity ladder."""
    coupling = dtau * term.coefficient
    support = term.string.support()
    if not support:
        return [], -coupling
    if coupling == 0.0:
        return [], 0.0
    pre, post, _ = basis_rotation_layer(term.string)
    ladder = [Gate("cx", (support[i], support[i + 1])) for i in range(len(support) - 1)]
    k = abs(coupling)
    s = -1.0 if coupling < 0 else 1.0
    w = 0.5 * math.acos(math.exp(-2.0 * k))
    last = support[-1]
    rotations: list[tuple[tuple[tuple[int, str], ...], float]] = [(((last, "Z"),), 2.0 * w)]
    if s * w != 0.0:
        rotations.append(((), 2.0 * s * w))
    job = _Job(
        rotations=rotations,
        before=post + ladder,
        after=ladder[::-1] + pre,
        log_norm=k,
        mean_success=0.5 * (1.0 + math.exp(-4.0 * k)),
        letters={q: "*" for q in support},
    )
    return [job], 0.0


def trotter_groups(
    h: Hamiltonian, order: int
) -> list[tuple[tuple[HamiltonianTerm, ...], float]]:
    """Term groups and step-size factors for one Trotter step.

    Order 1 applies every term once.  Order 2 splits symmetrically with the
    one-body terms as the outer half-step group: A(1/2) B(1) A(1/2).
    """
    if order == 1:
        return [(h.terms, 1.0)]
    if order != 2:
        raise ValueError(f"trotter order must be 1 or 2, got {order}")
    ones = tuple(t for t in h.terms if t.string.order == 1)
    rest = tuple(t for t in h.terms if t.string.order != 1)
    if not rest:
        return [(ones, 0.5), (ones, 0.5)]
    if not ones:
        return [(rest, 1.0)]
    return [(ones, 0.5), (rest, 1.0), (ones, 0.5)]


def _merged_letters(terms) -> dict[int, str] | None:
    """One letter map covering all terms, or None if letters conflict."""
    letters: dict[int, str] = {}
    for t in terms:
        for q in t.string.support():
            ch = t.string.word[q]
            if letters.setdefault(q, ch) != ch:
                return None
    return letters


def trotter_step(
    h: Hamiltonian,
    dtau: float,
    order: int = 2,
    route: str = "rbm",
    policy: AncillaPolicy = AncillaPolicy(),
) -> Fragment:
    """One Trotter step as a gate fragment (ancillas assigned per policy).

    On the rbm route, a group whose terms share a consistent letter map is
    decomposed as one coupling table, folding induced couplings into the
    group's own pending terms; otherwise terms are encoded one at a time in
    input order (each term still compensates its own induced couplings).
    """
    if route not in ("rbm", "cx"):
        raise ValueError(f"unknown route {route!r}")
    ancillas = list(range(h.n_qubits, h.n_qubits + policy.n))
    width = h.n_qubits + policy.n
    frag = Fragment()
    for terms, factor in trotter_groups(h, order):
        dtau_eff = dtau * factor
        jobs: list[_Job] = []
        letters = _merged_letters(terms) if route == "rbm" else None
        if route == "rbm" and letters is not None:
            table: dict[tuple[int, ...], float] = {}
            for t in terms:
                key = t.string.support()
                table[key] = table.get(key, 0.0) + dtau_eff * t.coefficient
            jobs, extra = _rbm_jobs(table, letters, h.n_qubits)
        else:
            make = _term_jobs_rbm if route == "rbm" else _term_jobs_cx
            extra = 0.0
            for t in terms:
                term_jobs, term_extra = make(t, dtau_eff)
                jobs.extend(term_jobs)
                extra += term_extra
        group_frag = _emit_waves(jobs, ancillas, width)
        group_frag.log_norm += extra
        frag.extend(group_frag)
    return frag


def build_qite_circuit(
    h: Hamiltonian,
    tau_total: float,
    dtau: float,
    order: int = 2,
    route: str = "rbm",
    policy: AncillaPolicy = AncillaPolicy(),
) -> Circuit:
    """Compile exp(-tau_total * H) as one Trotter step walked tau_total/dtau times."""
    n_steps = n_trotter_steps(tau_total, dtau)
    if n_steps == 0:
        return Circuit(h.n_qubits, policy.n, gates=())
    step = trotter_step(h, dtau, order=order, route=route, policy=policy)
    return step.to_circuit(h.n_qubits, policy.n, repeats=n_steps)
