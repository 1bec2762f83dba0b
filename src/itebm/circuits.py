"""Compile imaginary-time propagators into post-selected hidden units.

Each hidden unit is a run of commuting Pauli rotations
exp(-i W_r sigma_r X_anc) plus a bias rotation exp(-i W_0 X_anc) on the
ancilla, which is then measured, post-selected onto 0 and reset (`ir`).
Post-selection leaves cos(W_0 + sum_r W_r sigma_r) acting on the visible
register, which is the marginalized auxiliary-field factor; the circuit's
log_norm accumulates ln(2A) per unit so the encoded operator is recovered
exactly.

Two compilation routes exist per term: "rbm" rotates with the term's own
letters (one ancilla rotation per weight), while "word" encodes the whole
term as one unit, a rotation X_anc ⊗ P on the term's word P plus a bias.
Neither route puts a gate on the visible register alone.  The builders
append units, each a tuple of (visible word, angle) rotations, to a
`Fragment`.
"""
from __future__ import annotations

import math

from .decomp import (
    LN2,
    cascade_diagonal,
    mean_unit_success,
)
from .ir import Circuit, Fragment
from .pauli import (
    Hamiltonian,
    HamiltonianTerm,
    merged_letters,
    word_from_sites,
)


def _emit_unit(frag: Fragment, rotations: list[tuple[str, float]], log_norm: float,
               mean_success: float) -> None:
    """Append one hidden unit, its (visible word, angle) rotations."""
    frag.units.append(tuple(rotations))
    frag.log_norm += log_norm
    frag.model_success *= mean_success


def _rbm_units(
    frag: Fragment, table: dict[tuple[int, ...], float], letters: str, n_qubits: int
) -> float:
    """Append the hidden units of a table of couplings sharing one letter
    word; returns the scalar log-norm shift of any identity remainder
    (which needs no ancilla)."""
    extra = 0.0
    for dec in cascade_diagonal(table, n_qubits):
        if not dec.hidden_units:  # identity remainder: pure scalar
            extra += dec.log_norm
            continue
        (unit,) = dec.hidden_units
        rotations = [(word_from_sites(n_qubits, {q: letters[q]}).word, 2.0 * w)
                     for q, w in unit.weights]
        if unit.bias != 0.0:
            rotations.append(("I" * n_qubits, 2.0 * unit.bias))
        _emit_unit(frag, rotations, LN2 + dec.log_norm, mean_unit_success(unit))
    return extra


def _term_rbm(frag: Fragment, term: HamiltonianTerm, dtau: float) -> float:
    """Append one term's units on the rbm route; returns its scalar
    log-norm shift."""
    coupling = dtau * term.coefficient
    support = term.string.support()
    if not support:
        return -coupling
    if coupling == 0.0:
        return 0.0
    return _rbm_units(frag, {support: coupling}, term.string.word, term.string.n_qubits)


def _term_word(frag: Fragment, term: HamiltonianTerm, dtau: float) -> float:
    """Append one term's single unit, a rotation X_anc ⊗ P on its word P
    plus a bias; returns its scalar log-norm shift.

    P squares to 1, so with k = |dtau c|, s the sign of dtau c and
    w = acos(e^{-2k}) / 2, post-selection leaves cos(w P + s w) =
    e^{-k} e^{-s k P}: the unit's log_norm is k."""
    coupling = dtau * term.coefficient
    support = term.string.support()
    if not support:
        return -coupling
    if coupling == 0.0:
        return 0.0
    k = abs(coupling)
    s = -1.0 if coupling < 0 else 1.0
    w = 0.5 * math.acos(math.exp(-2.0 * k))
    rotations = [(term.string.word, 2.0 * w)]
    if s * w != 0.0:
        rotations.append(("I" * term.string.n_qubits, 2.0 * s * w))
    _emit_unit(frag, rotations, k, 0.5 * (1.0 + math.exp(-4.0 * k)))
    return 0.0


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


def trotter_step(
    h: Hamiltonian,
    dtau: float,
    order: int = 2,
    route: str = "rbm",
) -> Fragment:
    """One Trotter step as a fragment of units on n visible qubits.

    On the rbm route, a group whose terms share a consistent letter map is
    decomposed as one coupling table, folding induced couplings into the
    group's own pending terms; otherwise terms are encoded one at a time in
    input order (each term still compensates its own induced couplings).
    """
    if route not in ("rbm", "word"):
        raise ValueError(f"unknown route {route!r}")
    frag = Fragment()
    for terms, factor in trotter_groups(h, order):
        dtau_eff = dtau * factor
        group = Fragment()
        letters = merged_letters([t.string.word for t in terms]) if route == "rbm" else None
        if route == "rbm" and letters is not None:
            table: dict[tuple[int, ...], float] = {}
            for t in terms:
                key = t.string.support()
                table[key] = table.get(key, 0.0) + dtau_eff * t.coefficient
            extra = _rbm_units(group, table, letters, h.n_qubits)
        else:
            make = _term_rbm if route == "rbm" else _term_word
            extra = 0.0
            for t in terms:
                extra += make(group, t, dtau_eff)
        group.log_norm += extra
        frag.extend(group)
    return frag


def n_trotter_steps(tau: float, dtau: float) -> int:
    for name, value in (("tau", tau), ("dtau", dtau)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if dtau <= 0:
        raise ValueError(f"dtau must be positive, got {dtau}")
    if not math.isfinite(tau / dtau):
        raise ValueError(f"tau {tau!r} / dtau {dtau!r} overflows the step count")
    n = round(tau / dtau)
    if abs(n * dtau - tau) > 1e-12 * max(1.0, abs(tau)):
        raise ValueError(f"tau {tau!r} is not an integer multiple of dtau {dtau!r}")
    return n


def build_qite_circuit(
    h: Hamiltonian,
    tau_total: float,
    dtau: float,
    order: int = 2,
    route: str = "rbm",
) -> Circuit:
    """Compile exp(-tau_total * H) as one Trotter step walked tau_total/dtau times."""
    n_steps = n_trotter_steps(tau_total, dtau)
    if n_steps == 0:
        return Circuit(h.n_qubits, units=())
    step = trotter_step(h, dtau, order=order, route=route)
    return step.to_circuit(h.n_qubits, repeats=n_steps)
