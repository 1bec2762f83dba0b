"""Compile imaginary-time propagators into post-selected hidden units.

Each hidden unit is a run of commuting Pauli rotations
exp(-i W_r sigma_r X_anc) plus a bias rotation exp(-i W_0 X_anc) on the
ancilla, which is then measured, post-selected onto 0 and reset (`ir`).
Post-selection leaves cos(W_0 + sum_r W_r sigma_r) acting on the visible
register, which is the marginalized auxiliary-field factor; the circuit's
log_norm accumulates ln(2A) per unit so the encoded operator is recovered
exactly.

Every unit comes from `decomp.cascade_diagonal` on a table of commuting
couplings, one rule for all of them; a route only says what a site of that
table is.  On the "rbm" route a site is a qubit carrying its letter (one
ancilla rotation per weight).  On the "word" route a site is a term's whole
word P: P squares to 1, so it acts as one spin, and the term is the
one-body unit, a rotation X_anc ⊗ P plus a bias.  Neither route puts a gate
on the visible register alone.  Units, each a tuple of (visible word, angle)
rotations, are appended to a `Fragment`.
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


def _emit_units(frag: Fragment, table: dict[tuple[int, ...], float],
                words: list[str | None]) -> float:
    """Append the hidden units of a table of commuting couplings, table site q
    rotating with words[q]; returns the scalar log-norm shift of any
    identity remainder (which needs no ancilla)."""
    extra = 0.0
    for dec in cascade_diagonal(table, len(words)):
        if not dec.hidden_units:  # identity remainder: pure scalar
            extra += dec.log_norm
            continue
        (unit,) = dec.hidden_units
        rotations = [(words[q], 2.0 * w) for q, w in unit.weights]
        if unit.bias != 0.0:
            rotations.append(("I" * len(rotations[0][0]), 2.0 * unit.bias))
        frag.units.append(tuple(rotations))
        frag.log_norm += LN2 + dec.log_norm
        frag.model_success *= mean_unit_success(unit)
    return extra


def _letter_words(letters: str) -> list[str | None]:
    """Per qubit, the one-letter word of the letter it carries; None where
    it carries I."""
    n = len(letters)
    return [None if ch == "I" else word_from_sites(n, {q: ch}).word
            for q, ch in enumerate(letters)]


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

    Each group becomes coupling tables, and `_emit_units` turns each table
    into units.  On the rbm route a table site is a qubit carrying its
    letter: a group whose terms share a consistent letter map is one table
    over the qubits, folding induced couplings into the group's own pending
    terms; otherwise each term is its own table, in input order (each term
    still compensates its own induced couplings).  On the word route a
    table site is a term's whole word, so each term is a one-site table.
    """
    if route not in ("rbm", "word"):
        raise ValueError(f"unknown route {route!r}")
    frag = Fragment()
    for terms, factor in trotter_groups(h, order):
        dtau_eff = dtau * factor
        letters = merged_letters([t.string.word for t in terms]) if route == "rbm" else None
        if letters is not None:
            table: dict[tuple[int, ...], float] = {}
            for t in terms:
                key = t.string.support()
                table[key] = table.get(key, 0.0) + dtau_eff * t.coefficient
            tables = [(table, _letter_words(letters))]
        elif route == "rbm":
            tables = [({t.string.support(): dtau_eff * t.coefficient},
                       _letter_words(t.string.word)) for t in terms]
        else:
            tables = [({(0,) if t.string.order else (): dtau_eff * t.coefficient},
                       [t.string.word]) for t in terms]
        group = Fragment()
        extra = 0.0
        for table, words in tables:
            extra += _emit_units(group, table, words)
        group.log_norm += extra
        frag.extend(group)
    return frag


def n_trotter_steps(tau: float, dtau: float) -> int:
    for name, value in (("tau", tau), ("dtau", dtau)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if dtau <= 0:
        raise ValueError(f"dtau must be positive, got {dtau}")
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
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
