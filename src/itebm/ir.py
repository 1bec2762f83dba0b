"""Gate-level intermediate representation for post-selected circuits.

A circuit is a gate list executed front to back `repeats` times (step × n).
Non-unitary structure is explicit: ``measure`` samples/projects one qubit
into a classical bit, ``postselect`` requires a classical bit to hold a
value (failing shots are discarded), and ``reset`` returns a disentangled
qubit to |0>.  Ancilla qubits occupy the high indices [n_visible, n_qubits).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # import cycle: pauli imports Gate for its rotation layers
    from .pauli import PauliString

GATE_KINDS = frozenset(
    {"hx", "hy", "hydag", "cx", "pauli_rot", "measure", "postselect", "reset"}
)


@dataclass(frozen=True)
class Gate:
    """One IR instruction.

    kind        one of GATE_KINDS
    qubits      (q,) for 1-qubit gates and measure/reset; (control, target)
                for cx; unused for postselect
    angle       pauli_rot only: realizes exp(-i * (angle/2) * string)
    string      pauli_rot only: full-circuit-width PauliString
    cbit        measure: destination bit; postselect: bit examined
    value       postselect only: required bit value (0 or 1)
    """

    kind: str
    qubits: tuple[int, ...] = ()
    angle: float = 0.0
    string: "PauliString | None" = None
    cbit: int | None = None
    value: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")


@dataclass(frozen=True)
class Circuit:
    """An immutable gate sequence plus its encoding bookkeeping.

    log_norm accumulates ln(2A) over every hidden-unit encoding (plus the
    scalar part of identity terms), so that for exact post-selected
    execution: exp(log_norm) * prod(sqrt(branch prob)) * final_state equals
    the encoded operator product applied to the input state.
    model_success is the product of per-unit mean success probabilities
    (acceptance predicted for a uniformly random computational input).
    gates is one repetition, walked `repeats` times, each repetition
    numbering its cbits on from the previous one; n_cbits, log_norm and
    model_success are those of the whole circuit.
    """

    n_visible: int
    n_ancilla: int
    gates: tuple[Gate, ...]
    log_norm: float = 0.0
    model_success: float = 1.0
    n_cbits: int = 0
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.repeats < 1 or self.n_cbits % self.repeats:
            raise ValueError(f"{self.n_cbits} cbits do not split into {self.repeats} repeats")

    @property
    def n_qubits(self) -> int:
        return self.n_visible + self.n_ancilla


@dataclass
class Fragment:
    """Mutable builder accumulator for a run of gates."""

    gates: list[Gate] = field(default_factory=list)
    log_norm: float = 0.0
    model_success: float = 1.0
    n_cbits: int = 0

    def extend(self, other: "Fragment") -> None:
        offset = self.n_cbits
        self.gates.extend(g if g.cbit is None or not offset else replace(g, cbit=g.cbit + offset)
                          for g in other.gates)
        self.log_norm += other.log_norm
        self.model_success *= other.model_success
        self.n_cbits += other.n_cbits

    def repeated(self, times: int) -> "Fragment":
        out = Fragment()
        for _ in range(times):
            out.extend(self)
        return out

    def to_circuit(self, n_visible: int, n_ancilla: int, repeats: int = 1) -> Circuit:
        """The fragment walked `repeats` times, with `repeated`'s log_norm and model_success."""
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < n_visible + n_ancilla:
                    raise ValueError(f"gate {g.kind} touches qubit {q} outside width")
        log_norm, model_success = self.log_norm, self.model_success
        for _ in range(repeats - 1):
            log_norm, model_success = log_norm + self.log_norm, model_success * self.model_success
        return Circuit(n_visible, n_ancilla, tuple(self.gates), log_norm=log_norm,
                       model_success=model_success, n_cbits=self.n_cbits * repeats,
                       repeats=repeats)

