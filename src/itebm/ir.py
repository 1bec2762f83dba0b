"""Gate-level intermediate representation for post-selected circuits.

A circuit is a flat gate list executed front to back.  Non-unitary structure
is explicit: ``measure`` samples/projects one qubit into a classical bit,
``postselect`` requires a classical bit to hold a value (failing shots are
discarded), and ``reset`` returns a disentangled qubit to |0>.  Ancilla
qubits occupy the high indices [n_visible, n_visible + n_ancilla).
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

    def shift_cbit(self, offset: int) -> "Gate":
        if self.cbit is None or offset == 0:
            return self
        return replace(self, cbit=self.cbit + offset)


@dataclass(frozen=True)
class AncillaPolicy:
    """Ancilla assignment: a pool of n qubits emptied in waves (n = 1, the
    'single' policy, reuses one qubit)."""

    n: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"ancilla pool size must be >= 1, got {self.n}")

    @classmethod
    def parse(cls, spec: str) -> "AncillaPolicy":
        """Parse 'single' or 'pooled:N'."""
        if spec == "single":
            return cls(1)
        if spec.startswith("pooled:") and spec[len("pooled:"):].isdecimal():
            return cls(int(spec[len("pooled:"):]))
        raise ValueError(f"unknown ancilla policy {spec!r} (use 'single' or 'pooled:N')")


@dataclass(frozen=True)
class Circuit:
    """An immutable gate sequence plus its encoding bookkeeping.

    log_norm accumulates ln(2A) over every hidden-unit encoding (plus the
    scalar part of identity terms), so that for exact post-selected
    execution: exp(log_norm) * prod(sqrt(branch prob)) * final_state equals
    the encoded operator product applied to the input state.
    model_success is the product of per-unit mean success probabilities
    (acceptance predicted for a uniformly random computational input).
    step_gates is the gate count of one step when the circuit repeats a
    step, else 0: the simulator's diagonal runs stay within a step, so the
    walk of the whole circuit is the walk of its steps.
    """

    n_visible: int
    n_ancilla: int
    gates: tuple[Gate, ...]
    log_norm: float = 0.0
    model_success: float = 1.0
    n_cbits: int = 0
    step_gates: int = 0

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
        self.gates.extend(g.shift_cbit(offset) for g in other.gates)
        self.log_norm += other.log_norm
        self.model_success *= other.model_success
        self.n_cbits += other.n_cbits

    def repeated(self, times: int) -> "Fragment":
        out = Fragment()
        for _ in range(times):
            out.extend(self)
        return out

    def to_circuit(self, n_visible: int, n_ancilla: int) -> Circuit:
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < n_visible + n_ancilla:
                    raise ValueError(f"gate {g.kind} touches qubit {q} outside width")
        return Circuit(
            n_visible=n_visible,
            n_ancilla=n_ancilla,
            gates=tuple(self.gates),
            log_norm=self.log_norm,
            model_success=self.model_success,
            n_cbits=self.n_cbits,
        )

