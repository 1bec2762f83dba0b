"""Hidden-unit intermediate representation for post-selected circuits.

A circuit is one step of hidden units walked front to back `repeats` times
(step × n).  Every unit uses the one ancilla, qubit n_visible.  A unit is
its rotations, each a (visible word V, angle) pair that realizes
exp(-i * (angle/2) * V ⊗ X) with X on the ancilla (the bias is the all-I
word), followed by a measure of the ancilla into the unit's cbit, a
post-selection onto 0 and a reset.  A unit's cbit is its index in the
step, numbered on from the previous repetition.  `gates` writes the units
out as that gate list, which is how hardware would run them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # import cycle: pauli imports Gate for its rotation layers
    from .pauli import PauliString

GATE_KINDS = frozenset({"hx", "hy", "hydag", "pauli_rot", "measure", "postselect", "reset"})

#: One hidden unit: its rotations, (visible word, angle) each.
Unit = tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class Gate:
    """One gate of the hardware view.

    kind        one of GATE_KINDS
    qubits      (q,) for 1-qubit gates and measure/reset; unused for
                postselect
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


def _gates(units, n: int) -> tuple[Gate, ...]:
    """Each unit's rotations V ⊗ X_n, then its measure of qubit n into its
    index, its post-selection onto 0 and its reset."""
    from .pauli import PauliString

    gates: list[Gate] = []
    for cbit, unit in enumerate(units):
        gates += [Gate("pauli_rot", angle=angle, string=PauliString(word + "X"))
                  for word, angle in unit]
        gates += [Gate("measure", (n,), cbit=cbit), Gate("postselect", cbit=cbit, value=0),
                  Gate("reset", (n,))]
    return tuple(gates)


@dataclass(frozen=True)
class Circuit:
    """An immutable step of hidden units plus its encoding bookkeeping.

    log_norm accumulates ln(2A) over every hidden-unit encoding (plus the
    scalar part of identity terms), so that for exact post-selected
    execution: exp(log_norm) * prod(sqrt(branch prob)) * final_state equals
    the encoded operator product applied to the input state.
    model_success is the product of per-unit mean success probabilities
    (acceptance predicted for a uniformly random computational input).
    units are one repetition, walked `repeats` times; log_norm and
    model_success are those of the whole circuit.
    """

    n_visible: int
    units: tuple[Unit, ...]
    log_norm: float = 0.0
    model_success: float = 1.0
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        for unit in self.units:
            for word, _ in unit:
                if len(word) != self.n_visible or set(word) - set("IXYZ"):
                    raise ValueError(
                        f"unit word {word!r} is not a Pauli word on {self.n_visible} qubits")

    @property
    def n_qubits(self) -> int:
        return self.n_visible + 1

    @property
    def n_cbits(self) -> int:
        return len(self.units) * self.repeats

    @property
    def gates(self) -> tuple[Gate, ...]:
        """One repetition as gates, its cbits numbered from 0."""
        return _gates(self.units, self.n_visible)


@dataclass
class Fragment:
    """Mutable builder accumulator for a run of units."""

    units: list[Unit] = field(default_factory=list)
    log_norm: float = 0.0
    model_success: float = 1.0

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The units as gates on the ancilla after their words' qubits."""
        return _gates(self.units, next((len(w) for unit in self.units for w, _ in unit), 0))

    def extend(self, other: "Fragment") -> None:
        self.units.extend(other.units)
        self.log_norm += other.log_norm
        self.model_success *= other.model_success

    def repeated(self, times: int) -> "Fragment":
        out = Fragment()
        for _ in range(times):
            out.extend(self)
        return out

    def to_circuit(self, n_visible: int, repeats: int = 1) -> Circuit:
        """The fragment walked `repeats` times, with `repeated`'s log_norm and model_success."""
        log_norm, model_success = self.log_norm, self.model_success
        for _ in range(repeats - 1):
            log_norm, model_success = log_norm + self.log_norm, model_success * self.model_success
        return Circuit(n_visible, tuple(self.units), log_norm=log_norm,
                       model_success=model_success, repeats=repeats)
