"""Dense statevector execution of post-selected hidden-unit circuits.

Both modes rest on one trajectory.  A circuit is hidden units (`ir`):
rotations X_a ⊗ V_r on the ancilla, whose V_r put at most one letter on
each visible site, then its measure and postselect onto 0.  So all
accepted shots follow the same post-selected path: a `Trajectory` walks a
single state forward through circuits, and each unit appends its branch
probabilities to a record, whose entry i is cbit i.  A circuit's units,
one Trotter step, are compiled once into its unit program (`_units`), and
the trajectory walks it `repeats` times, in place on its own vector and
buffers.

Marginalizing a unit's ancilla leaves cos(Theta) on the visible register,
Theta = sum_r (angle_r / 2) V_r, so the ancilla never enters the vector.
With each site in its letter's basis, as the paper encodes X and Y
couplings, a unit is diagonal, so consecutive units whose letters agree
are one run that reads all their branch probabilities from one
matrix-vector product.  Two basis layers on one site cancel, so the
vector stays in the letters of the last run it walked, and enters the
next run by one transition that changes only the sites whose letter
changes.  A transition is data, bound to no vector: a trajectory builds
each (frame, letters) transition once and applies it (`_rotate`) to its
vector for a walk, and to a copy for a read.  The walk agrees with the
gate-by-gate walk (`tests/oracles.walk_reference`) to rounding.

Exact mode multiplies the kept-branch probabilities; sampled mode replays
the record with per-shot Born-rule draws, discarding shots at their first
failed post-selection, and samples the surviving shots' terminal bits from
the final state.  Randomness comes from a
counter-based Philox generator keyed by the seed; at each measurement one
variate is drawn per surviving shot in shot order, and terminal sampling
draws one variate per surviving shot, so a given (record, state, n_shots,
seed) is bit-reproducible.  The draws are `Generator.random`'s, read from
the word stream in chunks and compared as integers against cut-offs
ceil(p1 2^53), which fail exactly the shots whose variate is below p1.

H meets a vector one way, a gather and multiply per flip mask
(`pauli.flip_groups`), never as a 2^n x 2^n matrix: `expectation` reads
Re <psi|H psi> so, and the oracle (`chained_oracle`) yields the states
exp(-tau H) psi0 from a Lanczos basis with full reorthogonalization and a
Ritz-value gauge shift.  One basis serves every following checkpoint that
it holds, and a new one starts from the last checkpoint where its cap is
reached.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ir import Circuit, Unit
from .pauli import Hamiltonian, PauliString, flip_groups, merged_letters, word_action

#: Branch probabilities below this are treated as a fully rejected trajectory.
ZERO_WEIGHT = 1e-300

#: Post-selected branch weights below this (amplitude ~1e-12 out of a
#: unit-norm state) are indistinguishable from roundoff noise in double
#: precision, so exact execution refuses to renormalize through them.
BRANCH_FLOOR = 1e-24


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class StateVector:
    """Amplitudes over computational basis states, qubit 0 most significant."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        object.__setattr__(self, "amps", amps)

    @classmethod
    def zeros(cls, n_qubits: int) -> "StateVector":
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(n_qubits, amps)

    @classmethod
    def from_bitstring(cls, bits: str) -> "StateVector":
        n = len(bits)
        amps = np.zeros(1 << n, dtype=complex)
        amps[int(bits, 2)] = 1.0
        return cls(n, amps)

    @classmethod
    def uniform_plus(cls, n_qubits: int) -> "StateVector":
        dim = 1 << n_qubits
        return cls(n_qubits, np.full(dim, 1.0 / np.sqrt(dim), dtype=complex))

    @classmethod
    def from_amplitudes(cls, values) -> "StateVector":
        amps = np.asarray(values, dtype=complex)
        size = amps.size
        if not size or size & (size - 1):
            raise ValueError(f"expected a power of two amplitudes, got {size}")
        return cls(size.bit_length() - 1, amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "StateVector":
        n = self.norm
        if n < ZERO_WEIGHT:
            raise SimulationError("cannot normalize a zero state")
        return StateVector(self.n_qubits, self.amps / n)

    def inner(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amps, other.amps))

    def fidelity(self, other: "StateVector") -> float:
        return abs(self.normalized().inner(other.normalized())) ** 2


@dataclass(frozen=True)
class ExactRunResult:
    """Post-selected final state and the product of branch probabilities."""

    final_state: StateVector
    cumulative_success: float
    log_norm: float


def _visible(circuit: Circuit, psi0: StateVector) -> np.ndarray:
    """psi0's normalized amplitudes, a new array, once its width is checked."""
    if psi0.n_qubits != circuit.n_visible:
        raise ValueError(
            f"initial state has {psi0.n_qubits} qubits, circuit expects "
            f"{circuit.n_visible} visible qubits"
        )
    return psi0.normalized().amps


#: Consecutive units share one run while the product of their smallest
#: cos^2 stays above this, so that every partial sum S_k of the run's kept
#: weight is a normal double.
_RUN_FLOOR = 1e-200
#: A transition applies Kronecker blocks of at most this many qubits: at 8
#: qubits, two 16 x 16 matrix products.
_BLOCK = 4
_TO_Z = str.maketrans("XY", "ZZ")
#: Per letter P, B_P with B_P P B_P^dag = Z, times 2 for X and Y: 1, sqrt(2) times the
#: Hadamard, and [[i, 1], [-i, 1]].  Each B_b B_a^dag has exact entries: +-1, +-i, 1 +- i.
_TO_Z_1Q = {"Z": np.eye(2), "X": np.array([[1, 1], [1, -1]]),
            "Y": np.array([[1j, 1], [-1j, 1]])}


def _unit_diagonal(rotations: Unit, n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(Theta) and sin(Theta)^2, Theta = sum_r (angle_r / 2) V_r, as
    diagonals in the basis where each V_r, one letter per site, is a Z word.

    exp(-i X_a ⊗ Theta) = cos(Theta) - i X_a sin(Theta) is the product of
    the rotations' factors cos(angle_r / 2) - i sin(angle_r / 2) V_r, with
    V_r = +-1 on each basis state.
    """
    cos, sin = np.ones(1 << n), np.zeros(1 << n)  # cos(Theta), -sin(Theta)
    for word, angle in rotations:
        sign = word_action(word.translate(_TO_Z))[1].real
        c, s = math.cos(0.5 * angle), math.sin(0.5 * angle)
        cos, sin = c * cos + s * sin * sign, c * sin - s * cos * sign
    return cos, sin * sin


def _diag_op(run: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """One op for consecutive units, each (cos, sin^2) in one basis.

    Its table's rows are cum_k = C_k^2, C_k = prod_{j<=k} cos_j, and then
    cum_{k-1} sin_k^2: with w = |psi|^2, unit k keeps the weight
    S_k = w . cum_k and reads 1 with the weight w . (cum_{k-1} sin_k^2).
    The op also carries C_K, which leaves psi with the weight S_K.
    """
    cos = np.cumprod([c for c, _ in run], axis=0)
    cum = cos * cos
    before = np.vstack([np.ones_like(cum[:1]), cum[:-1]])
    table = np.vstack([cum, before * np.array([s for _, s in run])])
    return table, cos[-1].astype(complex)


def _transition(frame: str, letters: str) -> tuple[str, tuple | None]:
    """The frame in which a vector held in frame's letters walks a run of
    letters, each site that letters leave as I keeping its letter, and the
    op that takes it there: None if no site changes, else Kronecker blocks
    (lo, hi, mat) of at most _BLOCK consecutive qubits over the span of the
    changed sites, with the factor B_b B_a^dag (`_TO_Z_1Q`) on a site taken
    from a to b.  That is sqrt(2) or 2 times unitary, so that no product
    rounds; a run renormalizes after it, and a read normalizes.  Each mat
    is held as `_rotate` multiplies by it: the block that ends the register
    transposed, so that a block at either end is one plain product.
    """
    new = "".join(a if b == "I" else b for a, b in zip(frame, letters))
    sites = [q for q, (a, b) in enumerate(zip(frame, new)) if a != b]
    if not sites:
        return new, None
    blocks = []
    for lo in range(sites[0], sites[-1] + 1, _BLOCK):
        hi = min(lo + _BLOCK, sites[-1] + 1)
        mat = np.ones((1, 1), dtype=complex)
        for a, b in zip(frame[lo:hi], new[lo:hi]):
            mat = np.kron(mat, _TO_Z_1Q[b] @ _TO_Z_1Q[a].conj().T if a != b else np.eye(2))
        blocks.append((lo, hi, mat.T.copy() if hi == len(frame) else mat))
    return new, tuple(blocks)


def _rotate(blocks: tuple, vec: np.ndarray, buf: np.ndarray) -> None:
    """Apply a transition's blocks (`_transition`) to vec in place, with
    buf, a scratch vector of its size: one matrix product per block, on
    reshaped views from vec to buf and back.  A block that ends the
    register multiplies its view from the right.  The products sum through
    BLAS, whose kernel the host selects, so their last bits may differ
    between hosts."""
    n = vec.size.bit_length() - 1
    src, dst = vec, buf
    for lo, hi, mat in blocks:
        if hi == n:
            shape = (1 << lo, 1 << (hi - lo))
            np.matmul(src.reshape(shape), mat, out=dst.reshape(shape))
        else:
            shape = (1 << (hi - lo), -1) if lo == 0 else (1 << lo, 1 << (hi - lo), -1)
            np.matmul(mat, src.reshape(shape), out=dst.reshape(shape))
        src, dst = dst, src
    if src is not vec:
        vec[:] = src


def _units(circuit: Circuit) -> tuple[tuple[str, tuple], ...]:
    """The unit program of a circuit's step, on its visible register alone:
    its runs, each (letters, op).

    Post-selection of a unit leaves cos(Theta) psi, Theta = sum_r
    (angle_r / 2) V_r over its rotations, kept with weight
    |cos(Theta) psi|^2 against |sin(Theta) psi|^2 read as 1.  Its V_r put at
    most one letter on each site, else the unit is a ValueError naming it,
    so they are Z words once each site is in its letter's basis
    (`_transition`), and cos(Theta) is diagonal there.  Consecutive units
    whose letters agree site by site form one run, split where their cos^2
    could take the kept weight below _RUN_FLOOR.  Its letters carry each
    site's letter in the run, I where no unit of it has one, and its op
    (`_diag_op`) applies it.  The program is one of the circuit's
    `repeats`: no run spans two steps.
    """
    nv = circuit.n_visible
    runs: list = []  # [letters, units] per run
    bound = 0.0
    for i, unit in enumerate(circuit.units):
        letters = merged_letters(["I" * nv, *(word for word, _ in unit)])
        if letters is None:
            raise ValueError(f"unit {i} is not a hidden unit: its words put two letters "
                             "on one site")
        cos, sin2 = _unit_diagonal(unit, nv)
        low = float(np.min(cos * cos))
        merged = merged_letters([runs[-1][0], letters]) if runs else None
        if merged is not None and bound * low >= _RUN_FLOOR:
            runs[-1][0], bound = merged, bound * low
        else:
            runs.append([letters, []])
            bound = low
        runs[-1][1].append((cos, sin2))
    return tuple((letters, _diag_op(run)) for letters, run in runs)


def _zero_weight(cbit: int, p_kept: float) -> SimulationError:
    return SimulationError(
        f"zero-weight trajectory: postselect on cbit {cbit} has "
        f"branch probability {p_kept:.3g}"
    )


class ShotRun:
    """Array-backed per-shot outcomes of a sampled run.

    Each measurement was immediately post-selected, so a shot is described
    by rejected_at, the cbit whose post-selection it failed, which is that
    unit's index in the record of the walk it replayed (n_recorded, the
    record's length, if it passed them all).  accepted holds one flag per
    shot; terminal bits are per visible qubit in the run's measurement
    basis, -1 for rejected shots.
    """

    def __init__(self, basis: str, n_recorded: int, n_cbits: int,
                 rejected_at: np.ndarray, terminal: np.ndarray) -> None:
        self.basis = basis
        self.n_recorded = n_recorded
        self.n_cbits = n_cbits
        self.rejected_at = rejected_at
        self.accepted = rejected_at == n_recorded
        self.terminal = terminal

    @property
    def cbits(self) -> np.ndarray:
        """(n_shots, n_cbits) classical bits: 0, the post-selected value, at
        each cbit before a shot's rejection, 1 at it, and -1 after it and
        at cbits the record never reached."""
        cbits = np.full((self.n_shots, self.n_cbits), -1, dtype=np.int8)
        index, at = np.arange(self.n_recorded), self.rejected_at[:, None]
        cbits[:, :self.n_recorded] = np.where(index <= at, index == at, -1)
        return cbits

    @property
    def n_shots(self) -> int:
        return self.accepted.size

    @property
    def n_accepted(self) -> int:
        return int(np.sum(self.accepted))

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_shots if self.n_shots else 0.0

    def word_values(self, word: str | PauliString) -> np.ndarray:
        """Per-accepted-shot eigenvalues of a word compatible with the basis."""
        word = word.word if isinstance(word, PauliString) else word
        if len(word) != self.terminal.shape[1]:
            raise ValueError(f"word {word!r} does not match {self.terminal.shape[1]} qubits")
        support = [q for q, ch in enumerate(word) if ch != "I"]
        for q in support:
            if word[q] != self.basis[q]:
                raise ValueError(
                    f"term {word!r} not measurable in basis {self.basis!r} (qubit {q})"
                )
        bits = self.terminal[self.accepted][:, support]
        return np.prod(1.0 - 2.0 * bits, axis=1) if support else \
            np.ones(self.n_accepted)


class Trajectory:
    """One post-selected state, walked forward in place through circuits.

    record holds (p1, p_kept) per unit, each post-selected onto 0, in walk
    order: entry i is cbit i, numbered on across the circuits and repeats
    walked, as the one ancilla is measured once per unit.
    cumulative_success is the in-order product of the kept-branch
    probabilities.  A kept branch below BRANCH_FLOOR stops the walk for
    good (`stopped`), mid-repeats too; it is the last record entry.  The
    vector is not read after a stop: `final_state` raises, and so does
    `sample` before any shot past the stop would read it.

    The vector holds the visible register alone, in the letters of frame:
    each site in the basis of the last letter that a run put on it, Z
    before any.  It enters each run by one transition from frame
    (`_transition`), and reads (`final_state`, `sample`) rotate a copy of
    it the same way.  A transition is data, bound to no vector: the
    trajectory builds it the first time that (frame, letters) occurs and
    keeps it for walks and reads alike, and runs whose letters agree need
    none between them.  The circuit last walked keeps its unit program
    (`_units`), so walking one step n times, as `repeats` or as n
    advances, compiles it once.
    """

    def __init__(self, circuit: Circuit, psi0: StateVector) -> None:
        self.n_visible = circuit.n_visible
        self.vec = _visible(circuit, psi0)
        self.record: list[tuple[float, float]] = []
        self.cumulative_success = 1.0
        self.n_cbits = 0
        self.stopped = False
        self.frame = "Z" * self.n_visible
        self._buf, self._weights = np.empty_like(self.vec), np.empty(self.vec.size)
        self._transitions: dict[tuple[str, str], tuple[str, tuple | None]] = {}
        self._program: tuple[Circuit | None, tuple] = (None, ())

    def _enter(self, letters: str, vec: np.ndarray) -> str:
        """Rotate vec, the trajectory's vector or a copy of it, from frame
        into letters by the transition built once for (frame, letters), and
        return the frame that it leaves vec in."""
        key = (self.frame, letters)
        if key not in self._transitions:
            self._transitions[key] = _transition(*key)
        frame, blocks = self._transitions[key]
        if blocks:
            _rotate(blocks, vec, self._buf)
        return frame

    def _read(self, letters: str) -> np.ndarray:
        """A copy of the vector in letters, one of Z/X/Y per site."""
        vec = self.vec.copy()
        self._enter(letters, vec)
        return vec

    def _walk(self, runs: tuple[tuple[str, tuple], ...]) -> bool:
        """Walk the vector in place through a unit program's runs (`_units`),
        entering each run's letters first.

        A run reads all its units' kept and read-1 weights from one product
        with its table (`_diag_op`) and appends (p1 = P(read 1), p_kept) to
        record per unit, in order, up to and including the first p_kept
        below BRANCH_FLOOR, where it returns False, multiplying the same
        p_kept into cumulative_success left to right.  Else it applies its
        cos(Theta) and 1 / sqrt of its last kept weight.  A stop inside a run
        leaves the vector as it entered the run, which nothing reads: the
        walk stops for good, and a stopped trajectory raises before it would
        read the state.

        A unit records its kept and read-1 weights each over their sum,
        which is the weight that entered it (cos^2 + sin^2 = 1), and the run
        scales the state back to weight 1, whatever weight its transition
        left.  Its factors are rounded once, at compile time, so their error
        repeats at every step: over the sum it cancels, in the kept weight
        alone it would add up over thousands of units.
        """
        vec, weights = self.vec, self._weights
        for letters, (table, cos) in runs:
            self.frame = self._enter(letters, vec)
            np.absolute(vec, weights)
            np.square(weights, weights)
            sums, half = np.dot(table, weights), len(table) // 2
            kept, other = sums[:half], sums[half:]
            total = kept + other
            p_kept = (kept / total).tolist()
            # the entries up to and including the first p_kept below the floor
            end = (int(np.argmax(np.less(p_kept, BRANCH_FLOOR))) + 1
                   if min(p_kept) < BRANCH_FLOOR else None)
            self.record += zip((other / total).tolist(), p_kept[:end])
            self.cumulative_success = math.prod(p_kept[:end], start=self.cumulative_success)
            if end:
                return False
            vec *= cos
            vec /= math.sqrt(kept[-1])
        return True

    def advance(self, circuit: Circuit) -> None:
        if not self.stopped:
            if self._program[0] is not circuit:
                self._program = (circuit, _units(circuit))
            self.stopped = not all(  # stops at the first sub-floor branch
                self._walk(self._program[1]) for _ in range(circuit.repeats))
        self.n_cbits += circuit.n_cbits

    def final_state(self) -> StateVector:
        """The renormalized visible-register state."""
        if self.stopped:
            raise _zero_weight(len(self.record) - 1, self.record[-1][1])
        return StateVector(self.n_visible, self._read("Z" * self.n_visible)).normalized()

    def sample(self, n_shots: int, seed: int, terminal_basis: str | None = None) -> ShotRun:
        """Replay n_shots against the record, drawing one variate per
        surviving shot at each measurement, then one per surviving shot
        against the final state rotated into terminal_basis (one letter of
        Z/X/Y per visible qubit; bit b means eigenvalue (-1)^b).

        The draws are those of one `Generator.random` call per measurement,
        read in chunks: `random` turns each Philox word r into
        u = (r >> 11) 2^-53, and its calls continue one word stream, so the
        replay takes the stream from `random_raw`, about 2^14 words at a
        time, shifted right by 11 once per chunk.  A shot fails a
        measurement where u < p1, which holds exactly when
        r >> 11 < ceil(p1 2^53): the scaling by 2^53 is exact, and an integer
        is below a real exactly when it is below its ceiling, so p1 = 0
        fails no shot and p1 = 1 every one.  Terminal sampling reads the
        next words as u.  Only the last record entry can keep a branch below
        BRANCH_FLOOR, as the walk stops there, so the replay raises if a
        shot survives that entry.
        """
        nv = self.n_visible
        basis = terminal_basis or "Z" * nv
        if len(basis) != nv or set(basis) - set("ZXY"):
            raise ValueError(f"terminal basis {basis!r} must be one of Z/X/Y per visible qubit")
        raw = np.random.Philox(key=seed & ((1 << 64) - 1)).random_raw
        words, pos = np.empty(0, dtype=np.uint64), 0

        def draws(m: int) -> np.ndarray:
            """The stream's next m words, each shifted right by 11."""
            nonlocal words, pos
            if pos + m > words.size:
                left = words[pos:]
                words, pos = raw(max(1 << 14, m)), m - left.size
                words >>= 11
                return np.concatenate((left, words[:pos]))
            pos += m
            return words[pos - m:pos]

        record = self.record
        cuts = np.ceil(np.array([p1 for p1, _ in record]) * 2.0 ** 53).astype(np.uint64)
        alive = np.arange(n_shots)
        rejected_at = np.full(n_shots, len(record))
        terminal = np.full((n_shots, nv), -1, dtype=np.int8)
        for i, cut in enumerate(cuts.tolist()):
            if not alive.size:
                break
            failed = draws(alive.size) < cut
            if np.count_nonzero(failed):
                rejected_at[alive[failed]] = i
                alive = alive[~failed]
        if alive.size and record and record[-1][1] < BRANCH_FLOOR:
            raise _zero_weight(len(record) - 1, record[-1][1])
        if alive.size:
            vec = self._read(basis)
            cums = np.cumsum(np.abs(vec) ** 2)
            cums /= cums[-1]
            # searchsorted counts the cumulative weights below each draw
            u = draws(alive.size) * 2.0 ** -53
            indices = np.minimum(np.searchsorted(cums, u), (1 << nv) - 1)
            shifts = np.arange(nv - 1, -1, -1)
            terminal[alive] = ((indices[:, None] >> shifts) & 1).astype(np.int8)
        return ShotRun(basis, len(record), self.n_cbits, rejected_at, terminal)


def run_exact(circuit: Circuit, psi0: StateVector) -> ExactRunResult:
    """Deterministic execution: every measurement projects onto its
    post-selected outcome; returns the renormalized visible-register state."""
    traj = Trajectory(circuit, psi0)
    traj.advance(circuit)
    return ExactRunResult(traj.final_state(), traj.cumulative_success, circuit.log_norm)


def run_shots(circuit: Circuit, psi0: StateVector, n_shots: int, seed: int,
              terminal_basis: str | None = None) -> ShotRun:
    """Sample n_shots trajectories: walk the circuit once, then replay the
    shots against it (`Trajectory.sample`)."""
    traj = Trajectory(circuit, psi0)
    traj.advance(circuit)
    return traj.sample(n_shots, seed, terminal_basis)


def _hamiltonian_action(h: Hamiltonian):
    """The function v -> H v: one gather and multiply per flip group of H
    (`flip_groups`), summed in the groups' order."""
    groups = flip_groups(h)

    def apply(v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        for perm, d in groups:
            out += d * v[perm]
        return out

    return apply


def expectation(psi: StateVector, h: Hamiltonian) -> float:
    """Re <psi|H psi> (`_hamiltonian_action`) for the normalized state;
    SimulationError unless it is real, to 1e-10 of the scale max(1, sum |c|):
    the roundoff in the imaginary part grows with the coefficients."""
    if psi.n_qubits != h.n_qubits:
        raise ValueError(f"state has {psi.n_qubits} qubits, Hamiltonian {h.n_qubits}")
    vec = psi.normalized().amps
    total = complex(np.vdot(vec, _hamiltonian_action(h)(vec)))
    scale = max(1.0, sum(abs(t.coefficient) for t in h.terms))
    if not abs(total.imag) < 1e-10 * scale:
        raise SimulationError(f"expectation has imaginary part {total.imag}")
    return float(total.real)


#: Largest Krylov basis; the oracle restarts where a basis would grow past it.
_KRYLOV_CAP = 40
#: A basis holds an offset s once its error estimate s beta_j |c_j| falls
#: to this fraction of ||c||.
_KRYLOV_TOL = 1e-15
#: A beta_j at or below this fraction of sum |c| is rounding in H v: the
#: basis spans an invariant subspace (a breakdown), so every offset is exact.
_BREAKDOWN = 1e-14


def _krylov_coefficients(t: np.ndarray, taus) -> np.ndarray:
    """exp(-tau (T - theta_0)) e_1 for the Lanczos matrix T, one row per tau
    from one eigendecomposition, gauge-shifted by its smallest Ritz value
    theta_0 so that no coefficient overflows and the largest never
    underflows."""
    theta, ritz = np.linalg.eigh(t)
    return (np.exp(-np.multiply.outer(taus, theta - theta[0])) * ritz[0]) @ ritz.T


def _norm(v: np.ndarray) -> float:
    return math.sqrt(np.vdot(v, v).real)


def _unit(v: np.ndarray) -> np.ndarray:
    v /= _norm(v)
    if not np.isfinite(v).all():
        raise SimulationError("imaginary-time oracle gave a non-finite state")
    return v


def chained_oracle(h: Hamiltonian, taus, psi0: StateVector):
    """Yield the normalized `StateVector` exp(-tau H) psi0 at each tau in
    turn, for a caller to score (`expectation`), by Lanczos on H applied by
    `_hamiltonian_action`; a tau below the previous one restarts from psi0.

    One basis, from psi0 or the last checkpoint yielded, serves the
    following checkpoints up to the next restart; two classical
    Gram-Schmidt passes against every vector keep it orthonormal.  At each
    vector j the largest pending offset s is tested by the first term of
    its error, s beta_j |c_j| <= `_KRYLOV_TOL` ||c||, with every pending
    offset's coefficients from one `_krylov_coefficients`.  When it holds,
    at a breakdown (beta_j <= floor) or once the basis spans the space, the
    pending checkpoints whose own estimates hold are yielded in order.  At
    `_KRYLOV_CAP` vectors it yields those and restarts from the last; if
    none holds, it advances by the first offset halved until it does.  The
    estimate is the same for (H, s) and (aH, s/a) and goes to 0 with s, so
    halving ends however large H is.  exp(-tau H) is invertible, so only a
    non-finite state is a SimulationError.
    """
    taus = list(taus)
    for tau in taus:
        if not (math.isfinite(tau) and tau >= 0):
            raise ValueError(f"tau must be finite and >= 0, got {tau}")
    if psi0.n_qubits != h.n_qubits:
        raise ValueError(f"state has {psi0.n_qubits} qubits, Hamiltonian {h.n_qubits}")
    apply = _hamiltonian_action(h)
    floor = _BREAKDOWN * sum(abs(t.coefficient) for t in h.terms)
    start = psi0.normalized().amps
    dim = start.size
    cap = min(dim, _KRYLOV_CAP)
    basis = np.empty((cap, dim), dtype=complex)
    t = np.zeros((cap, cap))  # tridiagonal: alpha on the diagonal, beta beside it
    k, at, vec = 0, 0.0, start  # the last checkpoint, or psi0
    while k < len(taus):
        if taus[k] < at:
            at, vec = 0.0, start
        end = k + 1
        while end < len(taus) and taus[end] >= taus[end - 1]:
            end += 1
        origin, offsets = at, np.array(taus[k:end]) - at
        basis[0] = vec
        for j in range(cap):
            w = apply(basis[j])
            span = basis[:j + 1]
            coef = (span @ w.conj()).conj()
            w -= coef @ span
            again = (span @ w.conj()).conj()
            w -= again @ span
            t[j, j] = (coef[j] + again[j]).real
            beta = _norm(w)
            c = _krylov_coefficients(t[:j + 1, :j + 1], offsets)
            held = offsets * beta * np.abs(c[:, j]) <= _KRYLOV_TOL * np.linalg.norm(c, axis=1)
            if beta <= floor or j + 1 == dim:
                held[:] = True
            if held[-1] or j + 1 == cap:
                ready = held.size if held.all() else int(np.argmin(held))
                for row in c[:ready]:
                    if taus[k] != at:
                        at, vec = taus[k], _unit(row @ span)
                    yield StateVector(h.n_qubits, vec)
                    k += 1
                offsets = offsets[ready:]
                if not offsets.size:
                    break
            if j + 1 < cap:
                basis[j + 1] = w / beta
                t[j, j + 1] = t[j + 1, j] = beta
        else:
            step = offsets[0]
            while at == origin:  # none held: halve the first offset until it does
                step /= 2
                if step <= offsets[0] * 2.0 ** -60:
                    raise SimulationError(f"Lanczos step did not converge within {cap} vectors")
                c = _krylov_coefficients(t, [step])[0]
                if step * beta * abs(c[-1]) <= _KRYLOV_TOL * _norm(c):
                    at, vec = origin + step, _unit(c @ basis)


def imaginary_time_oracle(h: Hamiltonian, tau: float, psi0: StateVector) -> StateVector:
    """Normalized exp(-tau H) psi0: `chained_oracle` at the one checkpoint tau."""
    return next(chained_oracle(h, [tau], psi0))
