"""The unit program against the gate-by-gate reference walk.

Every circuit walks its unit program (`simulator._units`) on the visible
register, and a unit whose words put two letters on one site raises a
ValueError naming it.  Each unit applies cos(Theta) and records its branch
probabilities, and consecutive units whose letters agree site by site are
one run, entered by one transition from the letters that the vector holds
(`simulator._transition`), none if no site's letter changes.  The walk
agrees with `oracles.walk_reference`, the gate-by-gate walk of the
circuit's hardware view in an ancilla layout (`oracles.hardware_gates`),
to rounding, not to the bit.  The tolerances are fixed here, before any
run: the renormalized visible state to 1e-12 per amplitude; record entry
i against the reference's cbit i, p_kept to 1e-12 relative and p1 to 1e-12
relative or 1e-15 absolute; and sum(log p_kept) to 1e-12 relative, which
holds where the product of the kept probabilities is far below the
smallest double.
"""
import math

import numpy as np
import pytest

from itebm import simulator
from itebm.circuits import build_qite_circuit, trotter_step
from itebm.ir import Circuit, Fragment
from itebm.pauli import parse_hamiltonian
from itebm.simulator import SimulationError, StateVector, Trajectory, run_exact, run_shots

import oracles

TFIM = "1 ZZI\n1 IZZ\n1 ZIZ\n-1 XII\n-1 IXI\n-1 IIX\n"
Y_WORDS = "0.5 YYII\n0.3 IXYZ\n-0.7 ZIIZ\n0.4 XIXI\n0.2 IIIY\n-0.6 IZZI\n0.8 XIII\n"
CHAIN = "".join(f"{c!r} {w}\n" for c, w in oracles.chain_terms(8))

STATE_TOL = 1e-12
REL_TOL = 1e-12
P1_ABS_TOL = 1e-15


def _step(text, dtau, route="rbm", order=2):
    h = parse_hamiltonian(text)
    return trotter_step(h, dtau, order, route=route).to_circuit(h.n_qubits)


def _assert_records_close(got, want):
    """got, a trajectory's (p1, p_kept) per cbit in walk order, against the
    reference's (cbit, p1, p_kept): entry i is the reference's cbit i."""
    assert len(got) == len(want)
    for i, ((p1, p), (want_cbit, want_p1, want_p)) in enumerate(zip(got, want)):
        assert want_cbit == i
        assert abs(p - want_p) <= REL_TOL * want_p
        assert abs(p1 - want_p1) <= max(REL_TOL * want_p1, P1_ABS_TOL)


def _log_acceptance(record):
    """sum(log p_kept), p_kept the last field of a trajectory's entries and
    of the reference's alike."""
    return math.fsum(math.log(entry[-1]) for entry in record)


def _n_units(op):
    """The units of a run's op (`simulator._diag_op`): its table holds two
    rows per unit."""
    return len(op[0]) // 2


def _rotated_vectors(monkeypatch):
    """The list to which each transition applied (`simulator._rotate`)
    appends the vector it rotates: a trajectory's own for a run, a copy for
    a read."""
    rotate, rotated = simulator._rotate, []
    monkeypatch.setattr(simulator, "_rotate",
                        lambda blocks, vec, buf: rotated.append(vec) or rotate(blocks, vec, buf))
    return rotated


def _assert_units_close(circuit, psi0, advances=1, layout="single"):
    """Advance a Trajectory through circuit `advances` times and walk
    oracles.walk_reference alongside, in the ancilla layout: the record,
    the log acceptance, the stop and the renormalized state agree, and the
    walked state has norm 1."""
    traj = Trajectory(circuit, psi0)
    vec, record, offset, walking = oracles.with_ancillas(circuit, psi0, layout), [], 0, True
    for _ in range(advances):
        traj.advance()
        if walking:
            walking = oracles.walk_reference(circuit, vec, record, offset, layout)
        offset += circuit.n_cbits
    _assert_records_close(traj.record, record)
    want_log = _log_acceptance(record)
    assert abs(_log_acceptance(traj.record) - want_log) <= REL_TOL * abs(want_log)
    assert traj.cumulative_success == math.prod((e[1] for e in traj.record), start=1.0)
    assert traj.stopped is not walking
    if walking:
        assert traj.vec.size == 1 << traj.n_visible  # the ancillas never enter
        # each unit scales the state back to weight 1
        assert abs(np.linalg.norm(traj.vec) - 1) <= STATE_TOL
        want = StateVector(traj.n_visible, vec.reshape(traj.vec.size, -1)[:, 0]).normalized()
        assert np.max(np.abs(traj.final_state().amps - want.amps)) <= STATE_TOL
    return traj


@pytest.mark.parametrize("route", oracles.ROUTES)
@pytest.mark.parametrize("layout", ["single", "pooled:2", "pooled:3"])
def test_units_agree_with_reference_on_ising_step(route, layout):
    step = _step(TFIM, 0.01, route)
    _assert_units_close(step, StateVector.uniform_plus(3), 100, layout)


@pytest.mark.parametrize("route", oracles.ROUTES)
@pytest.mark.parametrize("layout, order", [("single", 2), ("pooled:2", 1), ("pooled:3", 2)])
def test_units_agree_with_reference_on_y_words(route, layout, order):
    step = _step(Y_WORDS, 0.1, route, order)
    psi0 = StateVector(4, oracles.random_state(4, np.random.default_rng(9)))
    _assert_units_close(step, psi0, 10, layout)


def test_units_agree_with_reference_on_chain_step():
    """200 steps of the exact-mode chain, whose acceptance (about e^-1293)
    is far below the smallest double: compared in log space."""
    traj = _assert_units_close(_step(CHAIN, 0.01), StateVector.uniform_plus(8), 200)
    assert len(traj.record) == 200 * 88
    assert _log_acceptance(traj.record) < math.log(1e-300)


def test_units_agree_with_reference_on_overlapping_words():
    """Units whose words overlap on sites, each site with one letter (XZ,
    XI and IZ), against the reference in a wave of two ancillas: the
    second unit begins before the first one's measure.  Words that put two
    letters on one site are not a unit
    (`test_unit_with_two_letters_on_a_site_raises_naming_it`)."""
    rng = np.random.default_rng(45)
    units = []
    for _ in range(0, 8, 2):
        angles = rng.uniform(-2, 2, 5)
        units += [(("XZ", angles[0]), ("XI", angles[1]), ("IZ", angles[2]), ("II", angles[3])),
                  (("ZY", angles[4]),)]
    circuit = Circuit(2, tuple(units))
    psi0 = StateVector(2, oracles.random_state(2, rng))
    _assert_units_close(circuit, psi0, 3, "pooled:2")


def test_chain_step_compiles_to_four_runs_and_basis_changes():
    """The chain step's units are four runs: its first 8 X units, its 64 ZZ
    and ZZZ units, its 8 YY units and its last 8 X units.  From Z, each run
    but the second step's first is entered by one transition of two
    16 x 16 blocks; the vector holds 2^8 amplitudes."""
    step = _step(CHAIN, 0.01)
    program = simulator._units(step)
    assert [letters for letters, _ in program] == ["X" * 8, "Z" * 8, "Y" * 8, "X" * 8]
    assert [_n_units(op) for _, op in program] == [8, 64, 8, 8]
    frame, changes = "Z" * 8, []
    for letters, _ in program * 2:
        frame, blocks = simulator._transition(frame, letters)
        changes.append(blocks and [(lo, hi, mat.shape) for lo, hi, mat in blocks])
    halves = [(0, 4, (16, 16)), (4, 8, (16, 16))]
    assert changes == [halves] * 4 + [None] + [halves] * 3
    traj = Trajectory(step, StateVector.uniform_plus(8))
    traj.advance()
    assert traj.vec.size == 1 << 8


def test_chain_steps_enter_their_runs_by_three_transitions_each(monkeypatch):
    """200 chain steps apply 1 + 3 * 200 transitions to the trajectory's
    vector: Z to X before the first step, then X to Z, Z to Y and Y to X in
    each, whose last run leaves the vector in the next step's first
    letters."""
    rotated = _rotated_vectors(monkeypatch)
    step = _step(CHAIN, 0.01)
    traj = Trajectory(step, StateVector.uniform_plus(8))
    for _ in range(200):
        traj.advance()
    assert len(rotated) == 1 + 3 * 200 and all(vec is traj.vec for vec in rotated)
    assert traj.frame == "X" * 8


def test_unit_below_branch_floor_stops_at_the_reference_index():
    """A kept branch near 1e-30 stops the walk inside a diagonal run, and a
    certain rejection stops it at a word unit: the record ends where the
    reference's does, and the state cannot be read."""
    near_pi = math.pi - 2e-15
    for failing in (("ZI", near_pi), ("XI", math.pi)):
        circuit = Circuit(2, ((("ZI", 0.4), ("IZ", -0.3)), (("ZZ", 0.2),), (failing,),
                              (("IZ", 0.5),)))
        traj = _assert_units_close(circuit, StateVector.from_bitstring("00"))
        assert traj.stopped and len(traj.record) == 3
        assert traj.record[-1][1] < simulator.BRANCH_FLOOR
        with pytest.raises(SimulationError, match="zero-weight trajectory"):
            traj.final_state()


def test_repeated_circuit_stops_in_a_later_repetition_like_the_unrolled_reference():
    """Each repetition keeps |1>, then |+> and then |0>, which the next
    repetition's second unit keeps with probability near 1e-32: the walk
    stops inside a diagonal run of the second of three repetitions, where
    the reference walk of the unrolled circuit stops, with cbits numbered
    on across repetitions.  The state cannot be read, and a replay rejects
    every shot by that unit, as the batched reference of the unrolled
    circuit does."""
    step = Fragment([(("Z", 0.3),), (("Z", math.pi / 2), ("I", math.pi / 2)),
                     (("X", math.pi / 2), ("I", -math.pi / 2)),
                     (("Z", math.pi / 2), ("I", -math.pi / 2))])
    circuit = step.to_circuit(1, repeats=3)
    unrolled = step.repeated(3).to_circuit(1)
    assert [letters for letters, _ in simulator._units(circuit)] == ["Z", "X", "Z"]
    psi0 = StateVector.uniform_plus(1)
    traj = Trajectory(circuit, psi0)
    traj.advance()
    vec, record = oracles.with_ancillas(unrolled, psi0), []
    assert not oracles.walk_reference(unrolled, vec, record)
    assert traj.stopped and [e[0] for e in record] == list(range(len(traj.record))) \
        == [0, 1, 2, 3, 4, 5]
    # the last kept weight is rounding in cos(pi/4 + pi/4) on both sides
    _assert_records_close(traj.record[:-1], record[:-1])
    assert max(traj.record[-1][1], record[-1][2]) < simulator.BRANCH_FLOOR
    assert traj.n_cbits == 12
    assert traj.cumulative_success == math.prod(e[1] for e in traj.record)
    with pytest.raises(SimulationError, match="zero-weight trajectory: postselect on cbit 5"):
        traj.final_state()
    with pytest.raises(SimulationError, match="zero-weight trajectory: postselect on cbit 5"):
        run_exact(circuit, psi0)
    shots = run_shots(circuit, psi0, 60, 5)
    accepted, cbits, terminal = oracles.batched_shots_reference(unrolled, psi0, 60, 5)
    assert shots.n_accepted == 0 and np.any(shots.rejected_at == 5)
    assert np.array_equal(shots.accepted, accepted)
    assert np.array_equal(shots.cbits, cbits)
    assert np.array_equal(shots.terminal, terminal)


def _assert_long_run_splits(letter, monkeypatch):
    """64 consecutive units of words with one letter, each kept with
    probability near 1e-5, multiply to below 1e-300: the run is split so
    that its partial sums stay normal, the walk enters the letter's basis
    once, unless the letter is Z, and needs no transition between the
    parts, and the log acceptance still agrees."""
    rng = np.random.default_rng(41)
    words = [f"{letter}I", f"I{letter}", f"{letter}{letter}"]
    units = []
    for cbit in range(64):
        angle = math.pi - 2 * math.sqrt(1e-5) * (1 + 0.2 * rng.random())
        units.append(((words[cbit % 3], angle), ("II", 1e-3)))
    circuit = Circuit(2, tuple(units))
    program = simulator._units(circuit)
    assert len(program) > 1 and sum(_n_units(op) for _, op in program) == 64
    assert all(set(letters) <= {letter, "I"} for letters, _ in program)
    psi0 = StateVector(2, oracles.random_state(2, rng))
    rotated = _rotated_vectors(monkeypatch)
    traj = _assert_units_close(circuit, psi0)
    assert sum(vec is traj.vec for vec in rotated) == (letter != "Z")
    assert _log_acceptance(traj.record) < math.log(1e-300)


def test_long_diagonal_run_below_the_smallest_double(monkeypatch):
    _assert_long_run_splits("Z", monkeypatch)


@pytest.mark.parametrize("letter", ["X", "Y"])
def test_long_rotated_run_below_the_smallest_double(letter, monkeypatch):
    _assert_long_run_splits(letter, monkeypatch)


@pytest.mark.parametrize("site_letters, blocks", [
    ("X", [(0, 1)]), ("Y", [(0, 1)]),
    ("XXX", [(0, 3)]), ("YYY", [(0, 3)]), ("XYZ", [(0, 2)]), ("ZZY", [(2, 3)]),
    ("XXXXX", [(0, 4), (4, 5)]), ("YYYYY", [(0, 4), (4, 5)]),
    ("XYZXY", [(0, 4), (4, 5)]), ("ZXZZY", [(1, 5)]), ("ZZZ", []),
])
def test_units_of_agreeing_letters_are_one_run(site_letters, blocks):
    """Units whose words carry site_letters[q] on site q, or I, on 1, 3 and
    5 qubits: one run, entered from Z by one transition of Kronecker blocks
    over the X and Y sites (none for Z alone) and from its own letters by
    none, which agrees with the reference on a random state."""
    n = len(site_letters)
    rng = np.random.default_rng(53 + n)
    units = []
    for _ in range(12):
        unit = []
        for _ in range(rng.integers(1, 4)):
            sites = rng.random(n) < 0.6
            word = "".join(ch if on else "I" for ch, on in zip(site_letters, sites))
            unit.append((word, rng.uniform(-2, 2)))
        units.append(tuple(unit))
    circuit = Circuit(n, tuple(units))
    ((letters, op),) = simulator._units(circuit)
    assert letters == site_letters and _n_units(op) == 12
    frame, entry = simulator._transition("Z" * n, letters)
    assert [(lo, hi) for lo, hi, _ in entry or ()] == blocks
    assert (entry is None) == (not blocks)
    assert simulator._transition(frame, letters) == (letters, None)
    psi0 = StateVector(n, oracles.random_state(n, rng))
    _assert_units_close(circuit, psi0, 3)


def test_units_whose_letters_conflict_start_a_new_run():
    """A unit that puts another letter on a site of the run so far starts
    a new run, in its own basis; one whose letters agree joins it.  The
    vector ends in the letters last put on each site."""
    rng = np.random.default_rng(59)
    words = ["XI", "IY", "XY", "YI", "ZZ", "IZ", "XI"]
    circuit = Circuit(2, tuple(((word, rng.uniform(-2, 2)),) for word in words))
    program = simulator._units(circuit)
    assert [letters for letters, _ in program] == ["XY", "YI", "ZZ", "XI"]
    assert [_n_units(op) for _, op in program] == [3, 1, 2, 1]
    psi0 = StateVector(2, oracles.random_state(2, rng))
    assert _assert_units_close(circuit, psi0, 3).frame == "XZ"


EIGENSTATES = [("X", StateVector.uniform_plus(2)),
               ("Y", StateVector(2, [0.5, 0.5j, 0.5j, -0.5]))]


@pytest.mark.parametrize("letter, psi0, at", [
    # the fourth unit keeps its ids from before `at` was a parameter
    pytest.param(letter, psi0, at, id=f"{letter}-psi0{j}" + ("" if at == 3 else f"-at{at}"))
    for j, (letter, psi0) in enumerate(EIGENSTATES) for at in (0, 3, 4)
])
def test_unit_below_branch_floor_stops_inside_a_rotated_run(letter, psi0, at):
    """On an eigenstate of the letter, a kept branch near 1e-30 stops the
    walk at unit `at` of a five-unit run in the letter's basis (the first,
    the fourth and the last): the record ends where the reference's does,
    the state cannot be read, and a replay rejects every shot by that unit,
    so that it never reads the vector the stop left as it entered the run.
    (No shot can pass a branch kept with probability below BRANCH_FLOOR,
    where `sample` would raise.)"""
    near_pi = math.pi - 2e-15
    words = [f"{letter}I", f"I{letter}", f"{letter}{letter}", f"{letter}I", f"I{letter}"]
    angles = [0.4, -0.3, 0.2, 0.6, 0.5]
    angles[at] = near_pi
    circuit = Circuit(2, tuple(((word, angle),) for word, angle in zip(words, angles)))
    assert [letters for letters, _ in simulator._units(circuit)] == [letter * 2]
    traj = _assert_units_close(circuit, psi0)
    assert traj.stopped and len(traj.record) == at + 1
    assert traj.record[-1][1] < simulator.BRANCH_FLOOR
    with pytest.raises(SimulationError, match="zero-weight trajectory"):
        traj.final_state()
    shots = traj.sample(50, 7)
    assert shots.n_accepted == 0 and np.any(shots.rejected_at == at)
    assert np.all(shots.terminal == -1)


# (circuit, index of its first unit that puts two letters on one site)
TWO_LETTERS = [
    # rotations of one unit whose words do not commute
    (Circuit(1, ((("X", 0.3),), (("X", 0.7), ("Z", 0.4)))), 1),
    # commuting words of one unit with two letters on a site (XZ and ZX)
    (Circuit(2, ((("XZ", 0.7), ("ZX", 0.4), ("YY", 0.2)),)), 0),
]


@pytest.mark.parametrize("circuit, at", TWO_LETTERS)
def test_unit_with_two_letters_on_a_site_raises_naming_it(circuit, at):
    """run_exact, run_shots and building a Trajectory raise the same
    ValueError, which names the unit, before any walk."""
    psi0 = StateVector.uniform_plus(circuit.n_visible)
    messages = set()
    for run in (lambda: run_exact(circuit, psi0), lambda: run_shots(circuit, psi0, 20, 0),
                lambda: Trajectory(circuit, psi0)):
        with pytest.raises(ValueError) as info:
            run()
        messages.add(str(info.value))
    assert messages == {f"unit {at} is not a hidden unit: its words put two letters on one site"}


def test_eight_body_term_walks_a_unit_program():
    """The units of an 8-body X term carry X on every site: they are one run
    in the X basis, on 2^8 amplitudes.  From |+>^8, an eigenstate of the
    term, every step keeps the reference's log acceptance and state, and
    its record one entry per reference cbit, in order.  Single p_kept are not
    compared: inside the step the cascade weighs some X-basis states up to
    2.6e45 times as heavily as |+>^8, so a 1e-17 rounding in a
    transition, whose sums a BLAS kernel orders as it selects, moves them far
    (the reference keeps those amplitudes at exact zeros)."""
    step = _step("0.3 XXXXXXXX\n", 0.01, order=1)
    assert [letters for letters, _ in simulator._units(step)] == ["X" * 8]
    psi0 = StateVector.uniform_plus(8)
    traj = Trajectory(step, psi0)
    vec, record, offset = oracles.with_ancillas(step, psi0), [], 0
    for _ in range(3):
        start = len(record)
        traj.advance()
        assert oracles.walk_reference(step, vec, record, offset)
        offset += step.n_cbits
        assert [e[0] for e in record] == list(range(len(traj.record)))
        want_log = _log_acceptance(record[start:])
        assert abs(_log_acceptance(traj.record[start:]) - want_log) <= REL_TOL * abs(want_log)
        want = StateVector(8, vec.reshape(1 << 8, -1)[:, 0]).normalized()
        assert np.max(np.abs(traj.final_state().amps - want.amps)) <= STATE_TOL
    assert traj.vec.size == 1 << 8


def test_eight_body_term_from_a_basis_state_matches_the_trotter_oracle():
    """From |0...0>, whose X-basis weights are all equal, each step of the
    8-body X term ends at the Trotter oracle's state."""
    h = parse_hamiltonian("0.3 XXXXXXXX\n")
    step = _step("0.3 XXXXXXXX\n", 0.01, order=1)
    psi0 = StateVector.from_bitstring("0" * 8)
    traj = Trajectory(step, psi0)
    for n_steps in (1, 2, 3):
        traj.advance()
        want = oracles.trotterized_oracle(h, 0.01 * n_steps, 0.01, 1, psi0)
        assert np.max(np.abs(traj.final_state().amps - want.amps)) <= STATE_TOL


def test_diagonal_runs_stay_within_a_step():
    """A repeated circuit is its step walked `repeats` times, to the bit: a
    step of diagonal units only is one run, and the program of four steps
    is that one run, walked four times without a transition."""
    h = parse_hamiltonian("1 ZZI\n0.5 IZZ\n-0.7 ZIZ\n0.3 IIZ\n")
    psi0 = StateVector(3, oracles.random_state(3, np.random.default_rng(47)))
    circuit = build_qite_circuit(h, 0.4, 0.1)
    assert circuit.repeats == 4
    assert [letters for letters, _ in simulator._units(circuit)] == ["ZZZ"]
    step = trotter_step(h, 0.1).to_circuit(3)
    traj = Trajectory(step, psi0)
    for _ in range(4):
        traj.advance()
    exact = run_exact(circuit, psi0)
    assert np.array_equal(traj.final_state().amps, exact.final_state.amps)
    assert traj.cumulative_success == exact.cumulative_success
    assert traj.frame == "ZZZ" and all(op is None for _, op in traj._transitions.values())


# Hamiltonians whose every built circuit must be made of units.
BUILT = {
    "tfim": TFIM,
    "chain": CHAIN,
    "three-body": "0.7 XYZ\n-0.4 YYX\n0.3 ZXY\n",
    "four-body": "0.5 XXXX\n-0.3 YZYZ\n0.2 XZIY\n",
    "overlapping": "0.5 XZ\n-0.4 ZX\n0.3 YY\n",
    "one-qubit": "0.5 X\n-0.4 Y\n0.3 Z\n",
    "eight-body": "0.3 XXXXXXXX\n",
}


@pytest.mark.parametrize("build", ["trotter_step", "build_qite_circuit"])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("layout", ["single", "pooled:2", "pooled:3"])
@pytest.mark.parametrize("route", oracles.ROUTES)
@pytest.mark.parametrize("name", list(BUILT))
def test_every_built_circuit_walks_a_unit_program(name, route, layout, order, build):
    """Both builders, on both routes and at every order, build circuits of
    units whose hardware view, in each ancilla layout
    (`oracles.hardware_gates`), puts no gate on the visible register alone
    and measures and post-selects each cbit once; a trajectory advances
    through each circuit without a ValueError."""
    text = BUILT[name]
    if build == "trotter_step":
        circuit = _step(text, 0.05, route, order)
    else:
        circuit = build_qite_circuit(parse_hamiltonian(text), 0.1, 0.05, order, route=route)
    gates, nv = oracles.hardware_gates(circuit, layout)[0], circuit.n_visible
    for g in gates:
        touched = g.string.support() if g.kind == "pauli_rot" else g.qubits
        assert g.kind == "postselect" or any(q >= nv for q in touched)
    for kind in ("measure", "postselect"):
        assert sorted(g.cbit for g in gates if g.kind == kind) == list(range(circuit.n_cbits))
    traj = Trajectory(circuit, StateVector.uniform_plus(circuit.n_visible))
    traj.advance()
    assert len(traj.record) == circuit.n_cbits
