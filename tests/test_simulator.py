import math

import numpy as np
import pytest

from itebm import simulator
from itebm.circuits import build_qite_circuit, n_trotter_steps, trotter_step
from itebm.ir import Circuit
from itebm.pauli import parse_hamiltonian
from itebm.simulator import (
    SimulationError,
    StateVector,
    Trajectory,
    expectation,
    imaginary_time_oracle,
    run_exact,
    run_shots,
)

import oracles

TFIM = "1 ZZI\n1 IZZ\n1 ZIZ\n-1 XII\n-1 IXI\n-1 IIX\n"


# --- state container ------------------------------------------------------


def test_statevector_constructors():
    z = StateVector.from_bitstring("00")
    assert np.allclose(z.amps, [1, 0, 0, 0])
    b = StateVector.from_bitstring("10")
    assert np.allclose(b.amps, [0, 0, 1, 0])  # qubit 0 is the most significant
    p = StateVector.uniform_plus(2)
    assert np.allclose(p.amps, [0.5] * 4)
    with pytest.raises(ValueError):
        StateVector.from_bitstring("1x")


def test_statevector_algebra():
    rng = np.random.default_rng(0)
    u = StateVector(2, oracles.random_state(2, rng))
    v = StateVector(2, oracles.random_state(2, rng))
    assert u.norm == pytest.approx(1.0)
    scaled = StateVector(2, 3.0 * u.amps)
    assert scaled.normalized().norm == pytest.approx(1.0)


def test_statevector_rejects_a_wrong_amplitude_count():
    with pytest.raises(ValueError, match=r"expected 4 amplitudes, got shape \(3,\)"):
        StateVector(2, np.ones(3))


def test_normalizing_a_zero_state_is_a_simulation_error():
    with pytest.raises(SimulationError, match="cannot normalize a zero state"):
        StateVector(2, np.zeros(4)).normalized()


# --- transitions and rotation kernels --------------------------------------
#
# A trajectory enters each run, and reads its state, through one
# `_transition` from the letters it holds, and the gate-level references
# apply each rotation from its word action (`oracles.rotate`): both against
# dense matrices.

#: Per letter P, B_P with B_P P B_P^dag = Z, times 2 for X and Y.
DENSE_B = {"Z": np.eye(2), "X": math.sqrt(2) * oracles.HX, "Y": math.sqrt(2) * oracles.HY_DAG}


def _apply_transition(blocks, vec):
    """vec through a transition's blocks, with its own buffer."""
    if blocks is not None:
        simulator._rotate(blocks, vec, np.empty_like(vec))
    return vec


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_transition_is_the_dense_product_of_basis_changes(n):
    """From random frames (Z/X/Y per site) to random letters (I/Z/X/Y per
    site): a site that letters leave as I keeps its letter, the op is None
    when no site changes, and else its blocks, of at most _BLOCK qubits
    over the span of the changed sites, take a random vector to the dense
    product of B_b B_a^dag over the changed sites, to 1e-13.  The
    transition back multiplies it by 2^m, m the X and Y letters on both
    sides of the changed sites."""
    rng = np.random.default_rng(70 + n)
    for _ in range(40):
        frame = "".join(rng.choice(list("ZXY"), n))
        letters = "".join(rng.choice(list("IZXY"), n))
        new, blocks = simulator._transition(frame, letters)
        assert new == "".join(a if b == "I" else b for a, b in zip(frame, letters))
        changed = [q for q in range(n) if frame[q] != new[q]]
        want, m = np.ones((1, 1)), 0
        for a, b in zip(frame, new):
            want = np.kron(want, DENSE_B[b] @ DENSE_B[a].conj().T if a != b else np.eye(2))
            m += (a != b) * ((a != "Z") + (b != "Z"))
        if not changed:
            assert blocks is None
            continue
        spans = [(lo, hi) for lo, hi, _ in blocks]
        assert spans[0][0] == changed[0] and spans[-1][1] == changed[-1] + 1
        assert all(hi - lo <= simulator._BLOCK for lo, hi in spans)
        vec = oracles.random_state(n, rng)
        there = _apply_transition(blocks, vec.copy())
        assert np.max(np.abs(there - want @ vec)) <= 1e-13
        back, blocks_back = simulator._transition(new, frame)
        assert back == frame
        assert np.max(np.abs(_apply_transition(blocks_back, there) - 2 ** m * vec)) <= 1e-13


@pytest.mark.parametrize("word,angle", [
    ("ZII", 0.7), ("IXI", -1.2), ("YZX", 2.1), ("XX", 0.4), ("IIZY", 0.9),
])
def test_pauli_rotation_kernel(word, angle):
    n = len(word)
    rng = np.random.default_rng(n)
    psi0 = StateVector(n, oracles.random_state(n, rng))
    vec = psi0.amps.copy()
    oracles.rotate(vec, word, angle)
    want = oracles.exp_factor(0.5j * angle, word) @ psi0.amps
    assert np.allclose(vec, want, atol=1e-12)


# --- exact execution ------------------------------------------------------


def test_run_exact_probability_bookkeeping():
    """<0| exp(-i theta X) |0> = cos(theta): success prob cos^2, state |0>."""
    theta = 0.6
    circuit = Circuit(1, ((("I", 2 * theta),),))
    res = run_exact(circuit, StateVector.from_bitstring("0"))
    assert res.cumulative_success == pytest.approx(math.cos(theta) ** 2, rel=1e-12)
    assert np.allclose(res.final_state.amps, [1, 0], atol=1e-12)


def test_run_exact_rejects_a_state_of_another_width():
    circuit = Circuit(1, ((("Z", 0.5),),))
    with pytest.raises(ValueError, match="initial state has 2 qubits, circuit expects 1 visible"):
        run_exact(circuit, StateVector.from_bitstring("00"))


def test_run_exact_zero_weight_branch():
    """A unit at angle pi keeps its branch with weight cos(pi / 2)^2, about
    4e-33: below BRANCH_FLOOR, so the walk stops before the second unit."""
    circuit = Circuit(1, ((("I", math.pi),), (("Z", 0.5),)))
    with pytest.raises(SimulationError, match="zero-weight trajectory: postselect on cbit 0 "):
        run_exact(circuit, StateVector.from_bitstring("0"))


def test_reset_factors_out_product_qubit():
    """A unit of the bias alone, whose ancilla is post-selected onto 0 and
    reset, leaves the visible state as it is."""
    circuit = Circuit(2, ((("II", 0.8),),))
    res = run_exact(circuit, StateVector(2, [1 / math.sqrt(2)] * 2 + [0, 0]))
    assert np.allclose(res.final_state.amps, [1 / math.sqrt(2)] * 2 + [0, 0], atol=1e-12)
    assert res.cumulative_success == pytest.approx(math.cos(0.4) ** 2, rel=1e-12)


def test_encoded_circuit_round_trip():
    """Full pipeline check: compiled TFIM propagator matches the dense one."""
    h = parse_hamiltonian(TFIM)
    tau, dtau = 0.4, 0.05
    circuit = build_qite_circuit(h, tau, dtau)
    res = run_exact(circuit, StateVector.uniform_plus(3))
    want = oracles.trotterized_oracle(h, tau, dtau, 2, StateVector.uniform_plus(3))
    assert oracles.fidelity(res.final_state.amps, want.amps) == pytest.approx(1.0, abs=1e-12)


# --- sampled execution ----------------------------------------------------


def test_run_shots_is_deterministic_per_seed():
    h = parse_hamiltonian(TFIM)
    circuit = build_qite_circuit(h, 0.2, 0.1)
    psi0 = StateVector.uniform_plus(3)
    a = run_shots(circuit, psi0, 500, seed=42)
    b = run_shots(circuit, psi0, 500, seed=42)
    assert np.array_equal(a.accepted, b.accepted)
    assert np.array_equal(a.terminal, b.terminal)
    c = run_shots(circuit, psi0, 500, seed=43)
    assert not np.array_equal(a.accepted, c.accepted)


def test_run_shots_acceptance_matches_exact():
    h = parse_hamiltonian(TFIM)
    circuit = build_qite_circuit(h, 0.2, 0.2)
    psi0 = StateVector.uniform_plus(3)
    p = run_exact(circuit, psi0).cumulative_success
    n = 20000
    run = run_shots(circuit, psi0, n, seed=7)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(run.acceptance_rate - p) < 4 * sigma


def test_run_shots_samples_final_distribution():
    """Accepted-shot Z statistics match the exact post-selected state."""
    h = parse_hamiltonian(TFIM)
    circuit = build_qite_circuit(h, 0.3, 0.1)
    psi0 = StateVector.uniform_plus(3)
    exact = run_exact(circuit, psi0).final_state
    zz = parse_hamiltonian("1 ZZI\n").terms[0]
    want = expectation(exact, parse_hamiltonian("1 ZZI\n"))
    run = run_shots(circuit, psi0, 40000, seed=3)
    vals = run.word_values(zz.string)
    got = float(np.mean(vals))
    sigma = float(np.std(vals)) / math.sqrt(vals.size)
    assert abs(got - want) < 4 * max(sigma, 1e-6)


def test_run_shots_terminal_bases():
    """X-basis sampling of |+++> always yields eigenvalue +1."""
    circuit = Circuit(3, ())
    run = run_shots(circuit, StateVector.uniform_plus(3), 200, seed=1,
                    terminal_basis="XXX")
    assert run.n_accepted == 200
    assert np.all(run.word_values("XII") == 1.0)
    assert np.all(run.word_values("XXX") == 1.0)
    one = Circuit(1, ())
    y_run = run_shots(one, StateVector(1, [1 / math.sqrt(2), 1j / math.sqrt(2)]), 200,
                      seed=2, terminal_basis="Y")
    assert np.all(y_run.word_values("Y") == 1.0)


def test_word_values_rejects_basis_mismatch():
    circuit = Circuit(2, ())
    run = run_shots(circuit, StateVector.uniform_plus(2), 10, seed=0,
                    terminal_basis="ZX")
    with pytest.raises(ValueError, match="not measurable"):
        run.word_values("XI")
    with pytest.raises(ValueError, match="does not match"):
        run.word_values("ZXZ")
    assert np.all(run.word_values("II") == 1.0)


def test_run_shots_validates_basis():
    circuit = Circuit(2, ())
    with pytest.raises(ValueError, match="basis"):
        run_shots(circuit, StateVector.from_bitstring("00"), 5, seed=0, terminal_basis="ZQ")
    with pytest.raises(ValueError, match="basis"):
        run_shots(circuit, StateVector.from_bitstring("00"), 5, seed=0, terminal_basis="Z")


# --- single-trajectory sampling against the batched reference -------------

MIXED = "0.5 YYII\n0.3 IXYZ\n-0.7 ZIIZ\n0.4 XIXI\n0.2 IIIY\n"


def _assert_same_bits(circuit, psi0, n_shots, seed, basis=None, layout="single"):
    """run_shots against the batched reference, which walks the circuit's
    hardware view in the ancilla layout: the same bits."""
    run = run_shots(circuit, psi0, n_shots, seed, terminal_basis=basis)
    accepted, cbits, terminal = oracles.batched_shots_reference(
        circuit, psi0, n_shots, seed, terminal_basis=basis, layout=layout)
    assert np.array_equal(run.accepted, accepted)
    assert np.array_equal(run.cbits, cbits)
    assert np.array_equal(run.terminal, terminal)
    return run


@pytest.mark.parametrize("basis", ["ZZZ", "XXX", "YYY", "XYZ", "ZXX"])
def test_run_shots_matches_batched_reference_bases(basis):
    circuit = build_qite_circuit(parse_hamiltonian(TFIM), 0.3, 0.1)
    run = _assert_same_bits(circuit, StateVector.uniform_plus(3), 600, 11, basis)
    assert 0 < run.n_accepted < run.n_shots


@pytest.mark.parametrize("route", oracles.ROUTES)
@pytest.mark.parametrize("layout", ["single", "pooled:2", "pooled:3"])
def test_run_shots_matches_batched_reference_routes(route, layout):
    h = parse_hamiltonian(MIXED)
    circuit = build_qite_circuit(h, 0.2, 0.1, order=1, route=route)
    psi0 = StateVector(4, oracles.random_state(4, np.random.default_rng(5)))
    run = _assert_same_bits(circuit, psi0, 400, 23, "YXYZ", layout)
    assert 0 < run.n_accepted < run.n_shots


def test_run_shots_matches_batched_reference_all_rejected():
    """A unit at angle pi reads 1 with probability 1: every shot fails the
    first check.  The kept branch is below BRANCH_FLOOR, so the walk must
    stop there, as exact mode cannot, and no shot reaches the second unit."""
    circuit = Circuit(1, ((("I", math.pi),), (("Z", 0.5),)))
    with pytest.raises(SimulationError, match="zero-weight trajectory"):
        run_exact(circuit, StateVector.from_bitstring("0"))
    run = _assert_same_bits(circuit, StateVector.from_bitstring("0"), 50, 8)
    assert run.n_accepted == 0
    assert np.all(run.cbits[:, 0] == 1) and np.all(run.cbits[:, 1] == -1)
    assert np.all(run.terminal == -1)


def test_run_shots_matches_batched_reference_rejects_all_late():
    """Low-acceptance TFIM run whose last shots die mid-circuit."""
    circuit = build_qite_circuit(parse_hamiltonian(TFIM), 1.0, 0.1)
    run = _assert_same_bits(circuit, StateVector.uniform_plus(3), 30, 4)
    assert run.n_accepted == 0
    assert np.all(run.cbits[:, -1] == -1)
    assert np.any(run.cbits[:, 1] >= 0)


def test_trajectory_advanced_by_steps_equals_whole_circuit():
    """Walking one Trotter step four times is the walk of the compiled
    four-step circuit: same state, acceptance and replayed bits."""
    h = parse_hamiltonian(TFIM)
    psi0 = StateVector.uniform_plus(3)
    step = trotter_step(h, 0.1).to_circuit(3)
    traj = Trajectory(step, psi0)
    for _ in range(4):
        traj.advance()
    circuit = build_qite_circuit(h, 0.4, 0.1)
    exact = run_exact(circuit, psi0)
    assert np.array_equal(traj.final_state().amps, exact.final_state.amps)
    assert traj.cumulative_success == exact.cumulative_success
    run = run_shots(circuit, psi0, 300, 5, terminal_basis="XZX")
    replay = traj.sample(300, 5, terminal_basis="XZX")
    assert np.array_equal(replay.accepted, run.accepted)
    assert np.array_equal(replay.cbits, run.cbits)
    assert np.array_equal(replay.terminal, run.terminal)
    assert 0 < run.n_accepted < run.n_shots


# --- the chunked replay against the per-measurement replay ----------------

REPLAY_SEED = 17
#: The first variate of the REPLAY_SEED stream, shot 0's draw at entry 0.
FIRST_DRAW = float(np.random.Generator(np.random.Philox(key=REPLAY_SEED)).random())


def _tfim_trajectory(tau: float) -> Trajectory:
    """The ising-demo walk (order 2, dtau 0.01) from |+++> to tau: 90
    record entries at tau 0.1 and 900 at tau 1."""
    circuit = build_qite_circuit(parse_hamiltonian(TFIM), tau, 0.01)
    traj = Trajectory(circuit, StateVector.uniform_plus(3))
    traj.advance()
    return traj


def _injected(record: list) -> Trajectory:
    """A trajectory on a random 3-qubit state whose record is replaced."""
    psi0 = StateVector(3, oracles.random_state(3, np.random.default_rng(9)))
    traj = Trajectory(Circuit(3, ()), psi0)
    traj.record, traj.n_cbits = list(record), len(record)
    return traj


REPLAY_CASES = {
    "tfim-tau-0.1": lambda: _tfim_trajectory(0.1),
    "tfim-tau-1": lambda: _tfim_trajectory(1.0),
    "p1-zero": lambda: _injected([(0.0, 1.0), (0.02, 0.98)] * 40),
    "p1-one": lambda: _injected([(0.001, 0.999)] * 20 + [(1.0, 0.5)] + [(0.3, 0.7)] * 5),
    "p1-subnormal": lambda: _injected([(5e-324, 1.0)] * 30 + [(0.2, 0.8)] * 5),
    "p1-at-a-draw": lambda: _injected([(FIRST_DRAW, 1.0 - FIRST_DRAW)]),
    "p1-above-a-draw": lambda: _injected([(np.nextafter(FIRST_DRAW, 1.0), 1.0 - FIRST_DRAW)]),
    "empty": lambda: _injected([]),
    "floor-survived": lambda: _injected([(0.001, 0.999)] * 10 + [(0.0, 1e-30)]),
    "floor-not-survived": lambda: _injected([(0.001, 0.999)] * 10 + [(1.0, 1e-30)]),
}


def _replay(sample, traj: Trajectory, n_shots: int):
    """The ShotRun of one replay, or the message of the error it raised."""
    try:
        return sample(traj, n_shots, REPLAY_SEED, "XYZ")
    except SimulationError as exc:
        return str(exc)


@pytest.mark.parametrize("n_shots", [0, 1, 7, 4000, 40000])
@pytest.mark.parametrize("case", REPLAY_CASES)
def test_sample_equals_the_per_measurement_replay(case, n_shots):
    """`Trajectory.sample` reads the Philox words in chunks and compares them
    with integer cut-offs; `oracles.replay_reference` draws one
    `Generator.random` call per record entry.  Same bits, same raise.  At
    tau 1, 4000 and 40000 shots read several chunks in one replay."""
    traj = REPLAY_CASES[case]()
    want = _replay(oracles.replay_reference, traj, n_shots)
    got = _replay(Trajectory.sample, traj, n_shots)
    if case == "floor-survived" and n_shots:
        assert want == "zero-weight trajectory: postselect on cbit 10 has branch probability 1e-30"
    if isinstance(want, str):
        assert got == want
        return
    assert got.rejected_at.dtype == want.rejected_at.dtype
    assert got.n_recorded == want.n_recorded == len(traj.record)
    for field in ("rejected_at", "accepted", "terminal"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


@pytest.mark.parametrize("key", [0, REPLAY_SEED, (1 << 64) - 1])
@pytest.mark.parametrize("a, b", [(0, 5), (3, 1), (5, 3), (7, (1 << 14) + 3)])
def test_philox_random_reads_the_raw_word_stream(key, a, b):
    """numpy's contract that `Trajectory.sample` relies on: Generator.random
    calls continue one Philox word stream, and each variate is the top 53
    bits of one word, (r >> 11) 2^-53."""
    rng = np.random.Generator(np.random.Philox(key=key))
    drawn = np.concatenate((rng.random(a), rng.random(b)))
    words = np.random.Philox(key=key).random_raw(a + b)
    assert np.array_equal(drawn, (words >> 11) * 2.0 ** -53)


# --- unit semantics shared by both modes ----------------------------------


def test_reset_of_product_qubit_same_in_both_modes():
    """Two units in two bases, each ancilla reset after its post-selection:
    the replayed shots' acceptance and terminal bits follow the exact
    walk."""
    a = 0.7
    amps = np.array([math.cos(a), 0, 1j * math.sin(a), 0])
    amps = oracles.exp_factor(0.25j, "IZ") @ oracles.embed_1q(oracles.HX, 1, 2) @ amps
    psi0 = StateVector(2, amps)
    circuit = Circuit(2, ((("ZI", 1.3),), (("XI", 0.9),)))
    res = run_exact(circuit, psi0)
    n = 20000
    run = run_shots(circuit, psi0, n, seed=12)
    p = res.cumulative_success
    assert abs(run.acceptance_rate - p) < 4 * math.sqrt(p * (1 - p) / n)
    kept = run.terminal[run.accepted]
    freq = np.bincount(2 * kept[:, 0] + kept[:, 1], minlength=4) / kept.shape[0]
    want = np.abs(res.final_state.amps) ** 2
    sigma = np.sqrt(want * (1 - want) / kept.shape[0])
    assert np.all(np.abs(freq - want) <= 4 * sigma + 1e-12)


# --- the unit program against the gate-by-gate reference -----------------
#
# The unit program agrees with `oracles.walk_reference` to rounding; the
# tolerances are those of tests/test_units.py.

CHAIN = "".join(f"{c!r} {w}\n" for c, w in oracles.chain_terms(8))
Y_WORDS = MIXED + "-0.6 IZZI\n0.8 XIII\n"
STATE_TOL = 1e-12
REL_TOL = 1e-12
P1_ABS_TOL = 1e-15


def _assert_records_close(got, want):
    """got, a trajectory's (p1, p_kept) per cbit in walk order, against the
    reference's (cbit, p1, p_kept): entry i is the reference's cbit i."""
    assert len(got) == len(want)
    for i, ((p1, p), (want_cbit, want_p1, want_p)) in enumerate(zip(got, want)):
        assert want_cbit == i
        assert abs(p - want_p) <= REL_TOL * want_p
        assert abs(p1 - want_p1) <= max(REL_TOL * want_p1, P1_ABS_TOL)


def _step(text, dtau, route="rbm", order=2):
    h = parse_hamiltonian(text)
    return trotter_step(h, dtau, order, route=route).to_circuit(h.n_qubits)


def _assert_walks_equal(text, n_steps, dtau, psi0, route="rbm", layout="single", order=2):
    """run_exact of the whole compiled circuit of n_steps Trotter steps
    agrees with the reference walk of that circuit in the ancilla layout,
    and gives the bits of a trajectory advanced through one step n_steps
    times: the runs of units stay within a step."""
    h = parse_hamiltonian(text)
    circuit = build_qite_circuit(h, n_steps * dtau, dtau, order, route=route)
    exact = run_exact(circuit, psi0)
    vec, record = oracles.with_ancillas(circuit, psi0, layout), []
    assert oracles.walk_reference(circuit, vec, record, layout=layout)
    want = StateVector(h.n_qubits, vec.reshape(1 << h.n_qubits, -1)[:, 0]).normalized()
    assert np.max(np.abs(exact.final_state.amps - want.amps)) <= STATE_TOL
    p = math.prod(entry[2] for entry in record)
    assert abs(exact.cumulative_success - p) <= REL_TOL * p
    step = _step(text, dtau, route, order)
    traj = Trajectory(step, psi0)
    for _ in range(n_steps):
        traj.advance()
    _assert_records_close(traj.record, record)
    assert np.array_equal(traj.final_state().amps, exact.final_state.amps)
    assert traj.cumulative_success == exact.cumulative_success


def test_compiled_walk_equals_reference_on_chain_step():
    """The exact-mode chain: 20 steps of 88 units."""
    _assert_walks_equal(CHAIN, 20, 0.01, StateVector.uniform_plus(8))


@pytest.mark.parametrize("route", oracles.ROUTES)
@pytest.mark.parametrize("layout", ["single", "pooled:2", "pooled:3"])
def test_compiled_walk_equals_reference_on_ising_step(route, layout):
    _assert_walks_equal(TFIM, 100, 0.01, StateVector.uniform_plus(3), route, layout)


@pytest.mark.parametrize("route", oracles.ROUTES)
@pytest.mark.parametrize("layout, order", [("single", 2), ("pooled:2", 1), ("pooled:3", 2)])
def test_compiled_walk_equals_reference_on_y_words(route, layout, order):
    """Units of X, Y and Z letters in turn, against the reference on
    pooled ancillas whose measures and resets interleave."""
    psi0 = StateVector(4, oracles.random_state(4, np.random.default_rng(9)))
    _assert_walks_equal(Y_WORDS, 10, 0.1, psi0, route, layout, order)


def _assert_walk_close(circuit, psi0, steps, layout="single"):
    """Advance a trajectory through circuit `steps` times and walk the
    reference alongside in the ancilla layout: the same record, to the
    tolerances, and state."""
    traj = Trajectory(circuit, psi0)
    vec, record, offset = oracles.with_ancillas(circuit, psi0, layout), [], 0
    for _ in range(steps):
        traj.advance()
        assert oracles.walk_reference(circuit, vec, record, offset, layout)
        offset += circuit.n_cbits
    _assert_records_close(traj.record, record)
    want = StateVector(circuit.n_visible,
                       vec.reshape(1 << circuit.n_visible, -1)[:, 0]).normalized()
    assert np.max(np.abs(traj.final_state().amps - want.amps)) <= STATE_TOL


def test_reset_of_untouched_postselected_qubit_is_dropped():
    """An X unit and a Z unit against the reference on a pool of two
    ancillas, which resets the first ancilla, post-selected onto 0, only
    after the second unit's measure: the walk agrees, and its program is
    an X run and a Z run."""
    circuit = Circuit(1, ((("X", 1.1),), (("Z", 0.3),)))
    assert [letters for letters, _ in simulator._units(circuit)] == ["X", "Z"]
    _assert_walk_close(circuit, StateVector(1, [0.6, 0.8j]), 3, "pooled:2")


def test_walk_stops_below_branch_floor_like_reference():
    """A certain |1> fails the post-selection onto 0: the walk stops there,
    as the reference does, and never reaches the unit after it."""
    psi0 = StateVector(1, [math.cos(0.25), -1j * math.sin(0.25)])
    circuit = Circuit(1, ((("I", math.pi),), (("Z", 0.3),)))
    traj = Trajectory(circuit, psi0)
    for _ in range(2):
        traj.advance()
    vec, record = oracles.with_ancillas(circuit, psi0), []
    assert not oracles.walk_reference(circuit, vec, record)
    assert traj.stopped and len(traj.record) == 1
    _assert_records_close(traj.record, record)
    assert traj.record[0][1] < simulator.BRANCH_FLOOR
    with pytest.raises(SimulationError, match="zero-weight trajectory"):
        traj.final_state()


def test_branch_weights_add_up_like_reference():
    """One unit with a random X, Y or Z on each qubit q of random states of
    up to 12 qubits, so that the transition's blocks start, end and sit
    inside the register: p and p1 agree with the reference's."""
    rng = np.random.default_rng(21)
    checked = 0
    for n in range(1, 13):
        for q in range(n):
            for _ in range(3):
                psi0 = StateVector(n, oracles.random_state(n, rng))
                word = "I" * q + str(rng.choice(list("XYZ"))) + "I" * (n - q - 1)
                circuit = Circuit(n, (((word, float(rng.uniform(-3, 3))),),))
                _assert_walk_close(circuit, psi0, 1)
                checked += 1
    assert checked == 3 * 78


@pytest.mark.parametrize("advances", [1, 3])
def test_trajectory_compiles_its_circuit_once(monkeypatch, advances):
    """A trajectory compiles the unit program of the circuit it is built
    for once, when it is built, however many times it advances."""
    compiled = []
    units = simulator._units
    monkeypatch.setattr(simulator, "_units", lambda c: compiled.append(c) or units(c))
    step = _step(TFIM, 0.05)
    traj = Trajectory(step, StateVector.uniform_plus(3))
    assert compiled == [step]
    for _ in range(advances):
        traj.advance()
    assert compiled == [step]
    assert len(traj.record) == traj.n_cbits == advances * step.n_cbits


# --- reference evolutions -------------------------------------------------


def test_expectation_matches_dense():
    h = parse_hamiltonian(TFIM)
    rng = np.random.default_rng(17)
    psi = StateVector(3, oracles.random_state(3, rng))
    dense = oracles.ham_matrix(oracles.tfim_terms(3), 3)
    want = float(np.real(np.vdot(psi.amps, dense @ psi.amps)))
    assert expectation(psi, h) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError, match="qubits"):
        expectation(StateVector.from_bitstring("00"), h)


def test_expectation_with_imaginary_part_is_a_simulation_error():
    """Not an assert, so it holds under python -O too."""
    h = parse_hamiltonian("0.5 Z\n")
    object.__setattr__(h.terms[0], "coefficient", 0.5j)  # slipped past validation
    with pytest.raises(SimulationError, match="imaginary part"):
        expectation(StateVector.from_bitstring("0"), h)


def test_imaginary_time_oracle_matches_dense():
    h = parse_hamiltonian(TFIM)
    psi0 = StateVector.uniform_plus(3)
    for tau in (0.0, 0.3, 2.0, 50.0):
        got = imaginary_time_oracle(h, tau, psi0)
        want = oracles.imaginary_evolved(oracles.tfim_terms(3), 3, tau, psi0.amps)
        assert oracles.fidelity(got.amps, want) == pytest.approx(1.0, abs=1e-12)


def test_imaginary_time_oracle_long_time_is_ground_state():
    h = parse_hamiltonian(TFIM)
    final = imaginary_time_oracle(h, 60.0, StateVector.uniform_plus(3))
    assert expectation(final, h) == pytest.approx(-2 * math.sqrt(3), abs=1e-9)


# The Lanczos oracle against the dense eigendecomposition.  Tolerances, set
# before the first run: 1e-12 on the energy, and 1e-12 in the 2-norm on the
# state up to a global phase.
ORACLE_TOL = 1e-12


def _random_hamiltonian(n, rng, idle=None):
    """About 3n random words, the first of them with a single Y, so that H
    is complex; the qubit `idle` carries only I, so every level of H is
    degenerate."""
    words = ["Y" + "X" * (n - 1)]
    while len(words) < 3 * n:
        words.append("".join(rng.choice(list("IXYZ")) for _ in range(n)))
    if idle is not None:
        words = [w[:idle] + "I" + w[idle + 1:] for w in words]
    return parse_hamiltonian("".join(
        f"{rng.uniform(-1.0, 1.0)!r} {w}\n" for w in words if set(w) != {"I"}))


def _assert_oracle_close(got, want, h):
    overlap = np.vdot(want.amps, got.amps)
    assert abs(abs(overlap) - 1.0) <= ORACLE_TOL
    assert np.linalg.norm(got.amps - overlap / abs(overlap) * want.amps) <= ORACLE_TOL
    assert abs(expectation(got, h) - expectation(want, h)) <= ORACLE_TOL


@pytest.mark.parametrize("n, taus", [
    (1, (0.3, 2.0)), (3, (0.3, 2.0)), (6, (0.3, 2.0, 9.0)), (10, (1.0,)),
])
def test_oracle_matches_dense_reference_on_complex_hamiltonians(n, taus):
    rng = np.random.default_rng(100 + n)
    h = _random_hamiltonian(n, rng)
    psi0 = StateVector(n, oracles.random_state(n, rng))
    for tau in taus:
        _assert_oracle_close(imaginary_time_oracle(h, tau, psi0),
                             oracles.imaginary_time_oracle_reference(h, tau, psi0), h)


def test_oracle_at_large_tau_is_the_ground_state():
    """At tau = 40 / gap the excited levels have decayed by e^-40, and
    exp(-tau E_0) overflows a double by far; the gauge shift keeps every
    coefficient finite."""
    rng = np.random.default_rng(7)
    h = _random_hamiltonian(8, rng)
    vals, vecs = np.linalg.eigh(oracles.ham_matrix(
        [(t.coefficient, t.string.word) for t in h.terms], 8))
    tau = 40.0 / (vals[1] - vals[0])
    assert tau * abs(vals[0]) > 800
    psi0 = StateVector(8, oracles.random_state(8, rng))
    got = imaginary_time_oracle(h, tau, psi0)
    _assert_oracle_close(got, oracles.imaginary_time_oracle_reference(h, tau, psi0), h)
    _assert_oracle_close(got, StateVector(8, vecs[:, 0]), h)


def test_oracle_projects_onto_a_degenerate_ground_space():
    rng = np.random.default_rng(8)
    h = _random_hamiltonian(6, rng, idle=5)
    vals, vecs = np.linalg.eigh(oracles.ham_matrix(
        [(t.coefficient, t.string.word) for t in h.terms], 6))
    assert vals[1] - vals[0] < 1e-12
    tau = 40.0 / (vals[2] - vals[0])
    psi0 = StateVector(6, oracles.random_state(6, rng))
    got = imaginary_time_oracle(h, tau, psi0)
    _assert_oracle_close(got, oracles.imaginary_time_oracle_reference(h, tau, psi0), h)
    ground = vecs[:, :2] @ (vecs[:, :2].conj().T @ psi0.amps)
    _assert_oracle_close(got, StateVector(6, ground / np.linalg.norm(ground)), h)


@pytest.mark.parametrize("tau", [3.0, 300.0])
def test_oracle_keeps_an_eigenstate_after_one_lanczos_vector(monkeypatch, tau):
    """Excited eigenstate: the basis breaks down at its first vector.  At tau
    300 a dense gauge shift by the lowest eigenvalue underflows to zero."""
    rng = np.random.default_rng(9)
    h = _random_hamiltonian(5, rng)
    vals, vecs = np.linalg.eigh(oracles.ham_matrix(
        [(t.coefficient, t.string.word) for t in h.terms], 5))
    psi0 = StateVector(5, vecs[:, 7])
    calls = []
    coefficients = simulator._krylov_coefficients

    def counting(*args):
        calls.append(args[0].shape)
        return coefficients(*args)

    monkeypatch.setattr(simulator, "_krylov_coefficients", counting)
    got = imaginary_time_oracle(h, tau, psi0)
    assert calls == [(1, 1)]
    _assert_oracle_close(got, psi0, h)
    assert abs(expectation(got, h) - vals[7]) <= ORACLE_TOL


@pytest.mark.parametrize("case", ["tfim", "complex", "eigenstate"])
def test_imaginary_time_oracle_spends_one_action_per_lanczos_vector(monkeypatch, case):
    """Each basis vector costs one H action, and the oracle spends none on
    an energy: a caller scores its state with `expectation`.  No case here
    reaches the cap, so each vector makes one `_krylov_coefficients` call;
    an eigenstate breaks down at its first vector and takes one action."""
    rng = np.random.default_rng(14)
    if case == "tfim":
        h, psi0, tau = parse_hamiltonian(TFIM), StateVector.uniform_plus(3), 0.5
    else:
        h = _random_hamiltonian(5, rng)
        psi0 = StateVector(5, oracles.random_state(5, rng))
        tau = 1.0
        if case == "eigenstate":
            _, vecs = np.linalg.eigh(oracles.ham_matrix(
                [(t.coefficient, t.string.word) for t in h.terms], 5))
            psi0, tau = StateVector(5, vecs[:, 7]), 3.0
    actions, vectors = [], []
    build, coefficients = simulator._hamiltonian_action, simulator._krylov_coefficients

    def counted(h):
        apply = build(h)
        return lambda v: actions.append(v.size) or apply(v)

    monkeypatch.setattr(simulator, "_hamiltonian_action", counted)
    monkeypatch.setattr(simulator, "_krylov_coefficients",
                        lambda t, taus: vectors.append(t.shape[0]) or coefficients(t, taus))
    got = imaginary_time_oracle(h, tau, psi0)
    assert vectors == list(range(1, len(vectors) + 1))
    assert len(actions) == len(vectors)
    if case == "eigenstate":
        assert actions == [32]
    _assert_oracle_close(got, oracles.imaginary_time_oracle_reference(h, tau, psi0), h)


def test_oracle_at_tau_zero_is_the_normalized_state():
    h = parse_hamiltonian(TFIM)
    amps = 3.0 * oracles.random_state(3, np.random.default_rng(10))
    got = imaginary_time_oracle(h, 0.0, StateVector(3, amps))
    assert np.array_equal(got.amps, amps / np.linalg.norm(amps))
    for tau in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau must be finite"):
            imaginary_time_oracle(h, tau, StateVector(3, amps))


def test_chained_oracle_rejects_a_state_of_another_width():
    h = parse_hamiltonian(TFIM)
    with pytest.raises(ValueError, match="state has 2 qubits, Hamiltonian 3"):
        next(simulator.chained_oracle(h, [1.0], StateVector.from_bitstring("00")))


def test_chained_oracle_restarts_when_tau_goes_back():
    rng = np.random.default_rng(11)
    h = _random_hamiltonian(6, rng)
    psi0 = StateVector(6, oracles.random_state(6, rng))
    taus = [1.0, 0.5, 0.0, 0.5, 2.0, 2.0]
    checkpoints = list(simulator.chained_oracle(h, taus, psi0))
    assert len(checkpoints) == len(taus)
    for tau, got in zip(taus, checkpoints):
        _assert_oracle_close(got, oracles.imaginary_time_oracle_reference(h, tau, psi0), h)


def test_chained_steps_agree_with_one_step():
    h = parse_hamiltonian("".join(f"{c!r} {w}\n" for c, w in oracles.chain_terms(8)))
    psi0 = StateVector.uniform_plus(8)
    taus = [0.25 * i for i in range(1, 9)]
    for tau, got in zip(taus, simulator.chained_oracle(h, taus, psi0)):
        one = imaginary_time_oracle(h, tau, psi0)
        _assert_oracle_close(got, one, h)
        _assert_oracle_close(one, oracles.imaginary_time_oracle_reference(h, tau, psi0), h)


def test_chained_oracle_serves_the_chain_from_one_basis(monkeypatch):
    """Eight checkpoints from |+>^8 fit one Krylov basis: 28 vectors, where
    a basis per checkpoint took 116 H actions."""
    h = parse_hamiltonian("".join(f"{c!r} {w}\n" for c, w in oracles.chain_terms(8)))
    psi0 = StateVector.uniform_plus(8)
    taus = [0.25 * i for i in range(1, 9)]
    actions = []
    build = simulator._hamiltonian_action

    def counted(h):
        apply = build(h)

        def counting(v):
            actions.append(v.size)
            return apply(v)

        return counting

    monkeypatch.setattr(simulator, "_hamiltonian_action", counted)
    checkpoints = list(simulator.chained_oracle(h, taus, psi0))
    assert len(checkpoints) == len(taus)
    assert len(actions) <= 40
    for tau, got in zip(taus, checkpoints):
        _assert_oracle_close(got, oracles.imaginary_time_oracle_reference(h, tau, psi0), h)


def test_chained_oracle_restarts_and_halves_at_a_small_cap(monkeypatch):
    """Six vectors per basis hold no offset of 0.3 or more, so the oracle
    advances by halved steps, and a basis that reaches its cap holding the
    checkpoint 0.3 restarts from it with the pending 1.0 and 2.0.  A
    repeated tau and a falling one come back as well."""
    monkeypatch.setattr(simulator, "_KRYLOV_CAP", 6)
    rng = np.random.default_rng(13)
    h = _random_hamiltonian(6, rng)
    psi0 = StateVector(6, oracles.random_state(6, rng))
    taus = (0.3, 0.3, 1.0, 2.0, 0.5)
    pending = []  # the number of pending offsets at the start of each basis
    coefficients = simulator._krylov_coefficients

    def recording(t, offsets):
        if t.shape == (1, 1):
            pending.append(len(offsets))
        return coefficients(t, offsets)

    monkeypatch.setattr(simulator, "_krylov_coefficients", recording)
    checkpoints = list(simulator.chained_oracle(h, taus, psi0))
    assert len(checkpoints) == len(taus)
    assert pending[:2] == [4, 4] and 2 in pending
    for tau, got in zip(taus, checkpoints):
        _assert_oracle_close(got, oracles.imaginary_time_oracle_reference(h, tau, psi0), h)


def test_oracle_stays_in_the_parity_sector_of_its_state():
    """psi0 odd under the parity X^6 of a ferromagnetic TFIM: the state goes
    to the odd sector's lowest level, not to the (even) ground state.  At
    tau 15 the rest of the odd sector has decayed by e^-45, and rounding
    that leaks into the even sector has grown by less than e^(tau gap)."""
    n = 6
    terms = [(-1.0, "".join("Z" if q in (i, (i + 1) % n) else "I" for q in range(n)))
             for i in range(n)]
    terms += [(-0.3, "".join("X" if q == i else "I" for q in range(n))) for i in range(n)]
    h = parse_hamiltonian("".join(f"{c!r} {w}\n" for c, w in terms))
    mat = oracles.ham_matrix(terms, n)
    parity = oracles.word_matrix("X" * n)
    vals, vecs = np.linalg.eigh(mat + 50.0 * (np.eye(1 << n) + parity))  # even sector up
    odd_ground = vecs[:, 0]
    assert vals[1] - vals[0] > 3.0
    amps = oracles.random_state(n, np.random.default_rng(12))
    psi0 = StateVector(n, amps - parity @ amps)
    assert np.linalg.eigvalsh(mat)[0] < expectation(StateVector(n, odd_ground), h)
    got = imaginary_time_oracle(h, 15.0, psi0)
    _assert_oracle_close(got, oracles.imaginary_time_oracle_reference(h, 15.0, psi0), h)
    _assert_oracle_close(got, StateVector(n, odd_ground), h)


def test_trotterized_oracle_converges():
    h = parse_hamiltonian(TFIM)
    psi0 = StateVector.uniform_plus(3)
    exact = imaginary_time_oracle(h, 0.5, psi0)
    err = [1.0 - oracles.fidelity(oracles.trotterized_oracle(h, 0.5, dt, 2, psi0).amps,
                                  exact.amps)
           for dt in (0.25, 0.05)]
    assert err[1] < err[0]
    assert err[1] < 1e-5


def test_n_trotter_steps():
    assert n_trotter_steps(1.0, 0.1) == 10
    assert n_trotter_steps(0.0, 0.5) == 0
    with pytest.raises(ValueError, match="multiple"):
        n_trotter_steps(1.0, 0.3)
    with pytest.raises(ValueError, match="positive"):
        n_trotter_steps(1.0, 0.0)
    with pytest.raises(ValueError, match="^tau must be >= 0, got -1.0$"):
        n_trotter_steps(-1.0, 0.01)


@pytest.mark.parametrize("tau, dtau, match", [
    (math.inf, 0.1, "^tau must be finite"), (math.nan, 0.1, "^tau must be finite"),
    (1.0, math.inf, "^dtau must be finite"), (1.0, math.nan, "^dtau must be finite"),
    (1e300, 1e-300, "overflows the step count"),
])
def test_n_trotter_steps_rejects_non_finite(tau, dtau, match):
    """An infinite dtau would otherwise give 0 steps, and an infinite tau
    or tau / dtau an OverflowError."""
    with pytest.raises(ValueError, match=match):
        n_trotter_steps(tau, dtau)
