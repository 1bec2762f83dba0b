import math

import numpy as np
import pytest

from itebm import pauli, simulator
from itebm.circuits import build_qite_circuit, trotter_step
from itebm.ir import Circuit
from itebm.pauli import parse_hamiltonian
from itebm.simulator import (
    SimulationError,
    StateVector,
    Trajectory,
    expectation,
    imaginary_time_oracle,
    n_trotter_steps,
    run_exact,
    run_shots,
    trotterized_oracle,
)

import oracles

TFIM = "1 ZZI\n1 IZZ\n1 ZIZ\n-1 XII\n-1 IXI\n-1 IIX\n"


# --- state container ------------------------------------------------------


def test_statevector_constructors():
    z = StateVector.zeros(2)
    assert np.allclose(z.amps, [1, 0, 0, 0])
    b = StateVector.from_bitstring("10")
    assert np.allclose(b.amps, [0, 0, 1, 0])  # qubit 0 is the most significant
    p = StateVector.uniform_plus(2)
    assert np.allclose(p.amps, [0.5] * 4)
    with pytest.raises(ValueError):
        StateVector.from_bitstring("1x")
    for values in ([1, 0, 0], []):  # not a power of two
        with pytest.raises(ValueError, match=f"power of two amplitudes, got {len(values)}$"):
            StateVector.from_amplitudes(values)


def test_statevector_algebra():
    rng = np.random.default_rng(0)
    u = StateVector(2, oracles.random_state(2, rng))
    v = StateVector(2, oracles.random_state(2, rng))
    assert u.norm == pytest.approx(1.0)
    assert u.fidelity(u) == pytest.approx(1.0)
    assert u.fidelity(v) == pytest.approx(oracles.fidelity(u.amps, v.amps))
    assert u.inner(v) == pytest.approx(np.vdot(u.amps, v.amps))
    scaled = StateVector(2, 3.0 * u.amps)
    assert scaled.normalized().norm == pytest.approx(1.0)


# --- single-qubit kernels -------------------------------------------------
#
# `_apply_1q` rotates the final state into a terminal basis for sampling,
# and the gate-level references apply each rotation from its word action
# (`oracles.rotate`): both against dense matrices.

PACKAGE_1Q = {"hx": pauli.HX, "hy": pauli.HY, "hydag": pauli.HY_DAG}


@pytest.mark.parametrize("kind,mat", [
    ("hx", oracles.HX), ("hy", oracles.HY), ("hydag", oracles.HY_DAG),
])
@pytest.mark.parametrize("q", [0, 1, 2])
def test_single_qubit_kernels(kind, mat, q):
    rng = np.random.default_rng(q)
    psi0 = StateVector(3, oracles.random_state(3, rng))
    vec = psi0.amps.copy()
    simulator._apply_1q(vec, q, PACKAGE_1Q[kind])
    want = oracles.embed_1q(mat, q, 3) @ psi0.amps
    assert np.allclose(vec, want, atol=1e-13)


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


def test_hx_hy_relations():
    """HX is an involution; HY^dag inverts HY, as the unit program's basis
    changes rely on."""
    psi0 = StateVector(1, oracles.random_state(1, np.random.default_rng(2)))
    for pair in (("hy", "hydag"), ("hx", "hx")):
        vec = psi0.amps.copy()
        for kind in pair:
            simulator._apply_1q(vec, 0, PACKAGE_1Q[kind])
        assert np.allclose(vec, psi0.amps, atol=1e-13)


# --- exact execution ------------------------------------------------------


def test_run_exact_probability_bookkeeping():
    """<0| exp(-i theta X) |0> = cos(theta): success prob cos^2, state |0>."""
    theta = 0.6
    circuit = Circuit(1, ((("I", 2 * theta),),))
    res = run_exact(circuit, StateVector.zeros(1))
    assert res.cumulative_success == pytest.approx(math.cos(theta) ** 2, rel=1e-12)
    assert np.allclose(res.final_state.amps, [1, 0], atol=1e-12)


def test_run_exact_zero_weight_branch():
    """A unit at angle pi keeps its branch with weight cos(pi / 2)^2, about
    4e-33: below BRANCH_FLOOR, so the walk stops before the second unit."""
    circuit = Circuit(1, ((("I", math.pi),), (("Z", 0.5),)))
    with pytest.raises(SimulationError, match="zero-weight trajectory: postselect on cbit 0 "):
        run_exact(circuit, StateVector.zeros(1))


def test_reset_factors_out_product_qubit():
    """A unit of the bias alone, whose ancilla is post-selected onto 0 and
    reset, leaves the visible state as it is."""
    circuit = Circuit(2, ((("II", 0.8),),))
    res = run_exact(circuit, StateVector.from_amplitudes([1 / math.sqrt(2)] * 2 + [0, 0]))
    assert np.allclose(res.final_state.amps, [1 / math.sqrt(2)] * 2 + [0, 0], atol=1e-12)
    assert res.cumulative_success == pytest.approx(math.cos(0.4) ** 2, rel=1e-12)


def test_encoded_circuit_round_trip():
    """Full pipeline check: compiled TFIM propagator matches the dense one."""
    h = parse_hamiltonian(TFIM)
    tau, dtau = 0.4, 0.05
    circuit = build_qite_circuit(h, tau, dtau)
    res = run_exact(circuit, StateVector.uniform_plus(3))
    want = trotterized_oracle(h, tau, dtau, 2, StateVector.uniform_plus(3))
    assert res.final_state.fidelity(want) == pytest.approx(1.0, abs=1e-12)


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
    y_run = run_shots(one, StateVector.from_amplitudes(
        [1 / math.sqrt(2), 1j / math.sqrt(2)]), 200, seed=2, terminal_basis="Y")
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
        run_shots(circuit, StateVector.zeros(2), 5, seed=0, terminal_basis="ZQ")
    with pytest.raises(ValueError, match="basis"):
        run_shots(circuit, StateVector.zeros(2), 5, seed=0, terminal_basis="Z")


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
    psi0 = StateVector.from_amplitudes(oracles.random_state(4, np.random.default_rng(5)))
    run = _assert_same_bits(circuit, psi0, 400, 23, "YXYZ", layout)
    assert 0 < run.n_accepted < run.n_shots


def test_run_shots_matches_batched_reference_all_rejected():
    """A unit at angle pi reads 1 with probability 1: every shot fails the
    first check.  The kept branch is below BRANCH_FLOOR, so the walk must
    stop there, as exact mode cannot, and no shot reaches the second unit."""
    circuit = Circuit(1, ((("I", math.pi),), (("Z", 0.5),)))
    with pytest.raises(SimulationError, match="zero-weight trajectory"):
        run_exact(circuit, StateVector.zeros(1))
    run = _assert_same_bits(circuit, StateVector.zeros(1), 50, 8)
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
        traj.advance(step)
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


# --- unit semantics shared by both modes ----------------------------------


def test_reset_of_product_qubit_same_in_both_modes():
    """Two units in two bases, each ancilla reset after its post-selection:
    the replayed shots' acceptance and terminal bits follow the exact
    walk."""
    a = 0.7
    amps = np.array([math.cos(a), 0, 1j * math.sin(a), 0])
    amps = oracles.exp_factor(0.25j, "IZ") @ oracles.embed_1q(oracles.HX, 1, 2) @ amps
    psi0 = StateVector.from_amplitudes(amps)
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
    assert len(got) == len(want)
    for (cbit, p1, p), (want_cbit, want_p1, want_p) in zip(got, want):
        assert cbit == want_cbit
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
        traj.advance(step)
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
    psi0 = StateVector.from_amplitudes(oracles.random_state(4, np.random.default_rng(9)))
    _assert_walks_equal(Y_WORDS, 10, 0.1, psi0, route, layout, order)


def _assert_walk_close(circuit, psi0, steps, layout="single"):
    """Advance a trajectory through circuit `steps` times and walk the
    reference alongside in the ancilla layout: the same record, to the
    tolerances, and state."""
    traj = Trajectory(circuit, psi0)
    vec, record, offset = oracles.with_ancillas(circuit, psi0, layout), [], 0
    for _ in range(steps):
        traj.advance(circuit)
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
    kinds = [op[0] for op in simulator._units(circuit)]
    assert kinds == [simulator._BASIS, simulator._DIAG, simulator._BASIS, simulator._DIAG]
    _assert_walk_close(circuit, StateVector.from_amplitudes([0.6, 0.8j]), 3, "pooled:2")


def test_walk_stops_below_branch_floor_like_reference():
    """A certain |1> fails the post-selection onto 0: the walk stops there,
    as the reference does, and never reaches the unit after it."""
    psi0 = StateVector.from_amplitudes([math.cos(0.25), -1j * math.sin(0.25)])
    circuit = Circuit(1, ((("I", math.pi),), (("Z", 0.3),)))
    traj = Trajectory(circuit, psi0)
    for _ in range(2):
        traj.advance(circuit)
    vec, record = oracles.with_ancillas(circuit, psi0), []
    assert not oracles.walk_reference(circuit, vec, record)
    assert traj.stopped and len(traj.record) == 1
    _assert_records_close(traj.record, record)
    assert traj.record[0][2] < simulator.BRANCH_FLOOR
    with pytest.raises(SimulationError, match="zero-weight trajectory"):
        traj.final_state()


def test_branch_weights_add_up_like_reference():
    """One unit with a random X, Y or Z on each qubit q of random states of
    up to 12 qubits, so that the basis change's blocks start, end and sit
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


def test_trajectory_rebinds_when_the_circuit_changes(monkeypatch):
    """One vector advanced through the unit programs of circuits a, b, b
    and a compiles and binds each time the circuit changes, three times,
    and agrees with the reference throughout."""
    compiled = []
    units = simulator._units
    monkeypatch.setattr(simulator, "_units", lambda c: compiled.append(c) or units(c))
    a, b = _step(TFIM, 0.05, "rbm"), _step(TFIM, 0.1, "word")
    psi0 = StateVector(3, oracles.random_state(3, np.random.default_rng(33)))
    traj = Trajectory(a, psi0)
    vec, record, offset = oracles.with_ancillas(a, psi0), [], 0
    for circuit in (a, b, b, a):
        traj.advance(circuit)
        assert oracles.walk_reference(circuit, vec, record, offset)
        offset += circuit.n_cbits
        want = StateVector(3, vec.reshape(8, -1)[:, 0]).normalized()
        assert np.max(np.abs(traj.final_state().amps - want.amps)) <= STATE_TOL
    _assert_records_close(traj.record, record)
    assert compiled == [a, b, a]


# --- reference evolutions -------------------------------------------------


def test_expectation_matches_dense():
    h = parse_hamiltonian(TFIM)
    rng = np.random.default_rng(17)
    psi = StateVector(3, oracles.random_state(3, rng))
    dense = oracles.ham_matrix(oracles.tfim_terms(3), 3)
    want = float(np.real(np.vdot(psi.amps, dense @ psi.amps)))
    assert expectation(psi, h) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError, match="qubits"):
        expectation(StateVector.zeros(2), h)


def test_expectation_with_imaginary_part_is_a_simulation_error():
    """Not an assert, so it holds under python -O too."""
    h = parse_hamiltonian("0.5 Z\n")
    object.__setattr__(h.terms[0], "coefficient", 0.5j)  # slipped past validation
    with pytest.raises(SimulationError, match="imaginary part"):
        expectation(StateVector.zeros(1), h)


def test_imaginary_time_oracle_matches_dense():
    h = parse_hamiltonian(TFIM)
    psi0 = StateVector.uniform_plus(3)
    for tau in (0.0, 0.3, 2.0, 50.0):
        got = imaginary_time_oracle(h, tau, psi0)
        want = oracles.imaginary_evolved(oracles.tfim_terms(3), 3, tau, psi0.amps)
        assert got.fidelity(StateVector(3, want)) == pytest.approx(1.0, abs=1e-12)


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


def test_oracle_at_tau_zero_is_the_normalized_state():
    h = parse_hamiltonian(TFIM)
    amps = 3.0 * oracles.random_state(3, np.random.default_rng(10))
    got = imaginary_time_oracle(h, 0.0, StateVector(3, amps))
    assert np.array_equal(got.amps, amps / np.linalg.norm(amps))
    for tau in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau must be finite"):
            imaginary_time_oracle(h, tau, StateVector(3, amps))


def test_chained_oracle_restarts_when_tau_goes_back():
    rng = np.random.default_rng(11)
    h = _random_hamiltonian(6, rng)
    psi0 = StateVector(6, oracles.random_state(6, rng))
    taus = [1.0, 0.5, 0.0, 0.5, 2.0, 2.0]
    states = list(simulator.chained_oracle(h, taus, psi0))
    assert len(states) == len(taus)
    for tau, got in zip(taus, states):
        _assert_oracle_close(got, oracles.imaginary_time_oracle_reference(h, tau, psi0), h)


def test_chained_steps_agree_with_one_step():
    h = parse_hamiltonian("".join(f"{c!r} {w}\n" for c, w in oracles.chain_terms(8)))
    psi0 = StateVector.uniform_plus(8)
    taus = [0.25 * i for i in range(1, 9)]
    for tau, got in zip(taus, simulator.chained_oracle(h, taus, psi0)):
        one = imaginary_time_oracle(h, tau, psi0)
        _assert_oracle_close(got, one, h)
        _assert_oracle_close(one, oracles.imaginary_time_oracle_reference(h, tau, psi0), h)


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
    err = [1.0 - trotterized_oracle(h, 0.5, dt, 2, psi0).fidelity(exact)
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
