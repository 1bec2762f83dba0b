import math
from collections import Counter

import numpy as np
import pytest

from itebm import simulator
from itebm.circuits import build_qite_circuit, trotter_step
from itebm.ir import AncillaPolicy, Circuit, Gate
from itebm.pauli import PauliString, parse_hamiltonian
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


def _unitary_circuit(n, gates):
    return Circuit(n_visible=n, n_ancilla=0, gates=tuple(gates))


def _final(circuit, psi0):
    return run_exact(circuit, psi0).final_state.amps


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
    with pytest.raises(ValueError):
        StateVector.from_amplitudes([1, 0, 0])  # not a power of two


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


# --- gate kernels ---------------------------------------------------------


@pytest.mark.parametrize("kind,mat", [
    ("hx", oracles.HX), ("hy", oracles.HY), ("hydag", oracles.HY_DAG),
])
@pytest.mark.parametrize("q", [0, 1, 2])
def test_single_qubit_kernels(kind, mat, q):
    rng = np.random.default_rng(q)
    psi0 = StateVector(3, oracles.random_state(3, rng))
    got = _final(_unitary_circuit(3, [Gate(kind, (q,))]), psi0)
    want = oracles.embed_1q(mat, q, 3) @ psi0.amps
    assert np.allclose(got, want, atol=1e-13)


@pytest.mark.parametrize("control,target", [(0, 1), (1, 0), (0, 2), (2, 1)])
def test_cx_kernel(control, target):
    rng = np.random.default_rng(control * 3 + target)
    psi0 = StateVector(3, oracles.random_state(3, rng))
    got = _final(_unitary_circuit(3, [Gate("cx", (control, target))]), psi0)
    want = oracles.cx_matrix(control, target, 3) @ psi0.amps
    assert np.allclose(got, want, atol=1e-13)


@pytest.mark.parametrize("word,angle", [
    ("ZII", 0.7), ("IXI", -1.2), ("YZX", 2.1), ("XX", 0.4), ("IIZY", 0.9),
])
def test_pauli_rotation_kernel(word, angle):
    n = len(word)
    rng = np.random.default_rng(n)
    psi0 = StateVector(n, oracles.random_state(n, rng))
    gate = Gate("pauli_rot", angle=angle, string=PauliString(word))
    got = _final(_unitary_circuit(n, [gate]), psi0)
    want = oracles.exp_factor(0.5j * angle, word) @ psi0.amps
    assert np.allclose(got, want, atol=1e-12)


def test_hx_hy_relations():
    """HX is an involution; HY^dag inverts HY."""
    psi0 = StateVector(1, oracles.random_state(1, np.random.default_rng(2)))
    both = _final(_unitary_circuit(1, [Gate("hy", (0,)), Gate("hydag", (0,))]), psi0)
    # run_exact normalizes, so compare up to the (unit) global factor exactly
    assert np.allclose(both, psi0.amps, atol=1e-13)
    twice = _final(_unitary_circuit(1, [Gate("hx", (0,)), Gate("hx", (0,))]), psi0)
    assert np.allclose(twice, psi0.amps, atol=1e-13)


# --- exact execution ------------------------------------------------------


def test_run_exact_probability_bookkeeping():
    """<0| exp(-i theta X) |0> = cos(theta): success prob cos^2, state |0>."""
    theta = 0.6
    circuit = Circuit(
        n_visible=1, n_ancilla=1,
        gates=(
            Gate("pauli_rot", angle=2 * theta, string=PauliString("IX")),
            Gate("measure", (1,), cbit=0),
            Gate("postselect", cbit=0, value=0),
            Gate("reset", (1,)),
        ),
        n_cbits=1,
    )
    res = run_exact(circuit, StateVector.zeros(1))
    assert res.cumulative_success == pytest.approx(math.cos(theta) ** 2, rel=1e-12)
    assert np.allclose(res.final_state.amps, [1, 0], atol=1e-12)


def test_run_exact_requires_paired_postselect():
    bad = Circuit(1, 1, gates=(Gate("measure", (1,), cbit=0),), n_cbits=1)
    with pytest.raises(SimulationError, match="immediately followed"):
        run_exact(bad, StateVector.zeros(1))
    orphan = Circuit(1, 0, gates=(Gate("postselect", cbit=0, value=0),), n_cbits=1)
    with pytest.raises(SimulationError, match="without a preceding"):
        run_exact(orphan, StateVector.zeros(1))


def test_run_exact_zero_weight_branch():
    circuit = Circuit(
        n_visible=1, n_ancilla=1,
        gates=(
            Gate("measure", (1,), cbit=0),
            Gate("postselect", cbit=0, value=1),  # ancilla starts in |0>
        ),
        n_cbits=1,
    )
    with pytest.raises(SimulationError, match="zero-weight trajectory"):
        run_exact(circuit, StateVector.zeros(1))


def test_run_exact_flags_ancilla_leak():
    circuit = Circuit(1, 1, gates=(Gate("hx", (1,)),))
    with pytest.raises(SimulationError, match="ancillas not returned"):
        run_exact(circuit, StateVector.zeros(1))


def test_reset_factors_out_product_qubit():
    circuit = Circuit(2, 0, gates=(Gate("hx", (1,)), Gate("reset", (1,))))
    res = run_exact(circuit, StateVector.zeros(2))
    assert np.allclose(res.final_state.amps, [1, 0, 0, 0], atol=1e-12)


def test_reset_rejects_entangled_qubit():
    bell = StateVector.from_amplitudes([1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
    circuit = Circuit(2, 0, gates=(Gate("reset", (1,)),))
    with pytest.raises(SimulationError, match="entangled"):
        run_exact(circuit, bell)


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
    circuit = Circuit(3, 0, gates=())
    run = run_shots(circuit, StateVector.uniform_plus(3), 200, seed=1,
                    terminal_basis="XXX")
    assert run.n_accepted == 200
    assert np.all(run.word_values("XII") == 1.0)
    assert np.all(run.word_values("XXX") == 1.0)
    one = Circuit(1, 0, gates=())
    y_run = run_shots(one, StateVector.from_amplitudes(
        [1 / math.sqrt(2), 1j / math.sqrt(2)]), 200, seed=2, terminal_basis="Y")
    assert np.all(y_run.word_values("Y") == 1.0)


def test_word_values_rejects_basis_mismatch():
    circuit = Circuit(2, 0, gates=())
    run = run_shots(circuit, StateVector.uniform_plus(2), 10, seed=0,
                    terminal_basis="ZX")
    with pytest.raises(ValueError, match="not measurable"):
        run.word_values("XI")
    with pytest.raises(ValueError, match="does not match"):
        run.word_values("ZXZ")
    assert np.all(run.word_values("II") == 1.0)


def test_run_shots_validates_basis():
    circuit = Circuit(2, 0, gates=())
    with pytest.raises(ValueError, match="basis"):
        run_shots(circuit, StateVector.zeros(2), 5, seed=0, terminal_basis="ZQ")
    with pytest.raises(ValueError, match="basis"):
        run_shots(circuit, StateVector.zeros(2), 5, seed=0, terminal_basis="Z")


# --- single-trajectory sampling against the batched reference -------------

MIXED = "0.5 YYII\n0.3 IXYZ\n-0.7 ZIIZ\n0.4 XIXI\n0.2 IIIY\n"


def _assert_same_bits(circuit, psi0, n_shots, seed, basis=None):
    run = run_shots(circuit, psi0, n_shots, seed, terminal_basis=basis)
    accepted, cbits, terminal = oracles.batched_shots_reference(
        circuit, psi0, n_shots, seed, terminal_basis=basis)
    assert np.array_equal(run.accepted, accepted)
    assert np.array_equal(run.cbits, cbits)
    assert np.array_equal(run.terminal, terminal)
    return run


@pytest.mark.parametrize("basis", ["ZZZ", "XXX", "YYY", "XYZ", "ZXX"])
def test_run_shots_matches_batched_reference_bases(basis):
    circuit = build_qite_circuit(parse_hamiltonian(TFIM), 0.3, 0.1)
    run = _assert_same_bits(circuit, StateVector.uniform_plus(3), 600, 11, basis)
    assert 0 < run.n_accepted < run.n_shots


@pytest.mark.parametrize("route", ["rbm", "cx"])
@pytest.mark.parametrize("policy", ["single", "pooled:2", "pooled:3"])
def test_run_shots_matches_batched_reference_routes(route, policy):
    h = parse_hamiltonian(MIXED)
    circuit = build_qite_circuit(h, 0.2, 0.1, order=1, route=route,
                                 policy=AncillaPolicy.parse(policy))
    psi0 = StateVector.from_amplitudes(oracles.random_state(4, np.random.default_rng(5)))
    run = _assert_same_bits(circuit, psi0, 400, 23, "YXYZ")
    assert 0 < run.n_accepted < run.n_shots


def test_run_shots_matches_batched_reference_postselect_one():
    circuit = Circuit(
        n_visible=2, n_ancilla=0,
        gates=(
            Gate("pauli_rot", angle=1.1, string=PauliString("XI")),
            Gate("pauli_rot", angle=0.7, string=PauliString("YY")),
            Gate("measure", (0,), cbit=0),
            Gate("postselect", cbit=0, value=1),
            Gate("pauli_rot", angle=0.4, string=PauliString("ZX")),
        ),
        n_cbits=1,
    )
    run = _assert_same_bits(circuit, StateVector.zeros(2), 500, 3)
    assert 0 < run.n_accepted < run.n_shots
    assert np.all(run.terminal[run.accepted, 0] == 1)


def test_run_shots_matches_batched_reference_all_rejected():
    """A certain |1> fails the first check.  The kept branch is below
    BRANCH_FLOOR, so the walk must stop there, as exact mode cannot."""
    circuit = Circuit(
        n_visible=1, n_ancilla=1,
        gates=(
            Gate("pauli_rot", angle=math.pi, string=PauliString("IX")),
            Gate("measure", (1,), cbit=0),
            Gate("postselect", cbit=0, value=0),
            Gate("reset", (1,)),
            Gate("hx", (1,)),
            Gate("measure", (1,), cbit=1),
            Gate("postselect", cbit=1, value=0),
        ),
        n_cbits=2,
    )
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
    step = trotter_step(h, 0.1).to_circuit(3, 1)
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


# --- measure/reset semantics shared by both modes ------------------------


def _message(fn, *args):
    with pytest.raises(SimulationError) as info:
        fn(*args)
    return str(info.value)


STRUCTURE_ERRORS = [
    (Circuit(1, 1, gates=(Gate("measure", (1,), cbit=0),), n_cbits=1),
     StateVector.zeros(1), "immediately followed"),
    (Circuit(1, 1, gates=(Gate("measure", (1,), cbit=0), Gate("hx", (0,)),
                          Gate("postselect", cbit=0, value=0)), n_cbits=1),
     StateVector.zeros(1), "immediately followed"),
    (Circuit(1, 0, gates=(Gate("postselect", cbit=0, value=0),), n_cbits=1),
     StateVector.zeros(1), "without a preceding"),
    (Circuit(2, 0, gates=(Gate("reset", (1,)),)),
     StateVector.from_amplitudes([1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)]),
     "entangled"),
    (Circuit(1, 1, gates=(Gate("hx", (1,)),)),
     StateVector.zeros(1), "ancillas not returned"),
]


@pytest.mark.parametrize("circuit, psi0, match", STRUCTURE_ERRORS)
def test_run_shots_raises_like_run_exact(circuit, psi0, match):
    exact = _message(run_exact, circuit, psi0)
    assert match in exact
    assert _message(run_shots, circuit, psi0, 20, 0) == exact


def test_structure_error_raises_after_every_shot_is_rejected():
    """The walk does not depend on the draws, so a leak after the point
    where the last shot died still raises in shots mode."""
    circuit = Circuit(1, 1, gates=(
        Gate("pauli_rot", angle=math.pi - 2e-3, string=PauliString("IX")),
        Gate("measure", (1,), cbit=0),
        Gate("postselect", cbit=0, value=0),
        Gate("hx", (1,)),
    ), n_cbits=1)
    accepted, _, _ = oracles.batched_shots_reference(circuit, StateVector.zeros(1), 20, 0)
    assert not accepted.any()
    exact = _message(run_exact, circuit, StateVector.zeros(1))
    assert "ancillas not returned" in exact
    assert _message(run_shots, circuit, StateVector.zeros(1), 20, 0) == exact


def test_reset_of_product_qubit_same_in_both_modes():
    a = 0.7
    psi0 = StateVector.from_amplitudes([math.cos(a), 0, 1j * math.sin(a), 0])
    circuit = Circuit(2, 0, gates=(
        Gate("hx", (1,)),
        Gate("pauli_rot", angle=0.5, string=PauliString("IZ")),
        Gate("reset", (1,)),
        Gate("pauli_rot", angle=0.9, string=PauliString("XI")),
    ))
    exact = run_exact(circuit, psi0).final_state.amps
    n = 20000
    run = run_shots(circuit, psi0, n, seed=12)
    assert run.n_accepted == n
    index = 2 * run.terminal[:, 0] + run.terminal[:, 1]
    freq = np.bincount(index, minlength=4) / n
    want = np.abs(exact) ** 2
    assert want[1] == pytest.approx(0.0, abs=1e-24)
    assert want[3] == pytest.approx(0.0, abs=1e-24)
    sigma = np.sqrt(want * (1 - want) / n)
    assert np.all(np.abs(freq - want) <= 4 * sigma + 1e-12)


# --- compiled walk against the gate-by-gate reference --------------------

CHAIN = "".join(f"{c!r} {w}\n" for c, w in oracles.chain_terms(8))
Y_WORDS = MIXED + "-0.6 IZZI\n0.8 XIII\n"


class _GateWalk:
    """A vector walked through the bound gate program of `simulator._compile`,
    as a trajectory walks a circuit that is not made of units."""

    def __init__(self, circuit, psi0):
        self.vec = simulator._embed(circuit, psi0)
        self.buf, self.weights = np.empty_like(self.vec), np.empty(self.vec.size)
        self.record, self.offset, self.stopped, self.circuit = [], 0, False, None

    def advance(self, circuit):
        if circuit is not self.circuit:
            self.circuit = circuit
            self.program = simulator._bind(simulator._compile(circuit), self.vec, self.buf,
                                          self.weights)
        if not self.stopped:
            self.stopped = not simulator._walk(self.program, self.vec, self.buf, self.weights,
                                               self.record, self.offset)
        self.offset += circuit.n_cbits


def _assert_walks_equal(circuit, psi0, steps=1):
    """Walk circuit `steps` times through its compiled gate program and with
    oracles.walk_reference: the same bits (signed zeros included), record
    and stop."""
    walk = _GateWalk(circuit, psi0)
    vec, record, offset, walking = simulator._embed(circuit, psi0), [], 0, True
    for _ in range(steps):
        walk.advance(circuit)
        if walking:
            walking = oracles.walk_reference(circuit, vec, record, offset)
        offset += circuit.n_cbits
    assert np.array_equal(walk.vec.view(np.uint64), vec.view(np.uint64))
    assert walk.record == record
    assert walk.stopped is not walking
    return walk


def _resets_kept(circuit):
    return sum(op[0] == simulator._RESET for op in simulator._compile(circuit))


def _step(text, dtau, route="rbm", policy="single", order=2):
    h = parse_hamiltonian(text)
    pol = AncillaPolicy.parse(policy)
    return trotter_step(h, dtau, order, route=route, policy=pol).to_circuit(h.n_qubits, pol.n)


def test_compiled_walk_equals_reference_on_chain_step():
    """The exact-mode chain: 200 steps of 88 post-selected units, every
    reset dropped, bits and record as the gate-by-gate walk gives them."""
    step = _step(CHAIN, 0.01)
    resets = sum(g.kind == "reset" for g in step.gates)
    assert resets == 88 and _resets_kept(step) == 0
    traj = _assert_walks_equal(step, StateVector.uniform_plus(8), 200)
    assert len(traj.record) == 200 * 88


@pytest.mark.parametrize("route", ["rbm", "cx"])
@pytest.mark.parametrize("policy", ["single", "pooled:2", "pooled:3"])
def test_compiled_walk_equals_reference_on_ising_step(route, policy):
    _assert_walks_equal(_step(TFIM, 0.01, route, policy), StateVector.uniform_plus(3), 100)


@pytest.mark.parametrize("route", ["rbm", "cx"])
@pytest.mark.parametrize("policy, order", [("single", 2), ("pooled:2", 1), ("pooled:3", 2)])
def test_compiled_walk_equals_reference_on_y_words(route, policy, order):
    """hx/hy/hydag/cx kernels (cx route) and pooled ancillas whose measures
    and resets interleave."""
    step = _step(Y_WORDS, 0.1, route, policy, order)
    if route == "cx":
        assert {"hy", "hydag", "cx"} <= {g.kind for g in step.gates}
    psi0 = StateVector.from_amplitudes(oracles.random_state(4, np.random.default_rng(9)))
    _assert_walks_equal(step, psi0, 10)


def _unit(*after):
    """One post-selected ancilla rotation on 1 visible qubit, then `after`."""
    return (Gate("pauli_rot", angle=1.1, string=PauliString("XX")),
            Gate("measure", (1,), cbit=0)) + after


def test_reset_after_postselect_on_one_is_kept():
    circuit = Circuit(1, 1, gates=_unit(
        Gate("postselect", cbit=0, value=1),
        Gate("reset", (1,)),
        Gate("pauli_rot", angle=0.4, string=PauliString("YI")),
    ), n_cbits=1)
    assert _resets_kept(circuit) == 1
    psi0 = StateVector.from_amplitudes([0.6, 0.8j])
    traj = _assert_walks_equal(circuit, psi0, 3)
    assert [entry[1] for entry in traj.record] == [1, 1, 1]


@pytest.mark.parametrize("touch", [
    Gate("hx", (1,)),
    Gate("pauli_rot", angle=0.3, string=PauliString("IZ")),
    Gate("cx", (1, 0)),
])
def test_reset_after_a_gate_on_the_postselected_qubit_is_kept(touch):
    circuit = Circuit(1, 1, gates=_unit(
        Gate("postselect", cbit=0, value=0), touch, Gate("reset", (1,))), n_cbits=1)
    assert _resets_kept(circuit) == 1
    _assert_walks_equal(circuit, StateVector.from_amplitudes([0.6, 0.8j]), 3)


def test_reset_of_untouched_postselected_qubit_is_dropped():
    circuit = Circuit(1, 1, gates=_unit(
        Gate("postselect", cbit=0, value=0),
        Gate("pauli_rot", angle=0.3, string=PauliString("ZI")),
        Gate("reset", (1,)),
        Gate("reset", (1,)),
    ), n_cbits=1)
    assert _resets_kept(circuit) == 0
    _assert_walks_equal(circuit, StateVector.from_amplitudes([0.6, 0.8j]), 3)


def test_entangled_reset_raises_like_reference():
    circuit = Circuit(1, 1, gates=_unit(
        Gate("postselect", cbit=0, value=0),
        Gate("pauli_rot", angle=0.8, string=PauliString("XX")),
        Gate("reset", (1,)),
    ), n_cbits=1)
    psi0 = StateVector.from_amplitudes([0.6, 0.8j])
    want = _message(oracles.walk_reference, circuit, simulator._embed(circuit, psi0), [])
    assert "entangled" in want
    assert _message(_GateWalk(circuit, psi0).advance, circuit) == want


@pytest.mark.parametrize("circuit, psi0, match", STRUCTURE_ERRORS)
def test_structure_errors_raise_like_reference(circuit, psi0, match):
    want = _message(oracles.walk_reference, circuit, simulator._embed(circuit, psi0), [])
    assert match in want
    assert _message(_GateWalk(circuit, psi0).advance, circuit) == want


def test_walk_stops_below_branch_floor_like_reference():
    """A certain |1> fails the post-selection onto 0: the walk stops there,
    so the malformed gate after it raises in neither walk."""
    circuit = Circuit(1, 1, gates=(
        Gate("pauli_rot", angle=0.5, string=PauliString("XI")),
        Gate("pauli_rot", angle=math.pi, string=PauliString("IX")),
        Gate("measure", (1,), cbit=0),
        Gate("postselect", cbit=0, value=0),
        Gate("reset", (1,)),
        Gate("postselect", cbit=0, value=0),
    ), n_cbits=1)
    walk = _assert_walks_equal(circuit, StateVector.zeros(1), 2)
    assert walk.stopped and len(walk.record) == 1
    assert walk.record[0][3] < simulator.BRANCH_FLOOR
    traj = Trajectory(circuit, StateVector.zeros(1))
    traj.advance(circuit)
    assert traj.record == walk.record
    with pytest.raises(SimulationError, match="zero-weight trajectory"):
        traj.final_state()


def test_branch_weights_add_up_like_reference():
    """One |amplitude|^2 array per measurement, summed per branch, gives
    the reference's p and p1 to the bit on random states of up to 17
    qubits, at every measured qubit."""
    rng = np.random.default_rng(21)
    checked = 0
    for n in range(1, 18):
        for q in range(n):
            for _ in range(13 if n <= 12 else 2):
                psi0 = StateVector(n, oracles.random_state(n, rng))
                for value in (0, 1):
                    circuit = Circuit(n, 0, gates=(
                        Gate("measure", (q,), cbit=0),
                        Gate("postselect", cbit=0, value=value)), n_cbits=1)
                    _assert_walks_equal(circuit, psi0)
                    checked += 1
    assert checked >= 2000


def test_chain_step_compiles_to_rotation_and_measure_ops():
    """The gate program of the chain step: its 192 rotations, its 88
    measure/postselect pairs, no reset, and the ancilla leak check."""
    kinds = Counter(op[0] for op in simulator._compile(_step(CHAIN, 0.01)))
    assert kinds == {simulator._ROT: 192, simulator._MEASURE: 88, simulator._LEAK: 1}


# Parts of amplitudes with signed zeros.  An amplitude is assembled from
# its parts (re + 1j * im would be a complex product, which can change the
# sign of a zero).
SIGNED_PARTS = np.array([0.0, -0.0, 0.0, -0.0, 0.6, -0.6, 1.3, -0.8])
SIGNED_ANGLES = [0.0, math.pi, -math.pi, 2 * math.pi, 3 * math.pi, 0.3, -2.9, 7.0]


def _signed_zero_state(n, rng):
    amps = np.empty(1 << n, dtype=complex)
    amps.real = rng.choice(SIGNED_PARTS, amps.size)
    amps.imag = rng.choice(SIGNED_PARTS, amps.size)
    amps.real[rng.integers(amps.size)] = 1.0
    return StateVector(n, amps)


def test_compiled_walk_keeps_signed_zeros_of_rotations():
    """Random 1-3-qubit states with +-0.0 parts through random X/Y/Z
    rotation words, no ancillas: the same bits as the reference.  Folding
    the phase into -i sin(angle/2), or scaling the real view by cos, flips
    the sign of some of these zeros."""
    rng = np.random.default_rng(31)
    for _ in range(400):
        n = int(rng.integers(1, 4))
        gates = tuple(
            Gate("pauli_rot", angle=float(rng.choice(SIGNED_ANGLES)),
                 string=PauliString("".join(rng.choice(list("IXYZ"), n))))
            for _ in range(int(rng.integers(1, 6))))
        _assert_walks_equal(Circuit(n, 0, gates=gates), _signed_zero_state(n, rng), 2)


def test_compiled_walk_keeps_signed_zeros_with_pooled_ancillas():
    """The same states through random Hamiltonians' Trotter steps with a
    pool of two ancillas, on both routes: rotations, measurements and
    resets on both ancillas."""
    rng = np.random.default_rng(32)
    walks = 0
    while walks < 150:
        n = int(rng.integers(1, 4))
        words = {"".join(rng.choice(list("IXYZ"), n)) for _ in range(3)} - {"I" * n}
        if not words:
            continue
        text = "".join(f"{float(rng.choice([0.5, -0.5, 1.3, -2.0]))!r} {w}\n" for w in words)
        step = _step(text, float(rng.choice([0.1, 0.5, 1.0])), str(rng.choice(["rbm", "cx"])),
                     "pooled:2", int(rng.integers(1, 3)))
        _assert_walks_equal(step, _signed_zero_state(n, rng), 3)
        walks += 1


def test_measurement_divides_the_kept_half_like_the_reference():
    """Scaling the real view by 1/sqrt(p) would keep the -0.0 that complex
    division turns into +0.0 here ((-0 + b*0) / s with b >= +0)."""
    amps = np.empty(2, dtype=complex)
    amps.real, amps.imag = [0.6, -0.0], [-0.8, -0.0]
    circuit = Circuit(1, 1, gates=(Gate("measure", (1,), cbit=0),
                                   Gate("postselect", cbit=0, value=0)), n_cbits=1)
    traj = _assert_walks_equal(circuit, StateVector(1, amps))
    assert not np.signbit(traj.vec.real).any()


def test_trajectory_rebinds_when_the_circuit_changes(monkeypatch):
    """One vector advanced alternately through the gate programs of two
    circuits of the same width compiles and binds each time the circuit
    changes, and walks the bits of the reference."""
    compiled = []
    compile_ = simulator._compile
    monkeypatch.setattr(simulator, "_compile", lambda c: compiled.append(c) or compile_(c))
    a, b = _step(TFIM, 0.05, "rbm"), _step(TFIM, 0.1, "cx")
    assert (a.n_qubits, a.n_ancilla) == (b.n_qubits, b.n_ancilla)
    psi0 = StateVector(3, oracles.random_state(3, np.random.default_rng(33)))
    walk = _GateWalk(a, psi0)
    vec, record, offset = simulator._embed(a, psi0), [], 0
    for circuit in (a, b, b, a, b):
        walk.advance(circuit)
        assert oracles.walk_reference(circuit, vec, record, offset)
        offset += circuit.n_cbits
        assert np.array_equal(walk.vec.view(np.uint64), vec.view(np.uint64))
    assert walk.record == record
    assert compiled == [a, b, a, b]


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
