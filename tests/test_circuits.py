import math

import numpy as np
import pytest

from itebm.circuits import build_qite_circuit, trotter_groups, trotter_step
from itebm import simulator
from itebm.decomp import decompose_one_body
from itebm.ir import Circuit, Fragment, Gate
from itebm.pauli import HamiltonianTerm, PauliString, parse_hamiltonian
from itebm.simulator import StateVector, run_exact

import oracles

TFIM = "1 ZZI\n1 IZZ\n1 ZIZ\n-1 XII\n-1 IXI\n-1 IIX\n"


def _reconstruct(circuit, psi0):
    """Unnormalized post-selected action of the circuit, all its repeats, on
    psi0: run_exact walks every repetition, and log_norm is the whole
    circuit's."""
    res = run_exact(circuit, psi0)
    scale = math.exp(res.log_norm) * math.sqrt(res.cumulative_success)
    return scale * res.final_state.amps


def _group_matrix(h, dtau, order):
    """Ordered product of per-term factors for one Trotter step."""
    mat = np.eye(1 << h.n_qubits, dtype=complex)
    for terms, factor in trotter_groups(h, order):
        for t in terms:
            mat = oracles.exp_factor(factor * dtau * t.coefficient, t.string.word) @ mat
    return mat


ENCODE_CASES = [
    ("Z", 0.8), ("X", -0.5), ("Y", 1.1),
    ("ZZ", 0.6), ("XY", -0.7), ("XX", 0.25),
    ("XYZ", 0.4), ("ZIX", -0.3),
    ("XYZX", 0.2),
]


@pytest.mark.parametrize("word,coeff", ENCODE_CASES)
@pytest.mark.parametrize("route", ["rbm", "word"], ids=["encode_term_rbm", "encode_term_cx"])
def test_encode_term_matches_factor(word, coeff, route):
    """exp(log_norm) * sqrt(p) * psi_out == exp(-dtau c P) psi_in exactly."""
    term = HamiltonianTerm(coeff, PauliString(word))
    n = len(word)
    dtau = 0.35
    circuit = oracles.one_term_circuit(term, dtau, route)
    rng = np.random.default_rng(11)
    psi0 = StateVector(n, oracles.random_state(n, rng))
    got = _reconstruct(circuit, psi0)
    want = oracles.exp_factor(dtau * coeff, word) @ psi0.amps
    assert np.allclose(got, want, atol=1e-12)


def test_rbm_route_is_basis_free():
    """X/Y terms rotate in their own letters: no basis-change gates appear."""
    term = HamiltonianTerm(1.0, PauliString("XY"))
    circuit = oracles.one_term_circuit(term, 0.3)
    kinds = {g.kind for g in circuit.gates}
    assert kinds == {"pauli_rot", "measure", "postselect", "reset"}
    weight_rots = [g for g in circuit.gates
                   if g.kind == "pauli_rot" and g.string.order == 2]
    assert {g.string.word for g in weight_rots} == {"XIX", "IYX"}
    # the ancilla takes part in every rotation
    for g in circuit.gates:
        if g.kind == "pauli_rot":
            assert g.string.word[2] == "X"


def test_word_route_structure():
    """One unit: the rotation P ⊗ X_a at 2w, w = acos(e^{-2k}) / 2, then
    the bias s 2w on X_a alone, s the coupling's sign, then measure,
    postselect(0) and reset; its log_norm is k and its mean success
    (1 + e^{-4k}) / 2."""
    for coeff in (0.9, -0.9):
        term = HamiltonianTerm(coeff, PauliString("XYZ"))
        circuit = oracles.one_term_circuit(term, 0.3, "word")
        k = 0.3 * abs(coeff)
        w = 0.5 * math.acos(math.exp(-2.0 * k))
        assert circuit.units == ((("XYZ", 2.0 * w), ("III", math.copysign(2.0 * w, coeff))),)
        assert circuit.gates == (
            Gate("pauli_rot", angle=2.0 * w, string=PauliString("XYZX")),
            Gate("pauli_rot", angle=math.copysign(2.0 * w, coeff), string=PauliString("IIIX")),
            Gate("measure", (3,), cbit=0),
            Gate("postselect", cbit=0, value=0),
            Gate("reset", (3,)),
        )
        assert circuit.n_cbits == 1
        assert circuit.log_norm == k
        assert circuit.model_success == 0.5 * (1.0 + math.exp(-4.0 * k))


@pytest.mark.parametrize("coeff", [0.9, -0.9, 2.5, -0.01])
def test_word_route_is_the_one_body_unit_on_the_word(coeff):
    """Each term's unit is decompose_one_body(dtau c) with its site 0 the
    term's whole word, angles == its own.  Its log_norm, ln 2 + (k - ln 2),
    is k but for the rounding at ln 2, one ulp of max(k, ln 2) at most; its
    mean success is (1 + e^{-4k}) / 2 to 1e-14."""
    h = parse_hamiltonian(f"{coeff!r} XYZ\n{-0.5 * coeff!r} ZIX\n")
    dtau = 0.3
    units = []
    for term in h.terms:
        k = dtau * abs(term.coefficient)
        (unit,) = decompose_one_body(dtau * term.coefficient).hidden_units
        units.append(((term.string.word, 2.0 * unit.weights[0][1]), ("III", 2.0 * unit.bias)))
        circuit = oracles.one_term_circuit(term, dtau, "word")
        assert circuit.units == (units[-1],)
        assert abs(circuit.log_norm - k) <= math.ulp(max(k, math.log(2.0)))
        assert circuit.model_success == pytest.approx(
            0.5 * (1.0 + math.exp(-4.0 * k)), rel=1e-14, abs=0.0)
    assert trotter_step(h, dtau, order=1, route="word").units == units


def test_three_body_unit_count():
    """ZZZ needs one top unit plus six compensating lower-order units."""
    term = HamiltonianTerm(1.0, PauliString("ZZZ"))
    rbm = oracles.one_term_circuit(term, 0.2)
    assert len(rbm.units) == 7
    word = oracles.one_term_circuit(term, 0.2, "word")
    assert len(word.units) == 1


def test_rbm_three_body_loss_falls_as_the_root_of_dtau():
    """The rbm route's mean loss on a ZZZ step, -log10 of its
    model_success, falls 0.5 +- 0.05 decades per decade of dtau between
    dtau 1e-4 and 1e-6 (0.496 and 0.499 measured); the word route's one
    unit loses -ln model_success = 2 dtau, linear in dtau.  A change to
    the cascade's compensating units shows here."""
    term = HamiltonianTerm(1.0, PauliString("ZZZ"))
    loss = [-math.log10(oracles.one_term_circuit(term, dtau).model_success)
            for dtau in (1e-4, 1e-5, 1e-6)]
    for coarse, fine in zip(loss, loss[1:]):
        assert abs(math.log10(coarse / fine) - 0.5) <= 0.05


def test_identity_term_is_scalar():
    term = HamiltonianTerm(2.5, PauliString("III"))
    for route in ("rbm", "word"):
        circuit = oracles.one_term_circuit(term, 0.4, route)
        assert circuit.units == ()
        assert circuit.log_norm == pytest.approx(-1.0)


def test_zero_coupling_is_empty():
    term = HamiltonianTerm(0.0, PauliString("ZZ"))
    circuit = oracles.one_term_circuit(term, 0.4)
    assert circuit.units == () and circuit.log_norm == 0.0


def test_trotter_groups_structure():
    h = parse_hamiltonian(TFIM)
    assert trotter_groups(h, 1) == [(h.terms, 1.0)]
    groups = trotter_groups(h, 2)
    assert [f for _, f in groups] == [0.5, 1.0, 0.5]
    assert all(t.string.order == 1 for t in groups[0][0])
    assert all(t.string.order == 2 for t in groups[1][0])
    assert groups[0][0] == groups[2][0]
    with pytest.raises(ValueError, match="order"):
        trotter_groups(h, 3)


def test_trotter_groups_degenerate_splits():
    only_x = parse_hamiltonian("1 XI\n1 IX\n")
    assert [f for _, f in trotter_groups(only_x, 2)] == [0.5, 0.5]
    only_zz = parse_hamiltonian("1 ZZ\n")
    assert trotter_groups(only_zz, 2) == [(only_zz.terms, 1.0)]


def test_trotter_step_merged_diagonal_table():
    """Terms sharing a letter map collapse into one cascade."""
    h = parse_hamiltonian("1 ZZZ\n0.5 ZZI\n")
    dtau = 0.3
    frag = trotter_step(h, dtau, order=1)
    # merged: 1 three-body + 3 pairs + 3 singles = 7 units; per-term would be 8
    assert len(frag.units) == 7
    circuit = frag.to_circuit(3)
    rng = np.random.default_rng(7)
    psi0 = StateVector(3, oracles.random_state(3, rng))
    want = oracles.exp_factor(dtau, "ZZZ") @ \
        oracles.exp_factor(0.5 * dtau, "ZZI") @ psi0.amps
    assert np.allclose(_reconstruct(circuit, psi0), want, atol=1e-12)


def test_trotter_step_mixed_letters_per_term():
    h = parse_hamiltonian(TFIM)
    dtau = 0.2
    for order in (1, 2):
        frag = trotter_step(h, dtau, order=order)
        circuit = frag.to_circuit(3)
        rng = np.random.default_rng(13)
        psi0 = StateVector(3, oracles.random_state(3, rng))
        got = _reconstruct(circuit, psi0)
        want = _group_matrix(h, dtau, order) @ psi0.amps
        assert np.allclose(got, want, atol=1e-12)


def test_trotter_step_rejects_unknown_route():
    h = parse_hamiltonian("1 ZZ\n")
    for route in ("qft", "cx"):
        with pytest.raises(ValueError, match="route"):
            trotter_step(h, 0.1, route=route)


LAYOUT_CASES = {
    "tfim": TFIM,
    "three-body": "0.7 XYZ\n-0.4 YYX\n0.3 ZXY\n",
    "chain": "".join(f"{c!r} {w}\n" for c, w in oracles.chain_terms(8)),
}


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("route", oracles.ROUTES)
@pytest.mark.parametrize("name", list(LAYOUT_CASES))
def test_every_unit_is_measured_and_reset_before_the_next(name, route, order):
    """One ancilla, qubit n.  In the circuit's gates, the gates on it are,
    unit by unit, the unit's rotations, then at once its measure into the
    next cbit, its post-selection onto 0 and its reset."""
    h = parse_hamiltonian(LAYOUT_CASES[name])
    n = h.n_qubits
    circuit = build_qite_circuit(h, 0.02, 0.01, order, route=route)
    assert circuit.n_qubits == n + 1 and circuit.repeats == 2
    unit, cbit = [], 0  # the gates on the ancilla since its last reset
    for i, g in enumerate(circuit.gates):
        if g.kind == "postselect" or n in (g.string.support() if g.string else g.qubits):
            unit.append((i, g))
        if g.kind != "reset":
            continue
        *rotations, (at, measure), (_, postselect), (_, reset) = unit
        assert rotations and all(r.kind == "pauli_rot" and r.string.word[n] == "X"
                                 for _, r in rotations)
        assert measure == Gate("measure", (n,), cbit=cbit)
        assert postselect == Gate("postselect", cbit=cbit, value=0)
        assert reset == Gate("reset", (n,))
        assert unit[-1][0] == at + 2
        assert at == rotations[-1][0] + 1
        unit, cbit = [], cbit + 1
    assert not unit and cbit == circuit.n_cbits // circuit.repeats > 0


def test_build_qite_circuit_repeats_steps():
    h = parse_hamiltonian(TFIM)
    dtau, n_steps = 0.1, 4
    circuit = build_qite_circuit(h, n_steps * dtau, dtau)
    step = _group_matrix(h, dtau, 2)
    want = np.linalg.matrix_power(step, n_steps)
    rng = np.random.default_rng(29)
    psi0 = StateVector(3, oracles.random_state(3, rng))
    assert np.allclose(_reconstruct(circuit, psi0), want @ psi0.amps, atol=1e-11)
    assert 0.0 < circuit.model_success < 1.0


@pytest.mark.parametrize("name, n_steps", [
    ("tfim", 1), ("tfim", 7), ("tfim", 1000), ("chain", 1), ("chain", 100),
])
def test_build_qite_circuit_is_the_step_repeated(name, n_steps):
    """The circuit holds one step's units, walked n_steps times, and its
    whole-circuit n_cbits, log_norm and model_success equal those of the
    unrolled step; the chain step compiles to its 10-op unit program."""
    terms = oracles.tfim_terms(3) if name == "tfim" else oracles.chain_terms(8)
    h = parse_hamiltonian("".join(f"{c!r} {w}\n" for c, w in terms))
    circuit = build_qite_circuit(h, n_steps * 0.01, 0.01)
    step = trotter_step(h, 0.01)
    unrolled = step.repeated(n_steps).to_circuit(h.n_qubits)
    assert circuit.units == tuple(step.units) and circuit.repeats == n_steps
    assert circuit.n_cbits == unrolled.n_cbits
    assert circuit.log_norm == unrolled.log_norm
    assert circuit.model_success == unrolled.model_success
    if name == "chain":
        assert len(simulator._units(circuit)) == 10


def test_circuit_cbits_split_into_repeats():
    """One cbit per unit and repeat; a circuit is walked at least once."""
    unit = (("Z", 0.3),)
    assert Circuit(1, (unit, unit), repeats=3).n_cbits == 6
    with pytest.raises(ValueError, match="repeats must be >= 1, got 0"):
        Circuit(1, (unit,), repeats=0)


def test_build_qite_circuit_validation():
    h = parse_hamiltonian("1 ZZ\n")
    with pytest.raises(ValueError, match="positive"):
        build_qite_circuit(h, 1.0, -0.1)
    with pytest.raises(ValueError, match="multiple"):
        build_qite_circuit(h, 1.0, 0.3)
    empty = build_qite_circuit(h, 0.0, 0.1)
    assert empty.gates == () and empty.log_norm == 0.0


def test_model_success_tracks_mean_unit_success():
    term = HamiltonianTerm(0.7, PauliString("ZZ"))
    circuit = oracles.one_term_circuit(term, 1.0)
    assert circuit.model_success == pytest.approx(
        0.5 * (1 + math.exp(-4 * 0.7)), rel=1e-12
    )


# --- IR plumbing ---------------------------------------------------------


def test_gate_kind_validation():
    for kind in ("hadamard", "cx"):
        with pytest.raises(ValueError, match="kind"):
            Gate(kind, (0,))


def test_fragment_extend_shifts_cbits():
    """A unit's cbit is its index: extend appends the units, and in the
    gates the second fragment's cbits follow the first's."""
    a = Fragment([(("Z", 0.1),)], log_norm=0.5)
    b = Fragment([(("X", 0.2), ("I", 0.4)), (("Y", 0.3),)], model_success=0.5)
    a.extend(b)
    assert a.units == [(("Z", 0.1),), (("X", 0.2), ("I", 0.4)), (("Y", 0.3),)]
    assert [g.cbit for g in a.gates if g.cbit is not None] == [0, 0, 1, 1, 2, 2]
    assert (a.log_norm, a.model_success) == (0.5, 0.5)


def test_fragment_repeated():
    base = Fragment([(("Z", 0.1),)], log_norm=0.5, model_success=0.9)
    rep = base.repeated(3)
    assert [g.cbit for g in rep.gates if g.kind == "measure"] == [0, 1, 2]
    assert rep.log_norm == pytest.approx(1.5)
    assert rep.model_success == pytest.approx(0.9**3)


def test_to_circuit_checks_width():
    """A unit word must be a Pauli word on the visible qubits."""
    for bad in ("ZZZ", "QZ"):
        frag = Fragment([(("ZZ", 0.1),), ((bad, 0.2),)])
        with pytest.raises(ValueError,
                           match=f"^unit word '{bad}' is not a Pauli word on 2 qubits$"):
            frag.to_circuit(2)

