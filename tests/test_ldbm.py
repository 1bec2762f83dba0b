import ast
import json
import math
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from itebm import ldbm
from itebm.decomp import Decomposition, HiddenUnit
from itebm.ldbm import (
    DbmNetwork,
    LdbmNetwork,
    apply_diagonal_imaginary,
    apply_hx,
    apply_hy,
    apply_hy_dag,
    apply_rz,
    apply_rzz,
    apply_term_imaginary,
    ldbm_to_dbm,
    plus_state,
    raw_amplitudes,
    statevector,
    statevector_norm,
    zero_state,
)
from itebm.pauli import HamiltonianTerm, PauliString
from itebm.simulator import StateVector

import oracles


def _random_net(n, m, rng, scale=0.4, real=False):
    def draw(*shape):
        x = rng.normal(size=shape) * scale
        if not real:
            x = x + 1j * rng.normal(size=shape) * scale
        return x

    pairs, lat = oracles.dense_edges(np.triu(draw(m, m), k=1))
    return LdbmNetwork(n, draw(n), draw(m), draw(n, m), pairs, lat,
                       log_norm=complex(draw()))


def _oracle_amps(net):
    return oracles.ldbm_amplitudes_bruteforce(
        net.n_visible, net.a, net.b, net.w, net.pairs, net.lat, net.log_norm
    )


def _assert_gate_action(net, new, mat):
    """raw amplitudes transform exactly by the gate matrix."""
    got = raw_amplitudes(new)
    want = mat @ raw_amplitudes(net)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-13 * np.abs(want).max())


# --- representation -------------------------------------------------------


def test_plus_and_zero_states():
    p = statevector(plus_state(3))
    assert np.allclose(p.amps, np.full(8, 1 / math.sqrt(8)), atol=1e-14)
    assert statevector_norm(plus_state(3)) == pytest.approx(1.0)
    z = zero_state(2)
    assert oracles.fidelity(statevector(z).amps, StateVector.from_bitstring("00").amps) == \
        pytest.approx(1.0)
    assert statevector_norm(z) == pytest.approx(1.0, rel=1e-12)
    assert z.n_hidden == 2


@pytest.mark.parametrize("seed", range(4))
def test_amplitudes_match_bruteforce(seed):
    rng = np.random.default_rng(seed)
    net = _random_net(3, 5, rng)
    got = raw_amplitudes(net)
    want = _oracle_amps(net)
    assert np.allclose(got, want, rtol=1e-11, atol=1e-13 * np.abs(want).max())


def test_network_validation():
    with pytest.raises(ValueError, match="finite"):
        LdbmNetwork(1, [math.inf], [], np.zeros((1, 0)))
    with pytest.raises(ValueError, match="finite"):
        LdbmNetwork(1, [0], [0, 0], [[0, 0]], [[0, 1]], [math.nan])
    with pytest.raises(ValueError, match="shape"):
        LdbmNetwork(2, [0], [0], [[0], [0]])


@pytest.mark.parametrize("pairs,lat,message", [
    ([[1, 0]], [0.5], "0 <= j < k < M=3"),
    ([[1, 1]], [0.5], "0 <= j < k < M=3"),
    ([[-1, 1]], [0.5], "0 <= j < k < M=3"),
    ([[1, 3]], [0.5], "0 <= j < k < M=3"),
    ([[0, 2], [1, 2], [0, 2]], [0.5, 0.1, 0.2], "repeated"),
    ([[0, 1], [1, 2]], [0.5], "lat has shape"),
    ([[0, 1, 2]], [0.5], "pairs has shape"),
])
def test_lateral_edge_validation(pairs, lat, message):
    with pytest.raises(ValueError, match=message):
        LdbmNetwork(1, [0], [0, 0, 0], [[0, 0, 0]], pairs, lat)


def test_elimination_width_limit():
    """The limit is on the elimination width, not on the unit count: a fully
    connected 22-unit net (width 21) is refused, a 200-unit chain is not."""
    with pytest.raises(ValueError, match="elimination width 21 .* width limit 20"):
        raw_amplitudes(_random_net(1, 22, np.random.default_rng(0)))
    m = 200
    chain = np.column_stack([np.arange(m - 1), np.arange(1, m)])
    rng = np.random.default_rng(1)
    net = LdbmNetwork(2, rng.normal(size=2), rng.normal(size=m) * 0.4,
                      rng.normal(size=(2, m)) * 0.4, chain,
                      np.full(m - 1, 0.3 + 0.1j), log_norm=-60.0)
    got = raw_amplitudes(net)
    assert np.all(np.isfinite(got))
    # the chain's transfer-matrix product, one site at a time
    spin = np.array([1.0, -1.0])
    pair = np.exp(1j * (0.3 + 0.1j) * np.outer(spin, spin))
    for zi, z in enumerate(([1, 1], [1, -1], [-1, 1], [-1, -1])):
        unary = np.exp(1j * np.outer(net.b + np.asarray(z) @ net.w, spin))
        vec, log_scale = unary[0], 0.0
        for j in range(1, m):
            vec = (vec @ pair) * unary[j]
            log_scale += math.log(np.abs(vec).max())
            vec /= np.abs(vec).max()
        want = np.exp(net.log_norm + 1j * (np.asarray(z) @ net.a) + log_scale) * vec.sum()
        assert got[zi] == pytest.approx(want, rel=1e-11)


ORACLE_CASES = [  # (N, M, real parameters)
    (1, 12, False), (1, 11, True), (2, 10, False), (2, 9, True),
    (3, 10, False), (3, 9, True), (3, 7, False), (2, 6, True),
    (1, 3, False), (3, 1, True), (2, 0, False), (3, 8, False),
]


@pytest.mark.parametrize("n,m,real", ORACLE_CASES)
def test_elimination_matches_bruteforce(n, m, real):
    """Dense, non-bipartite laterals (criterion-7 style draws) are summed
    exactly: oracle-equal to the explicit 2^M double loop."""
    rng = np.random.default_rng([n, m, real])
    net = _random_net(n, m, rng, scale=0.35, real=real)
    got = raw_amplitudes(net)
    want = _oracle_amps(net)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()


def test_marginalization_stays_in_log_space():
    """700 isolated units with b = -1j: each sums to 2 cosh 1, so a direct
    product of the factors overflows, yet the amplitude
    (2 cosh 1)^700 e^-789 is finite."""
    m = 700
    with np.errstate(over="ignore"):
        assert np.isinf(np.prod(np.full(m, 2.0 * math.cosh(1.0))))
    net = LdbmNetwork(1, [0.0], np.full(m, -1j), np.zeros((1, m)),
                      log_norm=-789.0)
    want = math.exp(m * math.log(2.0 * math.cosh(1.0)) - 789.0)
    got = raw_amplitudes(net)
    assert np.all(np.isfinite(got))
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_real_params_flag():
    rng = np.random.default_rng(1)
    assert oracles.real_params(_random_net(2, 3, rng, real=True))
    assert not oracles.real_params(_random_net(2, 3, rng, real=False))
    # log_norm may be complex without breaking parameter reality
    net = plus_state(1)
    assert oracles.real_params(LdbmNetwork(1, net.a, net.b, net.w, net.pairs, net.lat, 1j))


def test_json_round_trip():
    """The `dump` dict keeps every parameter exactly through JSON text."""
    net = _random_net(2, 3, np.random.default_rng(5))
    d = json.loads(json.dumps(net.to_json_dict()))

    def unpair(pairs):
        arr = np.array(pairs)
        return arr[..., 0] + 1j * arr[..., 1]

    assert (d["N"], d["M"]) == (2, 3)
    lat = np.zeros((3, 3), dtype=complex)
    for (j, k), coupling in zip(net.pairs, net.lat):
        lat[j, k] = coupling
    for key, value in (("a", net.a), ("b", net.b), ("W", net.w), ("L", lat)):
        assert np.array_equal(unpair(d[key]), value)
    assert complex(*d["log_norm"]) == net.log_norm


# --- unitary absorption rules ---------------------------------------------


GATE_CASES = [
    (apply_hx, oracles.HX),
    (apply_hy, oracles.HY),
    (apply_hy_dag, oracles.HY_DAG),
]


@pytest.mark.parametrize("apply,mat", GATE_CASES)
@pytest.mark.parametrize("seed", range(3))
def test_basis_gates_exact(apply, mat, seed):
    rng = np.random.default_rng(seed)
    net = _random_net(2, 3, rng)
    for l in (0, 1):
        new = apply(net, l)
        assert new.n_hidden == net.n_hidden + 1
        _assert_gate_action(net, new, oracles.embed_1q(mat, l, 2))


@pytest.mark.parametrize("apply,mat", GATE_CASES)
def test_basis_gates_preserve_reality(apply, mat):
    net = _random_net(2, 3, np.random.default_rng(9), real=True)
    assert oracles.real_params(apply(net, 0))


def test_basis_gates_sever_visible_couplings():
    net = _random_net(2, 3, np.random.default_rng(4))
    new = apply_hx(net, 0)
    assert np.all(new.w[0, :3] == 0)          # old couplings severed
    assert new.pairs[-3:].tolist() == [[0, 3], [1, 3], [2, 3]]
    assert np.array_equal(new.lat[-3:], -net.w[0, :])  # moved to laterals
    assert new.w[0, 3] == pytest.approx(math.pi / 4)
    assert new.a[0] == pytest.approx(math.pi / 4)


def test_hy_dag_inverts_hy():
    net = _random_net(1, 2, np.random.default_rng(8))
    back = apply_hy_dag(apply_hy(net, 0), 0)
    got = statevector(back)
    assert oracles.fidelity(got.amps, statevector(net).amps) == pytest.approx(1.0, abs=1e-12)
    assert statevector_norm(back) == pytest.approx(statevector_norm(net), rel=1e-10)


def test_apply_rz_exact():
    net = _random_net(2, 2, np.random.default_rng(3))
    phi = 0.813
    new = apply_rz(net, 1, phi)
    assert new.n_hidden == net.n_hidden
    gate = np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
    _assert_gate_action(net, new, oracles.embed_1q(gate, 1, 2))


@pytest.mark.parametrize("l1,l2", [(0, 1), (1, 0), (0, 2)])
def test_apply_rzz_exact(l1, l2):
    rng = np.random.default_rng(l1 * 3 + l2)
    net = _random_net(3, 2, rng)
    phi = -0.377
    new = apply_rzz(net, l1, l2, phi)
    assert new.n_hidden == net.n_hidden + 2
    sites = {l1: "Z", l2: "Z"}
    word = "".join(sites.get(q, "I") for q in range(3))
    _assert_gate_action(net, new, oracles.exp_factor(1j * phi, word))


def test_apply_rzz_rejects_duplicate_site():
    with pytest.raises(ValueError, match="distinct"):
        apply_rzz(plus_state(2), 1, 1, 0.1)


def test_site_range_checks():
    net = plus_state(2)
    for fn in (apply_hx, apply_hy, apply_hy_dag):
        with pytest.raises(ValueError, match="out of range"):
            fn(net, 2)
    with pytest.raises(ValueError, match="out of range"):
        apply_rz(net, -1, 0.1)


def test_apply_term_imaginary_rejects_a_term_of_another_width():
    term = HamiltonianTerm(1.0, PauliString("XYZ"))
    with pytest.raises(ValueError, match="term width 3 != network width 2"):
        apply_term_imaginary(plus_state(2), term, 0.1)


# --- imaginary-time absorption --------------------------------------------


def _word(n, sites):
    return "".join("Z" if q in sites else "I" for q in range(n))


@pytest.mark.parametrize("sites,growth", [((1,), 1), ((0, 2), 1), ((0, 1, 2), 7)])
def test_diagonal_imaginary_exact(sites, growth):
    rng = np.random.default_rng(len(sites))
    net = _random_net(3, 2, rng)
    word = _word(3, sites)
    term = HamiltonianTerm(0.9, PauliString(word))
    dtau = 0.3
    new = apply_diagonal_imaginary(net, term, dtau)
    assert new.n_hidden == net.n_hidden + growth
    _assert_gate_action(net, new, oracles.exp_factor(dtau * 0.9, word))


def test_diagonal_imaginary_negative_coupling():
    net = plus_state(2)
    term = HamiltonianTerm(-1.2, PauliString("ZZ"))
    new = apply_diagonal_imaginary(net, term, 0.5)
    _assert_gate_action(net, new, oracles.exp_factor(-0.6, "ZZ"))


def test_diagonal_imaginary_preserves_reality():
    net = zero_state(3)
    assert oracles.real_params(net)
    new = apply_diagonal_imaginary(
        net, HamiltonianTerm(1.0, PauliString("ZZZ")), 0.2
    )
    assert oracles.real_params(new)


def test_diagonal_imaginary_edge_cases():
    net = _random_net(2, 1, np.random.default_rng(2))
    term = HamiltonianTerm(0.7, PauliString("ZZ"))
    assert apply_diagonal_imaginary(net, term, 0.0) is net
    scalar = apply_diagonal_imaginary(net, HamiltonianTerm(0.7, PauliString("II")), 0.5)
    assert scalar.n_hidden == net.n_hidden
    assert scalar.log_norm == pytest.approx(net.log_norm - 0.35)
    with pytest.raises(ValueError, match="not diagonal"):
        apply_diagonal_imaginary(net, HamiltonianTerm(1.0, PauliString("XZ")), 0.1)
    with pytest.raises(ValueError, match="width"):
        apply_diagonal_imaginary(net, HamiltonianTerm(1.0, PauliString("ZZZ")), 0.1)


@pytest.mark.parametrize("word,coeff", [
    ("XI", 0.8), ("IY", -0.5), ("XX", 0.6), ("YZ", 0.9), ("XY", -0.4),
])
def test_term_imaginary_exact(word, coeff):
    rng = np.random.default_rng(sum(map(ord, word)))
    net = _random_net(2, 2, rng)
    term = HamiltonianTerm(coeff, PauliString(word))
    dtau = 0.25
    new = apply_term_imaginary(net, term, dtau)
    _assert_gate_action(net, new, oracles.exp_factor(dtau * coeff, word))


def test_term_imaginary_grows_by_basis_pairs():
    """An X term adds the diagonal unit plus two basis units per X site."""
    net = plus_state(2)
    new = apply_term_imaginary(net, HamiltonianTerm(1.0, PauliString("XI")), 0.3)
    assert new.n_hidden == 3
    assert oracles.real_params(new)


def test_network_knows_no_gates():
    """The network absorbs a term by reading its letters, so ldbm imports
    neither the hardware gate view (`ir.Gate`) nor the layer that writes
    it (`pauli.basis_rotation_layer`)."""
    tree = ast.parse(open(ldbm.__file__, encoding="utf-8").read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    gates = {"ir", "Gate", "basis_rotation_layer"}
    assert [name for name in imported if name.split(".")[-1] in gates] == []


def test_full_trotter_step_absorption():
    """One first-order step of the mixed-field chain absorbed end to end."""
    from itebm.pauli import parse_hamiltonian

    h = parse_hamiltonian("1 ZZI\n1 IZZ\n1 ZIZ\n-1 XII\n-1 IXI\n-1 IIX\n")
    dtau = 0.1
    net = plus_state(3)
    for t in h.terms:
        net = apply_term_imaginary(net, t, dtau)
    assert net.n_hidden == 12  # 3 pair units + 3 * (2 basis + 1 diagonal)
    ref = oracles.trotterized_oracle(h, dtau, dtau, 1, StateVector.uniform_plus(3))
    assert oracles.fidelity(statevector(net).amps, ref.amps) == pytest.approx(1.0, abs=1e-12)


@pytest.fixture(scope="module")
def tfim_trajectory():
    """100 second-order steps of the 3-qubit TFIM at dtau 0.1 absorbed into
    one network, with the dense product of the same exp(-dtau c P) factors,
    each applied as cosh(k) - sinh(k) P: {step: (network, dense state)} at
    steps 1-10 and every 10th step."""
    from itebm.circuits import trotter_groups
    from itebm.pauli import parse_hamiltonian

    terms = oracles.tfim_terms(3)
    h = parse_hamiltonian("".join(f"{c} {w}\n" for c, w in terms))
    words = {w: oracles.word_matrix(w) for _, w in terms}
    dtau = 0.1
    net = plus_state(3)
    psi = np.full(8, 1 / math.sqrt(8), dtype=complex)
    checkpoints = {}
    for step in range(1, 101):
        for group, factor in trotter_groups(h, 2):
            for t in group:
                net = apply_term_imaginary(net, t, dtau * factor)
                k = dtau * factor * t.coefficient
                psi = math.cosh(k) * psi - math.sinh(k) * (words[t.string.word] @ psi)
        if step <= 10 or step % 10 == 0:
            checkpoints[step] = (net, psi)
    return checkpoints


def test_tfim_trajectory_matches_dense_factors(tfim_trajectory):
    """Ten second-order steps of the 3-qubit TFIM at dtau 0.1, absorbed into
    one network (210 units, far past 2^M enumeration): at every step the
    state and the raw norm, tracked through log_norm, equal the dense
    product of the same exp(-dtau c P) factors."""
    for step in range(1, 11):
        net, psi = tfim_trajectory[step]
        raw = raw_amplitudes(net)
        assert oracles.fidelity(raw, psi) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(raw) == pytest.approx(np.linalg.norm(psi), rel=1e-12)
    assert tfim_trajectory[10][0].n_hidden == 210


def test_long_tfim_trajectory_matches_dense_factors(tfim_trajectory):
    """At every 10th of 100 steps (2,100 units at the end) the absorbed
    network's state and raw norm equal the dense factor product's."""
    for step in range(10, 101, 10):
        net, psi = tfim_trajectory[step]
        raw = raw_amplitudes(net)
        assert abs(oracles.fidelity(raw, psi) - 1.0) <= 1e-12
        assert np.linalg.norm(raw) == pytest.approx(np.linalg.norm(psi), rel=1e-9)
    assert tfim_trajectory[100][0].n_hidden == 2100


def test_absorption_appends_few_edges(tfim_trajectory):
    """The lateral graph holds O(M) edges, not M^2 / 2 entries: every unit a
    gate appends brings at most a couple of edges with it."""
    net = tfim_trajectory[100][0]
    assert net.lat.size <= 2 * net.n_hidden


def _random_rbm_hamiltonian(seed: int):
    """1-4 sites, 1-5 words of 1-3 letters from XYZ on distinct sites, each
    with a coefficient in [-1, 1]."""
    from itebm.pauli import Hamiltonian

    rng = np.random.default_rng([seed, 12])
    n = int(rng.integers(1, 5))
    terms = []
    for _ in range(int(rng.integers(1, 6))):
        letters = ["I"] * n
        for site in rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)), replace=False):
            letters[site] = "XYZ"[int(rng.integers(3))]
        terms.append(HamiltonianTerm(float(rng.uniform(-1.0, 1.0)),
                                     PauliString("".join(letters))))
    return Hamiltonian(n, tuple(terms))


@pytest.mark.parametrize("seed", range(24))
def test_network_equals_the_circuit_walk(seed):
    """The two engines are one block encoding: 20 rbm-route Trotter steps
    absorbed term by term into a network from |+>^n give raw amplitudes
    equal to the walk's exp(log_norm) * sqrt(cumulative_success) *
    psi_final, to 1e-10 of the largest amplitude."""
    from itebm.circuits import build_qite_circuit, trotter_groups
    from itebm.simulator import run_exact

    h = _random_rbm_hamiltonian(seed)
    order, dtau, steps = 1 + seed % 2, 0.05, 20
    net = plus_state(h.n_qubits)
    for _ in range(steps):
        for group, factor in trotter_groups(h, order):
            for t in group:
                net = apply_term_imaginary(net, t, dtau * factor)
    walk = run_exact(build_qite_circuit(h, steps * dtau, dtau, order, "rbm"),
                     StateVector.uniform_plus(h.n_qubits))
    raw = raw_amplitudes(net)
    want = math.exp(walk.log_norm) * math.sqrt(walk.cumulative_success) * walk.final_state.amps
    assert np.max(np.abs(raw - want)) <= 1e-10 * np.max(np.abs(raw))


def test_state_and_norm_marginalizes_once(monkeypatch):
    import itebm.ldbm as ldbm

    net = _random_net(2, 4, np.random.default_rng(12))
    calls = []
    inner = ldbm._marginalize
    monkeypatch.setattr(ldbm, "_marginalize", lambda *a: calls.append(1) or inner(*a))
    state, norm = ldbm.state_and_norm(net)
    assert len(calls) == 1
    assert np.array_equal(state.amps, statevector(net).amps)
    assert norm == statevector_norm(net)
    with pytest.raises(ValueError, match="identically zero"):
        ldbm.state_and_norm(replace(net, log_norm=-1e4))


@pytest.mark.parametrize("k, match", [(400.0, "norm overflows"),
                                      (1e308, "amplitudes overflow")])
def test_statevector_norm_raises_on_overflow(k, match):
    """statevector_norm fails as loudly as state_and_norm, instead of
    returning inf (K = 400) or nan (K = 1e308)."""
    net = apply_term_imaginary(zero_state(2), HamiltonianTerm(k, PauliString("ZZ")), 1.0)
    with pytest.raises(ValueError, match=match):
        statevector_norm(net)


# --- three-layer conversion ------------------------------------------------


def test_pure_rbm_needs_no_deep_units():
    net = zero_state(2)  # no laterals at all
    dbm = ldbm_to_dbm(net)
    assert dbm.n_deep == 0
    assert dbm.n_hidden == 2
    assert oracles.fidelity(statevector(dbm.to_ldbm()).amps, statevector(net).amps) == \
        pytest.approx(1.0, abs=1e-12)


def test_basis_gate_on_occupied_qubit_splits_layers():
    """hx on a qubit that already has a hidden unit: that unit goes deep."""
    net = apply_hx(zero_state(1), 0)
    assert net.n_hidden == 2
    dbm = ldbm_to_dbm(net)
    assert (dbm.n_hidden, dbm.n_deep) == (1, 1)
    got = raw_amplitudes(dbm.to_ldbm())
    want = raw_amplitudes(net)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_nonbipartite_component_goes_deep():
    """A lateral triangle cannot be two-colored; all three units go deep."""
    m = 3
    rng = np.random.default_rng(6)
    net = LdbmNetwork(2, rng.normal(size=2) * 0.3, rng.normal(size=m) * 0.3,
                      rng.normal(size=(2, m)) * 0.3, [[0, 1], [0, 2], [1, 2]],
                      np.full(3, 0.31 + 0.12j))
    dbm = ldbm_to_dbm(net)
    assert dbm.n_deep == 3
    got = raw_amplitudes(dbm.to_ldbm())
    want = raw_amplitudes(net)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-11 * np.abs(want).max())


@pytest.mark.parametrize("seed", range(8))
def test_conversion_preserves_state(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(1, 3))
    m = int(rng.integers(0, 5))
    net = _random_net(n, m, rng)
    dbm = ldbm_to_dbm(net)
    lateral = dbm.to_ldbm()
    assert np.all(lateral.pairs[:, 1] >= dbm.n_hidden)  # none inside the hidden layer
    w_deep =np.array(dbm.to_json_dict()["W_deep"]).reshape(dbm.n_hidden, dbm.n_deep, 2)
    assert lateral.lat.size == np.count_nonzero(w_deep.any(axis=2))
    assert oracles.fidelity(statevector(lateral).amps, statevector(net).amps) >= 1.0 - 1e-9


def test_dbm_json_dict():
    dbm = ldbm_to_dbm(apply_hx(zero_state(1), 0))
    d = dbm.to_json_dict()
    assert d["M"] == 1 and d["M_deep"] == 1
    assert len(d["W_deep"]) == d["M"]


def test_dbm_validation():
    """A bad entry is refused by the lateral network, with its message."""
    with pytest.raises(ValueError, match="a must be finite"):
        DbmNetwork(LdbmNetwork(1, [math.nan], [], np.zeros((1, 0))), 0)
    with pytest.raises(ValueError, match="a has shape"):
        DbmNetwork(LdbmNetwork(2, [0.1, 0.2, 0.3], [0.5], [[0.1], [0.2]]), 0)


@pytest.mark.parametrize("w, pairs, n_deep, message", [
    ([[0.1, 0.2]], [[0, 1]], 1, "a deep unit has a visible coupling"),
    ([[0.1, 0.0, 0.0]], [[1, 2]], 2, r"each pair \(j, k\) needs hidden j < M=1 <= k deep"),
    ([[0.1, 0.2, 0.0]], [[0, 1]], 1, r"each pair \(j, k\) needs hidden j < M=2 <= k deep"),
    ([[0.1, 0.0]], [[0, 1]], -1, r"n_deep=-1 needs 0 <= n_deep <= 2 units"),
    ([[0.1, 0.0]], [[0, 1]], 3, r"n_deep=3 needs 0 <= n_deep <= 2 units"),
], ids=["deep-visible", "deep-deep", "hidden-hidden", "n_deep-negative", "n_deep-past-M"])
def test_dbm_refuses_a_wrong_layer_split(w, pairs, n_deep, message):
    lateral = LdbmNetwork(1, [0.0], np.full(len(w[0]), 0.1), w, pairs, np.full(len(pairs), 0.3))
    with pytest.raises(ValueError, match=f"^{message}$"):
        DbmNetwork(lateral, n_deep)


def _array_bytes(obj) -> int:
    """Bytes of the arrays in obj's fields, and in its networks' fields."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    return sum(_array_bytes(getattr(obj, f.name)) for f in fields(obj)) if is_dataclass(obj) else 0


def test_dbm_keeps_couplings_linear_in_units(tfim_trajectory):
    """The 100-step TFIM network's DBM (903 hidden, 1,200 deep units) keeps
    W_deep as its lateral edge list, not as a dense M x M_deep matrix
    (17.3 MB alone), and hands that lateral network out as it is."""
    dbm = ldbm_to_dbm(tfim_trajectory[100][0])
    assert _array_bytes(dbm) <= 1 << 20
    assert dbm.to_ldbm() is dbm.to_ldbm()


@pytest.mark.parametrize("seed", range(16))
def test_dbm_laterals_are_w_deep_in_row_major_order(seed):
    """to_ldbm() lists the hidden-deep pairs as the nonzero entries of the
    dumped W_deep, read row by row."""
    n, ops = _random_rule_script(seed)
    net = zero_state(n)
    for rule, *args in ops:
        net = rule(net, *args)
    dbm = ldbm_to_dbm(net)
    w_deep = np.array(dbm.to_json_dict()["W_deep"]).reshape(dbm.n_hidden, dbm.n_deep, 2)
    rows, cols = np.nonzero(w_deep.any(axis=2))
    np.testing.assert_array_equal(dbm.to_ldbm().pairs,
                                  np.column_stack([rows, dbm.n_hidden + cols]))


# --- what a rule checks and returns ------------------------------------------


@pytest.mark.parametrize("build, name", [
    (lambda: apply_rz(apply_rz(zero_state(1), 0, 1e308), 0, 1e308), "a"),
    (lambda: apply_rzz(zero_state(2), 0, 1, math.inf), "b"),
    (lambda: ldbm._append_basis_unit(zero_state(1), 0, math.inf, 0.0, 0.0, 0.0), "W"),
    (lambda: ldbm._append_basis_unit(zero_state(1), 0, 0.0, math.nan, 0.0, 0.0), "b"),
], ids=["rz-sum", "rzz-angle", "basis-weight", "basis-bias"])
def test_a_rule_refuses_a_non_finite_entry_it_writes(build, name):
    """A rule checks the entries it writes and names their array exactly as
    the constructor does."""
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        build()


def test_diagonal_rule_refuses_a_non_finite_unit(monkeypatch):
    unit = HiddenUnit(math.inf, ((0, 0.5),))
    monkeypatch.setattr(ldbm, "cascade_diagonal",
                        lambda targets: [Decomposition(0.0, (unit,), {})])
    with pytest.raises(ValueError, match="^b must be finite$"):
        apply_diagonal_imaginary(zero_state(1), HamiltonianTerm(0.1, PauliString("Z")), 1.0)


@pytest.mark.parametrize("w, pairs, lat, name", [
    # unit 1 goes deep, and its visible coupling overflows
    ([[0.1, 0.3 - 400j]], [[0, 1]], [0.2], "W"),
    # a triangle goes deep, and one of its edges overflows
    ([[0.1, 0.0, 0.0]], [[0, 1], [0, 2], [1, 2]], [0.3 - 400j, 0.3, 0.3], "W_deep"),
], ids=["visible-coupling", "deep-edge"])
def test_to_dbm_refuses_a_non_finite_mediator(w, pairs, lat, name):
    net = LdbmNetwork(1, [0.0], np.full(len(w[0]), 0.1), w, pairs, lat)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            ldbm_to_dbm(net)


def test_rules_share_what_they_do_not_write():
    """A rule returns read-only arrays and passes on, uncopied, those it
    leaves alone."""
    net = apply_rzz(zero_state(2), 0, 1, 0.3)
    after = apply_rz(net, 1, 0.2)
    assert all(getattr(after, f) is getattr(net, f) for f in ("b", "w", "pairs", "lat"))
    assert after.a is not net.a and not after.a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        net.pairs[0, 0] = 1
    dbm = ldbm_to_dbm(after)
    assert dbm.to_ldbm().a is after.a and not dbm.to_ldbm().lat.flags.writeable


def _random_rule_script(seed: int):
    """1-3 qubits, 3-14 ops: basis changes, rz, rzz (on two or more qubits)
    and imag words drawn from IXYZ, all-I words included."""
    rng = np.random.default_rng([seed, 32])
    n = int(rng.integers(1, 4))
    rules = {"hx": apply_hx, "hy": apply_hy, "hydag": apply_hy_dag}
    ops = []
    for _ in range(int(rng.integers(3, 15))):
        kind = str(rng.choice(["hx", "hy", "hydag", "rz", "imag", "imag"]
                              + ["rzz"] * (n > 1)))
        angle = float(rng.uniform(-1.0, 1.0))
        if kind in rules:
            ops.append((rules[kind], int(rng.integers(n))))
        elif kind == "rz":
            ops.append((apply_rz, int(rng.integers(n)), angle))
        elif kind == "rzz":
            ops.append((apply_rzz, *map(int, rng.choice(n, size=2, replace=False)), angle))
        else:
            word = PauliString("".join(rng.choice(list("IXYZ"), size=n)))
            ops.append((apply_term_imaginary, HamiltonianTerm(0.5 * angle, word), 1.0))
    return n, ops


def _assert_fields_bit_equal(again, value, name):
    """again equals value bit for bit; a network field by field."""
    assert type(again) is type(value), name
    if isinstance(value, LdbmNetwork):
        for f in fields(value):
            _assert_fields_bit_equal(getattr(again, f.name), getattr(value, f.name),
                                     f"{name}.{f.name}")
        return
    assert np.shape(again) == np.shape(value), name
    assert np.asarray(again).dtype == np.asarray(value).dtype, name
    assert np.asarray(again).tobytes() == np.asarray(value).tobytes(), name


def _assert_rebuilt_bit_equal(net):
    """The public constructor accepts net and keeps every field bit for bit."""
    given = {f.name: getattr(net, f.name) for f in fields(net)}
    rebuilt = type(net)(**given)
    for name, value in given.items():
        _assert_fields_bit_equal(getattr(rebuilt, name), value, name)


@pytest.mark.parametrize("seed", range(16))
def test_every_rule_returns_a_net_the_constructor_accepts_unchanged(seed):
    n, ops = _random_rule_script(seed)
    net = plus_state(n)
    for q in range(n):
        net = apply_hx(net, q)
        _assert_rebuilt_bit_equal(net)
    for rule, *args in ops:
        net = rule(net, *args)
        _assert_rebuilt_bit_equal(net)
    dbm = ldbm_to_dbm(net)
    _assert_rebuilt_bit_equal(dbm)
    _assert_rebuilt_bit_equal(dbm.to_ldbm())
