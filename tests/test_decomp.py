import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itebm.decomp import (
    Decomposition,
    HiddenUnit,
    cascade_diagonal,
    decompose_four_body,
    decompose_one_body,
    decompose_sites,
    decompose_three_body,
    decompose_two_body,
    induced_couplings,
    mean_success_three_body,
    mean_success_two_body,
    mean_unit_success,
    solve_general_weight,
)
from itebm.pauli import HamiltonianTerm, PauliString
from itebm.simulator import StateVector, Trajectory

import oracles

# K ranges where the equal-weight matching condition is solvable in double
# precision (the top coupling saturates quickly with order).
K_RANGE = {1: 2.0, 2: 2.0, 3: 1.2, 4: 1.2, 5: 0.35, 6: 0.35}


def _spins(m):
    return list(itertools.product((1.0, -1.0), repeat=m))


def _realized(decs, z):
    """exp(sum log_norm) * product of marginalized unit factors at spins z."""
    if isinstance(decs, Decomposition):
        decs = [decs]
    total = math.fsum(d.log_norm for d in decs)
    value = math.exp(total)
    for d in decs:
        for u in d.hidden_units:
            value *= 2.0 * math.cos(u.bias + sum(w * z[q] for q, w in u.weights))
    return value


def _target(couplings, z):
    """exp(-sum_S K_S prod_{q in S} z_q) for a {sites: K} table."""
    expo = 0.0
    for sites, k in couplings.items():
        expo -= k * math.prod(z[q] for q in sites)
    return math.exp(expo)


def _full_table(dec, top_sites, coupling):
    """Coupling table a single decomposition is expected to realize."""
    table = {tuple(top_sites): coupling}
    for t in dec.induced_terms:
        table[t.string.support()] = table.get(t.string.support(), 0.0) + t.coefficient
    return table


@pytest.mark.parametrize("k", [0.05, 0.3, 1.0, 2.0, -0.4, -1.7])
def test_one_body_matches_propagator(k):
    dec = decompose_one_body(k)
    diag = np.diag(oracles.exp_factor(k, "Z"))
    for z, ref in zip(_spins(1), diag):
        assert _realized(dec, z) == pytest.approx(ref.real, rel=1e-12)
    assert dec.induced_terms == ()


@pytest.mark.parametrize("k", [0.05, 0.5, 1.0, 2.0, -0.3, -2.0])
def test_two_body_matches_propagator(k):
    dec = decompose_two_body(k)
    diag = np.diag(oracles.exp_factor(k, "ZZ"))
    for z, ref in zip(_spins(2), diag):
        assert _realized(dec, z) == pytest.approx(ref.real, rel=1e-12)
    assert dec.hidden_units[0].bias == 0.0


@pytest.mark.parametrize("k", [0.05, 0.4, 1.0, -0.2, -1.0])
def test_three_body_reconstruction(k):
    """Unit realizes the target ZZZ factor times its induced couplings."""
    dec = decompose_three_body(k)
    table = _full_table(dec, (0, 1, 2), k)
    for z in _spins(3):
        assert _realized(dec, z) == pytest.approx(_target(table, z), rel=1e-12)
    pair_coeffs = [t.coefficient for t in dec.induced_terms if t.string.order == 2]
    single_coeffs = [t.coefficient for t in dec.induced_terms if t.string.order == 1]
    assert len(pair_coeffs) == 3 and len(single_coeffs) == 3
    w = dec.hidden_units[0].weights[0][1]
    c2 = -0.125 * math.log(math.cos(4 * w))
    assert pair_coeffs == pytest.approx([c2] * 3)
    assert single_coeffs == pytest.approx([math.copysign(c2, k)] * 3)


@pytest.mark.parametrize("k", [0.05, 0.4, 1.0, -0.2, -1.0])
def test_four_body_reconstruction(k):
    dec = decompose_four_body(k)
    table = _full_table(dec, (0, 1, 2, 3), k)
    for z in _spins(4):
        assert _realized(dec, z) == pytest.approx(_target(table, z), rel=1e-12)
    assert dec.hidden_units[0].bias == 0.0
    assert all(t.string.order == 2 for t in dec.induced_terms)
    assert len(dec.induced_terms) == 6


def _explicit_one_body(coupling):
    """The one-body form written out: weight W on site 0, bias s*W."""
    k = abs(coupling)
    s = -1.0 if coupling < 0 else 1.0
    w = 0.5 * math.acos(math.exp(-2.0 * k))
    return Decomposition(k - math.log(2.0), (HiddenUnit(s * w, ((0, w),)),), ())


def _explicit_three_body(coupling):
    """The three-body form written out: equal weights W, bias s*W, pairs
    induced at c2 and singles at s*c2."""
    if coupling == 0.0:
        return Decomposition(0.0, (), ())
    k = abs(coupling)
    s = -1.0 if coupling < 0 else 1.0
    w = 0.5 * math.atan((1.0 - math.exp(-8.0 * k)) ** 0.25)
    c2 = -0.125 * math.log(math.cos(4 * w))
    induced = tuple(HamiltonianTerm(c2, PauliString(p)) for p in ("ZZI", "ZIZ", "IZZ")) \
        + tuple(HamiltonianTerm(s * c2, PauliString(p)) for p in ("ZII", "IZI", "IIZ"))
    log_norm = -math.log(2.0) - 0.5 * math.log(math.cos(2 * w)) \
        - 0.125 * math.log(math.cos(4 * w))
    return Decomposition(log_norm, (HiddenUnit(s * w, ((0, w), (1, w), (2, w))),), induced)


@pytest.mark.parametrize("k", [0.0, 1e-9, -1e-9, 0.01, -0.01, 0.3, -0.3, 1.0, -1.0,
                               2.5, -2.5, 10.0, -10.0])
@pytest.mark.parametrize("fn, explicit", [
    (decompose_one_body, _explicit_one_body),
    (decompose_three_body, _explicit_three_body),
], ids=["one", "three"])
def test_odd_forms_are_the_pinned_even_forms_bit_for_bit(fn, explicit, k):
    """Pinning the last site of the two- and four-body forms gives exactly
    the explicit one- and three-body formulas: unit, induced terms and
    log_norm are == theirs."""
    dec, want = fn(k), explicit(k)
    assert dec.hidden_units == want.hidden_units
    assert len(dec.induced_terms) == len(want.induced_terms)
    for got_term, want_term in zip(dec.induced_terms, want.induced_terms):
        assert got_term == want_term
    assert dec.log_norm == want.log_norm


def test_three_four_body_zero_coupling():
    for fn in (decompose_three_body, decompose_four_body):
        dec = fn(0.0)
        assert dec == Decomposition(0.0, (), ())


def test_three_body_log_norm_closed_form():
    dec = decompose_three_body(0.7)
    w = dec.hidden_units[0].weights[0][1]
    expected = -math.log(2) - 0.5 * math.log(math.cos(2 * w)) \
        - 0.125 * math.log(math.cos(4 * w))
    assert dec.log_norm == pytest.approx(expected, rel=1e-14)


@given(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.05, max_value=1.0),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_general_solver_round_trip(m, frac, negate):
    k = frac * K_RANGE[m] * (-1.0 if negate else 1.0)
    w, sign_flip, c = solve_general_weight(m, k)
    assert sign_flip == (k < 0)
    assert c == (w if m % 2 else 0.0)
    weights = [w] * m
    if sign_flip:
        weights[-1] = -w
    unit = HiddenUnit(bias=c, weights=tuple(enumerate(weights)))
    top = dict(induced_couplings(m, unit))[tuple(range(m))]
    assert top == pytest.approx(k, rel=1e-10, abs=1e-12)


def test_general_solver_agrees_with_closed_forms():
    for k in (0.1, 0.5, 1.0):
        w2, _, c2 = solve_general_weight(2, k)
        assert c2 == 0.0
        assert w2 == pytest.approx(0.5 * math.acos(math.exp(-2 * k)), abs=1e-10)
        w3, _, _ = solve_general_weight(3, k)
        assert w3 == pytest.approx(
            0.5 * math.atan((1 - math.exp(-8 * k)) ** 0.25), abs=1e-10
        )
        w4, _, _ = solve_general_weight(4, k)
        assert w4 == pytest.approx(w3, abs=1e-10)


def test_general_solver_input_checks():
    with pytest.raises(ValueError, match="order"):
        solve_general_weight(0, 0.5)
    with pytest.raises(ValueError, match="non-finite"):
        solve_general_weight(2, math.nan)
    with pytest.raises(ValueError, match="range"):
        solve_general_weight(6, 3.0)
    assert solve_general_weight(3, 0.0) == (0.0, False, 0.0)


def test_induced_couplings_identity_slot_is_log_norm():
    for k in (0.2, 0.9):
        dec = decompose_three_body(k)
        table = dict(induced_couplings(3, dec.hidden_units[0]))
        assert table[()] == pytest.approx(dec.log_norm, rel=1e-12)
        assert table[(0, 1, 2)] == pytest.approx(k, rel=1e-12)


def test_induced_couplings_rejects_out_of_range_site():
    unit = HiddenUnit(bias=0.0, weights=((0, 0.1), (5, 0.1)))
    with pytest.raises(ValueError, match="outside"):
        induced_couplings(2, unit)


def test_mean_success_closed_forms_match_average():
    for k in (0.1, 0.5, 1.0, -0.7):
        assert mean_unit_success(decompose_two_body(k).hidden_units[0]) == \
            pytest.approx(mean_success_two_body(k), rel=1e-12)
        assert mean_unit_success(decompose_three_body(k).hidden_units[0]) == \
            pytest.approx(mean_success_three_body(k), rel=1e-12)


def test_mean_success_three_body_saturates():
    assert mean_success_three_body(0.0) == 1.0
    assert mean_success_three_body(5.0) == pytest.approx(5.0 / 8.0, abs=1e-3)
    assert mean_success_three_body(50.0) == pytest.approx(5.0 / 8.0, abs=1e-12)


def _first_unit_success(word, k, psi):
    """Kept-branch probability of the first unit that a one-term step of
    exp(-K word) post-selects, walked exactly from psi."""
    circuit = oracles.one_term_circuit(HamiltonianTerm(k, PauliString(word)), 1.0)
    traj = Trajectory(circuit, StateVector.from_amplitudes(psi))
    traj.advance(circuit)
    return traj.record[0][2]


def _law_inputs(word, seed):
    """Random states on the word's qubits (the uniform state first), with
    the spins of the word's Z sites per basis state."""
    n = len(word)
    rng = np.random.default_rng(seed)
    states = [np.full(1 << n, (1 << n) ** -0.5, dtype=complex)]
    states += [oracles.random_state(n, rng) for _ in range(4)]
    sites = [q for q, ch in enumerate(word) if ch == "Z"]
    spins = np.array(_spins(n))[:, sites]
    return states, spins


def test_success_probability_two_body():
    """The walk's kept-branch probability is the two-body law, for both
    signs of K; on the uniform state (alpha = 1/2) it is the mean law."""
    for seed, word in enumerate(("ZZ", "ZIZ", "IZZI")):
        states, spins = _law_inputs(word, seed)
        for k in (0.2, -0.2, 0.9, -0.9, 2.5, -2.5):
            for i, psi in enumerate(states):
                alpha = np.abs(psi) ** 2 @ (spins[:, 0] * spins[:, 1] == np.sign(k))
                got = _first_unit_success(word, k, psi)
                assert abs(got - oracles.two_body_success(k, alpha)) < 1e-12
                if i == 0:
                    assert abs(got - mean_success_two_body(k)) < 1e-12


def test_success_probability_three_body():
    """The walk's kept-branch probability of the top unit is the
    three-body law, for both signs of K; on the uniform state
    (alpha2, alpha4) = (1/2, 1/8) it is the mean law."""
    for seed, word in enumerate(("ZZZ", "ZIZZ")):
        states, spins = _law_inputs(word, seed)
        for k in (0.2, -0.2, 0.8, -0.8, 2.0, -2.0):
            level = np.abs(spins.sum(axis=1) + np.sign(k))
            for i, psi in enumerate(states):
                prob = np.abs(psi) ** 2
                law = oracles.three_body_success(k, prob @ (level == 2), prob @ (level == 4))
                got = _first_unit_success(word, k, psi)
                assert abs(got - law) < 1e-12
                if i == 0:
                    assert abs(got - mean_success_three_body(k)) < 1e-12


def test_decompose_sites_relabels():
    dec = decompose_sites((4, 1), -0.6, 6)
    diag = np.diag(oracles.exp_factor(-0.6, "IZIIZI"))
    for j, z in enumerate(_spins(6)):
        assert _realized(dec, z) == pytest.approx(diag[j].real, rel=1e-12)


def test_decompose_sites_validation():
    with pytest.raises(ValueError, match="distinct"):
        decompose_sites((1, 1), 0.5, 3)
    with pytest.raises(ValueError, match="distinct"):
        decompose_sites((), 0.5, 3)
    with pytest.raises(ValueError, match="range"):
        decompose_sites((0, 3), 0.5, 3)
    assert decompose_sites((0, 1), 0.0, 3) == Decomposition(0.0, (), ())
    for k in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="coupling must be finite"):
            decompose_sites((0, 1), k, 3)


@pytest.mark.parametrize("seed", range(6))
def test_cascade_reconstructs_random_table(seed):
    """Cascaded units jointly realize exp of the full coupling table."""
    rng = np.random.default_rng(seed)
    n = 4
    table = {}
    for _ in range(rng.integers(2, 6)):
        order = int(rng.integers(1, 5))
        sites = tuple(sorted(rng.choice(n, size=order, replace=False).tolist()))
        table[sites] = table.get(sites, 0.0) + float(rng.uniform(-0.8, 0.8))
    decs = cascade_diagonal(table, n)
    for z in _spins(n):
        assert _realized(decs, z) == pytest.approx(_target(table, z), rel=1e-11)


def test_cascade_emits_highest_order_first():
    decs = cascade_diagonal({(0,): 0.3, (0, 1, 2): 0.5}, 3)
    orders = [len(d.hidden_units[0].weights) for d in decs if d.hidden_units]
    assert orders == sorted(orders, reverse=True)
    assert orders[0] == 3


def test_cascade_identity_remainder():
    decs = cascade_diagonal({(): 0.7, (0, 1): 0.4}, 2)
    tail = decs[-1]
    assert tail.hidden_units == () and tail.log_norm == pytest.approx(-0.7)
    for z in _spins(2):
        assert _realized(decs, z) == pytest.approx(
            _target({(0, 1): 0.4, (): 0.7}, z), rel=1e-12
        )


def test_cascade_drops_exact_zeros():
    decs = cascade_diagonal({(0,): 0.0, (1,): 0.5}, 2)
    assert len(decs) == 1


def test_decompose_diagonal_hamiltonian():
    """The coupling table of 0.4 ZZI - 0.3 IZZ + 0.2 ZIZ + 0.1 IZI at
    tau = 0.35 cascades into units that reconstruct exp(-tau H) exactly."""
    tau = 0.35
    table = {
        (0, 1): 0.4 * tau, (1, 2): -0.3 * tau,
        (0, 2): 0.2 * tau, (1,): 0.1 * tau,
    }
    decs = cascade_diagonal(table, 3)
    for z in _spins(3):
        assert _realized(decs, z) == pytest.approx(_target(table, z), rel=1e-11)


def test_hidden_unit_validation():
    with pytest.raises(ValueError, match="at least one"):
        HiddenUnit(bias=0.0, weights=())
    with pytest.raises(ValueError, match="non-finite"):
        HiddenUnit(bias=0.0, weights=((0, math.inf),))


def test_decomposition_json_dict():
    d = decompose_two_body(0.5).to_json_dict()
    assert set(d) == {"log_norm", "hidden_units", "induced"}
    assert d["hidden_units"][0]["weights"][0][0] == 0
    assert d["induced"] == []
