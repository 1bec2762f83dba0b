import ast
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import itebm.decomp
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
    return {tuple(top_sites): coupling, **dec.induced}


@pytest.mark.parametrize("k", [0.05, 0.3, 1.0, 2.0, -0.4, -1.7])
def test_one_body_matches_propagator(k):
    dec = decompose_one_body(k)
    diag = np.diag(oracles.exp_factor(k, "Z"))
    for z, ref in zip(_spins(1), diag):
        assert _realized(dec, z) == pytest.approx(ref.real, rel=1e-12)
    assert dec.induced == {}


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
    pair_coeffs = [c for sites, c in dec.induced.items() if len(sites) == 2]
    single_coeffs = [c for sites, c in dec.induced.items() if len(sites) == 1]
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
    assert all(len(sites) == 2 for sites in dec.induced)
    assert len(dec.induced) == 6


def _explicit_one_body(coupling):
    """The one-body form written out: weight W on site 0, bias s*W."""
    k = abs(coupling)
    s = -1.0 if coupling < 0 else 1.0
    w = 0.5 * math.acos(math.exp(-2.0 * k))
    return Decomposition(k - math.log(2.0), (HiddenUnit(s * w, ((0, w),)),), {})


def _explicit_three_body(coupling):
    """The three-body form written out: equal weights W, bias s*W, pairs
    induced at c2 and singles at s*c2."""
    if coupling == 0.0:
        return Decomposition(0.0, (), {})
    k = abs(coupling)
    s = -1.0 if coupling < 0 else 1.0
    w = 0.5 * math.atan((1.0 - math.exp(-8.0 * k)) ** 0.25)
    c2 = -0.125 * math.log(math.cos(4 * w))
    induced = {(0, 1): c2, (0, 2): c2, (1, 2): c2, (0,): s * c2, (1,): s * c2, (2,): s * c2}
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
    assert list(dec.induced.items()) == list(want.induced.items())
    assert dec.log_norm == want.log_norm


def test_three_four_body_zero_coupling():
    for fn in (decompose_three_body, decompose_four_body):
        dec = fn(0.0)
        assert dec == Decomposition(0.0, (), {})


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


@pytest.mark.parametrize("m", range(5, 15))
def test_general_solver_round_trips_down_to_tiny_couplings(m):
    """K = +-10^-e for every third decade e up to 300, at orders 5 to 14:
    every K in range gets a weight whose unit's top coupling, summed over
    all 2^m spin configurations, is K to 1e-9, the bound of the round
    trip in `decompose_sites`.  Near K = 0 the evaluated K(W) is mostly
    rounding noise, so the bisection's W lies far from the exact root;
    this checks that the unit's coupling is still K."""
    z = 1.0 - 2.0 * ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1)
    parity = np.prod(z, axis=1)
    solved = 0
    for e in range(0, 301, 3):
        for k in (10.0 ** -e, -(10.0 ** -e)):
            try:
                w, sign_flip, c = solve_general_weight(m, k)
            except ValueError as exc:
                assert e == 0 and "exceeds the double-precision" in str(exc)
                continue
            weights = np.full(m, w)
            weights[-1] *= -1.0 if sign_flip else 1.0
            top = -np.mean(parity * np.log(2.0 * np.cos(c + z @ weights)))
            assert abs(top - k) <= 1e-9, (e, k, w, top)
            solved += 1
    assert solved >= 2 * 100


@pytest.mark.parametrize("m", range(1, 15))
def test_general_solver_brackets_the_evaluated_root(m, monkeypatch):
    """Over |K| at fractions of the order's range and every seventh decade
    from 1e-1 down to 1e-295, both signs: W and one of its neighbouring
    doubles bracket the root of the evaluated K(W) - |K|, negative below
    and non-negative above; where |K| is at least 1e-4 of the range, W
    agrees with brentq on the same function; and no solve evaluates K(W)
    more than 96 times."""
    from scipy.optimize import brentq

    m_eff = m if m % 2 == 0 else m + 1
    k_of = itebm.decomp._k_equal_weights
    w_hi = math.pi / (2 * m_eff) - 1e-9
    k_hi = k_of(m_eff, w_hi)
    targets = [f * k_hi for f in (0.9, 0.5, 0.1, 1e-2, 1e-4)]
    targets += [10.0 ** -e for e in range(1, 296, 7) if 10.0 ** -e <= k_hi]
    calls = []
    monkeypatch.setattr(itebm.decomp, "_k_equal_weights",
                        lambda *args: calls.append(args) or k_of(*args))
    for k in targets:
        def resid(x):
            return k_of(m_eff, x) - k

        for k_target in (k, -k):
            calls.clear()
            w, sign_flip, _ = solve_general_weight(m, k_target)
            assert sign_flip == (k_target < 0)
            assert len(calls) <= 96, (k_target, len(calls))
            below, above = math.nextafter(w, 0.0), math.nextafter(w, math.inf)
            assert (resid(below) < 0.0 <= resid(w)
                    or resid(w) < 0.0 <= resid(above)), (k_target, w)
            if k >= 1e-4 * k_hi:
                root = brentq(resid, 0.0, w_hi, xtol=1e-300, rtol=8.9e-16)
                assert w == pytest.approx(root, rel=1e-10, abs=0.0), k_target


def test_coupling_at_the_edge_of_the_range_is_a_value_error():
    """The range check admits |K| = K(w_hi); at order 5 that unit reproduces
    K only to 1.2e-9, past the round trip's 1e-9, which raises a ValueError
    naming the order, K and the gap."""
    k = itebm.decomp._k_equal_weights(6, math.pi / 12 - 1e-9)
    want = rf"{re.escape(repr(k))}.*order 5.*only to 1\.16e-09"
    with pytest.raises(ValueError, match=want):
        decompose_sites(tuple(range(5)), k, 5)


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


def test_induced_couplings_rejects_more_than_the_walsh_site_limit():
    unit = HiddenUnit(bias=0.0, weights=((0, 0.1),))
    with pytest.raises(ValueError, match="order 15 exceeds the Walsh site limit 14"):
        induced_couplings(15, unit)


def test_mean_success_closed_forms_match_average():
    for k in (0.1, 0.5, 1.0, -0.7):
        assert mean_unit_success(decompose_two_body(k).hidden_units[0]) == \
            pytest.approx(oracles.mean_success_two_body(k), rel=1e-12)
        assert mean_unit_success(decompose_three_body(k).hidden_units[0]) == \
            pytest.approx(oracles.mean_success_three_body(k), rel=1e-12)


def test_mean_success_three_body_saturates():
    assert oracles.mean_success_three_body(0.0) == 1.0
    assert oracles.mean_success_three_body(5.0) == pytest.approx(5.0 / 8.0, abs=1e-3)
    assert oracles.mean_success_three_body(50.0) == pytest.approx(5.0 / 8.0, abs=1e-12)


def _first_unit_success(word, k, psi):
    """Kept-branch probability of the first unit that a one-term step of
    exp(-K word) post-selects, walked exactly from psi."""
    circuit = oracles.one_term_circuit(HamiltonianTerm(k, PauliString(word)), 1.0)
    traj = Trajectory(circuit, StateVector(len(word), psi))
    traj.advance()
    return traj.record[0][1]


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
                    assert abs(got - oracles.mean_success_two_body(k)) < 1e-12


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
                    assert abs(got - oracles.mean_success_three_body(k)) < 1e-12


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
    assert decompose_sites((0, 1), 0.0, 3) == Decomposition(0.0, (), {})
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
    decs = cascade_diagonal(table)
    for z in _spins(n):
        assert _realized(decs, z) == pytest.approx(_target(table, z), rel=1e-11)


def test_cascade_emits_highest_order_first():
    decs = cascade_diagonal({(0,): 0.3, (0, 1, 2): 0.5})
    orders = [len(d.hidden_units[0].weights) for d in decs if d.hidden_units]
    assert orders == sorted(orders, reverse=True)
    assert orders[0] == 3


def test_cascade_identity_remainder():
    decs = cascade_diagonal({(): 0.7, (0, 1): 0.4})
    tail = decs[-1]
    assert tail.hidden_units == () and tail.log_norm == pytest.approx(-0.7)
    for z in _spins(2):
        assert _realized(decs, z) == pytest.approx(
            _target({(0, 1): 0.4, (): 0.7}, z), rel=1e-12
        )


def test_cascade_drops_exact_zeros():
    decs = cascade_diagonal({(0,): 0.0, (1,): 0.5})
    assert len(decs) == 1


def test_decompose_diagonal_hamiltonian():
    """The coupling table of 0.4 ZZI - 0.3 IZZ + 0.2 ZIZ + 0.1 IZI at
    tau = 0.35 cascades into units that reconstruct exp(-tau H) exactly."""
    tau = 0.35
    table = {
        (0, 1): 0.4 * tau, (1, 2): -0.3 * tau,
        (0, 2): 0.2 * tau, (1,): 0.1 * tau,
    }
    decs = cascade_diagonal(table)
    for z in _spins(3):
        assert _realized(decs, z) == pytest.approx(_target(table, z), rel=1e-11)


def test_hidden_unit_validation():
    with pytest.raises(ValueError, match="at least one"):
        HiddenUnit(bias=0.0, weights=())
    with pytest.raises(ValueError, match="non-finite"):
        HiddenUnit(bias=0.0, weights=((0, math.inf),))


def test_decomp_knows_no_pauli_words():
    """Induced couplings are a {sites: K} table, so decomp imports nothing
    from the Pauli-word module."""
    tree = ast.parse(open(itebm.decomp.__file__, encoding="utf-8").read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert [name for name in imported if name.split(".")[-1] == "pauli"] == []
