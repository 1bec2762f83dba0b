"""End-to-end acceptance gate.

Each test prints exactly one PASS/FAIL line (mirrored to the real stdout so
the verdicts survive pytest's capture), then asserts.  Budgets and
tolerances are fixed; seeds are pinned so every run is reproducible.
"""
import math
import sys
import time

import numpy as np

from itebm.circuits import build_qite_circuit
from itebm.cli import ising_hamiltonian
from itebm.decomp import (
    decompose_three_body,
    induced_couplings,
    HiddenUnit,
    solve_general_weight,
)
from itebm.evolution import iter_evolution
from itebm.ir import Circuit
from itebm.ldbm import (
    LdbmNetwork,
    apply_diagonal_imaginary,
    apply_hx,
    apply_hy,
    apply_hy_dag,
    apply_rz,
    apply_rzz,
    apply_term_imaginary,
    ldbm_to_dbm,
    raw_amplitudes,
    statevector,
)
from itebm.pauli import HamiltonianTerm, PauliString, dense_matrix, word_from_sites
from itebm.simulator import (
    StateVector,
    expectation,
    imaginary_time_oracle,
    run_exact,
    run_shots,
)
from itebm.stats import bootstrap, jackknife

import oracles

SHOT_SEED = 20260818


def _report(num, name, ok, detail):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    if sys.stdout is not sys.__stdout__:
        print(line, file=sys.__stdout__)
    assert ok, line


def _random_word(rng, max_qubits=4):
    n = int(rng.integers(1, max_qubits + 1))
    while True:
        word = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        if word.strip("I"):
            return word


def test_criterion_1_identity_exactness():
    """Post-selected encodings reproduce exp(-K P) on random states."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 1.0
    for case in range(500):
        word = _random_word(rng)
        k = float(rng.uniform(-2.0, 2.0))
        n = len(word)
        term = HamiltonianTerm(k, PauliString(word))
        route = "word" if case % 5 == 4 else "rbm"
        circuit = oracles.one_term_circuit(term, 1.0, route)
        psi0 = StateVector(n, oracles.random_state(n, rng))
        final = run_exact(circuit, psi0).final_state
        target = oracles.exp_factor(k, word) @ psi0.amps
        worst = min(worst, oracles.fidelity(final.amps, target))
    elapsed = time.perf_counter() - t0
    ok = worst >= 1.0 - 1e-12 and elapsed < 30.0
    _report(1, "identity exactness", ok,
            f"500 cases, min fidelity {worst:.15f}, {elapsed:.1f} s")


def test_criterion_2_weight_solver_round_trip():
    """Equal-weight solve reproduces its coupling; closed forms agree."""
    rng = np.random.default_rng(1)
    k_hi = {2: 2.0, 3: 1.2, 4: 1.2, 5: 0.35, 6: 0.35}
    worst_rt = 0.0
    for m in range(2, 7):
        for _ in range(50):
            k = float(rng.uniform(0.05, k_hi[m]) * rng.choice([-1.0, 1.0]))
            w, flip, c = solve_general_weight(m, k)
            weights = [w] * m
            if flip:
                weights[-1] = -w
            unit = HiddenUnit(bias=c, weights=tuple(enumerate(weights)))
            top = dict(induced_couplings(m, unit))[tuple(range(m))]
            worst_rt = max(worst_rt, abs(top - k))
    worst_cf = 0.0
    for k in np.linspace(0.05, 1.2, 25):
        closed2 = 0.5 * math.acos(math.exp(-2.0 * k))
        closed34 = 0.5 * math.atan((1.0 - math.exp(-8.0 * k)) ** 0.25)
        for m, closed in ((2, closed2), (3, closed34), (4, closed34)):
            w, _, _ = solve_general_weight(m, float(k))
            worst_cf = max(worst_cf, abs(w - closed))
    ok = worst_rt < 1e-10 and worst_cf < 1e-10
    _report(2, "weight solver round-trip", ok,
            f"250 solves, worst coupling error {worst_rt:.2e}, "
            f"worst closed-form gap {worst_cf:.2e}")


def _single_unit_circuit(unit, n_visible):
    """Minimal post-selected circuit realizing one hidden unit."""
    rotations = [(word_from_sites(n_visible, {q: "Z"}).word, 2.0 * w) for q, w in unit.weights]
    if unit.bias != 0.0:
        rotations.append(("I" * n_visible, 2.0 * unit.bias))
    return Circuit(n_visible, (tuple(rotations),))


def test_criterion_3_success_probability_laws():
    """Mean acceptance follows the two-body law and the 5/8 limit."""
    n_shots = 100_000
    details = []
    ok = True
    for i, k in enumerate((0.1, 0.5, 1.0)):
        term = HamiltonianTerm(k, PauliString("ZZ"))
        circuit = oracles.one_term_circuit(term, 1.0)
        run = run_shots(circuit, StateVector.uniform_plus(2), n_shots,
                        seed=SHOT_SEED + i)
        p = oracles.mean_success_two_body(k)
        sigma = math.sqrt(p * (1 - p) / n_shots)
        pull = abs(run.acceptance_rate - p) / sigma
        ok &= pull < 3.0
        details.append(f"K={k:g}: {pull:.2f} sigma")
    p3 = oracles.mean_success_three_body(5.0)
    analytic_gap = abs(p3 - 5.0 / 8.0)
    ok &= analytic_gap < 1e-3
    unit = decompose_three_body(5.0).hidden_units[0]
    run = run_shots(_single_unit_circuit(unit, 3), StateVector.uniform_plus(3),
                    n_shots, seed=SHOT_SEED + 3)
    sigma3 = math.sqrt(p3 * (1 - p3) / n_shots)
    pull3 = abs(run.acceptance_rate - p3) / sigma3
    ok &= pull3 < 3.0
    _report(3, "success-probability laws", ok,
            "; ".join(details) +
            f"; three-body 5/8 gap {analytic_gap:.1e}, {pull3:.2f} sigma")


def test_criterion_4_ising_benchmark():
    """3-qubit transverse-field Ising run: energies, errors, acceptance."""
    t0 = time.perf_counter()
    h = ising_hamiltonian()
    psi0 = StateVector.uniform_plus(3)
    taus = [0.1, 0.25, 0.5, 1.0]
    oracle_e = {t: expectation(imaginary_time_oracle(h, t, psi0), h)
                for t in taus}

    exact_rows = [row for row, _ in iter_evolution(
        h, taus, 0.01, 2, "rbm", psi0, "exact", 0, 2, 0)]
    worst_exact = max(abs(r["E_mean"] - oracle_e[r["tau"]]) for r in exact_rows)
    ok_exact = worst_exact < 2e-3

    shot_rows = [row for row, _ in iter_evolution(
        h, taus, 0.01, 2, "rbm", psi0, "shots", 100_000, 100,
        SHOT_SEED)]
    pulls = [abs(r["E_mean"] - oracle_e[r["tau"]]) / r["E_err"]
             for r in shot_rows]
    ok_shots = max(pulls) < 2.0

    fit = 5.7e-3  # reference cumulative acceptance at tau=1 for this run
    acc = shot_rows[-1]["acceptance"]
    p_exact = exact_rows[-1]["acceptance"]
    sigma_acc = math.sqrt(p_exact * (1 - p_exact) / 100_000)
    ok_acc = (fit / 2 <= acc <= fit * 2) and abs(acc - p_exact) < 3 * sigma_acc

    ok_model = all(r["acceptance_model"] <= r["acceptance"] * (1 + 1e-9)
                   for r in exact_rows + shot_rows)
    elapsed = time.perf_counter() - t0
    ok = ok_exact and ok_shots and ok_acc and ok_model and elapsed < 600.0
    _report(4, "Ising benchmark", ok,
            f"exact |dE| {worst_exact:.1e}, worst shot pull "
            f"{max(pulls):.2f} sigma, acceptance {acc:.2e} "
            f"(reference {fit:.2e}, exact {p_exact:.2e}), model<=empirical "
            f"{ok_model}, {elapsed:.0f} s")


def test_criterion_5_ground_state_convergence():
    """Long imaginary-time exact run reaches the minimum eigenvalue."""
    h = ising_hamiltonian()
    circuit = build_qite_circuit(h, 10.0, 0.01)
    final = run_exact(circuit, StateVector.uniform_plus(3)).final_state
    e = expectation(final, h)
    e0 = float(np.linalg.eigvalsh(dense_matrix(h))[0])
    gap = abs(e - e0)
    ok = gap < 1e-3
    _report(5, "ground-state convergence", ok,
            f"E(tau=10) = {e:.6f}, minimum eigenvalue {e0:.6f}, |dE| {gap:.1e}")


def _random_ldbm(rng, n, m, real):
    def draw(*shape):
        x = rng.normal(size=shape) * 0.35
        if not real:
            x = x + 1j * rng.normal(size=shape) * 0.35
        return x

    return LdbmNetwork(n, draw(n), draw(m), draw(n, m),
                       *oracles.dense_edges(np.triu(draw(m, m), k=1)))


def _random_z_term(rng, n, max_order):
    order = int(rng.integers(1, max_order + 1))
    sites = rng.choice(n, size=order, replace=False)
    return word_from_sites(n, {int(q): "Z" for q in sites})


def _random_term(rng, n, max_order):
    order = int(rng.integers(1, max_order + 1))
    sites = rng.choice(n, size=order, replace=False)
    return word_from_sites(
        n, {int(q): str(rng.choice(list("XYZ"))) for q in sites}
    )


def _diag_growth(word):
    return 7 if word.count("Z") == 3 else 1


def test_criterion_6_network_closure():
    """Every absorption rule is exact, real-preserving, and sized as stated."""
    rng = np.random.default_rng(6)
    trials_per_rule = 200
    worst = 1.0
    growth_ok = True
    reality_ok = True

    def check(net, new, mat, expected_growth):
        nonlocal worst, growth_ok, reality_ok
        growth_ok &= (new.n_hidden - net.n_hidden) == expected_growth
        worst = min(worst, oracles.fidelity(statevector(new).amps, mat @ raw_amplitudes(net)))
        if oracles.real_params(net):
            reality_ok &= oracles.real_params(new)

    for trial in range(trials_per_rule):
        real = trial % 4 == 0
        n = int(rng.integers(1, 4))
        m = int(rng.integers(0, 9))
        l = int(rng.integers(0, n))
        phi = float(rng.uniform(-math.pi, math.pi))

        for apply_fn, mat in ((apply_hx, oracles.HX), (apply_hy, oracles.HY),
                              (apply_hy_dag, oracles.HY_DAG)):
            net = _random_ldbm(rng, n, m, real)
            check(net, apply_fn(net, l), oracles.embed_1q(mat, l, n), 1)

        net = _random_ldbm(rng, n, m, real)
        rz_mat = oracles.embed_1q(np.diag([np.exp(1j * phi), np.exp(-1j * phi)]),
                                  l, n)
        check(net, apply_rz(net, l, phi), rz_mat, 0)

        n2 = int(rng.integers(2, 4))
        net = _random_ldbm(rng, n2, int(rng.integers(0, 9)), real)
        l1, l2 = rng.choice(n2, size=2, replace=False)
        word = word_from_sites(n2, {int(l1): "Z", int(l2): "Z"}).word
        check(net, apply_rzz(net, int(l1), int(l2), phi),
              oracles.exp_factor(1j * phi, word), 2)

        word = _random_z_term(rng, n, n).word
        dtau = float(rng.uniform(0.05, 0.5))
        coeff = float(rng.uniform(-1.0, 1.0))
        m_small = int(rng.integers(0, min(9, 17 - _diag_growth(word))))
        net = _random_ldbm(rng, n, m_small, real)
        new = apply_diagonal_imaginary(
            net, HamiltonianTerm(coeff, PauliString(word)), dtau)
        check(net, new, oracles.exp_factor(dtau * coeff, word),
              _diag_growth(word) if dtau * coeff != 0.0 else 0)

        word = _random_term(rng, n, n).word
        n_basis = sum(ch in "XY" for ch in word)
        growth = 2 * n_basis + _diag_growth(word.replace("X", "Z").replace("Y", "Z"))
        m_small = int(rng.integers(0, max(1, min(9, 17 - growth))))
        net = _random_ldbm(rng, n, m_small, real)
        new = apply_term_imaginary(
            net, HamiltonianTerm(coeff, PauliString(word)), dtau)
        check(net, new, oracles.exp_factor(dtau * coeff, word), growth)

    ok = worst >= 1.0 - 1e-12 and growth_ok and reality_ok
    _report(6, "network closure", ok,
            f"7 rules x {trials_per_rule} trials, min fidelity "
            f"{worst:.15f}, growth {'exact' if growth_ok else 'WRONG'}, "
            f"reality {'preserved' if reality_ok else 'BROKEN'}")


def test_criterion_7_layer_conversion():
    """Lateral-to-deep rewrites preserve the encoded state."""
    rng = np.random.default_rng(7)
    worst = 1.0
    for _ in range(100):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(0, 5))
        net = _random_ldbm(rng, n, m, real=False)
        dbm = ldbm_to_dbm(net)
        worst = min(worst, oracles.fidelity(statevector(dbm.to_ldbm()).amps,
                                            statevector(net).amps))
    ok = worst >= 1.0 - 1e-9
    _report(7, "layer conversion", ok,
            f"100 random nets, min fidelity {worst:.12f}")


def test_criterion_8_error_bar_calibration():
    """Jackknife and bootstrap agree and track the true standard error."""
    rng = np.random.default_rng(8)
    values = rng.normal(size=100)
    jk = jackknife(values)
    bs = bootstrap(values, n_resamples=4000, seed=SHOT_SEED)
    agree = abs(bs.std_error - jk.std_error) / jk.std_error
    ok_agree = agree < 0.15

    n, reps, sigma = 40, 1000, 1.3
    errs = np.empty(reps)
    for i in range(reps):
        sample = rng.normal(scale=sigma, size=n)
        errs[i] = jackknife(sample).std_error
    truth = sigma / math.sqrt(n)
    bias = abs(float(np.mean(errs)) - truth) / truth
    ok_cal = bias < 0.20
    ok = ok_agree and ok_cal
    _report(8, "error-bar calibration", ok,
            f"jackknife/bootstrap gap {agree:.1%}, calibration bias "
            f"{bias:.1%} over {reps} repetitions")
