"""Independent reference implementations used to verify the package.

Everything here is deliberately written the slow, obvious way (dense kron
chains, scipy expm, explicit double loops) so that agreement with the
package's vectorized routines is meaningful.  Conventions match the package:
qubit 0 is the leftmost letter of a word and the most significant bit of a
state index; spin values are z = +1 for bit 0 and z = -1 for bit 1.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_MATS = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}

#: The two encoding routes, as test parameters.  The word route's tests keep
#: the id "cx", the name of the parity-ladder route whose unit it encodes as
#: one rotation, so that every test keeps its id across that change.
ROUTES = [pytest.param("rbm", id="rbm"), pytest.param("word", id="cx")]

HX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
HY = np.array([[-1j, 1j], [1, 1]], dtype=complex) / np.sqrt(2.0)
HY_DAG = HY.conj().T


def word_matrix(word: str) -> np.ndarray:
    """Dense matrix of a Pauli word, leftmost letter most significant."""
    m = np.eye(1, dtype=complex)
    for ch in word:
        m = np.kron(m, PAULI_MATS[ch])
    return m


def embed_1q(gate: np.ndarray, qubit: int, n: int) -> np.ndarray:
    m = np.eye(1, dtype=complex)
    for q in range(n):
        m = np.kron(m, gate if q == qubit else _I)
    return m


def ham_matrix(terms: list[tuple[float, str]], n: int) -> np.ndarray:
    dim = 2**n
    m = np.zeros((dim, dim), dtype=complex)
    for coeff, word in terms:
        assert len(word) == n
        m += coeff * word_matrix(word)
    return m


def exp_factor(coeff: float, word: str) -> np.ndarray:
    """exp(-coeff * P) for a single Pauli word, via scipy expm."""
    return scipy.linalg.expm(-coeff * word_matrix(word))


def one_term_circuit(term, dtau: float, route: str = "rbm"):
    """exp(-dtau * c * P) for one term, compiled as an order-1 Trotter step of
    the one-term Hamiltonian with a single ancilla after the visible qubits."""
    from itebm.circuits import trotter_step
    from itebm.pauli import Hamiltonian

    n = term.string.n_qubits
    return trotter_step(Hamiltonian(n, (term,)), dtau, order=1, route=route).to_circuit(n)


def two_body_success(k: float, alpha: float) -> float:
    """The paper's state-dependent success of one two-body unit for
    exp(-K z_i z_j): 1 - (1 - e^{-4|K|}) alpha, with alpha the probability
    that z_i = sign(K) z_j."""
    return 1.0 - (1.0 - np.exp(-4.0 * abs(k))) * alpha


def three_body_success(k: float, alpha2: float, alpha4: float) -> float:
    """The paper's state-dependent success of one three-body unit for
    exp(-K z_i z_j z_l): 1 - sin^2(2W) alpha2 - sin^2(4W) alpha4, with
    tan^4(2W) = 1 - e^{-8|K|} and alpha_m the probability that
    |z_i + z_j + z_l + sign(K)| = m."""
    w = 0.5 * np.arctan((1.0 - np.exp(-8.0 * abs(k))) ** 0.25)
    return 1.0 - np.sin(2 * w) ** 2 * alpha2 - np.sin(4 * w) ** 2 * alpha4


def mean_success_two_body(coupling: float) -> float:
    """Average two-body success probability (1 + exp(-4|K|)) / 2."""
    return 0.5 * (1.0 + math.exp(-4.0 * abs(coupling)))


def mean_success_three_body(coupling: float) -> float:
    """Average three-body success [3 + 4cos^2(2W) + cos^2(4W)] / 8 -> 5/8."""
    from itebm.decomp import _three_four_w

    if coupling == 0.0:
        return 1.0
    w = _three_four_w(abs(coupling))
    return (3.0 + 4.0 * math.cos(2 * w) ** 2 + math.cos(4 * w) ** 2) / 8.0


def imaginary_evolved(terms: list[tuple[float, str]], n: int, tau: float,
                      psi0: np.ndarray) -> np.ndarray:
    """Normalized exp(-tau*H) psi0 by direct dense exponentiation."""
    psi = scipy.linalg.expm(-tau * ham_matrix(terms, n)) @ psi0
    return psi / np.linalg.norm(psi)


def trotterized_oracle(h, tau: float, dtau: float, order: int, psi0):
    """Normalized product of per-term exp(-dtau_eff c P) factors, using the
    same term grouping and order as the circuit builder (isolates encoding
    error from Trotter error)."""
    from itebm.circuits import n_trotter_steps, trotter_groups
    from itebm.pauli import apply_word
    from itebm.simulator import StateVector

    n_steps = n_trotter_steps(tau, dtau)
    amps = psi0.normalized().amps.copy()
    groups = trotter_groups(h, order)
    for _ in range(n_steps):
        for terms, factor in groups:
            for t in terms:
                k = dtau * factor * t.coefficient
                amps = np.cosh(k) * amps - np.sinh(k) * apply_word(t.string.word, amps)
        amps /= np.linalg.norm(amps)
    return StateVector(h.n_qubits, amps)


def tfim_terms(n: int = 3) -> list[tuple[float, str]]:
    """Critical transverse-field Ising chain with periodic boundaries."""
    terms: list[tuple[float, str]] = []
    for i in range(n):
        word = ["I"] * n
        word[i] = "Z"
        word[(i + 1) % n] = "Z"
        terms.append((1.0, "".join(word)))
    for i in range(n):
        word = ["I"] * n
        word[i] = "X"
        terms.append((-1.0, "".join(word)))
    return terms


def chain_terms(n: int = 8) -> list[tuple[float, str]]:
    """Periodic ZZ/ZZZ/YY/X chain with weights 1, 0.5, 0.3 and -1: the
    shape of the benchmark's exact-mode chain."""
    terms: list[tuple[float, str]] = []
    for coeff, letters in ((1.0, "ZZ"), (0.5, "ZZZ"), (0.3, "YY"), (-1.0, "X")):
        for i in range(n):
            word = ["I"] * n
            for k, ch in enumerate(letters):
                word[(i + k) % n] = ch
            terms.append((coeff, "".join(word)))
    return terms


def ldbm_amplitudes_bruteforce(n_visible: int, a, b, w, pairs, lat,
                               log_norm: complex) -> np.ndarray:
    """Amplitude vector of a lateral-coupled network by explicit double loop.

    a: (N,), b: (M,), w: (N, M), pairs: (E, 2) hidden-unit pairs (j, k) and
    lat: (E,) their couplings L_jk.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    w = np.asarray(w, dtype=complex).reshape(n_visible, -1)
    m = b.size
    amps = np.zeros(2**n_visible, dtype=complex)
    for zi in range(2**n_visible):
        z = np.array([1 - 2 * ((zi >> (n_visible - 1 - q)) & 1)
                      for q in range(n_visible)], dtype=float)
        total = 0.0 + 0.0j
        for hi in range(2**m):
            h = np.array([1 - 2 * ((hi >> j) & 1) for j in range(m)],
                         dtype=float)
            expo = np.dot(a, z) + z @ w @ h + np.dot(b, h)
            for (j, k), coupling in zip(pairs, lat):
                expo = expo + h[j] * coupling * h[k]
            total += np.exp(1j * expo)
        amps[zi] = np.exp(log_norm) * total
    return amps


def real_params(net) -> bool:
    """True when every a, b, W, L entry of an `LdbmNetwork` is real
    (unitary summands)."""
    return all(
        float(np.max(np.abs(arr.imag), initial=0.0)) == 0.0
        for arr in (net.a, net.b, net.w, net.lat)
    )


def dense_edges(lat) -> tuple[np.ndarray, np.ndarray]:
    """The (pairs, couplings) edge list of a dense strictly upper-triangular
    lateral matrix: every pair j < k, zero couplings included."""
    lat = np.asarray(lat, dtype=complex)
    j, k = np.triu_indices(lat.shape[0], k=1)
    return np.column_stack([j, k]), lat[j, k]


def merged_letters_reference(words: list[str]) -> str | None:
    """`pauli.merged_letters` by a set of letters per site: the letter that
    each site carries in words, I where none does; None if two words put
    different letters on one site."""
    sites = [set(letters) - {"I"} for letters in zip(*words)]
    if any(len(site) > 1 for site in sites):
        return None
    return "".join(site.pop() if site else "I" for site in sites)


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return psi / np.linalg.norm(psi)


def fidelity(u: np.ndarray, v: np.ndarray) -> float:
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return abs(np.vdot(u, v)) ** 2


def batched_shots_reference(circuit, psi0, n_shots: int, seed: int,
                            terminal_basis: str | None = None, layout: str = "single"):
    """The batched sampler that `run_shots` replaced, kept verbatim as the
    bit-level reference for it: every shot carries its own copy of the state
    in a (shots, 2^n) array, shots are compacted at each failed postselect,
    and a reset zeroes a qubit that a measurement already projected.

    Uses the package's word_action, as the original did, so that equal
    draws give equal bits, and this module's HX and HY_DAG for the terminal
    basis, where the package rotates through its own exact transitions.
    Walks the circuit's gates in the ancilla `layout` (`hardware_gates`).
    Returns (accepted, cbits, terminal).
    """
    from itebm.pauli import word_action

    gates, n_ancilla = hardware_gates(circuit, layout)
    nv = circuit.n_visible
    n = nv + n_ancilla
    basis = terminal_basis or "Z" * nv

    def apply_1q(amps, q, mat):
        shaped = amps.reshape(amps.shape[0], 1 << q, 2, -1)
        a0 = shaped[:, :, 0, :].copy()
        a1 = shaped[:, :, 1, :]
        shaped[:, :, 0, :] = mat[0, 0] * a0 + mat[0, 1] * a1
        shaped[:, :, 1, :] = mat[1, 0] * a0 + mat[1, 1] * a1

    rng = np.random.Generator(np.random.Philox(key=seed & ((1 << 64) - 1)))
    vec = psi0.normalized().amps
    anc = np.zeros(1 << n_ancilla, dtype=complex)
    anc[0] = 1.0
    amps = np.tile(np.kron(vec, anc), (n_shots, 1))
    alive = np.arange(n_shots)
    accepted = np.ones(n_shots, dtype=bool)
    cbits = np.full((n_shots, circuit.n_cbits), -1, dtype=np.int8)
    terminal = np.full((n_shots, nv), -1, dtype=np.int8)
    for g in gates:
        if alive.size == 0:
            break
        if g.kind == "measure":
            q = g.qubits[0]
            shaped = amps.reshape(alive.size, 1 << q, 2, -1)
            p1 = np.sum(np.abs(shaped[:, :, 1, :]) ** 2, axis=(1, 2))
            outcomes = (rng.random(alive.size) < p1).astype(np.int8)
            cbits[alive, g.cbit] = outcomes
            ones = outcomes == 1
            shaped[~ones, :, 1, :] = 0.0
            shaped[ones, :, 0, :] = 0.0
            p_kept = np.sum(np.abs(shaped) ** 2, axis=(1, 2, 3))
            amps /= np.sqrt(np.maximum(p_kept, 1e-300))[:, None]
        elif g.kind == "postselect":
            keep = cbits[alive, g.cbit] == g.value
            accepted[alive[~keep]] = False
            alive = alive[keep]
            amps = amps[keep]
        elif g.kind == "reset":
            shaped = amps.reshape(alive.size, 1 << g.qubits[0], 2, -1)
            stray = np.sum(np.abs(shaped[:, :, 1, :]) ** 2, axis=(1, 2))
            if np.any(stray > 1e-10):
                raise RuntimeError("sampled reset requires the qubit to be measured first")
            shaped[:, :, 1, :] = 0.0
        else:  # pauli_rot
            perm, phase = word_action(g.string.word)
            tmp = amps[:, perm] * phase
            amps *= np.cos(0.5 * g.angle)
            tmp *= -1j * np.sin(0.5 * g.angle)
            amps += tmp
    if alive.size:
        for q, ch in enumerate(basis):
            if ch == "X":
                apply_1q(amps, q, HX)
            elif ch == "Y":
                apply_1q(amps, q, HY_DAG)
        cums = np.cumsum(np.abs(amps) ** 2, axis=1)
        cums /= cums[:, -1:]
        draws = rng.random(alive.size)
        indices = np.minimum(np.sum(cums < draws[:, None], axis=1), (1 << n) - 1)
        shifts = np.array([n - 1 - q for q in range(nv)])
        terminal[alive] = ((indices[:, None] >> shifts[None, :]) & 1).astype(np.int8)
    return accepted, cbits, terminal


def replay_reference(traj, n_shots: int, seed: int, terminal_basis: str | None = None):
    """The per-measurement replay that `Trajectory.sample` replaced, kept
    verbatim as its bit-level reference: one `Generator.random` call per
    record entry for the surviving shots, a shot failing where its variate
    is below p1, and the BRANCH_FLOOR check at every entry a shot survives.
    Returns the `ShotRun` of traj's record and state.
    """
    from itebm.simulator import BRANCH_FLOOR, ShotRun, _zero_weight

    nv = traj.n_visible
    basis = terminal_basis or "Z" * nv
    if len(basis) != nv or set(basis) - set("ZXY"):
        raise ValueError(f"terminal basis {basis!r} must be one of Z/X/Y per visible qubit")
    rng = np.random.Generator(np.random.Philox(key=seed & ((1 << 64) - 1)))
    alive = np.arange(n_shots)
    rejected_at = np.full(n_shots, len(traj.record))
    terminal = np.full((n_shots, nv), -1, dtype=np.int8)
    for i, (p1, p_kept) in enumerate(traj.record):
        keep = ~(rng.random(alive.size) < p1)
        rejected_at[alive[~keep]] = i
        alive = alive[keep]
        if not alive.size:
            break
        if p_kept < BRANCH_FLOOR:
            raise _zero_weight(i, p_kept)
    if alive.size:
        vec = traj._read(basis)
        cums = np.cumsum(np.abs(vec) ** 2)
        cums /= cums[-1]
        # searchsorted counts the cumulative weights below each draw
        indices = np.minimum(np.searchsorted(cums, rng.random(alive.size)), (1 << nv) - 1)
        shifts = np.arange(nv - 1, -1, -1)
        terminal[alive] = ((indices[:, None] >> shifts) & 1).astype(np.int8)
    return ShotRun(basis, len(traj.record), traj.n_cbits, rejected_at, terminal)


def imaginary_time_oracle_reference(h, tau: float, psi0):
    """Normalized exp(-tau H) psi0 from the dense matrix's
    eigendecomposition, factored on every call: the reference for
    `imaginary_time_oracle`.  Its gauge shift by the lowest eigenvalue
    underflows for a psi0 without a ground-state component at large tau,
    and then it raises."""
    from itebm.pauli import dense_matrix
    from itebm.simulator import ZERO_WEIGHT, SimulationError, StateVector

    mat = dense_matrix(h)
    vals, vecs = np.linalg.eigh(mat)
    coords = vecs.conj().T @ psi0.normalized().amps
    coords *= np.exp(-tau * (vals - vals.min()))  # gauge shift avoids overflow
    amps = vecs @ coords
    norm = np.linalg.norm(amps)
    if norm < ZERO_WEIGHT:
        raise SimulationError("initial state annihilated by the propagator")
    return StateVector(h.n_qubits, amps / norm)


def checkpoint_rerun_reference(h, taus, dtau, order, route, psi0, mode,
                               shots, batches, seed, oracle_check=False):
    """The per-checkpoint evolution loop that `iter_evolution` replaced, kept
    verbatim as its reference: every checkpoint compiles the whole circuit
    with `build_qite_circuit` and runs it from psi0 with `run_exact`, or
    with one `run_shots` per measurement-basis group, and factors the dense
    matrix afresh for each oracle note.  Yields the same (row dict,
    note-or-None) pairs.
    """
    from itebm.circuits import build_qite_circuit
    from itebm.evolution import _column_terms, _derive_seed, _measurement_groups
    from itebm.pauli import apply_word
    from itebm.simulator import expectation, run_exact, run_shots
    from itebm.stats import jackknife

    def _bare_expectation(state, word):
        vec = state.amps
        return float(np.vdot(vec, apply_word(word, vec)).real)

    diag_terms, x_terms = _column_terms(h)
    groups = _measurement_groups(h)
    for t_idx, tau in enumerate(taus):
        circuit = build_qite_circuit(h, tau, dtau, order, route=route)
        note = None
        if mode == "exact":
            result = run_exact(circuit, psi0)
            state = result.final_state
            e_mean = expectation(state, h)
            zz = sum(_bare_expectation(state, h.terms[i].string.word) for i in diag_terms)
            xx = sum(_bare_expectation(state, h.terms[i].string.word) for i in x_terms)
            row = {
                "tau": tau, "E_mean": e_mean, "E_err": 0.0,
                "ZZ_mean": zz, "ZZ_err": 0.0, "X_mean": xx, "X_err": 0.0,
                "acceptance": result.cumulative_success,
                "acceptance_model": circuit.model_success,
                "effective_samples": 0,
            }
            if oracle_check:
                e_oracle = expectation(imaginary_time_oracle_reference(h, tau, psi0), h)
                note = (
                    f"tau {tau:g}: E {e_mean:.9f}, dense oracle {e_oracle:.9f}, "
                    f"|diff| {abs(e_mean - e_oracle):.3g}"
                )
            yield row, note
            continue

        n_groups = len(groups)
        if shots % (n_groups * batches) != 0:
            raise ValueError(
                f"--shots {shots} must divide evenly into {n_groups} basis "
                f"group(s) x {batches} batches"
            )
        per_group = shots // n_groups
        per_batch = per_group // batches
        counts = np.zeros((n_groups, batches), dtype=int)
        term_sums = {}
        for g_idx, (basis, members) in enumerate(groups):
            run = run_shots(
                circuit, psi0, per_group,
                _derive_seed(seed, n_groups * t_idx + g_idx),
                terminal_basis=basis,
            )
            acc = run.accepted.reshape(batches, per_batch)
            counts[g_idx] = acc.sum(axis=1)
            for i in members:
                support = list(h.terms[i].string.support())
                if support:
                    prods = np.prod(1.0 - 2.0 * run.terminal[:, support], axis=1)
                else:
                    prods = np.ones(run.n_shots)
                vals = np.where(run.accepted, prods, 0.0)
                term_sums[i] = vals.reshape(batches, per_batch).sum(axis=1)

        group_of = {i: g for g, (_, members) in enumerate(groups) for i in members}
        dropped = []

        def column(name, indices, coeffs) -> tuple[float, float]:
            if not indices:
                return 0.0, 0.0
            need = sorted({group_of[i] for i in indices})
            kept = np.all(counts[need] > 0, axis=0)
            if int(kept.sum()) < 2:
                raise RuntimeError(
                    f"only {int(kept.sum())} batch(es) have accepted shots in "
                    f"all required bases at tau={tau:g}; increase --shots"
                )
            if not kept.all():
                dropped.append(f"{batches - int(kept.sum())} of {batches} batches ({name})")
            vals = np.zeros(batches)
            for i, c in zip(indices, coeffs):
                vals = vals + c * term_sums[i] / np.maximum(counts[group_of[i]], 1)
            est = jackknife(vals[kept])
            return est.mean, est.std_error

        all_idx = list(range(len(h.terms)))
        e_mean, e_err = column("E", all_idx, [h.terms[i].coefficient for i in all_idx])
        zz_mean, zz_err = column("ZZ", diag_terms, [1.0] * len(diag_terms))
        x_mean, x_err = column("X", x_terms, [1.0] * len(x_terms))
        if dropped:
            note = f"tau {tau:g}: dropped " + ", ".join(dropped)
        total_accepted = int(counts.sum())
        row = {
            "tau": tau, "E_mean": e_mean, "E_err": e_err,
            "ZZ_mean": zz_mean, "ZZ_err": zz_err, "X_mean": x_mean, "X_err": x_err,
            "acceptance": total_accepted / (per_group * n_groups),
            "acceptance_model": circuit.model_success,
            "effective_samples": total_accepted,
        }
        yield row, note


def n_ancillas(layout: str) -> int:
    """The ancillas of an ancilla layout (`hardware_gates`)."""
    return 1 if layout == "single" else int(layout.removeprefix("pooled:"))


def hardware_gates(circuit, layout: str = "single") -> tuple[list, int]:
    """The gates that hardware would run for a circuit, its `repeats`
    unrolled with their cbits numbered on (`Fragment.repeated`), and the
    number of ancillas they use.  "single" is `Circuit.gates`: every unit
    on its one ancilla n, measured, post-selected onto 0 and reset before
    the next unit begins.  "pooled:k" lays the units onto k ancillas in
    waves of k consecutive units, the j-th of a wave on ancilla n + j;
    after the wave's last unit it measures and post-selects each in order,
    then resets them all.  The units keep their order and cbits, so every
    layout encodes the same operator, which the gate-level references walk
    as hardware would: each measure deferred past the later units of its
    wave, which act on other ancillas.
    """
    from itebm.ir import Fragment, Gate
    from itebm.pauli import PauliString

    units = Fragment(list(circuit.units)).repeated(circuit.repeats).units
    if layout == "single":
        return list(Fragment(units).gates), 1
    k, nv = n_ancillas(layout), circuit.n_visible
    gates = []
    for start in range(0, len(units), k):
        wave = units[start:start + k]
        for j, unit in enumerate(wave):
            pad = "I" * j + "X" + "I" * (k - 1 - j)
            gates += [Gate("pauli_rot", angle=angle, string=PauliString(word + pad))
                      for word, angle in unit]
        for j in range(len(wave)):
            gates += [Gate("measure", (nv + j,), cbit=start + j),
                      Gate("postselect", cbit=start + j, value=0)]
        gates += [Gate("reset", (nv + j,)) for j in range(len(wave))]
    return gates, k


def with_ancillas(circuit, psi0, layout: str = "single") -> np.ndarray:
    """psi0, normalized, with the ancillas of the circuit's `layout` in |0>
    after it: the vector that `walk_reference` walks.  The ancillas are the
    low bits; the amplitudes are copied, not multiplied, so that they keep
    their bits."""
    amps = psi0.normalized().amps
    n_ancilla = n_ancillas(layout)
    vec = np.zeros(amps.size << n_ancilla, dtype=complex)
    vec[::1 << n_ancilla] = amps
    return vec


def _reset_vector(vec: np.ndarray, q: int) -> None:
    """Factor a disentangled qubit out of a single state and reinitialize it
    to |0>, in place.

    The qubit must be in a product state with the rest (verified to 1e-10);
    the vector keeps its norm.  When the qubit held a superposition the
    result carries the phase of its |0> component.
    """
    from itebm.simulator import ZERO_WEIGHT, SimulationError

    shaped = vec.reshape(1 << q, 2, -1)
    psi0 = shaped[:, 0, :].reshape(-1)
    psi1 = shaped[:, 1, :].reshape(-1)
    n0 = float(np.vdot(psi0, psi0).real)
    n1 = float(np.vdot(psi1, psi1).real)
    total = n0 + n1
    if total < ZERO_WEIGHT:
        raise SimulationError("reset applied to a zero state")
    if n1 <= 1e-20 * total:
        base, base_norm = psi0, n0
    elif n0 <= 1e-20 * total:
        base, base_norm = psi1, n1
    else:
        coef = np.vdot(psi0, psi1) / n0
        resid = float(np.linalg.norm(psi1 - coef * psi0))
        if resid > 1e-10 * np.sqrt(total):
            raise SimulationError(f"reset on entangled qubit {q} (residual {resid:.3g})")
        base, base_norm = psi0, n0
    shaped[:, 0, :] = (base * np.sqrt(total / base_norm)).reshape(1 << q, -1)
    shaped[:, 1, :] = 0.0


def rotate(vec: np.ndarray, word: str, angle: float) -> None:
    """exp(-i (angle / 2) P) vec in place, P the Pauli word, from its word
    action: the rotation kernel of the gate-level references."""
    from itebm.pauli import word_action

    perm, phase = word_action(word)
    tmp = vec[perm] * phase
    vec *= np.cos(0.5 * angle)
    tmp *= -1j * np.sin(0.5 * angle)
    vec += tmp


def walk_reference(circuit, vec: np.ndarray, record: list, cbit_offset: int = 0,
                   layout: str = "single") -> bool:
    """The gate-by-gate walk of a circuit, ancillas included: the gate-level
    reference that the unit program (`simulator._units`) agrees with to
    rounding.  It dispatches every gate of the circuit's hardware view in
    the ancilla `layout` (`hardware_gates`), applies each rotation from its
    word action (`rotate`), and runs every reset.

    Walks vec (see `with_ancillas`) in place; appends (cbit + cbit_offset,
    p1, p_kept) per measure/postselect pair to record, p_kept the weight of
    the post-selected value; returns False at a kept branch below
    BRANCH_FLOOR.
    """
    from itebm.simulator import BRANCH_FLOOR, SimulationError

    gates = hardware_gates(circuit, layout)[0]
    i = 0
    while i < len(gates):
        g = gates[i]
        if g.kind == "measure":
            if i + 1 >= len(gates) or gates[i + 1].kind != "postselect" \
                    or gates[i + 1].cbit != g.cbit:
                raise SimulationError(
                    "measure must be immediately followed by its postselect"
                )
            value = gates[i + 1].value
            shaped = vec.reshape(1 << g.qubits[0], 2, -1)
            p = float(np.sum(np.abs(shaped[:, value, :]) ** 2))
            p1 = p if value == 1 else float(np.sum(np.abs(shaped[:, 1, :]) ** 2))
            record.append((g.cbit + cbit_offset, p1, p))
            if p < BRANCH_FLOOR:
                return False
            shaped[:, 1 - value, :] = 0.0
            vec /= np.sqrt(p)
            i += 2
            continue
        if g.kind == "postselect":
            raise SimulationError("postselect without a preceding measure")
        if g.kind == "reset":
            _reset_vector(vec, g.qubits[0])
        else:  # pauli_rot
            rotate(vec, g.string.word, g.angle)
        i += 1
    visible = vec.reshape(1 << circuit.n_visible, -1)[:, 0]
    leak = 1.0 - float(np.vdot(visible, visible).real)
    if leak > 1e-9:
        raise SimulationError(f"ancillas not returned to |0> (weight {leak:.3g})")
    return True
