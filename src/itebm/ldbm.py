"""Boltzmann-machine wave functions with closed-form gate absorption.

The lateral network represents amplitudes as

    Psi(z) = exp(log_norm) * sum_h exp[i(sum_i a_i z_i + sum_ij z_i W_ij h_j
                                         + sum_{j<k} h_j L_jk h_k + sum_j b_j h_j)]

with h ranging over {+1, -1}^M.  Basis-change gates, phase gates, and
imaginary-time factors are absorbed exactly by appending hidden units and
shifting parameters; no parameter is ever fitted.  `ldbm_to_dbm` removes the
lateral couplings in favour of a third (deep) layer using an analytically
continued two-body identity.

Amplitudes are exact: with z fixed the hidden units interact only through
the laterals, so the sum over h is done by variable elimination over the
lateral graph in greedy min-degree order.  Its cost grows as
2^N * M * 2^width, where the width is the most neighbours a unit has when it
is summed out, not as 2^M; nets wider than WIDTH_LIMIT are refused.

Conventions: a real parameter set gives pure-phase summands ("unitary"
summands); log_norm collects every scalar prefactor so raw amplitudes are
tracked exactly, not just up to normalization.  z = +1 corresponds to bit 0
and qubit 0 is the most significant bit, matching the simulator.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .decomp import cascade_diagonal
from .pauli import HamiltonianTerm, basis_rotation_layer
from .simulator import StateVector

#: Largest elimination width `_marginalize` accepts: its biggest message
#: holds 2^width amplitudes per visible configuration.  Every net of at most
#: 20 hidden units has width at most 19.
WIDTH_LIMIT = 20
_TOL = 1e-15


@dataclass(frozen=True)
class LdbmNetwork:
    """Visible/hidden network with lateral hidden-hidden couplings.

    lat is stored strictly upper triangular; severed couplings are zeroed in
    place rather than compacted, so hidden-unit indices are stable.
    """

    n_visible: int
    a: np.ndarray
    b: np.ndarray
    w: np.ndarray
    lat: np.ndarray
    log_norm: complex = 0j

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=complex)
        b = np.array(self.b, dtype=complex)
        w = np.array(self.w, dtype=complex).reshape(self.n_visible, -1)
        lat = np.array(self.lat, dtype=complex).reshape(b.size, b.size)
        if a.shape != (self.n_visible,):
            raise ValueError(f"a has shape {a.shape}, expected ({self.n_visible},)")
        if w.shape != (self.n_visible, b.size):
            raise ValueError(f"W has shape {w.shape}, expected {(self.n_visible, b.size)}")
        if np.any(np.tril(lat) != 0):
            raise ValueError("lateral couplings must be strictly upper triangular")
        for arr in (a, b, w, lat):
            if not np.all(np.isfinite(arr.view(float))):
                raise ValueError("network parameters must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "lat", lat)
        object.__setattr__(self, "log_norm", complex(self.log_norm))

    @property
    def n_hidden(self) -> int:
        return self.b.size

    @property
    def real_params(self) -> bool:
        """True when every a, b, W, L entry is real (unitary summands)."""
        return all(
            float(np.max(np.abs(arr.imag), initial=0.0)) == 0.0
            for arr in (self.a, self.b, self.w, self.lat)
        )

    def to_json_dict(self) -> dict:
        pair = lambda c: [float(np.real(c)), float(np.imag(c))]  # noqa: E731
        return {
            "N": self.n_visible,
            "M": self.n_hidden,
            "a": [pair(c) for c in self.a],
            "b": [pair(c) for c in self.b],
            "W": [[pair(c) for c in row] for row in self.w],
            "L": [[pair(c) for c in row] for row in self.lat],
            "log_norm": pair(self.log_norm),
        }


def plus_state(n_visible: int) -> LdbmNetwork:
    """The empty (M = 0) network: the uniform superposition."""
    return LdbmNetwork(
        n_visible=n_visible,
        a=np.zeros(n_visible, dtype=complex),
        b=np.zeros(0, dtype=complex),
        w=np.zeros((n_visible, 0), dtype=complex),
        lat=np.zeros((0, 0), dtype=complex),
        log_norm=-0.5 * n_visible * math.log(2.0),
    )


def zero_state(n_visible: int) -> LdbmNetwork:
    """Network representing |0...0> (one hidden unit per visible qubit)."""
    net = plus_state(n_visible)
    for l in range(n_visible):
        net = apply_hx(net, l)
    return net


@lru_cache(maxsize=64)
def _z_spins(n: int) -> np.ndarray:
    idx = np.arange(1 << n)
    bits = (idx[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    spins = 1.0 - 2.0 * bits
    spins.setflags(write=False)
    return spins


def _elimination_order(neighbors: list[set[int]]) -> tuple[list[int], int]:
    """Greedy min-degree elimination order of the lateral graph (ties go to
    the lowest index) and its width: the most neighbours a unit still has,
    fill-in included, when it is summed out."""
    adj = [set(nbrs) for nbrs in neighbors]
    heap = [(len(nbrs), j) for j, nbrs in enumerate(adj)]
    heapq.heapify(heap)
    done = [False] * len(adj)
    order, width = [], 0
    while heap:
        degree, v = heapq.heappop(heap)
        if done[v] or degree != len(adj[v]):
            continue  # stale entry; v was re-pushed with its current degree
        done[v] = True
        order.append(v)
        width = max(width, degree)
        for u in adj[v]:
            adj[u] |= adj[v]
            adj[u] -= {u, v}
            heapq.heappush(heap, (len(adj[u]), u))
    return order, width


def _marginalize(net: LdbmNetwork, z_spins: np.ndarray) -> np.ndarray:
    """Hidden-configuration sums for each row of z_spins, times exp(log_norm).

    With the visible spins fixed, unit j carries the unary factor
    exp(i theta_j h_j), theta_j = b_j + z.W[:, j], and each lateral edge the
    pairwise factor exp(i L_jk h_j h_k).  Units are summed out in
    `_elimination_order`: one einsum over a leading row axis multiplies the
    factors touching the unit and sums it out, leaving a message over its
    neighbours.  Every factor is kept at largest modulus at most 1 per row
    (exponential factors by shifting their exponent, messages by an exact
    power-of-two rescale), and the logs of those scales are applied with
    log_norm by a single exp at the end, so products over hundreds of units
    neither overflow nor underflow.
    """
    _, neighbors = _lateral_components(net)
    order, width = _elimination_order(neighbors)
    if width > WIDTH_LIMIT:
        raise ValueError(
            f"elimination width {width} ({net.n_hidden} hidden units) exceeds "
            f"the width limit {WIDTH_LIMIT}"
        )
    rows = z_spins.shape[0]

    def rescale(arr: np.ndarray) -> np.ndarray:
        """Divide each row of arr in place by the power of two at its largest
        modulus (exact in floating point); return the exponents."""
        _, exps = np.frexp(np.abs(arr).reshape(rows, -1).max(axis=1))
        arr *= np.ldexp(1.0, -exps).reshape((rows,) + (1,) * (arr.ndim - 1))
        return exps

    spin = np.array([1.0, -1.0])
    theta = net.b + z_spins @ net.w
    shift = np.abs(theta.imag)
    unary = np.exp(1j * theta[:, :, None] * spin - shift[:, :, None])
    log_scale = shift.sum(axis=1)
    # factor id -> (units, array); messages lead with the row axis, pairwise
    # factors have none
    factors: dict[int, tuple[tuple[int, ...], np.ndarray]] = {}
    touching: list[set[int]] = [set() for _ in neighbors]
    new_id = itertools.count()
    pair_shifts = []
    for j, nbrs in enumerate(neighbors):
        for k in sorted(u for u in nbrs if u > j):
            coupling = net.lat[j, k]
            pair_shifts.append(abs(coupling.imag))
            fid = next(new_id)
            factors[fid] = ((j, k), np.exp(1j * coupling * np.outer(spin, spin)
                                           - pair_shifts[-1]))
            touching[j].add(fid)
            touching[k].add(fid)
    log_scale += math.fsum(pair_shifts)
    binary_exp = np.zeros(rows, dtype=np.int64)
    value = np.ones(rows, dtype=complex)
    for v in order:
        ids = sorted(touching[v])
        scope = sorted({u for fid in ids for u in factors[fid][0]} - {v})
        label = {u: i for i, u in enumerate(scope, start=2)}
        label[v] = 1
        operands: list = [unary[:, v], [0, 1]]
        for fid in ids:
            units, arr = factors.pop(fid)
            for u in units:
                if u != v:
                    touching[u].discard(fid)
            row_axis = [0] if arr.ndim > len(units) else []
            operands += [arr, row_axis + [label[u] for u in units]]
        msg = np.einsum(*operands, [0] + [label[u] for u in scope])
        if scope:
            binary_exp += rescale(msg)
            fid = next(new_id)
            factors[fid] = (tuple(scope), msg)
            for u in scope:
                touching[u].add(fid)
        else:
            value *= msg
            binary_exp += rescale(value)
    log_scale += math.log(2.0) * binary_exp
    return np.exp(net.log_norm + 1j * (z_spins @ net.a) + log_scale) * value


def raw_amplitudes(net: LdbmNetwork) -> np.ndarray:
    """Un-normalized amplitudes over all 2^N configurations (exact tracking)."""
    return _marginalize(net, _z_spins(net.n_visible))


def state_and_norm(net: LdbmNetwork) -> tuple[StateVector, float]:
    """Normalized state and the norm it discarded, from one marginalization;
    raises when every amplitude vanishes."""
    raw = raw_amplitudes(net)
    norm = np.linalg.norm(raw)
    if norm < 1e-300:
        raise ValueError("network amplitudes are identically zero")
    return StateVector(net.n_visible, raw / norm), float(norm)


def statevector(net: LdbmNetwork) -> StateVector:
    """Normalized state; raises when every amplitude vanishes."""
    return state_and_norm(net)[0]


def statevector_norm(net: LdbmNetwork) -> float:
    """The norm discarded by statevector()."""
    return float(np.linalg.norm(raw_amplitudes(net)))


def _check_site(net: LdbmNetwork, l: int) -> None:
    if not 0 <= l < net.n_visible:
        raise ValueError(f"visible index {l} out of range for N={net.n_visible}")


def _append_basis_unit(
    net: LdbmNetwork, l: int, w_new: complex, b_new: complex,
    a_after: complex, delta_log_norm: complex,
) -> LdbmNetwork:
    """Shared bookkeeping for single-qubit basis changes: one new hidden unit
    takes over qubit l's couplings (as laterals, negated), the old ones are
    severed, and the visible bias is replaced."""
    m = net.n_hidden
    a = net.a.copy()
    b = np.append(net.b, b_new)
    w = np.pad(net.w, ((0, 0), (0, 1)))
    lat = np.pad(net.lat, ((0, 1), (0, 1)))
    lat[:m, m] = -net.w[l, :]
    w[l, :m] = 0.0
    w[l, m] = w_new
    a[l] = a_after
    return LdbmNetwork(net.n_visible, a, b, w, lat,
                       net.log_norm + delta_log_norm)


def apply_hx(net: LdbmNetwork, l: int) -> LdbmNetwork:
    """Absorb the X-basis rotation (Hadamard) on visible qubit l."""
    _check_site(net, l)
    return _append_basis_unit(
        net, l,
        w_new=math.pi / 4,
        b_new=-(net.a[l] + math.pi / 4),
        a_after=math.pi / 4,
        delta_log_norm=complex(-0.5 * math.log(2.0), -math.pi / 4),
    )


def apply_hy(net: LdbmNetwork, l: int) -> LdbmNetwork:
    """Absorb the Y-basis rotation H^y = ((-i, i), (1, 1))/sqrt(2) on qubit l."""
    _check_site(net, l)
    return _append_basis_unit(
        net, l,
        w_new=math.pi / 4,
        b_new=math.pi / 4 - net.a[l],
        a_after=0.0,
        delta_log_norm=-0.5 * math.log(2.0),
    )


def apply_hy_dag(net: LdbmNetwork, l: int) -> LdbmNetwork:
    """Absorb the adjoint Y-basis rotation on qubit l."""
    _check_site(net, l)
    return _append_basis_unit(
        net, l,
        w_new=-math.pi / 4,
        b_new=-net.a[l],
        a_after=math.pi / 4,
        delta_log_norm=-0.5 * math.log(2.0),
    )


def apply_rz(net: LdbmNetwork, l: int, phi: float) -> LdbmNetwork:
    """Absorb diag(e^{i phi}, e^{-i phi}) on qubit l (amplitude gains e^{i phi z})."""
    _check_site(net, l)
    a = net.a.copy()
    a[l] += phi
    return replace(net, a=a)


def apply_rzz(net: LdbmNetwork, l1: int, l2: int, phi: float) -> LdbmNetwork:
    """Absorb exp(-i phi Z_{l1} Z_{l2}) using two laterally coupled hidden units."""
    _check_site(net, l1)
    _check_site(net, l2)
    if l1 == l2:
        raise ValueError(f"rzz requires two distinct qubits, got {l1} twice")
    m = net.n_hidden
    a = net.a.copy()
    a[l1] += math.pi / 4
    a[l2] += math.pi / 4
    b = np.append(net.b, [-math.pi / 4, phi + math.pi / 4])
    w = np.pad(net.w, ((0, 0), (0, 2)))
    w[l1, m] = math.pi / 4
    w[l2, m] = math.pi / 4
    lat = np.pad(net.lat, ((0, 2), (0, 2)))
    lat[m, m + 1] = math.pi / 4
    return LdbmNetwork(net.n_visible, a, b, w, lat,
                       net.log_norm + complex(-math.log(2.0), -math.pi / 4))


def apply_diagonal_imaginary(
    net: LdbmNetwork, term: HamiltonianTerm, dtau: float
) -> LdbmNetwork:
    """Absorb exp(-dtau c P) for a Z-string P, hidden units taken verbatim
    from the circuit-side decomposition (weights negated to sit in the
    ansatz's +i exponent), recursively covering the induced couplings."""
    word = term.string.word
    if any(ch not in "IZ" for ch in word):
        raise ValueError(f"term {word!r} is not diagonal")
    if len(word) != net.n_visible:
        raise ValueError(f"term width {len(word)} != network width {net.n_visible}")
    k = dtau * term.coefficient
    if k == 0.0:
        return net
    support = tuple(term.string.support())
    if not support:
        return replace(net, log_norm=net.log_norm - k)
    a = net.a
    b_list = [net.b]
    w_cols = [net.w]
    extra_log = 0.0
    for dec in cascade_diagonal({support: k}, net.n_visible):
        extra_log += dec.log_norm
        for unit in dec.hidden_units:
            col = np.zeros((net.n_visible, 1), dtype=complex)
            for site, weight in unit.weights:
                col[site, 0] = -weight
            w_cols.append(col)
            b_list.append(np.array([-unit.bias], dtype=complex))
    b = np.concatenate(b_list)
    w = np.concatenate(w_cols, axis=1)
    lat = np.pad(net.lat, ((0, b.size - net.n_hidden), (0, b.size - net.n_hidden)))
    return LdbmNetwork(net.n_visible, a, b, w, lat, net.log_norm + extra_log)


_BASIS_APPLY = {"hx": apply_hx, "hy": apply_hy, "hydag": apply_hy_dag}


def apply_term_imaginary(
    net: LdbmNetwork, term: HamiltonianTerm, dtau: float
) -> LdbmNetwork:
    """Absorb exp(-dtau c P) for an arbitrary Pauli word by conjugating the
    diagonal absorption with the appropriate basis rotations."""
    if len(term.string.word) != net.n_visible:
        raise ValueError(
            f"term width {len(term.string.word)} != network width {net.n_visible}"
        )
    pre, post, diagonal = basis_rotation_layer(term.string)
    for g in post:
        net = _BASIS_APPLY[g.kind](net, g.qubits[0])
    net = apply_diagonal_imaginary(
        net, HamiltonianTerm(term.coefficient, diagonal), dtau
    )
    for g in pre:
        net = _BASIS_APPLY[g.kind](net, g.qubits[0])
    return net


# ---------------------------------------------------------------------------
# Conversion to the three-layer (deep) network.

@dataclass(frozen=True)
class DbmNetwork:
    """Three-layer network: visible-hidden couplings w and hidden-deep
    couplings w_deep only (no laterals, no visible-deep couplings)."""

    n_visible: int
    a: np.ndarray
    b: np.ndarray
    b_deep: np.ndarray
    w: np.ndarray
    w_deep: np.ndarray
    log_norm: complex = 0j

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=complex)
        b = np.array(self.b, dtype=complex)
        b_deep = np.array(self.b_deep, dtype=complex)
        w = np.array(self.w, dtype=complex).reshape(self.n_visible, b.size)
        w_deep = np.array(self.w_deep, dtype=complex).reshape(b.size, b_deep.size)
        for name, arr in (("a", a), ("b", b), ("b_deep", b_deep),
                          ("w", w), ("w_deep", w_deep)):
            if not np.all(np.isfinite(arr.view(float))):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "b_deep", b_deep)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "w_deep", w_deep)
        object.__setattr__(self, "log_norm", complex(self.log_norm))

    @property
    def n_hidden(self) -> int:
        return self.b.size

    @property
    def n_deep(self) -> int:
        return self.b_deep.size

    def to_ldbm(self) -> LdbmNetwork:
        """Embed as a lateral network (deep units become hidden units whose
        only couplings are laterals to the hidden layer)."""
        mh, md = self.n_hidden, self.n_deep
        lat = np.zeros((mh + md, mh + md), dtype=complex)
        lat[:mh, mh:] = self.w_deep
        return LdbmNetwork(
            n_visible=self.n_visible,
            a=self.a,
            b=np.concatenate([self.b, self.b_deep]),
            w=np.concatenate([self.w, np.zeros((self.n_visible, md))], axis=1),
            lat=lat,
            log_norm=self.log_norm,
        )

    def to_json_dict(self) -> dict:
        pair = lambda c: [float(np.real(c)), float(np.imag(c))]  # noqa: E731
        return {
            "N": self.n_visible,
            "M": self.n_hidden,
            "M_deep": self.n_deep,
            "a": [pair(c) for c in self.a],
            "b": [pair(c) for c in self.b],
            "b_deep": [pair(c) for c in self.b_deep],
            "W": [[pair(c) for c in row] for row in self.w],
            "W_deep": [[pair(c) for c in row] for row in self.w_deep],
            "log_norm": pair(self.log_norm),
        }


def _lateral_components(net: LdbmNetwork) -> tuple[list[list[int]], list[set[int]]]:
    m = net.n_hidden
    neighbors: list[set[int]] = [set() for _ in range(m)]
    rows, cols = np.nonzero(np.abs(net.lat) > _TOL)
    for j, k in zip(rows.tolist(), cols.tolist()):
        neighbors[j].add(k)
        neighbors[k].add(j)
    seen = [False] * m
    components = []
    for start in range(m):
        if seen[start]:
            continue
        comp, stack = [], [start]
        seen[start] = True
        while stack:
            node = stack.pop()
            comp.append(node)
            for nxt in neighbors[node]:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
        components.append(sorted(comp))
    return components, neighbors


def _two_color(comp: list[int], neighbors: list[set[int]]) -> dict[int, int] | None:
    color = {comp[0]: 0}
    queue = [comp[0]]
    while queue:
        node = queue.pop()
        for nxt in neighbors[node]:
            if nxt not in color:
                color[nxt] = 1 - color[node]
                queue.append(nxt)
            elif color[nxt] == color[node]:
                return None
    return color


def _strip_weight(k: complex) -> complex:
    """Weight of the mediating unit replacing a direct coupling exp(-K s s')."""
    wt = 0.5 * np.arccos(np.exp(-2.0 * k) + 0j)
    if abs(np.cos(2.0 * wt) - np.exp(-2.0 * k)) > 1e-10:
        raise ValueError(
            f"coupling {k} lands on an arccos branch point; cannot mediate"
        )
    return complex(wt)


def ldbm_to_dbm(net: LdbmNetwork) -> DbmNetwork:
    """Rewrite the lateral network as an equivalent three-layer network.

    Each lateral-graph component is split into a hidden and a deep side.
    Bipartite components are two-colored, choosing the orientation that
    strips the fewest visible couplings (ties keep the lowest-index unit
    hidden); non-bipartite components go entirely deep.  A deep unit's
    remaining visible couplings, and any deep-deep lateral edge, are each
    replaced by a mediating hidden unit via the analytically continued
    two-body identity cos(2 w) = e^{-2K}.
    """
    m = net.n_hidden
    components, neighbors = _lateral_components(net)
    visible_deg = np.count_nonzero(np.abs(net.w) > _TOL, axis=0)
    deep_flag = [False] * m
    bipartite = [True] * m
    for comp in components:
        if len(comp) == 1 and not neighbors[comp[0]]:
            deep_flag[comp[0]] = visible_deg[comp[0]] == 0
            continue
        color = _two_color(comp, neighbors)
        if color is None:
            for j in comp:
                deep_flag[j] = True
                bipartite[j] = False
            continue
        strips0 = sum(visible_deg[j] for j in comp if color[j] == 1)
        strips1 = sum(visible_deg[j] for j in comp if color[j] == 0)
        if strips0 < strips1:
            deep_color = 1
        elif strips1 < strips0:
            deep_color = 0
        else:
            deep_color = 1 - color[comp[0]]  # lowest unit index stays hidden
        for j in comp:
            deep_flag[j] = color[j] == deep_color

    hidden_ids = [j for j in range(m) if not deep_flag[j]]
    deep_ids = [j for j in range(m) if deep_flag[j]]
    h_pos = {j: i for i, j in enumerate(hidden_ids)}
    d_pos = {j: i for i, j in enumerate(deep_ids)}

    w_cols = [net.w[:, hidden_ids].copy()]
    b_hidden = [net.b[hidden_ids].copy()]
    v_rows = [np.zeros((len(hidden_ids), len(deep_ids)), dtype=complex)]
    log_norm = net.log_norm

    rows, cols = np.nonzero(np.abs(net.lat) > _TOL)
    for j, k in zip(rows.tolist(), cols.tolist()):
        if deep_flag[j] != deep_flag[k]:
            hid, deep = (j, k) if deep_flag[k] else (k, j)
            v_rows[0][h_pos[hid], d_pos[deep]] = net.lat[j, k]
        else:
            assert deep_flag[j] and deep_flag[k], "lateral edge inside hidden layer"
            kk = -1j * net.lat[j, k]
            wt = _strip_weight(kk)
            row = np.zeros((1, len(deep_ids)), dtype=complex)
            row[0, d_pos[j]] = -wt
            row[0, d_pos[k]] = -wt
            v_rows.append(row)
            w_cols.append(np.zeros((net.n_visible, 1), dtype=complex))
            b_hidden.append(np.zeros(1, dtype=complex))
            log_norm += kk - math.log(2.0)

    for j in deep_ids:
        for i in np.nonzero(np.abs(net.w[:, j]) > _TOL)[0].tolist():
            kk = -1j * net.w[i, j]
            wt = _strip_weight(kk)
            col = np.zeros((net.n_visible, 1), dtype=complex)
            col[i, 0] = -wt
            row = np.zeros((1, len(deep_ids)), dtype=complex)
            row[0, d_pos[j]] = -wt
            w_cols.append(col)
            v_rows.append(row)
            b_hidden.append(np.zeros(1, dtype=complex))
            log_norm += kk - math.log(2.0)

    return DbmNetwork(
        n_visible=net.n_visible,
        a=net.a.copy(),
        b=np.concatenate(b_hidden),
        b_deep=net.b[deep_ids].copy(),
        w=np.concatenate(w_cols, axis=1),
        w_deep=np.concatenate(v_rows, axis=0),
        log_norm=log_norm,
    )
