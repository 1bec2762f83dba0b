"""Boltzmann-machine wave functions with closed-form gate absorption.

The lateral network represents amplitudes as

    Psi(z) = exp(log_norm) * sum_h exp[i(sum_i a_i z_i + sum_ij z_i W_ij h_j
                                         + sum_{j<k} h_j L_jk h_k + sum_j b_j h_j)]

with h ranging over {+1, -1}^M.  Basis-change gates, phase gates, and
imaginary-time factors are absorbed exactly by appending hidden units and
shifting parameters; no parameter is ever fitted.  The laterals are kept as
the edge list the absorption rules create: each gate appends its units and
their edges, so absorbing a gate costs time in the edges it adds, not in M^2.
`ldbm_to_dbm` removes the lateral couplings in favour of a third (deep) layer
using an analytically continued two-body identity.

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


def _complex_array(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """value as a complex array of the given shape; raises when its shape
    differs or an entry is not finite."""
    arr = np.array(value, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _pair(c: complex) -> list[float]:
    return [float(np.real(c)), float(np.imag(c))]


@dataclass(frozen=True)
class LdbmNetwork:
    """Visible/hidden network with lateral hidden-hidden couplings.

    The laterals are an edge list: row e of pairs is (j, k) with
    0 <= j < k < M, each pair at most once, and lat[e] is its coupling L_jk.
    Hidden-unit indices are stable: a basis change severs a unit's visible
    coupling by zeroing it, not by compacting the unit away.
    """

    n_visible: int
    a: np.ndarray
    b: np.ndarray
    w: np.ndarray
    pairs: np.ndarray = ()
    lat: np.ndarray = ()
    log_norm: complex = 0j

    def __post_init__(self) -> None:
        a = _complex_array("a", self.a, (self.n_visible,))
        b = _complex_array("b", self.b, (np.size(self.b),))
        w = _complex_array("W", self.w, (self.n_visible, b.size))
        pairs = np.array(self.pairs, dtype=np.intp)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"pairs has shape {pairs.shape}, expected (E, 2)")
        lat = _complex_array("lat", self.lat, (len(pairs),))
        j, k = pairs.T
        if np.any(j < 0) or np.any(j >= k) or np.any(k >= b.size):
            raise ValueError(f"each lateral pair (j, k) needs 0 <= j < k < M={b.size}")
        keys = np.sort(j * b.size + k)
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("a lateral pair is repeated")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "pairs", pairs)
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
        """The parameters with L as a dense M x M upper-triangular matrix."""
        lat = np.zeros((self.n_hidden, self.n_hidden), dtype=complex)
        lat[self.pairs[:, 0], self.pairs[:, 1]] = self.lat
        return {
            "N": self.n_visible,
            "M": self.n_hidden,
            "a": [_pair(c) for c in self.a],
            "b": [_pair(c) for c in self.b],
            "W": [[_pair(c) for c in row] for row in self.w],
            "L": [[_pair(c) for c in row] for row in lat],
            "log_norm": _pair(self.log_norm),
        }


def plus_state(n_visible: int) -> LdbmNetwork:
    """The empty (M = 0) network: the uniform superposition."""
    return LdbmNetwork(
        n_visible=n_visible,
        a=np.zeros(n_visible, dtype=complex),
        b=np.zeros(0, dtype=complex),
        w=np.zeros((n_visible, 0), dtype=complex),
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
    edges, neighbors = _lateral_graph(net)
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
    for j, k, coupling in edges:
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
    with np.errstate(over="ignore", invalid="ignore"):  # state_and_norm reports it
        return np.exp(net.log_norm + 1j * (z_spins @ net.a) + log_scale) * value


def raw_amplitudes(net: LdbmNetwork) -> np.ndarray:
    """Un-normalized amplitudes over all 2^N configurations (exact tracking)."""
    return _marginalize(net, _z_spins(net.n_visible))


def state_and_norm(net: LdbmNetwork) -> tuple[StateVector, float]:
    """Normalized state and the norm it discarded, from one marginalization;
    raises when every amplitude vanishes, or when an amplitude or the norm
    overflows the float range."""
    raw = raw_amplitudes(net)
    if not np.all(np.isfinite(raw)):
        raise ValueError("network amplitudes overflow the float range")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(raw)
    if not np.isfinite(norm):
        raise ValueError(f"network norm overflows the float range ({norm})")
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
    a[l] = a_after
    w = np.hstack([net.w, np.zeros((net.n_visible, 1), dtype=complex)])
    w[l, :m] = 0.0
    w[l, m] = w_new
    (coupled,) = np.nonzero(net.w[l])
    new_pairs = np.column_stack([coupled, np.full_like(coupled, m)])
    return LdbmNetwork(
        net.n_visible, a, np.append(net.b, b_new), w,
        np.concatenate([net.pairs, new_pairs]),
        np.concatenate([net.lat, -net.w[l, coupled]]),
        net.log_norm + delta_log_norm,
    )


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
    w = np.hstack([net.w, np.zeros((net.n_visible, 2), dtype=complex)])
    w[l1, m] = math.pi / 4
    w[l2, m] = math.pi / 4
    return LdbmNetwork(net.n_visible, a, b, w,
                       np.concatenate([net.pairs, [[m, m + 1]]]),
                       np.append(net.lat, math.pi / 4),
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
    return replace(net, b=np.concatenate(b_list), w=np.concatenate(w_cols, axis=1),
                   log_norm=net.log_norm + extra_log)


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
        b = _complex_array("b", self.b, (np.size(self.b),))
        b_deep = _complex_array("b_deep", self.b_deep, (np.size(self.b_deep),))
        w = _complex_array("W", self.w, (self.n_visible, b.size))
        w_deep = _complex_array("W_deep", self.w_deep, (b.size, b_deep.size))
        object.__setattr__(self, "a", _complex_array("a", self.a, (self.n_visible,)))
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
        hid, deep = np.nonzero(self.w_deep)
        return LdbmNetwork(
            n_visible=self.n_visible,
            a=self.a,
            b=np.concatenate([self.b, self.b_deep]),
            w=np.concatenate([self.w, np.zeros((self.n_visible, self.n_deep))], axis=1),
            pairs=np.column_stack([hid, self.n_hidden + deep]),
            lat=self.w_deep[hid, deep],
            log_norm=self.log_norm,
        )

    def to_json_dict(self) -> dict:
        return {
            "N": self.n_visible,
            "M": self.n_hidden,
            "M_deep": self.n_deep,
            "a": [_pair(c) for c in self.a],
            "b": [_pair(c) for c in self.b],
            "b_deep": [_pair(c) for c in self.b_deep],
            "W": [[_pair(c) for c in row] for row in self.w],
            "W_deep": [[_pair(c) for c in row] for row in self.w_deep],
            "log_norm": _pair(self.log_norm),
        }


def _lateral_graph(net: LdbmNetwork) -> tuple[list[tuple], list[set[int]]]:
    """The lateral edges above _TOL as (j, k, L_jk) in (j, k) order, and the
    set of neighbours of each unit."""
    keep = np.abs(net.lat) > _TOL
    pairs, lat = net.pairs[keep], net.lat[keep]
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    edges = list(zip(pairs[order, 0].tolist(), pairs[order, 1].tolist(), lat[order]))
    neighbors: list[set[int]] = [set() for _ in range(net.n_hidden)]
    for j, k, _ in edges:
        neighbors[j].add(k)
        neighbors[k].add(j)
    return edges, neighbors


def _components(neighbors: list[set[int]]) -> tuple[list[tuple], list[int]]:
    """One walk of the lateral graph: each connected component (sorted, in
    order of its lowest unit) with whether it is bipartite, and a colouring
    that gives each component's lowest unit colour 0 and neighbours opposite
    colours wherever the component is bipartite."""
    color = [-1] * len(neighbors)
    components = []
    for start in range(len(neighbors)):
        if color[start] >= 0:
            continue
        color[start] = 0
        comp, stack, bipartite = [], [start], True
        while stack:
            node = stack.pop()
            comp.append(node)
            for nxt in neighbors[node]:
                if color[nxt] < 0:
                    color[nxt] = 1 - color[node]
                    stack.append(nxt)
                elif color[nxt] == color[node]:
                    bipartite = False
        components.append((sorted(comp), bipartite))
    return components, color


def _mediator(
    coupling: complex, n_visible: int, n_deep: int, sites: list[int], deep: list[int]
) -> tuple[np.ndarray, np.ndarray, complex]:
    """A hidden unit replacing the direct coupling exp(i coupling s s')
    between the named visible sites and deep units, via the two-body
    identity cos(2 w) = e^{-2K}: its W column, its W_deep row and the
    log_norm it adds."""
    kk = -1j * coupling
    wt = complex(0.5 * np.arccos(np.exp(-2.0 * kk) + 0j))
    if abs(np.cos(2.0 * wt) - np.exp(-2.0 * kk)) > 1e-10:
        raise ValueError(
            f"coupling {kk} lands on an arccos branch point; cannot mediate"
        )
    col = np.zeros((n_visible, 1), dtype=complex)
    col[sites, 0] = -wt
    row = np.zeros((1, n_deep), dtype=complex)
    row[0, deep] = -wt
    return col, row, kk - math.log(2.0)


def ldbm_to_dbm(net: LdbmNetwork) -> DbmNetwork:
    """Rewrite the lateral network as an equivalent three-layer network.

    Each lateral-graph component is split into a hidden and a deep side.
    Bipartite components are two-colored, choosing the orientation that
    strips the fewest visible couplings (ties keep the lowest-index unit
    hidden); non-bipartite components go entirely deep.  A deep unit's
    remaining visible couplings, and any deep-deep lateral edge, are each
    replaced by a mediating hidden unit (`_mediator`).
    """
    m = net.n_hidden
    edges, neighbors = _lateral_graph(net)
    components, color = _components(neighbors)
    visible_deg = np.count_nonzero(np.abs(net.w) > _TOL, axis=0)
    deep_flag = [False] * m
    for comp, bipartite in components:
        if len(comp) == 1:
            deep_flag[comp[0]] = visible_deg[comp[0]] == 0
        elif not bipartite:
            for j in comp:
                deep_flag[j] = True
        else:
            strips0 = sum(visible_deg[j] for j in comp if color[j] == 1)
            strips1 = sum(visible_deg[j] for j in comp if color[j] == 0)
            deep_color = 0 if strips1 < strips0 else 1  # ties: colour 0 stays hidden
            for j in comp:
                deep_flag[j] = color[j] == deep_color

    hidden_ids = [j for j in range(m) if not deep_flag[j]]
    deep_ids = [j for j in range(m) if deep_flag[j]]
    h_pos = {j: i for i, j in enumerate(hidden_ids)}
    d_pos = {j: i for i, j in enumerate(deep_ids)}

    v_hidden = np.zeros((len(hidden_ids), len(deep_ids)), dtype=complex)
    mediators = []
    for j, k, coupling in edges:
        if deep_flag[j] != deep_flag[k]:
            hid, deep = (j, k) if deep_flag[k] else (k, j)
            v_hidden[h_pos[hid], d_pos[deep]] = coupling
        else:
            assert deep_flag[j] and deep_flag[k], "lateral edge inside hidden layer"
            mediators.append(_mediator(coupling, net.n_visible, len(deep_ids),
                                       [], [d_pos[j], d_pos[k]]))
    for j in deep_ids:
        for i in np.nonzero(np.abs(net.w[:, j]) > _TOL)[0].tolist():
            mediators.append(_mediator(net.w[i, j], net.n_visible, len(deep_ids),
                                       [i], [d_pos[j]]))
    log_norm = net.log_norm
    for _, _, extra in mediators:
        log_norm += extra

    return DbmNetwork(
        n_visible=net.n_visible,
        a=net.a,
        b=np.concatenate([net.b[hidden_ids], np.zeros(len(mediators))]),
        b_deep=net.b[deep_ids],
        w=np.hstack([net.w[:, hidden_ids]] + [col for col, _, _ in mediators]),
        w_deep=np.vstack([v_hidden] + [row for _, row, _ in mediators]),
        log_norm=log_norm,
    )
