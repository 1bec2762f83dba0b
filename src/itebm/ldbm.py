"""Boltzmann-machine wave functions with closed-form gate absorption.

The lateral network represents amplitudes as

    Psi(z) = exp(log_norm) * sum_h exp[i(sum_i a_i z_i + sum_ij z_i W_ij h_j
                                         + sum_{j<k} h_j L_jk h_k + sum_j b_j h_j)]

with h ranging over {+1, -1}^M.  Basis-change gates, phase gates, and
imaginary-time factors are absorbed exactly by appending hidden units and
shifting parameters; no parameter is ever fitted.  The laterals are kept as
the edge list the absorption rules create: each gate appends its units and
their edges.  The constructors check every entry and pair of a network given
from outside; a rule checks only the entries it writes and shares the arrays
it leaves alone, so absorbing a gate costs one copy of each array it grows
(time linear in N * M + E) and no check or sort over the whole network.
`ldbm_to_dbm` removes the lateral couplings in favour of a third (deep) layer
using an analytically continued two-body identity; the deep layer is the
last units of a lateral network, so its couplings stay an edge list too.

Amplitudes are exact: with z fixed the hidden units interact only through
the laterals, so the sum over h is done by bucket elimination over the
lateral graph in greedy min-degree order: each factor waits in the bucket
of its first unit in that order until that unit is summed out.  Its cost
grows as 2^N * M * 2^width, where the width is the most neighbours a unit
has when it is summed out, not as 2^M; nets wider than WIDTH_LIMIT are
refused.

Conventions: a real parameter set gives pure-phase summands ("unitary"
summands); log_norm collects every scalar prefactor so raw amplitudes are
tracked exactly, not just up to normalization.  z = +1 corresponds to bit 0
and qubit 0 is the most significant bit, matching the simulator.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .decomp import cascade_diagonal
from .pauli import HamiltonianTerm, PauliString
from .simulator import StateVector

#: Largest elimination width `_marginalize` accepts: its biggest message
#: holds 2^width amplitudes per visible configuration.  Every net of at most
#: 20 hidden units has width at most 19.
WIDTH_LIMIT = 20
_TOL = 1e-15


def _complex_array(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """value as a read-only complex array of the given shape; raises when
    its shape differs or an entry is not finite."""
    arr = np.array(value, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def _built(written: dict, **fields) -> LdbmNetwork:
    """A network of a rule's arrays, uncopied and made read-only so that
    networks can share them.  Only the entries written are checked finite,
    named as the constructor names them; each pair a rule appends is (j, m)
    with j < m, the new unit, so pairs need no check."""
    for name, values in written.items():
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")
    net = object.__new__(LdbmNetwork)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(net, name, complex(value) if name == "log_norm" else value)
    return net


def _grown(arr: np.ndarray, extra: int, axis: int = 0) -> np.ndarray:
    """arr followed by `extra` zero entries along axis, in one allocation."""
    shape = list(arr.shape)
    shape[axis] += extra
    out = np.zeros(shape, dtype=arr.dtype)
    out[tuple(map(slice, arr.shape))] = arr
    return out


def _pair(c: complex) -> list[float]:
    return [c.real, c.imag]


@dataclass(frozen=True)
class LdbmNetwork:
    """Visible/hidden network with lateral hidden-hidden couplings.

    The laterals are an edge list: row e of pairs is (j, k) with
    0 <= j < k < M, each pair at most once, and lat[e] is its coupling L_jk.
    Hidden-unit indices are stable: a basis change severs a unit's visible
    coupling by zeroing it, not by compacting the unit away.  The
    constructor checks all of this and every entry finite on read-only
    copies of its arrays; the rules build through `_built`, checking only
    what they write.
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
        pairs.flags.writeable = False
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
            "a": [_pair(c) for c in self.a.tolist()],
            "b": [_pair(c) for c in self.b.tolist()],
            "W": [[_pair(c) for c in row] for row in self.w.tolist()],
            "L": [[_pair(c) for c in row] for row in lat.tolist()],
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
    `_elimination_order`, by buckets: each factor waits in the bucket of
    the first of its units in that order.  Summing out a unit is one einsum
    over a leading row axis that multiplies the factors of its bucket and
    sums the unit out, leaving a message over its neighbours, which waits
    in the bucket of the first of them.  Every factor is kept at largest
    modulus at most 1 per row (exponential factors by shifting their
    exponent, messages by an exact power-of-two rescale), and the logs of
    those scales are applied with log_norm by a single exp at the end, so
    products over hundreds of units neither overflow nor underflow.
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
    # unit -> its bucket: (units, array) per factor whose first unit in
    # `order` it is, in the order the factors were made; messages lead with
    # the row axis, pairwise factors have none
    rank = {v: i for i, v in enumerate(order)}.__getitem__
    buckets: dict[int, list] = {v: [] for v in order}
    pair_shifts = []
    for j, k, coupling in edges:
        pair_shifts.append(abs(coupling.imag))
        buckets[min(j, k, key=rank)].append(
            ((j, k), np.exp(1j * coupling * np.outer(spin, spin) - pair_shifts[-1])))
    log_scale += math.fsum(pair_shifts)
    binary_exp = np.zeros(rows, dtype=np.int64)
    value = np.ones(rows, dtype=complex)
    for v in order:
        bucket = buckets.pop(v)
        scope = sorted({u for units, _ in bucket for u in units} - {v})
        label = {u: i for i, u in enumerate(scope, start=2)}
        label[v] = 1
        operands: list = [unary[:, v], [0, 1]]
        for units, arr in bucket:
            row_axis = [0] if arr.ndim > len(units) else []
            operands += [arr, row_axis + [label[u] for u in units]]
        msg = np.einsum(*operands, [0] + [label[u] for u in scope])
        if scope:
            binary_exp += rescale(msg)
            buckets[min(scope, key=rank)].append((tuple(scope), msg))
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
    """The norm discarded by statevector(); raises as state_and_norm does."""
    return state_and_norm(net)[1]


class SiteError(ValueError):
    """A visible index out of range, or repeated where a rule needs distinct ones."""


def _check_site(net: LdbmNetwork, l: int) -> None:
    if not 0 <= l < net.n_visible:
        raise SiteError(f"visible index {l} out of range for N={net.n_visible}")


def _append_basis_unit(
    net: LdbmNetwork, l: int, w_new: complex, b_new: complex,
    a_after: complex, delta_log_norm: complex,
) -> LdbmNetwork:
    """Shared bookkeeping for single-qubit basis changes: one new hidden unit
    takes over qubit l's couplings (as laterals, negated), the old ones are
    severed, and the visible bias is replaced."""
    m, e = net.n_hidden, net.lat.size
    (coupled,) = np.nonzero(net.w[l])
    a = net.a.copy()
    a[l] = a_after
    b = np.concatenate([net.b, [b_new]])
    w = _grown(net.w, 1, axis=1)
    w[l, :m] = 0.0
    w[l, m] = w_new
    pairs = _grown(net.pairs, coupled.size)
    pairs[e:, 0], pairs[e:, 1] = coupled, m
    lat = np.concatenate([net.lat, -net.w[l, coupled]])
    return _built({"a": a[l], "b": b[m], "W": w[:, m], "lat": lat[e:]},
                  n_visible=net.n_visible, a=a, b=b, w=w, pairs=pairs, lat=lat,
                  log_norm=net.log_norm + delta_log_norm)


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
    a[l] = complex(a[l]) + phi  # past the float range: inf, which is refused
    return _built({"a": a[l]}, **{**vars(net), "a": a})


def apply_rzz(net: LdbmNetwork, l1: int, l2: int, phi: float) -> LdbmNetwork:
    """Absorb exp(-i phi Z_{l1} Z_{l2}) using two laterally coupled hidden units."""
    _check_site(net, l1)
    _check_site(net, l2)
    if l1 == l2:
        raise SiteError(f"rzz requires two distinct qubits, got {l1} twice")
    m, e = net.n_hidden, net.lat.size
    a = net.a.copy()
    a[l1] += math.pi / 4
    a[l2] += math.pi / 4
    b = np.concatenate([net.b, [-math.pi / 4, phi + math.pi / 4]])
    w = _grown(net.w, 2, axis=1)
    w[[l1, l2], m] = math.pi / 4
    pairs = np.concatenate([net.pairs, [[m, m + 1]]])
    lat = np.concatenate([net.lat, [math.pi / 4]])
    return _built({"a": a[[l1, l2]], "b": b[m:], "W": w[:, m:], "lat": lat[e:]},
                  n_visible=net.n_visible, a=a, b=b, w=w, pairs=pairs, lat=lat,
                  log_norm=net.log_norm + complex(-math.log(2.0), -math.pi / 4))


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
        return _built({}, **{**vars(net), "log_norm": net.log_norm - k})
    units, extra_log = [], 0.0
    for dec in cascade_diagonal({support: k}):
        extra_log += dec.log_norm
        units += dec.hidden_units
    m = net.n_hidden
    b = np.concatenate([net.b, [-unit.bias for unit in units]])
    w = _grown(net.w, len(units), axis=1)
    for j, unit in enumerate(units, start=m):
        for site, weight in unit.weights:
            w[site, j] = -weight
    return _built({"b": b[m:], "W": w[:, m:]},
                  **{**vars(net), "b": b, "w": w, "log_norm": net.log_norm + extra_log})


#: Per letter, the basis change absorbed before a word's diagonal form D
#: (HX, HY^dag) and the one absorbed after it (HX, HY): P = U_after D U_before.
_BASIS = {"X": (apply_hx, apply_hx), "Y": (apply_hy_dag, apply_hy)}


def apply_term_imaginary(
    net: LdbmNetwork, term: HamiltonianTerm, dtau: float
) -> LdbmNetwork:
    """Absorb exp(-dtau c P) for an arbitrary Pauli word by reading its
    letters: each X or Y site enters its letter's basis (`_BASIS`), in
    site order, the word with Z on those sites is absorbed as a diagonal
    term, and each site leaves its basis again, in site order."""
    word = term.string.word
    if len(word) != net.n_visible:
        raise ValueError(f"term width {len(word)} != network width {net.n_visible}")
    rotated = [(q, _BASIS[ch]) for q, ch in enumerate(word) if ch in _BASIS]
    for q, (enter, _) in rotated:
        net = enter(net, q)
    diagonal = PauliString(word.replace("X", "Z").replace("Y", "Z"))
    net = apply_diagonal_imaginary(net, HamiltonianTerm(term.coefficient, diagonal), dtau)
    for q, (_, leave) in rotated:
        net = leave(net, q)
    return net


# ---------------------------------------------------------------------------
# Conversion to the three-layer (deep) network.

@dataclass(frozen=True)
class DbmNetwork:
    """Three-layer network: a lateral network whose last n_deep units are
    the deep layer, coupled to no visible unit, and whose laterals are the
    hidden-deep couplings W_deep (j < M <= k for each pair (j, k)).  The
    constructor checks only this split; `LdbmNetwork` checks the entries."""

    lateral: LdbmNetwork
    n_deep: int

    def __post_init__(self) -> None:
        net = self.lateral
        if not 0 <= self.n_deep <= net.n_hidden:
            raise ValueError(f"n_deep={self.n_deep} needs 0 <= n_deep <= {net.n_hidden} units")
        m = self.n_hidden
        if net.w[:, m:].any():
            raise ValueError("a deep unit has a visible coupling")
        if (net.pairs[:, 0] >= m).any() or (net.pairs[:, 1] < m).any():
            raise ValueError(f"each pair (j, k) needs hidden j < M={m} <= k deep")

    @property
    def n_visible(self) -> int:
        return self.lateral.n_visible

    @property
    def n_hidden(self) -> int:
        """Units of the hidden layer alone."""
        return self.lateral.n_hidden - self.n_deep

    def to_ldbm(self) -> LdbmNetwork:
        """The lateral network: the deep units are its last hidden units."""
        return self.lateral

    def to_json_dict(self) -> dict:
        """The parameters with W_deep as a dense M x M_deep matrix."""
        net, m = self.lateral, self.n_hidden
        w_deep = np.zeros((m, self.n_deep), dtype=complex)
        w_deep[net.pairs[:, 0], net.pairs[:, 1] - m] = net.lat
        return {
            "N": self.n_visible,
            "M": m,
            "M_deep": self.n_deep,
            "a": [_pair(c) for c in net.a.tolist()],
            "b": [_pair(c) for c in net.b[:m].tolist()],
            "b_deep": [_pair(c) for c in net.b[m:].tolist()],
            "W": [[_pair(c) for c in row] for row in net.w[:, :m].tolist()],
            "W_deep": [[_pair(c) for c in row] for row in w_deep.tolist()],
            "log_norm": _pair(net.log_norm),
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


def _mediator(coupling: complex) -> tuple[complex, complex]:
    """A hidden unit replacing the direct coupling exp(i coupling s s')
    between two units, via the two-body identity cos(2 w) = e^{-2K}: the
    weight it takes on both of them and the log_norm it adds."""
    kk = -1j * coupling
    wt = complex(0.5 * np.arccos(np.exp(-2.0 * kk) + 0j))
    if abs(np.cos(2.0 * wt) - np.exp(-2.0 * kk)) > 1e-10:
        raise ValueError(
            f"coupling {kk} lands on an arccos branch point; cannot mediate"
        )
    return -wt, kk - math.log(2.0)


def ldbm_to_dbm(net: LdbmNetwork) -> DbmNetwork:
    """Rewrite the lateral network as an equivalent three-layer network.

    Each lateral-graph component is split into a hidden and a deep side.
    Bipartite components are two-colored, choosing the orientation that
    strips the fewest visible couplings (ties keep the lowest-index unit
    hidden); non-bipartite components go entirely deep.  A deep unit's
    remaining visible couplings, and any deep-deep lateral edge, are each
    replaced by a mediating hidden unit (`_mediator`).  The deep units come
    after the kept units and the mediators, and W_deep's entries are the
    laterals, in (row, column) order.
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

    w_deep, mediated = [], []  # (row, column, coupling); (sites, columns, coupling)
    for j, k, coupling in edges:
        if deep_flag[j] != deep_flag[k]:
            hid, deep = (j, k) if deep_flag[k] else (k, j)
            w_deep.append((h_pos[hid], d_pos[deep], coupling))
        else:
            assert deep_flag[j] and deep_flag[k], "lateral edge inside hidden layer"
            mediated.append(([], [d_pos[j], d_pos[k]], coupling))
    for j in deep_ids:
        for i in np.nonzero(np.abs(net.w[:, j]) > _TOL)[0].tolist():
            mediated.append(([i], [d_pos[j]], net.w[i, j]))

    h, top = len(hidden_ids), len(hidden_ids) + len(mediated)  # top: the hidden layer's size
    b = np.concatenate([net.b[hidden_ids], np.zeros(len(mediated)), net.b[deep_ids]])
    w = _grown(net.w[:, hidden_ids], len(mediated) + len(deep_ids), axis=1)
    log_norm, weights = net.log_norm, []
    for row, (sites, deep, coupling) in enumerate(mediated, start=h):
        weight, extra = _mediator(coupling)
        w[sites, row] = weight
        w_deep += [(row, col, weight) for col in deep]
        log_norm += extra
        weights.append(weight)
    w_deep.sort(key=lambda entry: entry[:2])
    pairs = np.array([(row, top + col) for row, col, _ in w_deep], np.intp).reshape(-1, 2)
    lat = np.array([coupling for _, _, coupling in w_deep], dtype=complex)
    # every mediator's weight is in W_deep, and in W when it has sites
    lateral = _built({"W": w[:, h:top], "W_deep": weights}, a=net.a, b=b, w=w,
                     n_visible=net.n_visible, pairs=pairs, lat=lat, log_norm=log_norm)
    return DbmNetwork(lateral, len(deep_ids))


# ---------------------------------------------------------------------------
# Op scripts.

class ScriptError(ValueError):
    """A malformed op-script line; its message starts with "line N: "."""


#: Each script op and the kinds of its arguments, as `_script_arg` reads them.
_SCRIPT_OPS = {"hx": ("site",), "hy": ("site",), "hydag": ("site",), "rz": ("site", "angle"),
               "rzz": ("site", "site", "angle"), "imag": ("word", "coefficient"),
               "to-dbm": (), "dump": ()}


def _script_arg(kind: str, token: str, n_visible: int):
    """A site index, a Pauli word of n_visible letters, or a finite angle or
    coefficient; ValueError when the token is malformed."""
    if kind == "word":
        if len(token) != n_visible:
            raise ValueError(f"word {token.upper()!r} does not match --qubits {n_visible}")
        return PauliString(token.upper())
    try:
        value = int(token) if kind == "site" else float(token)
    except ValueError:
        expected = "qubit index" if kind == "site" else "number"
        raise ValueError(f"expected {expected}, got {token!r}") from None
    if kind != "site" and not math.isfinite(value):
        raise ValueError(f"non-finite {kind} {value!r}")
    return value


def run_script(text: str, n_visible: int, emit) -> LdbmNetwork | DbmNetwork:
    """Run an op script (`_SCRIPT_OPS`, one per line, `#` comments, op names
    in any case) from `zero_state(n_visible)`; return the last network, the
    `DbmNetwork` (a lateral network and its layer split) once `to-dbm` has
    run.  `imag WORD K` absorbs exp(-K WORD) by `apply_term_imaginary`;
    `dump` passes `to_json_dict()` to `emit` when its line runs, with a
    DBM's W_deep dense.  A malformed line or a rule's `SiteError` raises
    `ScriptError`; any other failure, such as an `rz` bias past the float
    range, a failure absorbing `imag` or at `to-dbm`, propagates.
    """
    # Built per call, so that a rule rebound on the module is the one called.
    gates = {"hx": apply_hx, "hy": apply_hy, "hydag": apply_hy_dag,
             "rz": apply_rz, "rzz": apply_rzz}
    net = zero_state(n_visible)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        op, *tokens = line.split()
        op = op.lower()
        if isinstance(net, DbmNetwork) and op != "dump":
            raise ScriptError(f"line {lineno}: no further ops after to-dbm (got {op!r})")
        kinds = _SCRIPT_OPS.get(op)
        if kinds is None or len(kinds) != len(tokens):
            raise ScriptError(f"line {lineno}: unknown op {line!r}")
        try:
            args = [_script_arg(kind, token, n_visible) for kind, token in zip(kinds, tokens)]
        except ValueError as exc:
            raise ScriptError(f"line {lineno}: {exc}") from None
        try:
            if op in gates:
                net = gates[op](net, *args)
        except SiteError as exc:
            raise ScriptError(f"line {lineno}: {exc}") from None
        if op == "imag":
            net = apply_term_imaginary(net, HamiltonianTerm(args[1], args[0]), 1.0)
        elif op == "to-dbm":
            net = ldbm_to_dbm(net)
        elif op == "dump":
            emit(net.to_json_dict())
    return net
