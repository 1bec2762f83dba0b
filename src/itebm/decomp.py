"""Auxiliary-field decompositions of non-unitary factors exp(-K * P).

A diagonal factor exp(-K * Z...Z) is written as A * sum_h prod_r
exp[-i h (C + sum_r W_r z_r)] over a two-valued hidden variable h, i.e. a
single hidden unit with bias C and site weights W_r.  The matching condition
inverts L(z) = ln[2 cos(C + sum_r W_r z_r)] through the parity (Walsh)
transform: K_P = -2^{-M} sum_z (prod_{j in P} z_j) L(z).  The empty-subset
coefficient is ln A; subsets below the top order are couplings *applied
alongside* the target, so reconstruction reads

    exp(-K_top P) = exp(log_norm) * sum_h(...) * exp(+sum induced K_P P_P).

An odd order is the next even order with its extra site pinned to z = +1:
that site's weight becomes the bias C, and a coupling on S ∪ {m} becomes one
on S.  Closed forms are written for orders 2 and 4, and orders 1 and 3 are
those forms pinned; higher orders use a 1-D root find for the equal-weight
solution, whose odd mode (bias C = W) is the same pinning of the even form
with M -> M+1.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .pauli import HamiltonianTerm, PauliString, word_from_sites

LN2 = math.log(2.0)

#: Most sites one hidden unit may couple: `induced_couplings` evaluates the
#: unit's Walsh transform over all 2^m configurations of its sites.
MAX_WALSH_SITES = 14

#: Induced couplings below this magnitude are dropped (they shift the
#: reconstructed operator by less than exp(1e-13)).
INDUCED_CUTOFF = 1e-13


@dataclass(frozen=True)
class HiddenUnit:
    """One auxiliary field: bias C plus (site, weight) couplings."""

    bias: float
    weights: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("hidden unit must couple to at least one site")
        for site, w in self.weights:
            if not np.isfinite(w):
                raise ValueError(f"non-finite weight {w!r} at site {site}")


@dataclass(frozen=True)
class Decomposition:
    """Hidden units, their normalization, and the couplings emitted alongside.

    log_norm is ln A.  induced_terms hold the lower-order couplings K_P the
    unit applies in addition to its top-order target (see module docstring
    for the reconstruction identity).
    """

    log_norm: float
    hidden_units: tuple[HiddenUnit, ...]
    induced_terms: tuple[HamiltonianTerm, ...]

    def to_json_dict(self) -> dict:
        return {
            "log_norm": self.log_norm,
            "hidden_units": [
                {"bias": u.bias, "weights": [[q, w] for q, w in u.weights]}
                for u in self.hidden_units
            ],
            "induced": [
                {"coeff": t.coefficient, "word": t.string.word}
                for t in self.induced_terms
            ],
        }


def _sign(k: float) -> float:
    return -1.0 if k < 0 else 1.0


def _pin_last(dec: Decomposition, m: int) -> Decomposition:
    """The order-m form of a bias-free order-(m+1) decomposition, its site m
    pinned to z = +1: that site's weight becomes the bias, and a coupling
    on S ∪ {m} becomes one on S (the word loses its last letter)."""
    if not dec.hidden_units:
        return dec
    (unit,) = dec.hidden_units
    *weights, (_, bias) = unit.weights
    induced = tuple(HamiltonianTerm(t.coefficient, PauliString(t.string.word[:m]))
                    for t in dec.induced_terms)
    return Decomposition(dec.log_norm, (HiddenUnit(bias, tuple(weights)),), induced)


def decompose_one_body(coupling: float) -> Decomposition:
    """exp(-K * sigma): the two-body form pinned, weight W on site 0, bias s*W.

    cos(2W) = exp(-2|K|), A = exp(|K|)/2.  The identity part of the operator
    is absorbed into the ancilla bias, so nothing is induced.
    """
    return _pin_last(decompose_two_body(coupling), 1)


def decompose_two_body(coupling: float) -> Decomposition:
    """exp(-K * sigma sigma) as one bias-free unit with weights (W, s*W)."""
    k = abs(coupling)
    s = _sign(coupling)
    w = 0.5 * math.acos(math.exp(-2.0 * k))
    unit = HiddenUnit(bias=0.0, weights=((0, w), (1, s * w)))
    return Decomposition(log_norm=k - LN2, hidden_units=(unit,), induced_terms=())


def _three_four_w(k: float) -> float:
    return 0.5 * math.atan((1.0 - math.exp(-8.0 * k)) ** 0.25)


def decompose_three_body(coupling: float) -> Decomposition:
    """exp(-K * sigma sigma sigma): the four-body form pinned, equal
    weights W, bias s*W.

    Induces equal one-body couplings -(s/8) ln cos(4W) on each site and
    equal two-body couplings -(1/8) ln cos(4W) on each pair.
    """
    return _pin_last(decompose_four_body(coupling), 3)


def decompose_four_body(coupling: float) -> Decomposition:
    """exp(-K * sigma^4): bias-free unit with weights (W, W, W, s*W).

    Same W and A as the three-body case; induces only two-body couplings:
    -(1/8) ln cos(4W) inside the first three sites and s times that on pairs
    containing the flipped site.
    """
    if coupling == 0.0:
        return Decomposition(0.0, (), ())
    k = abs(coupling)
    s = _sign(coupling)
    w = _three_four_w(k)
    unit = HiddenUnit(bias=0.0, weights=((0, w), (1, w), (2, w), (3, s * w)))
    c2 = -0.125 * math.log(math.cos(4 * w))
    induced = tuple(
        HamiltonianTerm(c2, word_from_sites(4, {i: "Z", j: "Z"}))
        for i, j in ((0, 1), (0, 2), (1, 2))
    ) + tuple(
        HamiltonianTerm(s * c2, word_from_sites(4, {i: "Z", 3: "Z"})) for i in range(3)
    )
    # A = (1/2) * [sec^4(2W) * sec(4W)]^(1/8)
    log_norm = -LN2 - 0.5 * math.log(math.cos(2 * w)) + c2
    return Decomposition(log_norm, (unit,), induced)


def _k_equal_weights(m_eff: int, w: float) -> float:
    """Top-order coupling of the equal-weight unit at weight w.

    K(W) = -2^{-M} sum_k (-1)^k C(M,k) ln[2 cos((2k - M) W)], continuous and
    increasing from 0 to +infinity on [0, pi/(2M)).
    """
    ks = np.arange(m_eff + 1)
    coeffs = np.array([math.comb(m_eff, k) for k in ks], dtype=float)
    args = (2.0 * ks - m_eff) * w
    return float(-np.dot((-1.0) ** ks * coeffs, np.log(2.0 * np.cos(args))) / 2.0**m_eff)


def _k_equal_weights_deriv(m_eff: int, w: float) -> float:
    ks = np.arange(m_eff + 1)
    coeffs = np.array([math.comb(m_eff, k) for k in ks], dtype=float)
    a = 2.0 * ks - m_eff
    return float(np.dot((-1.0) ** ks * coeffs * a, np.tan(a * w)) / 2.0**m_eff)


def solve_general_weight(m: int, k_target: float) -> tuple[float, bool, float]:
    """Solve the equal-weight matching condition for an order-m unit.

    Returns (W, sign_flip, C).  All weights are +W; sign_flip means the last
    weight is negated instead (realizing k_target < 0).  Odd m pins the bias
    C = W, which maps the matching condition onto the even form with
    m -> m + 1; even m uses C = 0.
    """
    if m < 1:
        raise ValueError(f"interaction order must be >= 1, got {m}")
    if not np.isfinite(k_target):
        raise ValueError(f"non-finite coupling target {k_target!r}")
    m_eff = m if m % 2 == 0 else m + 1
    sign_flip = k_target < 0
    k = abs(k_target)
    if k == 0.0:
        return 0.0, False, 0.0
    w_hi = math.pi / (2.0 * m_eff) - 1e-9
    k_hi = _k_equal_weights(m_eff, w_hi)
    if k > k_hi:
        raise ValueError(
            f"coupling target {k_target!r} exceeds the double-precision "
            f"representable range for order {m} (|K| <= {k_hi:.6g})"
        )
    # Newton steps on the bracket [lo, hi], K(lo) < k <= K(hi), each
    # replaced by a bisection where it would leave the bracket or move more
    # than half as far as the step before it
    lo, hi, w, step = 0.0, w_hi, 0.5 * w_hi, w_hi
    for _ in range(200):
        resid = _k_equal_weights(m_eff, w) - k
        if resid == 0.0:
            break
        lo, hi = (w, hi) if resid < 0.0 else (lo, w)
        deriv = _k_equal_weights_deriv(m_eff, w)
        nxt = w - resid / deriv if deriv > 0.0 else lo
        if not lo < nxt < hi or abs(nxt - w) > 0.5 * step:
            nxt = 0.5 * (lo + hi)
        w, step = nxt, abs(nxt - w)
        if step <= 1e-15:
            break
    for _ in range(2):  # Newton polish with the analytic derivative
        resid = _k_equal_weights(m_eff, w) - k
        deriv = _k_equal_weights_deriv(m_eff, w)
        if deriv > 0.0:
            w = min(max(w - resid / deriv, 0.0), w_hi)
    c = w if m % 2 else 0.0
    return w, sign_flip, c


def _parity_transform(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform: out[p] = sum_t (-1)^{|t&p|} in[t]."""
    out = np.array(values, dtype=float)
    n = out.size
    h = 1
    while h < n:
        out = out.reshape(-1, 2 * h)
        left = out[:, :h].copy()
        out[:, :h] = left + out[:, h:]
        out[:, h:] = left - out[:, h:]
        out = out.reshape(n)
        h *= 2
    return out


@functools.lru_cache(maxsize=None)
def _spin_table(m: int) -> np.ndarray:
    """(2^m, m) read-only array of z values; column j holds +1 where bit j
    is clear."""
    idx = np.arange(1 << m)
    spins = 1.0 - 2.0 * ((idx[:, None] >> np.arange(m)[None, :]) & 1)
    spins.flags.writeable = False
    return spins


def induced_couplings(m: int, unit: HiddenUnit) -> list[tuple[tuple[int, ...], float]]:
    """All 2^m couplings realized by a unit on local sites 0..m-1.

    Evaluates L(z) = ln[2 cos(C + sum W_r z_r)] on every configuration and
    applies the inverse parity transform.  Returns (subset, K_P) pairs in
    mask order; the empty subset carries ln A.
    """
    if m > MAX_WALSH_SITES:
        raise ValueError(f"order {m} exceeds the Walsh site limit {MAX_WALSH_SITES}")
    w = np.zeros(m)
    for site, weight in unit.weights:
        if not 0 <= site < m:
            raise ValueError(f"unit couples site {site}, outside 0..{m - 1}")
        w[site] += weight
    spins = _spin_table(m)
    margin = 2.0 * np.cos(unit.bias + spins @ w)
    if np.min(margin) <= 1e-300:
        raise ValueError("coupling at domain boundary: marginalized factor not positive")
    couplings = -_parity_transform(np.log(margin)) / float(1 << m)
    out: list[tuple[tuple[int, ...], float]] = []
    for mask in range(1 << m):
        subset = tuple(j for j in range(m) if (mask >> j) & 1)
        out.append((subset, float(couplings[mask])))
    return out


def mean_unit_success(unit: HiddenUnit) -> float:
    """Average post-selection success 2^{-M} sum_z cos^2(C + sum W_r z_r)."""
    m = len(unit.weights)
    w = np.array([weight for _, weight in unit.weights])
    spins = _spin_table(m)
    return float(np.mean(np.cos(unit.bias + spins @ w) ** 2))


def mean_success_two_body(coupling: float) -> float:
    """Average two-body success probability (1 + exp(-4|K|)) / 2."""
    return 0.5 * (1.0 + math.exp(-4.0 * abs(coupling)))


def mean_success_three_body(coupling: float) -> float:
    """Average three-body success [3 + 4cos^2(2W) + cos^2(4W)] / 8 -> 5/8."""
    if coupling == 0.0:
        return 1.0
    w = _three_four_w(abs(coupling))
    return (3.0 + 4.0 * math.cos(2 * w) ** 2 + math.cos(4 * w) ** 2) / 8.0


def _relabel(dec: Decomposition, sites: tuple[int, ...], n_qubits: int) -> Decomposition:
    """Map a local order-m decomposition onto global sites / word width."""
    units = tuple(
        HiddenUnit(u.bias, tuple((sites[q], w) for q, w in u.weights))
        for u in dec.hidden_units
    )
    induced = tuple(
        HamiltonianTerm(
            t.coefficient,
            word_from_sites(n_qubits, {sites[q]: "Z" for q in t.string.support()}),
        )
        for t in dec.induced_terms
    )
    return Decomposition(dec.log_norm, units, induced)


def _diagonal_unit(sites: tuple[int, ...], coupling: float, n_qubits: int) -> Decomposition:
    """One emitted unit for exp(-K Z...Z) on the given global sites."""
    m = len(sites)
    if m == 1:
        return _relabel(decompose_one_body(coupling), sites, n_qubits)
    if m == 2:
        return _relabel(decompose_two_body(coupling), sites, n_qubits)
    if m == 3:
        return _relabel(decompose_three_body(coupling), sites, n_qubits)
    if m == 4:
        return _relabel(decompose_four_body(coupling), sites, n_qubits)
    w, sign_flip, c = solve_general_weight(m, coupling)
    weights = [w] * m
    if sign_flip:
        weights[-1] = -w
    unit = HiddenUnit(bias=c, weights=tuple(enumerate(weights)))
    log_norm = 0.0
    induced: list[HamiltonianTerm] = []
    for subset, k_p in induced_couplings(m, unit):
        if not subset:
            log_norm = k_p
        elif len(subset) == m:
            if abs(k_p - coupling) > 1e-9 * max(1.0, abs(coupling)):
                raise AssertionError(
                    f"general solve round-trip failed: {k_p} vs {coupling}"
                )
        elif abs(k_p) > INDUCED_CUTOFF:
            induced.append(
                HamiltonianTerm(
                    k_p, word_from_sites(m, {q: "Z" for q in subset})
                )
            )
    return _relabel(Decomposition(log_norm, (unit,), tuple(induced)), sites, n_qubits)


def decompose_sites(
    sites: tuple[int, ...], coupling: float, n_qubits: int
) -> Decomposition:
    """Single-unit decomposition of exp(-K Z...Z) on the given global sites.

    Induced couplings are listed, not compensated; K = 0 gives the empty
    decomposition, and a non-finite K raises a ValueError.
    """
    if not math.isfinite(coupling):
        raise ValueError(f"coupling must be finite, got {coupling!r}")
    sites = tuple(sorted(sites))
    if len(set(sites)) != len(sites) or not sites:
        raise ValueError(f"sites must be distinct and non-empty, got {sites}")
    if any(not 0 <= q < n_qubits for q in sites):
        raise ValueError(f"sites {sites} out of range for {n_qubits} qubits")
    if coupling == 0.0:
        return Decomposition(0.0, (), ())
    return _diagonal_unit(sites, coupling, n_qubits)


def cascade_diagonal(
    couplings: dict[tuple[int, ...], float], n_qubits: int
) -> list[Decomposition]:
    """Decompose a table of commuting Z-string couplings, highest order first.

    Each emitted unit's induced couplings are subtracted from the remaining
    table (the unit applies them, so the pending factors must compensate),
    which may create new lower-order entries.  Exact zeros are dropped.  A
    leftover identity coupling K becomes a unit-free entry with
    log_norm = -K.
    """
    table: dict[tuple[int, ...], float] = {}
    for sites, k in couplings.items():
        key = tuple(sorted(sites))
        table[key] = table.get(key, 0.0) + k
    out: list[Decomposition] = []
    max_order = max((len(k) for k in table), default=0)
    for order in range(max_order, 0, -1):
        for sites in sorted(k for k in table if len(k) == order):
            k = table.pop(sites)
            if k == 0.0:
                continue
            dec = _diagonal_unit(sites, k, n_qubits)
            out.append(dec)
            for t in dec.induced_terms:
                sub = t.string.support()
                table[sub] = table.get(sub, 0.0) - t.coefficient
    identity = table.pop((), 0.0)
    if identity != 0.0:
        out.append(Decomposition(log_norm=-identity, hidden_units=(), induced_terms=()))
    assert not table, f"cascade left unprocessed couplings: {table}"
    return out
