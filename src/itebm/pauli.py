"""Pauli-string algebra, Hamiltonian text format, and dense realizations.

Conventions used across the package: qubit 0 is the leftmost letter of a
Pauli word and the most significant bit of a state index, so basis state
``|b_0 b_1 ... b_{n-1}>`` has index ``sum(b_q * 2**(n-1-q))``.  The spin value
of qubit q is ``z = +1`` for bit 0 and ``z = -1`` for bit 1.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .ir import Gate

_LETTERS = frozenset("IXYZ")


@dataclass(frozen=True)
class PauliString:
    """An n-qubit tensor product of I/X/Y/Z, stored as its letter word."""

    word: str

    def __post_init__(self) -> None:
        if not self.word:
            raise ValueError("empty Pauli word")
        bad = set(self.word) - _LETTERS
        if bad:
            raise ValueError(f"invalid Pauli letters {sorted(bad)!r} in {self.word!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.word)

    def support(self) -> tuple[int, ...]:
        """Indices of the non-identity letters."""
        return tuple(q for q, ch in enumerate(self.word) if ch != "I")

    @property
    def order(self) -> int:
        return len(self.support())

    def __str__(self) -> str:
        return self.word


def word_from_sites(n_qubits: int, sites: dict[int, str]) -> PauliString:
    """Build a width-n word with the given letters at the given qubits."""
    letters = ["I"] * n_qubits
    for q, ch in sites.items():
        if not 0 <= q < n_qubits:
            raise ValueError(f"site {q} out of range for {n_qubits} qubits")
        letters[q] = ch
    return PauliString("".join(letters))


def merged_letters(words: list[str]) -> str | None:
    """The letter that each site carries in words (one or more, of one
    width), I where none does; None if two words put different letters on
    one site."""
    merged = list(words[0])
    for word in words[1:]:
        for q, ch in enumerate(word):
            if ch != "I":
                if merged[q] == "I":
                    merged[q] = ch
                elif merged[q] != ch:
                    return None
    return "".join(merged)


@dataclass(frozen=True)
class HamiltonianTerm:
    """One weighted Pauli word; realizes coefficient * P."""

    coefficient: float
    string: PauliString

    def __post_init__(self) -> None:
        if not isinstance(self.coefficient, numbers.Real):
            raise ValueError(f"non-real coefficient {self.coefficient!r}")
        if not np.isfinite(self.coefficient):
            raise ValueError(f"non-finite coefficient {self.coefficient!r}")


@dataclass(frozen=True)
class Hamiltonian:
    """A real-weighted sum of Pauli words on a fixed qubit count."""

    n_qubits: int
    terms: tuple[HamiltonianTerm, ...]

    def __post_init__(self) -> None:
        for t in self.terms:
            if t.string.n_qubits != self.n_qubits:
                raise ValueError(
                    f"term {t.string.word!r} has {t.string.n_qubits} qubits, "
                    f"expected {self.n_qubits}"
                )

    @cached_property
    def flip_groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The module's `flip_groups(self)`, built once and kept with H."""
        return flip_groups(self)


def parse_hamiltonian(text: str) -> Hamiltonian:
    """Parse '<coefficient> <word>' lines; '#' starts a comment.

    Coefficients must be real; words must share one length and use I/X/Y/Z.
    Errors carry 1-based line numbers.
    """
    terms: list[HamiltonianTerm] = []
    n_qubits: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<coefficient> <word>', got {raw!r}")
        coeff_text, word = parts
        try:
            coeff = float(coeff_text)
        except ValueError:
            raise ValueError(f"line {lineno}: malformed coefficient {coeff_text!r}") from None
        bad = set(word) - _LETTERS
        if bad:
            raise ValueError(
                f"line {lineno}: invalid Pauli letters {sorted(bad)!r} in {word!r}"
            )
        if n_qubits is None:
            n_qubits = len(word)
        elif len(word) != n_qubits:
            raise ValueError(
                f"line {lineno}: word {word!r} has length {len(word)}, expected {n_qubits}"
            )
        terms.append(HamiltonianTerm(coeff, PauliString(word)))
    if n_qubits is None:
        raise ValueError("empty Hamiltonian")
    return Hamiltonian(n_qubits, tuple(terms))


@lru_cache(maxsize=4096)
def word_action(word: str) -> tuple[np.ndarray, np.ndarray]:
    """Permutation/phase form of a Pauli word's action.

    Returns (perm, phase) with (P psi)[j] = phase[j] * psi[perm[j]].  X and Y
    flip their bit; Y contributes -i * (-1)^bit and Z contributes (-1)^bit.
    """
    n = len(word)
    dim = 1 << n
    idx = np.arange(dim)
    flip = 0
    phase_mask = 0
    n_y = 0
    for q, ch in enumerate(word):
        bit = 1 << (n - 1 - q)
        if ch in ("X", "Y"):
            flip |= bit
        if ch in ("Y", "Z"):
            phase_mask |= bit
        if ch == "Y":
            n_y += 1
    parity = np.zeros(dim, dtype=np.int64)
    for q in range(n):
        bit = 1 << (n - 1 - q)
        if phase_mask & bit:
            parity ^= (idx >> (n - 1 - q)) & 1
    phase = ((-1.0) ** parity) * (-1j) ** n_y
    perm = idx ^ flip
    perm.setflags(write=False)
    phase.setflags(write=False)
    return perm, phase


def apply_word(word: str, amps: np.ndarray) -> np.ndarray:
    """Apply a Pauli word to amplitudes laid out along the last axis."""
    perm, phase = word_action(word)
    return amps[..., perm] * phase


def flip_groups(h: Hamiltonian) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """H's terms summed per flip mask m (`word_action`'s perm[0]), as read-only
    pairs (perm_m, d_m) with (H v)[j] = sum_m d_m[j] v[perm_m[j]]: the
    diagonal m = 0 first, if any, then the masks in the order they first occur."""
    groups: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for t in h.terms:
        perm, phase = word_action(t.string.word)
        mask = int(perm[0])
        if mask in groups:
            groups[mask][1][:] += t.coefficient * phase
        else:
            groups[mask] = (perm, t.coefficient * phase)
    for _, d in groups.values():
        d.setflags(write=False)
    diagonal = [groups.pop(0)] if 0 in groups else []
    return tuple(diagonal + list(groups.values()))


def dense_matrix(h: Hamiltonian, limit: int = 12) -> np.ndarray:
    """Dense Hermitian matrix of a Hamiltonian (qubit 0 most significant):
    its flip groups (`h.flip_groups`) scattered to H[j, perm_m[j]] = d_m[j]."""
    if h.n_qubits > limit:
        raise ValueError(f"{h.n_qubits} qubits exceeds dense limit {limit}")
    dim = 1 << h.n_qubits
    m = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for perm, d in h.flip_groups:
        m[cols, perm] += d
    return m


def basis_rotation_layer(p: PauliString) -> tuple[list[Gate], list[Gate], PauliString]:
    """Single-qubit layer diagonalizing a word: P = U_pre . D . U_post.

    Returns (pre_gates, post_gates, diagonalized) where D has Z exactly on
    support(p).  U_pre is the left matrix factor (applied last in circuit
    time), U_post the right factor (applied first): X sites contribute an HX
    on both sides, Y sites contribute HY on the pre side and HY^dag on the
    post side, so that U_pre @ D @ U_post equals P and U_pre @ U_post = 1.
    """
    pre: list[Gate] = []
    post: list[Gate] = []
    letters = list(p.word)
    for q, ch in enumerate(p.word):
        if ch == "X":
            pre.append(Gate("hx", (q,)))
            post.append(Gate("hx", (q,)))
            letters[q] = "Z"
        elif ch == "Y":
            pre.append(Gate("hy", (q,)))
            post.append(Gate("hydag", (q,)))
            letters[q] = "Z"
    return pre, post, PauliString("".join(letters))
