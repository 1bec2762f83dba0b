import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itebm.pauli import (
    Hamiltonian,
    HamiltonianTerm,
    PauliString,
    apply_word,
    basis_rotation_layer,
    dense_matrix,
    flip_groups,
    merged_letters,
    parse_hamiltonian,
    word_action,
    word_from_sites,
)

from itebm import simulator
from itebm.simulator import expectation

import oracles

words = st.text(alphabet="IXYZ", min_size=1, max_size=6)


@given(st.integers(1, 10).flatmap(
    lambda n: st.lists(st.text(alphabet="IXYZ", min_size=n, max_size=n),
                       min_size=1, max_size=5)))
@settings(max_examples=300, deadline=None)
def test_merged_letters_matches_the_set_per_site_reference(word_list):
    assert merged_letters(word_list) == oracles.merged_letters_reference(word_list)


def test_pauli_string_basics():
    p = PauliString("IXYZ")
    assert p.n_qubits == 4
    assert p.support() == (1, 2, 3)
    assert p.order == 3
    assert str(p) == "IXYZ"


def test_pauli_string_rejects_bad_letters():
    with pytest.raises(ValueError):
        PauliString("IXQ")
    with pytest.raises(ValueError):
        PauliString("")


def test_word_from_sites():
    assert word_from_sites(4, {0: "Z", 2: "X"}).word == "ZIXI"
    assert word_from_sites(2, {}).word == "II"
    with pytest.raises(ValueError):
        word_from_sites(2, {3: "Z"})


@given(words)
@settings(max_examples=80, deadline=None)
def test_word_action_matches_dense(word):
    perm, phase = word_action(word)
    n = len(word)
    dense = oracles.word_matrix(word)
    rebuilt = np.zeros((2**n, 2**n), dtype=complex)
    rebuilt[np.arange(2**n), perm] = phase
    assert np.allclose(rebuilt, dense, atol=1e-14)


@given(words)
@settings(max_examples=50, deadline=None)
def test_apply_word_matches_matrix(word):
    rng = np.random.default_rng(3)
    psi = oracles.random_state(len(word), rng)
    assert np.allclose(apply_word(word, psi), oracles.word_matrix(word) @ psi,
                       atol=1e-13)


def test_apply_word_batched():
    rng = np.random.default_rng(5)
    batch = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    out = apply_word("XYZ", batch)
    for row_in, row_out in zip(batch, out):
        assert np.allclose(row_out, oracles.word_matrix("XYZ") @ row_in)


def test_dense_matrix_matches_oracle():
    h = parse_hamiltonian("0.5 ZZI\n-1.25 IXY\n2 YIZ\n")
    assert np.allclose(
        dense_matrix(h),
        oracles.ham_matrix([(0.5, "ZZI"), (-1.25, "IXY"), (2.0, "YIZ")], 3),
        atol=1e-13,
    )


@pytest.mark.parametrize("seed", range(8))
def test_flip_groups_act_as_the_dense_matrix(seed):
    """Three words per flip mask, the diagonal mask among them, with X or Y
    on each flipped site and I or Z elsewhere, so that every group sums
    phases of both signs and of both real and imaginary kinds.  The grouped
    action is dense_matrix(h) @ v and the Kronecker reference's product to
    1e-12, and `expectation` the dense <psi|H|psi>."""
    rng = np.random.default_rng(seed)
    n = 5
    masks = [np.zeros(n, dtype=bool)] + [rng.random(n) < 0.5 for _ in range(3)]
    words = ["".join(rng.choice(list("XY" if flip else "IZ")) for flip in mask)
             for mask in masks for _ in range(3)]
    terms = [(float(rng.uniform(-1.0, 1.0)), w) for w in words]
    h = parse_hamiltonian("".join(f"{c!r} {w}\n" for c, w in terms))
    groups = flip_groups(h)
    assert len(groups) == len({m.tobytes() for m in masks})
    assert np.array_equal(groups[0][0], np.arange(1 << n))  # the diagonal group first
    reference = oracles.ham_matrix(terms, n)
    psi = oracles.random_state(n, rng)
    got = simulator._hamiltonian_action(h)(psi)
    assert np.max(np.abs(got - dense_matrix(h) @ psi)) <= 1e-12
    assert np.max(np.abs(got - reference @ psi)) <= 1e-12
    want = np.vdot(psi, reference @ psi).real
    assert abs(expectation(simulator.StateVector(n, psi), h) - want) <= 1e-12


def test_flip_groups_are_built_once_and_kept_read_only():
    """A Hamiltonian keeps its flip groups, as `flip_groups` builds them,
    in arrays that no caller can write."""
    h = parse_hamiltonian("1 ZZI\n1 IZZ\n-1 XII\n0.5 YYI\n")
    groups = h.flip_groups
    assert h.flip_groups is groups
    assert [(len(a), len(b)) for a, b in groups] == [(8, 8)] * 3
    for built, kept in zip(flip_groups(h), groups):
        assert all(np.array_equal(x, y) for x, y in zip(built, kept))
    assert not any(a.flags.writeable for group in groups for a in group)
    with pytest.raises(ValueError, match="read-only"):
        groups[0][1][0] = 0.0


def test_dense_matrix_limit():
    h = Hamiltonian(13, (HamiltonianTerm(1.0, PauliString("Z" * 13)),))
    with pytest.raises(ValueError, match="limit"):
        dense_matrix(h)


def test_hamiltonian_rejects_a_term_of_another_width():
    with pytest.raises(ValueError, match="term 'ZZZ' has 3 qubits, expected 2"):
        Hamiltonian(2, (HamiltonianTerm(1.0, PauliString("ZZZ")),))


def test_term_coefficient_must_be_real_and_finite():
    for ok in (1, -0.5, np.float64(2.0), np.int64(3)):
        assert HamiltonianTerm(ok, PauliString("Z")).coefficient == ok
    for bad in (1j, complex(1.0, 0.0), np.complex128(0.5)):
        with pytest.raises(ValueError, match="non-real"):
            HamiltonianTerm(bad, PauliString("Z"))
    with pytest.raises(ValueError, match="non-finite"):
        HamiltonianTerm(float("nan"), PauliString("Z"))


def test_parse_round_trip():
    text = "1 ZZI\n-0.5 IXY\n"
    h = parse_hamiltonian(text)
    assert h.n_qubits == 3
    assert [t.coefficient for t in h.terms] == [1.0, -0.5]
    assert parse_hamiltonian("1.0 ZZI\n-0.5 IXY  # same terms\n").terms == h.terms


def test_parse_comments_and_blanks():
    h = parse_hamiltonian("# heading\n\n1.5 XX  # inline\n")
    assert len(h.terms) == 1
    assert h.terms[0].coefficient == 1.5


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("abc ZZ\n", "line 1"),
    ("1 ZQ\n", "line 1"),
    ("1 ZZ\n1 ZZZ\n", "line 2"),
    ("1\n", "line 1"),
    ("1 ZZ\ninf XX\n", "line 2: non-finite coefficient"),
    ("1 ZZ\n-inf XX\n", "line 2: non-finite coefficient"),
    ("1 ZZ\nnan XX\n", "line 2: non-finite coefficient"),
    ("1 ZZ\n1e999 XX\n", "line 2: non-finite coefficient"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_hamiltonian(text)


@given(st.sampled_from(["1", "-0.5", "inf", "nan", "1e999", "abc"]),
       st.text(alphabet="IXYZQ", min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_parse_one_line_is_checked_by_the_term_types(coeff_text, word):
    """A one-line text parses to the one-term Hamiltonian that
    `HamiltonianTerm` and `PauliString` accept, or fails with `line 1: `
    and their message, or the parser's own for a malformed coefficient."""
    try:
        coeff = float(coeff_text)
    except ValueError:
        message = f"malformed coefficient {coeff_text!r}"
    else:
        try:
            want = Hamiltonian(len(word), (HamiltonianTerm(coeff, PauliString(word)),))
        except ValueError as exc:
            message = str(exc)
        else:
            assert parse_hamiltonian(f"{coeff_text} {word}\n") == want
            return
    with pytest.raises(ValueError, match=f"^{re.escape(f'line 1: {message}')}$"):
        parse_hamiltonian(f"{coeff_text} {word}\n")


@pytest.mark.parametrize("word", ["Z", "X", "Y", "XY", "ZXI", "YYZ", "IXYZ"])
def test_basis_rotation_layer(word):
    """pre * diag * post reconstructs the word as a matrix product."""
    p = PauliString(word)
    pre, post, diag = basis_rotation_layer(p)
    assert set(diag.word) <= {"I", "Z"}
    assert diag.support() == p.support()
    n = p.n_qubits
    gate_mats = {"hx": oracles.HX, "hy": oracles.HY, "hydag": oracles.HY_DAG}
    left = np.eye(2**n, dtype=complex)
    for g in pre:
        left = left @ oracles.embed_1q(gate_mats[g.kind], g.qubits[0], n)
    right = np.eye(2**n, dtype=complex)
    for g in post:
        right = right @ oracles.embed_1q(gate_mats[g.kind], g.qubits[0], n)
    assert np.allclose(left @ oracles.word_matrix(diag.word) @ right,
                       oracles.word_matrix(word), atol=1e-13)


def test_basis_rotation_layer_identity_free():
    pre, post, diag = basis_rotation_layer(PauliString("ZIZ"))
    assert pre == [] and post == []
    assert diag.word == "ZIZ"
