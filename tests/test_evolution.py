"""The single-trajectory evolution loop against the per-checkpoint rerun.

`oracles.checkpoint_rerun_reference` compiles and runs the whole circuit
from psi0 at every checkpoint; `iter_evolution` walks one trajectory
forward and replays the shots against it.  Rows and notes must be equal,
not merely close, and so must the error that ends a run.
"""
import numpy as np
import pytest

from itebm import evolution, simulator
from itebm.cli import ISING_TEXT
from itebm.evolution import iter_evolution
from itebm.pauli import parse_hamiltonian
from itebm.simulator import StateVector

import oracles

ISING_TAUS = [round(0.1 * i, 10) for i in range(1, 11)]
WEAK_TFIM = "0.5 ZZI\n0.5 IZZ\n-0.4 XII\n-0.4 IXI\n-0.4 IIX\n"
Y_WORDS = ("0.5 YYII\n0.3 IXYZ\n-0.7 ZIIZ\n0.4 XIXI\n0.2 IIIY\n"
           "-0.6 IZZI\n0.8 XIII\n")


def _outcome(loop, args):
    """Every (row, note) a loop yields, then the error that ended it."""
    items = []
    try:
        for item in loop(*args):
            items.append(item)
    except Exception as exc:  # the run's failure is part of its output
        return items, (type(exc), str(exc))
    return items, None


def _assert_same(text, taus, dtau, mode, shots=0, batches=2, seed=0, order=2,
                 route="rbm", psi0=None, oracle_check=False):
    """iter_evolution against the rerun reference."""
    h = parse_hamiltonian(text)
    psi0 = psi0 or StateVector.uniform_plus(h.n_qubits)
    args = (h, taus, dtau, order, route, psi0, mode, shots, batches, seed, oracle_check)
    got = _outcome(iter_evolution, args)
    want = _outcome(oracles.checkpoint_rerun_reference, args)
    assert got == want
    return got


@pytest.mark.parametrize("seed", [0, 16])
def test_ising_demo_shots_equal_rerun(seed):
    rows, error = _assert_same(ISING_TEXT, ISING_TAUS, 0.01, "shots", 8000, 10, seed)
    assert error is None and len(rows) == 10
    assert any(note for _, note in rows)  # dropped batches are noted


def test_ising_demo_exact_equal_rerun():
    rows, error = _assert_same(ISING_TEXT, ISING_TAUS, 0.01, "exact", oracle_check=True)
    assert error is None and all("dense oracle" in note for _, note in rows)


@pytest.mark.parametrize("mode", ["exact", "shots"])
def test_unordered_repeated_and_zero_taus_equal_rerun(mode):
    rows, error = _assert_same(WEAK_TFIM, [1, 0.5, 0, 0.5, 2], 0.05, mode, 4000, 10, 3)
    assert error is None
    assert rows[0][0]["acceptance"] > rows[4][0]["acceptance"]
    assert rows[2][0]["acceptance"] == 1.0


@pytest.mark.parametrize("mode", ["exact", "shots"])
@pytest.mark.parametrize("route, order", [pytest.param("word", 2, id="cx-2"), ("rbm", 1)])
def test_routes_and_orders_equal_rerun(mode, route, order):
    """The word route at order 2 and the rbm route at order 1 give the
    rerun's rows, to the bit."""
    rows, error = _assert_same(ISING_TEXT, ISING_TAUS, 0.01, mode, 8000, 10, 0,
                               order=order, route=route)
    assert error is None and len(rows) == 10


@pytest.mark.parametrize("mode, route", [
    ("exact", "rbm"), pytest.param("shots", "word", id="shots-cx"),
])
def test_y_words_equal_rerun(mode, route):
    rows, error = _assert_same(Y_WORDS, [0.2, 0.4], 0.1, mode, 4800, 4, 0, route=route)
    assert error is None and len(rows) == 2


def test_zero_weight_trajectory_streams_earlier_rows_then_raises():
    rows, error = _assert_same("1 Z\n", [0, 200, 0], 200, "exact",
                               psi0=StateVector.from_bitstring("0"))
    assert len(rows) == 1
    assert error[0] is simulator.SimulationError
    assert "zero-weight trajectory" in error[1]


def test_shots_split_is_a_value_error():
    h = parse_hamiltonian(ISING_TEXT)
    with pytest.raises(ValueError, match="divide evenly"):
        next(iter_evolution(h, [0.1], 0.1, 2, "rbm",
                            StateVector.uniform_plus(3), "shots", 999, 100, 0))


def test_one_batch_is_a_value_error():
    """One batch gives the jackknife nothing to compare: a library caller
    gets the CLI's ValueError, not a shortage of accepted shots."""
    h = parse_hamiltonian(ISING_TEXT)
    with pytest.raises(ValueError, match=r"^--batches must be >= 2, got 1$"):
        next(iter_evolution(h, [0.1], 0.1, 2, "rbm",
                            StateVector.uniform_plus(3), "shots", 8000, 1, 0))


@pytest.mark.parametrize("mode, taus, walked", [
    ("exact", ISING_TAUS, 100),
    ("shots", ISING_TAUS, 100),
    ("exact", [0.5, 0.2, 0.2, 1.0], 50 + 20 + 80),
])
def test_one_step_compiled_and_walked_once(monkeypatch, mode, taus, walked):
    """Ascending checkpoints walk the largest checkpoint's step count; an
    earlier checkpoint restarts the walk from psi0."""
    calls = {"walk": 0, "compile": 0}
    walk, compile_step = simulator.Trajectory._walk, evolution.trotter_step

    def counting_walk(*args):
        calls["walk"] += 1
        return walk(*args)

    def counting_compile(*args, **kwargs):
        calls["compile"] += 1
        return compile_step(*args, **kwargs)

    monkeypatch.setattr(simulator.Trajectory, "_walk", counting_walk)
    monkeypatch.setattr(evolution, "trotter_step", counting_compile)
    h = parse_hamiltonian(ISING_TEXT)
    rows = list(iter_evolution(h, taus, 0.01, 2, "rbm",
                               StateVector.uniform_plus(3), mode, 8000, 10, 0))
    assert len(rows) == len(taus)
    assert calls == {"walk": walked, "compile": 1}
    assert np.isfinite([row["E_mean"] for row, _ in rows]).all()
