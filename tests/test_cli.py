import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import itebm
from itebm import cli, evolution, pauli, simulator
from itebm.cli import ISING_TEXT, ising_hamiltonian, main
from itebm.decomp import _k_equal_weights, decompose_sites
from itebm.evolution import _derive_seed, _measurement_groups
from itebm.pauli import parse_hamiltonian
from itebm.simulator import StateVector, expectation, imaginary_time_oracle

import oracles

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def tfim_file(tmp_path):
    path = tmp_path / "tfim.txt"
    path.write_text(ISING_TEXT)
    return str(path)


def _rows(csv_text):
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# --- helpers --------------------------------------------------------------


def test_measurement_groups_split_by_letter():
    groups = _measurement_groups(ising_hamiltonian())
    assert len(groups) == 2
    bases = {basis for basis, _ in groups}
    assert bases == {"ZZZ", "XXX"}
    all_members = sorted(i for _, members in groups for i in members)
    assert all_members == list(range(6))


def test_measurement_groups_fill_unused_with_z():
    h = parse_hamiltonian("1 XI\n")
    groups = _measurement_groups(h)
    assert groups == [("XZ", [0])]


def test_measurement_groups_first_fit_skips_a_conflicting_group():
    """ZZ conflicts with XZ on site 0 and opens group 1; ZI conflicts with
    group 0 too, and joins group 1."""
    h = parse_hamiltonian("1 XZ\n1 ZZ\n1 ZI\n")
    assert _measurement_groups(h) == [("XZ", [0]), ("ZZ", [1, 2])]


def _modules_after_import(module: str, then: str = "") -> set[str]:
    """Names in sys.modules after importing module in a fresh interpreter
    and running the statement `then`."""
    src = os.path.dirname(os.path.dirname(itebm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, {module}\n{then}\nprint(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return set(out.stdout.split())


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    """The runtime is numpy-only: a fresh import of the CLI, an order-5
    decompose, whose weight solver is the general one, and an exact evolve,
    oracle check included, load no scipy at all."""
    assert "scipy.optimize" not in _modules_after_import("itebm.cli")
    argv = ["decompose", "ZZZZZ", "0.3", "--verify"]
    loaded = _modules_after_import(
        "itebm.cli", f"itebm.cli.main({argv!r}, standalone_mode=False)")
    assert "itebm.decomp" in loaded
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}
    ham = tmp_path / "tfim.txt"
    ham.write_text(ISING_TEXT)
    argv = ["evolve", "--hamiltonian", str(ham), "--mode", "exact", "--tau", "0.1,0.2",
            "--dtau", "0.05", "--out", str(tmp_path / "run.csv")]
    loaded = _modules_after_import(
        "itebm.cli", f"itebm.cli.main({argv!r}, standalone_mode=False)")
    assert "itebm.evolution" in loaded and (tmp_path / "run.csv").exists()
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}


def test_ldbm_import_loads_no_scipy():
    """The network engine, marginalization included, is numpy-only."""
    loaded = _modules_after_import("itebm.ldbm")
    assert "itebm.ldbm" in loaded
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}


def test_derive_seed_streams_differ():
    seeds = {_derive_seed(7, s) for s in range(32)}
    assert len(seeds) == 32
    assert all(0 <= s < 1 << 64 for s in seeds)
    assert _derive_seed(7, 3) == _derive_seed(7, 3)


# --- decompose ------------------------------------------------------------


def test_decompose_two_body(runner):
    result = runner.invoke(main, ["decompose", "ZZ", "0.5", "--verify"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert len(payload["hidden_units"]) == 1
    unit = payload["hidden_units"][0]
    assert unit["bias"] == 0.0
    w = 0.5 * math.acos(math.exp(-1.0))
    assert unit["weights"][0][1] == pytest.approx(w)
    assert payload["mean_success_product"] == pytest.approx(
        0.5 * (1 + math.exp(-2.0))
    )
    assert "max entrywise log error" in result.stderr
    err = float(result.stderr.rsplit(" ", 1)[1])
    assert err < 1e-12


def test_decompose_scores_each_unit_once(runner, monkeypatch):
    """The product of the units' mean success is taken from the per-unit
    list, not from a second pass; the JSON keeps its bytes."""
    calls, score = [], cli.mean_unit_success
    monkeypatch.setattr(cli, "mean_unit_success", lambda unit: calls.append(unit) or score(unit))
    result = runner.invoke(main, ["decompose", "ZZZZ", "0.3"])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "ac3496abf2711f96cc49b4c036d1a7fdf8ceb5656051bf82d3874685a758b4f3")


def _verify_error(runner, word, k):
    """The --verify log error of `decompose WORD K`, with any RuntimeWarning
    raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = runner.invoke(main, ["decompose", word, k, "--verify"])
    assert result.exit_code == 0, result.output
    json.loads(result.stdout)
    head, value = result.stderr.rsplit(" ", 1)
    assert head == "verify: max entrywise log error"
    return float(value)


@pytest.mark.parametrize("word, k", [("Z", "800"), ("ZZ", "1e308"), ("ZZZ", "1e308")])
def test_decompose_verify_does_not_overflow_at_large_k(runner, word, k):
    """The check compares logarithms, so a factor of exp(|K|) beyond the
    float range neither stops it (exit 3, "math range error") nor warns.
    Here the unit's angle rounds to pi/2, so the realized factor is far from
    its target; the gap of ~2e308 for ZZ 1e308 reads inf."""
    err = _verify_error(runner, word, k)
    assert err > 1e3
    assert math.isinf(err) == (word == "ZZ")


def test_decompose_verify_reports_a_log_gap(runner):
    """At K = 400, W = acos(e^-800)/2 rounds to pi/4, so the aligned
    configuration realizes e^(400 - ln 2) * 2 cos(pi/2) where the target is
    e^-400: a log gap of 800 + ln cos(pi/2), about 763 (printed to four
    digits), which used to read as an absolute error of 9.9e158."""
    assert _verify_error(runner, "ZZ", "400") == pytest.approx(
        800 + math.log(math.cos(math.pi / 2)), abs=0.05)


def test_decompose_three_body_lists_induced(runner):
    result = runner.invoke(main, ["decompose", "ZZZ", "1.0"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert len(payload["induced"]) == 6
    orders = sorted(ind["word"].count("Z") for ind in payload["induced"])
    assert orders == [1, 1, 1, 2, 2, 2]


def test_decompose_induced_words_span_the_word(runner):
    """Each induced coupling prints as a word as wide as WORD, Z on the
    coupling's sites, with the coefficient of the library's table."""
    result = runner.invoke(main, ["decompose", "XIYIZ", "0.3"])
    assert result.exit_code == 0
    want = decompose_sites((0, 2, 4), 0.3, 5).induced
    induced = json.loads(result.stdout)["induced"]
    assert len(induced) == len(want) > 0
    for ind in induced:
        word = ind["word"]
        sites = tuple(q for q, ch in enumerate(word) if ch == "Z")
        assert len(word) == 5 and set(word) <= {"I", "Z"} and set(sites) <= {0, 2, 4}
        assert ind["coeff"] == want[sites]


def test_decompose_ignores_letters_outside_support(runner):
    """Only the support pattern matters for the diagonal decomposition."""
    a = runner.invoke(main, ["decompose", "ZIZ", "0.4"])
    b = runner.invoke(main, ["decompose", "XIY", "0.4"])
    assert a.exit_code == b.exit_code == 0
    pa, pb = json.loads(a.stdout), json.loads(b.stdout)
    assert pa["hidden_units"] == pb["hidden_units"]


def test_decompose_usage_errors(runner):
    assert runner.invoke(main, ["decompose", "II", "1.0"]).exit_code == 2
    assert runner.invoke(main, ["decompose", "ZQ", "1.0"]).exit_code == 2
    result = runner.invoke(main, ["decompose", "Z" * 15, "1.0"])
    assert result.exit_code == 2 and "Walsh site limit 14" in result.stderr


def test_decompose_out_of_range_coupling_is_runtime_error(runner):
    # order-6 couplings saturate; far beyond the representable range
    result = runner.invoke(main, ["decompose", "ZZZZZZ", "5.0"])
    assert result.exit_code == 3
    assert "error:" in result.stderr


@pytest.mark.parametrize("k", ["inf", "-inf", "nan"])
def test_decompose_non_finite_coupling_is_usage_error(runner, k):
    """An infinite K used to print "log_norm": Infinity, which is not JSON,
    and a NaN K ended in a runtime error (exit 3)."""
    result = runner.invoke(main, ["decompose", "ZZ", k])
    assert result.exit_code == 2
    assert f"K must be finite, got {float(k)}" in result.stderr
    assert result.stdout == ""


def test_decompose_reads_a_negative_coupling_as_k(runner):
    want = runner.invoke(main, ["decompose", "ZZ", "--", "-0.5"])
    assert want.exit_code == 0
    for args in (["ZZ", "-0.5"], ["ZZ", "-0.5", "--verify"], ["ZZ", "--verify", "-0.5"]):
        result = runner.invoke(main, ["decompose", *args])
        assert result.exit_code == 0, (args, result.stderr)
        assert result.stdout == want.stdout
    assert json.loads(want.stdout)["log_norm"] == decompose_sites((0, 1), -0.5, 2).log_norm


def test_decompose_verify_round_trips_a_tiny_high_order_coupling(runner):
    """An order-7 K of 1e-30, where K(W) evaluates mostly to rounding noise,
    so the solver's W lies far from the exact root: the unit still passes
    the round trip and reconstructs the factor to 1e-10 in log space."""
    assert _verify_error(runner, "ZZZZZZZ", "1e-30") <= 1e-10


@pytest.mark.parametrize("word, k", [("ZZZZZ", "0.3"), ("ZZZZZZ", "-0.2")])
def test_decompose_verify_high_order_is_within_its_bound(runner, word, k):
    """Orders 5 and 6 take the general solver; their units reconstruct
    the factor to 1e-10 in log space (3.8e-13 and 9.9e-13 today)."""
    assert _verify_error(runner, word, k) <= 1e-10


def test_decompose_coupling_at_the_edge_of_the_range_is_runtime_error(runner):
    """K = K(w_hi) at order 5 passes the range check, but its unit misses
    the round trip: one error line naming the order, and exit 3."""
    k = repr(_k_equal_weights(6, math.pi / 12 - 1e-9))
    result = runner.invoke(main, ["decompose", "ZZZZZ", k])
    assert result.exit_code == 3
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "order 5" in lines[0]
    assert result.stdout == ""


def test_decompose_misspelt_option_is_usage_error(runner):
    result = runner.invoke(main, ["decompose", "ZZ", "0.5", "--verfy"])
    assert result.exit_code == 2
    assert "--verfy" in result.stderr and result.stdout == ""


# --- evolve ---------------------------------------------------------------


def test_evolve_exact_tracks_dense_oracle(runner, tfim_file, tmp_path):
    out = tmp_path / "run.csv"
    result = runner.invoke(main, [
        "evolve", "--hamiltonian", tfim_file, "--tau", "0.1,0.5",
        "--dtau", "0.05", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    rows = _rows(out.read_text())
    assert len(rows) == 2
    assert [r["tau"] for r in rows] == ["0.1", "0.5"]
    # exact mode: no statistical errors, acceptance is the exact probability
    for r in rows:
        assert r["E_err"] == "0" and r["ZZ_err"] == "0" and r["X_err"] == "0"
        assert r["effective_samples"] == "0"
        assert 0.0 < float(r["acceptance"]) <= 1.0
        assert float(r["acceptance_model"]) <= float(r["acceptance"]) * 1.001
    assert float(rows[1]["E_mean"]) < float(rows[0]["E_mean"])
    # the dense-oracle cross-check is reported per checkpoint on stderr
    notes = [l for l in result.stderr.splitlines() if "dense oracle" in l]
    assert len(notes) == 2
    for note in notes:
        assert float(note.rsplit(" ", 1)[1]) < 2e-3


def test_evolve_exact_oracle_notes_match_the_dense_reference(runner, tmp_path):
    """The chained Lanczos oracle's notes are byte for byte those of a dense
    eigendecomposition at every checkpoint."""
    path = tmp_path / "chain.txt"
    path.write_text("".join(f"{c!r} {w}\n" for c, w in oracles.chain_terms(8)))
    taus = [0.25 * i for i in range(1, 9)]
    result = runner.invoke(main, [
        "evolve", "--hamiltonian", str(path), "--mode", "exact",
        "--tau", ",".join(f"{t:g}" for t in taus), "--dtau", "0.125",
        "--out", str(tmp_path / "run.csv"),
    ])
    assert result.exit_code == 0, result.output
    h = parse_hamiltonian(path.read_text())
    notes = [note for _, note in oracles.checkpoint_rerun_reference(
        h, taus, 0.125, 2, "rbm", StateVector.uniform_plus(8),
        "exact", 0, 10, 0, oracle_check=True)]
    assert len(notes) == 8
    assert result.stderr == "".join(note + "\n" for note in notes)


_TFIM_NOTES = {
    0.0: "tau 0: E -3.000000000, dense oracle -3.000000000, |diff| 0\n",
    0.5: "tau 0.5: E -3.463023182, dense oracle -3.463614295, |diff| 0.000591\n",
    1.0: "tau 1: E -3.463959119, dense oracle -3.464101138, |diff| 0.000142\n",
}


@pytest.mark.parametrize("taus", [[0.0], [0.5, 0.5], [1.0, 0.5], [0.0, 1.0]])
def test_evolve_exact_oracle_notes_at_repeated_falling_and_zero_taus(runner, tfim_file,
                                                                      taus):
    """The notes are pinned: a repeated tau, a falling one that restarts the
    oracle from psi0, and tau 0, which yields psi0 itself."""
    result = runner.invoke(main, [
        "evolve", "--hamiltonian", tfim_file, "--mode", "exact",
        "--tau", ",".join(f"{t:g}" for t in taus), "--dtau", "0.1",
    ])
    assert result.exit_code == 0, result.output
    assert result.stderr == "".join(_TFIM_NOTES[t] for t in taus)


def test_evolve_exact_at_twelve_sites_builds_no_dense_matrix(runner, tmp_path, monkeypatch):
    """The oracle check runs up to 12 sites without the 2^n x 2^n matrix
    (256 MB at 12 sites)."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense_matrix called")

    monkeypatch.setattr(pauli, "dense_matrix", refuse)
    monkeypatch.setattr(cli, "dense_matrix", refuse)
    path = tmp_path / "chain.txt"
    path.write_text("".join(f"{c!r} {w}\n" for c, w in oracles.chain_terms(12)))
    result = runner.invoke(main, [
        "evolve", "--hamiltonian", str(path), "--mode", "exact",
        "--tau", "0.05", "--dtau", "0.01",
    ])
    assert result.exit_code == 0, result.output
    assert len(_rows(result.stdout)) == 1
    assert result.stderr.startswith("tau 0.05: E ") and "dense oracle" in result.stderr
    assert float(result.stderr.rsplit(" ", 1)[1]) < 1e-3


CHAIN_EXACT = ["--mode", "exact", "--tau", "0.25,0.5,0.75,1,1.25,1.5,1.75,2", "--dtau", "0.01"]
ISING_SHOTS = ["ising-demo", "--mode", "shots", "--shots", "8000", "--batches", "10"]


@pytest.mark.parametrize("argv, built", [(CHAIN_EXACT, 5), (ISING_SHOTS, 3)],
                         ids=["chain-exact", "ising-shots"])
def test_a_trajectory_builds_each_transition_once(runner, tmp_path, monkeypatch, argv, built):
    """Walks and reads share the trajectory's transitions, one per (frame,
    letters).  The benchmark's chain-exact command, on the chain's letters,
    builds 5: Z to X, then X to Z, Z to Y, Y to X and X to X in the steps;
    its 8 reads into Z reuse X to Z.  The ising-shots command builds 3: Z
    to X, X to Z and X to X; its 20 reads, into ZZZ and XXX at 10
    checkpoints, reuse the last two."""
    built_keys, transition = [], simulator._transition
    monkeypatch.setattr(simulator, "_transition",
                        lambda *key: built_keys.append(key) or transition(*key))
    if argv[0] != "ising-demo":
        path = tmp_path / "chain.txt"
        path.write_text("".join(f"{c!r} {w}\n" for c, w in oracles.chain_terms(8)))
        argv = ["evolve", "--hamiltonian", str(path), *argv]
    result = runner.invoke(main, [*argv, "--out", str(tmp_path / "run.csv")])
    assert result.exit_code == 0, result.output
    assert len(set(built_keys)) == len(built_keys) == built


def test_ising_demo_shots_groups_the_terms_once(runner, tmp_path, monkeypatch):
    """The run's check and its rows share one measurement-basis grouping."""
    built, grouping = [], evolution._measurement_groups
    monkeypatch.setattr(evolution, "_measurement_groups",
                        lambda h: built.append(h) or grouping(h))
    result = runner.invoke(main, [*ISING_SHOTS, "--out", str(tmp_path / "run.csv")])
    assert result.exit_code == 0, result.output
    assert len(built) == 1


def _count_flip_group_builds(monkeypatch) -> list:
    """Wrap `pauli.flip_groups`, the builder, wherever a module holds it."""
    built, build = [], pauli.flip_groups
    for module in (pauli, simulator):
        if hasattr(module, "flip_groups"):
            monkeypatch.setattr(module, "flip_groups", lambda h: built.append(h) or build(h))
    return built


def test_chain_exact_run_builds_the_flip_groups_once(runner, tmp_path, monkeypatch):
    """The benchmark's seed-0 chain-exact command, 8 checkpoints with their
    oracle notes, groups its Hamiltonian's terms once: the rows' energies,
    the oracle's Lanczos actions and the notes' energies share it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    argv = workloads.ChainExact().prepare(0, tmp_path)["argv"]
    assert argv[argv.index("--tau") + 1].count(",") == 7
    built = _count_flip_group_builds(monkeypatch)
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert result.stderr.count("dense oracle") == 8
    assert len(built) == 1


#: sha256 of the ISING_SHOTS CSV per seed, as the per-measurement replay
#: (`oracles.replay_reference`) wrote it; seed 0 is pinned with the benchmark's
#: digests.  Replaying the shots another way must keep these bytes.
ISING_SHOTS_SHA256 = {
    1: "448d6d0cc80539d0a11bdc54f774ff81596dd192a6672d39037ceef8a8219bc6",
    2: "37e0b636d095470be58c35602d83956f36c8e623ba37a0777293bd265ceec941",
    3: "83b681882789d13d24d4627b4df49c5336aa7ab625776e24260db31346fc4388",
}


@pytest.mark.parametrize("seed", sorted(ISING_SHOTS_SHA256))
def test_ising_demo_shots_csv_bytes_are_pinned(runner, tmp_path, seed):
    out = tmp_path / "ising.csv"
    result = runner.invoke(main, [*ISING_SHOTS, "--seed", str(seed), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ISING_SHOTS_SHA256[seed]


#: sha256 of the CSV (stdout) and the dense-oracle notes (stderr) of
#: `evolve --mode exact` on `oracles.chain_terms(8)` from |+>^8, per route.
#: The notes score the oracle's states with `expectation`, as the E column
#: scores the walk's; the ZZ and X columns keep their per-word sums.
CHAIN8_EXACT_SHA256 = {
    "rbm": ("40f8355438554288ccb14f60c2b0b702d9772f78384038076260656b84649ebe",
            "9f41bad0b1e100e73fe4e45211de649e1233d19e144dd5951c13723b13d1ca53"),
    "word": ("4fbcd399107033c7c98b8e92e746a8c6ebe469a6b5ec640dec5c18eef1786936",
             "9f41bad0b1e100e73fe4e45211de649e1233d19e144dd5951c13723b13d1ca53"),
}


@pytest.mark.parametrize("route", sorted(CHAIN8_EXACT_SHA256))
def test_evolve_exact_chain_csv_and_notes_are_pinned(runner, tmp_path, route):
    path = tmp_path / "chain.txt"
    path.write_text("".join(f"{c!r} {w}\n" for c, w in oracles.chain_terms(8)))
    result = runner.invoke(main, [
        "evolve", "--hamiltonian", str(path), "--mode", "exact", "--route", route,
        "--tau", "0.25,0.5,0.75,1,1.25,1.5,1.75,2", "--dtau", "0.01",
    ])
    assert result.exit_code == 0, result.output
    assert tuple(hashlib.sha256(text.encode()).hexdigest()
                 for text in (result.stdout, result.stderr)) == CHAIN8_EXACT_SHA256[route]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "symmetry-sector leak: a transition rounds amplitude into the odd "
    "sector, which then grows as e^(2 tau) (ROADMAP item 5)"))
def test_evolve_exact_keeps_the_symmetry_sector_of_its_state(runner, tmp_path):
    """ZZ + 0.5 XX commutes with ZZ, and |00> lies in the even sector,
    whose lowest level has E 0.5; the odd sector holds the ground state,
    E -1.5.  The exact walk must stay in the even sector: its E equals the
    oracle's to 1e-9 at tau 40."""
    ham = tmp_path / "zz_xx.txt"
    ham.write_text("1 ZZ\n0.5 XX\n")
    result = runner.invoke(main, [
        "evolve", "--hamiltonian", str(ham), "--mode", "exact", "--init", "00",
        "--tau", "10,20,40", "--dtau", "0.5",
    ])
    assert result.exit_code == 0, result.stderr
    rows = _rows(result.stdout)
    assert [r["tau"] for r in rows] == ["10", "20", "40"]
    h = parse_hamiltonian(ham.read_text())
    oracle = expectation(imaginary_time_oracle(h, 40.0, StateVector.from_bitstring("00")), h)
    assert abs(oracle - 0.5) <= 1e-9
    assert abs(float(rows[2]["E_mean"]) - oracle) <= 1e-9


def test_evolve_exact_oracle_follows_an_excited_eigenstate(runner, tmp_path):
    """|0> is the excited eigenstate of Z.  exp(-tau Z) is invertible, so
    the oracle keeps |0> at any tau, although a gauge shift by the lowest
    eigenvalue would underflow it to zero at tau 400."""
    ham = tmp_path / "z.txt"
    ham.write_text("1 Z\n")
    result = runner.invoke(main, [
        "evolve", "--hamiltonian", str(ham), "--init", "0", "--tau", "100,400",
        "--dtau", "1",
    ])
    assert result.exit_code == 0, result.stderr
    assert [r["tau"] for r in _rows(result.stdout)] == ["100", "400"]
    assert result.stderr == (
        "tau 100: E 1.000000000, dense oracle 1.000000000, |diff| 0\n"
        "tau 400: E 1.000000000, dense oracle 1.000000000, |diff| 0\n")


def test_evolve_reads_stdin(runner, tmp_path):
    out = tmp_path / "run.csv"
    result = runner.invoke(main, [
        "evolve", "--hamiltonian", "-", "--tau", "0.2", "--dtau", "0.1",
        "--out", str(out),
    ], input="1 ZZ\n")
    assert result.exit_code == 0, result.output
    assert len(_rows(out.read_text())) == 1


def test_evolve_shots_columns(runner, tfim_file, tmp_path):
    out = tmp_path / "run.csv"
    result = runner.invoke(main, [
        "evolve", "--hamiltonian", tfim_file, "--tau", "0.1", "--dtau", "0.1",
        "--mode", "shots", "--shots", "4000", "--batches", "4",
        "--seed", "5", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    (row,) = _rows(out.read_text())
    assert float(row["E_err"]) > 0
    assert int(row["effective_samples"]) > 0
    assert 0 < float(row["acceptance"]) <= 1.0
    # short evolution from |+++> keeps the energy near the initial -3
    assert float(row["E_mean"]) == pytest.approx(-3.1, abs=0.4)


def test_evolve_shots_deterministic(runner, tfim_file, tmp_path):
    args = [
        "evolve", "--hamiltonian", tfim_file, "--tau", "0.1", "--dtau", "0.1",
        "--mode", "shots", "--shots", "2000", "--batches", "2", "--seed", "9",
    ]
    a = runner.invoke(main, args + ["--out", str(tmp_path / "a.csv")])
    b = runner.invoke(main, args + ["--out", str(tmp_path / "b.csv")])
    assert a.exit_code == b.exit_code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    c = runner.invoke(main, [
        *args[:-2], "--seed", "10", "--out", str(tmp_path / "c.csv"),
    ])
    assert c.exit_code == 0
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()


def test_evolve_csv_to_stdout(runner, tfim_file):
    result = runner.invoke(main, [
        "evolve", "--hamiltonian", tfim_file, "--tau", "0.1", "--dtau", "0.1",
    ])
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0].startswith("tau,E_mean,")
    assert len(lines) == 2


def test_evolve_usage_errors(runner, tfim_file, tmp_path):
    bad = [
        ["evolve", "--hamiltonian", str(tmp_path / "missing.txt")],
        ["evolve", "--hamiltonian", tfim_file, "--tau", "0.15", "--dtau", "0.1"],
        ["evolve", "--hamiltonian", tfim_file, "--tau", "abc"],
        ["evolve", "--hamiltonian", tfim_file, "--dtau", "-1"],
        ["evolve", "--hamiltonian", tfim_file, "--init", "01"],
        ["evolve", "--hamiltonian", tfim_file, "--mode", "shots",
         "--shots", "999", "--batches", "100"],
        ["evolve", "--hamiltonian", tfim_file, "--batches", "1"],
        ["evolve", "--hamiltonian", tfim_file, "--route", "teleport"],
        ["evolve", "--hamiltonian", tfim_file, "--route", "cx"],
        ["evolve", "--hamiltonian", tfim_file, "--high-stats"],
        ["ising-demo", "--high-stats"],
    ]
    for args in bad:
        result = runner.invoke(main, args)
        assert result.exit_code == 2, (args, result.output, result.stderr)


def test_shot_split_error_comes_before_the_csv_header(runner, tfim_file, tmp_path):
    out = tmp_path / "run.csv"
    for command in (["evolve", "--hamiltonian", tfim_file], ["ising-demo"]):
        result = runner.invoke(main, [*command, "--mode", "shots", "--shots", "999",
                                      "--batches", "100", "--out", str(out)])
        assert result.exit_code == 2
        assert "must divide evenly into 2 basis group(s)" in result.stderr
        assert result.stdout == "" and not out.exists()


def test_evolve_compile_failure_exits_3_after_the_csv_header(runner, tmp_path):
    """A run that passes its check fails in its compile, after the header:
    a coupling of 1e6 on five sites is past the order-5 cascade's range."""
    ham = tmp_path / "z5.txt"
    ham.write_text("1e6 ZZZZZ\n")
    result = runner.invoke(main, ["evolve", "--hamiltonian", str(ham), "--mode", "exact",
                                  "--tau", "1", "--dtau", "1"])
    assert result.exit_code == 3, result.output
    assert result.stdout == cli.CSV_HEADER + "\n"
    assert result.stderr == (
        "error: coupling target 1000000.0 exceeds the double-precision representable "
        "range for order 5 (|K| <= 0.52907)\n")


@pytest.mark.parametrize("shots", ["-200", "0"])
def test_non_positive_shots_is_usage_error_before_the_csv_header(runner, tfim_file,
                                                                  tmp_path, shots):
    out = tmp_path / "run.csv"
    for command in (["evolve", "--hamiltonian", tfim_file], ["ising-demo"]):
        result = runner.invoke(main, [*command, "--mode", "shots", "--shots", shots,
                                      "--batches", "100", "--out", str(out)])
        assert result.exit_code == 2, (command, result.stderr)
        assert f"--shots must be >= 1, got {shots}" in result.stderr
        assert result.stdout == "" and not out.exists()



@pytest.mark.parametrize("command, message", [
    (["evolve", "--tau", "1", "--dtau", "inf"], "dtau must be finite, got inf"),
    (["evolve", "--tau", "1", "--dtau", "nan"], "dtau must be finite, got nan"),
    (["evolve", "--tau", "inf"], "tau must be finite, got inf"),
    (["evolve", "--tau", "0.5,nan"], "tau must be finite, got nan"),
    (["evolve", "--tau", "1e300", "--dtau", "1e-300"], "overflows the step count"),
    (["ising-demo", "--dtau", "inf"], "dtau must be finite, got inf"),
    (["evolve", "--tau", "0.5,-0.5", "--dtau", "0.5"], "tau must be >= 0, got -0.5"),
    (["evolve", "--tau", "-1", "--dtau", "-0.5"], "dtau must be positive, got -0.5"),
    (["ising-demo", "--dtau", "0"], "dtau must be positive, got 0.0"),
    (["evolve", "--tau", ","], "--tau is empty"),
], ids=["evolve-dtau-inf", "evolve-dtau-nan", "evolve-tau-inf", "evolve-tau-nan",
        "evolve-step-count-overflow", "ising-demo-dtau-inf", "evolve-tau-negative",
        "evolve-dtau-negative", "ising-demo-dtau-zero", "evolve-tau-empty"])
def test_non_finite_tau_or_dtau_is_usage_error_before_the_csv_header(runner, tfim_file,
                                                                     tmp_path, command, message):
    """An infinite dtau used to walk 0 steps and print the initial state's
    values at every tau; an infinite tau, or a tau / dtau that overflows,
    ended in an OverflowError (exit 3).  A negative tau or a non-positive
    dtau is reported by n_trotter_steps too."""
    out = tmp_path / "run.csv"
    if command[0] == "evolve":
        command = [*command, "--hamiltonian", tfim_file]
    result = runner.invoke(main, [*command, "--mode", "exact", "--out", str(out)])
    assert result.exit_code == 2, result.stderr
    assert message in result.stderr
    assert result.stdout == "" and not out.exists()

def test_evolve_invalid_hamiltonian_is_usage_error(runner, tmp_path):
    ham = tmp_path / "zq.txt"
    ham.write_text("1 ZQ\n")
    result = runner.invoke(main, ["evolve", "--hamiltonian", str(ham)])
    assert result.exit_code == 2
    assert "invalid hamiltonian: line 1: invalid Pauli letters ['Q'] in 'ZQ'" in result.stderr
    assert result.stdout == ""


def test_evolve_shots_without_an_x_term_reads_x_as_zero(runner, tmp_path):
    """A Hamiltonian of ZZ alone leaves the X column without terms: it
    reads 0 with error 0, and the ZZ column is E."""
    ham = tmp_path / "zz.txt"
    ham.write_text("1 ZZ\n")
    result = runner.invoke(main, ["evolve", "--hamiltonian", str(ham), "--mode", "shots",
                                  "--tau", "0.1", "--shots", "200", "--batches", "2"])
    assert result.exit_code == 0, result.stderr
    (row,) = _rows(result.stdout)
    assert row["X_mean"] == row["X_err"] == "0"
    assert (row["ZZ_mean"], row["ZZ_err"]) == (row["E_mean"], row["E_err"])
    assert float(row["E_err"]) > 0


def test_evolve_shots_without_a_complete_batch_is_runtime_error(runner, tmp_path):
    """The three words XYZ, YYX and ZXY need three measurement bases, and
    at tau 0.1 no batch of 600 shots has an accepted shot in all three:
    exit 3 after the header, with no row."""
    ham = tmp_path / "three.txt"
    ham.write_text("1 XYZ\n1 YYX\n1 ZXY\n")
    result = runner.invoke(main, [
        "evolve", "--hamiltonian", str(ham), "--mode", "shots", "--tau", "0.1,0.3",
        "--dtau", "0.05", "--shots", "6000", "--batches", "10", "--seed", "3",
    ])
    assert result.exit_code == 3
    assert result.stdout.splitlines() == [
        "tau,E_mean,E_err,ZZ_mean,ZZ_err,X_mean,X_err,acceptance,acceptance_model,"
        "effective_samples"]
    assert result.stderr == ("error: only 0 batch(es) have accepted shots in all required "
                             "bases at tau=0.1; increase --shots\n")


def test_evolve_from_zero_on_zz_keeps_its_eigenstate(runner, tmp_path):
    """|00> is the ZZ eigenstate of E 1: the exact walk reads E 1 at tau
    0.1, kept with acceptance e^-0.4."""
    ham = tmp_path / "zz.txt"
    ham.write_text("1 ZZ\n")
    result = runner.invoke(main, ["evolve", "--hamiltonian", str(ham), "--init", "zero",
                                  "--tau", "0.1"])
    assert result.exit_code == 0, result.stderr
    (row,) = _rows(result.stdout)
    assert float(row["E_mean"]) == 1.0 and row["E_err"] == "0"
    assert float(row["acceptance"]) == pytest.approx(math.exp(-0.4), rel=1e-11)


def test_evolve_zero_weight_trajectory_is_runtime_error(runner, tmp_path):
    ham = tmp_path / "z.txt"
    ham.write_text("1 Z\n")
    result = runner.invoke(main, [
        "evolve", "--hamiltonian", str(ham), "--tau", "200", "--dtau", "200",
        "--init", "0",
    ])
    assert result.exit_code == 3
    assert "zero-weight trajectory" in result.stderr


@pytest.mark.parametrize("scale", ["e7", "e0"])
def test_evolve_large_coefficients_expectation_is_real(runner, tmp_path, scale):
    """Six words of about 1e7 leave a roundoff imaginary part near 1e-10
    in <H>, relative 1e-18 of the coefficients; the same problem at
    scale 1 is no error, and neither is this one."""
    words = ("1.18 XYXY", "1.58 YYXX", "1.33 YYXY", "-1.45 YZYZ", "-1.23 YZZZ", "1.93 ZZZY")
    ham = tmp_path / "h.txt"
    ham.write_text("".join(w.replace(" ", scale + " ", 1) + "\n" for w in words))
    factor = 1e-7 if scale == "e7" else 1.0
    result = runner.invoke(main, [
        "evolve", "--hamiltonian", str(ham), "--mode", "exact", "--init", "0110",
        "--order", "1", "--tau", f"{0.02 * factor:g},{0.04 * factor:g}",
        "--dtau", f"{0.01 * factor:g}",
    ])
    assert result.exit_code == 0, result.stderr
    assert len(_rows(result.stdout)) == 2


def test_evolve_init_bitstring(runner, tmp_path):
    ham = tmp_path / "z.txt"
    ham.write_text("1 ZZ\n")
    out = tmp_path / "run.csv"
    result = runner.invoke(main, [
        "evolve", "--hamiltonian", str(ham), "--tau", "0.5", "--dtau", "0.5",
        "--init", "01", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    (row,) = _rows(out.read_text())
    # |01> is a ZZ = -1 eigenstate: evolution only rescales it
    assert float(row["E_mean"]) == pytest.approx(-1.0, abs=1e-9)
    assert float(row["ZZ_mean"]) == pytest.approx(-1.0, abs=1e-9)


# --- ising-demo -----------------------------------------------------------


def test_ising_demo_exact(runner, tmp_path):
    out = tmp_path / "demo.csv"
    result = runner.invoke(main, [
        "ising-demo", "--mode", "exact", "--dtau", "0.05", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    summary = json.loads(result.stdout)
    assert summary["ground_energy"] == pytest.approx(-2 * math.sqrt(3), abs=1e-9)
    rows = _rows(out.read_text())
    assert len(rows) == 10
    assert [r["tau"] for r in rows][:3] == ["0.1", "0.2", "0.3"]
    # energies decrease monotonically toward the ground energy
    energies = [float(r["E_mean"]) for r in rows]
    assert all(b < a for a, b in zip(energies, energies[1:]))
    oracle = {float(k): v for k, v in summary["oracle_energy"].items()}
    for r in rows:
        assert float(r["E_mean"]) == pytest.approx(oracle[float(r["tau"])], abs=2e-3)


def test_shots_notes_dropped_batches(runner, tmp_path):
    """Batches with no accepted shot in a basis group a column needs are
    dropped from that column, and each checkpoint says how many."""
    out = tmp_path / "demo.csv"
    result = runner.invoke(main, [
        "ising-demo", "--dtau", "0.1", "--shots", "2000", "--batches", "10",
        "--seed", "0", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    json.loads(result.stdout)  # the summary alone is on stdout
    rows = {r["tau"]: r for r in _rows(out.read_text())}
    notes = result.stderr.splitlines()
    assert len(notes) >= 2
    pattern = re.compile(
        r"tau ([0-9.]+): dropped (\d+) of 10 batches \(E\)"
        r"((?:, \d+ of 10 batches \((?:ZZ|X)\))*)$")
    taus = []
    for line in notes:
        m = pattern.match(line)
        assert m, line
        taus.append(m.group(1))
        e_dropped = int(m.group(2))
        others = [int(k) for k in re.findall(r"(\d+) of 10", m.group(3))]
        # E needs both basis groups, ZZ and X one each
        assert max(others, default=0) <= e_dropped <= sum(others)
        assert int(rows[m.group(1)]["effective_samples"]) > 0
    assert len(set(taus)) == len(taus)
    assert "0.1" not in taus


def test_ising_demo_rejects_incompatible_dtau(runner):
    result = runner.invoke(main, ["ising-demo", "--dtau", "0.15"])
    assert result.exit_code == 2


# --- ldbm scripts ---------------------------------------------------------


def _run_script(runner, tmp_path, text, qubits, extra=()):
    path = tmp_path / "script.txt"
    path.write_text(text)
    return runner.invoke(main, ["ldbm", str(path), "--qubits", str(qubits), *extra])


def _amplitudes(stdout, qubits):
    amps = {}
    for line in stdout.splitlines():
        if line.startswith("|"):
            label, value = line.split(">")
            amps[label[1:]] = complex(value.strip())
    assert len(amps) == 1 << qubits
    return amps


def test_ldbm_bell_state(runner, tmp_path):
    quarter = math.pi / 4
    script = (
        "# Bell pair via rz/rzz-composed controlled phase\n"
        "hx 0\n"
        "hx 1\n"
        f"rz 0 {-quarter}\n"
        f"rz 1 {-quarter}\n"
        f"rzz 0 1 {-quarter}\n"
        "hx 1\n"
    )
    result = _run_script(runner, tmp_path, script, qubits=2)
    assert result.exit_code == 0, result.output
    amps = _amplitudes(result.stdout, 2)
    assert abs(amps["00"]) == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert abs(amps["11"]) == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert abs(amps["01"]) < 1e-9 and abs(amps["10"]) < 1e-9
    norm = float(result.stdout.rsplit("norm:", 1)[1])
    assert norm == pytest.approx(1.0, rel=1e-10)


def test_ldbm_imaginary_op_tracks_norm(runner, tmp_path):
    result = _run_script(runner, tmp_path, "hx 0\nimag Z 0.5\n", qubits=1)
    assert result.exit_code == 0, result.output
    amps = _amplitudes(result.stdout, 1)
    # exp(-0.5 Z)|+> = (e^{-1/2}|0> + e^{1/2}|1>)/sqrt(2)
    assert abs(amps["1"]) > abs(amps["0"])
    assert abs(amps["1"]) / abs(amps["0"]) == pytest.approx(math.e, rel=1e-9)
    norm = float(result.stdout.rsplit("norm:", 1)[1])
    assert norm == pytest.approx(math.sqrt(math.cosh(1.0)), rel=1e-10)


def test_ldbm_full_tfim_trotter_step(runner, tmp_path):
    """One second-order step of the 3-qubit TFIM at dtau 0.1 adds 21 hidden
    units, past what a 2^M sum could hold; elimination prints the dense
    product of the step's factors on |+++>, raw norm included."""
    from itebm.circuits import trotter_groups

    import oracles

    h = parse_hamiltonian(ISING_TEXT)
    lines = [f"hx {q}" for q in range(3)]
    psi = np.full(8, 1 / math.sqrt(8), dtype=complex)
    for group, factor in trotter_groups(h, 2):
        for t in group:
            k = 0.1 * factor * t.coefficient
            lines.append(f"imag {t.string.word} {k!r}")
            psi = oracles.exp_factor(k, t.string.word) @ psi
    result = _run_script(runner, tmp_path, "\n".join(lines) + "\n", qubits=3)
    assert result.exit_code == 0, result.output
    assert "hidden units: 27" in result.stdout  # 6 for |+++>, 21 for the step
    amps = _amplitudes(result.stdout, 3)
    got = np.array([amps[format(i, "03b")] for i in range(8)])
    assert np.allclose(got, psi / np.linalg.norm(psi), atol=2e-10)
    norm = float(result.stdout.rsplit("norm:", 1)[1])
    assert norm == pytest.approx(np.linalg.norm(psi), rel=1e-10)


def test_ldbm_to_dbm_reports_layers(runner, tmp_path):
    result = _run_script(runner, tmp_path, "hx 0\nto-dbm\ndump\n", qubits=1)
    assert result.exit_code == 0, result.output
    assert "hidden units: 1  deep units: 1" in result.stdout
    dumped = json.loads(
        [l for l in result.stdout.splitlines() if l.startswith("{")][0]
    )
    assert dumped["M"] == 1 and dumped["M_deep"] == 1


def test_ldbm_dump_before_conversion(runner, tmp_path):
    result = _run_script(runner, tmp_path, "dump\n", qubits=2)
    assert result.exit_code == 0
    dumped = json.loads(result.stdout.splitlines()[0])
    assert dumped["N"] == 2 and dumped["M"] == 2  # |00> uses one unit per qubit


def test_ldbm_script_errors(runner, tmp_path):
    cases = [
        ("hx 0\nto-dbm\nhx 0\n", 1, "after to-dbm"),
        ("teleport 0\n", 1, "unknown op"),
        ("hx 4\n", 2, "out of range"),
        ("rz 0 spin\n", 1, "expected number"),
        ("imag ZZ 0.1\n", 1, "does not match"),
        ("hx x\n", 1, "expected qubit index, got 'x'"),
    ]
    for text, qubits, fragment in cases:
        result = _run_script(runner, tmp_path, text, qubits)
        assert result.exit_code == 2, (text, result.output)
        assert fragment in result.stderr
        assert "line " in result.stderr



@pytest.mark.parametrize("text, qubits, fragment", [
    ("rz 0 nan\n", 1, "line 1: non-finite angle nan"),
    ("hx 0\nrzz 0 1 inf\n", 2, "line 2: non-finite angle inf"),
    ("rzz 0 0 0.3\n", 2, "line 1: rzz requires two distinct qubits"),
    ("imag Z nan\n", 1, "line 1: non-finite coefficient nan"),
    ("hx 0\n", 0, "--qubits must be >= 1, got 0"),
], ids=["rz-nan", "rzz-inf", "rzz-one-qubit", "imag-nan", "qubits-zero"])
def test_ldbm_script_argument_errors_are_usage_errors(runner, tmp_path, text, qubits,
                                                      fragment):
    """A non-finite angle or a repeated rzz qubit is reported with its line
    number and exit 2, like a non-finite imag coefficient; a register of no
    qubits exits 2 as well."""
    result = _run_script(runner, tmp_path, text, qubits)
    assert result.exit_code == 2, (text, result.output)
    assert fragment in result.stderr


@pytest.mark.parametrize("text, message", [
    ("imag ZZ 400\n", "error: network norm overflows the float range (inf)"),
    ("imag ZZ 1e308\n", "error: network amplitudes overflow the float range"),
], ids=["norm-inf", "amplitudes-nan"])
def test_ldbm_overflow_is_a_runtime_error(runner, tmp_path, text, message):
    """Amplitudes past the float range used to print as a zero or nan state
    with exit 0; they exit 3 and print no amplitude."""
    result = _run_script(runner, tmp_path, text, qubits=2)
    assert result.exit_code == 3, result.output
    assert result.stderr == message + "\n"
    assert result.stdout == ""


def test_ldbm_absorption_failure_is_a_runtime_error(runner, tmp_path):
    """A well-formed imag line whose coupling the closed forms cannot hold
    is a runtime failure (exit 3), not a malformed line (exit 2)."""
    result = _run_script(runner, tmp_path, "hx 0\nimag ZZZZZ 3\n", qubits=5)
    assert result.exit_code == 3, result.output
    assert result.stderr == (
        "error: coupling target 3.0 exceeds the double-precision representable "
        "range for order 5 (|K| <= 0.52907)\n")
    assert result.stdout == ""


def test_ldbm_dump_prints_before_a_malformed_line(runner, tmp_path):
    """A dump prints when its line runs, so a later malformed line (exit 2)
    still leaves the earlier dump on stdout."""
    result = _run_script(runner, tmp_path, "dump\nteleport 0\n", qubits=1)
    assert result.exit_code == 2, result.output
    assert result.stdout == json.dumps(itebm.zero_state(1).to_json_dict()) + "\n"
    assert "line 2: unknown op 'teleport 0'" in result.stderr


def test_ldbm_huge_qubit_index_is_a_usage_error(runner, tmp_path):
    """An index past the float range is out of range like any other (exit
    2), not an overflow while checking it."""
    result = _run_script(runner, tmp_path, "hx 1" + "0" * 400 + "\n", qubits=1)
    assert result.exit_code == 2, result.output
    assert "line 1: " in result.stderr and "out of range" in result.stderr


def test_ldbm_overflowed_bias_is_a_runtime_error(runner, tmp_path):
    """Two finite rz angles whose sum passes the float range leave a bias
    that the network refuses: a runtime failure (exit 3) with the network's
    message, not a malformed line, and no RuntimeWarning on the way, so that
    the run reads the same when warnings are errors."""
    for action in ("always", "error"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            result = _run_script(runner, tmp_path, "rz 0 1e308\nrz 0 1e308\n", qubits=1)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert result.exit_code == 3, result.output
        assert result.stderr == "error: a must be finite\n"
        assert result.stdout == ""


@pytest.mark.parametrize("text, qubits, message", [
    ("rz 0 1e308\nrz 3 1e308\n", 1, "line 2: visible index 3 out of range for N=1"),
    ("rzz 1 1 1e308\n", 2, "line 1: rzz requires two distinct qubits, got 1 twice"),
    ("rz 0 1e308\nrz 0 1e308x\n", 1, "line 2: expected number, got '1e308x'"),
], ids=["site-range", "rzz-repeat", "token"])
def test_ldbm_bad_arguments_stay_usage_errors(runner, tmp_path, text, qubits, message):
    """A malformed token, an out-of-range site and a repeated rzz site are
    the line's fault (exit 2), beside angles that would overflow."""
    result = _run_script(runner, tmp_path, text, qubits)
    assert result.exit_code == 2, result.output
    assert result.stderr.endswith(f"Error: {message}\n")


def test_ldbm_reads_stdin(runner):
    result = runner.invoke(main, ["ldbm", "-", "--qubits", "1"], input="hx 0\n")
    assert result.exit_code == 0
    assert "hidden units: 2" in result.stdout


@pytest.mark.parametrize("command, message", [
    (["evolve", "--hamiltonian"], "cannot read hamiltonian file: "),
    (["ldbm"], "cannot read script: "),
], ids=["evolve", "ldbm"])
def test_non_utf8_input_file_is_usage_error(runner, tmp_path, command, message):
    """A file that is not UTF-8 is reported like one that cannot be opened
    (exit 2), where it used to end in a decoding error (exit 3)."""
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"1 Z\xff\n")
    result = runner.invoke(main, [*command, str(path)])
    assert result.exit_code == 2, result.stderr
    assert message in result.stderr and "utf-8" in result.stderr
