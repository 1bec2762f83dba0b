"""Exact block encoding of imaginary-time evolution.

Compile exp(-tau H) for few-qubit Pauli Hamiltonians into post-selected
circuits built from single-ancilla Boltzmann-machine identities, simulate
them exactly or by sampling, and mirror the same algebra in closed-form
network updates.
"""
from __future__ import annotations

from .circuits import (
    build_qite_circuit,
    n_trotter_steps,
    trotter_groups,
    trotter_step,
)
from .decomp import (
    Decomposition,
    HiddenUnit,
    cascade_diagonal,
    decompose_four_body,
    decompose_one_body,
    decompose_sites,
    decompose_three_body,
    decompose_two_body,
    induced_couplings,
    mean_success_three_body,
    mean_success_two_body,
    mean_unit_success,
    solve_general_weight,
)
from .ir import Circuit, Fragment, Gate
from .ldbm import (
    DbmNetwork,
    LdbmNetwork,
    apply_diagonal_imaginary,
    apply_hx,
    apply_hy,
    apply_hy_dag,
    apply_rz,
    apply_rzz,
    apply_term_imaginary,
    ldbm_to_dbm,
    plus_state,
    raw_amplitudes,
    statevector,
    statevector_norm,
    zero_state,
)
from .pauli import (
    Hamiltonian,
    HamiltonianTerm,
    PauliString,
    apply_word,
    basis_rotation_layer,
    dense_matrix,
    parse_hamiltonian,
    word_from_sites,
)
from .simulator import (
    ExactRunResult,
    ShotRun,
    SimulationError,
    StateVector,
    expectation,
    imaginary_time_oracle,
    run_exact,
    run_shots,
)
from .stats import Estimate, bootstrap, jackknife

__version__ = "0.1.0"

__all__ = [
    "Circuit", "DbmNetwork", "Decomposition", "Estimate",
    "ExactRunResult", "Fragment", "Gate", "Hamiltonian", "HamiltonianTerm",
    "HiddenUnit", "LdbmNetwork", "PauliString", "ShotRun", "SimulationError",
    "StateVector", "apply_diagonal_imaginary", "apply_hx", "apply_hy",
    "apply_hy_dag", "apply_rz", "apply_rzz", "apply_term_imaginary",
    "apply_word", "basis_rotation_layer", "bootstrap", "build_qite_circuit",
    "cascade_diagonal", "decompose_four_body", "decompose_one_body",
    "decompose_sites", "decompose_three_body", "decompose_two_body",
    "dense_matrix", "expectation", "imaginary_time_oracle",
    "induced_couplings", "jackknife", "ldbm_to_dbm", "mean_success_three_body",
    "mean_success_two_body", "mean_unit_success", "n_trotter_steps",
    "parse_hamiltonian", "plus_state", "raw_amplitudes", "run_exact",
    "run_shots", "solve_general_weight", "statevector", "statevector_norm",
    "trotter_groups", "trotter_step", "word_from_sites",
    "zero_state",
]
