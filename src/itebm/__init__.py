"""Exact block encoding of imaginary-time evolution.

Compile exp(-tau H) for few-qubit Pauli Hamiltonians into post-selected
circuits built from single-ancilla Boltzmann-machine identities, simulate
them exactly or by sampling, and mirror the same algebra in closed-form
network updates.
"""
