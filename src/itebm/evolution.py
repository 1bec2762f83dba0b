"""Imaginary-time evolution through a list of tau checkpoints.

One Trotter step is compiled once, and a single post-selected trajectory is
walked forward through every checkpoint: the state at tau2 is the state at
tau1 with more steps applied.  The walk restarts from psi0 only when a
checkpoint asks for fewer steps than already walked.  Exact rows read the
walked state; shots rows replay each measurement-basis group's draws
against the walk's branch record, so runs are byte-identical per seed.
"""
from __future__ import annotations

import numpy as np

from .circuits import n_trotter_steps, trotter_step
from .pauli import Hamiltonian, apply_word, merged_letters
from .simulator import (
    StateVector,
    Trajectory,
    chained_oracle,
    expectation,
)
from .stats import jackknife

#: The keys of a row, in CSV column order.
COLUMNS = ("tau", "E_mean", "E_err", "ZZ_mean", "ZZ_err", "X_mean", "X_err",
           "acceptance", "acceptance_model", "effective_samples")


def _measurement_groups(h: Hamiltonian) -> list[tuple[str, list[int]]]:
    """Greedy first-fit grouping of terms into joint measurement bases: a
    term joins the first group whose letters agree with its own on every
    site (`merged_letters`), and a site that no member uses is read in Z."""
    groups: list[list] = []  # [letters, members] per group
    for idx, term in enumerate(h.terms):
        for group in groups:
            merged = merged_letters([group[0], term.string.word])
            if merged is not None:
                group[0] = merged
                group[1].append(idx)
                break
        else:
            groups.append([term.string.word, [idx]])
    return [(letters.replace("I", "Z"), members) for letters, members in groups]


def _derive_seed(seed: int, stream: int) -> int:
    return (seed ^ (0x9E3779B97F4A7C15 * (stream + 1))) & ((1 << 64) - 1)


def _bare_expectation(state: StateVector, word: str) -> float:
    vec = state.amps
    return float(np.vdot(vec, apply_word(word, vec)).real)


def _column_terms(h: Hamiltonian) -> tuple[list[int], list[int]]:
    """Term indices feeding the ZZ (diagonal words) and X (X-only words)
    CSV columns; other words contribute to the energy only."""
    diag = [i for i, t in enumerate(h.terms)
            if t.string.support() and set(t.string.word) <= {"I", "Z"}]
    xonly = [i for i, t in enumerate(h.terms)
             if t.string.support() and set(t.string.word) <= {"I", "X"}]
    return diag, xonly


#: Largest register on which `iter_evolution` runs its oracle check, the
#: `pauli.dense_matrix` limit, so a dense reference can confirm each note.
ORACLE_MAX_QUBITS = 12


def iter_evolution(h: Hamiltonian, taus: list[float], dtau: float, order: int, route: str,
                   psi0: StateVector, mode: str, shots: int, batches: int, seed: int,
                   oracle_check: bool = False):
    """Check the run, then return an iterator of one (row dict,
    note-or-None) per tau checkpoint.

    The check raises ValueError before any compile: each tau must be a
    whole number of dtau steps, batches >= 2 and, in shots mode, shots >= 1
    a multiple of basis groups x batches.  With oracle_check, on at most
    `ORACLE_MAX_QUBITS` sites, exact notes compare E with the oracle's.

    Shots mode samples each measurement-basis group at every checkpoint
    (the shot budget is split evenly, one seed stream per checkpoint and
    group), then splits each group's shots into `batches` contiguous
    batches for jackknife errors; a batch contributes to an observable only
    when every basis group it needs has at least one accepted shot there.
    The note of a shots checkpoint counts the batches each column dropped.
    """
    step_counts = [n_trotter_steps(tau, dtau) for tau in taus]
    if batches < 2:
        raise ValueError(f"--batches must be >= 2, got {batches}")
    if mode == "shots":
        if shots < 1:
            raise ValueError(f"--shots must be >= 1, got {shots}")
        groups = _measurement_groups(h)
        n_groups = len(groups)
        if shots % (n_groups * batches) != 0:
            raise ValueError(
                f"--shots {shots} must divide evenly into {n_groups} basis "
                f"group(s) x {batches} batches"
            )
        per_batch = shots // (n_groups * batches)
    oracle_check = oracle_check and mode == "exact" and h.n_qubits <= ORACLE_MAX_QUBITS

    def rows():
        diag_terms, x_terms = _column_terms(h)
        step = trotter_step(h, dtau, order, route=route).to_circuit(h.n_qubits)
        walked = None
        oracle = chained_oracle(h, taus, psi0) if oracle_check else None
        for t_idx, (tau, n_steps) in enumerate(zip(taus, step_counts)):
            if walked is None or n_steps < walked:
                traj, walked, model = Trajectory(step, psi0), 0, 1.0
            while walked < n_steps:
                traj.advance(step)
                model *= step.model_success
                walked += 1
            note = None
            if mode == "exact":
                state = traj.final_state()
                e_mean = expectation(state, h)
                zz = sum(_bare_expectation(state, h.terms[i].string.word) for i in diag_terms)
                xx = sum(_bare_expectation(state, h.terms[i].string.word) for i in x_terms)
                row = dict(zip(COLUMNS, (tau, e_mean, 0.0, zz, 0.0, xx, 0.0,
                                         traj.cumulative_success, model, 0)))
                if oracle_check:
                    e_oracle = expectation(next(oracle), h)
                    note = (
                        f"tau {tau:g}: E {e_mean:.9f}, dense oracle {e_oracle:.9f}, "
                        f"|diff| {abs(e_mean - e_oracle):.3g}"
                    )
                yield row, note
                continue

            counts = np.zeros((n_groups, batches), dtype=int)
            term_sums = {}
            for g_idx, (basis, members) in enumerate(groups):
                run = traj.sample(
                    shots // n_groups, _derive_seed(seed, n_groups * t_idx + g_idx), basis)
                batch_of = np.flatnonzero(run.accepted) // per_batch
                counts[g_idx] = np.bincount(batch_of, minlength=batches)
                for i in members:
                    term_sums[i] = np.bincount(
                        batch_of, weights=run.word_values(h.terms[i].string),
                        minlength=batches)

            group_of = {i: g for g, (_, members) in enumerate(groups) for i in members}
            dropped = []

            def column(name, indices, coeffs) -> tuple[float, float]:
                if not indices:
                    return 0.0, 0.0
                need = sorted({group_of[i] for i in indices})
                kept = np.all(counts[need] > 0, axis=0)
                if int(kept.sum()) < 2:
                    raise RuntimeError(
                        f"only {int(kept.sum())} batch(es) have accepted shots in "
                        f"all required bases at tau={tau:g}; increase --shots"
                    )
                if not kept.all():
                    dropped.append(
                        f"{batches - int(kept.sum())} of {batches} batches ({name})")
                vals = np.zeros(batches)
                for i, c in zip(indices, coeffs):
                    vals = vals + c * term_sums[i] / np.maximum(counts[group_of[i]], 1)
                est = jackknife(vals[kept])
                return est.mean, est.std_error

            all_idx = list(range(len(h.terms)))
            e_mean, e_err = column("E", all_idx, [h.terms[i].coefficient for i in all_idx])
            zz_mean, zz_err = column("ZZ", diag_terms, [1.0] * len(diag_terms))
            x_mean, x_err = column("X", x_terms, [1.0] * len(x_terms))
            if dropped:
                note = f"tau {tau:g}: dropped " + ", ".join(dropped)
            total_accepted = int(counts.sum())
            row = dict(zip(COLUMNS, (tau, e_mean, e_err, zz_mean, zz_err, x_mean, x_err,
                                     total_accepted / shots, model, total_accepted)))
            yield row, note

    return rows()
