"""Command-line interface: reproducible imaginary-time evolution runs.

The commands read their input, write the output and map errors to exit
codes; `itebm.evolution.iter_evolution` checks a run's options and runs it,
and its ValueError is a usage error, reported before the CSV header.

Commands
--------
decompose   print (and optionally verify) the hidden-unit decomposition of
            a single interaction exp(-K Z...Z)
evolve      compile and run imaginary-time evolution for a Hamiltonian file,
            emitting one CSV row per requested tau checkpoint
ising-demo  the built-in 3-qubit critical transverse-field Ising benchmark
ldbm        drive the network engine from a newline-delimited op script

Exit codes: 0 success, 2 configuration error, 3 runtime/simulation error.
"""
from __future__ import annotations

import functools
import json
import math
import sys

import click
import numpy as np

from . import ldbm as nets
from .decomp import MAX_WALSH_SITES, decompose_sites, max_log_error, mean_unit_success
from .evolution import COLUMNS, iter_evolution
from .pauli import (
    Hamiltonian,
    PauliString,
    dense_matrix,
    parse_hamiltonian,
)
from .simulator import StateVector, chained_oracle, expectation

CSV_HEADER = ",".join(COLUMNS)

ISING_TEXT = """\
1 ZZI
1 IZZ
1 ZIZ
-1 XII
-1 IXI
-1 IIX
"""


def ising_hamiltonian() -> Hamiltonian:
    """3-qubit critical transverse-field Ising chain, periodic boundaries."""
    return parse_hamiltonian(ISING_TEXT)


def _g(x: float) -> str:
    return f"{x:.12g}"


def _runtime(f):
    """Convert uncaught runtime failures into exit code 3 (config errors are
    click.UsageError and keep click's exit code 2)."""

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except (click.ClickException, click.exceptions.Abort, SystemExit):
            raise
        except Exception as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)

    return wrapper


def _usage(fn, *args, **kwargs):
    """Call fn, reporting a ValueError as a usage error (exit 2)."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of a file, or of stdin for "-"; a usage error naming
    `what` if it cannot be read."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise click.UsageError(f"cannot read {what}: {exc}")


def _load_hamiltonian(path: str) -> Hamiltonian:
    text = _read_text(path, "hamiltonian file")
    try:
        return parse_hamiltonian(text)
    except ValueError as exc:
        raise click.UsageError(f"invalid hamiltonian: {exc}")


def _parse_taus(spec: str) -> list[float]:
    try:
        taus = [float(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        raise click.UsageError(f"--tau must be a comma-separated list, got {spec!r}")
    if not taus:
        raise click.UsageError("--tau is empty")
    return taus


def _initial_state(spec: str, n_qubits: int) -> StateVector:
    if spec == "plus":
        return StateVector.uniform_plus(n_qubits)
    if spec == "zero":
        return StateVector.zeros(n_qubits)
    if len(spec) == n_qubits and set(spec) <= {"0", "1"}:
        return StateVector.from_bitstring(spec)
    raise click.UsageError(
        f"--init must be 'plus', 'zero', or a {n_qubits}-bit string, got {spec!r}"
    )


def _format_row(row: dict) -> str:
    """The row's CSV line; effective_samples, the last column, is an int."""
    *floats, samples = (row[name] for name in COLUMNS)
    return ",".join([_g(x) for x in floats] + [str(int(samples))])


@click.group()
def main() -> None:
    """Imaginary-time evolution via post-selected block encodings."""


@main.command("decompose", context_settings={"ignore_unknown_options": True})
@click.argument("word")
@click.argument("k", type=float)
@click.option("--verify", is_flag=True, help="check the reconstruction identity in log space")
@_runtime
def cmd_decompose(word: str, k: float, verify: bool) -> None:
    """Decompose exp(-K P) for the diagonal structure of WORD.

    Prints the hidden unit(s), induced couplings, and predicted success
    probabilities as JSON.  Only the support of WORD matters here; basis
    rotations are a circuit-level concern.  K is any finite number; a
    negative K needs no "--" before it.
    """
    string = _usage(PauliString, word)
    support = string.support()
    if not support:
        raise click.UsageError(f"word {word!r} has empty support")
    if len(support) > MAX_WALSH_SITES:
        raise click.UsageError(
            f"support size {len(support)} exceeds the Walsh site limit {MAX_WALSH_SITES}")
    if not math.isfinite(k):
        raise click.UsageError(f"K must be finite, got {k}")
    dec = decompose_sites(support, k, string.n_qubits)
    payload = dec.to_json_dict(string.n_qubits)
    per_unit = [mean_unit_success(u) for u in dec.hidden_units]
    payload["mean_success_per_unit"] = per_unit
    payload["mean_success_product"] = float(np.prod(per_unit))
    click.echo(json.dumps(payload, indent=2, sort_keys=True))
    if verify:
        err = max_log_error(dec, support, k)
        click.echo(f"verify: max entrywise log error {err:.3e}", err=True)


_COMMON = [
    click.option("--dtau", type=float, default=0.01, show_default=True,
                 help="Trotter step"),
    click.option("--order", type=click.IntRange(1, 2), default=2, show_default=True,
                 help="Trotter order"),
    click.option("--route", type=click.Choice(["rbm", "word"]), default="rbm",
                 show_default=True, help="encoding route"),
    click.option("--shots", type=int, default=100_000, show_default=True),
    click.option("--batches", type=int, default=100, show_default=True),
    click.option("--seed", type=int, default=0, show_default=True),
    click.option("--mode", type=click.Choice(["exact", "shots"]), default=None,
                 help="exact post-selection or sampled shots"),
    click.option("--out", default="-", show_default=True, help="CSV path or -"),
]


def _with_common(f):
    for opt in reversed(_COMMON):
        f = opt(f)
    return f


def _write_rows(out: str, rows_iter) -> list[dict]:
    """Stream rows to the CSV sink, flushing per checkpoint; returns them."""
    rows = []
    sink = sys.stdout if out == "-" else open(out, "w", encoding="utf-8", newline="\n")
    try:
        sink.write(CSV_HEADER + "\n")
        sink.flush()
        for row, note in rows_iter:
            sink.write(_format_row(row) + "\n")
            sink.flush()
            if note:
                click.echo(note, err=True)
            rows.append(row)
    finally:
        if sink is not sys.stdout:
            sink.close()
    return rows


@main.command("evolve")
@click.option("--hamiltonian", required=True, help="Hamiltonian file path or -")
@click.option("--tau", default="1.0", show_default=True,
              help="comma-separated checkpoint times")
@click.option("--init", "init_spec", default="plus", show_default=True,
              help="initial state: plus | zero | bitstring")
@_with_common
@_runtime
def cmd_evolve(hamiltonian, tau, init_spec, dtau, order, route, shots, batches, seed, mode,
               out) -> None:
    """Evolve an initial state in imaginary time, one CSV row per checkpoint."""
    h = _load_hamiltonian(hamiltonian)
    taus = _parse_taus(tau)
    psi0 = _initial_state(init_spec, h.n_qubits)
    _write_rows(out, _usage(iter_evolution, h, taus, dtau, order, route, psi0,
                            mode or "exact", shots, batches, seed, oracle_check=True))


@main.command("ising-demo")
@_with_common
@_runtime
def cmd_ising_demo(dtau, order, route, shots, batches, seed, mode, out) -> None:
    """Run the 3-qubit critical transverse-field Ising benchmark.

    Periodic chain, |+++> start, tau from 0.1 to 1.0; writes the CSV to
    --out (default ising_demo.csv) and a JSON summary to stdout, including
    the dense-oracle energies and the per-step success-probability model.
    """
    h = ising_hamiltonian()
    taus = [round(0.1 * i, 10) for i in range(1, 11)]
    mode = mode or "shots"
    if out == "-":
        out = "ising_demo.csv"
    psi0 = StateVector.uniform_plus(3)
    rows = _write_rows(out, _usage(iter_evolution, h, taus, dtau, order, route, psi0, mode,
                                   shots, batches, seed))
    evals = np.linalg.eigvalsh(dense_matrix(h))
    oracle = {_g(t): expectation(state, h)
              for t, state in zip(taus, chained_oracle(h, taus, psi0))}
    summary = {
        "hamiltonian": "3-qubit critical transverse-field Ising chain (PBC)",
        "dtau": dtau, "order": order, "route": route, "mode": mode,
        "shots": shots, "batches": batches, "seed": seed,
        "ground_energy": float(evals[0]),
        "oracle_energy": oracle,
        "csv": out,
        "final_acceptance": rows[-1]["acceptance"],
        "final_acceptance_model": rows[-1]["acceptance_model"],
    }
    click.echo(json.dumps(summary, indent=2, sort_keys=True))


@main.command("ldbm")
@click.argument("script")
@click.option("--qubits", type=int, default=1, show_default=True)
@_runtime
def cmd_ldbm(script: str, qubits: int) -> None:
    """Execute a network op script against a fresh |0...0> network.

    Ops (one per line, # comments allowed; see itebm.ldbm.run_script):
    hx L | hy L | hydag L | rz L PHI | rzz L1 L2 PHI | imag WORD K |
    to-dbm | dump.  Prints each dump as its line runs, then the final
    statevector, unit counts and raw norm.
    """
    if qubits < 1:
        raise click.UsageError(f"--qubits must be >= 1, got {qubits}")
    text = _read_text(script, "script")
    try:
        net = nets.run_script(text, qubits, lambda obj: click.echo(json.dumps(obj)))
    except nets.ScriptError as exc:
        raise click.UsageError(str(exc))
    final = net.to_ldbm() if isinstance(net, nets.DbmNetwork) else net
    state, norm = nets.state_and_norm(final)
    for idx, amp in enumerate(state.amps):
        bits = format(idx, f"0{qubits}b")
        click.echo(f"|{bits}>  {amp.real:+.10f}{amp.imag:+.10f}j")
    deep = f"  deep units: {net.n_deep}" if isinstance(net, nets.DbmNetwork) else ""
    click.echo(f"hidden units: {net.n_hidden}{deep}")
    click.echo(f"norm: {norm:.12g}")


if __name__ == "__main__":
    main()
