"""Command-line interface: reproducible imaginary-time evolution runs.

The commands parse and check their options and write the output; the
evolution loop itself is `itebm.evolution.iter_evolution`.

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
from .circuits import n_trotter_steps
from .decomp import MAX_WALSH_SITES, decompose_sites, mean_unit_success
from .evolution import iter_evolution, shot_split
from .pauli import (
    Hamiltonian,
    HamiltonianTerm,
    PauliString,
    dense_matrix,
    parse_hamiltonian,
)
from .simulator import StateVector, chained_oracle, expectation

CSV_HEADER = (
    "tau,E_mean,E_err,ZZ_mean,ZZ_err,X_mean,X_err,"
    "acceptance,acceptance_model,effective_samples"
)

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


def _usage(fn, *args):
    """Call fn, reporting a ValueError as a usage error (exit 2)."""
    try:
        return fn(*args)
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


def _check_run(h: Hamiltonian, taus: list[float], dtau: float, mode: str, shots: int,
               batches: int) -> None:
    """Check the options that evolve and ising-demo share, as usage errors:
    dtau, each tau a multiple of it, --batches and the shot split."""
    for tau in taus:
        _usage(n_trotter_steps, tau, dtau)
    if batches < 2:
        raise click.UsageError(f"--batches must be >= 2, got {batches}")
    if mode == "shots":
        _usage(shot_split, h, shots, batches)


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
    return ",".join([
        _g(row["tau"]), _g(row["E_mean"]), _g(row["E_err"]),
        _g(row["ZZ_mean"]), _g(row["ZZ_err"]), _g(row["X_mean"]), _g(row["X_err"]),
        _g(row["acceptance"]), _g(row["acceptance_model"]),
        str(int(row["effective_samples"])),
    ])


@click.group()
def main() -> None:
    """Imaginary-time evolution via post-selected block encodings."""


@main.command("decompose", context_settings={"ignore_unknown_options": True})
@click.argument("word")
@click.argument("k", type=float)
@click.option("--verify", is_flag=True, help="check the reconstruction identity densely")
@_runtime
def cmd_decompose(word: str, k: float, verify: bool) -> None:
    """Decompose exp(-K P) for the diagonal structure of WORD.

    Prints the hidden unit(s), induced couplings, and predicted success
    probabilities as JSON.  Only the support of WORD matters here; basis
    rotations are a circuit-level concern.  K is any finite number; a
    negative K needs no "--" before it.
    """
    try:
        string = PauliString(word)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    support = string.support()
    if not support:
        raise click.UsageError(f"word {word!r} has empty support")
    if len(support) > MAX_WALSH_SITES:
        raise click.UsageError(
            f"support size {len(support)} exceeds the Walsh site limit {MAX_WALSH_SITES}")
    if not math.isfinite(k):
        raise click.UsageError(f"K must be finite, got {k}")
    dec = decompose_sites(support, k, string.n_qubits)
    payload = dec.to_json_dict()
    payload["mean_success_per_unit"] = [mean_unit_success(u) for u in dec.hidden_units]
    payload["mean_success_product"] = float(
        np.prod([mean_unit_success(u) for u in dec.hidden_units])
    ) if dec.hidden_units else 1.0
    click.echo(json.dumps(payload, indent=2, sort_keys=True))
    if verify:
        m = len(support)
        pos = {q: i for i, q in enumerate(support)}
        spins = 1.0 - 2.0 * ((np.arange(1 << m)[:, None] >> np.arange(m)[None, :]) & 1)
        target_exp = k * np.prod(spins, axis=1)
        for t in dec.induced_terms:
            cols = [pos[q] for q in t.string.support()]
            target_exp = target_exp + t.coefficient * np.prod(spins[:, cols], axis=1)
        realized = np.full(1 << m, math.exp(dec.log_norm) if dec.hidden_units else 1.0)
        for u in dec.hidden_units:
            angle = u.bias + sum(w * spins[:, pos[q]] for q, w in u.weights)
            realized = realized * 2.0 * np.cos(angle)
        err = float(np.max(np.abs(realized - np.exp(-target_exp))))
        click.echo(f"verify: max entrywise error {err:.3e}", err=True)


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
    mode = mode or "exact"
    _check_run(h, taus, dtau, mode, shots, batches)
    psi0 = _initial_state(init_spec, h.n_qubits)
    rows_iter = iter_evolution(
        h, taus, dtau, order, route, psi0, mode, shots, batches, seed,
        oracle_check=(mode == "exact" and h.n_qubits <= 12),
    )
    _write_rows(out, rows_iter)


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
    _check_run(h, taus, dtau, mode, shots, batches)
    if out == "-":
        out = "ising_demo.csv"
    psi0 = StateVector.uniform_plus(3)
    rows = _write_rows(out, iter_evolution(
        h, taus, dtau, order, route, psi0, mode, shots, batches, seed,
    ))
    evals = np.linalg.eigvalsh(dense_matrix(h))
    oracle = {
        _g(t): expectation(state, h) for t, state in zip(taus, chained_oracle(h, taus, psi0))
    }
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

    Ops (one per line, # comments allowed): hx L | hy L | hydag L |
    rz L PHI | rzz L1 L2 PHI | imag WORD K | to-dbm | dump.
    Prints the final statevector and unit counts.
    """
    if qubits < 1:
        raise click.UsageError(f"--qubits must be >= 1, got {qubits}")
    text = _read_text(script, "script")
    net = nets.zero_state(qubits)
    dbm = None

    def _index(token: str, lineno: int) -> int:
        try:
            value = int(token)
        except ValueError:
            raise click.UsageError(f"line {lineno}: expected qubit index, got {token!r}")
        if not 0 <= value < qubits:
            raise click.UsageError(f"line {lineno}: qubit index {value} out of range")
        return value

    def _number(token: str, lineno: int) -> float:
        try:
            return float(token)
        except ValueError:
            raise click.UsageError(f"line {lineno}: expected number, got {token!r}")

    def _angle(token: str, lineno: int) -> float:
        value = _number(token, lineno)
        if not math.isfinite(value):
            raise click.UsageError(f"line {lineno}: non-finite angle {value!r}")
        return value

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        op, args = tokens[0].lower(), tokens[1:]
        if dbm is not None and op != "dump":
            raise click.UsageError(
                f"line {lineno}: no further ops after to-dbm (got {op!r})"
            )
        if op in ("hx", "hy", "hydag") and len(args) == 1:
            fn = {"hx": nets.apply_hx, "hy": nets.apply_hy,
                  "hydag": nets.apply_hy_dag}[op]
            net = fn(net, _index(args[0], lineno))
        elif op == "rz" and len(args) == 2:
            net = nets.apply_rz(net, _index(args[0], lineno), _angle(args[1], lineno))
        elif op == "rzz" and len(args) == 3:
            l1, l2, phi = _index(args[0], lineno), _index(args[1], lineno), _angle(args[2], lineno)
            try:
                net = nets.apply_rzz(net, l1, l2, phi)
            except ValueError as exc:
                raise click.UsageError(f"line {lineno}: {exc}")
        elif op == "imag" and len(args) == 2:
            word = args[0].upper()
            if len(word) != qubits:
                raise click.UsageError(
                    f"line {lineno}: word {word!r} does not match --qubits {qubits}"
                )
            try:
                term = HamiltonianTerm(_number(args[1], lineno), PauliString(word))
            except ValueError as exc:
                raise click.UsageError(f"line {lineno}: {exc}")
            net = nets.apply_term_imaginary(net, term, 1.0)
        elif op == "to-dbm" and not args:
            dbm = nets.ldbm_to_dbm(net)
        elif op == "dump" and not args:
            obj = dbm.to_json_dict() if dbm is not None else net.to_json_dict()
            click.echo(json.dumps(obj))
        else:
            raise click.UsageError(f"line {lineno}: unknown op {line!r}")

    final = dbm.to_ldbm() if dbm is not None else net
    state, norm = nets.state_and_norm(final)
    for idx, amp in enumerate(state.amps):
        bits = format(idx, f"0{qubits}b")
        click.echo(f"|{bits}>  {amp.real:+.10f}{amp.imag:+.10f}j")
    if dbm is not None:
        click.echo(f"hidden units: {dbm.n_hidden}  deep units: {dbm.n_deep}")
    else:
        click.echo(f"hidden units: {net.n_hidden}")
    click.echo(f"norm: {norm:.12g}")


if __name__ == "__main__":
    main()
