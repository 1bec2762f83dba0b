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

The argparse parser is built at import.  Exit codes: 0 success, 2 usage
error (its last line `Error: <message>`), 3 runtime error (`error: <message>`).
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import ldbm as nets
from .decomp import MAX_WALSH_SITES, decompose_sites, max_log_error, mean_unit_success
from .evolution import COLUMNS, iter_evolution
from .pauli import Hamiltonian, PauliString, dense_matrix, parse_hamiltonian, word_from_sites
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


def echo(line: str, err: bool = False) -> None:
    """Write one line to stdout, or to stderr, and flush it."""
    print(line, file=sys.stderr if err else sys.stdout, flush=True)


class UsageError(Exception):
    """A configuration error: exit 2, after the command's usage."""


class _Parser(argparse.ArgumentParser):
    """No abbreviations; -1e-3 and -inf are values, as -0.5 is to argparse;
    --help shows defaults; a usage error ends with `Error: <message>`."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False,
                         formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str):
        echo(f"{self.format_usage()}Error: {message}", err=True)
        sys.exit(2)


def _usage(fn, *args, **kwargs):
    """Call fn, reporting a ValueError as a usage error (exit 2)."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc))


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of a file, or of stdin for "-"; a usage error naming
    `what` if it cannot be read."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {what}: {exc}")


def _load_hamiltonian(path: str) -> Hamiltonian:
    text = _read_text(path, "hamiltonian file")
    try:
        return parse_hamiltonian(text)
    except ValueError as exc:
        raise UsageError(f"invalid hamiltonian: {exc}")


def _parse_taus(spec: str) -> list[float]:
    try:
        taus = [float(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"--tau must be a comma-separated list, got {spec!r}")
    if not taus:
        raise UsageError("--tau is empty")
    return taus


def _initial_state(spec: str, n_qubits: int) -> StateVector:
    if spec == "plus":
        return StateVector.uniform_plus(n_qubits)
    if spec == "zero":
        return StateVector.from_bitstring("0" * n_qubits)
    if len(spec) == n_qubits and set(spec) <= {"0", "1"}:
        return StateVector.from_bitstring(spec)
    raise UsageError(f"--init must be 'plus', 'zero', or a {n_qubits}-bit string, got {spec!r}")


def _format_row(row: dict) -> str:
    """The row's CSV line; effective_samples, the last column, is an int."""
    *floats, samples = (row[name] for name in COLUMNS)
    return ",".join([_g(x) for x in floats] + [str(int(samples))])


def cmd_decompose(a: argparse.Namespace) -> None:
    """Decompose exp(-K P) for the diagonal structure of WORD.

    Prints the hidden unit(s), induced couplings, and predicted success
    probabilities as JSON.  Only the support of WORD matters here; basis
    rotations are a circuit-level concern.  K is any finite number; a
    negative K needs no "--" before it.
    """
    string = _usage(PauliString, a.word)
    support = string.support()
    if not support:
        raise UsageError(f"word {a.word!r} has empty support")
    if len(support) > MAX_WALSH_SITES:
        raise UsageError(
            f"support size {len(support)} exceeds the Walsh site limit {MAX_WALSH_SITES}")
    if not math.isfinite(a.k):
        raise UsageError(f"K must be finite, got {a.k}")
    dec = decompose_sites(support, a.k, string.n_qubits)
    per_unit = [mean_unit_success(u) for u in dec.hidden_units]
    payload = {
        "log_norm": dec.log_norm,
        "hidden_units": [{"bias": u.bias, "weights": [[q, w] for q, w in u.weights]}
                         for u in dec.hidden_units],
        "induced": [{"coeff": k,
                     "word": word_from_sites(string.n_qubits, dict.fromkeys(sites, "Z")).word}
                    for sites, k in dec.induced.items()],
        "mean_success_per_unit": per_unit,
        "mean_success_product": float(np.prod(per_unit)),
    }
    echo(json.dumps(payload, indent=2, sort_keys=True))
    if a.verify:
        err = max_log_error(dec, support, a.k)
        echo(f"verify: max entrywise log error {err:.3e}", err=True)


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
                echo(note, err=True)
            rows.append(row)
    finally:
        if sink is not sys.stdout:
            sink.close()
    return rows


def cmd_evolve(a: argparse.Namespace) -> None:
    """Evolve an initial state in imaginary time, one CSV row per checkpoint."""
    h = _load_hamiltonian(a.hamiltonian)
    taus = _parse_taus(a.tau)
    psi0 = _initial_state(a.init, h.n_qubits)
    _write_rows(a.out, _usage(iter_evolution, h, taus, a.dtau, a.order, a.route, psi0,
                              a.mode, a.shots, a.batches, a.seed, oracle_check=True))


def cmd_ising_demo(a: argparse.Namespace) -> None:
    """Run the 3-qubit critical transverse-field Ising benchmark.

    Periodic chain, |+++> start, tau from 0.1 to 1.0; writes the CSV to
    --out (- too is ising_demo.csv) and a JSON summary to stdout, including
    the dense-oracle energies and the per-step success-probability model.
    """
    h = ising_hamiltonian()
    taus = [round(0.1 * i, 10) for i in range(1, 11)]
    out = "ising_demo.csv" if a.out == "-" else a.out
    psi0 = StateVector.uniform_plus(3)
    rows = _write_rows(out, _usage(iter_evolution, h, taus, a.dtau, a.order, a.route, psi0,
                                   a.mode, a.shots, a.batches, a.seed))
    evals = np.linalg.eigvalsh(dense_matrix(h))
    oracle = {_g(t): expectation(state, h)
              for t, state in zip(taus, chained_oracle(h, taus, psi0))}
    summary = {
        "hamiltonian": "3-qubit critical transverse-field Ising chain (PBC)",
        "dtau": a.dtau, "order": a.order, "route": a.route, "mode": a.mode,
        "shots": a.shots, "batches": a.batches, "seed": a.seed,
        "ground_energy": float(evals[0]),
        "oracle_energy": oracle,
        "csv": out,
        "final_acceptance": rows[-1]["acceptance"],
        "final_acceptance_model": rows[-1]["acceptance_model"],
    }
    echo(json.dumps(summary, indent=2, sort_keys=True))


def cmd_ldbm(a: argparse.Namespace) -> None:
    """Execute a network op script against a fresh |0...0> network.

    Ops (one per line, # comments allowed; see itebm.ldbm.run_script):
    hx L | hy L | hydag L | rz L PHI | rzz L1 L2 PHI | imag WORD K |
    to-dbm | dump.  Prints each dump as its line runs, then the final
    statevector, unit counts and raw norm.
    """
    if a.qubits < 1:
        raise UsageError(f"--qubits must be >= 1, got {a.qubits}")
    text = _read_text(a.script, "script")
    try:
        net = nets.run_script(text, a.qubits, lambda obj: echo(json.dumps(obj)))
    except nets.ScriptError as exc:
        raise UsageError(str(exc))
    final = net.to_ldbm() if isinstance(net, nets.DbmNetwork) else net
    state, norm = nets.state_and_norm(final)
    for idx, amp in enumerate(state.amps):
        bits = format(idx, f"0{a.qubits}b")
        echo(f"|{bits}>  {amp.real:+.10f}{amp.imag:+.10f}j")
    deep = f"  deep units: {net.n_deep}" if isinstance(net, nets.DbmNetwork) else ""
    echo(f"hidden units: {net.n_hidden}{deep}")
    echo(f"norm: {norm:.12g}")


PARSER = _Parser(prog="itebm", description="Imaginary-time evolution via block encodings.")
_COMMANDS = PARSER.add_subparsers(dest="command", metavar="COMMAND", required=True)


def _command(name: str, run, mode: str | None = None, out: str = "-") -> _Parser:
    """Add the subcommand `name`; a default mode adds the shared run options."""
    sub = _COMMANDS.add_parser(name, help=run.__doc__.split("\n")[0], description=run.__doc__)
    sub.set_defaults(run=run)
    if not mode:
        return sub
    sub.add_argument("--dtau", type=float, default=0.01, help="Trotter step")
    sub.add_argument("--order", type=int, choices=(1, 2), default=2, help="Trotter order")
    sub.add_argument("--route", choices=("rbm", "word"), default="rbm", help="encoding route")
    sub.add_argument("--shots", type=int, default=100_000, help="shots per checkpoint")
    sub.add_argument("--batches", type=int, default=100, help="jackknife batches")
    sub.add_argument("--seed", type=int, default=0, help="random seed")
    sub.add_argument("--mode", choices=("exact", "shots"), default=mode,
                     help="exact post-selection or sampled shots")
    sub.add_argument("--out", default=out, help="CSV path or -")
    return sub


_sub = _command("decompose", cmd_decompose)
_sub.add_argument("word", help="Pauli word whose support is decomposed")
_sub.add_argument("k", type=float, help="coupling K")
_sub.add_argument("--verify", action="store_true", help="check the identity in log space")
_sub = _command("evolve", cmd_evolve, "exact")
_sub.add_argument("--hamiltonian", required=True, default=argparse.SUPPRESS,
                  help="Hamiltonian file path or -")
_sub.add_argument("--tau", default="1.0", help="comma-separated checkpoint times")
_sub.add_argument("--init", default="plus", help="initial state: plus | zero | bitstring")
_command("ising-demo", cmd_ising_demo, "shots", "ising_demo.csv")
_sub = _command("ldbm", cmd_ldbm)
_sub.add_argument("script", help="op script path or -")
_sub.add_argument("--qubits", type=int, default=1, help="visible qubits")


def main(argv: list[str] | None = None) -> None:
    """Run the command that argv (default: sys.argv[1:]) names.  A failure
    raises SystemExit: 2 for a usage error, 3 for a runtime one."""
    args = PARSER.parse_args(argv)
    try:
        args.run(args)
    except UsageError as exc:
        _COMMANDS.choices[args.command].error(str(exc))
    except Exception as exc:
        echo(f"error: {exc}", err=True)
        sys.exit(3)


if __name__ == "__main__":
    main()
