"""Span tracing of the itebm layers from outside the package.

`Tracer.install` replaces the functions listed in `SPANS` with wrappers
that record one span per call (name, start, end, parent span), and rebinds
every module attribute that held the original, because the package imports
these names with ``from .x import y``.  `Tracer.restore` puts the originals
back.  Spans stay in memory until the run ends; `dump_spans` then writes
them out, one line each, tagged with the run id.

Hot per-gate helpers (``pauli.word_action``, ``pauli.word_from_sites``) are
left unwrapped: a span per call would cost more than the call, so their time
counts towards the layer that calls them.  Counts are taken at the same
boundaries, from the arguments and results of the wrapped calls.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute path) of every traced function; the span name is
# "<module>.<attribute path>".
SPANS = [
    ("pauli", "parse_hamiltonian"), ("pauli", "dense_matrix"),
    ("pauli", "apply_word"), ("pauli", "basis_rotation_layer"),
    ("decomp", "cascade_diagonal"), ("decomp", "mean_unit_success"),
    ("ir", "Fragment.repeated"), ("ir", "Fragment.to_circuit"),
    ("circuits", "build_qite_circuit"), ("circuits", "trotter_step"),
    ("simulator", "run_exact"), ("simulator", "run_shots"),
    ("simulator", "expectation"), ("simulator", "imaginary_time_oracle"),
    ("stats", "jackknife"),
    ("cli", "iter_evolution"), ("cli", "_write_rows"),
    ("ldbm", "zero_state"), ("ldbm", "apply_hx"), ("ldbm", "apply_hy"),
    ("ldbm", "apply_hy_dag"), ("ldbm", "apply_rz"), ("ldbm", "apply_rzz"),
    ("ldbm", "apply_term_imaginary"), ("ldbm", "apply_diagonal_imaginary"),
    ("ldbm", "ldbm_to_dbm"), ("ldbm", "DbmNetwork.to_ldbm"),
    ("ldbm", "statevector"), ("ldbm", "statevector_norm"),
    ("ldbm", "raw_amplitudes"), ("ldbm", "_marginalize"),
]

_ABSORB = {"ldbm.zero_state", "ldbm.apply_hx", "ldbm.apply_hy", "ldbm.apply_hy_dag",
           "ldbm.apply_rz", "ldbm.apply_rzz", "ldbm.apply_term_imaginary",
           "ldbm.apply_diagonal_imaginary"}

# Smallest normal double: acceptances below it have lost precision.
TINY = 2.2250738585072014e-308
_AMP_BYTES = 16  # complex128


class Tracer:
    """Records spans and boundary counts for one traced CLI run."""

    def __init__(self, run_id: str, batches: int | None = None) -> None:
        self.run_id = run_id
        self.batches = batches
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = defaultdict(float)
        # Per checkpoint, i.e. per build_qite_circuit call, by index:
        self._models: list[float] = []  # model acceptance
        self._exact_flags: set[int] = set()  # exact acceptance below TINY
        self._shot_batches: list[tuple[int, np.ndarray]] = []  # accepted per batch

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, after):
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "itebm" or key.startswith("itebm."))]
        for mod_name, path in SPANS:
            owner = sys.modules[f"itebm.{mod_name}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            name = f"{mod_name}.{path}"
            after = getattr(self, "_after_" + attr.lstrip("_"), None)
            wrapper = self._wrap(name, original, after)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if cls_path:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- boundary counts ---------------------------------------------------
    # `install` finds these by name: _after_<function> runs after each call
    # of that function returns, with its arguments and result.
    def _after_run_shots(self, args, kwargs, run) -> None:
        circuit = args[0]
        c = self.counts
        c["shots_drawn"] += run.n_shots
        c["shots_accepted"] += run.n_accepted
        # A shot rejected at a postselect takes part in every gate up to and
        # including it.  Measurements fill cbits in gate order, so the
        # failing postselect is the one reading the shot's last filled bit.
        ps_gate = np.zeros(circuit.n_cbits, dtype=np.int64)
        last = -1
        for i, g in enumerate(circuit.gates):
            if g.kind == "postselect":
                if g.cbit <= last:
                    raise RuntimeError("postselects out of cbit order")
                ps_gate[g.cbit], last = i, g.cbit
        n_gates = len(circuit.gates)
        rejected = ~run.accepted
        filled = np.count_nonzero(run.cbits[rejected] >= 0, axis=1)
        ops = int(run.n_accepted) * n_gates + int(np.sum(ps_gate[filled - 1] + 1))
        c["shot_gate_ops"] += ops
        c["shot_bytes"] += 2 * _AMP_BYTES * (1 << circuit.n_qubits) * ops
        if self.batches:
            acc = run.accepted.reshape(self.batches, -1).sum(axis=1)
            self._shot_batches.append((len(self._models) - 1, acc))

    def _after_run_exact(self, args, kwargs, result) -> None:
        circuit = args[0]
        self.counts["exact_gate_ops"] += len(circuit.gates)
        self.counts["exact_bytes"] += (
            2 * _AMP_BYTES * (1 << circuit.n_qubits) * len(circuit.gates))
        if result.cumulative_success < TINY:
            self._exact_flags.add(len(self._models) - 1)

    def _after_build_qite_circuit(self, args, kwargs, circuit) -> None:
        self._models.append(circuit.model_success)

    def _after_to_circuit(self, args, kwargs, circuit) -> None:
        self.counts["gates_materialized"] += len(circuit.gates)

    def _after_trotter_step(self, args, kwargs, frag) -> None:
        self.counts["step_gates"] += len(frag.gates)

    def _after_cascade_diagonal(self, args, kwargs, decs) -> None:
        self.counts["units"] += sum(len(d.hidden_units) for d in decs)

    def _after_marginalize(self, args, kwargs, result) -> None:
        net, z = args[0], args[1]
        self.counts["hidden_max"] = max(self.counts["hidden_max"], net.n_hidden)
        self.counts["configs_summed"] += z.shape[0] * (1 << net.n_hidden)

    def batches_dropped(self) -> int:
        """Batches the estimator drops without a word, summed over checkpoints
        and CSV columns.  A batch is dropped from a column when a basis group
        the column needs accepted no shot in it: E needs every group; ZZ and
        X each need one (the TFIM's Z and X groups)."""
        by_checkpoint: dict[int, list[np.ndarray]] = {}
        for key, acc in self._shot_batches:
            by_checkpoint.setdefault(key, []).append(acc)
        dropped = 0
        for groups in by_checkpoint.values():
            empty = np.array(groups) == 0
            dropped += int(np.sum(empty.any(axis=0))) + int(np.sum(empty))
        return dropped

    # -- report ------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus time covered by children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def layer_metrics(self, word_action_misses: int) -> dict:
        """Per-layer metrics (without the trace.* pair, which needs the
        untraced runs)."""
        st = self.self_times()
        calls = Counter(span[0] for span in self.spans)
        c = self.counts
        subnormal = {i for i, m in enumerate(self._models) if m < TINY} | self._exact_flags
        return {
            "simulator.shots_s": st.get("simulator.run_shots", 0.0),
            "simulator.shot_gate_ops": c["shot_gate_ops"],
            "simulator.shot_bytes": c["shot_bytes"],
            "simulator.shot_acceptance": (c["shots_accepted"] / c["shots_drawn"]
                                          if c["shots_drawn"] else 0.0),
            "simulator.exact_s": st.get("simulator.run_exact", 0.0),
            "simulator.exact_gate_ops": c["exact_gate_ops"],
            "simulator.exact_bytes": c["exact_bytes"],
            "simulator.acceptance_subnormal": len(subnormal),
            "simulator.oracle_s": st.get("simulator.imaginary_time_oracle", 0.0),
            "simulator.oracle_calls": calls["simulator.imaginary_time_oracle"],
            "ir.repeat_s": st.get("ir.Fragment.repeated", 0.0)
                           + st.get("ir.Fragment.to_circuit", 0.0),
            "ir.gates_materialized": c["gates_materialized"],
            "circuits.compile_s": st.get("circuits.build_qite_circuit", 0.0),
            "circuits.step_s": st.get("circuits.trotter_step", 0.0),
            "circuits.step_gates": c["step_gates"],
            "decomp.cascade_calls": calls["decomp.cascade_diagonal"],
            "decomp.cascade_s": st.get("decomp.cascade_diagonal", 0.0),
            "decomp.units": c["units"],
            "pauli.word_action_misses": word_action_misses,
            "estimate.s": st.get("cli.iter_evolution", 0.0) + st.get("cli._write_rows", 0.0),
            "stats.jackknife_calls": calls["stats.jackknife"],
            "stats.jackknife_s": st.get("stats.jackknife", 0.0),
            "estimate.batches_dropped": self.batches_dropped(),
            "ldbm.marginalize_s": st.get("ldbm._marginalize", 0.0),
            "ldbm.marginalize_calls": calls["ldbm._marginalize"],
            "ldbm.hidden_max": c["hidden_max"],
            "ldbm.configs_summed": c["configs_summed"],
            "ldbm.absorb_s": sum(v for k, v in st.items() if k in _ABSORB),
            "ldbm.to_dbm_s": st.get("ldbm.ldbm_to_dbm", 0.0),
            "trace.self_s": sum(st.values()),
        }

    def dump_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f"{self.run_id}\t{name}\t{start:.9f}\t{end:.9f}\t"
                         f"{'' if parent is None else parent}\n")
