"""Benchmark of the itebm command line: end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from any directory; the program is taken from ``src/`` next to this
directory.  Each workload (see ``workloads.py``) writes its inputs from the
seed into ``.bench_work/<workload>/``, then runs the same ``itebm`` command
in a fresh interpreter per sample, one process at a time, until the time
budget is spent.  Every sample's output is checked against a dense
reference and, at the default seed, against the SHA-256 digests in
``expected.json``; all samples of a run must produce identical bytes.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (medians over
samples).  ``--trace 1`` alternates untraced and traced samples and reports
the per-layer metrics: span self times (medians over traced samples) and
boundary counts, which must repeat exactly.  The last line of stdout is one
JSON object; the exit code is 0 when every sample passed, 1 otherwise, and 2
when the program or BENCHMARK.json is missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
# One BLAS thread (at most nproc): the run shares a small machine, and
# multi-threaded BLAS on busy cores adds more noise than speed.
BLAS_THREADS = 1
SETUP_PROBES = 3
# A run must end within 180 s whatever a sample does.
RUN_DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment() -> dict:
    """Versions, machine and source identity recorded with each result."""
    files = sorted((SRC / "itebm").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None  # an exported checkout has no .git; src_sha256 names it
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "python": sys.version.split()[0], **versions,
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "git_commit": commit,
        "src_sha256": digest.hexdigest(), "src_lines": lines,
    }


class Run:
    """One workload at one seed: inputs, samples and their verdicts."""

    def __init__(self, workload, seed: int, work: Path, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.ctx = workload.prepare(seed, work)
        expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
        self.expected = expected.get(workload.name) if seed == DEFAULT_SEED else None
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.setups: list[float] = []
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.walls: list[float] = []
        self.checked = None

    def _spawn(self, argv, trace: bool) -> dict | None:
        """Run sample.py once; None when it failed to start or finish."""
        record = self.work / "record.json"
        n = self.attempted
        record.write_text(json.dumps({
            "argv": argv, "trace": trace, "batches": self.workload.batches,
            "run_id": f"{self.workload.name}-{self.seed}-{n}",
            "spans": str(self.work / "spans.tsv"),
        }), encoding="utf-8")
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.work / "stdout.txt", "wb") as out, \
                open(self.work / "stderr.txt", "wb") as err:
            t_spawn = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "sample.py"), str(record)],
                    stdout=out, stderr=err, env=child_env(), cwd=self.work,
                    timeout=timeout)
            except subprocess.TimeoutExpired:
                return None
            wall = time.monotonic() - t_spawn
        if proc.returncode != 0:
            return None
        rec = json.loads(record.read_text(encoding="utf-8"))
        if not Path(rec["module"]).resolve().is_relative_to(SRC):
            raise SystemExit(f"itebm imported from {rec['module']}, not {SRC}")
        rec["setup_s"] = rec["t_import"] - t_spawn
        rec["wall_s"] = wall
        return rec

    def probe_setup(self) -> None:
        rec = self._spawn(None, False)
        if rec is None:
            raise SystemExit("interpreter failed to import itebm.cli")
        self.setups.append(rec["setup_s"])

    def sample(self, trace: bool) -> None:
        self.attempted += 1
        rec = self._spawn(self.ctx["argv"], trace)
        problems = []
        if rec is None:
            problems.append("sample crashed or timed out")
        elif rec["exit_code"] != 0:
            problems.append(f"itebm exited with {rec['exit_code']}")
        else:
            stdout = (self.work / "stdout.txt").read_bytes()
            checked = self.workload.check(self.ctx, stdout)
            problems += checked.problems
            if self.expected is not None and checked.digest != self.expected:
                problems.append(f"output sha256 {checked.digest} != expected {self.expected}")
            if self.digest is None:
                self.digest = checked.digest
            elif checked.digest != self.digest:
                problems.append("output bytes differ from the run's first sample")
            if trace and self.traced:
                first = self.traced[0]["layers"]
                moved = [k for k, v in rec["layers"].items()
                         if not is_time(k) and first[k] != v]
                if moved:
                    problems.append(f"layer counts differ between traced samples: {moved}")
            self.checked = checked
            self.walls.append(rec["wall_s"])
            if not trace:
                self.setups.append(rec["setup_s"])
            (self.traced if trace else self.plain).append(rec)
        if problems:
            self.failed += 1
            err = (self.work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
            print(f"FAIL {self.workload.name} seed={self.seed} sample {self.attempted}: "
                  + "; ".join(problems), flush=True)
            if err.strip():
                print("  stderr: " + err.strip().splitlines()[-1], flush=True)


def measure(workload, seed: int, seconds: float, trace: bool) -> Run:
    work = ROOT / ".bench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "itebm")],
                   check=True, env=child_env(), stdout=subprocess.DEVNULL)
    run = Run(workload, seed, work, time.monotonic() + RUN_DEADLINE_S)
    for _ in range(SETUP_PROBES):
        run.probe_setup()
    start = time.monotonic()
    while True:
        run.sample(trace and run.attempted % 2 == 1)
        if run.failed:
            break
        enough = run.plain and (run.traced or not trace)
        if enough and time.monotonic() - start >= seconds:
            break
        if time.monotonic() + max(run.walls) > run.deadline - 5.0:
            break
    return run


def is_time(metric: str) -> bool:
    """Per-layer times vary between samples; every other metric is a count."""
    return metric.endswith(("_s", ".s"))


def _median(values) -> float:
    return statistics.median(values) if values else math.nan


def end_to_end(run: Run) -> tuple[dict, dict]:
    """(metrics for BENCHMARK.json, accuracy gauges printed alongside)."""
    run_s = _median([r["run_s"] for r in run.plain])
    metrics = {
        "run_s": run_s,
        "setup_s": _median(run.setups),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in run.plain]),
    }
    gauges = {}
    if run.checked is not None:
        gauges.update(run.checked.gauges)
        if "accepted_per_s" in run.workload.gauge_units:
            gauges["accepted_per_s"] = run.checked.effective_samples / run_s
    gauges["failed_share"] = run.failed / run.attempted
    return metrics, gauges


def per_layer(run: Run, names) -> dict:
    out = {}
    traced = [r["layers"] for r in run.traced]
    if not traced:
        return {name: math.nan for name in names}
    for name in names:
        if name.startswith("trace."):
            continue
        values = [t[name] for t in traced]
        out[name] = _median(values) if is_time(name) else values[0]
    traced_run_s = _median([r["run_s"] for r in run.traced])
    out["trace.coverage"] = _median(
        [t["trace.self_s"] / r["run_s"] for t, r in zip(traced, run.traced)])
    out["trace.overhead_s"] = traced_run_s - _median([r["run_s"] for r in run.plain])
    return out


def report(run: Run, spec: dict, trace: bool) -> dict:
    name = run.workload.name
    print(f"# {name} seed={run.seed}: {len(run.plain)} untraced and "
          f"{len(run.traced)} traced samples, {len(run.setups)} set-up timings, "
          f"output sha256 {run.digest}")
    for label, recs in (("untraced", run.plain), ("traced", run.traced)):
        if recs:
            print(f"# {label} run_s per sample: "
                  + " ".join(f"{r['run_s']:.4f}" for r in recs))
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(run, units)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics, gauges = end_to_end(run)
        units = {**units, **run.workload.gauge_units, "failed_share": "1"}
        metrics = {**metrics, **gauges}
    for key, value in metrics.items():
        print(f"  {name:12s} {key:32s} {value:16.6g} {units[key]}")
    # A metric without a sample (the run failed first) is null, not NaN.
    return {k: {"value": metrics[k] if math.isfinite(metrics[k]) else None,
                "unit": units[k]} for k in metrics}


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "itebm" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no itebm sources under {SRC} or no {spec_path.name}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    trace = bool(args.trace)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running sample instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    print("# env " + json.dumps(environment(), sort_keys=True), flush=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    wanted = spec["per_layer" if trace else "end_to_end"]
    results, attempted, failed = {}, 0, 0
    for name in names:
        run = measure(WORKLOADS[name], args.seed, args.seconds, trace)
        shown = report(run, spec, trace)
        attempted += run.attempted
        failed += run.failed
        for m in wanted:
            key = m["name"] if len(names) == 1 else f"{name}.{m['name']}"
            results[key] = shown[m["name"]]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": results}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
