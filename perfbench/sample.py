"""One benchmark sample in a fresh interpreter.

Usage: python3 sample.py RECORD_JSON

Reads the sample's configuration from RECORD_JSON, imports ``itebm.cli``,
runs one CLI command in this process (optionally traced), and writes the
timings back into RECORD_JSON.  The command's own stdout is left alone so
the caller can capture and check it.  With ``"argv": null`` the sample
stops after the import, which times set-up alone.
"""
import json
import resource
import sys
import time


def main() -> int:
    record_path = sys.argv[1]
    with open(record_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    import itebm.cli

    t_import = time.monotonic()
    record = {"t_import": t_import, "module": itebm.cli.__file__}
    if cfg["argv"] is not None:
        tracer = None
        if cfg["trace"]:
            from layers import Tracer

            tracer = Tracer(cfg["run_id"], cfg["batches"])
            tracer.install()
        sys.argv = ["itebm", *cfg["argv"]]
        t0 = time.monotonic()
        try:
            itebm.cli.main()
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        run_s = time.monotonic() - t0
        sys.stdout.flush()
        record.update(exit_code=code, run_s=run_s)
        if tracer is not None:
            tracer.restore()
            from itebm.pauli import word_action

            record["layers"] = tracer.layer_metrics(word_action.cache_info().misses)
            tracer.dump_spans(cfg["spans"])
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
