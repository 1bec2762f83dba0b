"""Run an `itebm.cli` command in this process, as the tests need it: stdin,
stdout and stderr are swapped for strings, and the exit code is read from
the SystemExit that a failure raises."""
import io
import sys
from types import SimpleNamespace


class _Tee(io.StringIO):
    """A string stream that also copies each write into `both`."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


class CliRunner:
    def invoke(self, main, args, input=""):
        """Run main(args); the result has exit_code, stdout, stderr and output,
        the two streams interleaved as written."""
        both = io.StringIO()
        out, err = _Tee(both), _Tee(both)
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(input), out, err
        try:
            main(args)
            code = 0
        except SystemExit as exc:
            code = exc.code
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        return SimpleNamespace(exit_code=code, stdout=out.getvalue(), stderr=err.getvalue(),
                               output=both.getvalue())
