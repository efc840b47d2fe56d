"""Shared test helpers: `runner` runs a command-line entry point in-process."""

import contextlib
import io
from typing import NamedTuple

import pytest


class Result(NamedTuple):
    exit_code: int
    output: str  # standard output and standard error, interleaved
    stdout: str
    stderr: str


class _Tee(io.StringIO):
    """A stream that also copies what it is written into `both`."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, text):
        self.both.write(text)
        return super().write(text)


class Runner:
    def invoke(self, main, args) -> Result:
        """Call `main(args)` with standard output and error captured and
        return its exit code (0 when it returns) and what it printed."""
        both = io.StringIO()
        out, err = _Tee(both), _Tee(both)
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(list(args))
            except SystemExit as exc:
                code = exc.code or 0
        return Result(code, both.getvalue(), out.getvalue(), err.getvalue())


@pytest.fixture()
def runner():
    return Runner()
