"""Run ``cventlab ARGS`` in this process, as the console script runs it, capturing its streams."""

import contextlib
import io
import os
from typing import NamedTuple
from unittest import mock

from cventlab import cli


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """stdout then stderr; a command writes its table or its refusal, not both."""
        return self.stdout + self.stderr

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode("utf-8")


def run_cli(args, env=None) -> Result:
    """``cventlab ARGS`` with ``env`` set in ``os.environ`` for the call.

    The exit code is that of its SystemExit, or 0.  Any other exception
    propagates, so a traceback fails the test that gets it.
    """
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with mock.patch.dict(os.environ, env or {}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(list(args), prog_name="cventlab")
        except SystemExit as exc:
            code = exc.code or 0
    return Result(code, out.getvalue(), err.getvalue())
