"""Run a command in a child process and report how it ended, with the
child's own peak resident set size.

    from peak_rss import run
    code, out, err, peak = run(["omd", "verify", "big.json"])

os.wait4 reads the peak of this one child, in KB on Linux, where
RUSAGE_CHILDREN would keep the largest of every child reaped so far. Put
this directory on PYTHONPATH to import it.
"""

import os
import subprocess
import tempfile


def run(args: list[str]) -> tuple[int, str, str, int]:
    """Exit code, stdout, stderr and peak RSS in KB of the command args."""
    with tempfile.TemporaryFile() as err:
        # stderr goes to a file, so neither pipe can fill while the other is read
        child = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=err, text=True)
        with child.stdout:
            out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return child.returncode, out, err.read().decode(), usage.ru_maxrss
