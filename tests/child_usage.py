"""The CPU time and peak RSS of one command, run as a child process.

A child's `ru_maxrss` counts its parent's pages: the fork (or vfork) before
`exec` keeps the high-water mark of the parent's address space.  Read from
pytest, a small command's peak would be pytest's own.  So each command runs
as the only child of a few-line `python -c` launcher, which reports its
`RUSAGE_CHILDREN` CPU time and peak RSS: the peak of the command, or the
launcher's own size where that is larger (13.7 MB for `python -c pass`,
Python 3.11).  Shared by tests/test_child_usage.py and
scale/test_at_scale.py.
"""

import subprocess
import sys

# runs argv[1:] with its stdout passed through, then writes
# "\n<CPU s> <peak kB>" last on stderr and exits with the command's code
LAUNCHER = """\
import resource, subprocess, sys
code = subprocess.call(sys.argv[1:])
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
sys.stderr.write(f"\\n{usage.ru_utime + usage.ru_stime} {usage.ru_maxrss}")
sys.exit(code)
"""


def run_measured(argv):
    """`(stdout, cpu_s, peak_mb)` of the command `argv`, run through the
    launcher: its stdout bytes, its user plus system CPU seconds and its
    peak RSS in MB.  A nonzero exit raises `CalledProcessError`, with the
    command's stderr."""
    done = subprocess.run([sys.executable, "-c", LAUNCHER, *argv],
                          capture_output=True, check=True)
    cpu_s, peak_kb = done.stderr.rpartition(b"\n")[2].split()
    return done.stdout, float(cpu_s), int(peak_kb) / 1024
