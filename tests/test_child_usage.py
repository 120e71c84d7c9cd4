import os
import subprocess
import sys
from pathlib import Path

import pytest

from child_usage import run_measured


def touch(mb):
    """A Python statement that allocates and touches `mb` MB."""
    return f"b = bytearray({mb} << 20); b[::4096] = bytes(len(b[::4096]))"


def test_the_launcher_passes_stdout_through_and_reads_cpu():
    out, cpu_s, peak_mb = run_measured([sys.executable, "-c", "print('x')"])
    assert out == b"x\n"
    assert cpu_s > 0
    assert 0 < peak_mb < 30


def test_the_launcher_reads_the_peak_of_the_command():
    assert run_measured([sys.executable, "-c", touch(64)])[2] > 64


def test_the_peak_leaves_out_the_parent_of_the_launcher():
    """From a parent that holds 100 MB, `python -c pass` reads below 30 MB
    through the launcher, and above 100 MB as the parent's own child: the
    fork before `exec` keeps the parent's high-water mark."""
    script = (f"{touch(100)}; import resource, subprocess, sys; "
              "from child_usage import run_measured; "
              "print(run_measured([sys.executable, '-c', 'pass'])[2]); "
              "subprocess.run([sys.executable, '-c', 'pass'], check=True); "
              "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    launched, direct = map(float, done.stdout.split())
    assert launched < 30 < 100 < direct


def test_a_failing_command_raises_with_its_stderr():
    with pytest.raises(subprocess.CalledProcessError) as failed:
        run_measured([sys.executable, "-c", "import sys; sys.exit('refused')"])
    assert failed.value.returncode == 1
    assert b"refused" in failed.value.stderr
