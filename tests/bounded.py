"""Run gqw in a fresh interpreter under a time limit, so that an input which
hangs the kernel fails its test in seconds instead of stalling the suite."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_bounded(args, timeout: float = 5.0) -> subprocess.CompletedProcess:
    """``python *args`` with gqw's source on the path, its output captured
    as text.  A child still running after ``timeout`` seconds is killed and
    ``subprocess.TimeoutExpired`` is raised."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)
