"""The benchmark's own output checks, run as part of the test suite.

``perfbench/selftest.py`` produces one real output per benchmark check
(small campaigns and the one-shot CLI calls), requires every check to
accept it, and requires every check to reject corrupted copies.  It needs
scipy for its reference ``expm``, which the package does not.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.skipif(importlib.util.find_spec("scipy") is None, reason="needs scipy")
def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
