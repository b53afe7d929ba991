"""Benchmark tooling: the tracer of `bench/worker.py` still finds what it wraps.

`--trace 1` replaces functions by name in the package's modules and stops
on a name that is missing, so a rename in the package breaks traced runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tracer_installs():
    code = ("import sys; sys.path.insert(0, 'bench'); import worker; "
            "worker.install_tracer(worker.Tracer())")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
