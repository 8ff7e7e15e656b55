"""The benchmark's self-test passes, so a change that moves the outputs off the seed-0
references fails the tests too, not only the benchmark.  Like the golden digests, the
references hold only where OpenBLAS picks the matmul kernel they were recorded with."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
@pytest.mark.kernel_bound
def test_benchmark_selftest_passes():
    """`python3 benchmarks/selftest.py`: one smoke unit per workload, its scratch files in the
    git-ignored `.bench_out/`."""
    proc = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: ok", proc.stdout
