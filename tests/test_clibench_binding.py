"""The benchmark harness under clibench/ still binds to the package.

``clibench/tracer.py`` and ``clibench/kernels.py`` reach into coopbasis by
name and signature.  A change that drops or renames what they use breaks
the traced benchmark run while every other test passes, so both are run
here once, untimed.  Nothing under clibench/ is changed.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CLIBENCH = ROOT / "clibench"
sys.path.insert(0, str(CLIBENCH))
import kernels  # noqa: E402  (a module of clibench/, found through the line above)


def _trace(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(CLIBENCH / "tracer.py"), *argv,
                             "--format", "json"],
                            capture_output=True, text=True, cwd=ROOT, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    prefix, _, trace = result.stderr.splitlines()[-1].partition(" ")
    assert prefix == "CLIBENCH-TRACE"
    return json.loads(trace)


def test_the_tracer_runs_and_reports_its_trace():
    _trace("g", "--n", "2")


def test_the_tracer_reaches_every_margolis_span():
    # k = 0..4: one enumeration per k, and each Q_i span once per k and i
    counts = _trace("verify", "--prime", "2", "--max-n", "1", "--max-k", "4")["sum"]
    assert counts["margolis.enumerate_m1.calls"] == 5
    assert counts["margolis.enumerate_m1.basis_total"] == 15
    assert counts["margolis.matrix_cells"] > 0
    for name in ("margolis_homology", "q_square_is_zero", "homologous"):
        assert counts[f"margolis.{name}.calls"] == 10, name


def test_the_tracer_counts_of_the_p2_complexes_are_pinned():
    # matrix_cells is the column count times the first column's nonzeros,
    # read through the stored tables: pinned at their values before the
    # p = 2 columns were stored as bit rows
    counts = _trace("verify", "--prime", "2", "--max-n", "1", "--max-k", "12")["sum"]
    assert counts["margolis.enumerate_m1.calls"] == 13
    assert counts["margolis.enumerate_m1.basis_total"] == 225
    assert counts["margolis.matrix_cells"] == 292


def test_the_tracer_counts_of_the_odd_prime_complexes_are_pinned():
    # at p = 3 the columns are sparse dicts with one term per tau, so
    # matrix_cells follows the enumeration's odd-p column build
    counts = _trace("verify", "--prime", "3", "--max-n", "1", "--max-k", "30")["sum"]
    assert counts["margolis.enumerate_m1.calls"] == 31
    assert counts["margolis.enumerate_m1.basis_total"] == 783
    assert counts["margolis.matrix_cells"] == 1128


def test_every_benchmark_kernel_runs():
    for call in kernels.kernels().values():
        call()
