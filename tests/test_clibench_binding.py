"""The benchmark harness under clibench/ still binds to the package.

``clibench/tracer.py`` and ``clibench/kernels.py`` reach into coopbasis by
name and signature.  A change that drops or renames what they use breaks
the traced benchmark run while every other test passes, so both are run
here once, untimed.  Nothing under clibench/ is changed.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CLIBENCH = ROOT / "clibench"
sys.path.insert(0, str(CLIBENCH))
import kernels  # noqa: E402  (a module of clibench/, found through the line above)


def test_the_tracer_runs_and_reports_its_trace():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(CLIBENCH / "tracer.py"), "g", "--n", "2",
                             "--format", "json"],
                            capture_output=True, text=True, cwd=ROOT, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1].startswith("CLIBENCH-TRACE ")


def test_every_benchmark_kernel_runs():
    for call in kernels.kernels().values():
        call()
