"""Importing the package must not load SciPy's signal, stats or special
modules: together they cost about a second and 45 MB per process, and the
package needs only LAPACK's banded triangular solve from SciPy."""

import os
import subprocess
import sys
from pathlib import Path

import statefx

SRC = Path(statefx.__file__).resolve().parents[1]

PROBE = """
import sys
import statefx, statefx.cli
heavy = ("scipy.signal", "scipy.stats", "scipy.special")
print(sorted(m for m in sys.modules if m.startswith(heavy)))
"""


def test_import_loads_no_heavy_scipy_module():
    r = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                       timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
