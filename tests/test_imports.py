"""Importing the package must not load the scipy.linalg package or SciPy's
signal, stats or special modules.  The package needs only LAPACK's banded
triangular solve from SciPy, which scans loads from SciPy's compiled LAPACK
wrapper alone.  Together signal, stats and special cost about a second and
45 MB per process; scipy.linalg's own init costs 140-180 ms and 20-27 MB
(``import statefx`` took 0.24-0.27 s and 58 MB of peak RSS with it,
0.12 s and 39 MB without, on a 2-core x86-64 VM with 1 BLAS thread)."""

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
print(sorted(m for m in sys.modules if m.startswith(heavy) or m == "scipy.linalg"))
"""

# the loader given a SciPy directory without linalg/_flapack imports scipy.linalg.lapack
FALLBACK = """
import sys
import numpy as np
from statefx import scans
assert "scipy.linalg" not in sys.modules
dtbtrs, ztbtrs = scans._banded_solvers([sys.argv[1]])
assert "scipy.linalg.lapack" in sys.modules
band = np.array([[1.0, 1.0, 1.0], [-0.5, -0.5, 0.0]])
x, info = dtbtrs(band, np.ones(3), "L", "N", "U")
z, zinfo = ztbtrs(band.astype(complex), np.ones(3, complex), "L", "C", "U")
print(info, zinfo, x.tolist(), z.tolist())
"""


def _run(code, *args):
    r = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                       timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert r.returncode == 0, r.stderr
    return r.stdout.strip()


def test_import_loads_no_heavy_scipy_module():
    assert _run(PROBE) == "[]"


def test_banded_solvers_fall_back_to_scipy_linalg_lapack(tmp_path):
    (tmp_path / "linalg").mkdir()
    assert _run(FALLBACK, str(tmp_path)) == ("0 0 [1.0, 1.5, 1.75] "
                                             "[(1.75+0j), (1.5+0j), (1+0j)]")
