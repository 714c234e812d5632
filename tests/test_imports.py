import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_test_only_or_unused_modules():
    # scipy.special costs about 50 ms and 4 MB at import and the library
    # needs none of it; scipy.sparse.csgraph is needed by grad_inverse only,
    # not by a solve; sympy is a test-only extra
    code = ("import sys, biharmfem; print(sorted(m for m in sys.modules if "
            "m.split('.')[0] == 'sympy' or m.startswith(('scipy.special', "
            "'scipy.sparse.csgraph'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    assert out.strip() == "[]"
