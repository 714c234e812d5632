"""Process set-up shared by the benchmark entry point and its tests.

Import this module before numpy: it sets the BLAS/OpenMP thread pools to one
thread and puts this checkout's ``src/`` first on
``sys.path``, so the benchmark always measures the library next to it and
never an installed copy.
"""

from __future__ import annotations

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSource(RuntimeError):
    """The checkout has no ``src/biharmfem`` to measure."""


def cap_threads() -> None:
    """Run every BLAS/OpenMP pool on one thread.

    The load is one closed-loop client, and the library's costly steps
    (SuperLU, the per-cell loops) run on one thread anyway; a second BLAS
    thread made the dense SVDs of ``verify`` no faster on a 2-vCPU machine,
    and it ties each BLAS call to the load on a second core.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_source() -> None:
    if not (SRC / "biharmfem" / "__init__.py").is_file():
        raise MissingSource(f"no library source at {SRC / 'biharmfem'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


cap_threads()
