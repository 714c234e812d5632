import os

# One BLAS/OpenMP thread, set before numpy loads: the first multithreaded
# LAPACK call stalls for about a second, and the library's costly steps
# (SuperLU, the batched kernels) run on one thread anyway.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest
from hypothesis import settings

from biharmfem.mesh import Mesh, generate_structured
from biharmfem.quadrature import tri_rule
from biharmfem.spaces import reference_tables
from biharmfem.stokes_complex import GRADIENT_SHAPES

settings.register_profile("ci", max_examples=50, derandomize=True, deadline=None)
settings.load_profile("ci")


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name for the rest of the test (or up to monkeypatch.undo)
    so that every call appends its (args, kwargs) to the returned list,
    then runs the original.  On a class, args starts with the instance."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _jitter(n, seed, amp=0.2):
    """Criss n mesh, each interior vertex coordinate moved by a seeded
    uniform draw of up to amp * h."""
    mesh = generate_structured(n)
    v = mesh.vertices.copy()
    inner = np.all((v > 0) & (v < 1), axis=1)
    rng = np.random.default_rng(seed)
    v[inner] += amp / n * rng.uniform(-1, 1, size=(int(inner.sum()), 2))
    return Mesh(v, mesh.cells)


@pytest.fixture(scope="session")
def jitter():
    """The seeded jittering helper (see _jitter)."""
    return _jitter


@pytest.fixture(scope="session")
def jittered4():
    """Criss n=4 mesh, each interior vertex coordinate moved by up to 0.2 h."""
    return _jitter(4, seed=7)


def _relabel(mesh, seed):
    """mesh under a seeded random vertex numbering, cell order and cyclic
    rotation of each cell's vertices (which keeps every cell counter-clockwise)."""
    rng = np.random.default_rng(seed)
    new_of_old = rng.permutation(mesh.n_vertices)
    verts = np.empty_like(mesh.vertices)
    verts[new_of_old] = mesh.vertices
    cells = new_of_old[mesh.cells[rng.permutation(mesh.n_cells)]]
    shift = rng.integers(0, 3, size=mesh.n_cells)
    cols = (np.arange(3)[None, :] + shift[:, None]) % 3
    return Mesh(verts, np.take_along_axis(cells, cols, axis=1))


@pytest.fixture(scope="session")
def relabel():
    """The seeded relabeling helper (see _relabel)."""
    return _relabel


@pytest.fixture(scope="session")
def relabeled4():
    """Criss n=4 mesh, relabeled with seed 11."""
    return _relabel(generate_structured(4), 11)


def _cut(mesh, drop):
    """mesh without the cells whose centroid (x, y) satisfies drop, its
    unused vertices removed and the others renumbered in order."""
    x, y = mesh.vertices[mesh.cells].mean(axis=1).T
    cells = mesh.cells[~drop(x, y)]
    used = np.unique(cells)
    return Mesh(mesh.vertices[used], np.searchsorted(used, cells))


@pytest.fixture(scope="session")
def holed8():
    """Criss n=8 with a square hole: the cells whose centroid has
    |x - 1/2|, |y - 1/2| < 1/4 removed (96 cells, Euler characteristic 0)."""
    return _cut(generate_structured(8),
                lambda x, y: (abs(x - 0.5) < 0.25) & (abs(y - 0.5) < 0.25))


@pytest.fixture(scope="session")
def lshape8():
    """Criss n=8 without the quadrant (1/2, 1)^2: 96 cells, simply
    connected."""
    return _cut(generate_structured(8), lambda x, y: (x > 0.5) & (y > 0.5))


def _grad_array(mesh, cellvec):
    """grad_inverse's input from a callback: cellvec(c) is the (px, py)
    BaryPoly pair on cell c, fitted to GRADIENT_SHAPES at tri_rule(4)."""
    pts = tri_rule(4).points
    fit = np.linalg.pinv(reference_tables(GRADIENT_SHAPES, 4)[0].T)
    out = np.zeros((mesh.n_cells, 2, fit.shape[0]))
    for c in range(mesh.n_cells):
        for k, p in enumerate(cellvec(c)):
            out[c, k] = fit @ p.eval(pts)
    return out.ravel()


@pytest.fixture(scope="session")
def grad_array():
    """The callback-to-array helper for grad_inverse (see _grad_array)."""
    return _grad_array
