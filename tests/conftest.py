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


@pytest.fixture(scope="session")
def jittered4():
    """Criss n=4 mesh, each interior vertex coordinate moved by up to 0.2 h."""
    mesh = generate_structured(4)
    v = mesh.vertices.copy()
    inner = np.all((v > 0) & (v < 1), axis=1)
    rng = np.random.default_rng(7)
    v[inner] += 0.2 / 4 * rng.uniform(-1, 1, size=(int(inner.sum()), 2))
    return Mesh(v, mesh.cells)


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
