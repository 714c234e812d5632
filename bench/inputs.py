"""Seeded mesh generators for the benchmark workloads.

Both generators return plain ``(vertices, cells)`` arrays and leave the
construction to ``biharmfem.Mesh``, so its orientation and manifold checks
run on every generated mesh.
"""

from __future__ import annotations

import numpy as np

from biharmfem import Mesh, generate_structured

JITTER_AMPLITUDE = 0.2


def jittered(n: int, rng: np.random.Generator,
             amplitude: float = JITTER_AMPLITUDE) -> Mesh:
    """Criss mesh of size n with each interior vertex coordinate moved by
    at most ``amplitude * h``.

    For amplitude < 1/4 every cell keeps a positive area: a vertex moves at
    most sqrt(2)·amplitude·h, and its distance to the opposite edge line is
    at least h/sqrt(2) before the move.
    """
    base = generate_structured(n)
    verts = base.vertices.copy()
    inner = base.interior_vertices()
    verts[inner] += rng.uniform(-amplitude, amplitude,
                                size=(inner.size, 2)) / n
    return Mesh(verts, base.cells)


def relabeled(mesh: Mesh, rng: np.random.Generator) -> Mesh:
    """The same triangulation under a random vertex numbering, a random cell
    order and a random cyclic rotation of each cell's vertex triple.

    Cyclic rotation keeps every cell counter-clockwise.
    """
    nv, nc = mesh.n_vertices, mesh.n_cells
    new_of_old = rng.permutation(nv)
    verts = np.empty_like(mesh.vertices)
    verts[new_of_old] = mesh.vertices
    cells = new_of_old[mesh.cells[rng.permutation(nc)]]
    shift = rng.integers(0, 3, size=nc)
    cols = (np.arange(3)[None, :] + shift[:, None]) % 3
    cells = np.take_along_axis(cells, cols, axis=1)
    return Mesh(verts, cells)
