"""Triangulations of polygonal domains with full entity incidence.

Conventions
-----------
* cells are triples of vertex indices in counter-clockwise order;
* edge k of a cell is opposite local vertex k and runs (locally) from
  vertex k+1 to vertex k+2 (indices mod 3);
* the canonical orientation of a global edge is from the lower to the higher
  global vertex index, and the edge list is sorted lexicographically, so the
  same mesh always produces the identical edge table;
* the canonical edge normal is the canonical tangent rotated clockwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


class Mesh:
    """Immutable triangulation with derived edge incidence data."""

    def __init__(self, vertices, cells):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be (nv, 2)")
        if self.cells.ndim != 2 or self.cells.shape[1] != 3:
            raise MeshError("cells must be (nc, 3)")
        self._check_orientation()
        self._build_edges()
        self._geom_cache: dict[int, CellGeometry] = {}
        self._geom_arrays = None
        for arr in (self.vertices, self.cells, self.edges, self.cell_edges,
                    self.cell_edge_signs, self.edge_cells):
            arr.setflags(write=False)

    def _check_orientation(self):
        v = self.vertices
        a, b, c = (v[self.cells[:, k]] for k in range(3))
        cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - \
                (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
        scale = max(1.0, float(np.abs(v).max()) ** 2)
        if np.any(cross <= 1e-14 * scale):
            bad = int(np.argmin(cross))
            raise MeshError(f"cell {bad} is degenerate or clockwise "
                            f"(signed area {cross[bad] / 2:.3e})")

    def _build_edges(self):
        nc = self.n_cells
        pairs = {}
        for c in range(nc):
            for i in range(3):
                a = int(self.cells[c, (i + 1) % 3])
                b = int(self.cells[c, (i + 2) % 3])
                key = (a, b) if a < b else (b, a)
                pairs.setdefault(key, []).append((c, i))
        edges = sorted(pairs)
        eindex = {e: k for k, e in enumerate(edges)}
        self.edges = np.array(edges, dtype=np.int64).reshape(len(edges), 2)
        self.cell_edges = np.zeros((nc, 3), dtype=np.int64)
        self.cell_edge_signs = np.zeros((nc, 3), dtype=np.int64)
        self.edge_cells = np.full((len(edges), 2), -1, dtype=np.int64)
        for key, incid in pairs.items():
            if len(incid) > 2:
                raise MeshError(f"edge {key} shared by {len(incid)} cells")
            k = eindex[key]
            for c, i in sorted(incid):
                self.cell_edges[c, i] = k
                a = int(self.cells[c, (i + 1) % 3])
                self.cell_edge_signs[c, i] = 1 if a == key[0] else -1
                if self.edge_cells[k, 0] == -1:
                    self.edge_cells[k, 0] = c
                else:
                    self.edge_cells[k, 1] = c
        self.edge_is_boundary = self.edge_cells[:, 1] == -1
        self.vertex_is_boundary = np.zeros(self.n_vertices, dtype=bool)
        for k in np.flatnonzero(self.edge_is_boundary):
            self.vertex_is_boundary[self.edges[k]] = True

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def interior_vertices(self) -> np.ndarray:
        return np.flatnonzero(~self.vertex_is_boundary)

    def interior_edges(self) -> np.ndarray:
        return np.flatnonzero(~self.edge_is_boundary)

    @property
    def n_interior_vertices(self) -> int:
        return int((~self.vertex_is_boundary).sum())

    @property
    def n_interior_edges(self) -> int:
        return int((~self.edge_is_boundary).sum())

    def euler_characteristic(self) -> int:
        return self.n_cells - self.n_edges + self.n_vertices

    def geometry(self, c: int) -> "CellGeometry":
        geom = self._geom_cache.get(c)
        if geom is None:
            geom = cell_geometry(self, c)
            self._geom_cache[c] = geom
        return geom

    def geometry_arrays(self):
        """(grad_lambda (nc, 3, 2), area (nc,), verts (nc, 3, 2)) of all cells.

        Computed once, with the floating-point operations of cell_geometry.
        """
        if self._geom_arrays is None:
            verts = self.vertices[self.cells]
            e1 = verts[:, 1] - verts[:, 0]
            e2 = verts[:, 2] - verts[:, 0]
            det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
            opp = verts[:, [2, 0, 1]] - verts[:, [1, 2, 0]]
            gl = np.stack([-opp[..., 1], opp[..., 0]], axis=-1) \
                / det[:, None, None]
            self._geom_arrays = (gl, det / 2.0, verts)
            for arr in self._geom_arrays:
                arr.setflags(write=False)
        return self._geom_arrays

    def vertex_cells(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for c in range(self.n_cells):
            for a in self.cells[c]:
                out[int(a)].append(c)
        return out

    def vertex_edges(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for k in range(self.n_edges):
            out[int(self.edges[k, 0])].append(k)
            out[int(self.edges[k, 1])].append(k)
        return out

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(format_mesh(self))

    @staticmethod
    def load(path) -> "Mesh":
        with open(path) as fh:
            return parse_mesh(fh.read())


def format_mesh(mesh: Mesh) -> str:
    lines = [f"{mesh.n_vertices} {mesh.n_cells}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for a, b, c in mesh.cells:
        lines.append(f"{int(a)} {int(b)} {int(c)}")
    return "\n".join(lines) + "\n"


def parse_mesh(text: str) -> Mesh:
    rows = [ln.split() for ln in text.strip().splitlines() if ln.strip()]
    nv, nc = int(rows[0][0]), int(rows[0][1])
    if len(rows) != 1 + nv + nc:
        raise MeshError("mesh file has wrong number of lines")
    verts = [[float(r[0]), float(r[1])] for r in rows[1:1 + nv]]
    cells = [[int(r[0]), int(r[1]), int(r[2])] for r in rows[1 + nv:]]
    return Mesh(np.array(verts), np.array(cells))


@dataclass(frozen=True)
class CellGeometry:
    """Per-cell geometric data in barycentric form."""

    verts: np.ndarray            # (3, 2)
    area: float
    grad_lambda: np.ndarray      # (3, 2)
    gram: np.ndarray             # (3, 3), grad_lambda @ grad_lambda.T
    grad_norms: np.ndarray       # (3,), ||grad lam_i||
    edge_lengths: np.ndarray     # (3,), |e_i|
    tangents: np.ndarray         # (3, 2), unit, local direction a_{i+1} -> a_{i+2}
    normals: np.ndarray          # (3, 2), unit outward

    def signature(self) -> tuple:
        """Congruence-class key: local integrals depend only on this data."""
        return (round(self.area, 14),) + tuple(
            round(float(g), 13) for g in self.grad_lambda.ravel())


def cell_geometry(mesh_or_verts, cell: int | None = None) -> CellGeometry:
    """Geometry of one cell, or of an explicit vertex triple."""
    if cell is None:
        verts = np.asarray(mesh_or_verts, dtype=float)
    else:
        verts = mesh_or_verts.vertices[mesh_or_verts.cells[cell]]
    e1 = verts[1] - verts[0]
    e2 = verts[2] - verts[0]
    det = e1[0] * e2[1] - e1[1] * e2[0]
    scale = max(1.0, float(np.abs(verts).max()) ** 2)
    if det <= 1e-14 * scale:
        raise MeshError(f"degenerate cell with signed area {det / 2:.3e}")
    gl = np.empty((3, 2))
    tangents = np.empty((3, 2))
    lengths = np.empty(3)
    for i in range(3):
        opp = verts[(i + 2) % 3] - verts[(i + 1) % 3]
        gl[i] = np.array([-opp[1], opp[0]]) / det
        lengths[i] = np.hypot(opp[0], opp[1])
        tangents[i] = opp / lengths[i]
    normals = np.stack([tangents[:, 1], -tangents[:, 0]], axis=1)
    return CellGeometry(
        verts=verts, area=det / 2.0, grad_lambda=gl, gram=gl @ gl.T,
        grad_norms=np.linalg.norm(gl, axis=1), edge_lengths=lengths,
        tangents=tangents, normals=normals)


@dataclass
class EntityClassification:
    """Interior/boundary entity sets and interior-vertex peeling levels."""

    interior_vertices: np.ndarray
    boundary_vertices: np.ndarray
    interior_edges: np.ndarray
    boundary_edges: np.ndarray
    vertex_level: dict[int, int]   # interior vertex -> level k (>= 1)
    n_levels: int


def classify(mesh: Mesh) -> EntityClassification:
    """Peel interior vertices level by level from the boundary."""
    neighbors: list[list[int]] = [[] for _ in range(mesh.n_vertices)]
    for k in mesh.interior_edges():
        a, b = (int(x) for x in mesh.edges[k])
        neighbors[a].append(b)
        neighbors[b].append(a)
    level: dict[int, int] = {}
    current = {int(a) for a in np.flatnonzero(mesh.vertex_is_boundary)}
    remaining = {int(a) for a in mesh.interior_vertices()}
    k = 0
    while remaining:
        k += 1
        nxt = {a for a in remaining if any(b in current for b in neighbors[a])}
        if not nxt:
            raise MeshError("interior vertices not connected to the boundary")
        for a in nxt:
            level[a] = k
        remaining -= nxt
        current = nxt
    return EntityClassification(
        interior_vertices=mesh.interior_vertices(),
        boundary_vertices=np.flatnonzero(mesh.vertex_is_boundary),
        interior_edges=mesh.interior_edges(),
        boundary_edges=np.flatnonzero(mesh.edge_is_boundary),
        vertex_level=level, n_levels=k)


def generate_structured(n: int) -> Mesh:
    """n x n criss pattern on the unit square (positive-slope diagonals)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    verts = np.array([[x, y] for y in xs for x in xs])
    cells = []
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            v10 = v00 + 1
            v01 = v00 + (n + 1)
            v11 = v01 + 1
            cells.append([v00, v10, v11])
            cells.append([v00, v11, v01])
    return Mesh(verts, np.array(cells))


def refine_uniform(mesh: Mesh) -> Mesh:
    """Red refinement: each triangle split into 4 congruent children."""
    nv = mesh.n_vertices
    mid = (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]]) / 2.0
    verts = np.vstack([mesh.vertices, mid])
    cells = []
    for c in range(mesh.n_cells):
        a = [int(v) for v in mesh.cells[c]]
        m = [nv + int(mesh.cell_edges[c, i]) for i in range(3)]
        cells.append([a[0], m[2], m[1]])
        cells.append([a[1], m[0], m[2]])
        cells.append([a[2], m[1], m[0]])
        cells.append([m[0], m[1], m[2]])
    return Mesh(verts, np.array(cells))
