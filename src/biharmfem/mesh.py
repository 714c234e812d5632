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
    """Immutable triangulation with derived edge incidence and cell geometry.

    Rejects non-finite vertex coordinates, vertex indices out of range,
    vertices in no cell, degenerate or clockwise cells, and edges shared by
    more than two cells.
    """

    def __init__(self, vertices, cells):
        # copies, so that freezing them leaves the caller's arrays writable
        self.vertices = np.array(vertices, dtype=float, order="C")
        self.cells = np.array(cells, dtype=np.int64, order="C")
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be (nv, 2)")
        if self.cells.ndim != 2 or self.cells.shape[1] != 3:
            raise MeshError("cells must be (nc, 3)")
        nonfinite = ~np.isfinite(self.vertices).all(axis=1)
        if nonfinite.any():
            bad = int(np.argmax(nonfinite))
            raise MeshError(f"vertex {bad} has a non-finite coordinate "
                            f"{self.vertices[bad].tolist()}")
        nv = self.n_vertices
        out = ((self.cells < 0) | (self.cells >= nv)).any(axis=1)
        if out.any():
            bad = int(np.argmax(out))
            raise MeshError(f"cell {bad} {self.cells[bad].tolist()} has a "
                            f"vertex index outside [0, {nv})")
        unused = np.flatnonzero(np.bincount(self.cells.ravel(),
                                            minlength=nv) == 0)
        if unused.size:
            raise MeshError(f"vertex {unused[0]} belongs to no cell")
        verts = self.vertices[self.cells]
        self._geom_arrays = _geometry(verts) + (verts,)
        self._build_edges()
        for arr in (self.vertices, self.cells, self.edges, self.cell_edges,
                    self.cell_edge_signs, self.edge_cells,
                    self.edge_is_boundary, self.vertex_is_boundary,
                    *self._geom_arrays):
            arr.setflags(write=False)

    def _build_edges(self):
        # local edge i runs from vertex i+1 to vertex i+2; key lo * nv + hi
        # sorts the global edges lexicographically
        nv = self.n_vertices
        a, b = self.cells[:, [1, 2, 0]], self.cells[:, [2, 0, 1]]
        lo = np.minimum(a, b)
        keys, inverse, counts = np.unique(
            (lo * nv + np.maximum(a, b)).ravel(), return_inverse=True,
            return_counts=True)
        if counts.max(initial=0) > 2:
            k = inverse[np.argmax(counts[inverse] > 2)]
            raise MeshError(f"edge {divmod(int(keys[k]), nv)} shared by "
                            f"{counts[k]} cells")
        self.edges = np.stack(np.divmod(keys, nv), axis=1)
        self.cell_edges = inverse.reshape(self.cells.shape)
        self.cell_edge_signs = np.where(a == lo, 1, -1)
        # occurrences c * 3 + i grouped by edge, lower cell first
        cell_of = np.argsort(inverse, kind="stable") // 3
        first = np.cumsum(counts) - counts
        self.edge_cells = np.full((keys.size, 2), -1, dtype=np.int64)
        self.edge_cells[:, 0] = cell_of[first]
        shared = counts == 2
        self.edge_cells[shared, 1] = cell_of[first[shared] + 1]
        self.edge_is_boundary = counts == 1
        self.vertex_is_boundary = np.zeros(nv, dtype=bool)
        self.vertex_is_boundary[self.edges[self.edge_is_boundary]] = True

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
        return cell_geometry(self.vertices[self.cells[c]])

    def geometry_arrays(self):
        """(grad_lambda (nc, 3, 2), area (nc,), verts (nc, 3, 2)) of all cells,
        read-only; the same floating-point values as cell_geometry."""
        return self._geom_arrays

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(format_mesh(self))

    @staticmethod
    def load(path) -> "Mesh":
        with open(path) as fh:
            return parse_mesh(fh.read())


def format_mesh(mesh: Mesh) -> str:
    # a list's repr spells each float as repr(float): exact and shortest
    rows = repr(mesh.vertices.tolist() + mesh.cells.tolist())
    body = rows[2:-2].replace("], [", "\n").replace(", ", " ")
    return f"{mesh.n_vertices} {mesh.n_cells}\n{body}\n"


def _fields(rows, width: int, kind) -> list:
    """The first width tokens of each (line number, tokens) row as kind; a
    short row or a token kind cannot read raises MeshError naming its line."""
    out = []
    for lineno, tokens in rows:
        try:
            if len(tokens) < width:
                raise ValueError(f"{len(tokens)} of {width} values")
            out.append([kind(t) for t in tokens[:width]])
        except ValueError as exc:
            raise MeshError(f"mesh file line {lineno}: {exc}") from None
    return out


def parse_mesh(text: str) -> Mesh:
    """The mesh in format_mesh's text; a malformed line raises MeshError
    naming its number, blank lines counted."""
    rows = [(k, line.split()) for k, line in enumerate(text.splitlines(), 1)
            if line.strip()]
    (nv, nc), = _fields(rows[:1] or [(1, [])], 2, int)
    if min(nv, nc) < 0:
        raise MeshError(f"mesh file line {rows[0][0]}: negative count in "
                        f"header {nv} {nc}")
    if len(rows) != 1 + nv + nc:
        raise MeshError("mesh file has wrong number of lines")
    verts = np.array(_fields(rows[1:1 + nv], 2, float), dtype=float)
    cells = np.array(_fields(rows[1 + nv:], 3, int), dtype=np.int64)
    return Mesh(verts.reshape(-1, 2), cells.reshape(-1, 3))


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


def _geometry(verts: np.ndarray):
    """(grad_lambda (nc, 3, 2), area (nc,)) of the triangles verts (nc, 3, 2).

    Raises MeshError if a cell is degenerate or clockwise, before dividing.
    """
    e1 = verts[:, 1] - verts[:, 0]
    e2 = verts[:, 2] - verts[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    scale = max(1.0, float(np.abs(verts).max(initial=0.0)) ** 2)
    if np.any(det <= 1e-14 * scale):
        bad = int(np.argmin(det))
        raise MeshError(f"cell {bad} is degenerate or clockwise "
                        f"(signed area {det[bad] / 2:.3e})")
    opp = verts[:, [2, 0, 1]] - verts[:, [1, 2, 0]]
    gl = np.stack([-opp[..., 1], opp[..., 0]], axis=-1) / det[:, None, None]
    return gl, det / 2.0


def cell_geometry(verts) -> CellGeometry:
    """Geometry of the triangle with vertex array verts (3, 2)."""
    verts = np.asarray(verts, dtype=float)
    (gl,), (area,) = _geometry(verts[None])
    opp = verts[[2, 0, 1]] - verts[[1, 2, 0]]
    lengths = np.hypot(opp[:, 0], opp[:, 1])
    tangents = opp / lengths[:, None]
    normals = np.stack([tangents[:, 1], -tangents[:, 0]], axis=1)
    return CellGeometry(
        verts=verts, area=area, grad_lambda=gl, gram=gl @ gl.T,
        grad_norms=np.linalg.norm(gl, axis=1), edge_lengths=lengths,
        tangents=tangents, normals=normals)


def generate_structured(n: int) -> Mesh:
    """n x n criss pattern on the unit square (positive-slope diagonals)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    x, y = np.meshgrid(xs, xs)
    # square (i, j) in row-major order: cells (v00, v10, v11), (v00, v11, v01)
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v10, v01 = v00 + 1, v00 + n + 1
    v11 = v01 + 1
    cells = np.stack([v00, v10, v11, v00, v11, v01], axis=1)
    return Mesh(np.column_stack([x.ravel(), y.ravel()]), cells.reshape(-1, 3))


def refine_uniform(mesh: Mesh) -> Mesh:
    """Red refinement: each triangle split into 4 congruent children.

    Child k < 3 is (a_k, m_{k+2}, m_{k+1}) with m_i the midpoint of edge i;
    child 3 is (m_0, m_1, m_2).
    """
    v = mesh.vertices
    verts = np.vstack([v, (v[mesh.edges[:, 0]] + v[mesh.edges[:, 1]]) / 2.0])
    m = mesh.n_vertices + mesh.cell_edges
    corners = np.stack([mesh.cells, m[:, [2, 0, 1]], m[:, [1, 2, 0]]], axis=2)
    cells = np.concatenate([corners, m[:, None]], axis=1)
    return Mesh(verts, cells.reshape(-1, 3))
