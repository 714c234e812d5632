import numpy as np
import pytest
from hypothesis import given, strategies as st

from biharmfem.mesh import (Mesh, MeshError, cell_geometry, classify,
                            format_mesh, generate_structured, parse_mesh,
                            refine_uniform)


def test_structured_counts_n1():
    m = generate_structured(1)
    assert (m.n_vertices, m.n_edges, m.n_cells) == (4, 5, 2)


def test_structured_counts_n2():
    m = generate_structured(2)
    assert (m.n_vertices, m.n_edges, m.n_cells) == (9, 16, 8)
    assert m.n_interior_vertices == 1
    assert m.n_interior_edges == 8


def test_euler_identity_n4():
    m = generate_structured(4)
    assert m.n_cells - m.n_edges + m.n_vertices == 1
    assert (m.n_cells, m.n_edges, m.n_vertices) == (32, 56, 25)


@given(st.integers(min_value=1, max_value=7))
def test_euler_identity_any_n(n):
    m = generate_structured(n)
    assert m.euler_characteristic() == 1


def test_structured_rejects_n0():
    with pytest.raises(ValueError):
        generate_structured(0)


def test_edge_list_deterministic():
    a = generate_structured(3)
    b = generate_structured(3)
    assert a.edges.tobytes() == b.edges.tobytes()
    assert a.cell_edges.tobytes() == b.cell_edges.tobytes()


def test_interior_edge_shared_by_two_cells():
    m = generate_structured(3)
    for k in range(m.n_edges):
        owners = m.edge_cells[k]
        if m.edge_is_boundary[k]:
            assert owners[0] >= 0 and owners[1] == -1
        else:
            assert owners[0] >= 0 and owners[1] >= 0


def test_refine_doubles_structured():
    m = refine_uniform(generate_structured(1))
    assert m.n_cells == 8
    assert m.euler_characteristic() == 1
    m2 = refine_uniform(generate_structured(2))
    ref = generate_structured(4)
    assert m2.n_cells == ref.n_cells == 32
    assert m2.n_edges == ref.n_edges
    assert m2.n_vertices == ref.n_vertices
    assert m2.n_interior_vertices == ref.n_interior_vertices


def test_refine_preserves_orientation_and_euler():
    m = generate_structured(3)
    for _ in range(2):
        m = refine_uniform(m)
        assert m.euler_characteristic() == 1


def test_classify_n2_single_interior_vertex():
    m = generate_structured(2)
    cls = classify(m)
    assert list(cls.vertex_level.values()) == [1]
    assert cls.n_levels == 1


def test_classify_n4_center_level_two():
    m = generate_structured(4)
    cls = classify(m)
    center = None
    for a in m.interior_vertices():
        if np.allclose(m.vertices[a], [0.5, 0.5]):
            center = int(a)
    assert center is not None
    assert cls.vertex_level[center] == 2
    others = [cls.vertex_level[int(a)] for a in m.interior_vertices()
              if int(a) != center]
    assert all(lv == 1 for lv in others)
    # levels partition the interior vertex set
    assert sorted(cls.vertex_level) == sorted(int(a) for a in m.interior_vertices())


def test_reference_triangle_geometry():
    g = cell_geometry(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert g.area == pytest.approx(0.5)
    assert np.allclose(g.grad_lambda[0], [-1.0, -1.0])
    assert np.allclose(g.grad_lambda[1], [1.0, 0.0])
    assert np.allclose(g.grad_lambda[2], [0.0, 1.0])
    # outward normals point away from the opposite vertex
    for i in range(3):
        mid = 0.5 * (g.verts[(i + 1) % 3] + g.verts[(i + 2) % 3])
        assert np.dot(g.normals[i], mid - g.verts[i]) > 0


def test_geometry_invariants_random_triangles():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        verts = rng.uniform(-2, 2, size=(3, 2))
        u, v = verts[1] - verts[0], verts[2] - verts[0]
        cross = u[0] * v[1] - u[1] * v[0]
        if cross < 0.1:
            continue
        g = cell_geometry(verts)
        assert np.linalg.norm(g.grad_lambda.sum(axis=0)) < 1e-12
        for i in range(3):
            assert g.grad_norms[i] * 2 * g.area == pytest.approx(
                g.edge_lengths[i], abs=1e-12, rel=1e-12)
        checked += 1


def test_degenerate_cell_rejected():
    with pytest.raises(MeshError):
        cell_geometry(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(MeshError):
        Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
             np.array([[0, 2, 1]]))  # clockwise


def test_mesh_format_roundtrip():
    m = generate_structured(2)
    text = format_mesh(m)
    assert text.splitlines()[0] == "9 8"
    m2 = parse_mesh(text)
    assert format_mesh(m2) == text
    assert m2.n_cells == 8


def test_mesh_rejects_vertex_index_out_of_range():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match=r"cell 1 \[1, -1, 2\] has a vertex "
                                        r"index outside \[0, 3\)"):
        Mesh(verts, [[0, 1, 2], [1, -1, 2]])
    with pytest.raises(MeshError, match=r"cell 1 \[1, 3, 2\]"):
        Mesh(verts, [[0, 1, 2], [1, 3, 2]])


def test_mesh_rejects_vertex_in_no_cell():
    # an unused vertex would count as interior and make every space singular
    m = generate_structured(4)
    with pytest.raises(MeshError, match="vertex 25 belongs to no cell"):
        Mesh(np.vstack([m.vertices, [[0.5, 0.5]]]), m.cells)


def test_mesh_rejects_edge_shared_by_three_cells():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                      [-1.0, -0.5]])
    with pytest.raises(MeshError, match=r"edge \(1, 2\) shared by 3 cells"):
        Mesh(verts, [[0, 1, 2], [1, 3, 2], [2, 4, 1]])


def test_parse_mesh_rejects_wrong_line_count():
    text = format_mesh(generate_structured(2))
    with pytest.raises(MeshError, match="wrong number of lines"):
        parse_mesh(text.rsplit("\n", 2)[0])


def test_parse_mesh_names_a_malformed_line():
    lines = format_mesh(generate_structured(2)).splitlines()
    with pytest.raises(MeshError, match="line 1: 1 of 2 values"):
        parse_mesh("\n".join(["9"] + lines[1:]))
    short = lines[:12] + ["1 2"] + lines[13:]
    with pytest.raises(MeshError, match="line 13: 2 of 3 values"):
        parse_mesh("\n".join(short))
    # blank lines are skipped but still counted
    bad = lines[:3] + ["", "0.5 x"] + lines[4:]
    with pytest.raises(MeshError, match="line 5: could not convert .*'x'"):
        parse_mesh("\n".join(bad))


def test_every_mesh_array_is_read_only():
    base = generate_structured(3)
    verts, cells = base.vertices.copy(), base.cells.copy()
    m = Mesh(verts, cells)
    arrays = [a for a in vars(m).values() if isinstance(a, np.ndarray)]
    arrays += list(m.geometry_arrays())
    assert len(arrays) == 11
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        m.vertex_is_boundary[0] = False
    # the caller's own arrays stay writable and apart from the mesh
    verts[5] += 0.01
    cells[0] = 0
    assert np.array_equal(m.vertices, base.vertices)
    assert np.array_equal(m.cells, base.cells)


@given(st.sampled_from(["criss", "relabeled", "refined", "refined relabeled"]),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**16))
def test_incidence_properties(relabel, kind, n, seed):
    m = generate_structured(n)
    if kind.startswith("refined"):
        m = refine_uniform(m)
    if kind.endswith("relabeled"):
        m = relabel(m, seed)
    # each edge's cells contain both of its vertices
    owners = m.edge_cells
    present = owners >= 0
    corners = m.cells[np.where(present, owners, 0)]          # (ne, 2, 3)
    has = (corners[:, :, :, None] == m.edges[:, None, None, :]).any(axis=2)
    assert has.all(axis=2)[present].all()
    assert np.array_equal(present[:, 1], ~m.edge_is_boundary)
    assert present[:, 0].all()
    interior = m.interior_edges()
    assert (owners[interior, 0] < owners[interior, 1]).all()
    # every cell is an owner of its three edges
    assert (owners[m.cell_edges] == np.arange(m.n_cells)[:, None, None]) \
        .any(axis=2).all()
    # signs: +1 where the local direction a_{i+1} -> a_{i+2} is lower -> higher
    assert (m.edges[:, 0] < m.edges[:, 1]).all()
    start, end = m.cells[:, [1, 2, 0]], m.cells[:, [2, 0, 1]]
    forward = m.cell_edge_signs == 1
    assert np.isin(m.cell_edge_signs, (-1, 1)).all()
    ends = m.edges[m.cell_edges]
    assert np.array_equal(np.where(forward, start, end), ends[..., 0])
    assert np.array_equal(np.where(forward, end, start), ends[..., 1])
    assert np.array_equal(forward, start < end)
    # Euler's formula for the (simply connected) square
    assert m.n_vertices - m.n_edges + m.n_cells == 1
