"""Tests of the benchmark's own parts: input generators, tracer, manifest.

Run from the repository root with ``python -m pytest bench``.
"""

from __future__ import annotations

import json
import time

import bootstrap

bootstrap.use_checkout_source()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import biharmfem as bf  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

KINDS = ("A3_0", "G2_0", "P1_0", "A4_0", "G3_0", "P2_0")


def test_jittered_mesh_keeps_topology_and_moves_interior_only():
    base = bf.generate_structured(8)
    mesh = inputs.jittered(8, np.random.default_rng(3))
    assert isinstance(mesh, bf.Mesh)
    np.testing.assert_array_equal(mesh.cells, base.cells)
    moved = np.abs(mesh.vertices - base.vertices)
    assert moved[base.vertex_is_boundary].max() == 0.0
    inner = moved[~base.vertex_is_boundary]
    assert 0.0 < inner.max() <= inputs.JITTER_AMPLITUDE / 8


def test_generated_meshes_pass_the_orientation_check():
    # An amplitude far beyond the safe range folds cells over; the generator
    # must hand that to Mesh, which rejects it.
    with pytest.raises(bf.MeshError):
        inputs.jittered(4, np.random.default_rng(0), amplitude=3.0)
    mesh = inputs.relabeled(bf.generate_structured(4),
                            np.random.default_rng(0))
    v = mesh.vertices[mesh.cells]
    cross = ((v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
             - (v[:, 1, 1] - v[:, 0, 1]) * (v[:, 2, 0] - v[:, 0, 0]))
    assert (cross > 0).all()


def test_relabeling_changes_numbering_not_triangulation():
    base = bf.generate_structured(4)
    mesh = inputs.relabeled(base, np.random.default_rng(5))
    assert not np.array_equal(mesh.cells, base.cells)

    def triangles(m):
        return sorted(tuple(sorted(map(tuple, np.round(m.vertices[c], 12))))
                      for c in m.cells)

    assert triangles(mesh) == triangles(base)
    rotated = mesh.cells != np.sort(mesh.cells, axis=1)
    assert rotated.any()


@pytest.mark.parametrize("seed", [0, 1])
def test_relabeling_keeps_dof_counts(seed):
    base = bf.generate_structured(4)
    mesh = inputs.relabeled(base, np.random.default_rng(seed))
    for kind in KINDS:
        assert bf.build_space(mesh, kind).ndof == \
            bf.build_space(base, kind).ndof, kind


@pytest.mark.parametrize("scheme", ["cubic", "quartic"])
def test_relabeling_keeps_error_norms_at_n8(scheme):
    problem = bf.manufactured(workloads.PROBLEM)
    base = bf.generate_structured(8)
    mesh = inputs.relabeled(base, np.random.default_rng(11))
    _, want = workloads._solve_with_norms(scheme, base, problem)
    _, got = workloads._solve_with_norms(scheme, mesh, problem)
    np.testing.assert_allclose(got, want, rtol=workloads.NORM_RTOL, atol=0)


def test_self_times_account_for_the_parent_span():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("a"):
            time.sleep(0.01)
        with tracer.span("b"):
            time.sleep(0.02)
        time.sleep(0.01)
    outer, a, b = tracer.spans
    selfs = tracer.self_times()
    assert a.parent == 0 and b.parent == 0 and outer.parent is None
    assert selfs[0] == pytest.approx(outer.duration - a.duration - b.duration)
    assert sum(selfs) == pytest.approx(outer.duration)
    assert selfs[0] >= 0.009


def test_wrap_records_spans_and_uninstall_restores():
    import biharmfem.biharmonic as bh
    import biharmfem.linalg as la

    originals = (bh.build_space, bh.spla, la.spla)
    tracer = Tracer()
    layers.install(tracer)
    try:
        tracer.op = 0
        res = bf.solve_cubic(bf.generate_structured(2),
                             bf.manufactured("sin2").f)
    finally:
        tracer.uninstall()
    assert (bh.build_space, bh.spla, la.spla) == originals
    names = [s.name for s in tracer.spans]
    assert names.count("spaces.build_space") == 3
    assert names.count("linalg.splu") == 3
    m = layers.op_metrics(tracer, 0, [bf.generate_structured(2)], {})
    assert m["spaces.dofs.potential"] == res.diagnostics["dofs_potential"]
    assert m["linalg.splu_calls"] == 3
    assert m["linalg.lu_fill.saddle"] > 0 and m["linalg.lu_fill.spd"] > 0


def test_manifest_matches_the_benchmark():
    manifest = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == \
        list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == list(layers.PER_LAYER)
    assert {m["name"] for m in manifest["end_to_end"]} == \
        {"op_s", "setup_s", "peak_rss_mb", "ok_frac"}


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 19) is None
    assert run.tail_percentile(list(range(20)))[0] == 50
    assert run.tail_percentile(list(range(100)))[0] == 90


def test_traced_run_alternates_pairs_on_one_input():
    calls = []

    class Fake:
        def operation(self, state, k):
            calls.append((k, bool(tracer._patched)))
            time.sleep(0.01)

        def check(self, state, k, result):
            return workloads.Checks()

    def install(t):
        t._patched.append((Fake, "marker", None))

    tracer = Tracer()
    times, traced_times, traced_ops, _, failures = run.run_ops(
        Fake(), None, 0.09, tracer, install)
    assert len(times) == len(traced_times) >= 2 and not any(failures)
    assert [k for k, _ in calls] == [i // 2 for i in range(len(calls))]
    assert [t for _, t in calls][:4] == [False, True, True, False]
    assert traced_ops == [i for i, (_, t) in enumerate(calls) if t]
    assert not tracer._patched
